// Live phase: a streaming writer (IncrementalEstimator + WAL) publishes into a
// SnapshotRegistry while open-loop clients query it through RequestExecutor.
// Every request and batch is timed from the moment it was due.

#include <algorithm>
#include <atomic>
#include <cmath>
#include <filesystem>
#include <future>
#include <iostream>
#include <random>
#include <thread>
#include <variant>

#include "core/incremental.hpp"
#include "data/datasets.hpp"
#include "sched/thread_pool.hpp"
#include "serve/executor.hpp"
#include "serve/service.hpp"
#include "serve/session.hpp"
#include "serve/snapshot_registry.hpp"
#include "serve/wire.hpp"
#include "util/rng.hpp"
#include "workload.hpp"

namespace perfbench {

namespace w = stkde::serve::wire;

namespace {

enum Kind { kDensityAt, kRegionSum, kRegionMax, kSlice, kHotspots, kRegionGrid, kKinds };
constexpr const char* kKindNames[kKinds] = {"density_at", "region_sum", "region_max",
                                            "slice",      "hotspots",   "region_grid"};
// The fixed mix: 60% cheap, 30% medium, 10% expensive. Hotspots take most of
// the expensive share so the class median sits inside their mode rather than
// between them and the far cheaper region grids.
constexpr int kKindWeight[kKinds] = {60, 10, 10, 10, 6, 4};
constexpr const char* kClassNames[3] = {"cheap", "medium", "expensive"};

constexpr std::size_t kClients = 16;        // open-loop client threads
constexpr int kServeWorkers = 2;
constexpr auto kDeadline = std::chrono::milliseconds(250);
constexpr auto kWaitSpin = std::chrono::microseconds(150);
constexpr double kEventsPerDay = 5000.0;

int class_of(Kind k) {
  return k == kDensityAt ? 0 : (k == kHotspots || k == kRegionGrid) ? 2 : 1;
}

double ms(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}

/// Empty when \p msg is the answer \p kind asks for; otherwise what is wrong.
/// An error response is wrong too: callers that accept sheds check first.
std::string wrong_answer(Kind kind, const w::ResponseMessage& msg) {
  const std::size_t want = kind == kDensityAt ? 0 : kind <= kRegionMax ? 1 : kind == kSlice ? 2
                           : kind == kHotspots ? 3 : 4;
  if (msg.index() != want) return std::string("wrong response type for ") + kKindNames[kind];
  if (const auto* d = std::get_if<w::DensityAtResponse>(&msg); d && !std::isfinite(d->value))
    return "non-finite density";
  if (const auto* r = std::get_if<w::RegionResponse>(&msg); r && !std::isfinite(r->value))
    return "non-finite region value";
  return {};
}

stkde::PointSet slice_of(const stkde::PointSet& v, std::size_t lo, std::size_t hi) {
  return stkde::PointSet(v.begin() + static_cast<std::ptrdiff_t>(lo),
                         v.begin() + static_cast<std::ptrdiff_t>(hi));
}

/// A planned request: what to ask and when it is due (offset from start).
struct Planned {
  Kind kind = kDensityAt;
  w::QueryMessage query;
};

/// What a client saw for one request.
struct Seen {
  int cls = 0;
  bool traced = false;
  bool failed = false;  ///< shed or expired
  double latency_ms = 0.0;
  double late_ms = 0.0;
  double encode_us = 0.0;
  double decode_us = 0.0;
};

}  // namespace

BatchInput LiveFeed::final_window() const {
  BatchInput in;
  in.domain = city;
  in.hs = hs;
  in.ht = ht;
  const double cutoff = events.back().t - window;
  for (const auto& p : events)
    if (p.t >= cutoff) in.points.push_back(p);
  return in;
}

namespace {

/// Events of one fixed city: the profile's clusters are laid out from a
/// constant seed (neighbourhoods do not move between runs) while the events
/// are drawn from the run's seed, at a steady rate over the whole span.
/// Outbreak waves or a reshuffled city would make the live window's size and
/// its hottest tile, and every live metric with them, depend on the seed.
stkde::PointSet city_feed(const stkde::data::ClusterConfig& cfg, const stkde::DomainSpec& city) {
  struct Cluster {
    double x, y, weight;
  };
  stkde::util::Xoshiro256 layout(0x5EED0C17);
  std::vector<Cluster> clusters(cfg.n_clusters);
  double total = 0.0;
  for (auto& c : clusters) {
    c.x = layout.uniform(city.x0, city.x0 + city.gx);
    c.y = layout.uniform(city.y0, city.y0 + city.gy);
    c.weight = 1.0 / (1.0 + 4.0 * layout.uniform());
    total += c.weight;
  }
  const double sigma = cfg.cluster_sigma_frac * std::max(city.gx, city.gy);
  stkde::util::Xoshiro256 rng(cfg.seed);
  stkde::PointSet out;
  out.reserve(cfg.n_points);
  for (std::size_t i = 0; i < cfg.n_points; ++i) {
    stkde::Point p{rng.uniform(city.x0, city.x0 + city.gx),
                   rng.uniform(city.y0, city.y0 + city.gy),
                   rng.uniform(city.t0, city.t0 + city.gt)};
    if (rng.uniform() >= cfg.background_frac) {
      double u = rng.uniform() * total;
      std::size_t k = 0;
      while (k + 1 < clusters.size() && u > clusters[k].weight) u -= clusters[k++].weight;
      p.x = std::clamp(rng.normal(clusters[k].x, sigma), city.x0, city.x0 + city.gx);
      p.y = std::clamp(rng.normal(clusters[k].y, sigma), city.y0, city.y0 + city.gy);
    }
    out.push_back(p);
  }
  return out;
}

}  // namespace

LiveFeed make_feed(std::uint64_t seed, double phase_b_seconds) {
  LiveFeed f;
  f.phase_b_batches = static_cast<std::size_t>(
      std::max(1.0, std::round(phase_b_seconds * kBatchRate)));
  const std::size_t b_events = f.phase_b_batches * kBatchEvents;
  f.phase_a_events = b_events / 2 / kBatchEvents * kBatchEvents;
  const std::size_t n = f.phase_a_events + b_events;
  f.queries = static_cast<std::size_t>(std::round(phase_b_seconds * kQueryRate));
  // 6 km x 6 km at 50 m voxels, one-day time steps; the span grows with the
  // feed so the rate stays near kEventsPerDay.
  const double days = std::ceil(static_cast<double>(n) / kEventsPerDay);
  f.city = stkde::DomainSpec{0, 0, 0, 6000.0, 6000.0, days, 50.0, 1.0};
  f.events = city_feed(stkde::data::dataset_profile(stkde::data::Dataset::kDengue, n, seed),
                       f.city);
  std::sort(f.events.begin(), f.events.end(),
            [](const stkde::Point& a, const stkde::Point& b) { return a.t < b.t; });
  return f;
}

struct LivePhase::State {
  const LiveFeed& feed;
  Tracer& tracer;
  std::string wal_dir;

  // Destroyed in reverse: the executor drains before the pool stops, and the
  // registry detaches from the estimator before it goes.
  std::unique_ptr<stkde::core::IncrementalEstimator> inc;
  std::unique_ptr<stkde::serve::SnapshotRegistry> reg;
  std::unique_ptr<stkde::sched::ThreadPool> pool;
  std::unique_ptr<stkde::serve::RequestExecutor> exec;
  std::unique_ptr<stkde::serve::Session> session;  ///< direct-execute passes

  std::vector<Planned> plan;
  std::vector<const Planned*> mix;  ///< one direct-execute pass
  std::size_t fed = 0;

  /// One advance_window call of either phase.
  struct Call {
    double ms = 0.0;
    bool checkpoint = false;  ///< a durable checkpoint was written during it
    bool traced = false;
  };
  std::vector<Call> calls;

  // Phase A.
  std::vector<double> advance_ms;
  double a_wall_s = 0.0;
  // Phase B.
  std::vector<double> publish_ms;
  std::vector<double> writer_late_ms;
  double busy_s = 0.0;
  double b_wall_s = 0.0;
  std::vector<Seen> seen;
  double detect_us = 0.0;
  // Direct execute over the fixed mix.
  std::vector<double> mix_ms;  ///< per pass
  std::vector<double> execute_ms[kKinds];
  std::vector<double> pin_us;

  stkde::serve::ExecutorStats xstats;

  State(const LiveFeed& f, Tracer& t) : feed(f), tracer(t) {}

  void advance(std::size_t lo, std::size_t hi, bool traced, std::uint64_t parent,
               Clock::time_point* start_out, Clock::time_point* end_out);
  void make_plan();
};

void LivePhase::State::advance(std::size_t lo, std::size_t hi, bool traced,
                               std::uint64_t parent,
                               Clock::time_point* start_out,
                               Clock::time_point* end_out) {
  const stkde::PointSet batch = slice_of(feed.events, lo, hi);
  const double cutoff = batch.back().t - feed.window;
  const std::uint64_t ckpt0 = inc->stats().durable_checkpoints;
  const auto t0 = Clock::now();
  inc->advance_window(batch, cutoff);
  const auto t1 = Clock::now();
  if (traced) tracer.record("core.advance_window", tracer.next_id(), parent, parent, t0, t1);
  calls.push_back({ms(t1 - t0), inc->stats().durable_checkpoints != ckpt0, traced});
  fed = hi;
  *start_out = t0;
  // The caller's interval closes after the span is recorded, so traced calls
  // carry the tracing cost.
  *end_out = Clock::now();
}

void LivePhase::State::make_plan() {
  // Query parameters follow the feed position each request is due at, so the
  // plan is a pure function of the seed.
  std::mt19937_64 rng(feed.events.size() * 0x9E3779B97F4A7C15ull ^
                      static_cast<std::uint64_t>(feed.events.front().x * 1e6));
  std::discrete_distribution<int> pick(std::begin(kKindWeight), std::end(kKindWeight));
  const stkde::GridDims dims = feed.city.dims();
  const auto vx = [&](double x) {
    return std::clamp(static_cast<std::int32_t>((x - feed.city.x0) / feed.city.sres), 0,
                      dims.gx - 1);
  };
  const auto vy = [&](double y) {
    return std::clamp(static_cast<std::int32_t>((y - feed.city.y0) / feed.city.sres), 0,
                      dims.gy - 1);
  };
  const auto vt = [&](double t) {
    return std::clamp(static_cast<std::int32_t>((t - feed.city.t0) / feed.city.tres), 0,
                      dims.gt - 1);
  };
  const auto batches_per_query = kBatchRate / kQueryRate;
  plan.clear();
  plan.reserve(feed.queries);
  for (std::size_t j = 0; j < feed.queries; ++j) {
    const auto due_batch = static_cast<std::size_t>(static_cast<double>(j) * batches_per_query);
    const std::size_t head = feed.phase_a_events + due_batch * kBatchEvents - 1;
    const std::size_t lo = head > 2000 ? head - 2000 : 0;
    const stkde::Point& near =
        feed.events[std::uniform_int_distribution<std::size_t>(lo, head)(rng)];
    const double head_t = feed.events[head].t;
    const std::int32_t ht = vt(head_t);
    const std::int32_t cx = vx(near.x), cy = vy(near.y);
    Planned p;
    p.kind = static_cast<Kind>(pick(rng));
    switch (p.kind) {
      case kDensityAt:
        p.query = w::DensityAtQuery{stkde::Point{near.x, near.y, head_t}};
        break;
      case kRegionSum:
      case kRegionMax:
        p.query = w::RegionQuery{
            stkde::Extent3{std::max(0, cx - 15), std::min(dims.gx, cx + 16),
                           std::max(0, cy - 15), std::min(dims.gy, cy + 16),
                           std::max(0, ht - 14), ht + 1},
            p.kind == kRegionSum ? w::RegionOp::kSum : w::RegionOp::kMax};
        break;
      case kSlice:
        p.query = w::SliceQuery{std::max(0, ht - static_cast<std::int32_t>(rng() % 14))};
        break;
      case kHotspots:
        p.query = w::HotspotsQuery{4, 0.99};
        break;
      default:
        p.query = w::RegionGridQuery{stkde::Extent3{
            std::max(0, cx - 8), std::min(dims.gx, cx + 8), std::max(0, cy - 8),
            std::min(dims.gy, cy + 8), std::max(0, ht - 8), ht + 1}};
        break;
    }
    plan.push_back(std::move(p));
  }

  // The fixed mix: the last kKindWeight[k] planned queries of each kind, in
  // plan order, so one pass holds the phase-B mix exactly.
  int wanted[kKinds];
  std::copy(std::begin(kKindWeight), std::end(kKindWeight), wanted);
  mix.clear();
  for (auto it = plan.rbegin(); it != plan.rend(); ++it)
    if (wanted[it->kind] > 0) {
      --wanted[it->kind];
      mix.push_back(&*it);
    }
  std::reverse(mix.begin(), mix.end());
}

LivePhase::LivePhase(const LiveFeed& feed, const std::string& work_dir,
                     Tracer& tracer)
    : s_(std::make_unique<State>(feed, tracer)) {
  s_->wal_dir = work_dir + "/wal";
  std::filesystem::remove_all(s_->wal_dir);
  std::filesystem::create_directories(s_->wal_dir);

  stkde::Params params;
  params.hs = feed.hs;
  params.ht = feed.ht;
  stkde::core::StreamConfig cfg;
  cfg.threads = 2;
  cfg.tiles = stkde::DecompRequest{8, 8, 1};
  // Drift-control rebuilds at about the live-window size: the cadence
  // docs/STREAMING.md gives for snapshots within ~1e-5 of a batch estimate,
  // which the final-snapshot gate holds the engine to.
  cfg.checkpoint_retires = std::uint64_t{1} << 16;
  cfg.durability.dir = s_->wal_dir;
  cfg.durability.sync = stkde::io::WalSync::kNone;
  s_->inc = std::make_unique<stkde::core::IncrementalEstimator>(feed.city, params, cfg);
  s_->reg = std::make_unique<stkde::serve::SnapshotRegistry>(*s_->inc);
  s_->pool = std::make_unique<stkde::sched::ThreadPool>(kServeWorkers);
  stkde::serve::ExecutorConfig xcfg;
  xcfg.session.request_deadline = kDeadline;
  s_->exec = std::make_unique<stkde::serve::RequestExecutor>(*s_->reg, *s_->pool, xcfg);
  s_->session = std::make_unique<stkde::serve::Session>(*s_->reg);
  s_->make_plan();
}

LivePhase::~LivePhase() {
  const std::string dir = s_->wal_dir;
  s_.reset();
  std::error_code ec;
  std::filesystem::remove_all(dir, ec);
}

void LivePhase::calibrate_detection() {
  // A spinning helper thread fulfils a promise at a chosen instant inside the
  // spin window, where cheap responses land; the waiter uses the same
  // spin-then-block wait as the clients. The median gap between fulfilment
  // and notice is how late a client sees such a response.
  constexpr int kTrials = 200;
  std::vector<double> gaps;
  std::mt19937 rng(7);
  std::promise<void> promises[kTrials];
  std::atomic<Clock::rep> due{0};  // 0 = nothing armed, -1 = stop
  std::atomic<Clock::rep> set_at{0};
  std::thread setter([&] {
    for (int i = 0;;) {
      const Clock::rep d = due.load(std::memory_order_acquire);
      if (d < 0) return;
      if (d == 0) continue;
      while (Clock::now().time_since_epoch().count() < d) {
      }
      set_at.store(Clock::now().time_since_epoch().count(), std::memory_order_relaxed);
      promises[i++].set_value();
      due.store(0, std::memory_order_release);
    }
  });
  for (int i = 0; i < kTrials; ++i) {
    std::future<void> f = promises[i].get_future();
    const auto delay = std::chrono::microseconds(10 + rng() % 100);
    due.store((Clock::now() + delay).time_since_epoch().count(), std::memory_order_release);
    spin_then_block(
        [&] { return f.wait_for(std::chrono::seconds(0)) == std::future_status::ready; },
        [&] { f.wait(); }, kWaitSpin);
    const auto seen_at = Clock::now().time_since_epoch().count();
    while (due.load(std::memory_order_acquire) != 0) {
    }
    gaps.push_back(static_cast<double>(seen_at - set_at.load(std::memory_order_relaxed)) *
                   Clock::period::num * 1e6 / Clock::period::den);
  }
  due.store(-1, std::memory_order_release);
  setter.join();
  s_->detect_us = median(gaps);
}

void LivePhase::run_phase_a(Outcome& out) {
  State& s = *s_;
  const auto start = Clock::now();
  while (s.fed < s.feed.phase_a_events) {
    const std::size_t lo = s.fed;
    const std::size_t hi = std::min(s.feed.phase_a_events, lo + kBatchEvents);
    ++out.attempted;
    Clock::time_point t0, t1;
    const bool traced = s.tracer.enabled() && (lo / kBatchEvents) % 2 == 0;
    s.advance(lo, hi, traced, 0, &t0, &t1);
    s.advance_ms.push_back(ms(t1 - t0));
  }
  s.a_wall_s = seconds_between(start, Clock::now());
}

void LivePhase::run_phase_b(Outcome& out) {
  State& s = *s_;
  const auto batch_period = std::chrono::duration<double>(1.0 / kBatchRate);
  const auto query_period = std::chrono::duration<double>(1.0 / kQueryRate);
  const auto t_start = Clock::now() + std::chrono::milliseconds(20);
  const auto due_at = [&](std::size_t i, std::chrono::duration<double> period) {
    return t_start + std::chrono::duration_cast<Clock::duration>(period * static_cast<double>(i));
  };

  std::string writer_error;
  std::thread writer([&] {
    try {
      for (std::size_t k = 0; k < s.feed.phase_b_batches; ++k) {
        const auto due = due_at(k, batch_period);
        sleep_until_precise(due);
        const std::size_t lo = s.feed.phase_a_events + k * kBatchEvents;
        const bool traced = s.tracer.enabled() && k % 2 == 0;
        const std::uint64_t id = traced ? s.tracer.next_id() : 0;
        Clock::time_point t0, t1;
        s.advance(lo, lo + kBatchEvents, traced, id, &t0, &t1);
        if (traced) s.tracer.record("gen.batch", id, 0, id, due, t1);
        const auto t2 = Clock::now();
        s.writer_late_ms.push_back(ms(t0 - due));
        s.publish_ms.push_back(ms(t2 - due));
        s.busy_s += seconds_between(t0, t2);
      }
    } catch (const std::exception& e) {
      writer_error = e.what();
    }
  });

  std::vector<std::vector<Seen>> per_client(kClients);
  std::vector<std::vector<std::string>> client_errors(kClients);
  auto client = [&](std::size_t c) {
    for (std::size_t j = c; j < s.plan.size(); j += kClients) {
      const Planned& p = s.plan[j];
      const auto due = due_at(j, query_period);
      sleep_until_precise(due);
      Seen seen;
      seen.cls = class_of(p.kind);
      seen.traced = s.tracer.enabled() && (j / kClients) % 2 == 0;
      const std::uint64_t id = seen.traced ? s.tracer.next_id() : 0;
      const auto t0 = Clock::now();
      const w::Frame frame = w::encode(p.query);
      const auto t1 = Clock::now();
      std::future<w::Frame> fut = s.exec->submit(frame.data(), frame.size());
      spin_then_block(
          [&] { return fut.wait_for(std::chrono::seconds(0)) == std::future_status::ready; },
          [&] { fut.wait(); }, kWaitSpin);
      const auto t2 = Clock::now();
      const w::Frame resp = fut.get();
      std::string why;
      const auto msg = w::decode_response(resp.data(), resp.size(), &why);
      const auto t3 = Clock::now();
      if (seen.traced) {
        s.tracer.record("serve.encode", s.tracer.next_id(), id, id, t0, t1);
        s.tracer.record("serve.submit_wait", s.tracer.next_id(), id, id, t1, t2);
        s.tracer.record("serve.decode", s.tracer.next_id(), id, id, t2, t3);
        s.tracer.record(std::string("gen.query.") + kKindNames[p.kind], id, 0, id, due, t3);
      }
      // The latency closes after the spans are recorded, so traced requests
      // carry the tracing cost.
      const auto t4 = Clock::now();
      seen.late_ms = ms(t0 - due);
      seen.latency_ms = ms(t4 - due);
      seen.encode_us = std::chrono::duration<double, std::micro>(t1 - t0).count();
      seen.decode_us = std::chrono::duration<double, std::micro>(t3 - t2).count();

      std::string bad;
      if (!msg) {
        bad = "undecodable response: " + why;
      } else if (const auto* err = std::get_if<w::ErrorResponse>(&*msg)) {
        if (err->code == w::ErrorCode::kOverloaded ||
            err->code == w::ErrorCode::kDeadlineExceeded)
          seen.failed = true;
        else
          bad = "error response " + std::to_string(static_cast<int>(err->code)) +
                ": " + err->message;
      } else {
        bad = wrong_answer(p.kind, *msg);
      }
      if (!bad.empty()) client_errors[c].push_back(std::move(bad));
      // A shed or expired request counts as missing the deadline.
      if (seen.failed)
        seen.latency_ms = std::max(seen.latency_ms, ms(kDeadline));
      per_client[c].push_back(seen);
    }
  };

  std::vector<std::thread> clients;
  for (std::size_t c = 0; c < kClients; ++c) clients.emplace_back(client, c);
  for (auto& t : clients) t.join();
  writer.join();
  s.b_wall_s = seconds_between(t_start, Clock::now());
  s.exec->drain();
  s.xstats = s.exec->stats();
  const auto& x = s.xstats;
  std::cerr << "executor: submitted " << x.submitted << ", completed " << x.completed
            << ", shed " << x.shed << " (budget " << x.admission.shed_budget << ", deadline "
            << x.admission.shed_deadline << "), expired " << x.expired_at_dequeue << "+"
            << x.expired_result << ", cancelled " << x.cancelled_inflight << "\n";

  out.attempted += s.feed.phase_b_batches;
  out.gate(writer_error.empty(), "writer failed: " + writer_error);
  for (std::size_t c = 0; c < kClients; ++c) {
    for (const Seen& seen : per_client[c]) {
      ++out.attempted;
      if (seen.failed) ++out.failed;
      s.seen.push_back(seen);
    }
    for (const auto& e : client_errors[c]) out.gate(false, e);
  }
}

void LivePhase::check(Outcome& out) {
  State& s = *s_;
  const auto& st = s.inc->stats();
  const std::uint64_t fed = s.feed.phase_a_events + s.feed.phase_b_batches * kBatchEvents;
  out.gate(s.fed == fed && s.fed == s.feed.events.size(), "feed not fully ingested");
  out.gate(st.quarantined_nonfinite + st.quarantined_domain + st.quarantined_stale == 0,
           "events quarantined: " +
               std::to_string(st.quarantined_nonfinite + st.quarantined_domain +
                              st.quarantined_stale));
  out.gate(st.dead_on_arrival == 0, "events dead on arrival");
  out.gate(st.added == fed, "StreamStats.added " + std::to_string(st.added) +
                                " != events fed " + std::to_string(fed));

  const auto& x = s.xstats;
  const std::uint64_t dispositions = x.malformed + x.health_inline + x.shed +
                                     x.rejected_shutdown + x.expired_at_dequeue +
                                     x.expired_result + x.cancelled_inflight + x.failed +
                                     x.completed;
  out.gate(x.submitted == dispositions, "executor disposition identity broken");
  out.gate(x.submitted == s.plan.size(), "executor saw " + std::to_string(x.submitted) +
                                             " of " + std::to_string(s.plan.size()) +
                                             " requests");

  // Completion detection must be fine enough not to set the cheap latency.
  std::vector<double> cheap;
  for (const Seen& q : s.seen)
    if (q.cls == 0 && !q.failed) cheap.push_back(q.latency_ms);
  const double cheap_us = cheap.empty() ? 0.0 : median(cheap) * 1e3;
  out.gate(s.detect_us < 0.1 * cheap_us,
           "completion detection " + std::to_string(s.detect_us) +
               " us is not under a tenth of the cheap median " + std::to_string(cheap_us) +
               " us");

  // The final published version against a serial PB-SYM estimate of the
  // live window.
  const stkde::serve::Snapshot snap = s.reg->pin();
  const BatchInput live = s.feed.final_window();
  stkde::Params params;
  params.hs = live.hs;
  params.ht = live.ht;
  params.threads = 1;
  const stkde::Result ref =
      stkde::estimate(live.points, live.domain, params, stkde::Algorithm::kPBSym);
  out.gate(snap.valid() && snap.n == live.points.size(),
           "final snapshot holds " + std::to_string(snap.n) + " events, live window " +
               std::to_string(live.points.size()));
  if (snap.valid()) {
    stkde::DensityGrid got;
    got.assign_scaled(*snap.raw, snap.norm());
    const double rel = max_rel_diff(got, ref.grid);
    out.gate(rel <= kGridTolerance,
             "final snapshot differs from serial PB-SYM by " + std::to_string(rel));
  }
}

void LivePhase::serve_mix_pass(Outcome& out) {
  State& s = *s_;
  const auto p0 = Clock::now();
  for (const Planned* p : s.mix) {
    const std::uint64_t id = s.tracer.enabled() ? s.tracer.next_id() : 0;
    ++out.attempted;
    const auto t0 = Clock::now();
    s.session->begin_request();
    const auto t1 = Clock::now();
    const w::ResponseMessage resp = stkde::serve::execute(*s.session, p->query);
    const auto t2 = Clock::now();
    s.tracer.record("serve.pin", s.tracer.next_id(), 0, id, t0, t1);
    s.tracer.record(std::string("serve.execute.") + kKindNames[p->kind], id, 0, id, t1, t2);
    s.pin_us.push_back(std::chrono::duration<double, std::micro>(t1 - t0).count());
    s.execute_ms[p->kind].push_back(ms(t2 - t1));
    // Direct execution sheds nothing, so an error response is wrong too.
    if (const std::string bad = wrong_answer(p->kind, resp); !bad.empty()) {
      ++out.failed;
      out.gate(false, "direct execute: " + bad);
    }
  }
  s.mix_ms.push_back(ms(Clock::now() - p0));
}

void LivePhase::report_end_to_end(Sheet& sheet) const {
  const State& s = *s_;
  sheet.set_pct("publish_ms_p50", s.publish_ms, 0.50, "ms");
  // Single-threaded, so the mean, as for run_s.pb_sym_p1 (batch.cpp).
  sheet.set("serve_ms.mix", mean(s.mix_ms), "ms", s.mix_ms.size());
  std::vector<double> by_class[3];
  for (const Seen& q : s.seen) by_class[q.cls].push_back(q.latency_ms);
  for (int c = 0; c < 3; ++c) {
    std::cerr << "query_ms." << kClassNames[c] << " n=" << by_class[c].size();
    for (double p : {0.5, 0.9, 0.95, 0.99}) std::cerr << " p" << p * 100 << "=" << percentile(by_class[c], p);
    std::cerr << "\n";
  }
  std::cerr << "mix pass ms:";
  for (double v : s.mix_ms) std::cerr << " " << v;
  std::cerr << "\nexecute_ms p50 (" << s.mix_ms.size() << " mix passes):";
  for (int k = 0; k < kKinds; ++k) std::cerr << " " << kKindNames[k] << "=" << median(s.execute_ms[k]);
  std::cerr << "\n";
  std::cerr << "publish_ms n=" << s.publish_ms.size();
  for (double p : {0.5, 0.9, 0.95, 0.99}) std::cerr << " p" << p * 100 << "=" << percentile(s.publish_ms, p);
  std::cerr << "\n";
}

void LivePhase::report_layers(Sheet& sheet) const {
  const State& s = *s_;
  const auto& st = s.inc->stats();
  sheet.set("stream.ingest_events_per_s",
            static_cast<double>(s.feed.phase_a_events) / s.a_wall_s, "events/s",
            s.advance_ms.size());
  sheet.set_pct("stream.advance_ms_p50", s.advance_ms, 0.50, "ms");
  sheet.set_pct("stream.advance_ms_p95", s.advance_ms, 0.95, "ms");
  sheet.set_pct("stream.publish_ms_p99", s.publish_ms, 0.99, "ms");
  sheet.set("stream.busy_frac", s.busy_s / s.b_wall_s, "ratio");
  sheet.set("stream.publishes", static_cast<double>(st.publishes), "count");
  sheet.set("stream.table_hit_rate",
            st.table_lookups ? 1.0 - static_cast<double>(st.table_fills) /
                                         static_cast<double>(st.table_lookups)
                             : 0.0,
            "ratio");
  sheet.set("stream.drift_checkpoints", static_cast<double>(st.checkpoints), "count");
  sheet.set("io.wal_records", static_cast<double>(st.wal_records), "count");
  sheet.set("io.durable_checkpoints", static_cast<double>(st.durable_checkpoints), "count");
  double ckpt_sum = 0.0;
  std::size_t ckpt_n = 0;
  for (const auto& c : s.calls)
    if (c.checkpoint) {
      ckpt_sum += c.ms;
      ++ckpt_n;
    }
  sheet.set("io.checkpoint_batch_ms_mean",
            ckpt_n ? ckpt_sum / static_cast<double>(ckpt_n) : 0.0, "ms", ckpt_n);

  for (int k = 0; k < kKinds; ++k)
    sheet.set_pct(std::string("serve.execute_ms_p50.") + kKindNames[k], s.execute_ms[k], 0.5,
                  "ms");
  sheet.set_pct("serve.pin_us", s.pin_us, 0.5, "us");
  std::vector<double> cheap, medium, expensive, encode, decode, late, cheap_on, cheap_off;
  for (const Seen& q : s.seen) {
    (q.cls == 0 ? cheap : q.cls == 1 ? medium : expensive).push_back(q.latency_ms);
    if (q.cls == 0 && !q.failed) (q.traced ? cheap_on : cheap_off).push_back(q.latency_ms);
    encode.push_back(q.encode_us);
    decode.push_back(q.decode_us);
    late.push_back(q.late_ms);
  }
  sheet.set_pct("serve.query_ms_p50.cheap", cheap, 0.50, "ms");
  sheet.set_pct("serve.query_ms_p99.cheap", cheap, 0.99, "ms");
  sheet.set_pct("serve.query_ms_p50.medium", medium, 0.50, "ms");
  sheet.set_pct("serve.query_ms_p99.medium", medium, 0.99, "ms");
  sheet.set_pct("serve.query_ms_p50.expensive", expensive, 0.50, "ms");
  sheet.set_pct("serve.query_ms_p95.expensive", expensive, 0.95, "ms");
  sheet.set_pct("serve.wire_us.encode", encode, 0.50, "us");
  sheet.set_pct("serve.wire_us.decode", decode, 0.50, "us");
  const auto& adm = s.xstats.admission;
  const double admitted = static_cast<double>(adm.admitted_run + adm.admitted_queue);
  sheet.set("serve.queued_frac",
            admitted > 0 ? static_cast<double>(adm.admitted_queue) / admitted : 0.0, "ratio");
  sheet.set("serve.queue_high_water", static_cast<double>(s.xstats.queue_high_water), "count");
  sheet.set_pct("gen.writer_late_ms_p99", s.writer_late_ms, 0.99, "ms");
  sheet.set_pct("gen.query_late_ms_p99", late, 0.99, "ms");
  sheet.set("gen.detect_us", s.detect_us, "us", 200);
  if (!cheap_on.empty() && !cheap_off.empty())
    sheet.set("trace.overhead_us.query", (median(cheap_on) - median(cheap_off)) * 1e3, "us",
              cheap_on.size() + cheap_off.size());
}

double LivePhase::io_self_seconds() const {
  const State& s = *s_;
  std::vector<double> plain;
  for (const auto& c : s.calls)
    if (!c.checkpoint) plain.push_back(c.ms);
  if (plain.empty()) return 0.0;
  const double base = median(plain);
  double io_ms = 0.0;
  for (const auto& c : s.calls)
    if (c.checkpoint && c.traced) io_ms += std::max(0.0, c.ms - base);
  return io_ms / 1e3;
}

}  // namespace perfbench
