// Batch phase: events in -> grid out through Estimator::run, six strategies
// interleaved within each rep so drift in the host hits them alike.

#include <algorithm>
#include <array>
#include <cmath>
#include <iostream>
#include <numeric>

#include "util/memory.hpp"
#include "workload.hpp"

namespace perfbench {

using stkde::Algorithm;

namespace {

struct Strategy {
  const char* key;
  Algorithm algorithm;
  int threads;
};

// PB-SYM at P=1 is the single-threaded baseline and the reference grid.
constexpr std::array<Strategy, 6> kStrategies{{
    {"pb_sym_p1", Algorithm::kPBSym, 1},
    {"pb_tile_p4", Algorithm::kPBTile, 4},
    {"dr_p4", Algorithm::kPBSymDR, 4},
    {"dd_p4", Algorithm::kPBSymDD, 4},
    {"pd_sched_p4", Algorithm::kPBSymPDSched, 4},
    {"pd_sched_rep_p4", Algorithm::kPBSymPDSchedRep, 4},
}};

// Five reps give the direct-serve passes run between them at least 20
// samples of every query kind.
constexpr int kMinReps = 5;

stkde::Params params_for(const Strategy& s, double hs, double ht) {
  stkde::Params p;
  p.hs = hs;
  p.ht = ht;
  p.threads = s.threads;
  p.tile.threads = s.threads;
  return p;
}

/// Phase spans are laid end to end from the call's start: PhaseTimer keeps
/// durations, not timestamps.
constexpr std::array<std::pair<const char*, const char*>, 5> kPhaseSpans{{
    {stkde::phase::kInit, "grid.init"},
    {stkde::phase::kBin, "partition.bin"},
    {stkde::phase::kPlan, "sched.plan"},
    {stkde::phase::kCompute, "core.compute"},
    {stkde::phase::kReduce, "grid.reduce"},
}};

}  // namespace

double max_rel_diff(const stkde::DensityGrid& got,
                    const stkde::DensityGrid& ref) {
  const double peak = std::abs(static_cast<double>(ref.max_value()));
  const double diff = got.max_abs_diff(ref);
  return peak > 0.0 ? diff / peak : diff;
}

/// Per-strategy samples across reps.
struct BatchPhase::Runs {
  struct Sample {
    double wall = 0.0;
    double init = 0.0, bin = 0.0, plan = 0.0, compute = 0.0, reduce = 0.0;
    double task_seconds = 0.0;
    bool traced = false;
  };
  std::array<std::vector<Sample>, kStrategies.size()> samples;
  std::array<stkde::Diagnostics, kStrategies.size()> diag;
  stkde::DensityGrid reference;
  std::uint64_t reference_bytes = 0;
  double reference_peak = 0.0;
  std::int64_t span_cells = 0;  ///< PB-SYM: one table per event
};

BatchPhase::BatchPhase(BatchInput in, Tracer& tracer)
    : in_(std::move(in)), tracer_(tracer), runs_(std::make_unique<Runs>()) {}

BatchPhase::~BatchPhase() = default;

std::uint64_t BatchPhase::grid_bytes() const { return runs_->reference_bytes; }

void BatchPhase::run_one(std::size_t si, bool traced, bool timed,
                         Outcome& out) {
  const Strategy& s = kStrategies[si];
  const stkde::Estimator est(s.algorithm, params_for(s, in_.hs, in_.ht));
  const std::uint64_t id = traced ? tracer_.next_id() : 0;
  ++out.attempted;
  stkde::Result r;
  const auto t0 = Clock::now();
  try {
    r = est.run(in_.points, in_.domain);
  } catch (const stkde::util::MemoryBudgetExceeded& e) {
    ++out.failed;
    out.gate(false, std::string(s.key) + " ran out of memory budget: " + e.what());
    return;
  } catch (const std::exception& e) {
    ++out.failed;
    out.gate(false, std::string(s.key) + " threw: " + e.what());
    return;
  }
  const auto t1 = Clock::now();

  if (traced) {
    const std::string run_name = std::string("core.run.") + s.key;
    auto at = t0;
    for (const auto& [phase, span] : kPhaseSpans) {
      const double sec = r.phases.seconds(phase);
      if (sec <= 0.0) continue;
      const auto end = at + std::chrono::duration_cast<Clock::duration>(
                                std::chrono::duration<double>(sec));
      tracer_.record(span, tracer_.next_id(), id, id, at, end);
      at = end;
    }
    tracer_.record(run_name, id, 0, id, t0, t1);
  }

  // The measured interval closes after the spans are recorded, so traced
  // calls carry the tracing cost.
  Runs::Sample smp;
  smp.wall = seconds_between(t0, Clock::now());
  smp.init = r.phases.seconds(stkde::phase::kInit);
  smp.bin = r.phases.seconds(stkde::phase::kBin);
  smp.plan = r.phases.seconds(stkde::phase::kPlan);
  smp.compute = r.phases.seconds(stkde::phase::kCompute);
  smp.reduce = r.phases.seconds(stkde::phase::kReduce);
  smp.task_seconds = std::accumulate(r.diag.task_seconds.begin(),
                                     r.diag.task_seconds.end(), 0.0);
  smp.traced = traced;

  if (!runs_->reference.allocated()) {
    // The first serial PB-SYM grid becomes the reference.
    if (s.algorithm != Algorithm::kPBSym) {
      out.gate(false, "reference must come from pb_sym_p1");
      return;
    }
    runs_->reference = std::move(r.grid);
    runs_->reference_bytes = runs_->reference.bytes();
    runs_->reference_peak = runs_->reference.max_value();
    runs_->span_cells = r.diag.span_cells;
    return;
  }
  const double rel = r.grid.max_abs_diff(runs_->reference) / runs_->reference_peak;
  if (!(rel <= kGridTolerance)) {
    ++out.failed;
    out.gate(false, std::string(s.key) + " grid differs from serial PB-SYM by " +
                        std::to_string(rel) + " (relative)");
    return;
  }
  if (!timed) return;
  runs_->diag[si] = std::move(r.diag);
  runs_->samples[si].push_back(smp);
}

void BatchPhase::warm_up(Outcome& out) {
  for (std::size_t si = 0; si < kStrategies.size(); ++si)
    run_one(si, false, false, out);
}

void BatchPhase::run(double budget_s, Outcome& out,
                     const std::function<void()>& between) {
  const auto start = Clock::now();
  for (int rep = 0;; ++rep) {
    if (rep >= kMinReps && seconds_between(start, Clock::now()) >= budget_s) break;
    for (std::size_t k = 0; k < kStrategies.size(); ++k) {
      const std::size_t si = (k + static_cast<std::size_t>(rep)) % kStrategies.size();
      // Traced runs alternate traced and untraced calls per strategy, so the
      // difference between the two halves is the tracing overhead.
      const bool traced = tracer_.enabled() && (rep + static_cast<int>(si)) % 2 == 0;
      run_one(si, traced, true, out);
    }
    between();
  }
}

void BatchPhase::report_end_to_end(Sheet& sheet) const {
  for (std::size_t si = 0; si < kStrategies.size(); ++si) {
    std::vector<double> wall;
    for (const auto& s : runs_->samples[si]) wall.push_back(s.wall);
    // A single thread on a shared host runs in two modes about 1.6x apart,
    // by the load neighbours put on its core and cache, and the share of
    // slow samples changes from run to run: any quantile jumps between the
    // modes as that share crosses it, while the mean moves in proportion.
    // Four-thread calls span every core and report the median.
    sheet.set(std::string("run_s.") + kStrategies[si].key,
              kStrategies[si].threads == 1 ? mean(wall) : median(wall), "s", wall.size());
    std::cerr << "run_s." << kStrategies[si].key << " samples:";
    for (double v : wall) std::cerr << " " << v;
    std::cerr << "\n";
  }
}

void BatchPhase::report_layers(Sheet& sheet) const {
  const double layers = 2.0 * std::ceil(in_.ht / in_.domain.tres) + 1.0;
  const double span_work = static_cast<double>(runs_->span_cells) * layers;
  const double grid_bytes = static_cast<double>(runs_->reference_bytes);
  std::vector<double> overhead;
  for (std::size_t si = 0; si < kStrategies.size(); ++si) {
    const Strategy& st = kStrategies[si];
    const std::string key = st.key;
    const auto& smp = runs_->samples[si];
    const stkde::Diagnostics& d = runs_->diag[si];
    auto med = [&](double Runs::Sample::*field) {
      std::vector<double> v;
      for (const auto& s : smp) v.push_back(s.*field);
      return median(v);
    };
    const std::size_t n = smp.size();
    const double init = med(&Runs::Sample::init);
    const double compute = med(&Runs::Sample::compute);
    sheet.set("grid.init_s." + key, init, "s", n);
    sheet.set("grid.init_gbps." + key,
              (grid_bytes + static_cast<double>(d.extra_bytes)) / init / 1e9,
              "GB/s", n);
    sheet.set("core.compute_s." + key, compute, "s", n);
    sheet.set("kernels.ns_per_span_cell." + key,
              compute * st.threads * 1e9 / span_work, "ns", n);
    std::vector<double> ratio;
    for (const auto& s : smp)
      ratio.push_back((s.init + s.bin + s.plan + s.compute + s.reduce) / s.wall);
    sheet.set("trace.stage_sum_ratio." + key, median(ratio), "ratio", n);

    const bool decomposed = st.algorithm == Algorithm::kPBSymDD ||
                            st.algorithm == Algorithm::kPBSymPDSched ||
                            st.algorithm == Algorithm::kPBSymPDSchedRep;
    const bool scheduled = st.algorithm == Algorithm::kPBSymPDSched ||
                           st.algorithm == Algorithm::kPBSymPDSchedRep;
    if (decomposed || st.algorithm == Algorithm::kPBTile)
      sheet.set("partition.bin_s." + key, med(&Runs::Sample::bin), "s", n);
    if (decomposed) {
      sheet.set("partition.load_imbalance." + key, d.load_imbalance, "ratio");
      std::vector<double> eff;
      for (const auto& s : smp) eff.push_back(s.task_seconds / (st.threads * s.compute));
      sheet.set("sched.parallel_efficiency." + key, median(eff), "ratio", n);
    }
    if (st.algorithm == Algorithm::kPBSymDD ||
        st.algorithm == Algorithm::kPBSymPDSchedRep)
      sheet.set("partition.replication_factor." + key, d.replication_factor,
                "ratio");
    if (scheduled) {
      sheet.set("sched.plan_s." + key, med(&Runs::Sample::plan), "s", n);
      sheet.set("sched.critical_path_ratio." + key,
                d.critical_path / d.total_work, "ratio");
    }
    if (st.algorithm == Algorithm::kPBSymDR) {
      sheet.set("grid.reduce_s." + key, med(&Runs::Sample::reduce), "s", n);
      sheet.set("grid.extra_mb." + key,
                static_cast<double>(d.extra_bytes) / (1024.0 * 1024.0), "MB");
    }

    std::vector<double> on, off;
    for (const auto& s : smp) (s.traced ? on : off).push_back(s.wall);
    if (!on.empty() && !off.empty())
      overhead.push_back(median(on) / median(off) - 1.0);
  }
  if (!overhead.empty())
    sheet.set("trace.overhead_frac.batch", median(overhead), "ratio",
              overhead.size());
}

}  // namespace perfbench
