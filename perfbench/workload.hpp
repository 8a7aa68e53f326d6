#pragma once
// The two phases every workload runs — a batch phase (six strategies through
// Estimator::run) and a live phase (streaming writer plus serve executor) —
// and the bookkeeping they share with main.cpp.

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "core/estimator.hpp"
#include "geom/domain.hpp"
#include "geom/point.hpp"
#include "report.hpp"

namespace perfbench {

/// Operation counts and correctness-gate failures of one run.
struct Outcome {
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;        ///< failed, shed or expired operations
  std::vector<std::string> gates;  ///< correctness gates that did not hold

  void gate(bool ok, const std::string& what) {
    if (!ok) gates.push_back(what);
  }
};

/// Max |a - b| over the grid, relative to the reference peak.
[[nodiscard]] double max_rel_diff(const stkde::DensityGrid& got,
                                  const stkde::DensityGrid& ref);

inline constexpr double kGridTolerance = 1e-5;

// ---------------------------------------------------------------------------
// Batch phase

struct BatchInput {
  stkde::DomainSpec domain;
  stkde::PointSet points;
  double hs = 1.0;
  double ht = 1.0;
};

class BatchPhase {
 public:
  BatchPhase(BatchInput in, Tracer& tracer);
  ~BatchPhase();
  BatchPhase(const BatchPhase&) = delete;
  BatchPhase& operator=(const BatchPhase&) = delete;

  /// One untimed rep of every strategy; keeps the serial PB-SYM grid as the
  /// reference every later grid is checked against.
  void warm_up(Outcome& out);

  /// Interleaved reps of all six strategies until \p budget_s has passed
  /// (at least five reps), calling \p between after each rep. Every grid is
  /// checked outside the timed call.
  void run(double budget_s, Outcome& out, const std::function<void()>& between);

  void report_end_to_end(Sheet& sheet) const;
  void report_layers(Sheet& sheet) const;

  [[nodiscard]] std::uint64_t grid_bytes() const;

 private:
  struct Runs;
  void run_one(std::size_t strategy, bool traced, bool timed, Outcome& out);

  BatchInput in_;
  Tracer& tracer_;
  std::unique_ptr<Runs> runs_;
};

// ---------------------------------------------------------------------------
// Live phase

/// A time-sorted feed sized so the writer never wraps: phase A ingests the
/// first third closed-loop, phase B paces the rest at a fixed batch rate.
struct LiveFeed {
  stkde::DomainSpec city;
  double hs = 400.0;     ///< metres
  double ht = 5.0;       ///< days
  double window = 14.0;  ///< days kept live
  stkde::PointSet events;
  std::size_t phase_a_events = 0;
  std::size_t phase_b_batches = 0;
  std::size_t queries = 0;

  /// The live set once every event is fed: the batch input of live-dengue
  /// and the reference of the final-snapshot gate.
  [[nodiscard]] BatchInput final_window() const;
};

// Phase B offers 12,800 events/s: about a quarter of the closed-loop ingest
// rate even when the host runs at half speed, so the writer never builds an
// unbounded backlog.
inline constexpr std::size_t kBatchEvents = 128;
inline constexpr double kBatchRate = 100.0;  ///< phase B writer, batches/s
inline constexpr double kQueryRate = 400.0;  ///< phase B queries/s

/// The dengue city feed every workload's live phase ingests.
[[nodiscard]] LiveFeed make_feed(std::uint64_t seed, double phase_b_seconds);

class LivePhase {
 public:
  /// Build the writer (estimator + WAL under \p work_dir), the registry and
  /// the 2-worker executor.
  LivePhase(const LiveFeed& feed, const std::string& work_dir, Tracer& tracer);
  ~LivePhase();
  LivePhase(const LivePhase&) = delete;
  LivePhase& operator=(const LivePhase&) = delete;

  /// Measure how late the client's completion wait notices a ready result.
  void calibrate_detection();

  /// Closed-loop, writer-only ingest of the first third of the feed.
  void run_phase_a(Outcome& out);

  /// Open loop on both sides: 100 batches/s from the writer, 400 q/s from the
  /// query clients, for the rest of the feed.
  void run_phase_b(Outcome& out);

  /// Feed-integrity, disposition and final-snapshot gates.
  void check(Outcome& out);

  /// One closed-loop pass of direct serve::execute over a fixed 100-query
  /// sample of the phase-B mix, on one pinned session. Every answer is
  /// checked. Run after phase B, when the snapshot no longer changes.
  void serve_mix_pass(Outcome& out);

  /// Estimated io self time of the traced advance_window calls: how far each
  /// call that wrote a durable checkpoint ran over the median call without
  /// one. It is part of the core.advance_window spans.
  [[nodiscard]] double io_self_seconds() const;

  void report_end_to_end(Sheet& sheet) const;
  void report_layers(Sheet& sheet) const;

 private:
  struct State;
  std::unique_ptr<State> s_;
};

}  // namespace perfbench
