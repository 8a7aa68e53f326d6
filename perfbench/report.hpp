#pragma once
// Shared pieces of the benchmark binary: the metric sheet, percentiles, the
// in-memory span recorder, the open-loop pacing helpers and the machine
// record. Everything here lives in the benchmark; no library code is traced.

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_between(Clock::time_point a,
                                            Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// Percentile of \p v by nearest rank (v is copied and sorted). Callers keep
/// at least ten samples beyond the percentile they report.
[[nodiscard]] double percentile(std::vector<double> v, double p);
[[nodiscard]] double median(const std::vector<double>& v);
[[nodiscard]] double mean(const std::vector<double>& v);

/// Named metrics in print order, each with its unit and sample count.
class Sheet {
 public:
  void set(const std::string& name, double value, const std::string& unit,
           std::size_t samples = 1);
  /// Percentile \p p of \p v, refusing (throwing) when fewer than ten
  /// samples lie beyond it.
  void set_pct(const std::string& name, const std::vector<double>& v, double p,
               const std::string& unit);
  /// The result line's "metrics" object.
  [[nodiscard]] std::string json() const;
  /// {"name": samples, ...}: how many samples each value summarizes.
  [[nodiscard]] std::string samples_json() const;
  /// "name value unit (n=samples)" lines for the log.
  [[nodiscard]] std::string table() const;

 private:
  struct Entry {
    double value = 0.0;
    std::string unit;
    std::size_t samples = 1;
  };
  std::vector<std::string> order_;
  std::map<std::string, Entry> entries_;
};

/// One span: a timed call into a layer, recorded from the benchmark's side.
/// The layer is the name's prefix before the first '.'.
struct Span {
  std::string name;
  std::uint64_t id = 0;
  std::uint64_t parent = 0;  ///< 0 = root
  std::uint64_t request = 0; ///< shared by the spans of one request/batch/run
  Clock::time_point start{};
  Clock::time_point end{};
  std::uint32_t thread = 0;
};

/// Spans kept in memory while the run lasts, written out at exit as Chrome
/// trace_event JSON. Disabled recorders cost one branch per call site.
class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  [[nodiscard]] bool enabled() const { return enabled_; }

  [[nodiscard]] std::uint64_t next_id() {
    return ids_.fetch_add(1, std::memory_order_relaxed);
  }
  /// Record a finished span under a pre-drawn \p id (children are recorded
  /// before their parent ends, so ids are drawn at span start).
  void record(const std::string& name, std::uint64_t id, std::uint64_t parent,
              std::uint64_t request, Clock::time_point start,
              Clock::time_point end);

  /// Per-layer self time (seconds): each span's duration minus the time its
  /// children cover, summed by layer.
  [[nodiscard]] std::map<std::string, double> self_seconds() const;

  /// Write the spans as Chrome trace_event JSON, with \p other_json (an
  /// object) under "otherData".
  void write_chrome(const std::string& path, const std::string& other_json) const;

  [[nodiscard]] std::size_t size() const;

  /// Mean wall time of one record() call, timed inside record() itself.
  [[nodiscard]] double record_us() const;

 private:
  bool enabled_;
  std::atomic<std::uint64_t> ids_{1};
  std::atomic<std::int64_t> record_ns_{0};
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Sleep until \p due, finishing with a short spin so the wake-up is late by
/// microseconds rather than by the timer slack.
void sleep_until_precise(Clock::time_point due);

/// Wait for \p ready() by polling for up to \p spin, then by blocking in
/// \p block(). Returns when the result is available.
template <typename Ready, typename Block>
void spin_then_block(Ready&& ready, Block&& block,
                     std::chrono::microseconds spin) {
  const auto until = Clock::now() + spin;
  while (Clock::now() < until)
    if (ready()) return;
  block();
}

/// Host facts every result carries.
struct Machine {
  int nproc = 0;
  double llc_mb = 0.0;
  std::string build_type;
};
[[nodiscard]] Machine probe_machine();

/// Peak resident set of this process, MB.
[[nodiscard]] double peak_rss_mb();

}  // namespace perfbench
