#include "report.hpp"

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>
#include <unordered_map>

namespace perfbench {

double percentile(std::vector<double> v, double p) {
  if (v.empty()) throw std::invalid_argument("percentile of no samples");
  std::sort(v.begin(), v.end());
  const auto rank = static_cast<std::size_t>(
      std::ceil(p * static_cast<double>(v.size())));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

double median(const std::vector<double>& v) { return percentile(v, 0.5); }

double mean(const std::vector<double>& v) {
  if (v.empty()) throw std::invalid_argument("mean of no samples");
  double sum = 0.0;
  for (double x : v) sum += x;
  return sum / static_cast<double>(v.size());
}

namespace {
std::string number(double v) {
  if (!std::isfinite(v)) throw std::invalid_argument("non-finite metric value");
  char buf[64];
  std::snprintf(buf, sizeof buf, "%.9g", v);
  return buf;
}
}  // namespace

void Sheet::set(const std::string& name, double value, const std::string& unit,
                std::size_t samples) {
  if (entries_.find(name) == entries_.end()) order_.push_back(name);
  entries_[name] = Entry{value, unit, samples};
}

void Sheet::set_pct(const std::string& name, const std::vector<double>& v,
                    double p, const std::string& unit) {
  const double beyond = (1.0 - p) * static_cast<double>(v.size());
  if (beyond < 10.0 - 1e-9)
    throw std::runtime_error(name + ": " + std::to_string(v.size()) +
                             " samples leave fewer than 10 beyond the "
                             "percentile");
  set(name, percentile(v, p), unit, v.size());
}

std::string Sheet::json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i) {
    const Entry& e = entries_.at(order_[i]);
    if (i) out += ", ";
    out += "\"" + order_[i] + "\": {\"value\": " + number(e.value) +
           ", \"unit\": \"" + e.unit + "\"}";
  }
  return out + "}";
}

std::string Sheet::samples_json() const {
  std::string out = "{";
  for (std::size_t i = 0; i < order_.size(); ++i)
    out += (i ? ", \"" : "\"") + order_[i] + "\": " +
           std::to_string(entries_.at(order_[i]).samples);
  return out + "}";
}

std::string Sheet::table() const {
  std::ostringstream os;
  for (const auto& name : order_) {
    const Entry& e = entries_.at(name);
    os << "  " << name << " = " << number(e.value) << " " << e.unit
       << " (n=" << e.samples << ")\n";
  }
  return os.str();
}

namespace {
std::uint32_t thread_number() {
  static std::atomic<std::uint32_t> next{1};
  thread_local const std::uint32_t mine =
      next.fetch_add(1, std::memory_order_relaxed);
  return mine;
}
}  // namespace

void Tracer::record(const std::string& name, std::uint64_t id,
                    std::uint64_t parent, std::uint64_t request,
                    Clock::time_point start, Clock::time_point end) {
  if (!enabled_) return;
  const auto t0 = Clock::now();
  Span s{name, id, parent, request, start, end, thread_number()};
  {
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
  }
  record_ns_.fetch_add(std::chrono::duration_cast<std::chrono::nanoseconds>(
                           Clock::now() - t0).count(),
                       std::memory_order_relaxed);
}

std::size_t Tracer::size() const {
  std::lock_guard<std::mutex> lock(mu_);
  return spans_.size();
}

double Tracer::record_us() const {
  const std::size_t n = size();
  return n ? static_cast<double>(record_ns_.load(std::memory_order_relaxed)) / 1e3 /
                 static_cast<double>(n)
           : 0.0;
}

std::map<std::string, double> Tracer::self_seconds() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_map<std::uint64_t, double> child_time;
  for (const Span& s : spans_)
    if (s.parent != 0) child_time[s.parent] += seconds_between(s.start, s.end);
  std::map<std::string, double> out;
  for (const Span& s : spans_) {
    const auto it = child_time.find(s.id);
    const double children = it == child_time.end() ? 0.0 : it->second;
    const double self =
        std::max(0.0, seconds_between(s.start, s.end) - children);
    out[s.name.substr(0, s.name.find('.'))] += self;
  }
  return out;
}

void Tracer::write_chrome(const std::string& path,
                          const std::string& other_json) const {
  std::lock_guard<std::mutex> lock(mu_);
  Clock::time_point origin = Clock::time_point::max();
  for (const Span& s : spans_) origin = std::min(origin, s.start);
  std::ofstream f(path);
  f << "{\"traceEvents\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const double ts = std::chrono::duration<double, std::micro>(s.start - origin).count();
    const double dur = std::chrono::duration<double, std::micro>(s.end - s.start).count();
    f << (i ? ",\n" : "\n") << "{\"name\": \"" << s.name
      << "\", \"ph\": \"X\", \"pid\": 1, \"tid\": " << s.thread
      << ", \"ts\": " << number(ts) << ", \"dur\": " << number(dur)
      << ", \"args\": {\"id\": " << s.id << ", \"parent\": " << s.parent
      << ", \"request\": " << s.request << "}}";
  }
  f << "\n], \"displayTimeUnit\": \"ms\", \"otherData\": " << other_json
    << "}\n";
  if (!f) throw std::runtime_error("cannot write trace file " + path);
}

void sleep_until_precise(Clock::time_point due) {
  constexpr auto kSpin = std::chrono::microseconds(100);
  if (Clock::now() < due - kSpin) std::this_thread::sleep_until(due - kSpin);
  while (Clock::now() < due) {
  }
}

Machine probe_machine() {
  Machine m;
  m.nproc = static_cast<int>(sysconf(_SC_NPROCESSORS_ONLN));
  // glibc answers from CPUID, so no host file is read.
  long llc = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (llc <= 0) llc = sysconf(_SC_LEVEL2_CACHE_SIZE);
  m.llc_mb = llc > 0 ? static_cast<double>(llc) / (1024.0 * 1024.0) : 0.0;
  m.build_type = PERFBENCH_BUILD_TYPE;
  return m;
}

double peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace perfbench
