// The repo benchmark. One run = one workload for --seconds:
//   set-up (inputs from --seed, the live stack, an untimed warm-up),
//   a live phase (closed-loop ingest, then open-loop ingest beside queries),
//   a batch phase (six strategies through Estimator::run, with a pass of
//   direct serve::execute calls after each rep),
//   correctness gates, and one JSON result line on stdout.
// --trace 0 prints the end-to-end metrics; --trace 1 records spans around
// every layer call and prints the per-layer metrics. Scratch files and traces
// go under .bench_build/perfbench/ of the working directory. See README.md.

#include <unistd.h>

#include <filesystem>
#include <cstdint>
#include <iostream>
#include <optional>
#include <string>

#include "data/instances.hpp"
#include "workload.hpp"

using namespace perfbench;

namespace {

struct WorkloadDef {
  const char* name;
  const char* instance;  ///< Table-2 instance; nullptr = the final live window
  stkde::data::ScaleBudget budget;
  double batch_share;  ///< of --seconds, batch reps and direct-serve passes
  double live_share;   ///< of --seconds, phase B
};

const std::string kOutDir = ".bench_build/perfbench";

// batch-flu: Flu_Hr-Lb at 168x444x1719 (a 512 MB grid), Hs=1 Ht=2: the
// init- and memory-bound batch.
// live-dengue: the batch phase recomputes the final live window (a
// compute-bound batch), and the live phase gets the largest share.
const WorkloadDef kWorkloads[] = {
    {"batch-flu", "Flu_Hr-Lb", {128'000'000, 1.0e9}, 0.55, 0.40},
    {"live-dengue", nullptr, {}, 0.35, 0.55},
};

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 25.0;
  bool trace = false;
};

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string k = argv[i], v = argv[i + 1];
    if (k == "--workload") a.workload = v;
    else if (k == "--seed") a.seed = std::stoull(v);
    else if (k == "--seconds") a.seconds = std::stod(v);
    else if (k == "--trace") a.trace = v == "1";
    else throw std::invalid_argument("unknown argument " + k);
  }
  if ((argc - 1) % 2 != 0) throw std::invalid_argument("arguments come in pairs");
  if (!(a.seconds > 0)) throw std::invalid_argument("--seconds must be positive");
  return a;
}

BatchInput make_instance(const WorkloadDef& w, std::uint64_t seed) {
  const auto spec = stkde::data::scale_instance(stkde::data::paper_instance(w.instance),
                                                w.budget);
  BatchInput in;
  in.domain = stkde::DomainSpec{0, 0, 0, static_cast<double>(spec.dims.gx),
                                static_cast<double>(spec.dims.gy),
                                static_cast<double>(spec.dims.gt), 1.0, 1.0};
  in.points = stkde::data::generate_dataset(spec.dataset, in.domain,
                                            static_cast<std::size_t>(spec.n), seed);
  in.hs = spec.Hs;
  in.ht = spec.Ht;
  return in;
}

int run(const Args& args) {
  const WorkloadDef* wl = nullptr;
  for (const auto& w : kWorkloads)
    if (args.workload == w.name) wl = &w;
  if (!wl) throw std::invalid_argument("unknown workload '" + args.workload + "'");

  const Machine machine = probe_machine();
  const std::string work_dir = kOutDir + "/work-" + std::to_string(getpid());
  std::filesystem::create_directories(work_dir);
  Tracer tracer(args.trace);
  Outcome out;
  const std::uint64_t feed_seed = args.seed * 0x9E3779B97F4A7C15ull + 1;
  const double phase_b_s = wl->live_share * args.seconds;

  // Set-up three times (inputs + live stack) and keep the last; set-up time
  // is their median plus the one warm-up.
  std::vector<double> setup_s, generate_s;
  std::optional<BatchInput> batch_in;
  std::optional<LiveFeed> feed;
  std::unique_ptr<LivePhase> live;
  for (int pass = 0; pass < 3; ++pass) {
    live.reset();
    const auto t0 = Clock::now();
    const std::uint64_t id = tracer.next_id();
    feed = make_feed(feed_seed, phase_b_s);
    batch_in = wl->instance ? make_instance(*wl, args.seed) : feed->final_window();
    const auto t1 = Clock::now();
    tracer.record("data.generate", id, 0, id, t0, t1);
    live = std::make_unique<LivePhase>(*feed, work_dir, tracer);
    generate_s.push_back(seconds_between(t0, t1));
    setup_s.push_back(seconds_between(t0, Clock::now()));
  }
  const auto w0 = Clock::now();
  BatchPhase batch(std::move(*batch_in), tracer);
  batch.warm_up(out);
  live->calibrate_detection();
  const double setup = median(setup_s) + seconds_between(w0, Clock::now());

  live->run_phase_a(out);
  live->run_phase_b(out);
  live->check(out);
  // One direct-serve pass after each batch rep, on the final snapshot, so
  // serve_ms.mix and run_s.* sample the host over the same stretch of time.
  batch.run(wl->batch_share * args.seconds, out, [&] { live->serve_mix_pass(out); });

  Sheet sheet;
  if (!args.trace) {
    sheet.set("setup_s", setup, "s", setup_s.size());
    sheet.set("peak_rss_mb", peak_rss_mb(), "MB");
    sheet.set("ok_frac",
              1.0 - static_cast<double>(out.failed) / static_cast<double>(out.attempted),
              "ratio", out.attempted);
    batch.report_end_to_end(sheet);
    live->report_end_to_end(sheet);
  } else {
    sheet.set("data.generate_s", median(generate_s), "s", generate_s.size());
    batch.report_layers(sheet);
    live->report_layers(sheet);
    // The io share of the advance_window spans is estimated, not traced:
    // it moves from core to io.
    auto self = tracer.self_seconds();
    self["io"] = live->io_self_seconds();
    self["core"] -= self["io"];
    for (const auto& [layer, secs] : self) sheet.set("self_s." + layer, secs, "s");
    sheet.set("trace.record_us", tracer.record_us(), "us", tracer.size());
  }

  const double llc_bytes = machine.llc_mb * 1024.0 * 1024.0;
  const std::string machine_json =
      "{\"workload\": \"" + args.workload + "\", \"seed\": " + std::to_string(args.seed) +
      ", \"nproc\": " + std::to_string(machine.nproc) +
      ", \"llc_mb\": " + std::to_string(machine.llc_mb) + ", \"grid_llc_ratio\": " +
      std::to_string(llc_bytes > 0 ? static_cast<double>(batch.grid_bytes()) / llc_bytes : 0.0) +
      ", \"build_type\": \"" + machine.build_type + "\", \"stkde_native\": false}";
  if (args.trace) {
    const std::string path = kOutDir + "/trace-" + args.workload + "-" +
                             std::to_string(args.seed) + ".json";
    tracer.write_chrome(path, machine_json);
    std::cerr << "trace: " << tracer.size() << " spans -> " << path << "\n";
  }
  live.reset();
  std::filesystem::remove_all(work_dir);

  std::cerr << sheet.table();
  for (const auto& g : out.gates) std::cerr << "GATE FAILED: " << g << "\n";
  const bool correct = out.gates.empty();
  std::cout << "{\"machine\": " << machine_json << ", \"samples\": " << sheet.samples_json()
            << "}\n";
  std::cout << "{\"correct\": " << (correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted << ", \"failed\": " << out.failed
            << ", \"metrics\": " << sheet.json() << "}" << std::endl;
  return correct ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    return run(parse(argc, argv));
  } catch (const std::exception& e) {
    std::cerr << "stkde_perfbench: " << e.what() << "\n";
    return 2;
  }
}
