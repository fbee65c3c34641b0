// gridsub end-to-end benchmark.
//
//   perfbench_gridsub --workload plan|crossweek|advisor --seed N
//                     --seconds S --trace 0|1 --workdir DIR
//
// Runs one workload for about S seconds in whole rounds, checks the
// library's outputs, and prints as its last line one JSON object with
// `correct`, `attempted`, `failed` and `metrics`: the end-to-end metrics
// with --trace 0, the per-layer metrics with --trace 1. Lines before it
// describe the build, the host and the run.
//
// Exit codes: 0 all checks passed; 5 a check of the outputs failed (the
// result is printed with `correct` false); 1 a library call threw and the
// run was aborted; 2 bad usage; 3 not a Release build; 4 the reference
// computations failed their own hand-worked test.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <iostream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common.hpp"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS "unknown"
#endif
#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace {

using namespace perfbench;

/// Per-layer metrics, in BENCHMARK.json order. A traced run prints every
/// one of them; a layer the workload does not call reads 0.
const std::vector<std::pair<std::string, std::string>> kLayerMetrics = {
    {"traces.read_us", "us"},      {"traces.scenario_us", "us"},
    {"model.fit_us", "us"},        {"model.grid_points", "count"},
    {"core.multiple_us", "us"},    {"core.delayed_opt_us", "us"},
    {"core.delayed_cost_us", "us"}, {"core.tune_us", "us"},
    {"sim.probe_us", "us"},        {"sim.events", "count"},
    {"sim.events_per_s", "1/s"},   {"exp.cell_us", "us"},
    {"exp.jobs_submitted", "count"}, {"parallel.busy_frac", "ratio"},
    {"parallel.pool_width", "count"}, {"online.refit_us", "us"},
    {"online.refits", "count"},    {"serve.ingest_us", "us"},
    {"serve.swap_us", "us"},       {"serve.swaps", "count"},
    {"serve.snapshot_keys", "count"}, {"serve.ready_frac", "ratio"},
    {"serve.lookups", "count"},    {"trace.coverage", "ratio"},
    {"trace.run_s", "s"},
};

/// Refuses any build whose timings would mislead: unoptimised, with
/// assertions, or sanitized.
const char* build_problem() {
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitized build";
#elif !defined(NDEBUG)
  return "assertions enabled (not a Release build)";
#elif !defined(__OPTIMIZE__)
  return "unoptimised build";
#else
  return nullptr;
#endif
}

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "perfbench_gridsub: " << why
            << "\nusage: perfbench_gridsub --workload plan|crossweek|advisor "
               "--seed N --seconds S --trace 0|1 --workdir DIR\n";
  std::exit(2);
}

void print_result(const RunResult& r, const RunOptions& options) {
  std::vector<Metric> metrics;
  if (!options.trace) {
    metrics = {
        {"setup_s", median(r.setup_s), "s"},
        {"run_s", median(r.run_s), "s"},
        {"ops_per_s", median(r.ops_per_s), "op/s"},
        {"op_p50_us", quantile(r.op_us, 0.5), "us"},
        {"op_tail_us",
         r.round_tail_us.empty() ? quantile(r.op_us, r.tail_quantile)
                                 : median(r.round_tail_us),
         "us"},
        {"peak_rss_mib", peak_rss_mib(), "MiB"},
    };
  } else {
    std::set<std::string> known;
    for (const auto& [name, unit] : kLayerMetrics) known.insert(name);
    for (const Metric& m : r.layers) {
      if (!known.count(m.name)) usage("internal: unlisted layer " + m.name);
    }
    for (const auto& [name, unit] : kLayerMetrics) {
      double value = 0.0;
      if (name == "trace.run_s") value = median(r.run_s);
      for (const Metric& m : r.layers) {
        if (m.name == name) value = m.value;
      }
      metrics.push_back({name, value, unit});
    }
  }
  for (const std::string& f : r.failures) {
    std::cout << "CHECK FAILED: " << f << "\n";
  }
  std::string json = "{\"correct\": ";
  json += r.failures.empty() ? "true" : "false";
  json += ", \"attempted\": " + std::to_string(r.attempted);
  json += ", \"failed\": 0";  // a failed op aborts the run instead
  json += ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i) json += ", ";
    json += "\"" + metrics[i].name + "\": {\"value\": " +
            number(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
            "\"}";
  }
  json += "}}";
  std::cout << json << std::endl;
}

}  // namespace

int main(int argc, char** argv) {
  RunOptions options;
  std::string workload;
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        options.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        options.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        options.trace = value == "1";
      } else if (arg == "--workdir") {
        options.workdir = value;
      } else {
        usage("unknown option " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg + ": " + value);
    }
  }
  if (workload.empty() || !have_seed || options.workdir.empty() ||
      !(options.seconds > 0.0)) {
    usage("--workload, --seed, --seconds and --workdir are required");
  }
  if (const char* problem = build_problem()) {
    std::cerr << "perfbench_gridsub: refusing to measure a " << problem
              << "\n";
    return 3;
  }
  std::cout << "build: " << PERFBENCH_BUILD_TYPE << ", compiler " << __VERSION__
            << ", flags \"" << PERFBENCH_CXX_FLAGS << "\"\n"
            << "host: nproc " << std::thread::hardware_concurrency()
            << "; workload " << workload << ", seed " << options.seed
            << ", seconds " << options.seconds << ", trace "
            << (options.trace ? 1 : 0) << "\n";

  const std::vector<std::string> selftest = reference_selftest();
  for (const std::string& f : selftest) std::cerr << f << "\n";
  if (!selftest.empty()) return 4;

  if (options.trace) Tracer::instance().enable();
  RunResult result;
  try {
    if (workload == "plan") {
      result = run_plan(options);
    } else if (workload == "crossweek") {
      result = run_crossweek(options);
    } else if (workload == "advisor") {
      result = run_advisor(options);
    } else {
      usage("unknown workload " + workload);
    }
  } catch (const std::exception& e) {
    std::cerr << "perfbench_gridsub: " << workload << " aborted: " << e.what()
              << "\n";
    return 1;
  }
  for (const std::string& note : result.notes) std::cout << note << "\n";
  std::cout << "samples: " << result.op_us.size() << " ops, tail = p"
            << 100.0 * result.tail_quantile
            << (result.round_tail_us.empty() ? ""
                                             : " per round, median over rounds")
            << "; op_us quantiles";
  for (const double q : {0.5, 0.75, 0.9, 0.95, 0.99, 0.999}) {
    std::cout << " p" << 100.0 * q << " " << quantile(result.op_us, q);
  }
  std::cout << "\nrounds: run_s";
  for (const double r : result.run_s) std::cout << " " << r;
  std::cout << "\n";
  if (options.trace) {
    std::cout << "layer shares are of the " << result.layer_base << ", "
              << result.layer_base_s << " s\n";
    for (const auto& [name, t] : Tracer::instance().totals()) {
      std::printf("layer %-18s count %8llu  self %10.4f s  share %7.3f%%\n",
                  name.c_str(), static_cast<unsigned long long>(t.count),
                  t.self_s, 100.0 * t.self_s / result.layer_base_s);
    }
    std::fflush(stdout);
  }
  print_result(result, options);
  return result.failures.empty() ? 0 : 5;
}
