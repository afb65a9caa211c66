// namecoh_perfbench: run one workload and print its metrics.
//
//   namecoh_perfbench --workload remote-miss --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is the result:
//   {"correct": .., "attempted": .., "failed": .., "metrics": {..}}
// with the end-to-end metrics (--trace 0) or the per-layer metrics
// (--trace 1). The line before it is a report with provenance, per-round
// samples and their quartiles. Exit status is 0 only when every answer was
// correct.
#include <cstdlib>
#include <exception>
#include <iostream>
#include <string>

#include "workload.hpp"

namespace {

[[noreturn]] void usage(const std::string& why) {
  std::cerr << "namecoh_perfbench: " << why << "\n"
            << "usage: namecoh_perfbench --workload NAME --seed N "
               "--seconds S --trace 0|1 [--trace-dir DIR]\n"
            << "workloads:";
  for (const std::string& name : perfbench::workload_names()) {
    std::cerr << " " << name;
  }
  std::cerr << "\n";
  std::exit(2);
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  perfbench::RunConfig config;
  config.trace_dir = ".bench_build/traces";
  bool have_seed = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) usage("missing value for " + arg);
    const std::string value = argv[++i];
    try {
      if (arg == "--workload") {
        workload = value;
      } else if (arg == "--seed") {
        config.seed = std::stoull(value);
        have_seed = true;
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value);
      } else if (arg == "--trace") {
        if (value != "0" && value != "1") usage("--trace takes 0 or 1");
        config.trace = value == "1";
      } else if (arg == "--trace-dir") {
        config.trace_dir = value;
      } else {
        usage("unknown argument " + arg);
      }
    } catch (const std::logic_error&) {
      usage("bad value for " + arg);
    }
  }
  if (workload.empty() || !have_seed) usage("--workload and --seed are required");
  if (!(config.seconds > 0.0)) usage("--seconds must be positive");

  try {
    const perfbench::WorkloadSpec spec = perfbench::workload_spec(workload);
    const perfbench::WorkloadResult result =
        perfbench::run_workload(spec, config);

    perfbench::JsonObject report;
    report.add("workload", spec.name)
        .add("why", spec.why)
        .add("trace", config.trace)
        .add("seconds", config.seconds)
        .add("provenance", perfbench::provenance(config.seed))
        .add("detail", result.detail);
    std::cout << report.str() << "\n";

    perfbench::JsonObject line;
    line.add("correct", result.correct)
        .add("attempted", result.attempted)
        .add("failed", result.failed)
        .add("metrics", config.trace ? result.per_layer.json()
                                     : result.end_to_end.json());
    std::cout << line.str() << std::endl;
    return result.correct ? 0 : 1;
  } catch (const std::invalid_argument& e) {
    usage(e.what());
  } catch (const std::exception& e) {
    std::cerr << "namecoh_perfbench: " << e.what() << "\n";
    return 1;
  }
}
