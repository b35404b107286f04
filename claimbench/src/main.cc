// claimbench: the repository benchmark.
//
//   claimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//              [--work-dir <dir>] [--force-mismatch]
//
// --trace 0 prints the end-to-end metrics, --trace 1 the per-layer ladder. The
// last line of standard output is the result object. Exit codes: 0 = measured
// and every verdict matched the sequential reference; 1 = a verdict was
// rejected, lost or differed; 2 = bad arguments; 3 = the run could not measure.

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "claimbench/src/runs.h"

int main(int argc, char** argv) {
  using namespace tao::claimbench;
  std::string workload;
  RunOptions options;
  options.work_dir = ".bench_build/work";
  int trace = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      options.seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      options.seconds = std::atoi(argv[++i]);
    } else if (arg == "--trace" && has_value) {
      trace = std::atoi(argv[++i]);
    } else if (arg == "--work-dir" && has_value) {
      options.work_dir = argv[++i];
    } else if (arg == "--force-mismatch") {
      options.force_mismatch = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return 2;
    }
  }
  const WorkloadSpec* spec = FindWorkload(workload);
  if (spec == nullptr || options.seconds < 1 || (trace != 0 && trace != 1)) {
    std::fprintf(stderr,
                 "usage: claimbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
                 "workloads:");
    for (const WorkloadSpec& known : Workloads()) {
      std::fprintf(stderr, " %s", known.name);
    }
    std::fprintf(stderr, "\n");
    return 2;
  }
  // The traced run's chrome://tracing dump goes next to the work directory.
  options.trace_out = (options.work_dir.parent_path() /
                       ("trace-" + workload + "-" + std::to_string(options.seed) + ".json"))
                          .string();
  try {
    const Report report = trace == 1 ? RunLadder(*spec, options) : RunEndToEnd(*spec, options);
    PrintReport(report);
    return report.correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "claimbench: %s\n", error.what());
    return 3;
  }
}
