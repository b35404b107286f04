// The two run modes of the benchmark.
//
// RunEndToEnd (tracing off) serves the workload's seeded claim stream through the
// path a user would use, times a closed loop over a fixed window and prints the
// end-to-end metrics. Every run then replays the accepted order through the
// sequential reference and compares each verdict bitwise.
//
// RunLadder (tracing on) drives a fixed prefix of the same stream through each
// layer's public entry point, one rung at a time from `graph` to `net`, timing
// each rung with spans the benchmark records itself and cross-checking each
// rung's outcomes bitwise against the rung below.

#ifndef CLAIMBENCH_SRC_RUNS_H_
#define CLAIMBENCH_SRC_RUNS_H_

#include <cstdint>
#include <filesystem>
#include <string>

#include "claimbench/src/common.h"

namespace tao::claimbench {

struct RunOptions {
  uint64_t seed = 1;
  int seconds = 10;
  std::filesystem::path work_dir;  // durable changelogs live under it
  std::string trace_out;           // chrome://tracing dump (ladder only)
  bool force_mismatch = false;     // corrupt one reference verdict: the gate must fail
};

Report RunEndToEnd(const WorkloadSpec& spec, const RunOptions& options);
Report RunLadder(const WorkloadSpec& spec, const RunOptions& options);

}  // namespace tao::claimbench

#endif  // CLAIMBENCH_SRC_RUNS_H_
