// The three benchmark workloads (see perfbench/README.md for what each one
// stresses and which metrics it should move).
#pragma once

#include <cstdint>
#include <string>

#include "common.hpp"

namespace mccls::perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;  ///< measured window
  bool trace = false;
  std::string work_dir;  ///< temporary kgcd stores (removed afterwards)
  std::string out_dir;   ///< where the traced run leaves its span file
};

/// Runs one workload end to end. With trace on, the run measures the
/// untraced phase first, then a traced phase with the same layout, and
/// reports per-layer metrics plus the tracing overhead.
RunResult run_workload(const Options& options);

}  // namespace mccls::perfbench
