// The benchmark's four workloads. Each drives one of dbscale's paths
// through its public API, checks its outputs, and returns the metrics of
// the requested mode (see perfbench/README.md for the full contract).

#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>

#include "perfbench/bench_util.h"

namespace perfbench {

/// The seed at which each workload's outputs are pinned to digests
/// recorded when the benchmark was written.
inline constexpr uint64_t kDefaultSeed = 1;

Outcome RunClosedLoop(const RunArgs& args);
Outcome RunService(const RunArgs& args);
/// `fleet` (block-major) when !hosts, `fleet_hosts` (host plane on).
Outcome RunFleet(const RunArgs& args, bool hosts);

/// Checks the benchmark's own arithmetic; returns the number of failures.
int RunSelfTest();

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOADS_H_
