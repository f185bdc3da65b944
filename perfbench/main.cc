// perfbench: the repository benchmark binary.
//
//   perfbench --workload NAME --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// Workloads: closed_loop, service, fleet, fleet_hosts. The last line of
// stdout is the result JSON; everything before it is the human-readable
// report (environment, gates, phase details, layer accounting).

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int Usage(const char* why) {
  std::fprintf(stderr,
               "perfbench: %s\nusage: perfbench --workload "
               "closed_loop|service|fleet|fleet_hosts --seed N --seconds S "
               "--trace 0|1\n       perfbench --selftest\n",
               why);
  return 2;
}

/// Threads a workload uses, fixed per workload so every machine runs the
/// same configuration: closed_loop is single-threaded, the others use 4
/// (the size the README's reference numbers were taken at).
int ThreadsFor(const std::string& workload) {
  return workload == "closed_loop" ? 1 : 4;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  RunArgs args;
  bool have_seed = false;
  bool have_seconds = false;
  bool have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--selftest") return RunSelfTest() == 0 ? 0 : 1;
    if (i + 1 >= argc) return Usage(("missing value for " + flag).c_str());
    const char* value = argv[++i];
    char* end = nullptr;
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value, &end, 10);
      have_seed = *end == '\0';
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value, &end);
      have_seconds = *end == '\0' && args.seconds > 0.0;
    } else if (flag == "--trace") {
      have_trace = std::strcmp(value, "0") == 0 || std::strcmp(value, "1") == 0;
      args.trace = std::strcmp(value, "1") == 0;
    } else {
      return Usage(("unknown flag " + flag).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  const bool known = args.workload == "closed_loop" ||
                     args.workload == "service" || args.workload == "fleet" ||
                     args.workload == "fleet_hosts";
  if (!known) return Usage(("unknown workload " + args.workload).c_str());
  // Every thread count below is explicit; the library's process default
  // must not be able to change a run.
  unsetenv("DBSCALE_NUM_THREADS");
  const int nproc = Nproc();
  args.threads = ThreadsFor(args.workload);
  if (args.threads > nproc) {
    std::fprintf(stderr, "perfbench: %s needs %d threads but nproc is %d\n",
                 args.workload.c_str(), args.threads, nproc);
    return 1;
  }

  const double calibration_before = CalibrationSeconds();
  std::printf("environment: nproc %d, build %s, compiler %s, workload %s, "
              "threads %d, seed %llu, seconds %g, trace %d, "
              "calibration %.4f s\n",
              nproc, PERFBENCH_BUILD_TYPE, __VERSION__, args.workload.c_str(),
              args.threads, static_cast<unsigned long long>(args.seed),
              args.seconds, args.trace ? 1 : 0, calibration_before);
  Outcome out;
  if (args.workload == "closed_loop") {
    out = RunClosedLoop(args);
  } else if (args.workload == "service") {
    out = RunService(args);
  } else {
    out = RunFleet(args, args.workload == "fleet_hosts");
  }
  const double calibration_after = CalibrationSeconds();
  const double drift = calibration_before > 0.0
                           ? calibration_after / calibration_before - 1.0
                           : 0.0;
  std::printf("calibration: %.4f s before, %.4f s after (%+.1f%%)\n",
              calibration_before, calibration_after, 100.0 * drift);
  if (std::fabs(drift) > kCalibrationBand) {
    std::printf("FLAG machine speed changed by more than %.0f%% during the "
                "run: its timings are not comparable\n",
                100.0 * kCalibrationBand);
  }
  if (out.attempted == 0) {
    std::printf("perfbench: %s attempted nothing\n", args.workload.c_str());
    return 1;
  }

  // Metrics of layers this workload never enters read 0 in a traced run.
  // Then the reported set must be exactly the contract's, units included.
  const std::vector<Metric>& spec =
      args.trace ? PerLayerSpec() : EndToEndSpec();
  std::vector<Metric> ordered;
  size_t matched = 0;
  for (const Metric& want : spec) {
    const Metric* got = nullptr;
    for (const Metric& m : out.metrics) {
      if (m.name == want.name) got = &m;
    }
    if (got == nullptr && args.trace) {
      ordered.push_back(want);
      continue;
    }
    if (got == nullptr || got->unit != want.unit) {
      std::printf("perfbench: %s reported %s wrongly\n", args.workload.c_str(),
                  want.name.c_str());
      return 1;
    }
    ordered.push_back(*got);
    ++matched;
  }
  if (matched != out.metrics.size()) {
    std::printf("perfbench: %s reported metrics outside the contract\n",
                args.workload.c_str());
    return 1;
  }
  out.metrics = std::move(ordered);
  std::printf("failed_frac %.6g (%llu of %llu operations)\n",
              static_cast<double>(out.failed) /
                  static_cast<double>(out.attempted),
              static_cast<unsigned long long>(out.failed),
              static_cast<unsigned long long>(out.attempted));
  for (const Metric& m : out.metrics) {
    std::printf("%-32s %16.6f %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::printf("%s\n", ResultJson(out).c_str());
  return 0;
}
