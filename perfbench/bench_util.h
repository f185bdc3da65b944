// Shared arithmetic and reporting for the repository benchmark.
//
// Everything here is deliberately small and self-tested (selftest.cc):
// the percentile rule, the open-loop due-time schedule, and the metric
// report whose names the BENCHMARK.json contract fixes.

#ifndef PERFBENCH_BENCH_UTIL_H_
#define PERFBENCH_BENCH_UTIL_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// Monotone wall clock (std::chrono::steady_clock).
double NowSeconds();
uint64_t NowNs();

/// A percentile together with the sample count behind it: `beyond` is how
/// many samples lie strictly after the reported rank, so a reader can tell
/// whether the tail is backed by data (the benchmark wants >= 10).
struct Percentile {
  double value = 0.0;
  size_t count = 0;
  size_t beyond = 0;
};

/// Nearest-rank percentile: the value at 1-based rank ceil(q * n) of the
/// sorted samples (q in (0, 1]). An empty input gives value 0, count 0.
Percentile NearestRank(std::vector<double> values, double q);
double Median(std::vector<double> values);

/// Open-loop schedule: item k is due at start_ns + k / rate_per_s seconds,
/// whatever happened to items before it, so a stall delays every later
/// item's latency instead of hiding inside the generator.
struct Schedule {
  uint64_t start_ns = 0;
  double rate_per_s = 1.0;
  uint64_t DueNs(uint64_t k) const;
};

/// Latency from an item's due time to the moment its result was emitted,
/// in ms. A result emitted before its due time (impossible for a generator
/// that never runs early) reads as 0.
double DueLatencyMs(uint64_t due_ns, uint64_t emitted_ns);

/// The service workload's sample stream: round-robin over `tenants` slots
/// (slot j is tenant id j + 1), where slot j already holds j % per_interval
/// samples before the stream starts. Interval boundaries are therefore
/// staggered: every round completes an interval for one slot in
/// per_interval, spread evenly across the round, so decisions arrive at a
/// steady rate instead of in one burst per round.
struct StaggeredStream {
  uint64_t tenants = 1;
  uint64_t per_interval = 1;

  uint64_t Slot(uint64_t k) const { return k % tenants; }
  uint64_t Offset(uint64_t slot) const { return slot % per_interval; }
  /// Tenant-local sample index of stream item k.
  uint64_t LocalIndex(uint64_t k) const {
    return Offset(Slot(k)) + k / tenants;
  }
  /// True when stream item k is its tenant's interval-completing sample.
  bool Completes(uint64_t k) const {
    return (LocalIndex(k) + 1) % per_interval == 0;
  }
  /// Samples slot j holds (pre-stream offset included) once stream items
  /// [0, total) have been routed.
  uint64_t SamplesHeld(uint64_t slot, uint64_t total) const {
    return Offset(slot) + total / tenants + (slot < total % tenants ? 1 : 0);
  }
  /// Calls f(k) for every completing item k in [begin, end), ascending.
  template <typename F>
  void ForEachCompletion(uint64_t begin, uint64_t end, F&& f) const {
    while (begin < end) {
      const uint64_t round = begin / tenants;
      const uint64_t round_end = std::min(end, (round + 1) * tenants);
      // Slots completing in this round: Offset(j) == per_interval - 1 -
      // round % per_interval, i.e. j congruent to that modulo per_interval.
      const uint64_t want = per_interval - 1 - round % per_interval;
      const uint64_t j0 = begin - round * tenants;
      const uint64_t j =
          j0 + (want + per_interval - j0 % per_interval) % per_interval;
      for (uint64_t k = round * tenants + j; k < round_end;
           k += per_interval) {
        f(k);
      }
      begin = round_end;
    }
  }
};

/// Set-up time: the median, over `batches` batches, of the mean time of
/// one `setup()` call in the batch. A batch repeats the call until it has
/// run for >= 50 ms, so microsecond set-ups are measured above clock and
/// scheduling noise while a heavy one runs once per batch. `setup` returns
/// false on failure, which ends the measurement (result < 0).
template <typename F>
double TimeSetup(int batches, F&& setup) {
  std::vector<double> per_call;
  for (int b = 0; b < batches; ++b) {
    const double t0 = NowSeconds();
    int calls = 0;
    double elapsed = 0.0;
    do {
      if (!setup()) return -1.0;
      ++calls;
      elapsed = NowSeconds() - t0;
    } while (elapsed < 0.05);
    per_call.push_back(elapsed / calls);
  }
  return Median(std::move(per_call));
}

/// Machine speed probe: the median wall time (s) of three runs of a fixed
/// single-threaded event-queue churn (~0.09 s each on the reference VM),
/// in a child process so its memory stays out of this process's peak RSS
/// (0 if the child could not run). It does the same work on every call,
/// so two readings taken in one run differ only by the machine: the run
/// prints one before and one after the workload and flags a run whose
/// readings differ by more than kCalibrationBand as not comparable.
double CalibrationSeconds();
inline constexpr double kCalibrationBand = 0.15;
/// Size of the probe's event queue (timestamps).
inline constexpr int kProbeHeap = 65536;

/// The same event-queue churn, in this process and on the calling thread,
/// so it times the CPU the workload is running on (a child process may be
/// placed on another one). Three rounds of kProbePops pops, the fastest;
/// its queue is reserved once, so a reading does not depend on what the
/// workload left in the heap. A single-threaded workload that pins itself
/// (PinToCurrentCpu) and reads the probe around each repetition can scale
/// its times to the reference VM's speed: see kReferenceProbeS below and
/// perfbench/README.md.
class SpeedProbe {
 public:
  static constexpr int kProbePops = 400'000;
  SpeedProbe();
  double Seconds();

 private:
  std::vector<double> heap_;
};

/// SpeedProbe on `threads` threads at once (the caller is one of them),
/// for a workload that keeps that many threads busy: the mean of their
/// readings. Each thread's queue is reserved once, at construction.
class ParallelSpeedProbe {
 public:
  explicit ParallelSpeedProbe(int threads);
  double Seconds();

 private:
  std::vector<SpeedProbe> probes_;
};

/// The same churn on `threads` threads that meet at a barrier after each of
/// kSlices equal slices of one round (kPops pops per thread), as an
/// interval-major loop meets at a barrier in every interval: each slice
/// lasts as long as its slowest thread, so the reading follows the slowest
/// CPU at each barrier, not the mean. Queues are reserved once.
class BarrierSpeedProbe {
 public:
  static constexpr int kPops = 1'600'000;
  static constexpr int kSlices = 40;
  explicit BarrierSpeedProbe(int threads);
  double Seconds();

 private:
  std::vector<std::vector<double>> heaps_;
};

/// The probe readings the workloads scale their untraced times to: about
/// the reference VM's readings when undisturbed (SpeedProbe 0.050-0.059 s,
/// ParallelSpeedProbe at 4 threads ~0.065 s, BarrierSpeedProbe at 4
/// threads 0.30-0.35 s). They only fix the unit.
inline constexpr double kReferenceProbeS = 0.05;
inline constexpr double kReferenceParallelProbeS = 0.065;
inline constexpr double kReferenceBarrierProbeS = 0.33;

/// Restricts the calling thread (and the children it forks) to the CPU it
/// is running on now. False if the CPU could not be read or set.
bool PinToCurrentCpu();

/// Timed repetitions of a workload whose one repetition took `reference_s`
/// on the reference VM: enough to fill `seconds` there (at least
/// `min_reps`). The count depends only on the arguments, never on how fast
/// the code under test runs, so both sides of a comparison take the same
/// number of samples.
int FixedReps(double seconds, double reference_s, int min_reps);

/// Peak resident set size of this process so far (MB, from getrusage).
double PeakRssMb();

/// CPUs this process may run on (sched_getaffinity, like `nproc`).
int Nproc();

/// Arguments every workload receives.
struct RunArgs {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Worker threads for the parallel parts; always explicit, <= nproc.
  int threads = 1;
};

/// One named metric with its unit, as printed in the result line.
struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What a workload returns: the gate verdict, operation counts, and the
/// metrics of the selected mode (end-to-end untraced, per-layer traced).
struct Outcome {
  bool correct = true;
  /// Gates failed so far (a repetition that adds one counts as failed).
  int gate_failures = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<Metric> metrics;

  void Add(const std::string& name, double value, const std::string& unit);
  /// Records a failed correctness gate: prints it and marks the run wrong.
  void Fail(const std::string& what);
};

/// The metrics of the BENCHMARK.json contract (name and unit; value
/// unused), in print order: untraced runs report exactly the end-to-end
/// set, traced runs exactly the per-layer set.
const std::vector<Metric>& EndToEndSpec();
const std::vector<Metric>& PerLayerSpec();

/// The result line: {"correct", "attempted", "failed", "metrics"}.
std::string ResultJson(const Outcome& outcome);

/// Layer accounting of a traced run: each attributed layer's self time
/// as a share of the run's wall time, plus the unattributed residual.
/// Layers absent from `self_s` read 0. Adds `<layer>.share_pct` and
/// `residual.share_pct` to `out` and prints the table.
struct LayerTime {
  std::string layer;
  double self_s = 0.0;
};
void AddLayerShares(const std::vector<LayerTime>& self_s, double wall_s,
                    Outcome* out);

/// The layers whose self time the traced runs attribute (the rest of the
/// src/ modules run nested inside one of these; see perfbench/README.md).
const std::vector<std::string>& AttributedLayers();

/// printf-style std::string.
std::string Format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

}  // namespace perfbench

#endif  // PERFBENCH_BENCH_UTIL_H_
