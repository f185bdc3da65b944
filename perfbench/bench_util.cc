#include "perfbench/bench_util.h"

#include <sched.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <barrier>
#include <chrono>
#include <cerrno>
#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <functional>
#include <thread>

namespace perfbench {

double NowSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

Percentile NearestRank(std::vector<double> values, double q) {
  Percentile p;
  p.count = values.size();
  if (values.empty()) return p;
  std::sort(values.begin(), values.end());
  const double n = static_cast<double>(values.size());
  size_t rank = static_cast<size_t>(std::ceil(q * n - 1e-9));
  rank = std::clamp<size_t>(rank, 1, values.size());
  p.value = values[rank - 1];
  p.beyond = values.size() - rank;
  return p;
}

double Median(std::vector<double> values) {
  return NearestRank(std::move(values), 0.5).value;
}

uint64_t Schedule::DueNs(uint64_t k) const {
  return start_ns +
         static_cast<uint64_t>(static_cast<double>(k) * 1e9 / rate_per_s);
}

double DueLatencyMs(uint64_t due_ns, uint64_t emitted_ns) {
  return emitted_ns > due_ns ? static_cast<double>(emitted_ns - due_ns) / 1e6
                             : 0.0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KB
}

namespace {

volatile uint64_t calibration_sink;

/// One round of the probe: event-queue churn on `heap` (whose capacity is
/// reserved, so the round allocates nothing and reads the same whatever
/// the process's heap looks like), its pops split into `slices` equal
/// slices with `after_slice()` called after each. Returns its wall time.
template <typename F>
double ProbeRound(std::vector<double>* heap, int pops, int slices,
                  F&& after_slice) {
  const double t0 = NowSeconds();
  heap->clear();
  uint64_t x = 0x9E3779B97F4A7C15ull;
  const auto next_unit = [&x] {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    return static_cast<double>(x >> 11) * 0x1.0p-53;
  };
  const auto later = std::greater<double>();
  for (int i = 0; i < kProbeHeap; ++i) {
    heap->push_back(next_unit());
    std::push_heap(heap->begin(), heap->end(), later);
  }
  double now = 0.0;
  for (int s = 0; s < slices; ++s) {
    for (int i = 0; i < pops / slices; ++i) {
      std::pop_heap(heap->begin(), heap->end(), later);
      now = heap->back();
      heap->back() = now + next_unit();
      std::push_heap(heap->begin(), heap->end(), later);
    }
    after_slice();
  }
  calibration_sink = static_cast<uint64_t>(now);  // keeps the work alive
  return NowSeconds() - t0;
}

double RunProbe() {
  // Event-queue churn: pop the earliest of 64k timestamps and push a later
  // one, the pattern of a discrete-event simulation's hot loop. Its
  // branchy, cache-resident work slows down with co-located load much as
  // the workloads do (a register-only loop did not move at all).
  std::vector<double> heap;
  heap.reserve(kProbeHeap);
  std::vector<double> runs;
  for (int r = 0; r < 3; ++r) {
    runs.push_back(ProbeRound(&heap, 1'000'000, 1, [] {}));
  }
  return Median(std::move(runs));
}

}  // namespace

double CalibrationSeconds() {
  // The probe runs in a child process, so its memory never counts in this
  // process's peak RSS (peak_rss_mb) and its allocations leave this
  // process's heap as the workload left it.
  int fds[2];
  if (pipe(fds) != 0) return 0.0;
  const pid_t pid = fork();
  if (pid < 0) {
    close(fds[0]);
    close(fds[1]);
    return 0.0;
  }
  if (pid == 0) {
    close(fds[0]);
    const double seconds = RunProbe();
    const bool ok = write(fds[1], &seconds, sizeof(seconds)) ==
                    static_cast<ssize_t>(sizeof(seconds));
    _exit(ok ? 0 : 1);
  }
  close(fds[1]);
  double seconds = 0.0;
  if (read(fds[0], &seconds, sizeof(seconds)) !=
      static_cast<ssize_t>(sizeof(seconds))) {
    seconds = 0.0;
  }
  close(fds[0]);
  int status = 0;
  while (waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
  return seconds;
}

SpeedProbe::SpeedProbe() { heap_.reserve(kProbeHeap); }

double SpeedProbe::Seconds() {
  double fastest = ProbeRound(&heap_, kProbePops, 1, [] {});
  for (int r = 1; r < 3; ++r) {
    fastest = std::min(fastest, ProbeRound(&heap_, kProbePops, 1, [] {}));
  }
  return fastest;
}

ParallelSpeedProbe::ParallelSpeedProbe(int threads)
    : probes_(static_cast<size_t>(std::max(1, threads))) {}

double ParallelSpeedProbe::Seconds() {
  std::vector<double> readings(probes_.size());
  std::vector<std::thread> workers;
  for (size_t i = 1; i < probes_.size(); ++i) {
    workers.emplace_back([this, &readings, i] {
      readings[i] = probes_[i].Seconds();
    });
  }
  readings[0] = probes_[0].Seconds();
  for (std::thread& w : workers) w.join();
  double sum = 0.0;
  for (double r : readings) sum += r;
  return sum / static_cast<double>(readings.size());
}

BarrierSpeedProbe::BarrierSpeedProbe(int threads)
    : heaps_(static_cast<size_t>(std::max(1, threads))) {
  for (auto& heap : heaps_) heap.reserve(kProbeHeap);
}

double BarrierSpeedProbe::Seconds() {
  const size_t n = heaps_.size();
  std::barrier sync(static_cast<std::ptrdiff_t>(n));
  std::vector<double> readings(n);
  const auto round = [&](size_t i) {
    sync.arrive_and_wait();  // start together
    readings[i] = ProbeRound(&heaps_[i], kPops, kSlices,
                             [&sync] { sync.arrive_and_wait(); });
  };
  std::vector<std::thread> workers;
  for (size_t i = 1; i < n; ++i) workers.emplace_back(round, i);
  round(0);
  for (std::thread& w : workers) w.join();
  return Median(std::move(readings));
}

bool PinToCurrentCpu() {
  const int cpu = sched_getcpu();
  if (cpu < 0) return false;
  cpu_set_t set;
  CPU_ZERO(&set);
  CPU_SET(cpu, &set);
  return sched_setaffinity(0, sizeof(set), &set) == 0;
}

int FixedReps(double seconds, double reference_s, int min_reps) {
  return std::max(min_reps, static_cast<int>(std::lround(seconds /
                                                         reference_s)));
}

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return 1;
  return std::max(1, CPU_COUNT(&set));
}

void Outcome::Add(const std::string& name, double value,
                  const std::string& unit) {
  metrics.push_back(Metric{name, value, unit});
}

void Outcome::Fail(const std::string& what) {
  std::printf("GATE FAILED: %s\n", what.c_str());
  correct = false;
  ++gate_failures;
}

const std::vector<Metric>& EndToEndSpec() {
  static const std::vector<Metric> spec = {
      {"setup_s", 0, "s"},
      {"sim_s_per_wall_s", 0, "sim-s/s"},
      {"tenants_per_s", 0, "tenants/s"},
      {"decisions_per_s", 0, "1/s"},
      {"decision_p50_ms", 0, "ms"},
      {"decision_p99_ms", 0, "ms"},
      {"peak_rss_mb", 0, "MB"}};
  return spec;
}

const std::vector<std::string>& AttributedLayers() {
  static const std::vector<std::string> layers = {
      "engine", "telemetry", "scaler", "ingest", "fleet"};
  return layers;
}

const std::vector<Metric>& PerLayerSpec() {
  static const std::vector<Metric> spec = [] {
    std::vector<Metric> m = {
        {"failed_frac", 0, "ratio"},
        {"trace.overhead_pct", 0, "%"},
        {"engine.events", 0, "count"},
        {"engine.events_per_s", 0, "1/s"},
        {"engine.requests_completed", 0, "count"},
        {"sim.resizes", 0, "count"},
        {"scaler.decide_calls", 0, "count"},
        {"scaler.decide_us_p50", 0, "us"},
        {"scaler.decide_us_p99", 0, "us"},
        {"scaler.decide_s", 0, "s"},
        {"telemetry.compute_us_p50", 0, "us"},
        {"telemetry.compute_s", 0, "s"},
        {"ingest.drain_calls", 0, "count"},
        {"ingest.drain_busy_s", 0, "s"},
        {"ingest.drain_batch_p50", 0, "samples"},
        {"ingest.route_ns_per_sample", 0, "ns"},
        {"ingest.publish_ns_p50", 0, "ns"},
        {"ingest.ring_depth_p99", 0, "samples"},
        {"ingest.generator_lag_ms_p99", 0, "ms"},
        {"ingest.generator_behind", 0, "flag"},
        {"ingest.rejected", 0, "count"},
        {"fleet.serial_s", 0, "s"},
        {"fleet.speedup", 0, "x"},
        {"fleet.state_bytes_per_tenant", 0, "B"},
        {"fault.resize_failures", 0, "count"},
        {"fault.resize_retries", 0, "count"},
        {"host.migrations_begun", 0, "count"},
        {"host.migrations_completed", 0, "count"},
        {"host.placement_holds", 0, "count"},
        {"host.saturated_host_intervals", 0, "count"},
        {"obs.overhead_pct", 0, "%"}};
    for (const std::string& layer : AttributedLayers()) {
      m.push_back({layer + ".share_pct", 0, "%"});
    }
    m.push_back({"residual.share_pct", 0, "%"});
    return m;
  }();
  return spec;
}

std::string ResultJson(const Outcome& outcome) {
  std::string json = Format(
      "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
      "\"metrics\": {",
      outcome.correct ? "true" : "false",
      static_cast<unsigned long long>(outcome.attempted),
      static_cast<unsigned long long>(outcome.failed));
  for (size_t i = 0; i < outcome.metrics.size(); ++i) {
    const Metric& m = outcome.metrics[i];
    // %.17g keeps every digit a double carries.
    json += Format("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                   i == 0 ? "" : ", ", m.name.c_str(),
                   std::isfinite(m.value) ? m.value : 0.0, m.unit.c_str());
  }
  json += "}}";
  return json;
}

void AddLayerShares(const std::vector<LayerTime>& self_s, double wall_s,
                    Outcome* out) {
  std::printf("layer accounting (share of %.3f s traced wall time):\n",
              wall_s);
  double attributed = 0.0;
  for (const std::string& layer : AttributedLayers()) {
    double s = 0.0;
    for (const LayerTime& lt : self_s) {
      if (lt.layer == layer) s += lt.self_s;
    }
    attributed += s;
    const double pct = wall_s > 0.0 ? 100.0 * s / wall_s : 0.0;
    out->Add(layer + ".share_pct", pct, "%");
    std::printf("  %-10s %9.3f s  %6.2f %%\n", layer.c_str(), s, pct);
  }
  const double residual = wall_s - attributed;
  const double pct = wall_s > 0.0 ? 100.0 * residual / wall_s : 0.0;
  out->Add("residual.share_pct", pct, "%");
  std::printf("  %-10s %9.3f s  %6.2f %%\n", "residual", residual, pct);
}

std::string Format(const char* fmt, ...) {
  va_list args;
  va_start(args, fmt);
  va_list copy;
  va_copy(copy, args);
  const int n = std::vsnprintf(nullptr, 0, fmt, copy);
  va_end(copy);
  std::string s(n > 0 ? static_cast<size_t>(n) : 0, '\0');
  if (n > 0) std::vsnprintf(s.data(), s.size() + 1, fmt, args);
  va_end(args);
  return s;
}

}  // namespace perfbench
