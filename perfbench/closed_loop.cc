// Workload `closed_loop`: one tenant through the paper's closed loop —
// the Figure 12 setup (DS2 on paper trace 1, lock-step catalog, 20 s
// billing intervals, 4x subsampled trace, p95 latency goal, Auto policy)
// on one thread. The engine's discrete-event simulation does nearly all
// the work; signals and Decide run once per interval.
//
// Timed unit: one Simulation::Run. A run repeats it a fixed number of times
// (FixedReps: --seconds at the reference VM's speed, at least kMinReps).
// Untraced runs time every interval step, keep each interval's fastest step
// over the repetitions, stay on one CPU and scale those times to the
// reference VM's speed with the in-process SpeedProbe read around each
// repetition.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/common/fnv.h"
#include "src/container/catalog.h"
#include "src/obs/pipeline.h"
#include "src/sim/sim_config.h"
#include "src/sim/simulation.h"
#include "src/telemetry/manager.h"
#include "src/telemetry/store.h"
#include "src/workload/mix.h"
#include "src/workload/paper_traces.h"

namespace perfbench {
namespace {

using dbscale::SimConfig;
using dbscale::scaler::PolicyInput;
using dbscale::scaler::ScalingDecision;
using dbscale::scaler::ScalingPolicy;

// 1.25x the Max policy's p95 latency on this setup (bench_fig12's goal
// derivation at its default seed: 1.25 x 140 ms), fixed so every seed
// shares one goal.
constexpr double kGoalP95Ms = 175.0;
constexpr int kMinReps = 3;
// One Simulation::Run on the reference VM (perfbench/README.md).
constexpr double kReferenceRunS = 2.5;
// Interval-record digest (IntervalDigest) at kDefaultSeed, recorded when
// this benchmark was written.
constexpr uint64_t kPinnedDigest = 0x8b004cc4db6a4f6full;

SimConfig MakeConfig(uint64_t seed) {
  SimConfig config;
  config.simulation.catalog = dbscale::container::Catalog::MakeLockStep();
  config.simulation.workload = dbscale::workload::MakeDs2Workload();
  config.simulation.trace =
      *dbscale::workload::MakeTrace1Steady().Subsampled(4);
  config.simulation.interval_duration = dbscale::Duration::Seconds(20);
  config.simulation.seed = seed;
  config.knobs.latency_goal = dbscale::scaler::LatencyGoal{
      dbscale::telemetry::LatencyAggregate::kP95, kGoalP95Ms};
  return config;
}

/// Stamps the return time of every Decide (and, when asked, its duration)
/// around the real policy. One clock read per interval when untraced.
class TimedPolicy final : public ScalingPolicy {
 public:
  TimedPolicy(ScalingPolicy* inner, bool time_decide)
      : inner_(inner), time_decide_(time_decide) {}

  ScalingDecision Decide(const PolicyInput& input) override {
    const uint64_t t0 = time_decide_ ? NowNs() : 0;
    ScalingDecision d = inner_->Decide(input);
    const uint64_t t1 = NowNs();
    if (time_decide_) decide_us.push_back(static_cast<double>(t1 - t0) / 1e3);
    return_ns.push_back(t1);
    return d;
  }
  std::string name() const override { return inner_->name(); }

  std::vector<uint64_t> return_ns;
  std::vector<double> decide_us;

 private:
  ScalingPolicy* inner_;
  bool time_decide_;
};

struct LoopRun {
  dbscale::sim::RunResult result;
  double wall_s = 0.0;
  /// Wall time of each interval step: previous decision's return (the
  /// run's start for interval 0) to this interval's decision return.
  std::vector<double> step_ms;
  std::vector<double> decide_us;
};

/// Builds the policy (untimed), then times one closed-loop run.
LoopRun RunOnce(const SimConfig& config, bool traced,
                dbscale::obs::Observability* ob) {
  auto scaler = config.MakeAutoScaler();
  if (!scaler.ok()) {
    std::printf("closed_loop: %s\n", scaler.status().message().c_str());
    return {};
  }
  dbscale::sim::SimulationOptions options =
      config.EffectiveSimulationOptions();
  options.keep_samples = traced;
  options.obs = ob;
  dbscale::sim::Simulation simulation(options);
  TimedPolicy policy(scaler->get(), traced);
  policy.return_ns.reserve(options.trace.num_steps());

  LoopRun run;
  const uint64_t start = NowNs();
  auto result = simulation.Run(&policy);
  run.wall_s = static_cast<double>(NowNs() - start) / 1e9;
  if (!result.ok()) {
    std::printf("closed_loop: run failed: %s\n",
                result.status().message().c_str());
    return {};
  }
  run.result = std::move(result).value();
  uint64_t prev = start;
  for (uint64_t t : policy.return_ns) {
    run.step_ms.push_back(DueLatencyMs(prev, t));
    prev = t;
  }
  run.decide_us = std::move(policy.decide_us);
  return run;
}

uint64_t IntervalDigest(const dbscale::sim::RunResult& r) {
  dbscale::Fnv64Stream d;
  for (const auto& iv : r.intervals) {
    d.I32(iv.index);
    d.I32(iv.container.id);
    d.Dbl(iv.cost);
    d.Dbl(iv.latency_p95_ms);
    d.U64(static_cast<uint64_t>(iv.completed));
    d.U64(static_cast<uint64_t>(iv.errors));
    d.I32(static_cast<int32_t>(iv.decision_code));
    d.I32(iv.resized ? 1 : 0);
  }
  d.U64(r.events_processed);
  d.U64(r.total_completed);
  return d.value;
}

/// The closed-loop gates: a complete run, every interval decided, the
/// per-interval bills summing to the total, and the pinned digest at the
/// default seed. Returns the run's digest.
uint64_t CheckRun(const LoopRun& run, const SimConfig& config, uint64_t seed,
                  Outcome* out) {
  const auto& r = run.result;
  const size_t want = config.simulation.trace.num_steps();
  if (r.intervals.size() != want) {
    out->Fail(Format("closed_loop: %zu intervals, want %zu",
                     r.intervals.size(), want));
    return 0;
  }
  double cost = 0.0;
  for (const auto& iv : r.intervals) {
    cost += iv.cost;
    if (iv.decision_code == dbscale::scaler::ExplanationCode::kUnset) {
      out->Fail(Format("closed_loop: interval %d has no decision", iv.index));
    }
  }
  if (std::fabs(cost - r.total_cost) > 1e-9 * std::fabs(r.total_cost)) {
    out->Fail(Format("closed_loop: interval costs sum to %.17g, total %.17g",
                     cost, r.total_cost));
  }
  const uint64_t digest = IntervalDigest(r);
  if (seed == kDefaultSeed && digest != kPinnedDigest) {
    out->Fail(Format("closed_loop: digest %016llx, pinned %016llx",
                     static_cast<unsigned long long>(digest),
                     static_cast<unsigned long long>(kPinnedDigest)));
  }
  return digest;
}

/// Replays the run's kept samples through a fresh store + manager at each
/// interval boundary, timing every Compute: the telemetry layer's cost in
/// this run, measured from outside the engine loop.
std::vector<double> ReplayComputeUs(const SimConfig& config,
                                    const dbscale::sim::RunResult& r) {
  const dbscale::sim::SimulationOptions options =
      config.EffectiveSimulationOptions();
  const size_t per_interval = static_cast<size_t>(
      options.interval_duration.ToMicros() / options.sample_period.ToMicros());
  dbscale::telemetry::TelemetryStore store;
  dbscale::telemetry::TelemetryManager manager(options.telemetry);
  dbscale::telemetry::SignalScratch scratch;
  std::vector<double> us;
  for (size_t i = 0; i < r.samples.size(); ++i) {
    store.Append(r.samples[i]);
    if ((i + 1) % per_interval != 0) continue;
    const uint64_t t0 = NowNs();
    const auto snapshot =
        manager.Compute(store, r.samples[i].period_end, &scratch);
    us.push_back(static_cast<double>(NowNs() - t0) / 1e3);
    if (!snapshot.valid && i + 1 > 2 * per_interval) {
      std::printf("closed_loop: replayed snapshot %zu invalid\n", i);
    }
  }
  return us;
}

double Sum(const std::vector<double>& v) {
  double s = 0.0;
  for (double x : v) s += x;
  return s;
}

}  // namespace

Outcome RunClosedLoop(const RunArgs& args) {
  Outcome out;
  std::printf("closed_loop: fig12 setup (DS2, trace 1 /4, 20 s intervals, "
              "p95 goal %.0f ms, Auto), seed %llu, 1 thread\n",
              kGoalP95Ms, static_cast<unsigned long long>(args.seed));

  // Set-up: workload + trace generation, validation, policy and
  // simulation construction (the engine is built inside Run()).
  SimConfig config;
  const auto setup = [&] {
    config = MakeConfig(args.seed);
    dbscale::sim::Simulation simulation(config.EffectiveSimulationOptions());
    return config.MakeAutoScaler().ok();
  };
  // One batch now; an untraced run adds one before every repetition, so
  // setup_s samples the machine over the same span as the timed runs
  // rather than in one half-second window at the start.
  std::vector<double> setup_batches = {TimeSetup(1, setup)};
  if (setup_batches.front() < 0.0) {
    out.Fail("closed_loop: config invalid");
    return out;
  }
  const double trace_sim_s =
      static_cast<double>(config.simulation.trace.num_steps()) *
      config.simulation.interval_duration.ToSeconds();

  if (!args.trace) {
    // The loop is single-threaded, so it runs at the speed of the one CPU
    // it is on, and on a shared host that speed drops by up to 1.8x for
    // stretches of 0.5-4 s (and, now and then, for minutes). Repetitions
    // do bit-identical work (the digest gate below), so each interval
    // step's time is taken as the fastest of the repetitions, which drops
    // the stretches a disturbance slowed; and the run stays on one CPU and
    // reads the speed probe there around every repetition, scaling its
    // times by kReferenceProbeS / the fastest reading, which takes out a
    // slow phase that lasts the whole run.
    const bool pinned = PinToCurrentCpu();
    SpeedProbe probe;
    std::vector<double> probes = {probe.Seconds()};
    std::vector<double> wall;
    std::vector<double> best_step_ms;
    uint64_t first_digest = 0;
    uint64_t events = 0;
    int resizes = 0;
    const int reps = FixedReps(args.seconds, kReferenceRunS, kMinReps);
    for (int rep = 0; rep < reps; ++rep) {
      setup_batches.push_back(TimeSetup(1, setup));
      const int gates_before = out.gate_failures;
      LoopRun run = RunOnce(config, false, nullptr);
      probes.push_back(probe.Seconds());
      const uint64_t digest = CheckRun(run, config, args.seed, &out);
      if (wall.empty()) first_digest = digest;
      if (digest != first_digest) {
        out.Fail("closed_loop: repeated run changed its digest");
      }
      out.attempted += config.simulation.trace.num_steps();
      if (out.gate_failures != gates_before) {
        out.failed += config.simulation.trace.num_steps();
        continue;
      }
      events = run.result.events_processed;
      resizes = run.result.container_changes;
      wall.push_back(run.wall_s);
      if (best_step_ms.empty()) best_step_ms = run.step_ms;
      for (size_t i = 0; i < best_step_ms.size(); ++i) {
        best_step_ms[i] = std::min(best_step_ms[i], run.step_ms[i]);
      }
    }
    if (best_step_ms.empty()) return out;
    const double scale =
        kReferenceProbeS / *std::min_element(probes.begin(), probes.end());
    const double best_run_s = Sum(best_step_ms) / 1e3;
    const double run_s = best_run_s * scale;
    std::string runs;
    for (double w : wall) runs += Format(" %.3f", w);
    std::string readings;
    for (double p : probes) readings += Format(" %.4f", p);
    std::printf("closed_loop: %s; run wall times (s):%s\n",
                pinned ? "pinned to one CPU" : "NOT pinned (affinity refused)",
                runs.c_str());
    std::printf("closed_loop: probe readings (s):%s; scale %.3f\n",
                readings.c_str(), scale);
    std::printf("closed_loop: %zu runs; fastest step per interval sums to "
                "%.3f s, %.3f s at reference speed (median run %.3f s as "
                "measured); %llu events/run, %d resizes, digest %016llx\n",
                wall.size(), best_run_s, run_s, Median(wall),
                static_cast<unsigned long long>(events),
                resizes, static_cast<unsigned long long>(first_digest));
    // Percentiles over the 360 intervals' fastest steps. That leaves 3
    // beyond the p99, which reads as the workload's slowest intervals;
    // pooling more steps per interval to get 10 beyond let disturbed steps
    // into the tail (spread 11-31% over ten seeds, against 7-10%).
    const Percentile p50 = NearestRank(best_step_ms, 0.50);
    const Percentile p99 = NearestRank(best_step_ms, 0.99);
    std::printf("closed_loop: at reference speed, fastest interval step p50 "
                "%.3f ms, p99 %.3f ms (%zu intervals, %zu beyond p99: fewer "
                "than 10, read the p99 as the slowest intervals)\n",
                p50.value * scale, p99.value * scale, p99.count, p99.beyond);
    out.Add("setup_s",
            *std::min_element(setup_batches.begin(), setup_batches.end()) *
                scale,
            "s");
    out.Add("sim_s_per_wall_s", trace_sim_s / run_s, "sim-s/s");
    out.Add("tenants_per_s", 1.0 / run_s, "tenants/s");
    out.Add("decisions_per_s",
            static_cast<double>(config.simulation.trace.num_steps()) / run_s,
            "1/s");
    out.Add("decision_p50_ms", p50.value * scale, "ms");
    out.Add("decision_p99_ms", p99.value * scale, "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced: untraced, traced and observed (obs bundle attached) runs
  // interleave, two of each, so machine drift hits all three alike. The
  // layer accounting uses the faster traced run; Decide timings pool both.
  std::vector<double> plain_s;
  std::vector<double> traced_s;
  std::vector<double> observed_s;
  std::vector<double> decide_us;
  LoopRun traced;
  std::vector<uint64_t> digests;
  const auto checked_run = [&](bool timed, dbscale::obs::Observability* ob) {
    LoopRun run = RunOnce(config, timed, ob);
    out.attempted += config.simulation.trace.num_steps();
    digests.push_back(CheckRun(run, config, args.seed, &out));
    return run;
  };
  for (int round = 0; round < 2; ++round) {
    plain_s.push_back(checked_run(false, nullptr).wall_s);
    LoopRun t = checked_run(true, nullptr);
    traced_s.push_back(t.wall_s);
    decide_us.insert(decide_us.end(), t.decide_us.begin(), t.decide_us.end());
    if (round == 0 || t.wall_s < traced.wall_s) traced = std::move(t);
    dbscale::obs::Observability ob;
    observed_s.push_back(checked_run(false, &ob).wall_s);
  }
  for (uint64_t d : digests) {
    if (d != digests.front()) {
      out.Fail("closed_loop: tracing or observability changed the digest");
      break;
    }
  }
  if (!out.correct) out.failed = out.attempted;

  const double plain = Median(plain_s);
  const double wall = Median(traced_s);
  const auto& r = traced.result;
  const std::vector<double> compute_us = ReplayComputeUs(config, r);
  const double compute_s = Sum(compute_us) / 1e6;
  const double decide_s = Sum(traced.decide_us) / 1e6;
  const double engine_s = traced.wall_s - compute_s - decide_s;
  const Percentile decide_p50 = NearestRank(decide_us, 0.50);
  const Percentile decide_p99 = NearestRank(decide_us, 0.99);

  out.Add("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.Add("trace.overhead_pct", 100.0 * (wall - plain) / plain, "%");
  out.Add("engine.events", static_cast<double>(r.events_processed), "count");
  out.Add("engine.events_per_s",
          static_cast<double>(r.events_processed) / engine_s, "1/s");
  out.Add("engine.requests_completed", static_cast<double>(r.total_completed),
          "count");
  out.Add("sim.resizes", r.container_changes, "count");
  out.Add("scaler.decide_calls", static_cast<double>(traced.decide_us.size()),
          "count");
  out.Add("scaler.decide_us_p50", decide_p50.value, "us");
  out.Add("scaler.decide_us_p99", decide_p99.value, "us");
  out.Add("scaler.decide_s", decide_s, "s");
  out.Add("telemetry.compute_us_p50", NearestRank(compute_us, 0.5).value, "us");
  out.Add("telemetry.compute_s", compute_s, "s");
  out.Add("fault.resize_failures", static_cast<double>(r.resize_failures),
          "count");
  out.Add("obs.overhead_pct", 100.0 * (Median(observed_s) - plain) / plain,
          "%");
  std::printf("closed_loop traced: %.3f s traced vs %.3f s untraced; "
              "decide p99 %.1f us over %zu calls (%zu beyond)\n",
              wall, plain, decide_p99.value, decide_p99.count,
              decide_p99.beyond);
  AddLayerShares({{"engine", engine_s},
                  {"telemetry", compute_s},
                  {"scaler", decide_s}},
                 traced.wall_s, &out);
  return out;
}

}  // namespace perfbench
