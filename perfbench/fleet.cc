// Workloads `fleet` and `fleet_hosts`: FleetScaleRunner over one day of
// 5-minute intervals with the fleet_scale example's resize-fault profile
// (5% transient failures, 0-2 interval actuation latency).
//
//   fleet        40k tenants, block-major path, no host plane: the
//                per-tenant interval kernel and the parallel block
//                scheduling do all the work.
//   fleet_hosts  20k tenants on 4k hosts (half of them hot) plus a 3x flash
//                crowd on the hot half for 24 intervals from interval 96:
//                the interval-major path with serial host phases and
//                thousands of migrations.
//
// Timed unit: one FleetScaleRunner::Run (tenant init + all 288 intervals).
// A fleet run is a batch: every tenant-interval decision of the day is due
// when Run() is called and delivered when it returns, so each run is one
// decision-latency sample. A run repeats it a fixed number of times
// (FixedReps: --seconds at the reference VM's speed). Untraced runs read
// the speed probe on all the run's threads around every repetition and
// scale the repetition's times to the reference VM's speed.

#include <algorithm>
#include <cstdio>
#include <optional>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/container/catalog.h"
#include "src/fleet/fleet_scale.h"
#include "src/obs/pipeline.h"

namespace perfbench {
namespace {

using dbscale::fleet::FleetScaleOptions;
using dbscale::fleet::FleetScaleOutcome;
using dbscale::fleet::FleetScaleRunner;

constexpr int kMinReps = 3;
// One Run() at 4 threads on the reference VM (perfbench/README.md).
constexpr double kReferenceRunS = 2.5;
constexpr double kReferenceHostsRunS = 3.2;
constexpr int kIntervalSeconds = 300;
// Aggregate digest (host digest for fleet_hosts) at kDefaultSeed, recorded
// when this benchmark was written.
constexpr uint64_t kPinnedFleetDigest = 0x6c3801d094f4a194ull;
constexpr uint64_t kPinnedHostsDigest = 0xbd67759b94354db9ull;
constexpr uint64_t kPinnedHostsHostDigest = 0x001e150b1fd0d93aull;

FleetScaleOptions MakeOptions(uint64_t seed, bool hosts, int threads) {
  FleetScaleOptions options;
  options.num_intervals = 288;
  options.seed = seed;
  options.num_threads = threads;
  options.fault.resize.failure_probability = 0.05;
  options.fault.resize.max_latency_intervals = 2;
  if (!hosts) {
    options.num_tenants = 40000;
    options.block_size = 2048;
    return options;
  }
  // 20k tenants / 4k hosts rather than 10k / 2k (same density): ~2.7 s runs
  // instead of ~1.4 s, so machine hiccups average out within a run.
  options.num_tenants = 20000;
  options.block_size = 1024;
  options.host.num_hosts = 4000;
  options.host.capacity =
      dbscale::container::ResourceVector{64.0, 524288.0, 160000.0, 3200.0};
  options.host.hot_hosts = options.host.num_hosts / 2;
  options.host.hot_extra =
      dbscale::container::ResourceVector{16.0, 131072.0, 40000.0, 800.0};
  options.flash_crowd.start_interval = 96;
  options.flash_crowd.duration_intervals = 24;
  options.flash_crowd.demand_multiplier = 3.0;
  options.flash_crowd.num_hosts_hit = options.host.hot_hosts;
  return options;
}

struct FleetRun {
  bool ok = false;
  FleetScaleOutcome outcome;
  double wall_s = 0.0;
  double state_bytes = 0.0;
};

FleetRun RunOnce(const dbscale::container::Catalog& catalog,
                 FleetScaleOptions options,
                 dbscale::obs::Observability* ob) {
  options.obs = ob;
  FleetScaleRunner runner(catalog, options);
  FleetRun run;
  const double t0 = NowSeconds();
  auto outcome = runner.Run();
  run.wall_s = NowSeconds() - t0;
  if (!outcome.ok()) {
    std::printf("fleet: run failed: %s\n", outcome.status().message().c_str());
    return run;
  }
  run.ok = true;
  run.outcome = std::move(outcome).value();
  run.state_bytes = static_cast<double>(runner.StateBytes());
  return run;
}

/// Digest identity of a run: aggregate digest and, with hosts, host digest.
struct FleetDigest {
  uint64_t aggregate = 0;
  uint64_t host = 0;
  bool operator==(const FleetDigest&) const = default;
};

/// Gates: the run finished all intervals for every tenant, and at the
/// default seed its digests equal the pinned ones.
FleetDigest CheckRun(const FleetRun& run, const FleetScaleOptions& options,
                     bool hosts, uint64_t seed, Outcome* out) {
  const char* name = hosts ? "fleet_hosts" : "fleet";
  if (!run.ok || !run.outcome.complete ||
      run.outcome.completed_intervals != options.num_intervals ||
      run.outcome.aggregate.tenants !=
          static_cast<uint64_t>(options.num_tenants)) {
    out->Fail(Format("%s: incomplete run", name));
    return {};
  }
  const FleetDigest d{run.outcome.aggregate.digest, run.outcome.host_digest};
  if (seed == kDefaultSeed) {
    const FleetDigest pinned =
        hosts ? FleetDigest{kPinnedHostsDigest, kPinnedHostsHostDigest}
              : FleetDigest{kPinnedFleetDigest, 0};
    if (!(d == pinned)) {
      out->Fail(Format("%s: digest %016llx/%016llx, pinned %016llx/%016llx",
                       name, static_cast<unsigned long long>(d.aggregate),
                       static_cast<unsigned long long>(d.host),
                       static_cast<unsigned long long>(pinned.aggregate),
                       static_cast<unsigned long long>(pinned.host)));
    }
  }
  return d;
}

}  // namespace

Outcome RunFleet(const RunArgs& args, bool hosts) {
  Outcome out;
  const char* name = hosts ? "fleet_hosts" : "fleet";
  // Set-up: catalog, options + validation, runner construction (tenant
  // init runs inside Run()).
  dbscale::container::Catalog catalog =
      dbscale::container::Catalog::MakeLockStep();
  FleetScaleOptions options;
  const auto setup = [&] {
    catalog = dbscale::container::Catalog::MakeLockStep();
    options = MakeOptions(args.seed, hosts, args.threads);
    FleetScaleRunner runner(catalog, options);
    return options.Validate().ok();
  };
  // One batch now; an untraced run adds one before every repetition, so
  // setup_s samples the machine over the same span as the timed runs
  // rather than in one half-second window at the start.
  std::vector<double> setup_batches = {TimeSetup(1, setup)};
  if (setup_batches.front() < 0.0) {
    out.Fail(Format("%s: options invalid", name));
    return out;
  }
  std::printf("%s: %d tenants x %d intervals, %d hosts, seed %llu, "
              "%d threads\n",
              name, options.num_tenants, options.num_intervals,
              options.host.num_hosts,
              static_cast<unsigned long long>(args.seed), args.threads);

  std::vector<double> wall;
  FleetDigest first;
  FleetRun last;
  const auto timed_run = [&] {
    const int gates_before = out.gate_failures;
    last = RunOnce(catalog, options, nullptr);
    const FleetDigest d = CheckRun(last, options, hosts, args.seed, &out);
    if (wall.empty()) first = d;
    if (!(d == first)) {
      out.Fail(Format("%s: repeated run changed its digest", name));
    }
    out.attempted += static_cast<uint64_t>(options.num_tenants);
    if (out.gate_failures != gates_before) {
      out.failed += static_cast<uint64_t>(options.num_tenants);
    }
    wall.push_back(last.wall_s);
  };

  if (!args.trace) {
    // The machine's speed drifts in phases of seconds to minutes. The
    // probe runs on as many threads as the runner, before the first
    // repetition and after each one; a repetition's times (and the set-up
    // batch just before it) are scaled by the reference reading / the mean
    // of the two readings around it, i.e. to the reference VM's speed.
    // fleet_hosts meets at a barrier twice per interval, so it waits on the
    // slowest CPU each time: its probe meets at barriers too.
    std::optional<ParallelSpeedProbe> mean_probe;
    std::optional<BarrierSpeedProbe> barrier_probe;
    if (hosts) {
      barrier_probe.emplace(args.threads);
    } else {
      mean_probe.emplace(args.threads);
    }
    const double reference =
        hosts ? kReferenceBarrierProbeS : kReferenceParallelProbeS;
    const auto read_probe = [&] {
      return hosts ? barrier_probe->Seconds() : mean_probe->Seconds();
    };
    double probe_before = read_probe();
    std::vector<double> scaled_setup = {setup_batches.front() * reference /
                                        probe_before};
    std::vector<double> scaled_wall;
    std::string speeds;
    const int reps = FixedReps(
        args.seconds, hosts ? kReferenceHostsRunS : kReferenceRunS, kMinReps);
    for (int rep = 0; rep < reps; ++rep) {
      const double setup_batch = TimeSetup(1, setup);
      timed_run();
      const double probe_after = read_probe();
      const double scale = reference / (0.5 * (probe_before + probe_after));
      probe_before = probe_after;
      scaled_setup.push_back(setup_batch * scale);
      scaled_wall.push_back(wall.back() * scale);
      speeds += Format(" %.2f", 1.0 / scale);
    }
    // Repetitions do bit-identical work (the digest gate above): throughput
    // comes from the median run, so one disturbed run cannot move it; the
    // latency percentiles keep them all.
    const double run_s = Median(scaled_wall);
    std::vector<double> wall_ms;
    std::string runs;
    std::string scaled;
    for (size_t i = 0; i < wall.size(); ++i) {
      wall_ms.push_back(scaled_wall[i] * 1e3);
      runs += Format(" %.3f", wall[i]);
      scaled += Format(" %.3f", scaled_wall[i]);
    }
    std::printf("%s: run wall times (s):%s\n", name, runs.c_str());
    std::printf("%s: probe / reference per run:%s\n", name, speeds.c_str());
    std::printf("%s: at reference speed (s):%s\n", name, scaled.c_str());
    const Percentile p50 = NearestRank(wall_ms, 0.50);
    const Percentile p99 = NearestRank(wall_ms, 0.99);
    std::printf("%s: %zu runs, median %.3f s at reference speed (%.3f s as "
                "measured), digest %016llx/%016llx\n",
                name, wall.size(), run_s, Median(wall),
                static_cast<unsigned long long>(first.aggregate),
                static_cast<unsigned long long>(first.host));
    std::printf("%s: batch decision latency p50 %.1f ms, p99 %.1f ms "
                "(%zu runs, %zu beyond p99: fewer than 10, read the p99 as "
                "the slowest run)\n",
                name, p50.value, p99.value, p99.count, p99.beyond);
    const double tenants = static_cast<double>(options.num_tenants);
    out.Add("setup_s", Median(scaled_setup), "s");
    out.Add("sim_s_per_wall_s",
            tenants * options.num_intervals * kIntervalSeconds / run_s,
            "sim-s/s");
    out.Add("tenants_per_s", tenants / run_s, "tenants/s");
    out.Add("decisions_per_s", tenants * options.num_intervals / run_s, "1/s");
    out.Add("decision_p50_ms", p50.value, "ms");
    out.Add("decision_p99_ms", p99.value, "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced: untraced, traced and observed (obs bundle attached) runs
  // interleave, two of each, so machine drift hits all three alike; then
  // the same options at 1 thread (kernel cost without scheduling). The
  // runner has no hooks to trace inside, so the traced run's one span is
  // the whole run (construction + Run()).
  std::vector<double> plain;
  std::vector<double> traced_s;
  std::vector<double> observed_s;
  FleetRun traced;
  for (int round = 0; round < 2; ++round) {
    timed_run();
    plain.push_back(last.wall_s);
    const double span_start = NowSeconds();
    timed_run();
    traced_s.push_back(NowSeconds() - span_start);
    traced = last;
    dbscale::obs::Observability ob;
    const FleetRun observed = RunOnce(catalog, options, &ob);
    out.attempted += static_cast<uint64_t>(options.num_tenants);
    if (!(CheckRun(observed, options, hosts, args.seed, &out) == first)) {
      out.Fail(Format("%s: attaching observability changed the digest", name));
    }
    observed_s.push_back(observed.wall_s);
  }
  FleetScaleOptions serial_options = options;
  serial_options.num_threads = 1;
  const FleetRun serial = RunOnce(catalog, serial_options, nullptr);
  out.attempted += static_cast<uint64_t>(options.num_tenants);
  if (!(CheckRun(serial, serial_options, hosts, args.seed, &out) == first)) {
    out.Fail(Format("%s: 1-thread digest differs from the %d-thread run",
                    name, args.threads));
  }
  if (!out.correct) out.failed = out.attempted;

  const double run_s = Median(plain);
  const auto& agg = traced.outcome.aggregate;
  const auto& host = traced.outcome.host;
  out.Add("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.Add("trace.overhead_pct", 100.0 * (Median(traced_s) - run_s) / run_s,
          "%");
  out.Add("fleet.serial_s", serial.wall_s, "s");
  out.Add("fleet.speedup", serial.wall_s / run_s, "x");
  out.Add("fleet.state_bytes_per_tenant",
          traced.state_bytes / static_cast<double>(options.num_tenants),
          "B");
  out.Add("fault.resize_failures", static_cast<double>(agg.resize_failures),
          "count");
  out.Add("fault.resize_retries", static_cast<double>(agg.resize_retries),
          "count");
  out.Add("host.migrations_begun", static_cast<double>(host.migrations_begun),
          "count");
  out.Add("host.migrations_completed",
          static_cast<double>(host.migrations_completed), "count");
  out.Add("host.placement_holds", static_cast<double>(host.placement_holds),
          "count");
  out.Add("host.saturated_host_intervals",
          static_cast<double>(host.saturated_host_intervals), "count");
  out.Add("obs.overhead_pct", 100.0 * (Median(observed_s) - run_s) / run_s,
          "%");
  std::printf("%s traced: %.3f s at %d threads, %.3f s serial (%.2fx)\n", name,
              run_s, args.threads, serial.wall_s, serial.wall_s / run_s);
  // Everything the runner does (tenant kernel, fault actuation, host
  // phases) happens inside Run(); only the call itself is a boundary the
  // benchmark can time.
  AddLayerShares({{"fleet", traced.wall_s}}, traced_s.back(), &out);
  return out;
}

}  // namespace perfbench
