// Workload `service`: the ScalerService daemon with 10^3 AutoScaler
// tenants, fed through IngestRing by one IngestProducer thread. There is
// no engine here: ring routing, TelemetryManager::Compute and Decide do
// all the work.
//
// Every tenant streams 5-second samples (60 per 5-minute billing
// interval, the service default) whose demand is steady, rising
// (sawtooth) or bursty, so Auto's up, down and hold paths all fire. The
// stream is round-robin over tenants with staggered interval boundaries
// (StaggeredStream), so decisions arrive steadily.
//
// Set-up builds the service, registers the tenants, routes the staggering
// offsets and then one full interval per tenant through the ring, so every
// tenant has taken its first decision (with its one-off allocations) before
// anything is timed. A pass then runs two phases on the same stream:
//
//   fixed      open loop at kFixedDecisionsPerS: each sample is due at its
//              scheduled time, and a decision's latency runs from the due
//              time of its interval-completing sample to the return of the
//              DrainOnce that emitted it -> decision_p50_ms / p99_ms
//   saturated  the producer publishes as fast as the ring accepts, retrying
//              rejected pushes -> decisions_per_s
//
// A pass whose generator fell behind its schedule is discarded and run
// again on a freshly built service (RunKeptPass, at most kMaxPasses).
//
// Threads: the producer, plus a ThreadPool of (threads - 1) whose calling
// thread is the drainer; together exactly `threads` <= nproc.

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"
#include "src/common/fnv.h"
#include "src/common/thread_pool.h"
#include "src/container/catalog.h"
#include "src/ingest/ingest_ring.h"
#include "src/ingest/producer.h"
#include "src/ingest/scaler_service.h"
#include "src/ingest/wire_sample.h"
#include "src/obs/pipeline.h"
#include "src/scaler/autoscaler.h"
#include "src/scaler/explanation.h"
#include "src/telemetry/sample.h"

namespace perfbench {
namespace {

namespace container = dbscale::container;
namespace ingest = dbscale::ingest;
namespace scaler = dbscale::scaler;
namespace telemetry = dbscale::telemetry;

// 10^3 tenants: at ~1.2k decisions/s (Compute-bound, independent of the
// tenant count) every tenant decides about eight times in a 10 s run, so
// Auto's up/down/hold paths all fire; at 10^4 each tenant would decide
// about once (its first, warm-up decision) and the service would hold
// ~2.2 GB of per-tenant signal state.
constexpr uint64_t kTenants = 1000;
// Per-tenant store retention: the longest default signal window is 24
// samples; 64 keeps the incremental signal path without the default 4096
// (which would hold ~8 GB across 10^4 tenants).
constexpr size_t kRetention = 64;
// The open-loop phase's offered load. A drain that completes one interval
// evaluates it serially on the drainer (~2 ms of Compute), so the open loop
// saturates near 500 decisions/s, well below the ~1.2k/s batched saturated
// throughput; 150/s keeps the drainer under ~60% busy even when the
// machine runs 2x slow, so the tail measures the service, not a backlog.
constexpr double kFixedDecisionsPerS = 150.0;
constexpr double kLatencyGoalMs = 60.0;
constexpr int64_t kPeriodUs = 5'000'000;
// A pass whose generator ran later than this at its p99 without the ring
// pushing back is flagged: its latencies measure the generator, not the
// service.
constexpr double kBehindLagMs = 5.0;
// Every run checks one tenant in kGateStride against the direct-feed
// reference; the traced run checks every tenant and the full Digest().
constexpr uint64_t kGateStride = 16;
// Window of the saturated-throughput median (s).
constexpr double kRateWindowS = 0.5;
// Window (by due time) of the fixed phase's per-window p50 median (s).
constexpr double kLatencyWindowS = 1.0;
// Intervals every tenant completes during set-up.
constexpr uint64_t kWarmIntervals = 1;
// Passes a run may make: a pass whose generator fell behind is discarded
// and run again on a freshly built service.
constexpr int kMaxPasses = 3;

// ---------------------------------------------------------------------------
// Sample stream
// ---------------------------------------------------------------------------

uint64_t Mix(uint64_t x) {
  x += 0x9E3779B97F4A7C15ull;
  x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9ull;
  x = (x ^ (x >> 27)) * 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Unit(uint64_t h) { return static_cast<double>(h >> 11) * 0x1.0p-53; }

enum class Shape : uint8_t { kSteady, kRising, kBursty };

struct TenantShape {
  Shape shape = Shape::kSteady;
  double level = 0.5;    ///< steady demand level
  uint64_t period = 24;  ///< rising: sawtooth period in intervals
  uint64_t hash = 0;
};

std::vector<TenantShape> MakeShapes(uint64_t seed) {
  std::vector<TenantShape> shapes(kTenants);
  for (uint64_t j = 0; j < kTenants; ++j) {
    const uint64_t h = Mix(seed * 0x100000001B3ull + j);
    TenantShape& s = shapes[j];
    s.shape = static_cast<Shape>(h % 3);
    s.level = 0.25 + 0.4 * Unit(Mix(h));
    s.period = 6 + Mix(h + 1) % 18;
    s.hash = h;
  }
  return shapes;
}

/// Demand (fraction of the reference container) of sample i.
double DemandAt(const TenantShape& s, uint64_t i, uint64_t per_interval) {
  const uint64_t interval = i / per_interval;
  const double noise =
      0.06 * (Unit(Mix(s.hash ^ (i * 0xD6E8FEB86659FD93ull))) - 0.5);
  switch (s.shape) {
    case Shape::kSteady:
      return s.level + noise;
    case Shape::kRising:
      return 0.1 + 1.1 * static_cast<double>(interval % s.period) /
                       static_cast<double>(s.period) + noise;
    case Shape::kBursty:
      return (Mix(s.hash + interval / 2) % 3 == 0 ? 1.15 : 0.15) + noise;
  }
  return s.level;
}

telemetry::TelemetrySample MakeSample(const container::ContainerSpec& ref,
                                      const TenantShape& s, uint64_t i,
                                      uint64_t per_interval) {
  static constexpr double kWeight[container::kNumResources] = {1.0, 0.7, 0.5,
                                                               0.3};
  const double d = std::max(0.02, DemandAt(s, i, per_interval));
  const double over = std::max(0.0, d - 0.6);
  telemetry::TelemetrySample x;
  x.period_start =
      dbscale::SimTime::FromMicros(static_cast<int64_t>(i) * kPeriodUs);
  x.period_end =
      dbscale::SimTime::FromMicros(static_cast<int64_t>(i + 1) * kPeriodUs);
  for (size_t r = 0; r < container::kNumResources; ++r) {
    x.utilization_pct[r] = std::clamp(100.0 * d * kWeight[r], 0.5, 100.0);
  }
  x.requests_started = 200;
  x.requests_completed = 200;
  const double reqs = 200.0;
  x.wait_ms[static_cast<size_t>(telemetry::WaitClass::kCpu)] =
      reqs * (1.0 + 60.0 * over);
  x.wait_ms[static_cast<size_t>(telemetry::WaitClass::kDiskIo)] =
      reqs * (0.5 + 20.0 * std::max(0.0, 0.5 * d - 0.35));
  x.wait_ms[static_cast<size_t>(telemetry::WaitClass::kLock)] = reqs * 0.2;
  x.latency_avg_ms = 8.0 + 100.0 * over;
  x.latency_p95_ms = 20.0 + 300.0 * over;
  x.latency_max_ms = 2.0 * x.latency_p95_ms;
  x.memory_used_mb = 0.9 * ref.resources.Get(container::ResourceKind::kMemory);
  x.memory_active_mb =
      (0.3 + 0.5 * std::min(d, 1.2)) *
      ref.resources.Get(container::ResourceKind::kMemory);
  x.physical_reads = static_cast<int64_t>(50.0 * d);
  x.allocation = ref.resources;
  x.container_id = ref.id;
  return x;
}

// ---------------------------------------------------------------------------
// Traced-mode policy decorator
// ---------------------------------------------------------------------------

/// Where a tenant's TimedPolicy leaves its last Decide's duration and
/// outcome. Slot j is written only while tenant j is being evaluated and
/// read by the drainer after the DrainOnce returns (the pool's join orders
/// the two), so plain fields suffice.
struct DecideTrace {
  std::vector<uint64_t> last_ns;
  std::vector<uint8_t> last_code;  ///< scaler::ExplanationCode
};

class TimedPolicy final : public scaler::ScalingPolicy {
 public:
  TimedPolicy(std::unique_ptr<scaler::ScalingPolicy> inner, DecideTrace* trace,
              uint64_t slot)
      : inner_(std::move(inner)), trace_(trace), slot_(slot) {}

  scaler::ScalingDecision Decide(const scaler::PolicyInput& input) override {
    const uint64_t t0 = NowNs();
    scaler::ScalingDecision d = inner_->Decide(input);
    trace_->last_ns[slot_] = NowNs() - t0;
    trace_->last_code[slot_] = static_cast<uint8_t>(d.explanation.code);
    return d;
  }
  std::string name() const override { return inner_->name(); }

 private:
  std::unique_ptr<scaler::ScalingPolicy> inner_;
  DecideTrace* trace_;
  uint64_t slot_;
};

// ---------------------------------------------------------------------------
// One pass
// ---------------------------------------------------------------------------

struct Setup {
  container::Catalog catalog = container::Catalog::MakeLockStep();
  container::ContainerSpec initial;
  std::vector<TenantShape> shapes;
  StaggeredStream stream;
};

std::unique_ptr<scaler::ScalingPolicy> MakePolicy(const Setup& setup) {
  scaler::TenantKnobs knobs;
  knobs.latency_goal = scaler::LatencyGoal{
      telemetry::LatencyAggregate::kP95, kLatencyGoalMs};
  auto policy = scaler::AutoScaler::Create(setup.catalog, knobs);
  if (!policy.ok()) return nullptr;
  return std::move(policy).value();
}

/// Stream items routed during set-up: kWarmIntervals full intervals.
uint64_t WarmItems(const StaggeredStream& stream) {
  return kWarmIntervals * stream.tenants * stream.per_interval;
}

ingest::ScalerServiceOptions ServiceOptions() {
  ingest::ScalerServiceOptions options;
  options.store_retention = kRetention;
  return options;
}

/// A built service: ring, pool, tenants registered, pre-stream offsets
/// routed. Everything before the first timed operation.
struct Service {
  ingest::IngestRing ring{ingest::IngestRingOptions{}};
  std::unique_ptr<dbscale::ThreadPool> pool;
  std::vector<uint64_t> decision_ns;  ///< Compute+Decide per decision
  DecideTrace decide;
  std::unique_ptr<ingest::ScalerService> service;
  std::unique_ptr<ingest::IngestProducer> producer;
};

std::unique_ptr<Service> BuildService(const Setup& setup, int threads,
                                      bool traced,
                                      dbscale::obs::Observability* ob) {
  auto s = std::make_unique<Service>();
  if (threads > 2) s->pool = std::make_unique<dbscale::ThreadPool>(threads - 1);
  ingest::ScalerServiceOptions options = ServiceOptions();
  if (traced) {
    options.timer = &NowNs;
    options.decision_latency_sink = &s->decision_ns;
    s->decide.last_ns.assign(kTenants, 0);
    s->decide.last_code.assign(kTenants, 0);
  }
  s->service = std::make_unique<ingest::ScalerService>(&s->ring, options,
                                                       s->pool.get(), ob);
  for (uint64_t j = 0; j < kTenants; ++j) {
    std::unique_ptr<scaler::ScalingPolicy> policy = MakePolicy(setup);
    if (policy == nullptr) return nullptr;
    if (traced) {
      policy = std::make_unique<TimedPolicy>(std::move(policy), &s->decide, j);
    }
    if (!s->service->AddTenant(j + 1, std::move(policy), setup.initial).ok()) {
      return nullptr;
    }
  }
  // Through the ring from this thread: first the staggering offsets (fewer
  // samples than an interval, so nothing is decided), then the stream's
  // first kWarmIntervals intervals, which decide every tenant once.
  s->producer = std::make_unique<ingest::IngestProducer>(&s->ring, 0);
  const StaggeredStream& stream = setup.stream;
  const uint64_t per = stream.per_interval;
  const auto publish = [&](uint64_t slot, uint64_t i) {
    const auto sample = MakeSample(setup.initial, setup.shapes[slot], i, per);
    while (s->producer->Publish(slot + 1, sample) !=
           ingest::PublishOutcome::kPublished) {
      (void)s->service->DrainAll();
    }
  };
  for (uint64_t i = 0; i + 1 < per; ++i) {
    for (uint64_t j = 0; j < kTenants; ++j) {
      if (stream.Offset(j) > i) publish(j, i);
    }
  }
  for (uint64_t k = 0; k < WarmItems(stream); ++k) {
    publish(stream.Slot(k), stream.LocalIndex(k));
  }
  (void)s->service->DrainAll();
  if (s->service->counters().decisions != kTenants * kWarmIntervals) {
    return nullptr;
  }
  return s;
}

struct PassResult {
  uint64_t stream_total = 0;   ///< stream items published
  uint64_t decisions = 0;      ///< decisions in the stream phases
  uint64_t missing = 0;        ///< completions without a decision (or extra)
  uint64_t fixed_rejected = 0; ///< fixed-rate samples the ring refused
  uint64_t fixed_decisions = 0; ///< decisions of the fixed (open-loop) phase
  uint64_t rejected = 0;       ///< refused stream pushes (each retried)
  std::vector<double> latency_ms;
  /// Fixed-phase latencies per kLatencyWindowS window of due time.
  std::vector<std::vector<double>> window_latency_ms;
  double sat_decisions_per_s = 0.0;
  double lag_p99_ms = 0.0;
  bool generator_behind = false;
  // Traced only.
  double drain_busy_s = 0.0;
  uint64_t drain_calls = 0;
  uint64_t samples_drained = 0;
  double route_busy_s = 0.0;      ///< drains that decided nothing
  uint64_t route_samples = 0;
  std::vector<double> drain_batch;
  std::vector<double> depth;
  std::vector<double> publish_ns;
  std::vector<double> decide_us;
  std::vector<double> compute_us;
  /// Decisions per scaler::ExplanationCode (shows up/down/hold all fire).
  std::vector<uint64_t> codes = std::vector<uint64_t>(256, 0);
  double stream_wall_s = 0.0;     ///< drainer wall over the decision phases
};

/// Runs the fixed and saturated phases on a built (warm) service.
PassResult RunPhases(const Setup& setup, Service* s, double fixed_s,
                     double sat_s, bool traced) {
  PassResult r;
  const StaggeredStream& stream = setup.stream;
  const uint64_t per = stream.per_interval;
  const double samples_per_s = kFixedDecisionsPerS * static_cast<double>(per);
  const uint64_t first = WarmItems(stream);
  const uint64_t fixed_end =
      first + static_cast<uint64_t>(samples_per_s * fixed_s);
  ingest::ScalerService& service = *s->service;
  const uint64_t drained_base = service.counters().drained;
  const uint64_t decisions_base = service.counters().decisions;
  // Set-up's pushes may have been refused too; count the stream's only.
  const uint64_t rejected_base = s->producer->rejected();

  std::vector<float> lag_ms;
  lag_ms.reserve(fixed_end - first);
  if (traced) r.publish_ns.reserve((fixed_end - first) / 8 + 1);
  std::atomic<bool> done{false};
  std::atomic<uint64_t> total{0};
  uint64_t fixed_rejected = 0;
  // Item k >= first is due at start + (k - first) / rate.
  const Schedule schedule{NowNs() + 1'000'000, samples_per_s};
  const auto due_ns = [&](uint64_t k) { return schedule.DueNs(k - first); };

  std::thread producer([&] {
    ingest::IngestProducer& p = *s->producer;
    uint64_t sat_end_ns = 0;
    uint64_t k = first;
    for (;; ++k) {
      const uint64_t slot = stream.Slot(k);
      const auto sample = MakeSample(setup.initial, setup.shapes[slot],
                                     stream.LocalIndex(k), per);
      const bool fixed = k < fixed_end;
      if (fixed) {
        // Sleep while well ahead of schedule (leaving the core to the
        // drainer and pool), then spin the last stretch to the due time.
        const uint64_t due = due_ns(k);
        for (uint64_t now = NowNs(); now < due; now = NowNs()) {
          if (due - now > 200'000) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(due - now - 150'000));
          }
        }
      } else {
        if (sat_end_ns == 0) {
          sat_end_ns = NowNs() + static_cast<uint64_t>(sat_s * 1e9);
        }
        if ((k & 255) == 0 && NowNs() >= sat_end_ns) break;
      }
      const uint64_t t0 = traced && (k & 7) == 0 ? NowNs() : 0;
      // A full ring refuses the push; retry it (never drop), backing off
      // so the retries do not contend with the drainer for the ring.
      bool refused = false;
      while (p.Publish(slot + 1, sample) == ingest::PublishOutcome::kRejected) {
        refused = true;
        std::this_thread::sleep_for(std::chrono::microseconds(50));
      }
      if (fixed && refused) ++fixed_rejected;
      if (fixed) {
        const uint64_t t1 = NowNs();
        lag_ms.push_back(static_cast<float>(DueLatencyMs(due_ns(k), t1)));
        if (t0 != 0) r.publish_ns.push_back(static_cast<double>(t1 - t0));
      }
    }
    total.store(k, std::memory_order_relaxed);
    done.store(true, std::memory_order_release);
  });

  uint64_t prev = first;
  // Saturated throughput is the median over kRateWindowS windows, so a
  // short stall of the machine moves one window, not the result.
  bool saturated = false;
  double window_t0 = 0.0;
  uint64_t window_d0 = 0;
  std::vector<double> window_rates;
  const double stream_t0 = NowSeconds();
  std::vector<uint64_t> due_slots;
  for (;;) {
    const double depth =
        traced ? static_cast<double>(s->ring.ApproxDepth()) : 0.0;
    const uint64_t sink_before = s->decision_ns.size();
    const uint64_t t0 = NowNs();
    const size_t n = service.DrainOnce();
    const uint64_t t1 = NowNs();
    if (n == 0) {
      if (done.load(std::memory_order_acquire) &&
          first + service.counters().drained - drained_base ==
              total.load(std::memory_order_relaxed)) {
        break;
      }
      continue;
    }
    const uint64_t cur = first + service.counters().drained - drained_base;
    uint64_t expected = 0;
    due_slots.clear();
    stream.ForEachCompletion(prev, cur, [&](uint64_t k) {
      ++expected;
      if (k < fixed_end) {
        const double ms = DueLatencyMs(due_ns(k), t1);
        r.latency_ms.push_back(ms);
        const size_t w = static_cast<size_t>(
            static_cast<double>(due_ns(k) - schedule.start_ns) / 1e9 /
            kLatencyWindowS);
        if (r.window_latency_ms.size() <= w) r.window_latency_ms.resize(w + 1);
        r.window_latency_ms[w].push_back(ms);
      }
      if (traced) due_slots.push_back(stream.Slot(k));
    });
    const uint64_t decided =
        service.counters().decisions - decisions_base - r.decisions;
    r.decisions += decided;
    r.missing += decided > expected ? decided - expected : expected - decided;
    const double now_s = static_cast<double>(t1) / 1e9;
    if (!saturated && cur >= fixed_end) {
      saturated = true;
      window_t0 = now_s;
      window_d0 = r.decisions;
    } else if (saturated && now_s - window_t0 >= kRateWindowS) {
      window_rates.push_back(static_cast<double>(r.decisions - window_d0) /
                             (now_s - window_t0));
      window_t0 = now_s;
      window_d0 = r.decisions;
    }
    prev = cur;
    if (!traced) continue;
    const double busy = static_cast<double>(t1 - t0) / 1e9;
    r.drain_busy_s += busy;
    ++r.drain_calls;
    r.samples_drained += n;
    r.drain_batch.push_back(static_cast<double>(n));
    r.depth.push_back(depth);
    if (decided == 0) {
      r.route_busy_s += busy;
      r.route_samples += n;
      continue;
    }
    // The service folds decisions in tenant order; pair each Compute+Decide
    // entry with its tenant's Decide time.
    std::sort(due_slots.begin(), due_slots.end());
    if (due_slots.size() != s->decision_ns.size() - sink_before) continue;
    for (size_t i = 0; i < due_slots.size(); ++i) {
      const uint64_t decide_ns = s->decide.last_ns[due_slots[i]];
      const uint64_t both_ns = s->decision_ns[sink_before + i];
      r.decide_us.push_back(static_cast<double>(decide_ns) / 1e3);
      r.compute_us.push_back(
          static_cast<double>(both_ns > decide_ns ? both_ns - decide_ns : 0) /
          1e3);
      ++r.codes[s->decide.last_code[due_slots[i]]];
    }
  }
  producer.join();
  r.stream_wall_s = NowSeconds() - stream_t0;
  r.stream_total = total.load();
  r.fixed_rejected = fixed_rejected;
  r.rejected = s->producer->rejected() - rejected_base;
  r.fixed_decisions = r.latency_ms.size();
  r.sat_decisions_per_s = Median(window_rates);
  std::vector<double> lag(lag_ms.begin(), lag_ms.end());
  r.lag_p99_ms = NearestRank(std::move(lag), 0.99).value;
  r.generator_behind = r.lag_p99_ms > kBehindLagMs && fixed_rejected == 0;
  return r;
}

/// Runs the phases on `*s`. While the generator falls behind its schedule
/// (the pass then measures the generator, not the service) and passes
/// remain, the pass is discarded and the phases run again on a service
/// from `build()`, which replaces `*s`. Returns the kept pass; only the
/// last possible pass can come back behind.
template <typename Build>
std::optional<PassResult> RunKeptPass(const Setup& setup,
                                      std::unique_ptr<Service>* s,
                                      Build&& build, double fixed_s,
                                      double sat_s, bool traced) {
  for (int pass = 1;; ++pass) {
    PassResult r = RunPhases(setup, s->get(), fixed_s, sat_s, traced);
    if (!r.generator_behind || pass == kMaxPasses) return r;
    std::printf("service: generator behind schedule in pass %d (lag p99 "
                "%.2f ms with no ring pushback): pass discarded, running it "
                "again on a new service\n",
                pass, r.lag_p99_ms);
    s->reset();  // before the rebuild, so peak RSS holds one service
    *s = build();
    if (*s == nullptr) return std::nullopt;
  }
}

// ---------------------------------------------------------------------------
// Correctness: the ring+batch path against the OfferDirect reference
// ---------------------------------------------------------------------------

/// Feeds every selected tenant's exact sample sequence (offsets + its
/// share of `total` stream items) through OfferDirect on a serial service
/// and returns each tenant's (interval index, decision digest).
struct TenantResult {
  uint64_t slot = 0;
  int intervals = 0;
  uint64_t digest = 0;
};

std::vector<TenantResult> ReferenceDigests(const Setup& setup,
                                           const std::vector<uint64_t>& slots,
                                           uint64_t total) {
  ingest::ScalerService service(nullptr, ServiceOptions());
  for (uint64_t j : slots) {
    std::unique_ptr<scaler::ScalingPolicy> policy = MakePolicy(setup);
    if (policy == nullptr ||
        !service.AddTenant(j + 1, std::move(policy), setup.initial).ok()) {
      return {};
    }
  }
  uint64_t seq = 0;
  const uint64_t per = setup.stream.per_interval;
  for (uint64_t j : slots) {
    const uint64_t held = setup.stream.SamplesHeld(j, total);
    for (uint64_t i = 0; i < held; ++i) {
      ingest::WireSample w = ingest::MakeWireSample(
          j + 1, MakeSample(setup.initial, setup.shapes[j], i, per));
      w.producer_seq = seq++;
      service.OfferDirect(w);
    }
  }
  std::vector<TenantResult> out;
  for (uint64_t j : slots) {
    out.push_back(
        {j, service.IntervalIndex(j + 1), service.TenantDigest(j + 1)});
  }
  return out;
}

/// Gate: the selected tenants' decision streams equal the reference. With
/// `all`, every tenant is checked (sharded over `threads` reference
/// services) and the full tenant-order Digest() is recomputed from them.
void CheckAgainstReference(const Setup& setup, const Service& s,
                           uint64_t total, uint64_t seed, bool all,
                           int threads, Outcome* out) {
  std::vector<uint64_t> slots;
  const uint64_t stride = all ? 1 : kGateStride;
  for (uint64_t j = all ? 0 : seed % kGateStride; j < kTenants; j += stride) {
    slots.push_back(j);
  }
  const size_t shards = static_cast<size_t>(std::max(1, all ? threads : 1));
  std::vector<std::vector<uint64_t>> shard_slots(shards);
  for (size_t i = 0; i < slots.size(); ++i) {
    shard_slots[i % shards].push_back(slots[i]);
  }
  std::vector<std::vector<TenantResult>> results(shards);
  std::vector<std::thread> workers;
  for (size_t i = 1; i < shards; ++i) {
    workers.emplace_back([&, i] {
      results[i] = ReferenceDigests(setup, shard_slots[i], total);
    });
  }
  results[0] = ReferenceDigests(setup, shard_slots[0], total);
  for (std::thread& w : workers) w.join();

  std::vector<TenantResult> merged;
  for (const auto& r : results) merged.insert(merged.end(), r.begin(), r.end());
  if (merged.size() != slots.size()) {
    out->Fail("service: reference run could not be built");
    return;
  }
  std::sort(merged.begin(), merged.end(),
            [](const TenantResult& a, const TenantResult& b) {
              return a.slot < b.slot;
            });
  uint64_t mismatches = 0;
  dbscale::Fnv64Stream digest;
  for (const TenantResult& t : merged) {
    if (s.service->IntervalIndex(t.slot + 1) != t.intervals ||
        s.service->TenantDigest(t.slot + 1) != t.digest) {
      ++mismatches;
    }
    digest.U64(t.slot + 1);
    digest.U64(static_cast<uint64_t>(t.intervals));
    digest.U64(t.digest);
  }
  if (mismatches != 0) {
    out->Fail(Format("service: %llu of %zu tenants decided differently from "
                     "the direct-feed reference",
                     static_cast<unsigned long long>(mismatches),
                     merged.size()));
  }
  if (all && digest.value != s.service->Digest()) {
    out->Fail(Format("service: Digest() %016llx, reference %016llx",
                     static_cast<unsigned long long>(s.service->Digest()),
                     static_cast<unsigned long long>(digest.value)));
  }
  std::printf("service: %zu tenants checked against the direct-feed "
              "reference%s\n",
              merged.size(), all ? " (full Digest() too)" : "");
}

/// Per-pass gates and failure accounting.
void CheckPass(const PassResult& r, const Service& s, Outcome* out) {
  const auto& c = s.service->counters();
  if (c.invalid != 0 || c.unknown_tenant != 0 || c.unknown_producer != 0 ||
      c.seq_violations != 0 || c.out_of_order != 0) {
    out->Fail("service: ingestion counters report rejected samples");
  }
  if (r.missing != 0) {
    out->Fail(Format("service: %llu decisions missing or unexpected",
                     static_cast<unsigned long long>(r.missing)));
  }
  out->attempted += r.decisions + r.missing;
  out->failed += r.missing + r.fixed_rejected;
  if (r.generator_behind) {
    // Every pass fell behind (RunKeptPass): the fixed phase's latencies
    // measure the generator, not the service, so its decisions count as
    // failed and the run is not compared.
    out->failed += r.fixed_decisions;
    std::printf("service: FLAG generator behind schedule in all %d passes "
                "(lag p99 %.2f ms with no ring pushback): the %llu "
                "fixed-phase decisions count as failed\n",
                kMaxPasses,
                r.lag_p99_ms,
                static_cast<unsigned long long>(r.fixed_decisions));
  }
  out->failed = std::min(out->failed, out->attempted);
}

Setup MakeSetup(uint64_t seed) {
  Setup setup;
  setup.initial = setup.catalog.rung(4);
  setup.shapes = MakeShapes(seed);
  setup.stream.tenants = kTenants;
  setup.stream.per_interval = ServiceOptions().samples_per_interval;
  return setup;
}

}  // namespace

Outcome RunService(const RunArgs& args) {
  Outcome out;
  // The open-loop phase gets the larger share: its p99 needs the samples.
  const double fixed_s = args.seconds * 0.75;
  const double sat_s = args.seconds * 0.25;
  std::printf("service: %llu AutoScaler tenants, %zu samples/interval, "
              "fixed rate %.0f decisions/s, seed %llu, %d threads "
              "(producer + drainer pool of %d)\n",
              static_cast<unsigned long long>(kTenants),
              ServiceOptions().samples_per_interval, kFixedDecisionsPerS,
              static_cast<unsigned long long>(args.seed), args.threads,
              args.threads - 1);

  if (!args.trace) {
    std::unique_ptr<Service> s;
    Setup setup;
    const double setup_s = TimeSetup(3, [&] {
      s.reset();
      setup = MakeSetup(args.seed);
      s = BuildService(setup, args.threads, false, nullptr);
      return s != nullptr;
    });
    if (setup_s < 0.0) {
      out.Fail("service: set-up failed");
      return out;
    }
    const std::optional<PassResult> kept = RunKeptPass(
        setup, &s,
        [&] { return BuildService(setup, args.threads, false, nullptr); },
        fixed_s, sat_s, false);
    if (!kept) {
      out.Fail("service: set-up failed");
      return out;
    }
    const PassResult& r = *kept;
    CheckPass(r, *s, &out);
    CheckAgainstReference(setup, *s, r.stream_total, args.seed, false,
                          args.threads, &out);
    if (!out.correct) out.failed = out.attempted;
    // p50: median over due-time windows of each window's p50, robust to a
    // window the machine slowed. p99: pooled over the less disturbed half
    // of the windows (the ceil(n/2) with the lowest p50), so a burst of
    // disturbance in a few windows does not become the tail.
    std::vector<size_t> windows;
    std::vector<double> window_p50;
    for (size_t w = 0; w < r.window_latency_ms.size(); ++w) {
      if (r.window_latency_ms[w].empty()) continue;
      windows.push_back(w);
      window_p50.push_back(NearestRank(r.window_latency_ms[w], 0.50).value);
    }
    std::vector<size_t> by_p50(windows.size());
    for (size_t i = 0; i < by_p50.size(); ++i) by_p50[i] = i;
    std::sort(by_p50.begin(), by_p50.end(), [&](size_t a, size_t b) {
      return window_p50[a] < window_p50[b];
    });
    std::vector<double> calm_ms;
    for (size_t i = 0; i < (by_p50.size() + 1) / 2; ++i) {
      const auto& w = r.window_latency_ms[windows[by_p50[i]]];
      calm_ms.insert(calm_ms.end(), w.begin(), w.end());
    }
    const double p50 = Median(window_p50);
    const Percentile p99 = NearestRank(calm_ms, 0.99);
    std::printf("service: %llu decisions; fixed phase p50 %.3f ms (median of "
                "%zu %.0f s windows), p99 %.3f ms (%zu decisions of the "
                "%zu calmer windows, %zu beyond p99; pooled p99 %.3f ms); "
                "saturated %.0f decisions/s; generator lag p99 %.3f ms; "
                "%llu rejected pushes retried\n",
                static_cast<unsigned long long>(r.decisions), p50,
                window_p50.size(), kLatencyWindowS,
                p99.value, p99.count, (by_p50.size() + 1) / 2, p99.beyond,
                NearestRank(r.latency_ms, 0.99).value, r.sat_decisions_per_s,
                r.lag_p99_ms, static_cast<unsigned long long>(r.rejected));
    const double interval_s =
        static_cast<double>(setup.stream.per_interval) * kPeriodUs / 1e6;
    out.Add("setup_s", setup_s, "s");
    out.Add("sim_s_per_wall_s", r.sat_decisions_per_s * interval_s, "sim-s/s");
    // A tenant-day is 288 five-minute intervals.
    out.Add("tenants_per_s", r.sat_decisions_per_s / 288.0, "tenants/s");
    out.Add("decisions_per_s", r.sat_decisions_per_s, "1/s");
    out.Add("decision_p50_ms", p50, "ms");
    out.Add("decision_p99_ms", p99.value, "ms");
    out.Add("peak_rss_mb", PeakRssMb(), "MB");
    return out;
  }

  // Traced: an untraced pass, a pass with the observability bundle
  // attached, then the traced pass (Decide decorator, service timer,
  // drain/publish timing, ring depth), which is checked against the full
  // direct-feed reference. Each pass builds its own service.
  const Setup setup = MakeSetup(args.seed);
  const auto pass = [&](bool traced, dbscale::obs::Observability* ob) {
    const auto build = [&] {
      return BuildService(setup, args.threads, traced, ob);
    };
    std::unique_ptr<Service> s = build();
    std::optional<PassResult> r;
    if (s != nullptr) r = RunKeptPass(setup, &s, build, fixed_s, sat_s, traced);
    if (!r) {
      out.Fail("service: set-up failed");
      return r;
    }
    CheckPass(*r, *s, &out);
    if (traced) {
      CheckAgainstReference(setup, *s, r->stream_total, args.seed, true,
                            args.threads, &out);
    }
    return r;
  };
  const std::optional<PassResult> plain = pass(false, nullptr);
  dbscale::obs::Observability ob;
  const std::optional<PassResult> observed = pass(false, &ob);
  const std::optional<PassResult> traced = pass(true, nullptr);
  if (!plain || !observed || !traced) return out;
  if (!out.correct) out.failed = out.attempted;
  const PassResult& r = *traced;
  const double plain_rate = plain->sat_decisions_per_s;
  const double observed_rate = observed->sat_decisions_per_s;

  double decide_s = 0.0;
  for (double us : r.decide_us) decide_s += us / 1e6;
  double compute_s = 0.0;
  for (double us : r.compute_us) compute_s += us / 1e6;
  const double route_ns = r.route_samples > 0
                              ? r.route_busy_s * 1e9 /
                                    static_cast<double>(r.route_samples)
                              : 0.0;
  const Percentile decide_p99 = NearestRank(r.decide_us, 0.99);
  out.Add("failed_frac",
          static_cast<double>(out.failed) / static_cast<double>(out.attempted),
          "ratio");
  out.Add("trace.overhead_pct",
          100.0 * (plain_rate / r.sat_decisions_per_s - 1.0), "%");
  out.Add("scaler.decide_calls", static_cast<double>(r.decide_us.size()),
          "count");
  out.Add("scaler.decide_us_p50", NearestRank(r.decide_us, 0.50).value, "us");
  out.Add("scaler.decide_us_p99", decide_p99.value, "us");
  out.Add("scaler.decide_s", decide_s, "s");
  out.Add("telemetry.compute_us_p50", NearestRank(r.compute_us, 0.50).value,
          "us");
  out.Add("telemetry.compute_s", compute_s, "s");
  out.Add("ingest.drain_calls", static_cast<double>(r.drain_calls), "count");
  out.Add("ingest.drain_busy_s", r.drain_busy_s, "s");
  out.Add("ingest.drain_batch_p50", NearestRank(r.drain_batch, 0.50).value,
          "samples");
  out.Add("ingest.route_ns_per_sample", route_ns, "ns");
  out.Add("ingest.publish_ns_p50", NearestRank(r.publish_ns, 0.50).value, "ns");
  out.Add("ingest.ring_depth_p99", NearestRank(r.depth, 0.99).value,
          "samples");
  out.Add("ingest.generator_lag_ms_p99", r.lag_p99_ms, "ms");
  out.Add("ingest.generator_behind", r.generator_behind ? 1.0 : 0.0, "flag");
  out.Add("ingest.rejected", static_cast<double>(r.rejected), "count");
  out.Add("obs.overhead_pct", 100.0 * (plain_rate / observed_rate - 1.0), "%");
  std::printf("service traced: %.0f decisions/s traced vs %.0f untraced, "
              "%.0f with obs; decide p99 %.1f us over %zu calls (%zu beyond)\n",
              r.sat_decisions_per_s, plain_rate, observed_rate,
              decide_p99.value, decide_p99.count, decide_p99.beyond);
  std::string codes;
  for (size_t c = 0; c < r.codes.size(); ++c) {
    if (r.codes[c] == 0) continue;
    codes += Format(" %s=%llu",
                    scaler::ExplanationCodeToken(
                        static_cast<scaler::ExplanationCode>(c)),
                    static_cast<unsigned long long>(r.codes[c]));
  }
  std::printf("service traced: decision codes:%s\n", codes.c_str());
  // Shares of the drainer thread's wall time over the stream phases:
  // routing at the decision-free drains' per-sample cost, the rest of the
  // deciding drains split between Compute and Decide by their thread time.
  const double route_s =
      r.route_busy_s + route_ns * 1e-9 *
                           static_cast<double>(r.samples_drained -
                                               r.route_samples);
  const double eval_s = std::max(0.0, r.drain_busy_s - route_s);
  const double both = compute_s + decide_s;
  AddLayerShares({{"ingest", route_s},
                  {"telemetry", both > 0.0 ? eval_s * compute_s / both : 0.0},
                  {"scaler", both > 0.0 ? eval_s * decide_s / both : 0.0}},
                 r.stream_wall_s, &out);
  return out;
}

}  // namespace perfbench
