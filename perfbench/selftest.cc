// Self-test of the benchmark's own arithmetic: the percentile rule and
// its sample counts, due-time latency on a synthetic open-loop run with a
// generator stall, the staggered stream's completion enumeration, the
// fixed repetition count, and the shape of the result line. Run with `perfbench --selftest` (or
// `python3 perfbench/run.py --selftest`).

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "perfbench/bench_util.h"
#include "perfbench/workloads.h"

namespace perfbench {
namespace {

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1000; i >= 1; --i) v.push_back(i);  // unsorted input
  const Percentile p99 = NearestRank(v, 0.99);
  Expect(p99.value == 990 && p99.count == 1000 && p99.beyond == 10,
         "p99 of 1..1000 is 990 with 10 samples beyond it");
  const Percentile p50 = NearestRank(v, 0.50);
  Expect(p50.value == 500 && p50.beyond == 500, "p50 of 1..1000 is 500");
  Expect(NearestRank(v, 1.0).value == 1000 && NearestRank(v, 1.0).beyond == 0,
         "p100 is the maximum with nothing beyond");
  const Percentile small = NearestRank({3.0, 1.0, 2.0}, 0.99);
  Expect(small.value == 3.0 && small.beyond == 0,
         "p99 of 3 samples is the maximum, 0 beyond (tail not backed)");
  Expect(NearestRank({}, 0.5).count == 0, "empty input reports count 0");
  Expect(Median({4.0, 1.0, 3.0, 2.0}) == 2.0,
         "median of an even count is the lower middle (nearest rank)");
  std::vector<double> n999(999, 1.0);
  Expect(NearestRank(n999, 0.99).beyond == 9,
         "999 samples leave only 9 beyond p99");
}

void TestDueLatency() {
  // 1000 items/s from t = 1 ms: item k is due at 1 ms + k ms.
  const Schedule s{1'000'000, 1000.0};
  Expect(s.DueNs(0) == 1'000'000 && s.DueNs(5) == 6'000'000,
         "schedule: item 5 is due 5 ms after item 0");
  // Synthetic run: the server answers 0.5 ms after an item is sent, and
  // the generator stalls for 20 ms before item 10, then sends the backlog
  // back to back (0.1 ms apart) until it is on schedule again.
  std::vector<double> due_ms;
  std::vector<double> sent_ms;
  uint64_t sent = 0;
  for (uint64_t k = 0; k < 40; ++k) {
    const uint64_t due = s.DueNs(k);
    if (k < 10) {
      sent = due;
    } else if (k == 10) {
      sent = due + 20'000'000;
    } else {
      sent = std::max<uint64_t>(sent + 100'000, due);
    }
    const uint64_t emitted = sent + 500'000;
    due_ms.push_back(DueLatencyMs(due, emitted));
    sent_ms.push_back(DueLatencyMs(sent, emitted));
  }
  Expect(Near(due_ms[9], 0.5), "before the stall: latency 0.5 ms");
  Expect(Near(due_ms[10], 20.5), "the stalled item waits 20 ms + service");
  Expect(Near(due_ms[15], 16.0),
         "later items still carry the stall in due-time latency");
  Expect(Near(sent_ms[15], 0.5),
         "latency from send time hides the stall (coordinated omission)");
  Expect(Near(due_ms[39], 0.5), "after catching up: latency 0.5 ms again");
  Expect(DueLatencyMs(10, 5) == 0.0, "emitted before due reads 0");
}

void TestStream() {
  const StaggeredStream st{10, 4};
  bool enumerate_ok = true;
  for (uint64_t a = 0; a < 60; ++a) {
    for (uint64_t b = a; b < 60; ++b) {
      std::vector<uint64_t> got;
      st.ForEachCompletion(a, b, [&](uint64_t k) { got.push_back(k); });
      std::vector<uint64_t> want;
      for (uint64_t k = a; k < b; ++k) {
        if (st.Completes(k)) want.push_back(k);
      }
      enumerate_ok = enumerate_ok && got == want;
    }
  }
  Expect(enumerate_ok, "ForEachCompletion matches a brute-force scan");
  uint64_t per_round_min = 99;
  uint64_t per_round_max = 0;
  for (uint64_t r = 0; r < 8; ++r) {
    uint64_t n = 0;
    st.ForEachCompletion(r * 10, (r + 1) * 10, [&](uint64_t) { ++n; });
    per_round_min = std::min(per_round_min, n);
    per_round_max = std::max(per_round_max, n);
  }
  Expect(per_round_min >= 2 && per_round_max <= 3,
         "staggering spreads 10 tenants / 4 per interval over every round");
  uint64_t once = 0;
  st.ForEachCompletion(0, 40, [&](uint64_t) { ++once; });
  Expect(once == 10, "one interval of rounds decides every tenant once");
  // Slot 3 starts with 3 samples; 25 stream items give it items 3, 13, 23.
  Expect(st.SamplesHeld(3, 25) == 6 && st.SamplesHeld(7, 25) == 5,
         "SamplesHeld counts offsets plus the slot's stream items");
}

void TestResultLine() {
  Outcome o;
  o.attempted = 3;
  o.Add("latency_ms", 1.25, "ms");
  o.Add("setup_s", 0.5, "s");
  Expect(ResultJson(o) ==
             "{\"correct\": true, \"attempted\": 3, \"failed\": 0, "
             "\"metrics\": {\"latency_ms\": {\"value\": 1.25, \"unit\": "
             "\"ms\"}, \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}",
         "result line has exactly correct/attempted/failed/metrics");
}

void TestFixedReps() {
  Expect(FixedReps(20.0, 2.5, 3) == 8, "20 s at 2.5 s per run is 8 runs");
  Expect(FixedReps(20.0, 3.2, 3) == 6, "20 s at 3.2 s per run is 6 runs");
  Expect(FixedReps(1.0, 2.5, 3) == 3, "a short run still repeats 3 times");
}

}  // namespace

int RunSelfTest() {
  TestPercentile();
  TestDueLatency();
  TestStream();
  TestFixedReps();
  TestResultLine();
  std::printf("selftest: %d failure(s)\n", failures);
  return failures;
}

}  // namespace perfbench
