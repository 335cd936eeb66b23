// Tests of the benchmark's own helpers. run.py runs this binary before
// every workload; it prints the failures and exits non-zero on any.
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "report.h"
#include "trace.h"
#include "util/options.h"

namespace {

int g_failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    std::printf("selftest FAILED: %s\n", what);
    g_failures++;
  }
}

perfbench::Span MakeSpan(uint64_t start, uint64_t end, int64_t parent) {
  perfbench::Span s;
  s.start_ns = start;
  s.end_ns = end;
  s.parent = parent;
  return s;
}

void TestTailPercentile() {
  using perfbench::TailPercentile;
  // p99 of 1000 samples leaves exactly 10 beyond it.
  Check(TailPercentile(1000, {99, 90}) == 99, "1000 samples pick p99");
  Check(TailPercentile(999, {99, 90}) == 90, "999 samples fall back to p90");
  Check(TailPercentile(100, {90, 99}) == 90, "candidate order is irrelevant");
  Check(TailPercentile(100000, {99.9, 99, 90}) == 99.9, "p99.9 at 100k");
  Check(TailPercentile(5, {90}) == 100, "too few samples report the max");
  Check(TailPercentile(1000, {99}, 11) == 100, "min_beyond is honoured");
}

void TestPercentile() {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(101 - i);  // unsorted input
  Check(perfbench::Percentile(v, 50) == 50, "nearest-rank median");
  Check(perfbench::Percentile(v, 99) == 99, "nearest-rank p99");
  Check(perfbench::Percentile(v, 100) == 100, "p100 is the max");
  Check(perfbench::Percentile({}, 50) == 0, "empty set reads 0");
  Check(perfbench::Median({3, 1, 2}) == 2, "odd-sized median");
}

void TestSelfTimes() {
  // root [0,100) with children [10,30) and [20,50) that overlap, plus a
  // grandchild [12,18) inside the first child, and a child [90,120) that
  // runs past its parent's end.
  std::vector<perfbench::Span> s = {
      MakeSpan(0, 100, -1), MakeSpan(10, 30, 0), MakeSpan(12, 18, 1),
      MakeSpan(20, 50, 0), MakeSpan(90, 120, 0), MakeSpan(200, 210, -1)};
  std::vector<uint64_t> self = perfbench::SelfTimes(s);
  // Covered by children: [10,50) = 40 and [90,100) = 10.
  Check(self[0] == 50, "overlapping children are subtracted once");
  Check(self[1] == 14, "nested grandchild leaves 20 - 6");
  Check(self[2] == 6, "leaf span keeps its whole duration");
  Check(self[3] == 30, "overlap does not reduce a sibling's self time");
  Check(self[4] == 30, "span past its parent keeps its own duration");
  Check(self[5] == 10, "second root is independent");
}

void TestSpanRecorderNesting() {
  perfbench::SpanRecorder rec;
  perfbench::SpanBuffer* buf = rec.Buffer();
  {
    perfbench::ScopedSpan off(buf, "ignored");
  }
  Check(buf->spans().empty(), "a disabled buffer records nothing");
  buf->set_enabled(true);
  {
    perfbench::ScopedSpan outer(buf, "outer", 7);
    perfbench::ScopedSpan inner(buf, "inner", 7);
  }
  const auto& spans = buf->spans();
  Check(spans.size() == 2, "two spans recorded");
  if (spans.size() == 2) {
    Check(spans[0].parent == -1 && spans[1].parent == 0, "inner nests");
    Check(spans[1].request == 7, "request id kept");
    Check(spans[0].start_ns <= spans[1].start_ns &&
              spans[1].end_ns <= spans[0].end_ns,
          "inner lies within outer");
  }
  auto sums = perfbench::Summarize(rec);
  Check(sums["outer"].count == 1 && sums["inner"].count == 1, "summary");
}

void TestSlownessAround() {
  // Samples recorded by hand, not run: one per second, at 1, 2, ... 6
  // times the nominal time.
  constexpr uint64_t kSec = 1'000'000'000;
  const double nominal = perfbench::MachineSpeed::kNominalMs;
  perfbench::MachineSpeed speed;
  Check(speed.SlownessAround(0, kSec) == 1.0, "no samples read 1");
  for (int i = 1; i <= 6; ++i) speed.Record(uint64_t(i) * kSec, i * nominal);
  // [2.5 s, 3.5 s] widened by the 1 s margin holds the samples at 2, 3, 4.
  Check(speed.SlownessAround(5 * kSec / 2, 7 * kSec / 2) == 3.0,
        "median of the samples around an interval");
  Check(speed.SlownessAround(20 * kSec, 21 * kSec) == 6.0,
        "the nearest sample when none is close");
  Check(speed.Slowness() == 3.0, "lower median over every sample");
}

void TestPerRound() {
  // Round one (t = 1 s) ran at twice the nominal time, round two (t = 5 s)
  // at the nominal time; a value after the last round is left out.
  constexpr uint64_t kSec = 1'000'000'000;
  const double nominal = perfbench::MachineSpeed::kNominalMs;
  perfbench::MachineSpeed speed;
  speed.Record(1 * kSec, 2 * nominal);
  speed.Record(5 * kSec, nominal);
  perfbench::PerRound p;
  p.Add(10);
  p.Add(20);
  p.EndRound(1 * kSec, 1 * kSec);
  p.Add(30);
  p.EndRound(5 * kSec, 5 * kSec);
  p.Add(40);
  std::vector<double> scaled = p.Scaled(speed);
  Check(scaled == std::vector<double>({5, 10, 30}),
        "values scaled by their own round's slowness");
  Check(p.raw().size() == 4 && p.raw()[3] == 40, "raw values kept");
}

void TestSortBound() {
  // sort-wide: 128 MiB of 128-byte records, 4 KiB blocks, M = 8 MiB.
  // 32768 blocks, 16 runs, fan-in 2047: one merge pass, so the bound is
  // 2 * 32768 * 2 block I/Os.
  vem::Options o;
  o.block_size = 4096;
  o.memory_budget = 8u << 20;
  double n = double((128u << 20) / sizeof(vem::bench::WideRec));
  double bound = vem::bench::SortBound(
      n, double(o.items_per_block<vem::bench::WideRec>()),
      double(o.items_in_memory<vem::bench::WideRec>()));
  Check(bound == 131072.0, "SortBound at sort-wide's N/M is 131072");
}

}  // namespace

int main() {
  TestTailPercentile();
  TestPercentile();
  TestSelfTimes();
  TestSpanRecorderNesting();
  TestSlownessAround();
  TestPerRound();
  TestSortBound();
  if (g_failures == 0) std::printf("selftest: all checks passed\n");
  return g_failures == 0 ? 0 : 1;
}
