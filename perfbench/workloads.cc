// The four workloads. Each builds its inputs from the seed (timed as
// setup_s, repeated kSetupReps times), then runs closed-loop rounds
// against the library's public API until the run's seconds are spent,
// checking every result. Round 0 is the same work in every run of one
// seed, so the logical counts taken over it must repeat exactly.
//
// In the traced run even rounds stay untraced and odd rounds record
// spans; the difference between the two round times is
// trace.overhead_share. The single-client workloads sample the machine
// speed reference between rounds, outside the timed part.
#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <functional>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/ext_vector.h"
#include "io/file_block_device.h"
#include "io/io_engine.h"
#include "io/memory_arbiter.h"
#include "report.h"
#include "search/bplus_tree.h"
#include "serve/admission.h"
#include "serve/execution_context.h"
#include "sort/external_sort.h"
#include "util/options.h"
#include "util/random.h"
#include "wal/durable_block_device.h"

namespace perfbench {
namespace {

using vem::BlockDevice;
using vem::BPlusTree;
using vem::ExecutionContext;
using vem::ExternalSorter;
using vem::ExtVector;
using vem::FileBlockDevice;
using vem::IoEngine;
using vem::IoProbe;
using vem::IoStats;
using vem::Options;
using vem::Rng;
using vem::Status;
using vem::bench::WideRec;

constexpr int kSetupReps = 11;
constexpr size_t kBlock = 4096;
constexpr size_t kMiB = 1u << 20;

uint64_t Mix64(uint64_t x) {
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  x *= 0x94D049BB133111EBull;
  return x ^ (x >> 31);
}

double Seconds(uint64_t from_ns, uint64_t to_ns) {
  return double(to_ns - from_ns) * 1e-9;
}

void PrintOptions(const char* what, const Options& o) {
  std::printf(
      "# options %s: block_size=%zu memory_budget=%zu prefetch_depth=%zu "
      "io_threads=%zu io_backend=%s enable_wal=%d direct_io=%d\n",
      what, o.block_size, o.memory_budget, o.prefetch_depth, o.io_threads,
      o.io_backend == vem::IoBackend::kIoUring ? "io_uring" : "worker_pool",
      int(o.enable_wal), int(o.direct_io));
}

/// Order-independent digest of a key multiset: equal digests before and
/// after a sort mean no key was lost, duplicated or altered.
struct KeyDigest {
  uint64_t count = 0, sum = 0, mix = 0;
  void Add(uint64_t k) {
    count++;
    sum += k;
    mix ^= Mix64(k);
  }
  bool operator==(const KeyDigest&) const = default;
};

WideRec MakeRec(uint64_t key) {
  WideRec r;
  r.key = key;
  uint64_t tag = Mix64(key);
  std::memcpy(r.payload, &tag, sizeof(tag));
  std::memset(r.payload + sizeof(tag), int(key & 0xff),
              sizeof(r.payload) - sizeof(tag));
  return r;
}

Status WriteRecords(ExtVector<WideRec>* v, uint64_t seed, size_t n,
                    KeyDigest* digest) {
  Rng rng(seed);
  ExtVector<WideRec>::Writer w(v);
  for (size_t i = 0; i < n; ++i) {
    WideRec r = MakeRec(rng.Next());
    digest->Add(r.key);
    if (!w.Append(r)) return w.status();
  }
  return w.Finish();
}

/// Sort output check: keys in order, payloads intact, same key digest as
/// the input. Returns an empty string when the output is right.
std::string CheckSorted(const ExtVector<WideRec>& out, const KeyDigest& want,
                        int depth) {
  ExtVector<WideRec>::Reader r(&out, 0, depth);
  KeyDigest got;
  WideRec rec;
  uint64_t prev = 0;
  while (r.Next(&rec)) {
    if (got.count > 0 && rec.key < prev) return "sort output out of order";
    uint64_t tag;
    std::memcpy(&tag, rec.payload, sizeof(tag));
    if (tag != Mix64(rec.key)) return "sort output payload corrupted";
    prev = rec.key;
    got.Add(rec.key);
  }
  if (!r.status().ok()) return "sort output read: " + r.status().ToString();
  if (!(got == want)) return "sort output key checksum differs from input";
  return "";
}

void Accumulate(IoStats* sum, const IoStats& d) {
  sum->block_reads += d.block_reads;
  sum->block_writes += d.block_writes;
  sum->parallel_reads += d.parallel_reads;
  sum->parallel_writes += d.parallel_writes;
}

/// Counted block I/Os of one device over one region.
void SetBlockDeviceMetrics(const IoStats& io, Report* rep, bool exact) {
  rep->Set("io.block_device.block_reads", double(io.block_reads));
  rep->Set("io.block_device.block_writes", double(io.block_writes));
  rep->Set("io.block_device.parallel_ios", double(io.parallel_ios()));
  if (exact) {
    rep->Exact("io.block_device.block_reads", double(io.block_reads));
    rep->Exact("io.block_device.block_writes", double(io.block_writes));
    rep->Exact("io.block_device.parallel_ios", double(io.parallel_ios()));
  }
}

void SetSortMetrics(const ExternalSorter<WideRec>::Metrics& m, Report* rep,
                    bool exact) {
  rep->Set("sort.initial_runs", double(m.initial_runs));
  rep->Set("sort.merge_passes", double(m.merge_passes));
  rep->Set("sort.fan_in", double(m.fan_in));
  if (exact) {
    rep->Exact("sort.initial_runs", double(m.initial_runs));
    rep->Exact("sort.merge_passes", double(m.merge_passes));
    rep->Exact("sort.fan_in", double(m.fan_in));
  }
}

/// Governor counters, summed over every context a workload built.
struct GovernorTotals {
  double arms_granted = 0, arms_refused = 0, grows = 0, disarms = 0;
  double stall_ewma_sum = 0, waste_ewma_sum = 0;
  size_t governors = 0;

  void Add(const vem::PrefetchGovernor& g) {
    arms_granted += double(g.arms_granted());
    arms_refused += double(g.arms_refused());
    grows += double(g.grow_decisions());
    disarms += double(g.disarm_decisions());
    stall_ewma_sum += g.stall_ewma();
    waste_ewma_sum += g.waste_ewma();
    governors++;
  }
  void Merge(const GovernorTotals& o) {
    arms_granted += o.arms_granted;
    arms_refused += o.arms_refused;
    grows += o.grows;
    disarms += o.disarms;
    stall_ewma_sum += o.stall_ewma_sum;
    waste_ewma_sum += o.waste_ewma_sum;
    governors += o.governors;
  }
  void Set(Report* rep) const {
    rep->Set("io.prefetch_governor.arms_granted", arms_granted);
    rep->Set("io.prefetch_governor.arms_refused", arms_refused);
    rep->Set("io.prefetch_governor.grow_decisions", grows);
    rep->Set("io.prefetch_governor.disarm_decisions", disarms);
    // EWMAs are averaged, not summed, over the contexts.
    double n = governors ? double(governors) : 1.0;
    rep->Set("io.prefetch_governor.stall_ewma", stall_ewma_sum / n);
    rep->Set("io.prefetch_governor.waste_ewma", waste_ewma_sum / n);
  }
};

void SetArbiterMetrics(const vem::MemoryArbiter& a, Report* rep) {
  rep->Set("io.memory_arbiter.pool_grows", double(a.pool_grows()));
  rep->Set("io.memory_arbiter.pool_sheds", double(a.pool_sheds()));
  rep->Set("io.memory_arbiter.staging_grows", double(a.staging_grows()));
  rep->Set("io.memory_arbiter.staging_sheds", double(a.staging_sheds()));
  rep->Set("io.memory_arbiter.denied_grows", double(a.denied_grows()));
}

/// Samples the IoEngine's queue and worker gauges every millisecond
/// from its own thread while the measured phase of a traced run lasts;
/// the gauges move too fast for span boundaries to catch them.
class EngineSampler {
 public:
  EngineSampler(const IoEngine* engine, bool on) : engine_(engine) {
    if (on) thread_ = std::thread([this] { Loop(); });
  }
  ~EngineSampler() { Stop(); }
  EngineSampler(const EngineSampler&) = delete;
  EngineSampler& operator=(const EngineSampler&) = delete;

  void Stop() {
    stop_ = true;
    if (thread_.joinable()) thread_.join();
  }

  /// Call after Stop().
  void Set(Report* rep) const {
    double d = samples_ ? double(samples_) : 1.0;
    rep->Set("io.io_engine.queued_jobs_mean", double(queued_) / d);
    rep->Set("io.io_engine.busy_workers_mean", double(busy_) / d);
    rep->Set("io.io_engine.timeouts", double(engine_->timeouts()));
  }

 private:
  void Loop() {
    while (!stop_) {
      queued_ += engine_->queued_jobs();
      busy_ += engine_->busy_workers();
      samples_++;
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }

  const IoEngine* engine_;
  std::atomic<bool> stop_{false};
  uint64_t samples_ = 0, queued_ = 0, busy_ = 0;
  std::thread thread_;  // last: it reads the members above
};

/// MiB/s over every span of `name`, each of which moved `mib_each`.
double SpanRateMiBs(const std::map<std::string, SpanSummary>& sums,
                    const std::string& name, double mib_each) {
  auto it = sums.find(name);
  if (it == sums.end() || it->second.wall_s <= 0) return 0;
  return double(it->second.count) * mib_each / it->second.wall_s;
}

const SpanSummary& Find(const std::map<std::string, SpanSummary>& sums,
                        const std::string& name) {
  static const SpanSummary kEmpty;
  auto it = sums.find(name);
  return it == sums.end() ? kEmpty : it->second;
}

void SetScanMetrics(const std::map<std::string, SpanSummary>& sums,
                    double mib_each, Report* rep) {
  const SpanSummary& s = Find(sums, "core.scan");
  rep->Set("core.scan_mb_s", SpanRateMiBs(sums, "core.scan", mib_each));
  rep->Set("core.scan_blocked_s", s.mean_wall_s() - s.mean_cpu_s());
}

void SetSortSpanMetrics(const std::map<std::string, SpanSummary>& sums,
                        Report* rep) {
  const SpanSummary& s = Find(sums, "sort");
  rep->Set("sort.wall_s", s.mean_wall_s());
  rep->Set("sort.cpu_s", s.mean_cpu_s());
  rep->Set("sort.blocked_s", s.mean_wall_s() - s.mean_cpu_s());
}

/// op_p50_ms and op_tail_ms: the median of `reported_ms` (the latencies
/// at the reference speed, or as measured) and its tail at the highest of
/// `tail_candidates` that keeps `min_beyond` samples beyond it. The
/// workload-named lines carry the same statistics of `measured_ms`.
void SetLatency(const std::vector<double>& reported_ms,
                const std::vector<double>& measured_ms,
                std::vector<double> tail_candidates, Report* rep,
                const std::string& p50_name, const std::string& tail_prefix,
                double scale, const std::string& unit,
                size_t min_beyond = 10) {
  const std::vector<double>& raw = measured_ms;
  double tail_p = TailPercentile(reported_ms.size(),
                                 std::move(tail_candidates), min_beyond);
  rep->Set("op_p50_ms", Median(reported_ms));
  rep->Set("op_tail_ms", Percentile(reported_ms, tail_p));
  char tail_name[64];
  std::snprintf(tail_name, sizeof(tail_name), "%s%g%s", tail_prefix.c_str(),
                tail_p, unit == "us" ? "_us" : "_ms");
  rep->Named(p50_name, Median(raw) * scale, unit);
  rep->Named(tail_name, Percentile(raw, tail_p) * scale, unit);
  rep->Named("latency_samples", double(raw.size()), "count");
}

/// Rounds a run makes however short it is: round 0 and, when tracing, a
/// traced round.
size_t MinRounds(const Args& args) { return args.trace ? 2 : 1; }

/// Builds the inputs kSetupReps times, sampling the machine speed before
/// and after each build.
PerRound RunSetup(const std::function<void()>& build, MachineSpeed* speed) {
  PerRound setup_s;
  speed->Sample();
  for (int r = 0; r < kSetupReps; ++r) {
    const uint64_t t0 = NowNs();
    build();
    const uint64_t t1 = NowNs();
    setup_s.Add(Seconds(t0, t1));
    setup_s.EndRound(t0, t1);
    speed->Sample();
  }
  return setup_s;
}

/// setup_s at the reference speed; the median as measured is printed.
void SetSetup(const PerRound& setup_s, const MachineSpeed& speed,
              Report* rep) {
  rep->Set("setup_s", Median(setup_s.Scaled(speed)));
  rep->Named("setup_measured_s", Median(setup_s.raw()), "s");
}

}  // namespace

// ----------------------------------------------------------- sort-wide

void RunSortWide(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                 Report* rep) {
  // 128 MiB of 128-byte records, M = 8 MiB: 16 initial runs, one merge.
  // The files peak at 384 MiB (input, runs, output); a larger input made
  // setup and the last sort of a run outlast the run's time limit when
  // the shared disk throttled write-back.
  constexpr size_t kRecords = 128 * kMiB / sizeof(WideRec);
  Options o;
  o.block_size = kBlock;
  o.memory_budget = 8 * kMiB;
  o.prefetch_depth = 4;
  o.io_threads = 2;
  PrintOptions("sort-wide", o);

  SpanBuffer* buf = rec->Buffer();
  buf->set_enabled(args.trace);  // the traced run also traces setup
  IoEngine engine(o);

  // The device is opened once: opening syncs the directory, a wait on the
  // shared disk that spread setup_s by 0.3 between runs. Each repetition
  // writes the input afresh into the blocks the last one freed.
  auto dev = std::make_unique<FileBlockDevice>(args.tmp_dir + "/sort-wide.bin", o);
  auto ctx = std::make_unique<ExecutionContext>(dev.get(), o, &engine);
  std::unique_ptr<ExtVector<WideRec>> input;
  KeyDigest digest;
  Status st;
  PerRound setup_s = RunSetup([&] {
    input.reset();
    input = std::make_unique<ExtVector<WideRec>>(dev.get());
    input->set_prefetch_depth(o.prefetch_depth);
    digest = KeyDigest{};
    ScopedSpan span(buf, "core.write");
    st = WriteRecords(input.get(), args.seed, kRecords, &digest);
  }, speed);
  if (!dev->valid() || !st.ok()) {
    rep->Attempt();
    rep->Fail("sort-wide setup: " + st.ToString());
    return;
  }

  const double bound =
      vem::bench::SortBound(double(kRecords), double(o.items_per_block<WideRec>()),
                            double(o.items_in_memory<WideRec>()));
  PerRound sort_ms;
  IoStats round0_io;
  ExternalSorter<WideRec>::Metrics round0_metrics;
  RoundTimes rounds;
  EngineSampler sampler(&engine, args.trace);
  const uint64_t deadline = NowNs() + uint64_t(args.seconds * 1e9);
  for (size_t round = 0; round < MinRounds(args) || NowNs() < deadline;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    buf->set_enabled(traced);
    uint64_t r0 = NowNs();
    rep->Attempt();
    ExtVector<WideRec> out(dev.get());
    ExternalSorter<WideRec> sorter(ctx.get());
    IoProbe probe(*dev);
    const uint64_t t0 = NowNs();
    {
      ScopedSpan span(buf, "sort", round);
      st = sorter.Sort(*input, &out);
    }
    const uint64_t t1 = NowNs();
    IoStats io = probe.delta();
    if (!st.ok()) {
      rep->Fail("sort: " + st.ToString());
      continue;
    }
    std::string bad;
    {
      ScopedSpan span(buf, "core.scan", round);
      bad = CheckSorted(out, digest, int(o.prefetch_depth));
    }
    if (round == 0) {
      round0_io = io;
      round0_metrics = sorter.metrics();
    } else if (!(io == round0_io)) {
      bad = "sort I/O counts differ between identical sorts: " +
            io.ToString() + " vs " + round0_io.ToString();
    }
    if (!bad.empty()) {
      rep->Fail(bad);
      continue;
    }
    sort_ms.Add(Seconds(t0, t1) * 1e3);
    sort_ms.EndRound(t0, t1);
    out.Destroy();
    rounds.Add(traced, Seconds(r0, NowNs()));
    speed->SampleEvery(0.5);
  }
  sampler.Stop();
  buf->set_enabled(false);

  const double mib = double(kRecords * sizeof(WideRec)) / double(kMiB);
  const double ratio = double(round0_io.block_ios()) / bound;
  SetSetup(setup_s, *speed, rep);
  // The median sort's rate, like the per-round rates of the other
  // single-client workloads.
  rep->Set("ops_s",
           double(kRecords) / (Median(sort_ms.Scaled(*speed)) * 1e-3));
  rep->Set("io_cost", ratio);
  // About 40 sorts a run on a 4-vCPU machine, fewer on a slow one: the
  // tail is their p80 at every count, which keeps at least one sort
  // beyond it from five sorts up, so it never turns into the maximum.
  SetLatency(sort_ms.Scaled(*speed), sort_ms.raw(), {80}, rep, "sort_p50_ms",
             "sort_p", 1.0, "ms", /*min_beyond=*/1);
  rep->Named("sort_mb_s", mib / (Median(sort_ms.raw()) * 1e-3), "MiB/s");
  rep->Named("sort_io_ratio", ratio, "ratio");
  rep->Named("sort_bound_ios", bound, "count");
  rep->Exact("io_cost", ratio);

  auto sums = Summarize(*rec);
  rep->Set("core.write_mb_s", SpanRateMiBs(sums, "core.write", mib));
  SetScanMetrics(sums, mib, rep);
  SetSortSpanMetrics(sums, rep);
  SetSortMetrics(round0_metrics, rep, /*exact=*/true);
  SetBlockDeviceMetrics(round0_io, rep, /*exact=*/true);
  rep->Set("io.buffer_pool.frames_end", double(ctx->pool()->num_frames()));
  sampler.Set(rep);
  GovernorTotals gov;
  gov.Add(*ctx->governor());
  gov.Set(rep);
  SetArbiterMetrics(*ctx->arbiter(), rep);
  rep->Set("trace.overhead_share", rounds.OverheadShare());

  input.reset();
  ctx.reset();
  dev.reset();
}

// ---------------------------------------------------------- index-zipf

namespace {

uint64_t IndexKey(uint64_t seed, uint64_t i) { return Mix64(i ^ Mix64(seed)); }
uint64_t IndexValue(uint64_t key) { return Mix64(key + 0x5851F42D4C957F2Dull); }

}  // namespace

void RunIndexZipf(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                  Report* rep) {
  // ~2M keys in ~46 MiB of leaves at 70% fill: about 5x the context M.
  constexpr size_t kKeys = 2'000'000;
  constexpr size_t kRoundOps = 20'000;
  constexpr size_t kScanLen = 200;
  // Odd multiplier, coprime with kKeys: scatters Zipf ranks over the key
  // space so the hot keys do not share leaves.
  constexpr uint64_t kRankStride = 1'000'003;
  Options o;
  o.block_size = kBlock;
  o.memory_budget = 8 * kMiB;
  PrintOptions("index-zipf", o);

  using Tree = BPlusTree<uint64_t, uint64_t>;
  SpanBuffer* buf = rec->Buffer();
  buf->set_enabled(args.trace);
  vem::ZipfGenerator zipf(kKeys, 0.9, args.seed);

  std::unique_ptr<FileBlockDevice> dev;
  std::unique_ptr<ExecutionContext> ctx;
  std::unique_ptr<Tree> tree;
  Status st;
  PerRound setup_s = RunSetup([&] {
    tree.reset();
    ctx.reset();
    dev.reset();
    dev = std::make_unique<FileBlockDevice>(args.tmp_dir + "/index.bin", o);
    ctx = std::make_unique<ExecutionContext>(dev.get(), o);
    std::vector<uint64_t> keys(kKeys);
    for (size_t i = 0; i < kKeys; ++i) keys[i] = IndexKey(args.seed, i);
    std::sort(keys.begin(), keys.end());
    ExtVector<Tree::KV> kv(dev.get());
    {
      ScopedSpan span(buf, "core.write");
      ExtVector<Tree::KV>::Writer w(&kv);
      for (uint64_t k : keys) {
        if (!w.Append(Tree::KV{k, IndexValue(k)})) break;
      }
      st = w.Finish();
    }
    tree = std::make_unique<Tree>(ctx.get());
    if (st.ok()) st = tree->Init();
    if (st.ok()) st = tree->BulkLoad(kv);
  }, speed);
  if (!dev->valid() || !st.ok()) {
    rep->Attempt();
    rep->Fail("index-zipf setup: " + st.ToString());
    return;
  }

  vem::BufferPool* pool = ctx->pool();
  uint64_t max_key = IndexKey(args.seed, 0);
  for (size_t i = 1; i < kKeys; ++i) {
    max_key = std::max(max_key, IndexKey(args.seed, i));
  }
  Rng ops(Mix64(args.seed + 1));
  uint64_t next_index = kKeys;
  PerRound get_ms, untraced_round_s;
  IoStats round0_io;
  uint64_t round0_accesses = 0;
  RoundTimes rounds;
  const uint64_t pool_hits0 = pool->hits(), pool_misses0 = pool->misses();
  const uint64_t deadline = NowNs() + uint64_t(args.seconds * 1e9);
  for (size_t round = 0; round < MinRounds(args) || NowNs() < deadline;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    buf->set_enabled(traced);
    IoProbe probe(*dev);
    const uint64_t acc0 = pool->hits() + pool->misses();
    const uint64_t r0 = NowNs();
    for (size_t i = 0; i < kRoundOps; ++i) {
      rep->Attempt();
      uint64_t pick = ops.Uniform(100);
      if (pick < 80) {
        uint64_t key =
            IndexKey(args.seed, (zipf.Next() * kRankStride) % kKeys);
        uint64_t v = 0;
        uint64_t t0 = NowNs();
        {
          ScopedSpan span(buf, "search.get");
          st = tree->Get(key, &v);
        }
        get_ms.Add(double(NowNs() - t0) * 1e-6);
        if (!st.ok() || v != IndexValue(key)) {
          rep->Fail("Get returned a wrong result: " + st.ToString());
        }
      } else if (pick < 95) {
        uint64_t key = IndexKey(args.seed, next_index++);
        bool replaced = true;
        {
          ScopedSpan span(buf, "search.insert");
          st = tree->Insert(key, IndexValue(key), &replaced);
        }
        max_key = std::max(max_key, key);
        if (!st.ok() || replaced) {
          rep->Fail("Insert of a new key failed: " + st.ToString());
        }
      } else {
        uint64_t lo = IndexKey(args.seed, ops.Uniform(next_index));
        size_t n = 0;
        uint64_t prev = 0;
        bool bad = false;
        {
          ScopedSpan span(buf, "search.scan");
          st = tree->Scan(lo, std::numeric_limits<uint64_t>::max(),
                          [&](const uint64_t& k, const uint64_t& v) {
                            if ((n == 0 && k != lo) || (n > 0 && k <= prev) ||
                                v != IndexValue(k)) {
                              bad = true;
                            }
                            prev = k;
                            return ++n < kScanLen;
                          });
        }
        // A short scan must have run into the largest key.
        if (!st.ok() || bad || (n < kScanLen && prev != max_key)) {
          rep->Fail("Scan returned a wrong range: " + st.ToString());
        }
      }
    }
    const uint64_t r1 = NowNs();
    rounds.Add(traced, Seconds(r0, r1));
    if (!traced) untraced_round_s.Add(Seconds(r0, r1));
    get_ms.EndRound(r0, r1);
    untraced_round_s.EndRound(r0, r1);
    if (round == 0) {
      round0_io = probe.delta();
      round0_accesses = pool->hits() + pool->misses() - acc0;
    }
    speed->SampleEvery(0.5);
  }
  buf->set_enabled(false);

  const double ios_per_op = double(round0_io.block_ios()) / double(kRoundOps);
  const double accesses_per_op = double(round0_accesses) / double(kRoundOps);
  SetSetup(setup_s, *speed, rep);
  rep->Set("ops_s",
           double(kRoundOps) / Median(untraced_round_s.Scaled(*speed)));
  rep->Set("io_cost", ios_per_op);
  SetLatency(get_ms.Scaled(*speed), get_ms.raw(), {99}, rep, "lookup_p50_us",
             "lookup_p", 1e3, "us");
  rep->Named("index_ops_s", double(kRoundOps) / Median(untraced_round_s.raw()),
             "1/s");
  rep->Named("ios_per_op", ios_per_op, "count");
  rep->Exact("io_cost", ios_per_op);
  rep->Exact("search.pool_accesses_per_op", accesses_per_op);

  auto sums = Summarize(*rec);
  const double leaf_mib = double(kKeys * sizeof(Tree::KV)) / double(kMiB);
  rep->Set("core.write_mb_s", SpanRateMiBs(sums, "core.write", leaf_mib));
  rep->Set("search.get_us_mean", Find(sums, "search.get").mean_wall_s() * 1e6);
  rep->Set("search.insert_us_mean",
           Find(sums, "search.insert").mean_wall_s() * 1e6);
  rep->Set("search.scan_us_mean", Find(sums, "search.scan").mean_wall_s() * 1e6);
  rep->Set("search.height", double(tree->height()));
  rep->Set("search.pool_accesses_per_op", accesses_per_op);
  const uint64_t hits = pool->hits() - pool_hits0;
  const uint64_t misses = pool->misses() - pool_misses0;
  rep->Set("io.buffer_pool.hit_ratio",
           hits + misses ? double(hits) / double(hits + misses) : 0);
  rep->Set("io.buffer_pool.frames_end", double(pool->num_frames()));
  SetBlockDeviceMetrics(round0_io, rep, /*exact=*/true);
  GovernorTotals gov;
  gov.Add(*ctx->governor());
  gov.Set(rep);
  SetArbiterMetrics(*ctx->arbiter(), rep);
  rep->Set("trace.overhead_share", rounds.OverheadShare());

  tree.reset();
  ctx.reset();
  dev.reset();
}

// ---------------------------------------------------------- ingest-wal

void RunIngestWal(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                  Report* rep) {
  // 64 Ki distinct keys fill ~370 leaves (~1.5 MiB): the tree stays
  // smaller than the 4 MiB pool, so the cost is write-back and the log.
  constexpr size_t kUniverse = 1u << 16;
  constexpr size_t kTxnInserts = 256;
  constexpr size_t kRoundTxns = 16;
  constexpr double kUserBytes = 2 * sizeof(uint64_t);  // key + value
  Options o;
  o.block_size = kBlock;
  o.memory_budget = 8 * kMiB;
  o.enable_wal = true;
  PrintOptions("ingest-wal", o);

  using Tree = BPlusTree<uint64_t, uint64_t>;
  SpanBuffer* buf = rec->Buffer();
  buf->set_enabled(false);
  auto key_of = [&](uint64_t u) { return IndexKey(args.seed, u); };

  std::unique_ptr<vem::DurableStorage> storage;
  std::unique_ptr<ExecutionContext> ctx;
  std::unique_ptr<Tree> tree;
  std::vector<uint64_t> committed(kUniverse);
  Status st;
  int rep_no = 0;
  PerRound setup_s = RunSetup([&] {
    tree.reset();
    ctx.reset();
    storage.reset();
    // The WAL keeps its files; each repetition starts on fresh ones.
    std::string base = args.tmp_dir + "/ingest-" + std::to_string(rep_no++);
    storage = std::make_unique<vem::DurableStorage>(base, o);
    if (!storage->valid()) {
      st = storage->status();
      return;
    }
    ctx = std::make_unique<ExecutionContext>(storage->device.get(), o);
    tree = std::make_unique<Tree>(ctx.get());
    st = tree->Init();
    std::vector<uint64_t> order(kUniverse);
    for (size_t u = 0; u < kUniverse; ++u) order[u] = u;
    Rng shuffle(args.seed);
    shuffle.Shuffle(&order);
    for (size_t i = 0; st.ok() && i < kUniverse; ++i) {
      committed[order[i]] = Mix64(key_of(order[i]));
      st = tree->Insert(key_of(order[i]), committed[order[i]]);
    }
    if (st.ok()) st = ctx->pool()->FlushAll();
    if (st.ok()) st = storage->device->Commit();
    if (st.ok()) st = storage->device->Checkpoint();
  }, speed);
  if (!st.ok()) {
    rep->Attempt();
    rep->Fail("ingest-wal setup: " + st.ToString());
    return;
  }

  vem::BufferPool* pool = ctx->pool();
  BlockDevice* data_plane = storage->device.get();
  // Sync counts of the data and log files. Checkpoint() replaces the log
  // device, so it is looked up afresh and only read between checkpoints.
  auto syncs = [&](bool full) {
    uint64_t n = full ? storage->data->full_syncs() : storage->data->data_syncs();
    auto* log_file = dynamic_cast<const FileBlockDevice*>(storage->wal->device());
    if (log_file != nullptr) {
      n += full ? log_file->full_syncs() : log_file->data_syncs();
    }
    return n;
  };

  Rng rng(Mix64(args.seed + 2));
  std::vector<std::pair<uint64_t, uint64_t>> pending;
  // Thread CPU time of each transaction and round, and their wall time.
  PerRound txn_cpu_ms, round_cpu_p90_ms, untraced_round_cpu_s;
  std::vector<double> txn_ms, round_p90_ms, untraced_round_s;
  uint64_t txn_no = 0, rows = 0;
  RoundTimes rounds;
  const uint64_t wb0 = pool->writebacks();
  const uint64_t deadline = NowNs() + uint64_t(args.seconds * 1e9);
  for (size_t round = 0; round < MinRounds(args) || NowNs() < deadline;
       ++round) {
    const bool traced = args.trace && round % 2 == 1;
    buf->set_enabled(traced);
    IoProbe data_probe(*data_plane);
    IoProbe log_probe(*storage->wal->device());
    const uint64_t fsync0 = storage->wal->fsync_count();
    const uint64_t data_syncs0 = syncs(false), full_syncs0 = syncs(true);
    const uint64_t r0 = NowNs(), c0 = ThreadCpuNs();
    for (size_t t = 0; t < kRoundTxns; ++t) {
      rep->Attempt();
      txn_no++;
      pending.clear();
      const uint64_t t0 = NowNs(), tc0 = ThreadCpuNs();
      {
        ScopedSpan txn(buf, "txn", txn_no);
        for (size_t i = 0; st.ok() && i < kTxnInserts; ++i) {
          uint64_t u = rng.Uniform(kUniverse);
          uint64_t v = Mix64(key_of(u) ^ txn_no);
          ScopedSpan span(buf, "search.insert", txn_no);
          st = tree->Insert(key_of(u), v);
          pending.emplace_back(u, v);
        }
        if (st.ok()) {
          ScopedSpan span(buf, "io.buffer_pool.flush", txn_no);
          st = pool->FlushAll();
        }
        if (st.ok()) {
          ScopedSpan span(buf, "wal.commit", txn_no);
          st = storage->device->Commit();
        }
      }
      if (!st.ok()) {
        rep->Fail("transaction failed: " + st.ToString());
        break;
      }
      txn_cpu_ms.Add(double(ThreadCpuNs() - tc0) * 1e-6);
      txn_ms.push_back(double(NowNs() - t0) * 1e-6);
      for (const auto& [u, v] : pending) committed[u] = v;
      rows += pending.size();
    }
    if (!st.ok()) break;
    auto round_p90 = [](const std::vector<double>& all_ms) {
      return Percentile(
          std::vector<double>(all_ms.end() - kRoundTxns, all_ms.end()), 90);
    };
    round_p90_ms.push_back(round_p90(txn_ms));
    round_cpu_p90_ms.Add(round_p90(txn_cpu_ms.raw()));
    if (round == 0) {
      // Over the round's transactions, before the checkpoint replaces the
      // log device.
      IoStats data_io = data_probe.delta(), log_io = log_probe.delta();
      double user = double(kRoundTxns * kTxnInserts) * kUserBytes;
      double amp = double(data_io.bytes_written + log_io.bytes_written) / user;
      double fsyncs = double(storage->wal->fsync_count() - fsync0) / kRoundTxns;
      double log_bytes = double(log_io.bytes_written) / kRoundTxns;
      rep->Set("io_cost", amp);
      rep->Named("write_amp", amp, "ratio");
      rep->Exact("io_cost", amp);
      rep->Set("wal.fsyncs_per_txn", fsyncs);
      rep->Exact("wal.fsyncs_per_txn", fsyncs);
      rep->Set("wal.log_bytes_per_txn", log_bytes);
      rep->Exact("wal.log_bytes_per_txn", log_bytes);
      SetBlockDeviceMetrics(data_io, rep, /*exact=*/true);
      rep->Set("io.file.data_syncs", double(syncs(false) - data_syncs0));
      rep->Set("io.file.full_syncs", double(syncs(true) - full_syncs0));
    }
    {
      ScopedSpan span(buf, "wal.checkpoint", round);
      st = storage->device->Checkpoint();
    }
    if (!st.ok()) {
      rep->Fail("checkpoint failed: " + st.ToString());
      break;
    }
    const uint64_t r1 = NowNs(), c1 = ThreadCpuNs();
    rounds.Add(traced, Seconds(r0, r1));
    if (!traced) {
      untraced_round_s.push_back(Seconds(r0, r1));
      untraced_round_cpu_s.Add(Seconds(c0, c1));
    }
    for (PerRound* p : {&txn_cpu_ms, &round_cpu_p90_ms, &untraced_round_cpu_s}) {
      p->EndRound(r0, r1);
    }
    speed->SampleEvery(0.5);
  }
  buf->set_enabled(false);

  // Every committed key must read back its last committed value.
  for (size_t u = 0; u < kUniverse; ++u) {
    uint64_t v = 0;
    Status g = tree->Get(key_of(u), &v);
    if (!g.ok() || v != committed[u]) {
      rep->Fail("committed key unreadable after the last commit: " +
                g.ToString());
    }
  }

  SetSetup(setup_s, *speed, rep);
  // The end-to-end figures are the thread CPU time the transactions cost
  // (inserts, write-back, log appends and the sync calls), at the
  // reference speed. Their wall time waits mostly on the fsync of a disk
  // shared with other tenants, whose latency moved by 0.8 (IQR/median)
  // between runs minutes apart; it is printed as measured below, and the
  // fsync count is exact in wal.fsyncs_per_txn.
  const double round_rows = double(kRoundTxns * kTxnInserts);
  rep->Set("ops_s", round_rows / Median(untraced_round_cpu_s.Scaled(*speed)));
  SetLatency(txn_cpu_ms.Scaled(*speed), txn_ms, {90}, rep,
             "txn_p50_ms", "txn_p", 1.0, "ms");
  // The tail is the median round's p90, as a few seconds of interference
  // push a whole run's p90 in one run and not the next.
  rep->Set("op_tail_ms", Median(round_cpu_p90_ms.Scaled(*speed)));
  rep->Named("txn_round_p90_ms", Median(round_p90_ms), "ms");
  rep->Named("ingest_rows_s", round_rows / Median(untraced_round_s), "1/s");
  rep->Named("txn_cpu_p50_ms", Median(txn_cpu_ms.raw()), "ms");

  auto sums = Summarize(*rec);
  rep->Set("search.insert_us_mean",
           Find(sums, "search.insert").mean_wall_s() * 1e6);
  rep->Set("search.height", double(tree->height()));
  rep->Set("io.buffer_pool.frames_end", double(pool->num_frames()));
  rep->Set("io.buffer_pool.writebacks_per_op",
           rows ? double(pool->writebacks() - wb0) / double(rows) : 0);
  rep->Set("io.buffer_pool.flush_ms_p50",
           Median(Find(sums, "io.buffer_pool.flush").wall_ms));
  const SpanSummary& commit = Find(sums, "wal.commit");
  rep->Set("wal.commit_ms_p50", Percentile(commit.wall_ms, 50));
  rep->Set("wal.commit_ms_p90", Percentile(commit.wall_ms, 90));
  SetArbiterMetrics(*ctx->arbiter(), rep);
  rep->Set("trace.overhead_share", rounds.OverheadShare());

  tree.reset();
  ctx.reset();
  storage.reset();
}

// --------------------------------------------------------- serve-mixed

namespace {

/// One serving client: its own device holding a sort input and a scan
/// input, both written at setup.
struct ServeClient {
  std::unique_ptr<FileBlockDevice> dev;
  std::unique_ptr<ExtVector<WideRec>> sort_in;
  std::unique_ptr<ExtVector<uint64_t>> scan_in;
  KeyDigest sort_digest;
  uint64_t scan_sum = 0;

  // Filled by the client thread, across segments.
  SpanBuffer* buf = nullptr;
  size_t next_query = 0;
  std::vector<double> lat_ms;  // this segment's; moved out after it
  RoundTimes query_s;
  IoStats round0_io;
  size_t round0_queries = 0;
  ExternalSorter<WideRec>::Metrics sort_metrics;
  GovernorTotals gov;
  std::vector<std::string> failures;
  uint64_t attempted = 0;
};

}  // namespace

void RunServeMixed(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                   Report* rep) {
  constexpr size_t kClients = 3;
  constexpr size_t kSortRecords = 16 * kMiB / sizeof(WideRec);
  constexpr size_t kScanItems = 32 * kMiB / sizeof(uint64_t);
  constexpr size_t kRound0Queries = 4;
  constexpr uint64_t kDeadlineNs = 2'000'000'000;
  // The measured phase runs in segments. At the end of each, the clients
  // finish their query and stop, and the machine speed is sampled while
  // the library is idle; each segment's queries are scaled by it.
  constexpr uint64_t kSegmentNs = 2'000'000'000;
  constexpr int kSpeedSamples = 2;
  Options machine;
  machine.block_size = kBlock;
  machine.memory_budget = 8 * kMiB;
  machine.io_threads = 1;
  Options slice = machine;
  slice.memory_budget = 3 * kMiB;  // each query's floor, and its M
  slice.prefetch_depth = 4;
  const size_t floor_blocks = slice.memory_budget / kBlock;
  PrintOptions("serve-mixed machine", machine);
  PrintOptions("serve-mixed query", slice);

  IoEngine engine(machine);
  SpanBuffer* setup_buf = rec->Buffer();
  setup_buf->set_enabled(args.trace);
  std::vector<ServeClient> clients(kClients);
  Status st;
  // Devices are opened once, as in sort-wide.
  for (size_t c = 0; c < kClients; ++c) {
    clients[c].dev = std::make_unique<FileBlockDevice>(
        args.tmp_dir + "/serve-" + std::to_string(c) + ".bin", slice);
  }
  PerRound setup_s = RunSetup([&] {
    for (size_t c = 0; c < kClients && st.ok(); ++c) {
      ServeClient& cl = clients[c];
      cl.sort_in.reset();
      cl.scan_in.reset();
      cl.sort_in = std::make_unique<ExtVector<WideRec>>(cl.dev.get());
      cl.scan_in = std::make_unique<ExtVector<uint64_t>>(cl.dev.get());
      cl.scan_in->set_prefetch_depth(slice.prefetch_depth);
      cl.sort_digest = KeyDigest{};
      cl.scan_sum = 0;
      ScopedSpan span(setup_buf, "core.write");
      st = WriteRecords(cl.sort_in.get(), Mix64(args.seed + 10 + c),
                        kSortRecords, &cl.sort_digest);
      Rng fill(Mix64(args.seed + 20 + c));
      ExtVector<uint64_t>::Writer w(cl.scan_in.get());
      for (size_t i = 0; st.ok() && i < kScanItems; ++i) {
        uint64_t x = fill.Next();
        cl.scan_sum += x;
        if (!w.Append(x)) break;
      }
      if (st.ok()) st = w.Finish();
    }
  }, speed);
  if (!st.ok()) {
    rep->Attempt();
    rep->Fail("serve-mixed setup: " + st.ToString());
    return;
  }
  setup_buf->set_enabled(false);

  vem::MemoryArbiter arbiter(machine);
  arbiter.AttachEngine(&engine);
  vem::AdmissionController admission(&arbiter);

  for (ServeClient& cl : clients) cl.buf = rec->Buffer();
  speed->Sample(kSpeedSamples);
  EngineSampler sampler(&engine, args.trace);
  const uint64_t deadline = NowNs() + uint64_t(args.seconds * 1e9);
  auto client_loop = [&](size_t c, uint64_t segment_end) {
    ServeClient& cl = clients[c];
    SpanBuffer* buf = cl.buf;
    const std::string name = "client" + std::to_string(c);
    for (; cl.next_query < kRound0Queries || NowNs() < segment_end;
         ++cl.next_query) {
      const size_t q = cl.next_query;
      // Pairs of queries alternate untraced / traced, so both query
      // kinds land on each side.
      const bool traced = args.trace && (q / 2) % 2 == 1;
      const bool sort_query = (c + q) % 2 == 0;
      buf->set_enabled(traced);
      cl.attempted++;
      IoProbe probe(*cl.dev);
      ExtVector<WideRec> sorted(cl.dev.get());
      uint64_t sum = 0;
      Status qs;
      const uint64_t t0 = NowNs();
      {
        ScopedSpan query(buf, "query", (uint64_t(c) << 32) | q);
        vem::AdmissionTicket ticket;
        {
          ScopedSpan span(buf, "serve.admission.admit");
          qs = admission.Admit(name, 1.0, floor_blocks, kDeadlineNs, &ticket);
        }
        if (qs.ok()) {
          std::unique_ptr<ExecutionContext> ctx;
          {
            ScopedSpan span(buf, "serve.context.build");
            ctx = std::make_unique<ExecutionContext>(
                cl.dev.get(), slice, &arbiter, ticket.TakeTenant(), &engine);
          }
          if (sort_query) {
            ScopedSpan span(buf, "sort");
            ExternalSorter<WideRec> sorter(ctx.get());
            qs = sorter.Sort(*cl.sort_in, &sorted);
            cl.sort_metrics = sorter.metrics();
          } else {
            ScopedSpan span(buf, "core.scan");
            ExtVector<uint64_t>::Reader r(cl.scan_in.get());
            uint64_t x;
            while (r.Next(&x)) sum += x;
            qs = r.status();
          }
          cl.gov.Add(*ctx->governor());
          ctx.reset();  // frees the floor before the ticket wakes the queue
        }
        ticket.Release();
      }
      const double ms = double(NowNs() - t0) * 1e-6;
      if (q < kRound0Queries) {
        Accumulate(&cl.round0_io, probe.delta());
        cl.round0_queries++;
      }
      std::string bad;
      if (!qs.ok()) {
        bad = "query failed or shed: " + qs.ToString();
      } else if (sort_query) {
        bad = CheckSorted(sorted, cl.sort_digest, 0);
      } else if (sum != cl.scan_sum) {
        bad = "scan sum differs from the value computed at setup";
      }
      sorted.Destroy();
      if (!bad.empty()) {
        cl.failures.push_back(bad);
        continue;
      }
      cl.lat_ms.push_back(ms);
      cl.query_s.Add(traced, ms * 1e-3);
    }
    buf->set_enabled(false);
  };
  // Per segment: its queries' p90 and wall seconds per query.
  PerRound lat, segment_p90_ms, segment_s_per_query;
  double measured_s = 0;
  do {
    const uint64_t s0 = NowNs();
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back(client_loop, c, std::min(s0 + kSegmentNs, deadline));
    }
    for (auto& t : threads) t.join();
    const uint64_t s1 = NowNs();
    std::vector<double> segment_ms;
    for (ServeClient& cl : clients) {
      segment_ms.insert(segment_ms.end(), cl.lat_ms.begin(), cl.lat_ms.end());
      cl.lat_ms.clear();
    }
    for (double ms : segment_ms) lat.Add(ms);
    measured_s += Seconds(s0, s1);
    if (!segment_ms.empty()) {
      segment_p90_ms.Add(Percentile(segment_ms, 90));
      segment_s_per_query.Add(Seconds(s0, s1) / double(segment_ms.size()));
    }
    for (PerRound* p : {&lat, &segment_p90_ms, &segment_s_per_query}) {
      p->EndRound(s0, s1);
    }
    speed->Sample(kSpeedSamples);
  } while (NowNs() < deadline);
  sampler.Stop();

  RoundTimes query_s;
  IoStats io;
  size_t round0 = 0;
  GovernorTotals gov;
  for (ServeClient& cl : clients) {
    rep->Attempt(cl.attempted);
    for (const std::string& f : cl.failures) rep->Fail(f);
    query_s.Merge(cl.query_s);
    Accumulate(&io, cl.round0_io);
    round0 += cl.round0_queries;
    gov.Merge(cl.gov);
  }

  SetSetup(setup_s, *speed, rep);
  // The rate and the tail are the median segment's, as in the other
  // workloads' rounds: a few seconds of interference move one segment,
  // not the median.
  rep->Set("ops_s", 1 / Median(segment_s_per_query.Scaled(*speed)));
  rep->Set("io_cost", round0 ? double(io.block_ios()) / double(round0) : 0);
  SetLatency(lat.Scaled(*speed), lat.raw(), {90}, rep, "query_p50_ms",
             "query_p", 1.0, "ms");
  rep->Set("op_tail_ms", Median(segment_p90_ms.Scaled(*speed)));
  rep->Named("queries_s", double(lat.raw().size()) / measured_s, "1/s");

  auto sums = Summarize(*rec);
  const double sort_mib = double(kSortRecords * sizeof(WideRec)) / double(kMiB);
  const double scan_mib = double(kScanItems * sizeof(uint64_t)) / double(kMiB);
  rep->Set("core.write_mb_s",
           SpanRateMiBs(sums, "core.write", sort_mib + scan_mib));
  SetScanMetrics(sums, scan_mib, rep);
  SetSortSpanMetrics(sums, rep);
  SetSortMetrics(clients[0].sort_metrics, rep, /*exact=*/false);
  // Three clients race for the arbiter, so these counts are not exact.
  SetBlockDeviceMetrics(io, rep, /*exact=*/false);
  sampler.Set(rep);
  gov.Set(rep);
  SetArbiterMetrics(arbiter, rep);
  const SpanSummary& admit = Find(sums, "serve.admission.admit");
  rep->Set("serve.admission.wait_ms_p50", Percentile(admit.wall_ms, 50));
  rep->Set("serve.admission.wait_ms_p90", Percentile(admit.wall_ms, 90));
  vem::AdmissionController::Stats as = admission.stats();
  rep->Set("serve.admission.queued", double(as.queued));
  rep->Set("serve.admission.shed", double(as.shed_deadline + as.shed_queue_full));
  rep->Set("serve.context.build_us_mean",
           Find(sums, "serve.context.build").mean_wall_s() * 1e6);
  rep->Set("trace.overhead_share", query_s.OverheadShare());
}

}  // namespace perfbench
