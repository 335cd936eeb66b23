// IndependentDiskDevice tests: the D-independent-heads plane.
//
//  - seeded randomized-cycling placement: deterministic per seed, D
//    consecutive allocations always hit D distinct disks;
//  - independent-head accounting: counted batches charge one parallel
//    step per wave of distinct disks, single transfers one step each,
//    and a no-fault wrapper leaves those charges unchanged;
//  - counted = uncounted + Account on every device stack (memory, file,
//    striped, independent heads under each redundancy mode, a no-fault
//    wrapper over them): one op script on both planes leaves equal
//    contents and equal IoStats on every device of the stack;
//  - stats identity (parent AND children) for streamed scan/write and
//    the forecast-merged external sort: engine on vs off at the same
//    depth must match bit for bit (the two-plane contract), and every
//    depth-independent charge (block counts, bytes, per-consumed-block
//    reads, children) must match the per-block synchronous baseline.
//    parallel_writes is depth-DEPENDENT under the write-wave contract —
//    grouped flushes charge one step per wave of distinct disks — so
//    grouped configs must beat the per-block baseline, not equal it;
//  - forecast-merge equivalence: same output and block transfers as the
//    plain reader merge, strictly fewer parallel read steps on D > 1;
//  - faulty-child propagation on both planes;
//  - fault tolerance: transient-fault schedules absorbed by the retry
//    plane leave parent AND child IoStats bit-identical to the
//    fault-free run (engine off and on); quarantined disks are skipped
//    by randomized-cycling placement while their existing blocks stay
//    readable, and recovery evidence re-admits them;
//  - per-route governor history (one disk's waste does not disarm the
//    other heads) and the engine-saturation gate on staging grows
//    (governor depth grows and arbiter staging grows both refuse while
//    every worker is busy with a backlog).
//
// The redundancy plane (parity/mirror degraded mode, kill-a-disk-
// mid-sort stats identity, rebuild onto spares) is pinned in
// tests/redundancy_test.cc.
#include <gtest/gtest.h>

#include <algorithm>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/ext_vector.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/independent_disk_device.h"
#include "io/io_engine.h"
#include "io/io_ring.h"
#include "io/memory_arbiter.h"
#include "io/memory_block_device.h"
#include "io/prefetch_governor.h"
#include "io/retry_policy.h"
#include "io/striped_device.h"
#include "sort/external_sort.h"
#include "util/random.h"

namespace vem {
namespace {

constexpr size_t kBlock = 256;
constexpr uint64_t kSeed = 0x5EED5EED;

std::string ScratchPath(const std::string& name) {
  return "/tmp/vem_independent_disk_" + name + ".bin";
}

// ------------------------------------------------------------ placement

TEST(IndependentDiskPlacement, SeededCyclingIsDeterministic) {
  IndependentDiskDevice a(4, kBlock, kSeed);
  IndependentDiskDevice b(4, kBlock, kSeed);
  IndependentDiskDevice c(4, kBlock, kSeed + 1);
  bool any_diff = false;
  for (int i = 0; i < 64; ++i) {
    uint64_t ia = a.Allocate(), ib = b.Allocate(), ic = c.Allocate();
    ASSERT_EQ(ia, ib);
    EXPECT_EQ(a.disk_of(ia), b.disk_of(ib)) << "allocation " << i;
    any_diff = any_diff || a.disk_of(ia) != c.disk_of(ic);
  }
  // A different seed produces a different placement sequence.
  EXPECT_TRUE(any_diff);
}

TEST(IndependentDiskPlacement, EveryCycleHitsAllDisks) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  for (int cycle = 0; cycle < 16; ++cycle) {
    bool seen[4] = {false, false, false, false};
    for (int i = 0; i < 4; ++i) {
      uint64_t id = dev.Allocate();
      size_t d = dev.disk_of(id);
      ASSERT_LT(d, 4u);
      EXPECT_FALSE(seen[d]) << "disk repeated within a cycle";
      seen[d] = true;
    }
  }
}

// ----------------------------------------------------------- accounting

TEST(IndependentDiskAccounting, BatchedReadsChargeWaveSteps) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  std::vector<uint64_t> ids;
  std::vector<IoBuffer> bufs;
  std::vector<void*> ptrs;
  char block[kBlock] = {1};
  for (int i = 0; i < 8; ++i) {
    ids.push_back(dev.Allocate());
    ASSERT_TRUE(dev.Write(ids.back(), block).ok());
    bufs.push_back(AllocIoBuffer(kBlock));
    ptrs.push_back(bufs.back().get());
  }
  // Two full cycles of 4 distinct disks: the greedy packing needs
  // exactly 2 waves for the 8 consecutive blocks.
  EXPECT_EQ(dev.CountWaves(ids.data(), ids.size()), 2u);
  IoProbe probe(dev);
  ASSERT_TRUE(dev.ReadBatch(ids.data(), ptrs.data(), ids.size()).ok());
  IoStats d = probe.delta();
  EXPECT_EQ(d.block_reads, 8u);
  EXPECT_EQ(d.parallel_reads, 2u);  // the independent-disk win
  // Deferred id-aware accounting mirrors the counted batch exactly.
  IndependentDiskDevice dev2(4, kBlock, kSeed);
  std::vector<uint64_t> ids2;
  for (int i = 0; i < 8; ++i) {
    ids2.push_back(dev2.Allocate());
    ASSERT_TRUE(dev2.WriteUncounted(ids2.back(), block).ok());
  }
  IoProbe probe2(dev2);
  dev2.Account(/*write=*/false, ids2.data(), ids2.size());
  IoStats d2 = probe2.delta();
  EXPECT_EQ(d2.block_reads, 8u);
  EXPECT_EQ(d2.parallel_reads, 2u);
  for (size_t disk = 0; disk < 4; ++disk) {
    EXPECT_EQ(dev2.disk_stats(disk).block_reads, 2u);
  }
}

TEST(IndependentDiskAccounting, BatchedWritesChargeWaveSteps) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  std::vector<uint64_t> ids;
  std::vector<IoBuffer> bufs;
  std::vector<const void*> ptrs;
  for (int i = 0; i < 8; ++i) {
    ids.push_back(dev.Allocate());
    bufs.push_back(AllocIoBuffer(kBlock, /*zeroed=*/true));
    ptrs.push_back(bufs.back().get());
  }
  // Two full cycles of 4 distinct disks: 2 waves, same as the read side.
  EXPECT_EQ(dev.CountWaves(ids.data(), ids.size()), 2u);
  IoProbe probe(dev);
  ASSERT_TRUE(dev.WriteBatch(ids.data(), ptrs.data(), ids.size()).ok());
  IoStats d = probe.delta();
  EXPECT_EQ(d.block_writes, 8u);
  EXPECT_EQ(d.parallel_writes, 2u);  // grouped write-behind's scatter win
  // Deferred id-aware accounting mirrors the counted batch exactly.
  IndependentDiskDevice dev2(4, kBlock, kSeed);
  std::vector<uint64_t> ids2;
  for (int i = 0; i < 8; ++i) ids2.push_back(dev2.Allocate());
  IoProbe probe2(dev2);
  dev2.Account(/*write=*/true, ids2.data(), ids2.size());
  IoStats d2 = probe2.delta();
  EXPECT_EQ(d2.block_writes, 8u);
  EXPECT_EQ(d2.parallel_writes, 2u);
  for (size_t disk = 0; disk < 4; ++disk) {
    EXPECT_EQ(dev2.disk_stats(disk).block_writes, 2u);
  }
  // One-id calls keep per-block steps (the pool's ghost anchor).
  IndependentDiskDevice dev3(4, kBlock, kSeed);
  std::vector<uint64_t> ids3;
  for (int i = 0; i < 8; ++i) ids3.push_back(dev3.Allocate());
  IoProbe probe3(dev3);
  for (uint64_t id : ids3) dev3.Account(/*write=*/true, &id, 1);
  EXPECT_EQ(probe3.delta().parallel_writes, 8u);
}

// A wrapper that injects no faults must not change what the wrapped
// device records: grouped write-behind through a no-fault
// FaultyBlockDevice still reaches the independent-disk device with its
// ids, so every block is charged on its child and each 8-block group
// costs 2 wave steps — exactly what the bare, engine-armed device
// records.
TEST(IndependentDiskAccounting, NoFaultWrapperKeepsWriteBehindCharges) {
  const size_t kBlocks = 64, kDepth = 8;
  const size_t kItems = kBlocks * (kBlock / sizeof(uint64_t));
  for (bool wrapped : {false, true}) {
    SCOPED_TRACE(wrapped ? "wrapped" : "bare");
    IndependentDiskDevice dev(4, kBlock, kSeed);
    IoEngine engine(2);
    dev.set_io_engine(&engine);
    FaultyBlockDevice faulty(&dev);
    BlockDevice* target = &dev;
    if (wrapped) target = &faulty;
    ExtVector<uint64_t> vec(target);
    vec.set_prefetch_depth(kDepth);
    {
      ExtVector<uint64_t>::Writer w(&vec);
      for (uint64_t i = 0; i < kItems; ++i) ASSERT_TRUE(w.Append(i));
      ASSERT_TRUE(w.Finish().ok());
    }
    ASSERT_EQ(vec.num_blocks(), kBlocks);
    EXPECT_EQ(dev.stats().block_writes, kBlocks);
    EXPECT_EQ(dev.stats().parallel_writes, kBlocks / 4);
    uint64_t child_writes = 0;
    for (size_t d = 0; d < dev.num_disks(); ++d) {
      EXPECT_EQ(dev.disk_stats(d).block_writes, kBlocks / 4) << "child " << d;
      EXPECT_EQ(dev.disk_stats(d).parallel_writes, kBlocks / 4)
          << "child " << d;
      child_writes += dev.disk_stats(d).block_writes;
    }
    EXPECT_EQ(child_writes, kBlocks);
    dev.set_io_engine(nullptr);
  }
}

TEST(IndependentDiskAccounting, SingleTransfersChargeOneStepEach) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  char block[kBlock] = {7};
  IoProbe probe(dev);
  for (int i = 0; i < 6; ++i) {
    uint64_t id = dev.Allocate();
    ASSERT_TRUE(dev.Write(id, block).ok());
    ASSERT_TRUE(dev.Read(id, block).ok());
  }
  IoStats d = probe.delta();
  EXPECT_EQ(d.block_reads, 6u);
  EXPECT_EQ(d.parallel_reads, 6u);  // one head at a time: no batch, no win
  EXPECT_EQ(d.block_writes, 6u);
  EXPECT_EQ(d.parallel_writes, 6u);
}

// ------------------------------------ counted = uncounted + Account

// One device stack: the device a script drives (top), and a snapshot of
// every device in it — parent, children and wrapped devices alike.
struct Stack {
  std::vector<std::unique_ptr<BlockDevice>> owned;
  BlockDevice* top = nullptr;
  std::vector<std::function<IoStats()>> layers;

  BlockDevice* Own(std::unique_ptr<BlockDevice> dev) {
    owned.push_back(std::move(dev));
    BlockDevice* d = owned.back().get();
    layers.push_back([d] { return d->stats(); });
    top = d;
    return d;
  }
  // Adds an IndependentDiskDevice and each of its child disks.
  IndependentDiskDevice* OwnIndependent(Redundancy mode) {
    auto dev = std::make_unique<IndependentDiskDevice>(4, kBlock, kSeed);
    dev->SetRedundancy(mode);
    IndependentDiskDevice* raw = dev.get();
    Own(std::move(dev));
    for (size_t d = 0; d < raw->num_disks(); ++d) {
      layers.push_back([raw, d] { return raw->disk_stats(d); });
    }
    return raw;
  }
  std::vector<IoStats> Snapshot() const {
    std::vector<IoStats> out;
    for (const auto& l : layers) out.push_back(l());
    return out;
  }
};

Stack MakeStack(const std::string& kind, const std::string& tag) {
  Stack s;
  const std::string path = ScratchPath("stack_" + kind + "_" + tag);
  if (kind == "memory") {
    s.Own(std::make_unique<MemoryBlockDevice>(kBlock));
  } else if (kind == "file") {
    s.Own(std::make_unique<FileBlockDevice>(path, kBlock));
  } else if (kind == "striped2") {
    auto dev = std::make_unique<StripedDevice>(2, kBlock / 2);
    StripedDevice* raw = dev.get();
    s.Own(std::move(dev));
    for (size_t d = 0; d < raw->num_disks(); ++d) {
      s.layers.push_back([raw, d] { return raw->disk_stats(d); });
    }
  } else if (kind == "indep4-none") {
    s.OwnIndependent(Redundancy::kNone);
  } else if (kind == "indep4-parity") {
    s.OwnIndependent(Redundancy::kParity);
  } else if (kind == "indep4-mirror") {
    s.OwnIndependent(Redundancy::kMirror);
  } else if (kind == "faulty-indep4") {
    BlockDevice* inner = s.OwnIndependent(Redundancy::kNone);
    s.Own(std::make_unique<FaultyBlockDevice>(inner));
  }
  return s;
}

// Drives `dev` on one plane: counted ops as they are, or each op as its
// *Uncounted form followed by the matching Account call.
struct PlaneDriver {
  BlockDevice* dev;
  bool counted;

  Status Read(uint64_t id, void* buf) {
    if (counted) return dev->Read(id, buf);
    VEM_RETURN_IF_ERROR(dev->ReadUncounted(id, buf));
    dev->Account(/*write=*/false, &id, 1);
    return Status::OK();
  }
  Status Write(uint64_t id, const void* buf) {
    if (counted) return dev->Write(id, buf);
    VEM_RETURN_IF_ERROR(dev->WriteUncounted(id, buf));
    dev->Account(/*write=*/true, &id, 1);
    return Status::OK();
  }
  Status ReadBatch(const std::vector<uint64_t>& ids,
                   std::vector<std::vector<char>>* bufs) {
    std::vector<void*> ptrs;
    for (auto& b : *bufs) ptrs.push_back(b.data());
    if (counted) return dev->ReadBatch(ids.data(), ptrs.data(), ids.size());
    VEM_RETURN_IF_ERROR(
        dev->ReadBatchUncounted(ids.data(), ptrs.data(), ids.size()));
    dev->Account(/*write=*/false, ids.data(), ids.size());
    return Status::OK();
  }
  Status WriteBatch(const std::vector<uint64_t>& ids,
                    const std::vector<std::vector<char>>& bufs) {
    std::vector<const void*> ptrs;
    for (const auto& b : bufs) ptrs.push_back(b.data());
    if (counted) return dev->WriteBatch(ids.data(), ptrs.data(), ids.size());
    VEM_RETURN_IF_ERROR(
        dev->WriteBatchUncounted(ids.data(), ptrs.data(), ids.size()));
    dev->Account(/*write=*/true, ids.data(), ids.size());
    return Status::OK();
  }
};

// The fixed op script: single and batched writes, single and batched
// reads, then a small batched rewrite (a parity read-modify-write) and a
// full read-back. Returns every block read, in order.
std::vector<char> RunStackScript(PlaneDriver p) {
  const size_t B = p.dev->block_size();
  std::vector<uint64_t> ids(12);
  for (auto& id : ids) id = p.dev->Allocate();
  auto image = [&](size_t i, int version) {
    std::vector<char> b(B);
    for (size_t j = 0; j < B; ++j) b[j] = char(i * 31 + j * 7 + version);
    return b;
  };
  std::vector<std::vector<char>> expect(ids.size());
  std::vector<char> reads;
  auto batch_of = [&](const std::vector<size_t>& idx, int version,
                      std::vector<uint64_t>* bids) {
    std::vector<std::vector<char>> bufs;
    for (size_t i : idx) {
      bids->push_back(ids[i]);
      expect[i] = image(i, version);
      bufs.push_back(expect[i]);
    }
    return bufs;
  };
  auto read_batch = [&](const std::vector<size_t>& idx) {
    std::vector<uint64_t> bids;
    for (size_t i : idx) bids.push_back(ids[i]);
    std::vector<std::vector<char>> bufs(idx.size(), std::vector<char>(B));
    EXPECT_TRUE(p.ReadBatch(bids, &bufs).ok());
    for (size_t k = 0; k < idx.size(); ++k) {
      EXPECT_EQ(bufs[k], expect[idx[k]]) << "block " << idx[k];
      reads.insert(reads.end(), bufs[k].begin(), bufs[k].end());
    }
  };
  auto read_one = [&](size_t i) {
    std::vector<char> buf(B);
    EXPECT_TRUE(p.Read(ids[i], buf.data()).ok());
    EXPECT_EQ(buf, expect[i]) << "block " << i;
    reads.insert(reads.end(), buf.begin(), buf.end());
  };

  for (size_t i = 0; i < 4; ++i) {
    expect[i] = image(i, 1);
    EXPECT_TRUE(p.Write(ids[i], expect[i].data()).ok());
  }
  std::vector<uint64_t> bids;
  auto bufs = batch_of({4, 5, 6, 7, 8, 9, 10, 11}, 1, &bids);
  EXPECT_TRUE(p.WriteBatch(bids, bufs).ok());
  read_one(5);
  read_one(0);
  read_batch({1, 2, 3, 8, 9, 10, 11, 4});
  bids.clear();
  bufs = batch_of({0, 7, 3}, 2, &bids);
  EXPECT_TRUE(p.WriteBatch(bids, bufs).ok());
  expect[6] = image(6, 2);
  EXPECT_TRUE(p.Write(ids[6], expect[6].data()).ok());
  read_batch({0, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 11});
  return reads;
}

// A counted op IS the uncounted transfer plus Account: the same script
// on both planes leaves equal contents and equal IoStats on every device
// of every stack — the parent and each child or wrapped device.
TEST(StackIdentity, CountedPlaneIsUncountedPlusAccount) {
  for (const std::string kind :
       {"memory", "file", "striped2", "indep4-none", "indep4-parity",
        "indep4-mirror", "faulty-indep4"}) {
    SCOPED_TRACE(kind);
    Stack counted = MakeStack(kind, "counted");
    Stack deferred = MakeStack(kind, "deferred");
    ASSERT_NE(counted.top, nullptr);
    std::vector<char> reads_c = RunStackScript({counted.top, true});
    std::vector<char> reads_d = RunStackScript({deferred.top, false});
    EXPECT_EQ(reads_c, reads_d);
    const std::vector<IoStats> sc = counted.Snapshot();
    const std::vector<IoStats> sd = deferred.Snapshot();
    ASSERT_EQ(sc.size(), sd.size());
    // 2 single + 8 + 12 batched reads, 4 + 8 + 3 + 1 writes.
    EXPECT_EQ(counted.top->stats().bytes_read, 22 * kBlock);
    EXPECT_EQ(counted.top->stats().bytes_written, 16 * kBlock);
    for (size_t l = 0; l < sc.size(); ++l) {
      EXPECT_TRUE(sc[l] == sd[l]) << "layer " << l << ": counted "
                                  << sc[l].ToString() << " vs deferred "
                                  << sd[l].ToString();
    }
  }
}

// ------------------------------------------------------- stats identity

struct WorkloadCost {
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
};

/// Streamed write + scan + forecast-merged external sort on 4 file
/// children, under one of three configs. Placement is seed-fixed, so
/// every config sees the identical block layout.
WorkloadCost RunWorkload(const std::string& tag, size_t depth, bool engine_on,
                         bool governed,
                         IoBackend backend = IoBackend::kWorkerPool) {
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    auto child = std::make_unique<FileBlockDevice>(
        ScratchPath(tag + "_d" + std::to_string(d)), kBlock);
    EXPECT_TRUE(child->valid());
    disks.push_back(std::move(child));
  }
  IndependentDiskDevice dev(std::move(disks), kSeed);
  EXPECT_TRUE(dev.valid());
  EXPECT_TRUE(dev.SupportsUncounted());
  EXPECT_TRUE(dev.SupportsAsync());
  IoEngine engine(3, /*disk_inflight_cap=*/1, backend);
  PrefetchGovernor::Config gov_cfg;
  gov_cfg.budget_blocks = 128;
  gov_cfg.min_depth = 2;
  gov_cfg.max_depth = 16;
  gov_cfg.adapt_windows = 2;
  PrefetchGovernor governor(gov_cfg);
  if (engine_on) dev.set_io_engine(&engine);
  if (governed) dev.set_prefetch_governor(&governor);

  WorkloadCost cost;
  IoProbe probe(dev);
  Rng rng(11);
  ExtVector<uint64_t> input(&dev);
  input.set_prefetch_depth(depth);
  {
    ExtVector<uint64_t>::Writer w(&input);
    for (int i = 0; i < 6000; ++i) w.Append(rng.Next());
    EXPECT_TRUE(w.Finish().ok());
  }
  {
    std::vector<uint64_t> scanned;
    EXPECT_TRUE(input.ReadAll(&scanned).ok());
    EXPECT_EQ(scanned.size(), 6000u);
  }
  ExternalSorter<uint64_t> sorter(&dev, /*memory=*/8 * kBlock);
  sorter.set_prefetch_depth(depth);
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  EXPECT_TRUE(sorter.Sort(input, &out).ok());
  EXPECT_GT(sorter.metrics().initial_runs, 1u);
  EXPECT_TRUE(out.ReadAll(&cost.output).ok());
  cost.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    cost.children.push_back(dev.disk_stats(d));
  }
  out.Destroy();
  input.Destroy();
  dev.set_io_engine(nullptr);
  dev.set_prefetch_governor(nullptr);
  return cost;
}

TEST(IndependentDiskIdentity, SyncEngineGovernedBitIdentical) {
  WorkloadCost sync = RunWorkload("sync", 0, false, false);
  WorkloadCost inline8 = RunWorkload("inline8", 8, false, false);
  WorkloadCost armed = RunWorkload("armed", 8, true, false);
  WorkloadCost governed = RunWorkload("governed", 8, true, true);
  EXPECT_TRUE(std::is_sorted(sync.output.begin(), sync.output.end()));
  EXPECT_EQ(sync.output, inline8.output);
  EXPECT_EQ(sync.output, armed.output);
  EXPECT_EQ(sync.output, governed.output);
  // The two-plane contract: engine on vs off at the same depth is
  // bit-identical — deferred accounting reproduces the counted path.
  EXPECT_EQ(inline8.parent, armed.parent);
  // Depth-independent charges match the per-block baseline everywhere:
  // physical transfers, bytes, and reads (streams charge reads per
  // consumed block; the forecast merge's waves follow placement, not
  // staging depth).
  auto expect_depth_independent_eq = [&](const WorkloadCost& c,
                                         const char* what) {
    EXPECT_EQ(sync.parent.block_reads, c.parent.block_reads) << what;
    EXPECT_EQ(sync.parent.block_writes, c.parent.block_writes) << what;
    EXPECT_EQ(sync.parent.bytes_read, c.parent.bytes_read) << what;
    EXPECT_EQ(sync.parent.bytes_written, c.parent.bytes_written) << what;
    EXPECT_EQ(sync.parent.parallel_reads, c.parent.parallel_reads) << what;
    ASSERT_EQ(sync.children.size(), c.children.size());
    for (size_t d = 0; d < sync.children.size(); ++d) {
      EXPECT_EQ(sync.children[d], c.children[d]) << what << " child " << d;
    }
  };
  expect_depth_independent_eq(inline8, "inline8");
  expect_depth_independent_eq(armed, "armed");
  expect_depth_independent_eq(governed, "governed");
  // The write-wave contract: grouped flushes scatter each group across
  // distinct disks, so depth-8 configs need strictly fewer parallel
  // write steps than the per-block baseline. The governed run's group
  // boundaries adapt at runtime, so only the direction is pinned.
  EXPECT_LT(armed.parent.parallel_writes, sync.parent.parallel_writes);
  EXPECT_LE(governed.parent.parallel_writes, sync.parent.parallel_writes);
}

// The transport never touches the cost model: the same armed workload on
// the io_uring backend must reproduce the worker-pool run bit for bit —
// parent, children, and output.
TEST(IndependentDiskIdentity, IoUringBackendBitIdenticalToWorkerPool) {
  if (!IoRing::CompiledIn() || !IoRing::KernelSupported()) {
    GTEST_SKIP() << "io_uring not available on this kernel/build";
  }
  WorkloadCost wp = RunWorkload("bk_wp", 8, true, false);
  WorkloadCost ur =
      RunWorkload("bk_ur", 8, true, false, IoBackend::kIoUring);
  EXPECT_EQ(wp.output, ur.output);
  EXPECT_EQ(wp.parent, ur.parent);
  ASSERT_EQ(wp.children.size(), ur.children.size());
  for (size_t d = 0; d < wp.children.size(); ++d) {
    EXPECT_EQ(wp.children[d], ur.children[d]) << "child " << d;
  }
}

// ------------------------------------------------------- forecast merge

TEST(ForecastMerge, EquivalentOutputFewerParallelSteps) {
  const size_t kItems = 20000;
  Rng rng(21);
  std::vector<uint64_t> data(kItems);
  for (auto& v : data) v = rng.Next();

  auto sort_with = [&](bool forecast, IoStats* delta,
                       ExternalSorter<uint64_t>::Metrics* metrics) {
    IndependentDiskDevice dev(4, kBlock, kSeed);
    ExtVector<uint64_t> input(&dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(&dev, /*memory=*/16 * kBlock);
    sorter.set_forecast_merge(forecast);
    ExtVector<uint64_t> out(&dev);
    IoProbe probe(dev);
    EXPECT_TRUE(sorter.Sort(input, &out).ok());
    *delta = probe.delta();
    *metrics = sorter.metrics();
    std::vector<uint64_t> result;
    EXPECT_TRUE(out.ReadAll(&result).ok());
    return result;
  };

  IoStats plain_cost, forecast_cost;
  ExternalSorter<uint64_t>::Metrics plain_m, forecast_m;
  std::vector<uint64_t> plain = sort_with(false, &plain_cost, &plain_m);
  std::vector<uint64_t> forecast =
      sort_with(true, &forecast_cost, &forecast_m);
  ASSERT_GT(plain_m.initial_runs, 1u);
  EXPECT_TRUE(std::is_sorted(plain.begin(), plain.end()));
  EXPECT_EQ(plain, forecast);
  // Same physical transfers, merge schedule included.
  EXPECT_EQ(plain_cost.block_reads, forecast_cost.block_reads);
  EXPECT_EQ(plain_cost.block_writes, forecast_cost.block_writes);
  // The forecast schedule batches refills into distinct-disk waves: the
  // merge's read steps shrink (run formation reads are unchanged).
  EXPECT_LT(forecast_cost.parallel_reads, plain_cost.parallel_reads);
}

TEST(ForecastMerge, SingleDiskDegeneratesToPlainCosts) {
  const size_t kItems = 8000;
  Rng rng(22);
  std::vector<uint64_t> data(kItems);
  for (auto& v : data) v = rng.Next();
  auto run = [&](bool forecast, IoStats* delta) {
    MemoryBlockDevice dev(kBlock);
    ExtVector<uint64_t> input(&dev);
    EXPECT_TRUE(input.AppendAll(data.data(), data.size()).ok());
    ExternalSorter<uint64_t> sorter(&dev, /*memory=*/8 * kBlock);
    sorter.set_forecast_merge(forecast);
    ExtVector<uint64_t> out(&dev);
    IoProbe probe(dev);
    EXPECT_TRUE(sorter.Sort(input, &out).ok());
    *delta = probe.delta();
    std::vector<uint64_t> result;
    EXPECT_TRUE(out.ReadAll(&result).ok());
    return result;
  };
  IoStats plain_cost, forecast_cost;
  std::vector<uint64_t> plain = run(false, &plain_cost);
  std::vector<uint64_t> forecast = run(true, &forecast_cost);
  EXPECT_EQ(plain, forecast);
  // Route 0 everywhere: every wave is one block, costs exactly match.
  EXPECT_EQ(plain_cost, forecast_cost);
}

// --------------------------------------------------------- faulty child

/// With redundancy off a child's IOError is the batch's error, unchanged
/// — with or without an engine — and nothing is reconstructed, diverted
/// to a redundancy plane, or latched dead.
void ExpectPlainChildError(const IndependentDiskDevice& dev, const Status& s,
                           const std::string& injected) {
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
  EXPECT_NE(s.ToString().find(injected), std::string::npos) << s.ToString();
  EXPECT_EQ(dev.redundancy_stats(), RedundancyStats{})
      << dev.redundancy_stats().ToString();
  for (size_t d = 0; d < dev.num_disks(); ++d) EXPECT_FALSE(dev.DiskDead(d));
}

TEST(IndependentDiskFaults, FaultyChildPropagatesReadError) {
  for (bool with_engine : {false, true}) {
    SCOPED_TRACE(with_engine ? "IoEngine" : "no engine");
    IoEngine engine(2);  // outlives the device that points at it
    MemoryBlockDevice faulty_inner(kBlock);
    std::vector<std::unique_ptr<BlockDevice>> disks;
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    disks.push_back(std::make_unique<FaultyBlockDevice>(&faulty_inner,
                                                        /*fail_read_at=*/10));
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    IndependentDiskDevice dev(std::move(disks), kSeed);
    ASSERT_TRUE(dev.valid());
    ASSERT_TRUE(dev.SupportsUncounted());
    if (with_engine) dev.set_io_engine(&engine);

    Rng rng(31);
    std::vector<uint64_t> data(20000);
    for (auto& v : data) v = rng.Next();
    ExtVector<uint64_t> vec(&dev);
    ASSERT_TRUE(vec.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
    std::vector<uint64_t> out;
    Status s = vec.ReadAll(&out, /*depth=*/8);
    ExpectPlainChildError(dev, s, "injected read fault #10");
  }
}

TEST(IndependentDiskFaults, FaultyChildPropagatesWriteError) {
  for (bool with_engine : {false, true}) {
    SCOPED_TRACE(with_engine ? "IoEngine" : "no engine");
    IoEngine engine(2);  // outlives the device that points at it
    MemoryBlockDevice faulty_inner(kBlock);
    std::vector<std::unique_ptr<BlockDevice>> disks;
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    disks.push_back(std::make_unique<FaultyBlockDevice>(
        &faulty_inner, FaultyBlockDevice::kNever, /*fail_write_at=*/12));
    disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    IndependentDiskDevice dev(std::move(disks), kSeed);
    ASSERT_TRUE(dev.valid());
    if (with_engine) dev.set_io_engine(&engine);

    Rng rng(32);
    std::vector<uint64_t> data(20000);
    for (auto& v : data) v = rng.Next();
    ExtVector<uint64_t> vec(&dev);
    Status s = vec.AppendAll(data.data(), data.size(), /*depth=*/8);
    ExpectPlainChildError(dev, s, "injected write fault #12");
  }
}

TEST(IndependentDiskFaults, ForecastMergeSurfacesReadError) {
  MemoryBlockDevice faulty_inner(kBlock);
  std::vector<std::unique_ptr<BlockDevice>> disks;
  disks.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
  disks.push_back(std::make_unique<FaultyBlockDevice>(&faulty_inner,
                                                      /*fail_read_at=*/60));
  IndependentDiskDevice dev(std::move(disks), kSeed);
  ASSERT_TRUE(dev.valid());
  Rng rng(33);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  ExtVector<uint64_t> input(&dev);
  ASSERT_TRUE(input.AppendAll(data.data(), data.size()).ok());
  ExternalSorter<uint64_t> sorter(&dev, /*memory=*/8 * kBlock);
  sorter.set_forecast_merge(true);
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.IsIOError()) << s.ToString();
}

// ------------------------------------------------------ fault tolerance

/// Four Faulty-wrapped memory children so clean and faulted runs share
/// one stats structure; `inject` arms transient schedules on two heads.
struct FaultWorkloadResult {
  IoStats parent;
  std::vector<IoStats> children;
  std::vector<uint64_t> output;
};

FaultWorkloadResult RunTransientFaultWorkload(bool inject,
                                              RetryPolicy* policy,
                                              IoEngine* engine) {
  std::vector<std::unique_ptr<MemoryBlockDevice>> inners;
  std::vector<FaultyBlockDevice*> wrappers;
  std::vector<std::unique_ptr<BlockDevice>> disks;
  for (int d = 0; d < 4; ++d) {
    inners.push_back(std::make_unique<MemoryBlockDevice>(kBlock));
    auto w = std::make_unique<FaultyBlockDevice>(inners.back().get());
    wrappers.push_back(w.get());
    disks.push_back(std::move(w));
  }
  IndependentDiskDevice dev(std::move(disks), kSeed);
  EXPECT_TRUE(dev.valid());
  if (engine != nullptr) dev.set_io_engine(engine);
  if (policy != nullptr) dev.set_retry_policy(policy);
  if (inject) {
    // Fail one read attempt twice and one write attempt twice on head 1,
    // one of each once on head 3 — all inside the sort's I/O schedule.
    wrappers[1]->SetTransientReadFault(/*at_read=*/50, /*times=*/2);
    wrappers[1]->SetTransientWriteFault(/*at_write=*/30, /*times=*/2);
    wrappers[3]->SetTransientReadFault(/*at_read=*/80, /*times=*/1);
    wrappers[3]->SetTransientWriteFault(/*at_write=*/40, /*times=*/1);
  }

  FaultWorkloadResult res;
  Rng rng(41);
  std::vector<uint64_t> data(20000);
  for (auto& v : data) v = rng.Next();
  IoProbe probe(dev);
  ExtVector<uint64_t> input(&dev);
  EXPECT_TRUE(input.AppendAll(data.data(), data.size(), /*depth=*/8).ok());
  ExternalSorter<uint64_t> sorter(&dev, /*memory=*/8 * kBlock);
  sorter.set_forecast_merge(true);
  sorter.set_prefetch_depth(8);
  ExtVector<uint64_t> out(&dev);
  Status s = sorter.Sort(input, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  EXPECT_GT(sorter.metrics().initial_runs, 1u);
  EXPECT_TRUE(out.ReadAll(&res.output).ok());
  res.parent = probe.delta();
  for (size_t d = 0; d < dev.num_disks(); ++d) {
    res.children.push_back(dev.disk_stats(d));
  }
  dev.set_io_engine(nullptr);
  return res;
}

void ExpectBitIdentical(const FaultWorkloadResult& a,
                        const FaultWorkloadResult& b, const char* what) {
  EXPECT_EQ(a.output, b.output) << what;
  EXPECT_EQ(a.parent, b.parent) << what;
  ASSERT_EQ(a.children.size(), b.children.size());
  for (size_t d = 0; d < a.children.size(); ++d) {
    EXPECT_EQ(a.children[d], b.children[d]) << what << " child " << d;
  }
}

// The acceptance bar of the fault-tolerance plane: an external sort on
// independent disks completes under injected transient faults with
// logical IoStats — parent and every child — bit-identical to the
// fault-free run. Retries happen (the physical gauge shows them) but the
// cost model cannot see them.
TEST(IndependentDiskFaultTolerance, TransientFaultsSortStatsIdentical) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;  // no wall-clock sleeping inside the test
  RetryPolicy policy(cfg);
  FaultWorkloadResult clean =
      RunTransientFaultWorkload(false, nullptr, nullptr);
  FaultWorkloadResult faulted =
      RunTransientFaultWorkload(true, &policy, nullptr);
  EXPECT_TRUE(std::is_sorted(clean.output.begin(), clean.output.end()));
  EXPECT_GE(policy.retries(), 6u);  // every scheduled fault really fired
  ExpectBitIdentical(clean, faulted, "sync");
}

TEST(IndependentDiskFaultTolerance, TransientFaultsWithEngineStatsIdentical) {
  RetryPolicy::Config cfg;
  cfg.retry_limit = 3;
  cfg.base_us = 0;
  RetryPolicy policy(cfg);
  IoEngine clean_eng(3);
  IoEngine fault_eng(3);
  FaultWorkloadResult clean =
      RunTransientFaultWorkload(false, nullptr, &clean_eng);
  FaultWorkloadResult faulted =
      RunTransientFaultWorkload(true, &policy, &fault_eng);
  EXPECT_GE(policy.retries(), 6u);
  ExpectBitIdentical(clean, faulted, "engine");
}

// Mid-run io_uring degradation: injected submission failures force the
// ring path to finish in-flight runs via the worker transfers and, after
// the failure limit, disable the ring for good — with the cost model and
// the data none the wiser.
TEST(IndependentDiskFaultTolerance, RingSubmitFailuresDegradeBitIdentical) {
  if (!IoRing::CompiledIn() || !IoRing::KernelSupported()) {
    GTEST_SKIP() << "io_uring not available on this kernel/build";
  }
  WorkloadCost wp = RunWorkload("ft_wp", 8, true, false);
  IoRing::ForceSubmitFailuresForTest(IoEngine::kRingFailureLimit);
  WorkloadCost ur =
      RunWorkload("ft_ur_fault", 8, true, false, IoBackend::kIoUring);
  IoRing::ForceSubmitFailuresForTest(0);
  EXPECT_EQ(wp.output, ur.output);
  EXPECT_EQ(wp.parent, ur.parent);
  ASSERT_EQ(wp.children.size(), ur.children.size());
  for (size_t d = 0; d < wp.children.size(); ++d) {
    EXPECT_EQ(wp.children[d], ur.children[d]) << "child " << d;
  }
}

TEST(IndependentDiskFaultTolerance, QuarantinedDiskDivertsPlacement) {
  IndependentDiskDevice dev(4, kBlock, kSeed);
  IoEngine eng(2);
  dev.set_io_engine(&eng);
  // Find a victim head and write one block onto it.
  uint64_t probe_id = dev.Allocate();
  size_t sick = dev.disk_of(probe_id);
  uint64_t tag = dev.EngineDiskTag(probe_id);
  std::vector<char> block(kBlock, 42);
  ASSERT_TRUE(dev.Write(probe_id, block.data()).ok());

  for (int i = 0; i < 3; ++i) eng.ReportDiskResult(tag, false);
  ASSERT_TRUE(eng.DiskQuarantined(tag));
  // New blocks avoid the sick head entirely...
  for (int i = 0; i < 32; ++i) {
    uint64_t id = dev.Allocate();
    EXPECT_NE(dev.disk_of(id), sick) << "allocation " << i;
  }
  // ...while its existing blocks stay readable (demand traffic is what
  // retry serves and what can lift the quarantine).
  std::vector<char> back(kBlock, 0);
  ASSERT_TRUE(dev.Read(probe_id, back.data()).ok());
  EXPECT_EQ(back[0], 42);

  // Recovery evidence re-admits the head to the placement cycle.
  for (int i = 0; i < 50 && eng.DiskQuarantined(tag); ++i) {
    eng.ReportDiskResult(tag, true, 1000);
  }
  ASSERT_FALSE(eng.DiskQuarantined(tag));
  bool used_again = false;
  for (int i = 0; i < 16 && !used_again; ++i) {
    used_again = dev.disk_of(dev.Allocate()) == sick;
  }
  EXPECT_TRUE(used_again);
  dev.set_io_engine(nullptr);
}

TEST(IndependentDiskFaultTolerance, AllDisksQuarantinedStillPlaces) {
  IndependentDiskDevice dev(2, kBlock, kSeed);
  IoEngine eng(1);
  dev.set_io_engine(&eng);
  uint64_t a = dev.Allocate();
  uint64_t b = dev.Allocate();
  for (int i = 0; i < 3; ++i) {
    eng.ReportDiskResult(dev.EngineDiskTag(a), false);
    eng.ReportDiskResult(dev.EngineDiskTag(b), false);
  }
  ASSERT_EQ(eng.quarantined_disks(), 2u);
  // With every head sick there is nowhere better: placement proceeds.
  uint64_t c = dev.Allocate();
  EXPECT_LT(dev.disk_of(c), 2u);
  std::vector<char> block(kBlock, 7);
  EXPECT_TRUE(dev.Write(c, block.data()).ok());
  dev.set_io_engine(nullptr);
}

// ------------------------------------------ per-route governor history

TEST(PerRouteGovernor, OneDisksWasteDoesNotDisarmOtherHeads) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 128;
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.initial_depth = 8;
  cfg.adapt_windows = 4;
  cfg.waste_disarm_ewma = 0.5;
  cfg.probe_every = 100;  // no probes inside this test
  uint64_t now = 0;
  PrefetchGovernor gov(cfg, [&now] { return now; });
  // Route 1 builds a wasteful record: a lease that throws its staging
  // away and dies young.
  {
    auto lease = gov.Arm(8, /*route=*/1);
    ASSERT_GT(lease->depth(), 0u);
    lease->ReportWindow(/*consumed=*/0, /*unused=*/8);
  }
  EXPECT_GT(gov.route_shape(1).waste_ewma, cfg.waste_disarm_ewma);
  // Route 1 is now refused; routes 2 and 0 still arm at full depth.
  auto refused = gov.Arm(8, /*route=*/1);
  EXPECT_EQ(refused->depth(), 0u);
  auto other = gov.Arm(8, /*route=*/2);
  EXPECT_EQ(other->depth(), 8u);
  auto unrouted = gov.Arm(8, /*route=*/0);
  EXPECT_EQ(unrouted->depth(), 8u);
}

// ------------------------------------------------ engine saturation gate

/// Holds the engine's only worker busy until released, with one more job
/// queued behind it: Headroom() == 0.0 (saturated) while held.
class EngineSaturator {
 public:
  explicit EngineSaturator(IoEngine* engine) : engine_(engine) {
    hold_ticket_ = engine->Submit([this] {
      std::unique_lock<std::mutex> lock(mu_);
      started_ = true;
      started_cv_.notify_all();
      cv_.wait(lock, [this] { return released_; });
      return Status::OK();
    });
    backlog_ticket_ = engine->Submit([] { return Status::OK(); });
    std::unique_lock<std::mutex> lock(mu_);
    started_cv_.wait(lock, [this] { return started_; });
  }
  void Release() {
    {
      std::unique_lock<std::mutex> lock(mu_);
      released_ = true;
    }
    cv_.notify_all();
    (void)engine_->Wait(hold_ticket_);
    (void)engine_->Wait(backlog_ticket_);
  }
  ~EngineSaturator() {
    if (!released_) Release();
  }

 private:
  IoEngine* engine_;
  IoEngine::Ticket hold_ticket_, backlog_ticket_;
  std::mutex mu_;
  std::condition_variable cv_, started_cv_;
  bool started_ = false;
  bool released_ = false;
};

TEST(EngineSaturation, GaugeReflectsBusyWorkersAndBacklog) {
  IoEngine engine(1);
  EXPECT_NE(engine.Headroom(), 0.0);
  {
    EngineSaturator sat(&engine);
    EXPECT_EQ(engine.busy_workers(), 1u);
    EXPECT_GE(engine.queued_jobs(), 1u);
    EXPECT_EQ(engine.Headroom(), 0.0);
    sat.Release();
  }
  EXPECT_NE(engine.Headroom(), 0.0);
  EXPECT_EQ(engine.queued_jobs(), 0u);
}

TEST(EngineSaturation, GovernorRefusesDepthGrowsWhileSaturated) {
  PrefetchGovernor::Config cfg;
  cfg.budget_blocks = 128;
  cfg.min_depth = 2;
  cfg.max_depth = 16;
  cfg.initial_depth = 4;
  cfg.adapt_windows = 2;
  cfg.stall_floor_ns = 1000;
  uint64_t now = 0;
  PrefetchGovernor gov(cfg, [&now] { return now; });
  IoEngine engine(1);
  gov.AttachEngine(&engine);
  auto lease = gov.Arm(16);
  ASSERT_EQ(lease->depth(), 4u);
  {
    EngineSaturator sat(&engine);
    ASSERT_EQ(engine.Headroom(), 0.0);
    // A fully stalled period that would normally double depth.
    for (int w = 0; w < 2; ++w) {
      uint64_t t0 = lease->BeginWait();
      now += 5000;
      lease->EndWait(t0);
      lease->ReportWindow(lease->depth(), 0);
    }
    EXPECT_EQ(lease->depth(), 4u);  // held: workers are the bottleneck
    EXPECT_EQ(gov.saturation_skips(), 1u);
    sat.Release();
  }
  // Engine drained: the same evidence grows depth again.
  for (int w = 0; w < 2; ++w) {
    uint64_t t0 = lease->BeginWait();
    now += 5000;
    lease->EndWait(t0);
    lease->ReportWindow(lease->depth(), 0);
  }
  EXPECT_EQ(lease->depth(), 8u);
}

TEST(EngineSaturation, ArbiterDeniesStagingGrowsWhileSaturated) {
  MemoryArbiter::Config cfg;
  cfg.budget_bytes = 64 * 4096;
  cfg.block_size = 4096;
  uint64_t now = 0;
  MemoryArbiter arb(cfg, [&now] { return now; });
  IoEngine engine(1);
  arb.AttachEngine(&engine);
  auto staging = arb.LeaseStaging(16);
  {
    EngineSaturator sat(&engine);
    ASSERT_EQ(engine.Headroom(), 0.0);
    EXPECT_EQ(staging->RequestGrow(8), 0u);
    EXPECT_EQ(arb.saturation_denied_grows(), 1u);
    EXPECT_EQ(staging->target_blocks(), 16u);
    sat.Release();
  }
  // Free headroom exists; a drained engine no longer blocks the grow.
  EXPECT_EQ(staging->RequestGrow(8), 8u);
  EXPECT_EQ(staging->target_blocks(), 24u);
}

}  // namespace
}  // namespace vem
