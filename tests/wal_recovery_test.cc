// Durability-plane tests: WAL format and manager, group commit,
// DurableBlockDevice journaling + ARIES-lite recovery, the crash-safety
// satellites (sticky errors, fsync/fdatasync split, torn writes), and
// the kill-at-random-point harness that proves the headline claim:
// every acknowledged commit survives SIGKILL bit-identically, every
// unacknowledged one vanishes.
#include <fcntl.h>
#include <gtest/gtest.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <bit>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "io/buffer_pool.h"
#include "io/faulty_device.h"
#include "io/file_block_device.h"
#include "io/memory_block_device.h"
#include "util/options.h"
#include "wal/durable_block_device.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace vem {
namespace {

std::string ScratchPath(const char* name) {
  return std::string("/tmp/vem_wal_") + name + ".bin";
}

void FillBytes(char* buf, size_t n, uint64_t seed) {
  uint64_t x = seed + 0x9E3779B97F4A7C15ull;
  for (size_t i = 0; i < n; ++i) {
    x ^= x >> 12;
    x ^= x << 25;
    x ^= x >> 27;
    buf[i] = static_cast<char>((x * 0x2545F4914F6CDD1Dull) >> 56);
  }
}

// ------------------------------------------------------------- format

TEST(WalFormat, CrcDetectsCorruption) {
  char payload[64];
  FillBytes(payload, sizeof(payload), 7);
  wal::RecordHeader h{};
  h.magic = wal::kWalMagic;
  h.payload_size = sizeof(payload);
  h.type = static_cast<uint32_t>(wal::RecordType::kBlockImage);
  h.lsn = wal::kHeaderSize + sizeof(payload);
  h.txn = 3;
  h.block_id = 9;
  h.crc = wal::RecordCrc(h, payload, sizeof(payload));
  EXPECT_EQ(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
  payload[10] ^= 1;  // payload corruption
  EXPECT_NE(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
  payload[10] ^= 1;
  h.txn ^= 1;  // header corruption
  EXPECT_NE(h.crc, wal::RecordCrc(h, payload, sizeof(payload)));
}

// Bit-at-a-time CRC32 (IEEE 802.3, reflected 0xEDB88320): the
// definition the table-driven Crc32 must reproduce.
uint32_t ReferenceCrc32(uint32_t crc, const void* data, size_t n) {
  const uint8_t* p = static_cast<const uint8_t*>(data);
  uint32_t c = ~crc;
  for (size_t i = 0; i < n; ++i) {
    c ^= p[i];
    for (int k = 0; k < 8; ++k) {
      c = (c >> 1) ^ (0xEDB88320u & (0u - (c & 1u)));
    }
  }
  return ~c;
}

// Every existing log was checksummed with this CRC, so a faster Crc32
// must be the same function, not merely self-consistent.
TEST(WalFormat, Crc32MatchesIeeeReference) {
  EXPECT_EQ(wal::Crc32(0, "123456789", 9), 0xCBF43926u);

  std::vector<char> buf(300 + 8);
  FillBytes(buf.data(), buf.size(), 0x5EED);
  const uint32_t seed_crc = 0x1234ABCDu;
  for (size_t off = 0; off < 8; ++off) {
    for (size_t len = 0; len <= 300; ++len) {
      ASSERT_EQ(wal::Crc32(seed_crc, buf.data() + off, len),
                ReferenceCrc32(seed_crc, buf.data() + off, len))
          << "off=" << off << " len=" << len;
    }
  }

  // Chaining over any split equals one pass over the whole buffer.
  const size_t total = 300;
  const uint32_t whole = wal::Crc32(0, buf.data(), total);
  for (size_t split = 0; split <= total; ++split) {
    uint32_t a = wal::Crc32(0, buf.data(), split);
    ASSERT_EQ(wal::Crc32(a, buf.data() + split, total - split), whole)
        << "split=" << split;
  }

  // Golden record checksum. The header is stored in host byte order, so
  // the constant is the little-endian layout's.
  if constexpr (std::endian::native == std::endian::little) {
    char payload[64];
    for (size_t i = 0; i < sizeof(payload); ++i) {
      payload[i] = static_cast<char>(i * 37 + 11);
    }
    wal::RecordHeader h{};
    h.magic = wal::kWalMagic;
    h.payload_size = sizeof(payload);
    h.type = static_cast<uint32_t>(wal::RecordType::kBlockImage);
    h.lsn = wal::kHeaderSize + sizeof(payload);
    h.txn = 3;
    h.block_id = 9;
    EXPECT_EQ(wal::RecordCrc(h, payload, sizeof(payload)), 0xC3EE16BFu);
  }
}

// ------------------------------------------------- append, scan, reset

TEST(WalManagerTest, AppendFlushScanRoundTrip) {
  MemoryBlockDevice log(256);
  WalManager wal(&log, WalManager::Config{});
  ASSERT_TRUE(wal.valid());

  char payload[100];
  FillBytes(payload, sizeof(payload), 42);
  uint64_t lsn = 0;
  ASSERT_TRUE(wal.Append(wal::RecordType::kBlockImage, /*txn=*/7,
                         /*block_id=*/3, payload, sizeof(payload), &lsn)
                  .ok());
  EXPECT_EQ(lsn, wal::kHeaderSize + sizeof(payload));
  EXPECT_EQ(wal.last_lsn(), lsn);
  EXPECT_EQ(wal.durable_lsn(), 0u);  // append alone is not durable

  ASSERT_TRUE(wal.Commit(7).ok());
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
  EXPECT_GE(wal.fsync_count(), 1u);

  // The scanner sees exactly the two records (pads filtered out).
  wal::WalScanner scan(&log);
  wal::WalRecord rec;
  bool valid = false;
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  ASSERT_TRUE(valid);
  EXPECT_EQ(rec.type(), wal::RecordType::kBlockImage);
  EXPECT_EQ(rec.header.txn, 7u);
  EXPECT_EQ(rec.header.block_id, 3u);
  ASSERT_EQ(rec.payload.size(), sizeof(payload));
  EXPECT_EQ(std::memcmp(rec.payload.data(), payload, sizeof(payload)), 0);
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  ASSERT_TRUE(valid);
  EXPECT_EQ(rec.type(), wal::RecordType::kCommit);
  EXPECT_EQ(rec.header.txn, 7u);
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  EXPECT_FALSE(valid);
  EXPECT_FALSE(scan.torn_tail());
}

TEST(WalManagerTest, ResetTruncatesLog) {
  MemoryBlockDevice log(256);
  WalManager wal(&log, WalManager::Config{});
  char payload[16] = {};
  ASSERT_TRUE(wal.Append(wal::RecordType::kBlockImage, 1, 0, payload,
                         sizeof(payload), nullptr)
                  .ok());
  ASSERT_TRUE(wal.Commit(1).ok());
  ASSERT_TRUE(wal.Reset().ok());
  EXPECT_EQ(wal.last_lsn(), 0u);
  EXPECT_EQ(wal.durable_lsn(), 0u);
  wal::WalScanner scan(&log);
  wal::WalRecord rec;
  bool valid = true;
  ASSERT_TRUE(scan.Next(&rec, &valid).ok());
  EXPECT_FALSE(valid);
  EXPECT_FALSE(scan.torn_tail());
}

// ------------------------------------------------------- group commit

TEST(GroupCommitTest, ConcurrentCommitsShareFsyncs) {
  MemoryBlockDevice log(512);
  WalManager::Config cfg;
  cfg.group_commit_us = 100;  // widen the batch window a little
  WalManager wal(&log, cfg);

  constexpr int kThreads = 8;
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&wal, &failures, t] {
      char payload[32];
      FillBytes(payload, sizeof(payload), t);
      if (!wal.Append(wal::RecordType::kBlockImage, t + 1, t, payload,
                      sizeof(payload), nullptr)
               .ok() ||
          !wal.Commit(t + 1).ok()) {
        failures.fetch_add(1);
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(failures.load(), 0);
  // The batching bound: every commit durable, but between 1 fsync
  // (perfect batch) and kThreads fsyncs (no batching), never more.
  EXPECT_GE(wal.fsync_count(), 1u);
  EXPECT_LE(wal.fsync_count(), static_cast<uint64_t>(kThreads));
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

struct FakeWalClock final : WalClock {
  std::atomic<uint64_t> sleeps{0};
  std::atomic<uint64_t> total_us{0};
  void SleepMicros(uint64_t us) override {
    sleeps.fetch_add(1);
    total_us.fetch_add(us);
  }
};

TEST(GroupCommitTest, WindowRidesInjectedClock) {
  MemoryBlockDevice log(512);
  FakeWalClock clock;
  WalManager::Config cfg;
  cfg.group_commit_us = 5000;
  cfg.clock = &clock;
  WalManager wal(&log, cfg);
  ASSERT_TRUE(wal.Commit(1).ok());
  // The leader waited exactly the configured window — on the fake
  // clock, so the test itself never sleeps.
  EXPECT_GE(clock.sleeps.load(), 1u);
  EXPECT_EQ(clock.total_us.load() / clock.sleeps.load(), 5000u);
  EXPECT_EQ(wal.fsync_count(), 1u);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

// ------------------------------------- FileBlockDevice crash-safety

TEST(FileDeviceDurability, StickyLastErrorOnOpenFailure) {
  FileBlockDevice dev("/vem_no_such_dir_zz9/file.bin", 512);
  EXPECT_FALSE(dev.valid());
  EXPECT_FALSE(dev.last_error().ok());
  // Sticky: still reported later, not cleared by the query.
  EXPECT_FALSE(dev.last_error().ok());
}

TEST(FileDeviceDurability, FsyncForGrowthFdatasyncForOverwrite) {
  FileBlockDevice dev(ScratchPath("syncsplit"), 512);
  ASSERT_TRUE(dev.valid());
  std::vector<char> buf(512);
  FillBytes(buf.data(), buf.size(), 1);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  // First barrier after an append: the file grew, full fsync required
  // (file-length metadata must be durable too).
  ASSERT_TRUE(dev.Sync().ok());
  EXPECT_EQ(dev.full_syncs(), 1u);
  EXPECT_EQ(dev.data_syncs(), 0u);
  // Overwrite in place: no growth, the cheaper fdatasync suffices.
  ASSERT_TRUE(dev.Write(id, buf.data()).ok());
  ASSERT_TRUE(dev.Sync().ok());
  EXPECT_EQ(dev.full_syncs(), 1u);
  EXPECT_EQ(dev.data_syncs(), 1u);
  EXPECT_TRUE(dev.last_error().ok());
}

// --------------------------------------------- torn-write recovery

TEST(TornWriteTest, RecoveryKeepsPriorCommitsDropsTornTail) {
  MemoryBlockDevice logmem(512);
  FaultyBlockDevice faultylog(&logmem);
  WalManager wal(&faultylog, WalManager::Config{});
  MemoryBlockDevice data(512);
  DurableBlockDevice dev(&data, &wal);
  ASSERT_TRUE(dev.valid());

  std::vector<char> img_a(512), img_b(512);
  FillBytes(img_a.data(), img_a.size(), 0xA);
  FillBytes(img_b.data(), img_b.size(), 0xB);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, img_a.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());

  // Tear the NEXT log write mid-block: 100 bytes of new content land,
  // the tail keeps stale bytes, and the device reports the crash.
  faultylog.SetTornWrite(faultylog.writes_seen() + 1, 100);
  ASSERT_TRUE(dev.Write(id, img_b.data()).ok());
  EXPECT_FALSE(dev.Commit().ok());

  // Recover from the raw log medium into a fresh data device: the CRC
  // scan must stop at the torn record, keep txn 1, and drop txn 2.
  WalManager wal2(&logmem, WalManager::Config{});
  MemoryBlockDevice data2(512);
  RecoveryResult res;
  ASSERT_TRUE(RecoverWal(&wal2, &data2, &res).ok());
  EXPECT_TRUE(res.torn_tail);
  EXPECT_EQ(res.committed_txns, 1u);
  EXPECT_EQ(res.redone_blocks, 1u);
  std::vector<char> got(512);
  ASSERT_TRUE(data2.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img_a.data(), 512), 0);
}

// Copy of blocks [0, nblocks) of `src`, with blocks >= `keep` zeroed.
std::unique_ptr<MemoryBlockDevice> CopyPrefix(BlockDevice& src,
                                              uint64_t nblocks,
                                              uint64_t keep) {
  const size_t B = src.block_size();
  auto dst = std::make_unique<MemoryBlockDevice>(B);
  std::vector<char> buf(B);
  for (uint64_t b = 0; b < nblocks; ++b) {
    EXPECT_EQ(dst->Allocate(), b);
    if (b < keep) {
      EXPECT_TRUE(src.Read(b, buf.data()).ok());
    } else {
      std::fill(buf.begin(), buf.end(), 0);
    }
    EXPECT_TRUE(dst->Write(b, buf.data()).ok());
  }
  return dst;
}

// A log flush reaches the device as one vectored write, so no crash
// point falls between its blocks. Cover those states directly: a crash
// that persisted only the first blocks of a multi-block flush (every
// block boundary inside it) recovers to the state before that flush.
TEST(TornWriteTest, CrashInsideMultiBlockFlushKeepsOnlyPriorCommit) {
  constexpr size_t B = 512;
  MemoryBlockDevice logmem(B);
  WalManager wal(&logmem, WalManager::Config{});
  MemoryBlockDevice data(B);
  DurableBlockDevice dev(&data, &wal);
  ASSERT_TRUE(dev.valid());

  std::vector<char> img_a(B);
  FillBytes(img_a.data(), B, 0xA);
  const uint64_t id1 = dev.Allocate();
  ASSERT_TRUE(dev.Write(id1, img_a.data()).ok());
  ASSERT_TRUE(dev.Commit().ok());
  const uint64_t first = wal.durable_lsn() / B;  // txn 2's first log block
  const uint64_t data_blocks = data.num_allocated();

  // Txn 2 overwrites id1 and fills two new blocks: three 552-byte image
  // records, so its one commit flush spans at least three log blocks.
  const std::vector<uint64_t> ids2 = {id1, dev.Allocate(), dev.Allocate()};
  std::vector<std::vector<char>> imgs2(ids2.size(), std::vector<char>(B));
  for (size_t i = 0; i < ids2.size(); ++i) {
    FillBytes(imgs2[i].data(), B, 0xB0 + i);
    ASSERT_TRUE(dev.Write(ids2[i], imgs2[i].data()).ok());
  }
  ASSERT_TRUE(dev.Commit().ok());
  const uint64_t end = wal.durable_lsn() / B;
  ASSERT_GE(end - first, 3u);

  std::vector<char> got(B);
  for (uint64_t k = first; k < end; ++k) {
    SCOPED_TRACE(testing::Message() << "log blocks >= " << k << " zeroed");
    auto log_k = CopyPrefix(logmem, end, k);
    // The data device as txn 2's flush found it: txn 1 applied.
    auto data_k = CopyPrefix(data, data_blocks, data_blocks);
    WalManager wal_k(log_k.get(), WalManager::Config{});
    RecoveryResult res;
    ASSERT_TRUE(RecoverWal(&wal_k, data_k.get(), &res).ok());
    EXPECT_EQ(res.committed_txns, 1u);
    EXPECT_EQ(res.next_block_id, id1 + 1);  // txn 2's allocations vanish
    ASSERT_TRUE(data_k->Read(id1, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), img_a.data(), B), 0);
    for (size_t i = 1; i < ids2.size(); ++i) {
      if (ids2[i] >= data_k->num_allocated()) continue;  // never applied
      ASSERT_TRUE(data_k->Read(ids2[i], got.data()).ok());
      EXPECT_TRUE(std::all_of(got.begin(), got.end(),
                              [](char c) { return c == 0; }));
    }
  }
}

// ------------------------------------ DurableBlockDevice semantics

TEST(DurableDeviceTest, OverlayServesUncommittedCommitApplies) {
  MemoryBlockDevice logdev(512), datadev(512);
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid());

  std::vector<char> img(512), got(512);
  FillBytes(img.data(), img.size(), 5);
  uint64_t id = dev.Allocate();
  ASSERT_TRUE(dev.Write(id, img.data()).ok());
  EXPECT_EQ(dev.pending_blocks(), 1u);
  // The uncommitted image is readable through the wrapper...
  ASSERT_TRUE(dev.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  // ...but has not touched the data device at all (no-steal: the inner
  // device does not even hold the block yet).
  EXPECT_EQ(datadev.num_allocated(), 0u);

  ASSERT_TRUE(dev.Commit().ok());
  EXPECT_EQ(dev.pending_blocks(), 0u);
  ASSERT_TRUE(datadev.Read(id, got.data()).ok());
  EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

TEST(DurableDeviceTest, UncommittedWritesVanishAcrossReopen) {
  const std::string base = ScratchPath("reopen");
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  Options opts;
  opts.block_size = 512;
  opts.enable_wal = true;

  std::vector<char> committed(512), uncommitted(512), got(512);
  FillBytes(committed.data(), committed.size(), 0xC0);
  FillBytes(uncommitted.data(), uncommitted.size(), 0xDE);
  uint64_t id;
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();
    id = st.device->Allocate();
    ASSERT_TRUE(st.device->Write(id, committed.data()).ok());
    ASSERT_TRUE(st.device->Commit().ok());
    // Journaled but never committed: must not survive.
    ASSERT_TRUE(st.device->Write(id, uncommitted.data()).ok());
  }  // abandoned without Commit — the "crash"
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();
    ASSERT_TRUE(st.device->Read(id, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), committed.data(), 512), 0);
    EXPECT_EQ(st.device->num_allocated(), 1u);
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
}

TEST(DurableDeviceTest, AllocationMapSurvivesReopen) {
  const std::string base = ScratchPath("allocmap");
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  Options opts;
  opts.block_size = 512;
  opts.enable_wal = true;

  std::vector<char> img(512), got(512);
  FillBytes(img.data(), img.size(), 3);
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid());
    uint64_t a = st.device->Allocate();
    uint64_t b = st.device->Allocate();
    uint64_t c = st.device->Allocate();
    EXPECT_EQ(a, 0u);
    EXPECT_EQ(b, 1u);
    EXPECT_EQ(c, 2u);
    ASSERT_TRUE(st.device->Write(c, img.data()).ok());
    ASSERT_TRUE(st.device->Commit().ok());
    st.device->Free(b);
    ASSERT_TRUE(st.device->Commit().ok());
  }
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid());
    EXPECT_EQ(st.device->num_allocated(), 2u);
    // The freed id is reused, not leaked.
    EXPECT_EQ(st.device->Allocate(), 1u);
    ASSERT_TRUE(st.device->Read(2, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
}

// ------------------------------------------------------ WAL off

// With the WAL off there is nothing to journal: DurableStorage stands up
// only the data file, a scratch file the caller drives directly.
TEST(DurableDeviceTest, WalOffBuildsOnlyScratchData) {
  const std::string base = ScratchPath("waloff");
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  Options opts;
  opts.block_size = 512;
  opts.enable_wal = false;

  std::vector<char> img(512), got(512);
  FillBytes(img.data(), img.size(), 5);
  {
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();
    EXPECT_EQ(st.wal, nullptr);
    EXPECT_EQ(st.device, nullptr);
    ASSERT_NE(st.data, nullptr);
    uint64_t id = st.data->Allocate();
    ASSERT_TRUE(st.data->Write(id, img.data()).ok());
    ASSERT_TRUE(st.data->Read(id, got.data()).ok());
    EXPECT_EQ(std::memcmp(got.data(), img.data(), 512), 0);
    EXPECT_EQ(access(base.c_str(), F_OK), 0);
    EXPECT_NE(access((base + ".wal").c_str(), F_OK), 0);
  }
  EXPECT_NE(access(base.c_str(), F_OK), 0) << "scratch data is unlinked";
  EXPECT_NE(access((base + ".wal").c_str(), F_OK), 0);
}

// ---------------------------------------- BufferPool page-LSN gate

TEST(BufferPoolWalTest, FlushAllForcesJournalDurability) {
  MemoryBlockDevice logdev(512), datadev(512);
  WalManager wal(&logdev, WalManager::Config{});
  DurableBlockDevice dev(&datadev, &wal);
  ASSERT_TRUE(dev.valid());
  const uint64_t baseline = wal.durable_lsn();

  BufferPool pool(&dev, 4);
  uint64_t id;
  char* data;
  ASSERT_TRUE(pool.PinNew(&id, &data).ok());
  FillBytes(data, 512, 9);
  pool.Unpin(id, /*dirty=*/true);
  // Dirty in the pool: nothing journaled or forced yet.
  EXPECT_EQ(wal.durable_lsn(), baseline);

  ASSERT_TRUE(pool.FlushAll().ok());
  // The flush journaled the page image and gated on it: the log is
  // durable through everything the write-back appended.
  EXPECT_GT(wal.last_lsn(), baseline);
  EXPECT_EQ(wal.durable_lsn(), wal.last_lsn());
}

// ------------------------------------------- kill-point harness

// The child runs a deterministic seeded workload against DurableStorage
// and SIGKILLs itself at the Nth instrumented durability event (log
// block write, pre/post fsync, data apply). The parent recovers and
// checks that the surviving state equals the cumulative workload state
// after exactly k commits for some k in [max acked, max started] —
// acked commits durable (durability), unstarted ones absent (no
// phantoms), and never a partial transaction (atomicity).
constexpr size_t kKPBlockSize = 512;
constexpr int kKPBlocks = 6;
constexpr int kKPTxns = 10;

uint64_t Mix(uint64_t a, uint64_t b, uint64_t c) {
  uint64_t x = a * 0x9E3779B97F4A7C15ull + b * 0xBF58476D1CE4E5B9ull +
               c * 0x94D049BB133111EBull + 1;
  x ^= x >> 30;
  x *= 0xBF58476D1CE4E5B9ull;
  x ^= x >> 27;
  return x;
}

bool TxnWritesBlock(uint64_t seed, int t, int b) {
  return b == (t % kKPBlocks) || Mix(seed, t, b) % 3 == 0;
}

void TxnBlockImage(uint64_t seed, int t, int b, char* buf) {
  FillBytes(buf, kKPBlockSize, Mix(seed, t, b));
}

// Expected content of block b after the first k transactions committed.
void ExpectedBlock(uint64_t seed, int k, int b, char* buf) {
  std::memset(buf, 0, kKPBlockSize);
  for (int t = 1; t <= k; ++t) {
    if (TxnWritesBlock(seed, t, b)) TxnBlockImage(seed, t, b, buf);
  }
}

int g_kp_events = 0;
int g_kp_kill_at = 0;
void KillPointHook() {
  if (++g_kp_events == g_kp_kill_at) raise(SIGKILL);
}

void AppendStatusLine(int fd, char tag, int value) {
  char line[32];
  int n = std::snprintf(line, sizeof(line), "%c %d\n", tag, value);
  (void)!write(fd, line, n);
}

// Runs in the forked child; never returns.
[[noreturn]] void KillPointChild(const std::string& base,
                                 const std::string& status_path,
                                 uint64_t seed, int kill_at) {
  int sfd = open(status_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (sfd < 0) _exit(10);
  g_kp_events = 0;
  g_kp_kill_at = kill_at;
  SetWalTestCrashHook(&KillPointHook);
  {
    Options opts;
    opts.block_size = kKPBlockSize;
    opts.enable_wal = true;
    DurableStorage st(base, opts);
    if (!st.valid()) _exit(11);
    for (int b = 0; b < kKPBlocks; ++b) st.device->Allocate();
    std::vector<char> buf(kKPBlockSize);
    for (int t = 1; t <= kKPTxns; ++t) {
      for (int b = 0; b < kKPBlocks; ++b) {
        if (!TxnWritesBlock(seed, t, b)) continue;
        TxnBlockImage(seed, t, b, buf.data());
        if (!st.device->Write(b, buf.data()).ok()) _exit(12);
      }
      AppendStatusLine(sfd, 'S', t);
      if (!st.device->Commit().ok()) _exit(13);
      AppendStatusLine(sfd, 'A', t);
    }
  }
  SetWalTestCrashHook(nullptr);
  AppendStatusLine(sfd, 'E', g_kp_events);
  close(sfd);
  _exit(0);
}

struct ChildOutcome {
  int max_started = 0;
  int max_acked = 0;
  int total_events = -1;  // -1 when the child died before finishing
};

ChildOutcome RunKillPointChild(const std::string& base, uint64_t seed,
                               int kill_at) {
  const std::string status_path = base + ".status";
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  std::remove(status_path.c_str());
  pid_t pid = fork();
  if (pid == 0) KillPointChild(base, status_path, seed, kill_at);
  EXPECT_GT(pid, 0);
  int wstatus = 0;
  waitpid(pid, &wstatus, 0);
  EXPECT_TRUE((WIFSIGNALED(wstatus) && WTERMSIG(wstatus) == SIGKILL) ||
              (WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0))
      << "child ended unexpectedly: status=" << wstatus
      << " seed=" << seed << " kill_at=" << kill_at;
  ChildOutcome out;
  std::ifstream in(status_path);
  std::string tag;
  int value;
  while (in >> tag >> value) {
    if (tag == "S") out.max_started = std::max(out.max_started, value);
    if (tag == "A") out.max_acked = std::max(out.max_acked, value);
    if (tag == "E") out.total_events = value;
  }
  return out;
}

TEST(WalKillPointTest, AckedCommitsSurviveUnackedVanish) {
  const std::string base = ScratchPath("killpoint");
  uint64_t seed = 0xC0FFEE;
  if (const char* s = std::getenv("VEM_WAL_KILL_SEED")) {
    seed = std::strtoull(s, nullptr, 0);
  }
  int points = 100;
  if (const char* p = std::getenv("VEM_WAL_KILL_POINTS")) {
    points = std::atoi(p);
  }

  // Probe run: no kill, count the instrumented events of the workload.
  ChildOutcome probe = RunKillPointChild(base, seed, /*kill_at=*/0);
  ASSERT_GT(probe.total_events, 0) << "seed=" << seed;
  ASSERT_EQ(probe.max_acked, kKPTxns);
  const int total = probe.total_events;
  RecordProperty("kill_point_events", total);
  if (points > total) points = total;

  Options opts;
  opts.block_size = kKPBlockSize;
  opts.enable_wal = true;
  std::vector<char> got(kKPBlockSize), want(kKPBlockSize);

  for (int i = 0; i < points; ++i) {
    // Kill points distributed across the whole event range.
    int kill_at = 1 + static_cast<int>((static_cast<int64_t>(i) * total) /
                                       points);
    SCOPED_TRACE(testing::Message() << "seed=" << seed
                                    << " kill_at=" << kill_at << "/"
                                    << total << " (point " << i << ")");
    ChildOutcome out = RunKillPointChild(base, seed, kill_at);
    ASSERT_LE(out.max_acked, out.max_started);

    // Recover (DurableStorage construction replays the log).
    DurableStorage st(base, opts);
    ASSERT_TRUE(st.valid()) << st.status().ToString();

    // The recovered state must be the cumulative workload state after
    // exactly k commits, for a single k in [max_acked, max_started].
    int matched_k = -1;
    for (int k = out.max_acked; k <= out.max_started && matched_k < 0;
         ++k) {
      bool all = true;
      for (int b = 0; b < kKPBlocks && all; ++b) {
        ExpectedBlock(seed, k, b, want.data());
        ASSERT_TRUE(st.device->Read(b, got.data()).ok());
        all = std::memcmp(got.data(), want.data(), kKPBlockSize) == 0;
      }
      if (all) matched_k = k;
    }
    EXPECT_GE(matched_k, out.max_acked)
        << "recovered state matches no k in [" << out.max_acked << ", "
        << out.max_started << "] — durability or atomicity violated";
  }
  std::remove(base.c_str());
  std::remove((base + ".wal").c_str());
  std::remove((base + ".status").c_str());
}

}  // namespace
}  // namespace vem
