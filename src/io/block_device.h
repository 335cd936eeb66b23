// BlockDevice: the disk abstraction of the Parallel Disk Model.
//
// A device owns a growable set of fixed-size blocks addressed by id.
// Reads and writes transfer whole blocks and are counted in IoStats;
// the counters ARE the cost model. Algorithms never touch bytes on
// "disk" except through Read/Write here (directly, via streams, or via
// the BufferPool), so measured I/O counts are exact.
//
// Two access planes:
//  - the UNCOUNTED plane (*Uncounted) moves bytes without accounting;
//  - the COUNTED plane (Read/Write/ReadBatch/WriteBatch) charges IoStats
//    — the plane every algorithm uses. A counted op IS the uncounted
//    transfer followed, on success, by Account() for the same ids: the
//    base class builds Read/Write that way, so a device writes each
//    transfer once and its accounting once, and the two planes cannot
//    disagree. Read-ahead/write-behind streams split the pair: engine
//    threads perform the transfer early, the consuming thread calls
//    Account() at the moment the synchronous path would have done the
//    I/O. Totals stay bit-identical whether overlap is on or off;
//    speculative blocks that are never consumed are never charged (the
//    PDM prices algorithmic accesses, not hardware prefetches).
#pragma once

#include <cstdint>
#include <memory>
#include <new>

#include "io/io_stats.h"
#include "io/retry_policy.h"
#include "util/status.h"

namespace vem {

class IoEngine;
class PrefetchGovernor;

/// Run `op` under `policy` (or once, when policy is null), reporting
/// every failed attempt to `engine`'s per-disk health monitor under
/// `disk_tag` (when engine is non-null). Defined in retry_policy.cc so
/// this header needs no IoEngine definition. This is the device-side
/// retry shim: it retries only Status::IsTransient() failures, and the
/// health report fires per ATTEMPT — a disk whose faults are papered
/// over by retries still accumulates error evidence. A final
/// Status::IsIOError() result — the retry plane exhausted, or a
/// permanent failure with no retry plane at all — additionally
/// escalates to IoEngine::ReportDiskFailStop: the head's quarantine
/// latches (success evidence no longer clears it) until a rebuild
/// swaps in a spare and ForgetDisk retires the record. Corruption is
/// NOT escalated — it indicts the block's content, not the head.
Status RunWithDiskRetry(RetryPolicy* policy, IoEngine* engine,
                        uint64_t disk_tag, uint64_t key,
                        const std::function<Status()>& op);

/// Memory alignment for I/O buffers. Streams and the buffer pool
/// allocate their block buffers at this bar so devices with strict
/// memory-alignment requirements (FileBlockDevice's O_DIRECT mode) can
/// hand them to the kernel zero-copy instead of bounce-buffering.
inline constexpr size_t kIoMemAlign = 4096;

struct IoBufferDeleter {
  void operator()(char* p) const {
    ::operator delete[](p, std::align_val_t{kIoMemAlign});
  }
};

/// Owning pointer to a kIoMemAlign-aligned char array.
using IoBuffer = std::unique_ptr<char[], IoBufferDeleter>;

/// Allocate `n` bytes aligned to kIoMemAlign; `zeroed` value-initializes.
inline IoBuffer AllocIoBuffer(size_t n, bool zeroed = false) {
  char* p = zeroed ? new (std::align_val_t{kIoMemAlign}) char[n]()
                   : new (std::align_val_t{kIoMemAlign}) char[n];
  return IoBuffer(p);
}

namespace detail {
/// Map the per-algorithm prefetch knob onto the stream-constructor
/// depth-override argument: an unset knob (0) defers to each vector's
/// own prefetch depth (-1) instead of force-disabling overlap on armed
/// inputs. Shared by every layer that threads set_prefetch_depth.
inline int StreamDepth(size_t prefetch_depth) {
  return prefetch_depth == 0 ? -1 : static_cast<int>(prefetch_depth);
}
}  // namespace detail

/// Abstract block-granular storage device with block allocation.
class BlockDevice {
 public:
  virtual ~BlockDevice() = default;

  /// Bytes per block (the PDM B, in bytes).
  virtual size_t block_size() const = 0;

  /// Read block `id` into `buf` (must hold block_size() bytes):
  /// ReadUncounted, then on success the one-id Account. Only a device
  /// without an uncounted plane (DurableBlockDevice, which journals)
  /// overrides it.
  virtual Status Read(uint64_t id, void* buf) {
    VEM_RETURN_IF_ERROR(ReadUncounted(id, buf));
    Account(/*write=*/false, &id, 1);
    return Status::OK();
  }

  /// Write block `id` from `buf` (must hold block_size() bytes):
  /// WriteUncounted, then on success the one-id Account.
  virtual Status Write(uint64_t id, const void* buf) {
    VEM_RETURN_IF_ERROR(WriteUncounted(id, buf));
    Account(/*write=*/true, &id, 1);
    return Status::OK();
  }

  /// Vectored read of `n` blocks: ids[i] -> bufs[i]. The default is the
  /// uncounted per-block loop, then ONE Account over the blocks that
  /// landed — Account(ids, n) on success, so a wrapper charges its inner
  /// device what the deferred plane would (waves included), and a batch
  /// cut short by a failure still charges the prefix that transferred.
  /// Devices with a faster path (preadv coalescing) override it.
  virtual Status ReadBatch(const uint64_t* ids, void* const* bufs, size_t n) {
    size_t done = 0;
    Status s = TransferLoop(/*write=*/false, ids, bufs, n, &done);
    Account(/*write=*/false, ids, done);
    return s;
  }

  /// Vectored write of `n` blocks: bufs[i] -> ids[i]; as ReadBatch.
  virtual Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                            size_t n) {
    size_t done = 0;
    Status s = TransferLoop(/*write=*/true, ids,
                            const_cast<void* const*>(bufs), n, &done);
    Account(/*write=*/true, ids, done);
    return s;
  }

  // ---------------------------------------------------- uncounted plane

  /// True when the *Uncounted transfers below are implemented. Streams
  /// only engage read-ahead/write-behind on such devices.
  virtual bool SupportsUncounted() const { return false; }

  /// True when *Uncounted calls are additionally safe to run on IoEngine
  /// worker threads concurrently with Allocate/Free/metadata work on the
  /// owning thread (transfers touch only immutable or atomic state).
  virtual bool SupportsAsync() const { return false; }

  /// Physical transfer without accounting — the body of the counted
  /// Read/Write too. Devices that return true from SupportsUncounted()
  /// must override; others reject (and must override Read/Write).
  virtual Status ReadUncounted(uint64_t id, void* buf) {
    (void)id, (void)buf;
    return Status::NotSupported("device has no uncounted read path");
  }
  virtual Status WriteUncounted(uint64_t id, const void* buf) {
    (void)id, (void)buf;
    return Status::NotSupported("device has no uncounted write path");
  }

  /// Vectored uncounted transfers; defaults loop over the single-block
  /// forms, overrides coalesce.
  virtual Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                                    size_t n) {
    size_t done = 0;
    return TransferLoop(/*write=*/false, ids, bufs, n, &done);
  }
  virtual Status WriteBatchUncounted(const uint64_t* ids,
                                     const void* const* bufs, size_t n) {
    size_t done = 0;
    return TransferLoop(/*write=*/true, ids, const_cast<void* const*>(bufs),
                        n, &done);
  }

  /// Charge PDM cost for `n` blocks moved on the uncounted plane
  /// (`write` picks the side). The one accounting hook: the counted
  /// single-block ops call it right after their transfer, streams defer
  /// it; call it from the consuming thread only (counters are not
  /// atomic).
  ///
  /// ids == nullptr: the id-less per-block charge — n transfers, n
  /// parallel steps, as if each were a synchronous single-block op.
  /// ids != nullptr: mirrors what this device's counted ReadBatch /
  /// WriteBatch of those ids would have charged. On a single disk that
  /// is the id-less charge; a device with per-block placement
  /// (IndependentDiskDevice) routes each block to its child and charges
  /// one parallel step per wave of distinct disks. A one-id call is
  /// therefore always the synchronous single Read/Write's charge.
  /// Wrappers forward to their inner device and charge themselves per
  /// block.
  virtual void Account(bool write, const uint64_t* ids, uint64_t n) {
    (void)ids;
    stats_.Charge(write, n, n, n * block_size());
  }

  /// Placement route of a block for the PrefetchGovernor: streams tag
  /// their leases with the route of their first block so the governor
  /// can keep per-route (= per-disk on an IndependentDiskDevice) waste
  /// and stall history. 0 — the default for every single-disk or striped
  /// device — is the unrouted bucket.
  virtual uint64_t PrefetchRoute(uint64_t block_id) const {
    (void)block_id;
    return 0;
  }

  // --------------------------------------------------- durability plane

  /// Durability barrier: flush completed writes to the storage medium.
  /// The default is a no-op (RAM devices have nothing to flush);
  /// FileBlockDevice issues fdatasync/fsync, composite devices forward to
  /// every child. Never touches IoStats — durability is not a PDM
  /// transfer.
  virtual Status Sync() { return Status::OK(); }

  /// Log sequence number of the most recent journaled mutation on this
  /// device: 0 on every device without a write-ahead log. A journaling
  /// device (DurableBlockDevice) returns the end-LSN of the last record
  /// it appended; the BufferPool records it per written-back frame so
  /// FlushAll can gate on it.
  virtual uint64_t wal_last_lsn() const { return 0; }

  /// Make the write-ahead log durable through `lsn` (force the log).
  /// No-op without a WAL. This is the page-LSN gate the BufferPool
  /// enforces: a dirty frame does not count as flushed until the log
  /// record holding its content is durable.
  virtual Status EnsureWalDurable(uint64_t lsn) {
    (void)lsn;
    return Status::OK();
  }

  /// IoEngine disk tag of the head that serves `block_id`, for callers
  /// that submit their own per-block jobs (the forecast merge). All
  /// submission paths for one physical disk must share one tag or the
  /// engine's per-disk in-flight cap cannot enforce one transfer per
  /// head; devices that fan out internally (IndependentDiskDevice)
  /// return the owning child's identity — the same tag their own
  /// submissions use. Single-head devices are themselves the head.
  virtual uint64_t EngineDiskTag(uint64_t block_id) const {
    (void)block_id;
    return reinterpret_cast<uintptr_t>(this);
  }

  // ----------------------------------------------------------- plumbing

  /// Allocate a fresh block id (contents undefined until written).
  virtual uint64_t Allocate() = 0;

  /// Return a block id to the free list.
  virtual void Free(uint64_t id) = 0;

  /// Number of live (allocated, not freed) blocks.
  virtual uint64_t num_allocated() const = 0;

  /// Optional worker pool for background transfers. Not owned; must
  /// outlive all I/O on this device. Null means fully synchronous.
  /// Virtual so composite devices (StripedDevice, IndependentDiskDevice)
  /// can forward the engine to the children that execute the physical
  /// transfers — the child is what picks a transport (worker thread vs
  /// the engine's io_uring ring) — and label their disk tags with stable
  /// routes for depth-aware grant shaping.
  IoEngine* io_engine() const { return engine_; }
  virtual void set_io_engine(IoEngine* engine) { engine_ = engine; }

  /// Optional staging-memory governor. When attached, streams on this
  /// device lease their read-ahead/write-behind depth from it instead of
  /// using a fixed K: the governor enforces a global budget and adapts
  /// each stream's depth to its observed overlap benefit (see
  /// prefetch_governor.h). Not owned; must outlive all streams on this
  /// device. Null (the default) keeps fixed-depth behavior. Never affects
  /// IoStats — depth is a wall-clock knob whatever chooses it.
  PrefetchGovernor* prefetch_governor() const { return governor_; }
  void set_prefetch_governor(PrefetchGovernor* governor) {
    governor_ = governor;
  }

  /// Optional transient-fault retry policy (io/retry_policy.h). Not
  /// owned; must outlive all I/O on this device. Null (the default)
  /// disables retrying — every failure propagates on the first attempt,
  /// bit-identical to the pre-retry substrate. Virtual so composite
  /// devices forward it to the children that execute physical transfers
  /// (the granularity where a failed attempt has charged nothing, which
  /// is what makes whole-op re-execution safe for the IoStats planes).
  RetryPolicy* retry_policy() const { return retry_; }
  virtual void set_retry_policy(RetryPolicy* retry) { retry_ = retry; }

  /// I/O accounting for this device.
  IoStats& stats() { return stats_; }
  const IoStats& stats() const { return stats_; }

 protected:
  /// The default batch body: one single-block uncounted transfer per id,
  /// in order, each wrapped in the retry shim (safe: an uncounted attempt
  /// charges nothing, so re-running it cannot double-count). Stops at
  /// the first failure; *done is how many blocks landed before it.
  Status TransferLoop(bool write, const uint64_t* ids, void* const* bufs,
                      size_t n, size_t* done) {
    for (; *done < n; ++*done) {
      const uint64_t id = ids[*done];
      void* buf = bufs[*done];
      auto op = [&] {
        return write ? WriteUncounted(id, buf) : ReadUncounted(id, buf);
      };
      VEM_RETURN_IF_ERROR(retry_ == nullptr
                              ? op()
                              : RunWithDiskRetry(retry_, engine_,
                                                 EngineDiskTag(id), id, op));
    }
    return Status::OK();
  }

  IoStats stats_;
  IoEngine* engine_ = nullptr;
  PrefetchGovernor* governor_ = nullptr;
  RetryPolicy* retry_ = nullptr;
};

/// RAII probe: captures a device's counters on construction; delta() gives
/// the I/O cost of the enclosed code region. Used throughout tests/benches.
class IoProbe {
 public:
  explicit IoProbe(const BlockDevice& dev) : dev_(dev), start_(dev.stats()) {}
  IoStats delta() const { return dev_.stats() - start_; }

 private:
  const BlockDevice& dev_;
  IoStats start_;
};

}  // namespace vem
