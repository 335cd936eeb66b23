// FileBlockDevice: a real file-backed disk for laptop-scale benchmarks.
//
// Same interface and accounting as MemoryBlockDevice but blocks live in a
// file accessed with pread/pwrite, so wall-clock benchmarks exercise the
// actual storage stack (page cache effects included, as on any laptop).
//
// This device implements the full async surface of BlockDevice:
//  - ReadBatch/WriteBatch coalesce runs of contiguous block ids into
//    single preadv/pwritev calls (one syscall per run instead of one per
//    block — the dominant win for sequential streams);
//  - the uncounted plane is thread-safe against concurrent Allocate/Free
//    on the owning thread (transfers touch only the fd and an atomic
//    bound), so IoEngine workers can run read-ahead/write-behind while
//    the algorithm keeps allocating.
//
// Cold-cache mode (`direct_io`): the file is opened with O_DIRECT so
// every transfer hits the storage device instead of the OS page cache.
// On a warm cache all reads are RAM speed and the async engine's
// compute/transfer overlap is invisible; direct I/O restores real device
// latency so benches measure the engine, not the kernel's caching.
// O_DIRECT demands 512-byte-aligned offsets, lengths, and (conservatively)
// page-aligned memory; the device bounce-buffers unaligned user memory
// and hands aligned contiguous runs straight to the kernel. When the
// filesystem rejects O_DIRECT (EINVAL at open) or block_size is not a
// multiple of 512, the device silently falls back to buffered I/O —
// direct_io_active() reports the outcome. Accounting and the zero-fill
// EOF contract are identical in both modes.
//
// io_uring transport: when the attached IoEngine runs the ring backend
// (Options::io_backend = kIoUring), the batch entry points route through
// the engine's IoRing instead of preadv/pwritev — one SQE per coalesced
// run, all runs of a batch submitted together, so non-contiguous deep
// batches (random reads, forecast waves) are serviced concurrently by the
// kernel. The device registers its fd with the ring on first use and, in
// direct mode, a persistent page-aligned staging buffer as a registered
// buffer for bounce transfers. Runs, charging, EOF zero-fill, and bounce
// semantics are bit-identical to the worker path. A device that
// registered with a ring must be destroyed before that engine.
//
// Crash-safety contract: the constructor fsyncs the parent directory
// after O_CREAT (a crash right after open could otherwise lose the
// directory entry itself — the file's data would be orphaned), Sync()
// distinguishes data-only flushes (fdatasync) from size-changing appends
// that need the full fsync (file-length metadata — the WAL's tail
// growth), and every I/O failure is recorded in a sticky last_error()
// so a destructor-time flush failure is no longer silently swallowed.
#pragma once

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "io/block_device.h"
#include "util/options.h"

namespace vem {

class IoRing;

/// Disk blocks stored in a single file; block id -> byte offset id*B.
class FileBlockDevice final : public BlockDevice {
 public:
  /// Creates/truncates `path`. The file is removed on destruction when
  /// `unlink_on_close` is true (the default; benchmark scratch files).
  /// `direct_io` requests O_DIRECT cold-cache mode (see file comment;
  /// falls back to buffered I/O when unsupported). `sync_on_close` issues
  /// a Sync() barrier before the fd closes. `open_existing` keeps an
  /// existing file's contents instead of truncating and derives the
  /// allocated-block count from its size — the reopen path durable
  /// storage (WAL + data files) uses after a restart.
  FileBlockDevice(std::string path, size_t block_size,
                  bool unlink_on_close = true, bool direct_io = false,
                  bool sync_on_close = false, bool open_existing = false);

  /// Convenience: take block_size, direct_io and sync_on_close from
  /// Options, so the documented machine configuration drives the device
  /// directly.
  FileBlockDevice(std::string path, const Options& opts,
                  bool unlink_on_close = true)
      : FileBlockDevice(std::move(path), opts.block_size, unlink_on_close,
                        opts.direct_io, opts.sync_on_close) {}

  ~FileBlockDevice() override;

  FileBlockDevice(const FileBlockDevice&) = delete;
  FileBlockDevice& operator=(const FileBlockDevice&) = delete;

  /// True if the file was opened successfully; all ops fail otherwise.
  bool valid() const { return fd_ >= 0; }

  /// True when the fd really is in O_DIRECT mode (requested AND the
  /// filesystem + block size allowed it).
  bool direct_io_active() const { return direct_io_active_; }

  /// Durability barrier: flush the backing file, so every completed
  /// write has reached the storage medium, not just the drive's volatile
  /// write cache. O_DIRECT alone does NOT give this — it bypasses the OS
  /// page cache, but the device may still buffer. When writes since the
  /// last barrier extended the file (WAL tail growth), the barrier is a
  /// full fsync so the file-length metadata is durable too; data-only
  /// overwrites take the cheaper fdatasync. Costs one device cache
  /// flush; never touches IoStats (durability is not a PDM transfer).
  Status Sync() override;

  /// First error this device has hit (open, transfer, or sync — including
  /// the destructor's sync_on_close barrier, which has no other way to
  /// report). Sticky: once set it stays, so a swallowed flush failure is
  /// still visible to whoever owns the device. OK when nothing failed.
  Status last_error() const;

  /// Sync() introspection for the fdatasync/fsync split (tests).
  uint64_t full_syncs() const { return full_syncs_.load(); }
  uint64_t data_syncs() const { return data_syncs_.load(); }

  size_t block_size() const override { return block_size_; }
  Status ReadBatch(const uint64_t* ids, void* const* bufs, size_t n) override;
  Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                    size_t n) override;

  bool SupportsUncounted() const override { return true; }
  bool SupportsAsync() const override { return true; }
  Status ReadUncounted(uint64_t id, void* buf) override;
  Status WriteUncounted(uint64_t id, const void* buf) override;
  Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                            size_t n) override;
  Status WriteBatchUncounted(const uint64_t* ids, const void* const* bufs,
                             size_t n) override;

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override { return allocated_; }

 private:
  /// fsync the directory holding path_ so the O_CREAT directory entry is
  /// durable — without it a crash can lose the file itself even after
  /// its data was fsynced. Failures go to the sticky error.
  void SyncParentDir();

  /// Record `s` as the sticky error if none is set yet (first error wins).
  void RecordError(const Status& s);

  /// Note a write covering blocks [first, first+n): Sync() upgrades to a
  /// full fsync when the written extent grew past the last synced one.
  void NoteWrittenExtent(uint64_t first_id, size_t nblocks);

  /// Single-block transfer bodies behind the retry shim: the public
  /// ReadUncounted/WriteUncounted re-run these whole on a transient
  /// failure (a failed attempt charges nothing, and each body resumes
  /// EINTR shorts internally, so whole-body re-execution is idempotent).
  Status ReadUncountedImpl(uint64_t id, void* buf);
  Status WriteUncountedImpl(uint64_t id, const void* buf);

  /// Shared engine for all four batch entry points: splits [ids, ids+n)
  /// into maximal runs of contiguous ids (capped at the iovec limit) and
  /// issues one preadv/pwritev per run. `write` picks the direction;
  /// `counted` charges stats per run exactly as the equivalent loop would.
  Status VectoredTransfer(const uint64_t* ids, void* const* bufs, size_t n,
                          bool write, bool counted);
  /// One coalesced run; zero-fills short reads (see ReadUncounted).
  /// `blocks_completed` reports how many blocks fully transferred, so a
  /// mid-run error still charges the I/O that physically happened.
  Status TransferRun(uint64_t first_id, void* const* bufs, size_t nblocks,
                     bool write, size_t* blocks_completed);

  /// TransferRun for the O_DIRECT fd: one contiguous pread/pwrite per run
  /// (the disk range of contiguous ids is contiguous bytes), straight
  /// into user memory when the run's buffers are one aligned contiguous
  /// region, through a freshly-allocated aligned bounce buffer otherwise.
  /// Allocation is per call, so engine workers stay race-free.
  Status TransferRunDirect(uint64_t first_id, void* const* bufs,
                           size_t nblocks, bool write,
                           size_t* blocks_completed);

  /// VectoredTransfer over the engine's io_uring: same run splitting,
  /// bounds checks, charging, and EOF contract, but every run of the
  /// batch becomes one SQE and the batch submits with one enter. Short
  /// transfers are resumed per run until complete or error.
  Status VectoredTransferRing(IoRing* ring, const uint64_t* ids,
                              void* const* bufs, size_t n, bool write,
                              bool counted);
  /// Register fd_ (and, in direct mode, the persistent staging buffer)
  /// with `ring` once; cheap no-op afterwards.
  void EnsureRingRegistration(IoRing* ring);

  std::string path_;
  size_t block_size_;
  bool unlink_on_close_;
  bool sync_on_close_ = false;
  bool direct_io_active_ = false;
  int fd_ = -1;
  // Atomic so engine-thread bounds checks may race with Allocate: an async
  // transfer submitted before an Allocate never observes a smaller bound.
  std::atomic<uint64_t> next_id_{0};
  std::vector<uint64_t> free_list_;
  uint64_t allocated_ = 0;

  // Sync-barrier bookkeeping (atomics: write paths run on engine threads).
  // written_extent_ is the high-water block count ever written;
  // synced_extent_ is the extent covered by the last successful Sync().
  // written > synced means the file grew since the barrier, so the next
  // Sync() must be a full fsync (size metadata), not just fdatasync.
  std::atomic<uint64_t> written_extent_{0};
  std::atomic<uint64_t> synced_extent_{0};
  std::atomic<uint64_t> full_syncs_{0};
  std::atomic<uint64_t> data_syncs_{0};

  // Sticky first-error status (see last_error()); mutex-guarded because
  // engine workers can fail concurrently.
  mutable std::mutex err_mu_;
  Status last_error_;

  // io_uring transport state. ring_mu_ guards (re)registration; the slots
  // are stable between registrations, so transfer paths read them after
  // EnsureRingRegistration without the lock. staging_mu_ serializes use
  // of the registered direct-I/O staging buffer across engine workers —
  // contenders fall back to per-call bounce allocation.
  std::mutex ring_mu_;
  IoRing* ring_registered_ = nullptr;
  int ring_fd_slot_ = -1;
  IoBuffer ring_staging_;
  size_t ring_staging_bytes_ = 0;
  int ring_buf_slot_ = -1;
  std::mutex staging_mu_;
};

}  // namespace vem
