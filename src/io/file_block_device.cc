#include "io/file_block_device.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/uio.h>
#include <unistd.h>

#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <vector>

#include "io/io_engine.h"
#include "io/io_ring.h"

namespace vem {

namespace {
// Linux guarantees IOV_MAX >= 1024; stay safely below it so one coalesced
// run never exceeds the kernel's iovec limit.
constexpr size_t kMaxIov = 512;

// O_DIRECT alignment contract. Offsets and lengths must be multiples of
// the filesystem's logical block size (512 on everything we target), so
// direct mode only engages when block_size % kDirectFsAlign == 0. User
// memory is held to the kIoMemAlign page bar: stream windows and pool
// frames allocate at that bar (AllocIoBuffer) and go to the kernel
// zero-copy; anything else bounces through an aligned staging buffer.
constexpr size_t kDirectFsAlign = 512;

bool DirectUsable(const void* p) {
  return reinterpret_cast<uintptr_t>(p) % kIoMemAlign == 0;
}

/// True when bufs[0..n) is one contiguous region starting aligned — the
/// shape ExtVector windows and BufferPool frames produce — so the whole
/// run can transfer in place with a single direct pread/pwrite.
bool ContiguousAligned(void* const* bufs, size_t n, size_t block_size) {
  if (!DirectUsable(bufs[0])) return false;
  const char* base = static_cast<const char*>(bufs[0]);
  for (size_t i = 1; i < n; ++i) {
    if (static_cast<const char*>(bufs[i]) != base + i * block_size) {
      return false;
    }
  }
  return true;
}

/// Page-aligned scratch allocation (RAII). Allocated per transfer call so
/// concurrent engine workers never share staging state.
struct AlignedBuffer {
  void* p = nullptr;
  ~AlignedBuffer() { std::free(p); }
  bool Alloc(size_t bytes) {
    return ::posix_memalign(&p, kIoMemAlign, bytes) == 0;
  }
};

// Persistent O_DIRECT bounce staging registered with the engine's ring:
// big enough for a deep prefetch wave (256 blocks at the default B), so
// the common bounce path hits the pinned registered buffer instead of
// get_user_pages on a fresh allocation per transfer.
constexpr size_t kRingStagingBytes = 1u << 20;
}  // namespace

FileBlockDevice::FileBlockDevice(std::string path, size_t block_size,
                                 bool unlink_on_close, bool direct_io,
                                 bool sync_on_close, bool open_existing)
    : path_(std::move(path)),
      block_size_(block_size),
      unlink_on_close_(unlink_on_close),
      sync_on_close_(sync_on_close) {
  const int base_flags = O_RDWR | O_CREAT | (open_existing ? 0 : O_TRUNC);
#ifdef O_DIRECT
  if (direct_io && block_size_ > 0 && block_size_ % kDirectFsAlign == 0) {
    fd_ = ::open(path_.c_str(), base_flags | O_DIRECT, 0644);
    direct_io_active_ = fd_ >= 0;
#ifdef STATX_DIOALIGN
    // The 512-byte heuristic above is the historical floor, but 4Kn
    // drives / filesystems can demand more. Where the kernel reports the
    // real direct-I/O alignment (6.1+), verify our offsets and bounce
    // buffers satisfy it — otherwise transfers would EINVAL at runtime
    // with no recovery, so reopen buffered instead.
    if (direct_io_active_) {
      struct statx stx;
      if (::statx(fd_, "", AT_EMPTY_PATH, STATX_DIOALIGN, &stx) == 0 &&
          (stx.stx_mask & STATX_DIOALIGN) != 0) {
        bool usable = stx.stx_dio_offset_align != 0 &&
                      block_size_ % stx.stx_dio_offset_align == 0 &&
                      stx.stx_dio_mem_align != 0 &&
                      kIoMemAlign % stx.stx_dio_mem_align == 0;
        if (!usable) {
          ::close(fd_);
          fd_ = -1;
          direct_io_active_ = false;
        }
      }
    }
#endif
  }
#else
  (void)direct_io;
#endif
  // Graceful fallback: the filesystem rejected O_DIRECT (tmpfs on older
  // kernels returns EINVAL) or the block size cannot satisfy the
  // alignment contract — run buffered instead.
  if (fd_ < 0) {
    fd_ = ::open(path_.c_str(), base_flags, 0644);
    direct_io_active_ = false;
  }
  if (fd_ < 0) {
    RecordError(StatusFromErrno(("open of " + path_).c_str(), -1, errno));
    return;
  }
  // O_CREAT made the file exist, but only in the directory's in-memory
  // state: until the parent directory itself is fsynced, a crash can
  // lose the directory entry — and with it every durably-written byte
  // inside the file. One barrier per open, on both open paths.
  SyncParentDir();
  if (open_existing && block_size_ > 0) {
    // Adopt the existing contents: the allocated-block count is the file
    // size (every write is a whole block, so sizes are block-aligned;
    // a torn tail from a crashed writer rounds up so it stays readable
    // for recovery's CRC scan to reject).
    struct stat st;
    if (::fstat(fd_, &st) == 0) {
      uint64_t blocks =
          (static_cast<uint64_t>(st.st_size) + block_size_ - 1) / block_size_;
      next_id_.store(blocks, std::memory_order_release);
      allocated_ = blocks;
      // The adopted extent is the durability baseline: Sync() only needs
      // the full fsync once the file grows past it again.
      written_extent_.store(blocks);
      synced_extent_.store(blocks);
    } else {
      RecordError(StatusFromErrno(("fstat of " + path_).c_str(), -1, errno));
    }
  }
}

void FileBlockDevice::SyncParentDir() {
  std::string dir;
  size_t slash = path_.find_last_of('/');
  if (slash == std::string::npos) {
    dir = ".";
  } else if (slash == 0) {
    dir = "/";
  } else {
    dir = path_.substr(0, slash);
  }
  int dfd = ::open(dir.c_str(), O_RDONLY | O_DIRECTORY);
  if (dfd < 0) {
    RecordError(StatusFromErrno(("open of parent dir " + dir).c_str(), -1,
                                errno));
    return;
  }
  if (::fsync(dfd) != 0) {
    RecordError(StatusFromErrno(("fsync of parent dir " + dir).c_str(), -1,
                                errno));
  }
  ::close(dfd);
}

void FileBlockDevice::RecordError(const Status& s) {
  if (s.ok()) return;
  std::lock_guard<std::mutex> lk(err_mu_);
  if (last_error_.ok()) last_error_ = s;
}

Status FileBlockDevice::last_error() const {
  std::lock_guard<std::mutex> lk(err_mu_);
  return last_error_;
}

void FileBlockDevice::NoteWrittenExtent(uint64_t first_id, size_t nblocks) {
  uint64_t end = first_id + nblocks;
  uint64_t cur = written_extent_.load(std::memory_order_relaxed);
  while (end > cur && !written_extent_.compare_exchange_weak(
                          cur, end, std::memory_order_relaxed)) {
  }
}

FileBlockDevice::~FileBlockDevice() {
  if (ring_registered_ != nullptr) {
    // The ring (and its engine) must still be alive here — see the header
    // contract: a registered device is destroyed before its engine.
    if (ring_fd_slot_ >= 0) ring_registered_->UnregisterFd(ring_fd_slot_);
    if (ring_buf_slot_ >= 0) ring_registered_->UnregisterBuffer(ring_buf_slot_);
  }
  if (fd_ >= 0) {
    // Durability before close: without the barrier, timings that end at
    // destruction can be flattered by data still sitting in the drive's
    // write cache (even scratch files — the flush cost is the honest one).
    // A destructor cannot return the failure, but it must not swallow it
    // either: the sticky error records it (queryable while the device
    // lives) and stderr gets one line so a lost flush is never silent.
    if (sync_on_close_) {
      Status s = Sync();
      if (!s.ok()) {
        RecordError(s);
        std::fprintf(stderr, "FileBlockDevice(%s): close-time sync failed: %s\n",
                     path_.c_str(), s.ToString().c_str());
      }
    }
    ::close(fd_);
    if (unlink_on_close_) ::unlink(path_.c_str());
  }
}

Status FileBlockDevice::Sync() {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  // Snapshot the written extent BEFORE the flush: concurrent appends past
  // the snapshot stay un-synced and keep the next barrier full-strength.
  const uint64_t extent = written_extent_.load(std::memory_order_acquire);
  const bool grew = extent > synced_extent_.load(std::memory_order_acquire);
  // Appends change the file size; fdatasync's contract on size metadata
  // is subtle enough across filesystems that a size-changing barrier
  // takes the full fsync. Pure overwrites keep the cheaper fdatasync.
  while ((grew ? ::fsync(fd_) : ::fdatasync(fd_)) != 0) {
    if (errno == EINTR) continue;
    Status s = StatusFromErrno(grew ? "fsync" : "fdatasync", -1, errno);
    RecordError(s);
    return s;
  }
  if (grew) {
    full_syncs_.fetch_add(1);
    // Monotone: a racing Sync may have covered more already.
    uint64_t cur = synced_extent_.load(std::memory_order_relaxed);
    while (extent > cur && !synced_extent_.compare_exchange_weak(
                               cur, extent, std::memory_order_release)) {
    }
  } else {
    data_syncs_.fetch_add(1);
  }
  return Status::OK();
}

Status FileBlockDevice::ReadUncounted(uint64_t id, void* buf) {
  if (retry_ == nullptr) return ReadUncountedImpl(id, buf);
  return RunWithDiskRetry(retry_, engine_, EngineDiskTag(id), id,
                          [&] { return ReadUncountedImpl(id, buf); });
}

Status FileBlockDevice::WriteUncounted(uint64_t id, const void* buf) {
  if (retry_ == nullptr) return WriteUncountedImpl(id, buf);
  return RunWithDiskRetry(retry_, engine_, EngineDiskTag(id), id,
                          [&] { return WriteUncountedImpl(id, buf); });
}

Status FileBlockDevice::ReadUncountedImpl(uint64_t id, void* buf) {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  if (id >= next_id_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("read of unallocated block " +
                                   std::to_string(id));
  }
  if (direct_io_active_) {
    size_t completed = 0;
    return TransferRunDirect(id, &buf, 1, /*write=*/false, &completed);
  }
  size_t got = 0;
  while (got < block_size_) {
    ssize_t n = ::pread(fd_, static_cast<char*>(buf) + got, block_size_ - got,
                        static_cast<off_t>(id * block_size_ + got));
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno(
          "pread", static_cast<int64_t>(id * block_size_ + got), errno);
    }
    if (n == 0) break;  // EOF: allocated but never written
    got += static_cast<size_t>(n);
  }
  // Allocated-but-never-written blocks live past EOF (or in a hole) and
  // read short; define them as zero so Allocate -> Read behaves like
  // MemoryBlockDevice's zeroed PinNew path.
  if (got < block_size_) {
    std::memset(static_cast<char*>(buf) + got, 0, block_size_ - got);
  }
  return Status::OK();
}

Status FileBlockDevice::WriteUncountedImpl(uint64_t id, const void* buf) {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  if (id >= next_id_.load(std::memory_order_acquire)) {
    return Status::InvalidArgument("write of unallocated block " +
                                   std::to_string(id));
  }
  if (direct_io_active_) {
    void* b = const_cast<void*>(buf);
    size_t completed = 0;
    return TransferRunDirect(id, &b, 1, /*write=*/true, &completed);
  }
  size_t put = 0;
  while (put < block_size_) {
    ssize_t n = ::pwrite(fd_, static_cast<const char*>(buf) + put,
                         block_size_ - put,
                         static_cast<off_t>(id * block_size_ + put));
    if (n < 0) {
      if (errno == EINTR) continue;
      return StatusFromErrno(
          "pwrite", static_cast<int64_t>(id * block_size_ + put), errno);
    }
    put += static_cast<size_t>(n);
  }
  NoteWrittenExtent(id, 1);
  return Status::OK();
}

Status FileBlockDevice::TransferRun(uint64_t first_id, void* const* bufs,
                                    size_t nblocks, bool write,
                                    size_t* blocks_completed) {
  if (direct_io_active_) {
    return TransferRunDirect(first_id, bufs, nblocks, write,
                             blocks_completed);
  }
  struct iovec iov[kMaxIov];
  for (size_t i = 0; i < nblocks; ++i) {
    iov[i].iov_base = bufs[i];
    iov[i].iov_len = block_size_;
  }
  size_t total = nblocks * block_size_;
  size_t done = 0;
  *blocks_completed = 0;
  while (done < total) {
    size_t skip_iov = done / block_size_;
    size_t skip_bytes = done % block_size_;
    struct iovec head = iov[skip_iov];
    head.iov_base = static_cast<char*>(head.iov_base) + skip_bytes;
    head.iov_len -= skip_bytes;
    struct iovec saved = iov[skip_iov];
    iov[skip_iov] = head;
    off_t off = static_cast<off_t>(first_id * block_size_ + done);
    ssize_t n = write ? ::pwritev(fd_, iov + skip_iov,
                                  static_cast<int>(nblocks - skip_iov), off)
                      : ::preadv(fd_, iov + skip_iov,
                                 static_cast<int>(nblocks - skip_iov), off);
    iov[skip_iov] = saved;
    if (n < 0) {
      if (errno == EINTR) continue;
      // Blocks fully transferred before the error were real I/O and get
      // charged, exactly as the per-block loop would have counted them.
      *blocks_completed = done / block_size_;
      if (write) NoteWrittenExtent(first_id, *blocks_completed);
      return StatusFromErrno(write ? "pwritev" : "preadv",
                             static_cast<int64_t>(off), errno);
    }
    if (n == 0) {
      if (write) {
        *blocks_completed = done / block_size_;
        return Status::IOError("pwritev wrote nothing");
      }
      break;  // EOF on read: remainder is allocated-but-unwritten space
    }
    done += static_cast<size_t>(n);
  }
  if (!write && done < total) {
    // Zero-fill the unread tail, same contract as ReadUncounted.
    for (size_t i = done / block_size_; i < nblocks; ++i) {
      size_t start = (i == done / block_size_) ? done % block_size_ : 0;
      std::memset(static_cast<char*>(bufs[i]) + start, 0,
                  block_size_ - start);
    }
  }
  *blocks_completed = nblocks;
  if (write) NoteWrittenExtent(first_id, nblocks);
  return Status::OK();
}

Status FileBlockDevice::TransferRunDirect(uint64_t first_id,
                                          void* const* bufs, size_t nblocks,
                                          bool write,
                                          size_t* blocks_completed) {
  *blocks_completed = 0;
  const size_t total = nblocks * block_size_;
  const off_t base_off = static_cast<off_t>(first_id * block_size_);
  AlignedBuffer bounce;
  const bool in_place = ContiguousAligned(bufs, nblocks, block_size_);
  char* target;
  if (in_place) {
    target = static_cast<char*>(bufs[0]);
  } else {
    if (!bounce.Alloc(total)) {
      return Status::IOError("posix_memalign failed for direct I/O bounce");
    }
    target = static_cast<char*>(bounce.p);
    if (write) {
      for (size_t i = 0; i < nblocks; ++i) {
        std::memcpy(target + i * block_size_, bufs[i], block_size_);
      }
    }
  }
  // Direct transfers advance in multiples of kDirectFsAlign (file sizes
  // are block-aligned because every write is a whole block), so resuming
  // at `done` keeps offset, length, and memory address aligned.
  size_t done = 0;
  while (done < total) {
    ssize_t n = write ? ::pwrite(fd_, target + done, total - done,
                                 base_off + static_cast<off_t>(done))
                      : ::pread(fd_, target + done, total - done,
                                base_off + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      *blocks_completed = done / block_size_;
      if (write) NoteWrittenExtent(first_id, *blocks_completed);
      if (!write && !in_place) {
        // Deliver the blocks that fully transferred, like preadv would.
        for (size_t i = 0; i < *blocks_completed; ++i) {
          std::memcpy(bufs[i], target + i * block_size_, block_size_);
        }
      }
      return StatusFromErrno(write ? "pwrite (O_DIRECT)" : "pread (O_DIRECT)",
                             base_off + static_cast<int64_t>(done), errno);
    }
    if (n == 0) {
      if (write) {
        *blocks_completed = done / block_size_;
        return Status::IOError("pwrite (O_DIRECT) wrote nothing");
      }
      break;  // EOF on read: remainder is allocated-but-unwritten space
    }
    done += static_cast<size_t>(n);
  }
  if (!write) {
    if (done < total) {
      // Zero-fill the unread tail, same contract as the buffered path.
      std::memset(target + done, 0, total - done);
    }
    if (!in_place) {
      for (size_t i = 0; i < nblocks; ++i) {
        std::memcpy(bufs[i], target + i * block_size_, block_size_);
      }
    }
  }
  *blocks_completed = nblocks;
  if (write) NoteWrittenExtent(first_id, nblocks);
  return Status::OK();
}

Status FileBlockDevice::VectoredTransfer(const uint64_t* ids,
                                         void* const* bufs, size_t n,
                                         bool write, bool counted) {
  if (fd_ < 0) return Status::IOError("device not open: " + path_);
  if (n == 0) return Status::OK();
  IoRing* ring = engine_ != nullptr ? engine_->ring() : nullptr;
  if (ring != nullptr) {
    return VectoredTransferRing(ring, ids, bufs, n, write, counted);
  }
  const uint64_t bound = next_id_.load(std::memory_order_acquire);
  size_t i = 0;
  while (i < n) {
    if (ids[i] >= bound) {
      return Status::InvalidArgument(
          std::string(write ? "write" : "read") + " of unallocated block " +
          std::to_string(ids[i]));
    }
    // Extend the run while ids stay contiguous (and allocated).
    size_t len = 1;
    while (i + len < n && len < kMaxIov && ids[i + len] == ids[i] + len &&
           ids[i + len] < bound) {
      len++;
    }
    size_t completed = 0;
    // Whole-run retry on transient failure: each attempt resets
    // `completed`, and charging below uses only the FINAL attempt's
    // count, so a retried run charges exactly what the fault-free
    // sequential loop would have.
    Status s;
    if (retry_ == nullptr) {
      s = TransferRun(ids[i], bufs + i, len, write, &completed);
    } else {
      s = RunWithDiskRetry(retry_, engine_, EngineDiskTag(ids[i]), ids[i],
                           [&, i, len] {
                             completed = 0;
                             return TransferRun(ids[i], bufs + i, len, write,
                                                &completed);
                           });
    }
    if (counted && completed > 0) {
      // Same charge as `completed` single-block ops: this is still one
      // disk moving blocks, not a parallel step; on a mid-run error only
      // the blocks that physically transferred are charged, exactly like
      // the equivalent loop.
      Account(write, nullptr, completed);
    }
    VEM_RETURN_IF_ERROR(s);
    i += len;
  }
  return Status::OK();
}

void FileBlockDevice::EnsureRingRegistration(IoRing* ring) {
  std::lock_guard<std::mutex> lk(ring_mu_);
  if (ring_registered_ == ring) return;
  if (ring_registered_ != nullptr) {
    if (ring_fd_slot_ >= 0) ring_registered_->UnregisterFd(ring_fd_slot_);
    if (ring_buf_slot_ >= 0) ring_registered_->UnregisterBuffer(ring_buf_slot_);
    ring_fd_slot_ = -1;
    ring_buf_slot_ = -1;
  }
  ring_registered_ = ring;
  ring_fd_slot_ = ring->RegisterFd(fd_);
  if (direct_io_active_) {
    if (!ring_staging_) {
      ring_staging_ = AllocIoBuffer(kRingStagingBytes);
      ring_staging_bytes_ = ring_staging_ ? kRingStagingBytes : 0;
    }
    if (ring_staging_) {
      ring_buf_slot_ =
          ring->RegisterBuffer(ring_staging_.get(), ring_staging_bytes_);
    }
  }
}

Status FileBlockDevice::VectoredTransferRing(IoRing* ring, const uint64_t* ids,
                                             void* const* bufs, size_t n,
                                             bool write, bool counted) {
  EnsureRingRegistration(ring);
  const uint64_t bound = next_id_.load(std::memory_order_acquire);

  // Pass 1: split the batch into coalesced runs exactly like the worker
  // path. An unallocated id ends the valid prefix; the runs before it
  // still transfer and charge (the sequential loop would have issued
  // them before hitting the bad id), then the precheck error returns.
  struct RingRun {
    size_t first = 0;     // index into ids/bufs
    uint64_t first_id = 0;
    size_t nblocks = 0;
    size_t total = 0;     // bytes
    size_t done = 0;
    size_t completed_blocks = 0;
    size_t attempts = 0;  // transient-retry budget consumed (policy-bounded)
    bool finished = false;
    Status error = Status::OK();
    // Direct-mode target: user memory (in_place), a slice of the
    // registered staging buffer (buf_index >= 0), or a per-call bounce.
    bool in_place = false;
    char* target = nullptr;
    int buf_index = -1;
    size_t iov_off = 0;  // buffered: first iovec in the arena
  };
  std::vector<RingRun> runs;
  Status precheck = Status::OK();
  size_t valid_blocks = 0;
  {
    size_t i = 0;
    while (i < n) {
      if (ids[i] >= bound) {
        precheck = Status::InvalidArgument(
            std::string(write ? "write" : "read") + " of unallocated block " +
            std::to_string(ids[i]));
        break;
      }
      size_t len = 1;
      while (i + len < n && len < kMaxIov && ids[i + len] == ids[i] + len &&
             ids[i + len] < bound) {
        len++;
      }
      RingRun r;
      r.first = i;
      r.first_id = ids[i];
      r.nblocks = len;
      r.total = len * block_size_;
      runs.push_back(r);
      valid_blocks += len;
      i += len;
    }
  }
  if (runs.empty()) return precheck;

  // Pass 2: stage targets. Buffered runs get iovecs over user memory;
  // direct runs transfer in place when contiguous-aligned, else bounce —
  // preferring a slice of the registered staging buffer (one contender
  // at a time; others fall back to per-call aligned allocations).
  std::vector<struct iovec> iov_arena;
  std::deque<AlignedBuffer> bounces;
  std::unique_lock<std::mutex> staging_lock(staging_mu_, std::defer_lock);
  char* staging = nullptr;
  size_t staging_left = 0;
  size_t staging_off = 0;
  if (direct_io_active_) {
    if (ring_buf_slot_ >= 0 && staging_lock.try_lock()) {
      staging = ring_staging_.get();
      staging_left = ring_staging_bytes_;
    }
  } else {
    iov_arena.resize(valid_blocks);
  }
  size_t next_iov = 0;
  for (RingRun& r : runs) {
    if (!direct_io_active_) {
      r.iov_off = next_iov;
      next_iov += r.nblocks;
      for (size_t k = 0; k < r.nblocks; ++k) {
        iov_arena[r.iov_off + k].iov_base = bufs[r.first + k];
        iov_arena[r.iov_off + k].iov_len = block_size_;
      }
      continue;
    }
    if (ContiguousAligned(bufs + r.first, r.nblocks, block_size_)) {
      r.in_place = true;
      r.target = static_cast<char*>(bufs[r.first]);
    } else if (staging != nullptr && r.total <= staging_left) {
      r.target = staging + staging_off;
      r.buf_index = ring_buf_slot_;
      staging_off += r.total;
      staging_left -= r.total;
    } else {
      bounces.emplace_back();
      if (!bounces.back().Alloc(r.total)) {
        return Status::IOError("posix_memalign failed for direct I/O bounce");
      }
      r.target = static_cast<char*>(bounces.back().p);
    }
    if (write && !r.in_place) {
      for (size_t k = 0; k < r.nblocks; ++k) {
        std::memcpy(r.target + k * block_size_, bufs[r.first + k],
                    block_size_);
      }
    }
  }

  // Pass 3: submit every unfinished run as one SQE, all runs in one
  // io_uring_enter, and resume shorts until each run is terminal. EOF
  // and partial-transfer rules match TransferRun/TransferRunDirect.
  std::vector<IoRing::Op> ops;
  std::vector<size_t> op_run;
  bool pending = true;
  while (pending) {
    pending = false;
    ops.clear();
    op_run.clear();
    for (size_t ri = 0; ri < runs.size(); ++ri) {
      RingRun& r = runs[ri];
      if (r.finished || !r.error.ok()) continue;
      IoRing::Op op;
      op.fd = fd_;
      op.fixed_fd = ring_fd_slot_;
      op.write = write;
      op.offset = r.first_id * block_size_ + r.done;
      if (direct_io_active_) {
        op.buf = r.target + r.done;
        op.len = r.total - r.done;
        op.buf_index = r.buf_index;
      } else {
        // Rebuild the head iovec for the resume offset; earlier entries
        // of this run's arena slice are fully consumed and never reused.
        size_t skip_iov = r.done / block_size_;
        size_t skip_bytes = r.done % block_size_;
        iov_arena[r.iov_off + skip_iov].iov_base =
            static_cast<char*>(bufs[r.first + skip_iov]) + skip_bytes;
        iov_arena[r.iov_off + skip_iov].iov_len = block_size_ - skip_bytes;
        op.iov = iov_arena.data() + r.iov_off + skip_iov;
        op.iovcnt = static_cast<unsigned>(r.nblocks - skip_iov);
      }
      ops.push_back(op);
      op_run.push_back(ri);
    }
    if (ops.empty()) break;
    Status s = ring->SubmitAndWait(ops.data(), ops.size());
    if (engine_ != nullptr) engine_->ReportRingResult(s.ok());
    if (!s.ok()) {
      // Ring submission itself failed. Instead of failing the batch,
      // degrade live: finish every in-flight run on the worker-pool
      // syscall path (idempotent — runs restart from offset 0, and
      // charging uses only the final completed count). The engine's
      // ReportRingResult above counts the strike; after
      // kRingFailureLimit consecutive failures ring() goes null and the
      // whole stack drops to preadv/pwritev for good.
      for (size_t oi = 0; oi < ops.size(); ++oi) {
        RingRun& r = runs[op_run[oi]];
        size_t completed = 0;
        Status fs;
        if (retry_ == nullptr) {
          fs = TransferRun(r.first_id, bufs + r.first, r.nblocks, write,
                           &completed);
        } else {
          fs = RunWithDiskRetry(retry_, engine_, EngineDiskTag(r.first_id),
                                r.first_id, [&] {
                                  completed = 0;
                                  return TransferRun(r.first_id,
                                                     bufs + r.first, r.nblocks,
                                                     write, &completed);
                                });
        }
        r.completed_blocks = completed;
        // TransferRun delivered straight into user memory; flag the run
        // in-place so pass 4 does not overwrite it from the (stale)
        // ring bounce target.
        r.in_place = true;
        if (fs.ok()) {
          r.finished = true;
        } else {
          r.error = fs;
        }
      }
      break;
    }
    for (size_t oi = 0; oi < ops.size(); ++oi) {
      RingRun& r = runs[op_run[oi]];
      ssize_t res = ops[oi].res;
      if (res == -EINTR || res == -EAGAIN) {
        pending = true;  // retry from the same offset
        continue;
      }
      if (res < 0) {
        Status e = StatusFromErrno(
            write ? "ring write" : "ring read",
            static_cast<int64_t>(r.first_id * block_size_ + r.done),
            static_cast<int>(-res));
        // Transiently failed SQE: back off and resubmit from the run's
        // resume offset (bounded by the policy's retry budget), feeding
        // the per-disk health record like every other retried attempt.
        if (e.IsTransient() && retry_ != nullptr &&
            r.attempts < retry_->config().retry_limit) {
          r.attempts++;
          if (engine_ != nullptr) {
            engine_->ReportDiskResult(EngineDiskTag(r.first_id), false, 0);
          }
          retry_->OnRetry(r.first_id, r.attempts);
          pending = true;
          continue;
        }
        r.completed_blocks = r.done / block_size_;
        r.error = std::move(e);
        continue;
      }
      if (res == 0) {
        if (write) {
          r.completed_blocks = r.done / block_size_;
          r.error = Status::IOError("ring write wrote nothing");
          continue;
        }
        // EOF on read: the remainder is allocated-but-unwritten space.
        if (direct_io_active_) {
          std::memset(r.target + r.done, 0, r.total - r.done);
        } else {
          for (size_t k = r.done / block_size_; k < r.nblocks; ++k) {
            size_t start = (k == r.done / block_size_) ? r.done % block_size_
                                                       : 0;
            std::memset(static_cast<char*>(bufs[r.first + k]) + start, 0,
                        block_size_ - start);
          }
        }
        r.finished = true;
        r.completed_blocks = r.nblocks;
        continue;
      }
      r.done += static_cast<size_t>(res);
      if (r.done >= r.total) {
        r.finished = true;
        r.completed_blocks = r.nblocks;
      } else {
        pending = true;
      }
    }
  }

  // Pass 4: deliver direct-mode bounce reads, charge, and report. Charge
  // per run in batch order (counted plane only), exactly the sequential
  // loop's per-run id-less Account; the first failed run's
  // status wins, then the precheck error for the invalid tail.
  Status fail = Status::OK();
  for (RingRun& r : runs) {
    if (write && r.completed_blocks > 0) {
      NoteWrittenExtent(r.first_id, r.completed_blocks);
    }
    if (direct_io_active_ && !write && !r.in_place) {
      for (size_t k = 0; k < r.completed_blocks; ++k) {
        std::memcpy(bufs[r.first + k], r.target + k * block_size_,
                    block_size_);
      }
    }
    if (counted && r.completed_blocks > 0) {
      Account(write, nullptr, r.completed_blocks);
    }
    if (fail.ok() && !r.error.ok()) fail = r.error;
  }
  if (!fail.ok()) return fail;
  return precheck;
}

Status FileBlockDevice::ReadBatch(const uint64_t* ids, void* const* bufs,
                                  size_t n) {
  return VectoredTransfer(ids, bufs, n, /*write=*/false, /*counted=*/true);
}

Status FileBlockDevice::WriteBatch(const uint64_t* ids,
                                   const void* const* bufs, size_t n) {
  return VectoredTransfer(ids, const_cast<void* const*>(bufs), n,
                          /*write=*/true, /*counted=*/true);
}

Status FileBlockDevice::ReadBatchUncounted(const uint64_t* ids,
                                           void* const* bufs, size_t n) {
  return VectoredTransfer(ids, bufs, n, /*write=*/false, /*counted=*/false);
}

Status FileBlockDevice::WriteBatchUncounted(const uint64_t* ids,
                                            const void* const* bufs,
                                            size_t n) {
  return VectoredTransfer(ids, const_cast<void* const*>(bufs), n,
                          /*write=*/true, /*counted=*/false);
}

uint64_t FileBlockDevice::Allocate() {
  allocated_++;
  if (!free_list_.empty()) {
    uint64_t id = free_list_.back();
    free_list_.pop_back();
    return id;
  }
  return next_id_.fetch_add(1, std::memory_order_acq_rel);
}

void FileBlockDevice::Free(uint64_t id) {
  free_list_.push_back(id);
  allocated_--;
}

}  // namespace vem
