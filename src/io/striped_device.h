// StripedDevice: disk striping over D disks — the survey's technique for
// turning a D-disk machine into a logical one-disk machine with block
// size D*B.
//
// One logical block is split into D stripes, one per child disk, all
// transferred in a single parallel I/O step. Scan-type algorithms gain a
// factor-D speedup; sorting pays the log-base penalty log_{M/(DB)} instead
// of the per-disk-optimal log_{M/B} — exactly the trade-off the survey
// quantifies (bench_disk_striping reproduces it).
//
// With an IoEngine attached (set_io_engine), the D child transfers of one
// step are issued concurrently — one job per disk — so a parallel I/O step
// costs ~one disk's wall-clock, making the PDM's "one unit per parallel
// step" accounting physically true for real (file-backed) child disks.
// Stats are unaffected: each child still counts its own transfer, the
// parent still counts one parallel step per D physical blocks.
//
// Uncounted plane: forwarded to the children, so read-ahead/write-behind
// streams overlap on D-disk configurations instead of silently falling
// back to synchronous. One uncounted batch of n logical blocks becomes D
// child batches — each disk moves its stripes of all n blocks in one
// vectored child call, and the D calls run engine-parallel (one parallel
// step per batch). The counted Read/Write are the base class's uncounted
// transfer plus Account, which charges every child plus one parallel step
// per logical block, so IoStats are bit-identical with overlap on or off.
#pragma once

#include <atomic>
#include <functional>
#include <memory>
#include <vector>

#include "io/block_device.h"
#include "io/memory_block_device.h"

namespace vem {

/// Logical device of block size D * child_block_size striped across D
/// child disks. Stats on this device count PDM parallel steps
/// (parallel_reads/writes) and physical transfers (block_reads/writes,
/// D per step). Child devices are owned.
class StripedDevice final : public BlockDevice {
 public:
  /// In-memory striping (deterministic counting benches).
  /// @param num_disks D >= 1
  /// @param child_block_size bytes per physical block on each disk
  StripedDevice(size_t num_disks, size_t child_block_size);

  /// Striping over caller-built child disks (e.g. one FileBlockDevice per
  /// physical spindle/file). Children must be non-empty, share one block
  /// size, and be fresh (nothing allocated yet) — lockstep allocation is
  /// what lets one logical id address the same physical id on every disk.
  /// Violations mark the device invalid and every transfer fails.
  explicit StripedDevice(std::vector<std::unique_ptr<BlockDevice>> disks);

  /// False when the child-disk preconditions above were violated.
  bool valid() const { return valid_; }

  size_t block_size() const override { return logical_block_size_; }

  // Uncounted plane (see file comment). Supported when every child
  // supports it; async-capable when every child is, in which case a
  // whole striped fill may run on an engine worker — the nested per-disk
  // fan-out is safe because IoEngine::Wait work-steals.
  bool SupportsUncounted() const override;
  bool SupportsAsync() const override;
  Status ReadUncounted(uint64_t id, void* buf) override;
  Status WriteUncounted(uint64_t id, const void* buf) override;
  Status ReadBatchUncounted(const uint64_t* ids, void* const* bufs,
                            size_t n) override;
  Status WriteBatchUncounted(const uint64_t* ids, const void* const* bufs,
                             size_t n) override;

  /// Accounting for logical-block transfers: charge each child for its
  /// stripe and this device for D physical blocks and one parallel step
  /// per logical block (all D stripes move in one PDM step). Striping
  /// touches every child per logical block, so the ids do not change the
  /// charge.
  void Account(bool write, const uint64_t* ids, uint64_t n) override;

  /// Forwards the engine to every child: children execute the physical
  /// stripe transfers, so the child is what picks the submission
  /// transport (worker thread vs the engine's io_uring ring).
  void set_io_engine(IoEngine* engine) override;

  /// Forwards the retry policy to every child: the lockstep stripe's
  /// physical transfers run in the children, so per-block retry
  /// granularity lives there too.
  void set_retry_policy(RetryPolicy* retry) override;

  /// Durability barrier over every child disk; first failure wins.
  Status Sync() override {
    for (auto& d : disks_) VEM_RETURN_IF_ERROR(d->Sync());
    return Status::OK();
  }

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override { return allocated_; }

  size_t num_disks() const { return disks_.size(); }
  /// Per-disk accounting (all disks see identical load under striping).
  const IoStats& disk_stats(size_t d) const { return disks_[d]->stats(); }

 private:
  /// One parallel step: run the per-disk transfer `op(d)` on every child,
  /// concurrently when an engine is attached, sequentially otherwise.
  Status ParallelStep(const std::function<Status(size_t)>& op);

  /// Shared engine for the uncounted batch entry points: one ParallelStep
  /// in which disk d transfers its stripes of all n logical blocks via
  /// the child's own batched uncounted plane (contiguous ids coalesce in
  /// file-backed children).
  Status BatchUncounted(const uint64_t* ids, void* const* bufs, size_t n,
                        bool write);

  size_t logical_block_size_;
  size_t child_block_size_;
  std::vector<std::unique_ptr<BlockDevice>> disks_;
  uint64_t allocated_ = 0;
  // Atomic because uncounted transfers may inspect it from engine
  // workers while the owning thread allocates (which can clear it).
  std::atomic<bool> valid_{true};
};

}  // namespace vem
