// DurableBlockDevice: the journaling wrapper that makes a data device
// crash-safe, and the DurableStorage bundle that wires it from Options.
//
// No-steal journaling: Write() appends the block's after-image to the
// log and parks it in an in-memory pending overlay — the inner data
// device is NOT touched. Read() serves the overlay first. At Commit()
// the log is forced (group commit — the durability point, and the
// moment the journal's physical writes are charged), then the pending
// images are applied to the inner device on its uncounted plane and
// charged one id-aware Account call per block, exactly mirroring what
// per-block counted writes would have recorded. A crash at ANY point
// leaves the inner device holding only committed history (possibly
// missing the tail the log will redo); uncommitted writes vanish with
// the overlay. Allocate/Free move to a journaled allocation map owned by
// the wrapper (the inner device only ever grows), persisted across clean
// closes by a checkpoint record and rebuilt by recovery otherwise.
//
// The wrapper has no uncounted plane (every write must pass through the
// log), so it keeps the base defaults for SupportsUncounted/
// SupportsAsync/Account and its own counted Read/Write. Without a WAL
// there is nothing to wrap: use the data device directly.
//
// Transactions are an implicit single stream: everything between two
// Commit() calls is one transaction. Concurrent transactions need the
// lock manager the roadmap still lists as open.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "io/block_device.h"
#include "util/options.h"
#include "util/status.h"
#include "wal/recovery.h"
#include "wal/wal_manager.h"

namespace vem {

class FileBlockDevice;

/// Journaling wrapper over one data device.
class DurableBlockDevice final : public BlockDevice {
 public:
  /// @param inner data device (not owned)
  /// @param wal log writer (not owned); must not be null. When the log
  ///        holds a prior incarnation's records, the constructor runs
  ///        recovery (redo + log reset + fresh checkpoint); status()
  ///        reports how that went.
  DurableBlockDevice(BlockDevice* inner, WalManager* wal);

  ~DurableBlockDevice() override;

  /// False when construction-time recovery failed; see status().
  bool valid() const { return init_status_.ok(); }
  Status status() const { return init_status_; }
  /// What construction-time recovery found (zeroes when none ran).
  const RecoveryResult& recovery() const { return recovery_; }

  /// Durability point: force the log through everything journaled so
  /// far, then apply the pending overlay to the data device. On OK
  /// return the transaction is durable — it survives any crash.
  Status Commit();

  /// Uncommitted journaled writes parked in the overlay (tests).
  size_t pending_blocks() const;

  /// Truncate the log down to a fresh checkpoint of the allocation map.
  /// Requires an empty overlay (commit first); the inner device is
  /// Sync()ed before the log is cut so no durable state ever exists only
  /// in the discarded log.
  Status Checkpoint();

  // --------------------------------------------------- BlockDevice API
  size_t block_size() const override;
  Status Read(uint64_t id, void* buf) override;
  Status Write(uint64_t id, const void* buf) override;
  /// Loops of the Read/Write above (there is no uncounted plane for the
  /// base batch loop).
  Status ReadBatch(const uint64_t* ids, void* const* bufs, size_t n) override;
  Status WriteBatch(const uint64_t* ids, const void* const* bufs,
                    size_t n) override;

  uint64_t PrefetchRoute(uint64_t block_id) const override;
  uint64_t EngineDiskTag(uint64_t block_id) const override;

  Status Sync() override;
  uint64_t wal_last_lsn() const override;
  Status EnsureWalDurable(uint64_t lsn) override;

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override;

  void set_io_engine(IoEngine* engine) override;

 private:
  /// Grow the inner device until block `id` exists (inner never shrinks).
  void ExtendInnerTo(uint64_t id);
  /// Append a fresh checkpoint of the allocation map and force it.
  Status WriteCheckpointLocked();

  BlockDevice* inner_;
  WalManager* wal_;
  Status init_status_;
  RecoveryResult recovery_;

  mutable std::mutex mu_;
  std::unordered_map<uint64_t, std::vector<char>> pending_;  // overlay
  uint64_t cur_txn_ = 1;
  uint64_t next_id_ = 0;
  std::vector<uint64_t> free_list_;
  uint64_t live_blocks_ = 0;
};

/// Everything Options::enable_wal stands up, with one owner: the data
/// file, the log (at `<base_path>.wal`), and the wrapper to hand to
/// BufferPool / streams. With enable_wal on both files persist across
/// restarts and are reopened — construction runs recovery when the log
/// is non-empty. With it off only `data` exists, a scratch file
/// (truncate + unlink) to hand to BufferPool / streams directly.
struct DurableStorage {
  DurableStorage(const std::string& base_path, const Options& opts);
  ~DurableStorage();

  bool valid() const;
  Status status() const;

  std::unique_ptr<FileBlockDevice> data;
  std::unique_ptr<WalManager> wal;              // null when !opts.enable_wal
  std::unique_ptr<DurableBlockDevice> device;  // null when !opts.enable_wal
};

}  // namespace vem
