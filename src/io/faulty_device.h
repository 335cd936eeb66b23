// FaultyBlockDevice: failure-injection wrapper for robustness testing.
//
// Wraps any BlockDevice and fails the k-th read and/or write with an
// IOError. Tests use it to verify that every algorithm propagates device
// errors as Status (no crash, no silent corruption) — the discipline the
// RocksDB-style error model demands.
//
// Torn-write injection (SetTornWrite) models the other half of a crash:
// the k-th write persists only a PREFIX of the block before "power
// fails" — the head of the new data lands, the tail keeps whatever the
// block held before. Recovery code must detect the damage by checksum,
// not by error status, which is exactly what the WAL's per-record CRC
// scan is for.
// Fault-tolerance-plane extensions (io/retry_policy.h): beyond the
// classic permanent faults above, the wrapper injects
//  - TRANSIENT faults (SetTransientReadFault/SetTransientWriteFault):
//    from the k-th transfer attempt, the next N attempts fail with
//    Status::Unavailable, then attempts succeed again — the
//    fail-then-succeed schedule retry/backoff is built to absorb.
//    Failed attempts charge nothing, so a retried run keeps IoStats
//    bit-identical to the fault-free one;
//  - LATENCY (SetLatency): every transfer sleeps first, feeding the
//    engine's per-disk latency EWMA.
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "io/block_device.h"

namespace vem {

/// Device wrapper that injects IOErrors on schedule.
class FaultyBlockDevice final : public BlockDevice {
 public:
  static constexpr uint64_t kNever = ~0ull;

  /// @param inner wrapped device (not owned)
  /// @param fail_read_at fail the N-th read (1-based); kNever disables
  /// @param fail_write_at fail the N-th write (1-based); kNever disables
  FaultyBlockDevice(BlockDevice* inner, uint64_t fail_read_at = kNever,
                    uint64_t fail_write_at = kNever)
      : inner_(inner),
        fail_read_at_(fail_read_at),
        fail_write_at_(fail_write_at) {}

  size_t block_size() const override { return inner_->block_size(); }

  /// Arm torn-write injection: the N-th write (1-based, same counter as
  /// fail_write_at_) persists only the first `bytes` bytes of the new
  /// block content — the rest of the block keeps its previous contents
  /// — then reports an IOError as the "crash". The partial block IS
  /// durable on the inner device, so a recovery scan sees a block whose
  /// contents fail CRC validation rather than a clean end.
  void SetTornWrite(uint64_t at_write, size_t bytes) {
    torn_write_at_ = at_write;
    torn_bytes_ = bytes;
  }

  /// Arm a transient read fault: from the at_read-th read attempt
  /// (1-based), the next `times` attempts fail with Status::Unavailable,
  /// then attempts succeed again. Failed attempts charge nothing and DO
  /// advance the attempt counter, so "fail the k-th transfer N times,
  /// then succeed" is attempts k..k+N-1 failing and attempt k+N going
  /// through.
  void SetTransientReadFault(uint64_t at_read, uint64_t times) {
    transient_read_at_ = at_read;
    transient_reads_left_ = times;
  }
  /// Write-side transient schedule, same semantics.
  void SetTransientWriteFault(uint64_t at_write, uint64_t times) {
    transient_write_at_ = at_write;
    transient_writes_left_ = times;
  }

  /// Sleep this long before every transfer attempt (both directions):
  /// a slow-but-correct disk for latency-EWMA tests.
  void SetLatency(uint64_t micros) { latency_us_ = micros; }

  /// Fail-stop mode: after `attempts` total transfer attempts (reads +
  /// writes, 1-based), EVERY further attempt fails with a permanent
  /// (non-transient) IOError, forever — a head that died
  /// mid-run rather than a scheduled one-shot fault. 0 kills the device
  /// immediately. Unlike transient schedules the retry plane cannot
  /// absorb this; RunWithDiskRetry escalates it to the engine as
  /// fail-stop evidence, and a redundancy-armed IndependentDiskDevice
  /// serves the dead head's blocks by reconstruction. Deferred Account
  /// charging still reaches a dead device — accounting moves no bytes.
  void SetDeadAfter(uint64_t attempts) { dead_after_ = attempts; }

  /// True once the fail-stop schedule has started rejecting attempts.
  bool dead() const {
    return dead_after_ != kNever && reads_seen_ + writes_seen_ > dead_after_;
  }

  // The transfer bodies — of the counted Read/Write too (base class):
  // the injection schedule runs, then the call forwards to the inner
  // device, so armed read-ahead/write-behind streams — including striped
  // devices with a faulty child — must surface the fault as Status when
  // the speculative window is consumed. Injection counts physical
  // transfer attempts. Stays SupportsAsync() == false: the fault
  // counters are not atomic.
  bool SupportsUncounted() const override {
    return inner_->SupportsUncounted();
  }
  Status ReadUncounted(uint64_t id, void* buf) override {
    VEM_RETURN_IF_ERROR(OnReadAttempt());
    return inner_->ReadUncounted(id, buf);
  }
  Status WriteUncounted(uint64_t id, const void* buf) override {
    bool torn = false;
    Status inj = OnWriteAttempt(&torn);
    if (torn) return TearWrite(id, buf);
    VEM_RETURN_IF_ERROR(inj);
    return inner_->WriteUncounted(id, buf);
  }

  /// Durability barrier forwards to the wrapped device (a torn write is
  /// already durable by the time the barrier runs — that is the point).
  Status Sync() override { return inner_->Sync(); }

  /// Accounting forwards the ids to the inner device (which may route
  /// them per disk) and charges this wrapper per block.
  void Account(bool write, const uint64_t* ids, uint64_t n) override {
    inner_->Account(write, ids, n);
    BlockDevice::Account(write, nullptr, n);
  }
  uint64_t PrefetchRoute(uint64_t block_id) const override {
    return inner_->PrefetchRoute(block_id);
  }
  uint64_t EngineDiskTag(uint64_t block_id) const override {
    return inner_->EngineDiskTag(block_id);
  }

  uint64_t Allocate() override { return inner_->Allocate(); }
  void Free(uint64_t id) override { inner_->Free(id); }
  uint64_t num_allocated() const override { return inner_->num_allocated(); }

  uint64_t reads_seen() const { return reads_seen_; }
  uint64_t writes_seen() const { return writes_seen_; }

 private:
  /// Persist prefix-of-new + suffix-of-old for block `id`, then report
  /// the crash. The failed write charges nothing, like any failed
  /// transfer, so the torn bytes never show up as a counted write.
  Status TearWrite(uint64_t id, const void* buf) {
    std::vector<char> merged(block_size(), 0);
    // Old content first (unwritten blocks read as zeros by contract) —
    // a real torn sector keeps its stale tail, not a clean one.
    (void)inner_->ReadUncounted(id, merged.data());
    size_t keep = std::min(torn_bytes_, block_size());
    std::memcpy(merged.data(), buf, keep);
    Status s = inner_->WriteUncounted(id, merged.data());
    if (!s.ok()) return s;
    return Status::IOError("injected torn write #" +
                           std::to_string(writes_seen_) + " (" +
                           std::to_string(keep) + " bytes persisted)");
  }

  /// Read-attempt prologue: count the attempt, inject latency,
  /// then transient and classic faults in that order. OK means forward
  /// to the inner device.
  Status OnReadAttempt() {
    ++reads_seen_;
    if (dead()) {
      return Status::IOError("fail-stopped device (read attempt #" +
                             std::to_string(reads_seen_) + ")");
    }
    MaybeDelay();
    if (transient_reads_left_ > 0 && reads_seen_ >= transient_read_at_) {
      transient_reads_left_--;
      return Status::Unavailable("injected transient read fault, attempt #" +
                                 std::to_string(reads_seen_));
    }
    if (reads_seen_ == fail_read_at_) {
      return Status::IOError("injected read fault #" +
                             std::to_string(reads_seen_));
    }
    return Status::OK();
  }

  /// Write-attempt prologue; *torn signals the torn-write schedule fired
  /// (the caller runs TearWrite, which needs the id and payload).
  Status OnWriteAttempt(bool* torn) {
    ++writes_seen_;
    if (dead()) {
      return Status::IOError("fail-stopped device (write attempt #" +
                             std::to_string(writes_seen_) + ")");
    }
    MaybeDelay();
    if (writes_seen_ == torn_write_at_) {
      *torn = true;
      return Status::OK();
    }
    if (transient_writes_left_ > 0 && writes_seen_ >= transient_write_at_) {
      transient_writes_left_--;
      return Status::Unavailable("injected transient write fault, attempt #" +
                                 std::to_string(writes_seen_));
    }
    if (writes_seen_ == fail_write_at_) {
      return Status::IOError("injected write fault #" +
                             std::to_string(writes_seen_));
    }
    return Status::OK();
  }

  void MaybeDelay() {
    if (latency_us_ == 0) return;
    std::this_thread::sleep_for(std::chrono::microseconds(latency_us_));
  }

  BlockDevice* inner_;
  uint64_t fail_read_at_, fail_write_at_;
  uint64_t torn_write_at_ = kNever;
  size_t torn_bytes_ = 0;
  uint64_t reads_seen_ = 0;
  uint64_t writes_seen_ = 0;
  // Transient schedules (see SetTransientReadFault).
  uint64_t transient_read_at_ = kNever;
  uint64_t transient_reads_left_ = 0;
  uint64_t transient_write_at_ = kNever;
  uint64_t transient_writes_left_ = 0;
  // Fail-stop schedule (see SetDeadAfter).
  uint64_t dead_after_ = kNever;
  uint64_t latency_us_ = 0;
};

}  // namespace vem
