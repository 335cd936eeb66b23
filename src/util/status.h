// Status: lightweight RocksDB-style result type for fallible operations.
//
// All operations in the I/O substrate that can fail (device reads/writes,
// buffer pool pins) return a Status. Algorithm layers propagate it upward.
#pragma once

#include <cstdint>
#include <string>
#include <utility>

namespace vem {

/// Result of a fallible operation. Cheap to copy when OK (no allocation).
class Status {
 public:
  /// Error category. kOk carries no message.
  enum class Code : uint8_t {
    kOk = 0,
    kIOError = 1,
    kInvalidArgument = 2,
    kNotFound = 3,
    kCorruption = 4,
    kOutOfMemory = 5,
    kNotSupported = 6,
    kBusy = 7,
    kUnavailable = 9,
  };

  Status() : code_(Code::kOk) {}

  /// Success value.
  static Status OK() { return Status(); }
  /// Device-level read/write failure.
  static Status IOError(std::string msg) {
    return Status(Code::kIOError, std::move(msg));
  }
  /// Caller passed an argument outside the valid domain.
  static Status InvalidArgument(std::string msg) {
    return Status(Code::kInvalidArgument, std::move(msg));
  }
  /// Requested key/block does not exist.
  static Status NotFound(std::string msg) {
    return Status(Code::kNotFound, std::move(msg));
  }
  /// On-disk structure violates an invariant.
  static Status Corruption(std::string msg) {
    return Status(Code::kCorruption, std::move(msg));
  }
  /// A fixed memory budget (buffer pool frames) was exhausted.
  static Status OutOfMemory(std::string msg) {
    return Status(Code::kOutOfMemory, std::move(msg));
  }
  /// Operation is not implemented for this device/configuration.
  static Status NotSupported(std::string msg) {
    return Status(Code::kNotSupported, std::move(msg));
  }
  /// Every resource is transiently held (all buffer pool frames pinned);
  /// retry after releasing something — nothing is structurally wrong.
  static Status Busy(std::string msg) {
    return Status(Code::kBusy, std::move(msg));
  }
  /// A resource is transiently unavailable (EAGAIN-class syscall
  /// failures, transient device faults). Retry with backoff is expected
  /// to succeed; nothing is structurally wrong with the data.
  static Status Unavailable(std::string msg) {
    return Status(Code::kUnavailable, std::move(msg));
  }

  bool ok() const { return code_ == Code::kOk; }
  bool IsIOError() const { return code_ == Code::kIOError; }
  bool IsInvalidArgument() const { return code_ == Code::kInvalidArgument; }
  bool IsNotFound() const { return code_ == Code::kNotFound; }
  bool IsCorruption() const { return code_ == Code::kCorruption; }
  bool IsOutOfMemory() const { return code_ == Code::kOutOfMemory; }
  bool IsNotSupported() const { return code_ == Code::kNotSupported; }
  bool IsBusy() const { return code_ == Code::kBusy; }
  bool IsUnavailable() const { return code_ == Code::kUnavailable; }

  /// Error taxonomy for the fault-tolerance plane (io/retry_policy.h):
  /// true when retrying the same operation can plausibly succeed —
  /// nothing is structurally wrong, a resource was momentarily held or
  /// slow. Permanent categories (kIOError, kCorruption, ...) must
  /// propagate; retrying them only delays the inevitable and can mask
  /// real damage.
  bool IsTransient() const {
    return code_ == Code::kBusy || code_ == Code::kUnavailable;
  }

  Code code() const { return code_; }
  const std::string& message() const { return message_; }

  /// Human-readable "<category>: <message>" string for logs and tests.
  std::string ToString() const {
    if (ok()) return "OK";
    const char* name = "Unknown";
    switch (code_) {
      case Code::kOk: name = "OK"; break;
      case Code::kIOError: name = "IOError"; break;
      case Code::kInvalidArgument: name = "InvalidArgument"; break;
      case Code::kNotFound: name = "NotFound"; break;
      case Code::kCorruption: name = "Corruption"; break;
      case Code::kOutOfMemory: name = "OutOfMemory"; break;
      case Code::kNotSupported: name = "NotSupported"; break;
      case Code::kBusy: name = "Busy"; break;
      case Code::kUnavailable: name = "Unavailable"; break;
    }
    return std::string(name) + ": " + message_;
  }

 private:
  Status(Code code, std::string msg) : code_(code), message_(std::move(msg)) {}

  Code code_;
  std::string message_;
};

/// Propagate a non-OK Status to the caller (RocksDB idiom). Variadic so
/// that template arguments containing commas need no extra parentheses.
#define VEM_RETURN_IF_ERROR(...)               \
  do {                                         \
    ::vem::Status _st = (__VA_ARGS__);         \
    if (!_st.ok()) return _st;                 \
  } while (0)

}  // namespace vem
