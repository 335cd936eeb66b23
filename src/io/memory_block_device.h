// MemoryBlockDevice: deterministic in-RAM simulated disk with I/O counting.
//
// The workhorse device for tests and I/O-complexity benchmarks: block
// transfers cost nothing in wall-clock terms but are counted exactly,
// which makes measured I/O counts reproducible bit-for-bit.
#pragma once

#include <cstring>
#include <memory>
#include <vector>

#include "io/block_device.h"

namespace vem {

/// Simulated disk whose blocks live in heap memory.
class MemoryBlockDevice final : public BlockDevice {
 public:
  /// @param block_size bytes per block; must be > 0.
  explicit MemoryBlockDevice(size_t block_size);

  size_t block_size() const override { return block_size_; }

  // Uncounted plane, and through the base class the counted Read/Write
  // too. Synchronous only (SupportsAsync stays false): block storage is
  // a growable vector, so engine-thread transfers could race Allocate.
  // Wall-clock overlap is pointless on RAM anyway; supporting the plane
  // lets the stats-identity contract be exercised on the deterministic
  // device.
  bool SupportsUncounted() const override { return true; }
  Status ReadUncounted(uint64_t id, void* buf) override;
  Status WriteUncounted(uint64_t id, const void* buf) override;

  uint64_t Allocate() override;
  void Free(uint64_t id) override;
  uint64_t num_allocated() const override { return allocated_; }

  /// High-water mark of simultaneously allocated blocks (space accounting).
  uint64_t peak_allocated() const { return peak_allocated_; }

 private:
  size_t block_size_;
  std::vector<std::unique_ptr<char[]>> blocks_;
  std::vector<bool> written_;
  std::vector<uint64_t> free_list_;
  uint64_t allocated_ = 0;
  uint64_t peak_allocated_ = 0;
};

}  // namespace vem
