#include "io/memory_block_device.h"

namespace vem {

MemoryBlockDevice::MemoryBlockDevice(size_t block_size)
    : block_size_(block_size) {}

Status MemoryBlockDevice::ReadUncounted(uint64_t id, void* buf) {
  if (id >= blocks_.size() || blocks_[id] == nullptr) {
    return Status::InvalidArgument("read of unallocated block " +
                                   std::to_string(id));
  }
  if (!written_[id]) {
    return Status::Corruption("read of never-written block " +
                              std::to_string(id));
  }
  std::memcpy(buf, blocks_[id].get(), block_size_);
  return Status::OK();
}

Status MemoryBlockDevice::WriteUncounted(uint64_t id, const void* buf) {
  if (id >= blocks_.size() || blocks_[id] == nullptr) {
    return Status::InvalidArgument("write of unallocated block " +
                                   std::to_string(id));
  }
  std::memcpy(blocks_[id].get(), buf, block_size_);
  written_[id] = true;
  return Status::OK();
}

uint64_t MemoryBlockDevice::Allocate() {
  uint64_t id;
  if (!free_list_.empty()) {
    id = free_list_.back();
    free_list_.pop_back();
    blocks_[id] = std::make_unique<char[]>(block_size_);
    written_[id] = false;
  } else {
    id = blocks_.size();
    blocks_.push_back(std::make_unique<char[]>(block_size_));
    written_.push_back(false);
  }
  allocated_++;
  if (allocated_ > peak_allocated_) peak_allocated_ = allocated_;
  return id;
}

void MemoryBlockDevice::Free(uint64_t id) {
  if (id >= blocks_.size() || blocks_[id] == nullptr) return;  // double free: ignore
  blocks_[id].reset();
  written_[id] = false;
  free_list_.push_back(id);
  allocated_--;
}

}  // namespace vem
