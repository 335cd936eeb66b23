#include "io/striped_device.h"

#include <functional>

#include "io/io_engine.h"

namespace vem {

StripedDevice::StripedDevice(size_t num_disks, size_t child_block_size)
    : logical_block_size_(num_disks * child_block_size),
      child_block_size_(child_block_size) {
  disks_.reserve(num_disks);
  for (size_t d = 0; d < num_disks; ++d) {
    disks_.push_back(std::make_unique<MemoryBlockDevice>(child_block_size));
  }
}

StripedDevice::StripedDevice(std::vector<std::unique_ptr<BlockDevice>> disks)
    : logical_block_size_(0), child_block_size_(0), disks_(std::move(disks)) {
  child_block_size_ = disks_.empty() ? 0 : disks_[0]->block_size();
  logical_block_size_ = disks_.size() * child_block_size_;
  valid_ = !disks_.empty();
  for (const auto& d : disks_) {
    // Fresh children with one shared block size, or lockstep allocation
    // cannot hold and stripes would land on mismatched physical ids.
    if (d->block_size() != child_block_size_ || d->num_allocated() != 0) {
      valid_ = false;
    }
  }
}

Status StripedDevice::ParallelStep(const std::function<Status(size_t)>& op) {
  if (!valid_) {
    return Status::InvalidArgument(
        "StripedDevice children violate striping preconditions");
  }
  if (engine_ == nullptr || disks_.size() < 2) {
    for (size_t d = 0; d < disks_.size(); ++d) VEM_RETURN_IF_ERROR(op(d));
    return Status::OK();
  }
  // One job per disk; each touches only its own child device, so the
  // children's counters see single-threaded traffic. RunBatch returns
  // after every stripe lands: the step is atomic to the caller. Jobs are
  // disk-tagged (child pointer) so the engine's per-disk queues keep
  // concurrent striped steps from stacking two transfers on one head.
  std::vector<std::function<Status()>> jobs;
  std::vector<uint64_t> tags;
  jobs.reserve(disks_.size());
  tags.reserve(disks_.size());
  for (size_t d = 0; d < disks_.size(); ++d) {
    jobs.push_back([&op, d] { return op(d); });
    tags.push_back(reinterpret_cast<uintptr_t>(disks_[d].get()));
  }
  return engine_->RunBatch(std::move(jobs), tags);
}

void StripedDevice::set_retry_policy(RetryPolicy* retry) {
  BlockDevice::set_retry_policy(retry);
  for (auto& d : disks_) d->set_retry_policy(retry);
}

void StripedDevice::set_io_engine(IoEngine* engine) {
  BlockDevice::set_io_engine(engine);
  for (auto& d : disks_) d->set_io_engine(engine);
}

bool StripedDevice::SupportsUncounted() const {
  for (const auto& d : disks_) {
    if (!d->SupportsUncounted()) return false;
  }
  return !disks_.empty();
}

bool StripedDevice::SupportsAsync() const {
  for (const auto& d : disks_) {
    if (!d->SupportsAsync()) return false;
  }
  return !disks_.empty();
}

Status StripedDevice::ReadUncounted(uint64_t id, void* buf) {
  char* out = static_cast<char*>(buf);
  return ParallelStep([&](size_t d) {
    return disks_[d]->ReadUncounted(id, out + d * child_block_size_);
  });
}

Status StripedDevice::WriteUncounted(uint64_t id, const void* buf) {
  const char* in = static_cast<const char*>(buf);
  return ParallelStep([&](size_t d) {
    return disks_[d]->WriteUncounted(id, in + d * child_block_size_);
  });
}

Status StripedDevice::BatchUncounted(const uint64_t* ids, void* const* bufs,
                                     size_t n, bool write) {
  if (n == 0) return Status::OK();
  // Disk d owns byte range [d*cbs, (d+1)*cbs) of every logical block, at
  // the same child id (lockstep allocation). Build each disk's buffer
  // list once; the arrays outlive the ParallelStep (it joins before
  // returning), so child jobs may read them from engine workers.
  std::vector<std::vector<void*>> child_bufs(disks_.size());
  for (size_t d = 0; d < disks_.size(); ++d) {
    child_bufs[d].resize(n);
    for (size_t i = 0; i < n; ++i) {
      child_bufs[d][i] = static_cast<char*>(bufs[i]) + d * child_block_size_;
    }
  }
  return ParallelStep([&](size_t d) {
    if (write) {
      return disks_[d]->WriteBatchUncounted(ids, child_bufs[d].data(), n);
    }
    return disks_[d]->ReadBatchUncounted(ids, child_bufs[d].data(), n);
  });
}

Status StripedDevice::ReadBatchUncounted(const uint64_t* ids,
                                         void* const* bufs, size_t n) {
  return BatchUncounted(ids, bufs, n, /*write=*/false);
}

Status StripedDevice::WriteBatchUncounted(const uint64_t* ids,
                                          const void* const* bufs, size_t n) {
  return BatchUncounted(ids, const_cast<void* const*>(bufs), n,
                        /*write=*/true);
}

void StripedDevice::Account(bool write, const uint64_t* ids, uint64_t n) {
  (void)ids;
  for (auto& disk : disks_) disk->Account(write, nullptr, n);
  stats_.Charge(write, n * disks_.size(), n, n * logical_block_size_);
}

uint64_t StripedDevice::Allocate() {
  if (!valid_) return 0;  // transfers on this id fail with InvalidArgument
  // Children allocate in lockstep so one logical id addresses the same
  // physical id on every disk.
  uint64_t id = disks_[0]->Allocate();
  for (size_t d = 1; d < disks_.size(); ++d) {
    uint64_t cid = disks_[d]->Allocate();
    if (cid != id) valid_ = false;  // lockstep broken: fail fast on use
  }
  allocated_++;
  return id;
}

void StripedDevice::Free(uint64_t id) {
  if (!valid_) return;
  for (auto& disk : disks_) disk->Free(id);
  allocated_--;
}

}  // namespace vem
