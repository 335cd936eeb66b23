#include "serve/admission.h"

#include <algorithm>
#include <chrono>

namespace vem {

void AdmissionTicket::Release() {
  if (ctrl_ == nullptr) return;
  // Tenant first (arbiter mutex only): the floor must be free before
  // the queue head is woken to retry, or the wake is a lost race.
  tenant_.reset();
  AdmissionController* ctrl = ctrl_;
  ctrl_ = nullptr;
  ctrl->OnTicketRelease();
}

AdmissionController::AdmissionController(MemoryArbiter* arbiter)
    : AdmissionController(arbiter, Config()) {}

AdmissionController::AdmissionController(MemoryArbiter* arbiter, Config cfg,
                                         MemoryArbiter::Clock clock)
    : arbiter_(arbiter), cfg_(cfg), clock_(std::move(clock)) {
  if (!clock_) {
    clock_ = [arbiter]() { return arbiter->now_ns(); };
  }
}

Status AdmissionController::Admit(const std::string& name, double priority,
                                  size_t min_floor_blocks,
                                  uint64_t deadline_ns, AdmissionTicket* out) {
  if (min_floor_blocks > arbiter_->total_blocks()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.refused_impossible++;
    return Status::InvalidArgument(
        "admission floor exceeds machine M; can never be admitted");
  }
  uint64_t rel = deadline_ns != 0 ? deadline_ns : cfg_.default_deadline_ns;
  uint64_t deadline = rel != 0 ? clock_() + rel : 0;

  std::unique_lock<std::mutex> lock(mu_);
  // Fast path: no convoy ahead — register right now. Joining behind an
  // empty queue would serialize every admission through a wait.
  if (queue_.empty()) {
    auto tenant = arbiter_->RegisterTenant(name, priority, min_floor_blocks);
    if (tenant != nullptr) {
      GrantLocked(std::move(tenant), out);
      return Status::OK();
    }
  }
  if (queue_.size() >= cfg_.max_queue) {
    stats_.shed_queue_full++;
    return Status::Busy("admission queue full");
  }

  const uint64_t seq = next_seq_++;
  queue_.push_back(seq);
  stats_.queued++;
  stats_.waiting++;
  while (true) {
    // Strict FIFO: only the queue head retries, so floors that free up
    // go to the longest waiter, never a lucky latecomer.
    if (!queue_.empty() && queue_.front() == seq) {
      auto tenant = arbiter_->RegisterTenant(name, priority, min_floor_blocks);
      if (tenant != nullptr) {
        queue_.pop_front();
        stats_.waiting--;
        cv_.notify_all();  // the next head may also fit
        GrantLocked(std::move(tenant), out);
        return Status::OK();
      }
    }
    if (deadline != 0 && clock_() >= deadline) {
      queue_.erase(std::find(queue_.begin(), queue_.end(), seq));
      stats_.waiting--;
      stats_.shed_deadline++;
      cv_.notify_all();  // we may have been the head blocking others
      return Status::Busy("admission deadline exceeded");
    }
    // Short real-time wait as a polling backstop: a fake test clock (or
    // a floor freed without a notify reaching us first) is observed on
    // the next lap even if no one signals.
    cv_.wait_for(lock, std::chrono::milliseconds(1));
  }
}

Status AdmissionController::TryAdmit(const std::string& name, double priority,
                                     size_t min_floor_blocks,
                                     AdmissionTicket* out) {
  if (min_floor_blocks > arbiter_->total_blocks()) {
    std::lock_guard<std::mutex> lock(mu_);
    stats_.refused_impossible++;
    return Status::InvalidArgument(
        "admission floor exceeds machine M; can never be admitted");
  }
  std::lock_guard<std::mutex> lock(mu_);
  if (!queue_.empty()) {
    stats_.shed_queue_full++;
    return Status::Busy("admissions waiting ahead");
  }
  auto tenant = arbiter_->RegisterTenant(name, priority, min_floor_blocks);
  if (tenant == nullptr) {
    stats_.shed_queue_full++;
    return Status::Busy("tenant floors oversubscribed");
  }
  GrantLocked(std::move(tenant), out);
  return Status::OK();
}

void AdmissionController::GrantLocked(std::unique_ptr<TenantLease> tenant,
                                      AdmissionTicket* out) {
  *out = AdmissionTicket(this, std::move(tenant), stats_.admitted++);
  stats_.active++;
}

AdmissionController::Stats AdmissionController::stats() const {
  std::lock_guard<std::mutex> lock(mu_);
  return stats_;
}

void AdmissionController::OnTicketRelease() {
  std::lock_guard<std::mutex> lock(mu_);
  if (stats_.active > 0) stats_.active--;
  cv_.notify_all();
}

}  // namespace vem
