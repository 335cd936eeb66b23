// Machine-speed reference: a fixed piece of CPU and memory work that does
// not touch the library, timed on the workload's own thread between its
// setup repetitions and rounds, where the library is idle. The machines
// the benchmark runs on are shared, and their speed drifts by tens of
// percent within seconds and over minutes; the same drift slows the
// kernel, so each timed round is scaled by the kernel's slowness around
// it (PerRound in report.h) and the wall-clock metrics are reported at
// the kernel's nominal speed. A change to the library does not change the
// kernel, so it still moves them in full.
//
// The kernel runs on one thread. Run on several threads at once, it woke
// vCPUs that had been idle, and the host took up to a second to give
// them full speed, so it read up to 5x slow while the workload did not.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <vector>

#include "trace.h"

namespace perfbench {

/// Times of a reference, each with when it was taken.
class SpeedLog {
 public:
  explicit SpeedLog(double nominal_ms) : nominal_ms_(nominal_ms) {}

  /// Adds a reference time taken at `at_ns`.
  void Record(uint64_t at_ns, double ms) { samples_.push_back({at_ns, ms}); }

  /// Median time over nominal, above 1 when the machine runs slower than
  /// nominal, among the samples taken from `kMarginNs` before `from_ns`
  /// to `kMarginNs` after `to_ns`; the nearest sample when none is that
  /// close, and 1 without samples.
  double SlownessAround(uint64_t from_ns, uint64_t to_ns) const {
    std::vector<double> near;
    const Timed* nearest = nullptr;
    uint64_t best = UINT64_MAX;
    for (const Timed& s : samples_) {
      uint64_t d = s.at_ns < from_ns ? from_ns - s.at_ns
                   : s.at_ns > to_ns ? s.at_ns - to_ns
                                     : 0;
      if (d <= kMarginNs) near.push_back(s.ms);
      if (d < best) best = d, nearest = &s;
    }
    if (near.empty() && nearest != nullptr) near.push_back(nearest->ms);
    return near.empty() ? 1.0 : Median(near) / nominal_ms_;
  }

  /// Over every sample; for the header.
  double Slowness() const { return SlownessAround(0, UINT64_MAX); }
  size_t samples() const { return samples_.size(); }
  uint64_t last_ns() const {
    return samples_.empty() ? 0 : samples_.back().at_ns;
  }
  /// Every time in ms, in the order taken.
  std::vector<double> times_ms() const {
    std::vector<double> out;
    for (const Timed& s : samples_) out.push_back(s.ms);
    return out;
  }

  static constexpr uint64_t kMarginNs = 2'000'000'000;

 private:
  struct Timed {
    uint64_t at_ns;
    double ms;
  };
  double nominal_ms_;
  std::vector<Timed> samples_;
};

class MachineSpeed : public SpeedLog {
 public:
  /// Kernel time the reported metrics are scaled to: a round figure within
  /// the range the kernel took on a shared 4-vCPU x86-64 VM (10 to 30 ms).
  /// It only sets the scale.
  static constexpr double kNominalMs = 20.0;

  MachineSpeed()
      : SpeedLog(kNominalMs),
        sort_in_(kSortItems), sorted_(kSortItems), next_(kChaseSlots),
        src_(kCopyBytes, 1), dst_(kCopyBytes, 0) {
    uint64_t x = 0x9E3779B97F4A7C15ull;
    auto next_random = [&x] {
      x ^= x << 13;
      x ^= x >> 7;
      x ^= x << 17;
      return x;
    };
    for (uint64_t& v : sort_in_) v = next_random();
    // One random cycle through every slot (Sattolo), so the chase below
    // visits the slots in no order the prefetcher can follow.
    for (uint32_t i = 0; i < kChaseSlots; ++i) next_[i] = i;
    for (uint32_t i = kChaseSlots - 1; i > 0; --i) {
      std::swap(next_[i], next_[next_random() % i]);
    }
  }

  /// Runs the kernel `n` times and records each time, after one untimed
  /// run that brings its buffers back into the caches the workload used:
  /// a cold kernel would time what the workload left there.
  void Sample(int n = 1) {
    Kernel();
    for (int i = 0; i < n; ++i) {
      const uint64_t t0 = NowNs();
      Kernel();
      const uint64_t t1 = NowNs();
      Record(t1, double(t1 - t0) * 1e-6);
    }
  }

  /// Samples once when `interval_s` has passed since the last sample;
  /// returns whether it did.
  bool SampleEvery(double interval_s) {
    if (samples() > 0 && NowNs() - last_ns() < uint64_t(interval_s * 1e9)) {
      return false;
    }
    Sample();
    return true;
  }

 private:
  static constexpr size_t kSortItems = 1u << 17;      // 1 MiB, sorted
  static constexpr uint32_t kChaseSlots = 1u << 19;   // 2 MiB, chased
  static constexpr size_t kChaseSteps = 1u << 18;
  static constexpr size_t kCopyBytes = 4u << 20;      // copied twice

  // Every buffer is allocated and touched up front, so the kernel times
  // no page faults.
  void Kernel() {
    std::copy(sort_in_.begin(), sort_in_.end(), sorted_.begin());
    std::sort(sorted_.begin(), sorted_.end());
    uint32_t p =
        static_cast<uint32_t>(sorted_[sorted_.size() / 2] % kChaseSlots);
    for (size_t i = 0; i < kChaseSteps; ++i) p = next_[p];
    std::memcpy(dst_.data(), src_.data(), kCopyBytes);
    std::memcpy(src_.data(), dst_.data(), kCopyBytes);
    sink_ = sink_ + p + static_cast<unsigned char>(src_[p % kCopyBytes]);
  }

  std::vector<uint64_t> sort_in_, sorted_;
  std::vector<uint32_t> next_;
  std::vector<char> src_, dst_;
  volatile uint64_t sink_ = 0;  // keeps the kernel's work observable
};

}  // namespace perfbench
