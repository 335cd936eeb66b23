// Span recorder and the statistics helpers the benchmark reports with.
//
// Spans are taken from outside the library: the workloads open one
// around each call into a layer's public functions. A span records its
// name, start and end (steady clock), the thread CPU time it consumed,
// its parent span and the request it belongs to. Each thread appends to
// its own SpanBuffer, so recording takes no lock; the buffers are read
// only after the recording threads have been joined.
//
// A disabled buffer records nothing and reads no clock, so the untraced
// runs that produce the end-to-end numbers pay one branch per span.
#pragma once

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

inline uint64_t ThreadCpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000ull +
         static_cast<uint64_t>(ts.tv_nsec);
}

struct Span {
  const char* name = "";
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  uint64_t cpu_ns = 0;
  int64_t parent = -1;  // index in the same buffer; -1 for a root span
  uint64_t request = 0;

  uint64_t wall_ns() const { return end_ns - start_ns; }
};

/// One thread's spans. Only the owning thread writes it.
class SpanBuffer {
 public:
  explicit SpanBuffer(uint32_t thread) : thread_(thread) {}

  bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }
  uint32_t thread() const { return thread_; }

  size_t Open(const char* name, uint64_t request) {
    Span s;
    s.name = name;
    s.parent = open_.empty() ? -1 : static_cast<int64_t>(open_.back());
    s.request = request;
    s.cpu_ns = ThreadCpuNs();
    s.start_ns = NowNs();
    spans_.push_back(s);
    open_.push_back(spans_.size() - 1);
    return spans_.size() - 1;
  }

  void Close(size_t idx) {
    Span& s = spans_[idx];
    s.end_ns = NowNs();
    s.cpu_ns = ThreadCpuNs() - s.cpu_ns;
    open_.pop_back();
  }

  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<size_t> open_;
};

/// RAII span; a no-op when the buffer is disabled.
class ScopedSpan {
 public:
  ScopedSpan(SpanBuffer* buf, const char* name, uint64_t request = 0)
      : buf_(buf->enabled() ? buf : nullptr) {
    if (buf_ != nullptr) idx_ = buf_->Open(name, request);
  }
  ~ScopedSpan() {
    if (buf_ != nullptr) buf_->Close(idx_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  SpanBuffer* buf_;
  size_t idx_ = 0;
};

/// Owns every thread's buffer. Buffer() is thread-safe; the returned
/// pointer stays valid for the recorder's lifetime.
class SpanRecorder {
 public:
  SpanBuffer* Buffer() {
    std::lock_guard<std::mutex> lk(mu_);
    buffers_.push_back(
        std::make_unique<SpanBuffer>(static_cast<uint32_t>(buffers_.size())));
    return buffers_.back().get();
  }

  /// Read only after every recording thread has been joined.
  const std::deque<std::unique_ptr<SpanBuffer>>& buffers() const {
    return buffers_;
  }

 private:
  std::mutex mu_;
  std::deque<std::unique_ptr<SpanBuffer>> buffers_;
};

/// Self time of each span: its duration minus the part of its interval
/// covered by its children. Children may overlap one another; each
/// instant is subtracted once, and child time outside the parent's
/// interval is ignored.
inline std::vector<uint64_t> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<size_t>> children(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    if (spans[i].parent >= 0) {
      children[static_cast<size_t>(spans[i].parent)].push_back(i);
    }
  }
  std::vector<uint64_t> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& p = spans[i];
    std::vector<std::pair<uint64_t, uint64_t>> iv;
    for (size_t c : children[i]) {
      uint64_t lo = std::max(spans[c].start_ns, p.start_ns);
      uint64_t hi = std::min(spans[c].end_ns, p.end_ns);
      if (lo < hi) iv.emplace_back(lo, hi);
    }
    std::sort(iv.begin(), iv.end());
    uint64_t covered = 0, cur_lo = 0, cur_hi = 0;
    bool open = false;
    for (const auto& [lo, hi] : iv) {
      if (open && lo <= cur_hi) {
        cur_hi = std::max(cur_hi, hi);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = lo;
      cur_hi = hi;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = p.wall_ns() - covered;
  }
  return self;
}

/// Every span of one name, over all buffers.
struct SpanSummary {
  size_t count = 0;
  double wall_s = 0, cpu_s = 0, self_s = 0;
  std::vector<double> wall_ms;  // one entry per span

  double mean_wall_s() const { return count ? wall_s / double(count) : 0; }
  double mean_cpu_s() const { return count ? cpu_s / double(count) : 0; }
};

inline std::map<std::string, SpanSummary> Summarize(const SpanRecorder& rec) {
  std::map<std::string, SpanSummary> out;
  for (const auto& buf : rec.buffers()) {
    const std::vector<Span>& spans = buf->spans();
    std::vector<uint64_t> self = SelfTimes(spans);
    for (size_t i = 0; i < spans.size(); ++i) {
      SpanSummary& s = out[spans[i].name];
      s.count++;
      s.wall_s += double(spans[i].wall_ns()) * 1e-9;
      s.cpu_s += double(spans[i].cpu_ns) * 1e-9;
      s.self_s += double(self[i]) * 1e-9;
      s.wall_ms.push_back(double(spans[i].wall_ns()) * 1e-6);
    }
  }
  return out;
}

/// Nearest-rank percentile (p in [0, 100]) of `v`; 0 for an empty set.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

inline double Median(const std::vector<double>& v) { return Percentile(v, 50); }

/// The highest of `candidates` (percentiles, any order) that leaves at
/// least `min_beyond` of `n` samples strictly above it, so the tail is
/// never set by a handful of outliers. Returns 100 (the maximum) when no
/// candidate qualifies.
inline double TailPercentile(size_t n, std::vector<double> candidates,
                             size_t min_beyond = 10) {
  std::sort(candidates.rbegin(), candidates.rend());
  for (double p : candidates) {
    double rank = std::ceil(p / 100.0 * static_cast<double>(n));
    if (static_cast<double>(n) - rank >= static_cast<double>(min_beyond)) {
      return p;
    }
  }
  return 100.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

}  // namespace perfbench
