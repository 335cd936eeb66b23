// What one benchmark run reports: the metric values, the correctness
// tally and the exact counters, plus the arguments every workload reads.
// The metric names and units are those of BENCHMARK.json; run.py picks
// the end-to-end or per-layer ones out of the values a run sets.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "reference.h"
#include "trace.h"

namespace perfbench {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string tmp_dir;    // fresh per run; removed by the caller
  std::string spans_out;  // where the traced run writes its spans
};

class Report {
 public:
  /// Set a metric named in BENCHMARK.json (end-to-end or per-layer).
  void Set(const std::string& name, double value) { values_[name] = value; }

  /// A workload-specific metric under the name the metric docs use
  /// (sort_mb_s, lookup_p99_us, ...); printed as a text line.
  void Named(const std::string& name, double value, const std::string& unit) {
    named_.push_back({name, value, unit});
  }

  /// A logical count that must repeat exactly for one seed, traced or
  /// not; the runner compares it across runs.
  void Exact(const std::string& name, double value) { exact_[name] = value; }

  void Attempt(uint64_t n = 1) { attempted_ += n; }
  /// Count one failed, shed or wrong result.
  void Fail(const std::string& what) {
    failed_++;
    if (failures_.size() < 20) failures_.push_back(what);
  }

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<std::string>& failures() const { return failures_; }
  const std::map<std::string, double>& values() const { return values_; }
  const std::map<std::string, double>& exact() const { return exact_; }

  struct NamedMetric {
    std::string name;
    double value;
    std::string unit;
  };
  const std::vector<NamedMetric>& named() const { return named_; }

 private:
  std::map<std::string, double> values_;
  std::map<std::string, double> exact_;
  std::vector<NamedMetric> named_;
  std::vector<std::string> failures_;
  uint64_t attempted_ = 0, failed_ = 0;
};

/// Per-round wall times split by tracing: the median untraced round sets
/// a workload's rate, and the two means give trace.overhead_share.
struct RoundTimes {
  std::vector<double> untraced_s, traced_s;

  void Add(bool traced, double s) {
    (traced ? traced_s : untraced_s).push_back(s);
  }
  void Merge(const RoundTimes& o) {
    untraced_s.insert(untraced_s.end(), o.untraced_s.begin(), o.untraced_s.end());
    traced_s.insert(traced_s.end(), o.traced_s.begin(), o.traced_s.end());
  }
  /// Traced over untraced mean round time, minus one.
  double OverheadShare() const {
    double u = Mean(untraced_s), t = Mean(traced_s);
    return u > 0 && t > 0 ? t / u - 1.0 : 0.0;
  }
};

/// Each workload samples `speed` between its setup repetitions and its
/// rounds, and reports its wall-clock end-to-end metrics scaled by it.
/// Times recorded round by round (a round may add none, one or many),
/// scaled after the run by the machine slowness around the round that
/// produced them, once the samples after it are known too.
class PerRound {
 public:
  void Add(double v) { values_.push_back(v); }
  /// Closes the round that ran from `from_ns` to `to_ns`.
  void EndRound(uint64_t from_ns, uint64_t to_ns) {
    rounds_.push_back({from_ns, to_ns, values_.size()});
  }

  /// As measured.
  const std::vector<double>& raw() const { return values_; }
  /// At the reference speed: each value divided by the slowness around
  /// its round. Values after the last EndRound are left out.
  std::vector<double> Scaled(const SpeedLog& cpu) const {
    std::vector<double> out;
    size_t begin = 0;
    for (const Round& r : rounds_) {
      const double slowness = cpu.SlownessAround(r.from_ns, r.to_ns);
      for (size_t i = begin; i < r.end; ++i) out.push_back(values_[i] / slowness);
      begin = r.end;
    }
    return out;
  }

 private:
  struct Round {
    uint64_t from_ns, to_ns;
    size_t end;  // one past the round's last value
  };
  std::vector<double> values_;
  std::vector<Round> rounds_;
};

void RunSortWide(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                 Report* rep);
void RunIndexZipf(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                  Report* rep);
void RunIngestWal(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                  Report* rep);
void RunServeMixed(const Args& args, SpanRecorder* rec, MachineSpeed* speed,
                   Report* rep);

}  // namespace perfbench
