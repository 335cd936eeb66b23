// Forecast-scheduled D-way merge refills — the read schedule that closes
// the striping-vs-optimal sorting gap on independent disks.
//
// Knuth's forecasting result: during a multiway merge, the run that will
// exhaust its buffered block first is the one whose buffered block has
// the smallest LAST key — the merge consumes blocks in exactly that
// order. So when any run goes empty-handed, we know which other runs
// will need their next block soonest, without reading anything: the
// forecast keys are already in memory.
//
// On a device with D independent heads and randomized cycling placement
// (IndependentDiskDevice), that knowledge turns refills into parallel
// steps: one refill "wave" fetches the empty run's next block PLUS the
// next block of the most urgent other runs, one per distinct disk — no
// head idles while another double-serves, which is precisely the
// independent-disk schedule Vitter's survey credits with beating
// striping's M/(D*B) fan-in. On a single disk (or any device whose
// PrefetchRoute is constant) every candidate collides and the wave
// degenerates to one block — the plain merge refill, same costs.
//
// Transport vs schedule: the wave schedule is computed identically with
// or without an IoEngine. Without one (or without an uncounted plane)
// each wave is one counted ReadBatch — the device charges its
// independent-head step count and fans the transfer per disk. With an
// engine, the trigger's block is read inline (the merge is blocked on
// it anyway) and every other member becomes its own disk-tagged job, so
// those blocks land on their own heads while the merge keeps consuming;
// the PDM charge is deferred to the moment the wave's last block is
// adopted (all members demonstrably landed) via an id-aware Account
// over the same id set — bit-identical totals, earlier wall-clock.
// Background fills flip themselves off on a warm cache (member waits
// that never block mean the engine round-trip is pure overhead) and
// back on at the first slow inline read — a pure transport decision:
// the schedule, and therefore every IoStats charge, is unchanged by it.
//
// Memory: 2 blocks per run (current + staged), the classical 2k-block
// merge buffer budget; no governor lease is taken (the merge IS the
// algorithm's working set, not speculative staging).
#pragma once

#include <algorithm>
#include <chrono>
#include <cstring>
#include <vector>

#include "core/ext_vector.h"
#include "io/block_device.h"
#include "io/io_engine.h"
#include "sort/loser_tree.h"
#include "util/status.h"

namespace vem {

/// Merges k sorted ExtVector<T> runs into an ExtVector writer with
/// forecast-scheduled, wave-batched refills.
template <typename T, typename Cmp = std::less<T>>
class ForecastMerger {
 public:
  explicit ForecastMerger(BlockDevice* dev, Cmp cmp = Cmp())
      : dev_(dev), cmp_(cmp) {
    async_ = dev_->io_engine() != nullptr && dev_->SupportsUncounted() &&
             dev_->SupportsAsync();
  }

  ~ForecastMerger() {
    // Fetches left in flight by an early error abort write into their
    // runs' buffers: wait each one out before the buffers are freed.
    // Speculative blocks never
    // consumed are never charged, like every uncounted-plane stream.
    for (Run& run : runs_) {
      if (run.staged_inflight) (void)dev_->io_engine()->Wait(run.ticket);
      run.staged_inflight = false;
    }
  }

  ForecastMerger(const ForecastMerger&) = delete;
  ForecastMerger& operator=(const ForecastMerger&) = delete;

  /// Merge `runs` (each sorted under cmp) into `out`. The runs' blocks
  /// are read once each; parallel read steps shrink to the wave count.
  Status Merge(const std::vector<const ExtVector<T>*>& runs,
               typename ExtVector<T>::Writer* out) {
    const size_t k = runs.size();
    runs_.clear();
    runs_.resize(k);
    waves_.clear();
    free_waves_.clear();
    waves_issued_ = 0;
    for (size_t r = 0; r < k; ++r) {
      runs_[r].vec = runs[r];
      runs_[r].ipb = runs[r]->items_per_block();
    }
    // Initial fill: every non-empty run needs block 0. The wave builder
    // treats cur-less runs as maximally urgent, so this loads in
    // ~ceil(k/D) parallel steps on D independent disks.
    for (size_t r = 0; r < k; ++r) {
      if (runs_[r].vec->empty()) continue;
      VEM_RETURN_IF_ERROR(EnsureCur(r));
    }
    LoserTree<T, Cmp> tree(k, cmp_);
    for (size_t r = 0; r < k; ++r) {
      if (!runs_[r].vec->empty()) tree.SetSource(r, Head(r));
    }
    tree.Build();
    while (tree.HasWinner()) {
      if (!out->Append(tree.top())) return out->status();
      size_t r = tree.winner();
      Run& run = runs_[r];
      run.pos++;
      run.items_done++;
      if (run.pos < run.cur_items) {
        tree.ReplaceWinner(Head(r));
      } else if (run.items_done < run.vec->size()) {
        VEM_RETURN_IF_ERROR(EnsureCur(r));
        tree.ReplaceWinner(Head(r));
      } else {
        tree.ExhaustWinner();
      }
    }
    return Status::OK();
  }

  /// Refill waves issued (each = one parallel read step on an
  /// independent-disk device; introspection for tests/benches).
  size_t waves_issued() const { return waves_issued_; }

 private:
  struct Run {
    const ExtVector<T>* vec = nullptr;
    size_t ipb = 0;
    size_t next_blk = 0;    // next block index not yet scheduled
    size_t items_done = 0;  // items consumed so far
    // Current block being consumed.
    IoBuffer cur;
    size_t cur_items = 0;
    size_t pos = 0;
    bool cur_valid = false;
    // Staged block (fetched by a wave, not yet adopted).
    IoBuffer staged;
    size_t staged_blk = 0;
    bool staged_valid = false;    // scheduled (in a wave, maybe in flight)
    bool staged_inflight = false; // this member's engine job still running
    IoEngine::Ticket ticket = 0;
    Status staged_st;
    size_t staged_wave = 0;       // index into waves_
  };

  /// One refill wave: ids scheduled together (<= one per distinct
  /// route). In engine mode each member block is its own disk-tagged
  /// job — the trigger run waits only ITS block while the others land
  /// in the background — and the whole wave is charged once, when its
  /// last member is adopted, via an id-aware Account over the same ids
  /// (one parallel step on an independent-disk device, exactly what
  /// the counted transport charges at issue time; a wave cut short by
  /// an error charges nothing on either transport).
  struct Wave {
    std::vector<uint64_t> ids;
    size_t members_left = 0;  // unadopted members; 0 = slot recyclable
    bool accounted = false;
    Status st;
  };

  static uint64_t NowNs() {
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
  }

  T Head(size_t r) const {
    T v;
    std::memcpy(&v, runs_[r].cur.get() + runs_[r].pos * sizeof(T), sizeof(T));
    return v;
  }
  T LastKey(const Run& run) const {
    T v;
    std::memcpy(&v, run.cur.get() + (run.cur_items - 1) * sizeof(T),
                sizeof(T));
    return v;
  }

  /// Make run r's next block current. Schedules a wave if nothing is
  /// staged for r yet (r is the trigger: most urgent by definition),
  /// waits out r's own fetch, swaps; the wave is charged when its last
  /// member is adopted.
  Status EnsureCur(size_t r) {
    Run& run = runs_[r];
    if (!run.staged_valid) ScheduleWave(r);
    if (run.staged_inflight) {
      uint64_t t0 = NowNs();
      run.staged_st = dev_->io_engine()->Wait(run.ticket);
      run.staged_inflight = false;
      // Transport advisory: member waits that keep returning instantly
      // mean the fills beat the merge comfortably (warm cache) and the
      // per-job engine round-trip is pure overhead — go inline. A slow
      // inline read in ScheduleWave flips background fills back on.
      if (NowNs() - t0 < kFastWaitNs) {
        if (++fast_waits_ >= kFastWaitsToInline) use_engine_ = false;
      } else {
        fast_waits_ = 0;
      }
    }
    Wave& w = waves_[run.staged_wave];
    VEM_RETURN_IF_ERROR(w.st);
    VEM_RETURN_IF_ERROR(run.staged_st);
    // Wave bookkeeping must stay bounded over an arbitrarily long merge:
    // once every member is adopted the slot is recycled, so live waves
    // never exceed the run count — merge metadata is O(k), not O(N/B).
    // The deferred charge happens HERE, at the last adoption, when every
    // member block has demonstrably landed and been consumed: a wave
    // with a failed member aborts the merge before this point, charging
    // nothing — exactly like the counted transport, whose whole-wave
    // ReadBatch fails before any stats update. Totals on the success
    // path are identical either way (every wave is fully adopted).
    if (--w.members_left == 0) {
      if (async_ && !w.accounted) {
        dev_->Account(/*write=*/false, w.ids.data(), w.ids.size());
        w.accounted = true;
      }
      std::vector<uint64_t>().swap(w.ids);
      free_waves_.push_back(run.staged_wave);
    }
    std::swap(run.cur, run.staged);
    run.staged_valid = false;
    size_t blk = run.staged_blk;
    size_t total = run.vec->size();
    run.cur_items = std::min(run.ipb, total - blk * run.ipb);
    run.pos = 0;
    run.cur_valid = true;
    return Status::OK();
  }

  /// Build and issue one refill wave triggered by empty-handed run r:
  /// r's next block first, then the next block of each most-urgent run
  /// (smallest buffered last key — Knuth's forecast) whose disk is not
  /// yet serving this wave.
  void ScheduleWave(size_t trigger) {
    // Candidates with a next block and no block already staged, by
    // urgency. Cur-less runs (initial fill) tie with the trigger at
    // maximal urgency; order among them is run index (deterministic).
    std::vector<size_t> cands;
    for (size_t r = 0; r < runs_.size(); ++r) {
      Run& run = runs_[r];
      if (r == trigger || run.staged_valid) continue;
      if (run.next_blk >= run.vec->num_blocks()) continue;
      if (!run.cur_valid) {
        cands.push_back(r);  // initial fill: needs a block outright
      } else if (run.pos < run.cur_items) {
        cands.push_back(r);  // forecast-ranked below
      }
    }
    std::stable_sort(cands.begin(), cands.end(), [&](size_t a, size_t b) {
      const Run& ra = runs_[a];
      const Run& rb = runs_[b];
      bool a_urgent = !ra.cur_valid;
      bool b_urgent = !rb.cur_valid;
      if (a_urgent != b_urgent) return a_urgent;
      if (a_urgent) return false;  // both cur-less: keep index order
      return cmp_(LastKey(ra), LastKey(rb));
    });
    size_t slot;
    if (!free_waves_.empty()) {
      slot = free_waves_.back();
      free_waves_.pop_back();
      waves_[slot] = Wave{};
    } else {
      slot = waves_.size();
      waves_.emplace_back();
    }
    waves_issued_++;
    Wave& w = waves_[slot];
    std::vector<void*> ptrs;
    std::vector<uint64_t> used_routes;
    std::vector<size_t> members;
    auto try_add = [&](size_t r) {
      Run& run = runs_[r];
      uint64_t id = run.vec->block_id(run.next_blk);
      uint64_t route = dev_->PrefetchRoute(id);
      for (uint64_t u : used_routes) {
        if (u == route) return;  // head already serving this wave
      }
      used_routes.push_back(route);
      if (!run.staged) {
        run.staged = AllocIoBuffer(dev_->block_size());
      }
      run.staged_blk = run.next_blk;
      run.staged_valid = true;
      run.staged_st = Status::OK();
      run.staged_wave = slot;
      run.next_blk++;
      w.ids.push_back(id);
      ptrs.push_back(run.staged.get());
      members.push_back(r);
    };
    try_add(trigger);
    for (size_t r : cands) try_add(r);
    w.members_left = members.size();
    if (async_) {
      // The trigger's block is read inline — the merge is blocked on
      // exactly this transfer, so an engine round-trip buys nothing.
      // Every other member becomes its own disk-tagged job: those
      // blocks land concurrently on their own heads while the merge
      // keeps consuming. The tag folds the placement route onto the
      // device identity so every device sharing the engine keeps
      // distinct per-disk queues.
      BlockDevice* dev = dev_;
      IoEngine* engine = dev->io_engine();
      uint64_t t0 = NowNs();
      runs_[members[0]].staged_st = dev->ReadUncounted(w.ids[0], ptrs[0]);
      if (NowNs() - t0 > kSlowReadNs) {
        // Real device latency is back: background fills pay again.
        use_engine_ = true;
        fast_waits_ = 0;
      }
      for (size_t i = 1; i < members.size(); ++i) {
        Run& run = runs_[members[i]];
        if (!use_engine_) {
          run.staged_st = dev->ReadUncounted(w.ids[i], ptrs[i]);
          continue;
        }
        // The device's own head identity, shared with every other
        // submission path for this disk, so the per-disk in-flight cap
        // really is one transfer per head across streams and the merge.
        uint64_t tag = dev->EngineDiskTag(w.ids[i]);
        run.ticket = engine->Submit(
            [dev, id = w.ids[i], ptr = ptrs[i]] {
              return dev->ReadUncounted(id, ptr);
            },
            tag);
        run.staged_inflight = true;
      }
    } else {
      // Counted transport: the device charges its independent-head wave
      // step count right here; nothing left to defer.
      w.st = dev_->ReadBatch(w.ids.data(), ptrs.data(), w.ids.size());
      w.accounted = true;
    }
  }

  // Transport-advisory thresholds: a member wait under kFastWaitNs is a
  // cv handoff, not a device wait; an inline read over kSlowReadNs is
  // real device latency (same bar the governor's stall floor uses).
  static constexpr uint64_t kFastWaitNs = 20000;
  static constexpr uint64_t kSlowReadNs = 50000;
  static constexpr size_t kFastWaitsToInline = 16;

  BlockDevice* dev_;
  Cmp cmp_;
  bool async_ = false;
  bool use_engine_ = true;   // transport only; never changes the schedule
  size_t fast_waits_ = 0;
  size_t waves_issued_ = 0;
  std::vector<Run> runs_;
  std::vector<Wave> waves_;       // slots; recycled via free_waves_
  std::vector<size_t> free_waves_;
};

}  // namespace vem
