#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/perf.hpp"
#include "sim/time.hpp"

namespace hipcloud::sim {

/// Handle returned by EventLoop::schedule(); can be used to cancel the
/// event before it fires. Value-semantic and cheap to copy.
class EventHandle {
 public:
  EventHandle() = default;

  bool valid() const { return id_ != 0; }

 private:
  friend class EventLoop;
  explicit EventHandle(std::uint64_t id) : id_(id) {}
  // (generation << 32) | (slot index + 1); 0 is the invalid handle.
  std::uint64_t id_ = 0;
};

/// Deterministic discrete-event scheduler.
///
/// Events scheduled for the same instant fire in schedule order (FIFO),
/// which together with the seeded PRNGs makes every scenario bit-for-bit
/// reproducible. Single-threaded by design: one EventLoop = one simulated
/// world. Parallelism belongs one level up (independent worlds on
/// independent threads, e.g. the bench harness sweeping client counts).
///
/// Internally the queue is two indexed binary heaps of 24-byte POD
/// entries over an arena of generation-tagged callback slots:
///
///  - schedule: grab a slot from the freelist (or grow the arena), store
///    the callback in place (InlineFn — no heap allocation for callables
///    up to 128 bytes), push {when, seq, slot} onto one of two heaps. An
///    event due less than kNearHorizon from now (a link hop, a CPU charge)
///    goes to the *near* heap, which stays a dozen or so entries deep;
///    everything else (retransmit, think-time and keepalive timers) goes
///    to the *far* heap. The split only sets cost: fire always takes the
///    earlier of the two roots by (when, seq), a strict total order, so
///    the fired stream is the same for any horizon.
///  - cancel: O(log n) — validate the handle's generation against the
///    slot, find the entry through the slot's heap position (kept in a
///    compact side array, not in the slot, so sifts never touch callback
///    cache lines), fill the hole with the heap's last entry and sift it.
///    No tombstones: the heaps only ever hold live events.
///  - fire: pop the earlier root, move the callback out, recycle the slot
///    (bump its generation so stale handles can't cancel a reused slot),
///    then invoke — so callbacks can freely schedule/cancel re-entrantly.
class EventLoop {
 public:
  using Callback = InlineFn;

  EventLoop() = default;
  EventLoop(const EventLoop&) = delete;
  EventLoop& operator=(const EventLoop&) = delete;

  /// Current virtual time.
  Time now() const { return now_; }

  /// Schedule `cb` to run `delay` from now. Negative delays clamp to 0.
  EventHandle schedule(Duration delay, Callback cb);

  /// Schedule `cb` at an absolute virtual time. `when` < now() is a
  /// caller bug and fails a HIPCLOUD_CHECK (it is not clamped).
  EventHandle schedule_at(Time when, Callback cb);

  /// Schedule a cross-shard arrival with a schedule-stable identity.
  /// Instead of drawing from the local FIFO counter (whose value depends
  /// on *when* the coordinator drained this post), the entry's seq is the
  /// encoding `kCrossSeqBit | (src << kCrossSrcShift) | post_idx` — a
  /// name fixed at post() time. Consequences, both load-bearing for the
  /// determinism hash:
  ///  - at the same instant, every cross arrival fires after every local
  ///    event (kCrossSeqBit dominates any realistic local counter), and
  ///    cross arrivals order among themselves by (src shard, post index)
  ///    — exactly the coordinator's canonical drain order;
  ///  - the (when, seq) pair folded by PerfCounters::note_fire is
  ///    invariant across epoch slicings, so any horizon rule or run()
  ///    segmentation produces byte-identical hashes by construction.
  /// The local counter is NOT consumed, so local seq streams are equally
  /// slicing-invariant.
  EventHandle schedule_cross(Time when, std::uint32_t src_shard,
                             std::uint64_t post_idx, Callback cb);

  static constexpr std::uint64_t kCrossSeqBit = 1ULL << 63;
  static constexpr unsigned kCrossSrcShift = 40;  // post_idx < 2^40

  /// Cancel a pending event. Returns true if the event existed and had
  /// not yet fired; its entry leaves the heap in O(log n). Cancelling
  /// twice (or after firing) is a harmless no-op (the slot generation has
  /// moved on) and costs O(1). The callback is destroyed last, so its
  /// destructor may itself schedule or cancel.
  bool cancel(EventHandle h);

  /// Run until the event queue drains or `until` (if >= 0) is reached.
  /// Returns the number of events executed.
  std::size_t run(Time until = -1);

  /// Execute at most one pending event. Returns false when queue is empty
  /// or the next event lies beyond `until` (when `until` >= 0).
  bool step(Time until = -1);

  /// Pending (non-cancelled) event count.
  std::size_t pending() const {
    return heaps_[kNear].size() + heaps_[kFar].size();
  }

  /// Time of the earliest pending event, or -1 when none remain. The
  /// shard coordinator uses this between epochs to skip idle stretches
  /// deterministically.
  Time next_event_time() const;

  /// True when no live events remain.
  bool idle() const { return pending() == 0; }

  /// Request run() to stop after the current event completes.
  void stop() { stopped_ = true; }

  /// Delays below this go to the near heap (see the class comment). Sets
  /// cost only, never the firing order.
  static constexpr Duration kNearHorizon = kMillisecond;

  /// Full structural audit of the engine: heap shape ((when, seq) order
  /// holds on every parent/child edge of both heaps), the position index
  /// (every heap entry's slot points back to that entry's tier and index),
  /// slot-arena partition (every slot is referenced by exactly one heap
  /// entry or sits on the freelist, never both, so no heap entry is dead),
  /// near entries within kNearHorizon of now, and no pending event in the
  /// past. O(pending). Throws sim::CheckFailure on the first violation.
  /// Always compiled (tests call it directly); the audit build
  /// (-DHIPCLOUD_AUDIT=ON) additionally runs it every 1024 firings.
  void audit_consistency() const;

  /// Per-world performance counters (event engine + buffer pool + packet
  /// pipeline all record into this one instance).
  PerfCounters& perf() { return perf_; }
  const PerfCounters& perf() const { return perf_; }

 private:
  struct Slot {
    InlineFn cb;
    std::uint32_t gen = 0;  // bumped when the slot is freed
  };
  // POD heap entry; the generation lives only in the handle because a slot
  // is recycled exactly when its (single) heap entry leaves the heap.
  struct HeapEntry {
    Time when;
    std::uint64_t seq;  // tiebreaker: FIFO within the same instant
    std::uint32_t slot;
  };
  using Heap = std::vector<HeapEntry>;

  // Tiers, and their encoding in pos_: (tier << 31) | index in the heap.
  static constexpr unsigned kNear = 0;
  static constexpr unsigned kFar = 1;
  static constexpr unsigned kTierShift = 31;
  static constexpr std::uint32_t kIndexMask = (1u << kTierShift) - 1;
  static constexpr std::uint32_t kFreePos = ~std::uint32_t{0};

  static bool earlier(const HeapEntry& a, const HeapEntry& b) {
    if (a.when != b.when) return a.when < b.when;
    return a.seq < b.seq;
  }

  EventHandle schedule_with_seq(Time when, std::uint64_t seq, Callback&& cb);
  std::uint32_t alloc_slot();
  // Tier whose root fires next; only valid when pending() > 0.
  unsigned next_tier() const;
  // Place `e` at heap index i of `tier`, moving it toward the root (up) or
  // the leaves (down) until the heap property holds.
  void sift_up(unsigned tier, std::size_t i, HeapEntry e);
  void sift_down(unsigned tier, std::size_t i, HeapEntry e);
  // Remove the entry at index i of `tier` and free its slot; returns the
  // callback so the caller chooses when it runs or is destroyed.
  Callback remove(unsigned tier, std::size_t i);

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  bool stopped_ = false;
  Heap heaps_[2];
  std::vector<Slot> slots_;
  std::vector<std::uint32_t> pos_;  // per slot; kFreePos when freelisted
  std::vector<std::uint32_t> free_slots_;
  PerfCounters perf_;
};

}  // namespace hipcloud::sim
