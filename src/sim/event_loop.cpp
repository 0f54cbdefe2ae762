#include "sim/event_loop.hpp"

#include "sim/check.hpp"

namespace hipcloud::sim {

void EventLoop::audit_consistency() const {
  HIPCLOUD_CHECK(pos_.size() == slots_.size(),
                 "position index and slot arena differ in size");
  // Every slot is claimed at most once: by one heap entry or by the
  // freelist. With the count check at the end this makes the two a
  // partition of the arena, so no heap entry can be a freed (dead) slot.
  std::vector<bool> claimed(slots_.size(), false);
  for (const unsigned tier : {kNear, kFar}) {
    const Heap& h = heaps_[tier];
    for (std::size_t i = 0; i < h.size(); ++i) {
      const HeapEntry& e = h[i];
      HIPCLOUD_CHECK(e.slot < slots_.size(),
                     "heap entry references a slot outside the arena");
      HIPCLOUD_CHECK(!claimed[e.slot], "slot referenced by two heap entries");
      claimed[e.slot] = true;
      HIPCLOUD_CHECK(pos_[e.slot] == ((tier << kTierShift) | i),
                     "position index does not point back to the heap entry");
      HIPCLOUD_CHECK(static_cast<bool>(slots_[e.slot].cb),
                     "heap entry without a callback");
      if (i > 0) {
        HIPCLOUD_CHECK(!earlier(e, h[(i - 1) / 2]),
                       "heap property violated: child earlier than parent");
      }
      HIPCLOUD_CHECK(e.when >= now_, "pending event scheduled in the past");
      HIPCLOUD_CHECK(tier == kFar || e.when - now_ < kNearHorizon,
                     "near-heap entry beyond the near horizon");
    }
  }
  for (const std::uint32_t idx : free_slots_) {
    HIPCLOUD_CHECK(idx < slots_.size(), "freelist entry outside the arena");
    HIPCLOUD_CHECK(!claimed[idx],
                   "slot freelisted twice, or freelisted and in a heap");
    claimed[idx] = true;
    HIPCLOUD_CHECK(pos_[idx] == kFreePos,
                   "freelisted slot still has a heap position");
    HIPCLOUD_CHECK(!slots_[idx].cb, "freelisted slot still holds a callback");
  }
  HIPCLOUD_CHECK(pending() + free_slots_.size() == slots_.size(),
                 "slot arena partition broken (leaked slot)");
}

std::uint32_t EventLoop::alloc_slot() {
  if (!free_slots_.empty()) {
    const std::uint32_t idx = free_slots_.back();
    free_slots_.pop_back();
    return idx;
  }
  slots_.emplace_back();
  pos_.push_back(kFreePos);
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

// Both sifts move the 24-byte POD entries through a hole instead of
// swapping, so each level costs one copy (plus one 4-byte position write)
// rather than three.

void EventLoop::sift_up(unsigned tier, std::size_t i, HeapEntry e) {
  Heap& h = heaps_[tier];
  const std::uint32_t tag = tier << kTierShift;
  while (i > 0) {
    const std::size_t parent = (i - 1) / 2;
    if (!earlier(e, h[parent])) break;
    h[i] = h[parent];
    pos_[h[i].slot] = tag | static_cast<std::uint32_t>(i);
    i = parent;
  }
  h[i] = e;
  pos_[e.slot] = tag | static_cast<std::uint32_t>(i);
}

void EventLoop::sift_down(unsigned tier, std::size_t i, HeapEntry e) {
  Heap& h = heaps_[tier];
  const std::uint32_t tag = tier << kTierShift;
  const std::size_t n = h.size();
  while (true) {
    std::size_t child = 2 * i + 1;
    if (child >= n) break;
    if (child + 1 < n && earlier(h[child + 1], h[child])) ++child;
    if (!earlier(h[child], e)) break;
    h[i] = h[child];
    pos_[h[i].slot] = tag | static_cast<std::uint32_t>(i);
    i = child;
  }
  h[i] = e;
  pos_[e.slot] = tag | static_cast<std::uint32_t>(i);
}

EventLoop::Callback EventLoop::remove(unsigned tier, std::size_t i) {
  Heap& h = heaps_[tier];
  const std::uint32_t idx = h[i].slot;
  // Fill the hole with the last entry, which may belong above or below it.
  const HeapEntry last = h.back();
  h.pop_back();
  if (i < h.size()) {
    if (i > 0 && earlier(last, h[(i - 1) / 2])) {
      sift_up(tier, i, last);
    } else {
      sift_down(tier, i, last);
    }
  }
  Slot& s = slots_[idx];
  Callback cb = std::move(s.cb);
  ++s.gen;  // invalidate any outstanding handles to this slot
  pos_[idx] = kFreePos;
  free_slots_.push_back(idx);
  return cb;
}

unsigned EventLoop::next_tier() const {
  const Heap& near = heaps_[kNear];
  const Heap& far = heaps_[kFar];
  if (near.empty()) return kFar;
  if (far.empty()) return kNear;
  return earlier(far.front(), near.front()) ? kFar : kNear;
}

// The public entry points take the callback by value (callers construct
// it in place from a lambda) and hand it on by reference, so it is moved
// exactly once, into its slot: each InlineFn move is an indirect call
// that relocates the whole capture.

EventHandle EventLoop::schedule(Duration delay, Callback cb) {
  if (delay < 0) delay = 0;
  return schedule_with_seq(now_ + delay, next_seq_++, std::move(cb));
}

EventHandle EventLoop::schedule_at(Time when, Callback cb) {
  return schedule_with_seq(when, next_seq_++, std::move(cb));
}

EventHandle EventLoop::schedule_cross(Time when, std::uint32_t src_shard,
                                      std::uint64_t post_idx, Callback cb) {
  HIPCLOUD_DCHECK(src_shard < (1u << (63 - kCrossSrcShift)),
                  "cross seq encoding: shard id too wide");
  HIPCLOUD_DCHECK(post_idx < (1ULL << kCrossSrcShift),
                  "cross seq encoding: post index too wide");
  const std::uint64_t seq =
      kCrossSeqBit | (static_cast<std::uint64_t>(src_shard) << kCrossSrcShift) |
      post_idx;
  return schedule_with_seq(when, seq, std::move(cb));
}

EventHandle EventLoop::schedule_with_seq(Time when, std::uint64_t seq,
                                         Callback&& cb) {
  // schedule() clamps negative delays; an absolute time in the past is a
  // caller bug, and the tier choice below reads when - now_.
  HIPCLOUD_CHECK(when >= now_, "event scheduled in the past");
  const std::uint32_t idx = alloc_slot();
  Slot& s = slots_[idx];
  s.cb = std::move(cb);
  const unsigned tier = when - now_ < kNearHorizon ? kNear : kFar;
  Heap& h = heaps_[tier];
  h.push_back(HeapEntry{when, seq, idx});  // grow; sift_up places it
  sift_up(tier, h.size() - 1, h.back());
  ++perf_.events_scheduled;
  return EventHandle((static_cast<std::uint64_t>(s.gen) << 32) |
                     (static_cast<std::uint64_t>(idx) + 1));
}

bool EventLoop::cancel(EventHandle h) {
  if (!h.valid()) return false;
  const std::uint32_t idx =
      static_cast<std::uint32_t>(h.id_ & 0xffffffffu) - 1;
  const std::uint32_t gen = static_cast<std::uint32_t>(h.id_ >> 32);
  // A fired (or already-cancelled) event has had its slot recycled and its
  // generation bumped, so stale handles fail this check in O(1).
  if (idx >= slots_.size() || slots_[idx].gen != gen) return false;
  const std::uint32_t pos = pos_[idx];
  // The callback outlives the bookkeeping: its destructor may re-enter
  // schedule()/cancel(), which must find the engine consistent.
  const Callback cb = remove(pos >> kTierShift, pos & kIndexMask);
  ++perf_.events_cancelled;
  return true;
}

bool EventLoop::step(Time until) {
  if (pending() == 0) return false;
  const unsigned tier = next_tier();
  // Capture the entry by value: remove() below rewrites the root.
  const HeapEntry entry = heaps_[tier].front();
  if (until >= 0 && entry.when > until) return false;
  HIPCLOUD_CHECK(entry.when >= now_, "event fired with regressed time");
  // Move the callback out and retire the entry *before* invoking, so the
  // callback can re-enter schedule()/cancel() freely.
  Callback cb = remove(tier, 0);
  now_ = entry.when;
  ++perf_.events_fired;
  perf_.note_fire(entry.when, entry.seq);
#ifdef HIPCLOUD_AUDIT_ENABLED
  // Periodic full structural audit; every firing would make the suite
  // O(events * pending).
  if ((perf_.events_fired & 1023u) == 0) audit_consistency();
#endif
  cb();
  return true;
}

Time EventLoop::next_event_time() const {
  if (pending() == 0) return -1;
  return heaps_[next_tier()].front().when;
}

std::size_t EventLoop::run(Time until) {
  stopped_ = false;
  std::size_t n = 0;
  while (!stopped_ && step(until)) ++n;
  // When bounded, advance the clock to the bound so repeated bounded runs
  // observe monotonic time even across empty stretches.
  if (until >= 0 && now_ < until) now_ = until;
  return n;
}

}  // namespace hipcloud::sim
