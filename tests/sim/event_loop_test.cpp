#include "sim/event_loop.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <functional>
#include <map>
#include <utility>
#include <vector>

#include "sim/check.hpp"
#include "sim/random.hpp"

namespace hipcloud::sim {
namespace {

TEST(EventLoop, StartsAtTimeZero) {
  EventLoop loop;
  EXPECT_EQ(loop.now(), 0);
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, RunsEventsInTimeOrder) {
  EventLoop loop;
  std::vector<int> order;
  loop.schedule(30, [&] { order.push_back(3); });
  loop.schedule(10, [&] { order.push_back(1); });
  loop.schedule(20, [&] { order.push_back(2); });
  EXPECT_EQ(loop.run(), 3u);
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(loop.now(), 30);
}

TEST(EventLoop, SameInstantIsFifo) {
  EventLoop loop;
  std::vector<int> order;
  for (int i = 0; i < 5; ++i) {
    loop.schedule(100, [&order, i] { order.push_back(i); });
  }
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
}

TEST(EventLoop, NegativeDelayClampsToNow) {
  EventLoop loop;
  Time fired_at = -1;
  loop.schedule(50, [&] {
    loop.schedule(-10, [&] { fired_at = loop.now(); });
  });
  loop.run();
  EXPECT_EQ(fired_at, 50);
}

TEST(EventLoop, AbsoluteTimeInThePastIsACheckFailure) {
  EventLoop loop;
  loop.schedule(50, [&] {
    EXPECT_THROW(loop.schedule_at(40, [] {}), CheckFailure);
    EXPECT_THROW(loop.schedule_cross(49, 0, 0, [] {}), CheckFailure);
    loop.schedule_at(50, [] {});  // now itself is fine
  });
  EXPECT_EQ(loop.run(), 2u);
  loop.audit_consistency();
}

TEST(EventLoop, EventsScheduleMoreEvents) {
  EventLoop loop;
  int count = 0;
  std::function<void()> chain = [&] {
    if (++count < 10) loop.schedule(5, chain);
  };
  loop.schedule(5, chain);
  loop.run();
  EXPECT_EQ(count, 10);
  EXPECT_EQ(loop.now(), 50);
}

TEST(EventLoop, CancelPreventsExecution) {
  EventLoop loop;
  bool fired = false;
  const auto h = loop.schedule(10, [&] { fired = true; });
  EXPECT_TRUE(loop.cancel(h));
  loop.run();
  EXPECT_FALSE(fired);
}

TEST(EventLoop, CancelTwiceReturnsFalse) {
  EventLoop loop;
  const auto h = loop.schedule(10, [] {});
  EXPECT_TRUE(loop.cancel(h));
  EXPECT_FALSE(loop.cancel(h));
  loop.run();
}

TEST(EventLoop, CancelInvalidHandleIsNoop) {
  EventLoop loop;
  EXPECT_FALSE(loop.cancel(EventHandle{}));
}

TEST(EventLoop, RunUntilStopsAtBound) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] { ++fired; });
  loop.schedule(20, [&] { ++fired; });
  loop.schedule(30, [&] { ++fired; });
  EXPECT_EQ(loop.run(15), 1u);
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.now(), 15);  // clock advances to the bound
  EXPECT_EQ(loop.run(), 2u);
  EXPECT_EQ(fired, 3);
}

TEST(EventLoop, StopHaltsRun) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] {
    ++fired;
    loop.stop();
  });
  loop.schedule(20, [&] { ++fired; });
  loop.run();
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, ScheduleAtAbsoluteTime) {
  EventLoop loop;
  Time fired_at = -1;
  loop.schedule_at(123, [&] { fired_at = loop.now(); });
  loop.run();
  EXPECT_EQ(fired_at, 123);
}

TEST(EventLoop, PendingCountExcludesCancelled) {
  EventLoop loop;
  loop.schedule(10, [] {});
  const auto h = loop.schedule(20, [] {});
  EXPECT_EQ(loop.pending(), 2u);
  loop.cancel(h);
  EXPECT_EQ(loop.pending(), 1u);
}

TEST(EventLoop, StepExecutesOneEvent) {
  EventLoop loop;
  int fired = 0;
  loop.schedule(10, [&] { ++fired; });
  loop.schedule(20, [&] { ++fired; });
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(loop.step());
  EXPECT_EQ(fired, 2);
  EXPECT_FALSE(loop.step());
}

TEST(EventLoop, CancelAfterFireReturnsFalse) {
  EventLoop loop;
  const auto h = loop.schedule(10, [] {});
  loop.run();
  EXPECT_FALSE(loop.cancel(h));
  loop.audit_consistency();
}

// The RTO re-arm pattern: every ack cancels the pending retransmit timer
// and schedules a new one; sometimes the timer wins and the cancel arrives
// late. A long closed-loop run must keep the heaps and the slot arena
// consistent through every cancel, late or not, and drain completely.
TEST(EventLoop, HeavyRearmChurnLeavesNoTombstones) {
  EventLoop loop;
  std::size_t scheduled = 0, cancelled = 0, fired = 0, late_cancels = 0;
  std::size_t rounds = 0;
  EventHandle rto;
  std::function<void()> ack = [&] {
    ++fired;
    if (rto.valid()) {
      if (loop.cancel(rto)) {
        ++cancelled;
      } else {
        ++late_cancels;  // timer already fired — a no-op
      }
    }
    if (scheduled < 10000) {
      rto = loop.schedule(100, [&] { ++fired; });
      ++scheduled;
      // Every 20th ack dawdles past the timer so the cancel arrives late.
      loop.schedule(++rounds % 20 == 0 ? 150 : 1, ack);
      ++scheduled;
    }
    // pending() counts exactly the scheduled-but-not-fired-or-cancelled
    // events, and the audit proves the heaps hold only those (no dead
    // entry) with every position-index entry pointing back to its slot.
    EXPECT_EQ(loop.pending(), scheduled + 1 - fired - cancelled);
    if (fired % 64 == 0) loop.audit_consistency();
  };
  loop.schedule(0, ack);
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();
  EXPECT_TRUE(loop.idle());
  EXPECT_GT(cancelled, 4000u);   // the churn actually happened
  EXPECT_GT(late_cancels, 100u);  // and the late-cancel path was exercised
}

TEST(EventLoop, PendingMatchesLiveEventsUnderMixedCancellation) {
  EventLoop loop;
  std::vector<EventHandle> handles;
  for (int i = 0; i < 100; ++i) handles.push_back(loop.schedule(i, [] {}));
  for (int i = 0; i < 100; i += 2) loop.cancel(handles[i]);
  EXPECT_EQ(loop.pending(), 50u);
  loop.audit_consistency();
  loop.run(49);  // fires the odd-delay events up to t=49
  EXPECT_EQ(loop.pending(), 25u);
  loop.audit_consistency();
  loop.run();
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();
  EXPECT_TRUE(loop.idle());
}

TEST(EventLoop, GoldenFiringOrderUnderSameInstantCancelChurn) {
  // Determinism regression for the indexed-heap engine: interleaved
  // schedule / cancel / re-schedule at identical instants must fire in
  // exactly the order the documented rule implies — same-instant events
  // fire in schedule order, cancellations never perturb the order of
  // survivors, and a re-schedule counts as a fresh schedule (it joins the
  // back of its instant). The simulation results of every seeded world
  // depend on this sequence, so it is pinned as a golden vector.
  EventLoop loop;
  std::vector<int> order;
  auto rec = [&order](int id) {
    return [&order, id] { order.push_back(id); };
  };

  const auto a = loop.schedule(10, rec(1));
  const auto b = loop.schedule(10, rec(2));
  loop.schedule(10, rec(3));
  loop.cancel(b);          // hole between two survivors
  loop.schedule(10, rec(4));  // "re-scheduled b": new event, back of t=10
  loop.schedule(5, rec(5));   // scheduled later but fires first
  loop.cancel(a);          // cancel the head of the t=10 instant
  loop.schedule(10, rec(6));
  // From inside a t=5 callback, schedule into the t=10 instant: it must
  // land behind every event already queued there.
  loop.schedule(5, [&] { loop.schedule(5, rec(7)); });

  loop.run();
  EXPECT_EQ(order, (std::vector<int>{5, 3, 4, 6, 7}));
  EXPECT_EQ(loop.pending(), 0u);
  loop.audit_consistency();

  // Stale handles from the drained run must not cancel anything ever
  // again, even after their slots are recycled by new events.
  std::vector<EventHandle> fresh;
  for (int i = 0; i < 8; ++i) fresh.push_back(loop.schedule(1, rec(100 + i)));
  EXPECT_FALSE(loop.cancel(a));
  EXPECT_FALSE(loop.cancel(b));
  EXPECT_EQ(loop.pending(), 8u);
  loop.run();
  EXPECT_EQ(order.size(), 13u);
}

// Reference model for the differential test below: the documented
// firing rule written as plainly as possible. One ordered map from
// (when, seq) to a handle id; the callback lives beside it. Cancel and
// fire destroy the callback after the bookkeeping, like the engine.
class RefLoop {
 public:
  using Handle = std::uint64_t;  // 0 is the invalid handle

  Time now() const { return now_; }
  std::size_t pending() const { return order_.size(); }

  Handle schedule(Duration delay, InlineFn cb) {
    return schedule_at(now_ + std::max<Duration>(delay, 0), std::move(cb));
  }
  Handle schedule_at(Time when, InlineFn cb) {
    return add(when, next_seq_++, std::move(cb));
  }
  Handle schedule_cross(Time when, std::uint32_t src, std::uint64_t idx,
                        InlineFn cb) {
    return add(when,
               EventLoop::kCrossSeqBit |
                   (std::uint64_t{src} << EventLoop::kCrossSrcShift) | idx,
               std::move(cb));
  }

  bool cancel(Handle h) {
    const auto it = live_.find(h);
    if (it == live_.end()) return false;
    const InlineFn cb = std::move(it->second.second);
    order_.erase(it->second.first);
    live_.erase(it);
    return true;
  }

  bool step(Time until = -1) {
    if (order_.empty()) return false;
    const auto [key, h] = *order_.begin();
    if (until >= 0 && key.first > until) return false;
    order_.erase(order_.begin());
    InlineFn cb = std::move(live_.at(h).second);
    live_.erase(h);
    now_ = key.first;
    cb();
    return true;
  }

  std::size_t run(Time until = -1) {
    std::size_t n = 0;
    while (step(until)) ++n;
    if (until >= 0 && now_ < until) now_ = until;
    return n;
  }

  Time next_event_time() const {
    return order_.empty() ? -1 : order_.begin()->first.first;
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;

  Handle add(Time when, std::uint64_t seq, InlineFn cb) {
    const Handle h = next_handle_++;
    order_.emplace(Key{when, seq}, h);
    live_.emplace(h, std::make_pair(Key{when, seq}, std::move(cb)));
    return h;
  }

  Time now_ = 0;
  std::uint64_t next_seq_ = 0;
  Handle next_handle_ = 1;
  std::map<Key, Handle> order_;
  std::map<Handle, std::pair<Key, InlineFn>> live_;
};

// Drives one loop with a seeded random script: schedules on both sides of
// the near/far boundary (and exactly on it), same-instant ties, absolute
// and cross-shard arrivals, cancels of live and stale handles, bounded
// run(until)/step(until), next_event_time() probes — with callbacks and
// callback destructors that schedule and cancel re-entrantly. Everything
// the loop reports goes into `log`; the same seed on the engine and on
// RefLoop must produce the same log.
template <typename Loop>
class Script {
 public:
  using Handle = decltype(std::declval<Loop&>().schedule(0, InlineFn{}));
  using Log = std::vector<std::array<std::int64_t, 3>>;

  explicit Script(std::uint64_t seed) : rng_(seed) {}
  ~Script() { alive_ = false; }

  Log run(int ops) {
    for (int i = 0; i < ops; ++i) {
      switch (draw(8)) {
        case 0:
        case 1:
        case 2:
          act();
          break;
        case 3:
          note(kStep, loop_.step(), loop_.now());
          break;
        case 4:
          note(kStep, loop_.step(loop_.now() + delay()), loop_.now());
          break;
        case 5: {
          const Time until = loop_.now() + delay();
          note(kRun, static_cast<std::int64_t>(loop_.run(until)),
               loop_.now());
          break;
        }
        case 6:
          note(kNext, loop_.next_event_time(), loop_.now());
          break;
        default:
          note(kPending, static_cast<std::int64_t>(loop_.pending()), 0);
          break;
      }
      audit();
    }
    budget_ = 0;  // drain: callbacks stop scheduling
    note(kRun, static_cast<std::int64_t>(loop_.run()), loop_.now());
    audit();
    note(kPending, static_cast<std::int64_t>(loop_.pending()), 0);
    return log_;
  }

  std::size_t fired() const { return fired_; }
  std::size_t cancelled() const { return cancelled_; }
  std::size_t destructor_acts() const { return destructor_acts_; }

 private:
  enum : std::int64_t { kFire, kDtor, kCancel, kStep, kRun, kNext, kPending };

  // Runs an action when destroyed, unless moved from: the engine and the
  // model move callbacks a different number of times, but destroy each
  // scheduled one exactly once.
  struct OnDestroy {
    Script* s;
    int id;
    OnDestroy(Script* script, int event) : s(script), id(event) {}
    OnDestroy(OnDestroy&& o) noexcept : s(o.s), id(o.id) { o.s = nullptr; }
    OnDestroy(const OnDestroy&) = delete;
    ~OnDestroy() {
      if (s && s->alive_) s->destroyed(id);
    }
  };

  std::uint64_t draw(std::uint64_t n) { return rng_.next() % n; }

  // Delays clustered around the tier boundary, plus ties and long timers.
  Duration delay() {
    constexpr Duration kH = EventLoop::kNearHorizon;
    switch (draw(6)) {
      case 0:
        return static_cast<Duration>(draw(4)) * 1000;  // same-instant ties
      case 1:
        return kH - 1 + static_cast<Duration>(draw(3));  // H-1, H, H+1
      case 2:
        return static_cast<Duration>(draw(kH));
      case 3:
        return kH + static_cast<Duration>(draw(100 * kH));
      case 4:
        return static_cast<Duration>(draw(3 * kH));
      default:
        return static_cast<Duration>(draw(2 * kH)) - kH / 2;  // may be < 0
    }
  }

  InlineFn make(int id) {
    return [this, id, guard = OnDestroy(this, id)] { fire(id); };
  }

  void act() {
    const std::uint64_t what = draw(10);
    if (what < 6 && budget_ > 0) {
      --budget_;
      const int id = next_id_++;
      if (what < 3) {
        handles_.push_back(loop_.schedule(delay(), make(id)));
      } else if (what < 5) {
        const Time when = loop_.now() + std::max<Duration>(delay(), 0);
        handles_.push_back(loop_.schedule_at(when, make(id)));
      } else {
        const auto src = static_cast<std::uint32_t>(draw(4));
        const Time when = loop_.now() + std::max<Duration>(delay(), 0);
        handles_.push_back(
            loop_.schedule_cross(when, src, next_post_[src]++, make(id)));
      }
    } else if (what < 9 && !handles_.empty()) {
      // Mostly recent handles (often still pending), sometimes any.
      const std::size_t n = handles_.size();
      const std::size_t k =
          draw(4) == 0 ? draw(n) : n - 1 - draw(std::min<std::size_t>(n, 16));
      const bool hit = loop_.cancel(handles_[k]);
      cancelled_ += hit;
      note(kCancel, static_cast<std::int64_t>(k), hit);
    }
  }

  void fire(int id) {
    ++fired_;
    note(kFire, id, loop_.now());
    audit();
    for (std::uint64_t n = draw(3); n > 0; --n) act();
  }

  void destroyed(int id) {
    note(kDtor, id, loop_.now());
    audit();
    if (draw(3) == 0) {
      ++destructor_acts_;
      act();
    }
  }

  void note(std::int64_t kind, std::int64_t a, std::int64_t b) {
    log_.push_back({kind, a, b});
  }

  void audit() const {
    if constexpr (requires(const Loop& l) { l.audit_consistency(); }) {
      loop_.audit_consistency();
    }
  }

  bool alive_ = true;  // declared before loop_: outlives its teardown
  Loop loop_;
  Xoshiro256 rng_;
  std::vector<Handle> handles_;
  Log log_;
  int next_id_ = 0;
  int budget_ = 3000;
  std::uint64_t next_post_[4] = {};
  std::size_t fired_ = 0;
  std::size_t cancelled_ = 0;
  std::size_t destructor_acts_ = 0;
};

TEST(EventLoop, DifferentialAgainstOrderedSetModel) {
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    SCOPED_TRACE(seed);
    Script<EventLoop> engine(seed);
    Script<RefLoop> model(seed);
    const auto got = engine.run(4000);
    const auto want = model.run(4000);
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], want[i]) << "first divergence at log entry " << i;
    }
    // The script exercised what it claims to.
    EXPECT_GT(engine.fired(), 1000u);
    EXPECT_GT(engine.cancelled(), 100u);
    EXPECT_GT(engine.destructor_acts(), 100u);
  }
}

// A cancelled callback is destroyed only after the engine is consistent
// again, so its destructor may schedule and cancel.
TEST(EventLoop, CancelledCallbackDestructorMayReenter) {
  EventLoop loop;
  std::vector<int> order;
  const EventHandle victim = loop.schedule(30, [&] { order.push_back(3); });
  struct Reenter {
    EventLoop* loop;
    EventHandle victim;
    std::vector<int>* order;
    Reenter(EventLoop* l, EventHandle v, std::vector<int>* o)
        : loop(l), victim(v), order(o) {}
    Reenter(Reenter&& r) noexcept
        : loop(std::exchange(r.loop, nullptr)), victim(r.victim),
          order(r.order) {}
    ~Reenter() {
      if (!loop) return;
      loop->audit_consistency();
      EXPECT_TRUE(loop->cancel(victim));
      loop->schedule(5, [o = order] { o->push_back(2); });
    }
  };
  const EventHandle h = loop.schedule(
      10, [r = Reenter(&loop, victim, &order)] { r.order->push_back(1); });
  loop.schedule(1, [&] { order.push_back(0); });
  EXPECT_TRUE(loop.cancel(h));
  EXPECT_FALSE(loop.cancel(h));
  EXPECT_EQ(loop.pending(), 2u);
  loop.audit_consistency();
  loop.run();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(TimeFormat, HumanReadableUnits) {
  EXPECT_EQ(format_time(500), "500ns");
  EXPECT_EQ(format_time(1500), "1.500us");
  EXPECT_EQ(format_time(2 * kMillisecond), "2.000ms");
  EXPECT_EQ(format_time(3 * kSecond), "3.000000s");
}

TEST(TimeConversion, RoundTrips) {
  EXPECT_EQ(from_seconds(1.5), 1500 * kMillisecond);
  EXPECT_EQ(from_millis(2.5), 2500 * kMicrosecond);
  EXPECT_DOUBLE_EQ(to_seconds(kSecond), 1.0);
  EXPECT_DOUBLE_EQ(to_millis(kSecond), 1000.0);
}

}  // namespace
}  // namespace hipcloud::sim
