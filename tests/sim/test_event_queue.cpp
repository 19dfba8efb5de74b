// Unit tests for the cancellable event queue: ordering, cancellation,
// determinism, and a randomized reference-oracle check against std::map.

#include "sim/event_queue.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <utility>
#include <vector>

#include "util/error.hpp"
#include "util/rng.hpp"

namespace coopcr::sim {
namespace {

TEST(EventQueue, EmptyInitially) {
  EventQueue q;
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.size(), 0u);
  EXPECT_EQ(q.next_time(), kTimeNever);
}

TEST(EventQueue, PopsInTimeOrder) {
  EventQueue q;
  std::vector<int> order;
  q.schedule(3.0, [&] { order.push_back(3); });
  q.schedule(1.0, [&] { order.push_back(1); });
  q.schedule(2.0, [&] { order.push_back(2); });
  while (!q.empty()) {
    auto fired = q.pop();
    fired.fn();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, TiesBreakByScheduleOrder) {
  EventQueue q;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    q.schedule(5.0, [&order, i] { order.push_back(i); });
  }
  while (!q.empty()) q.pop().fn();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(EventQueue, CancelRemovesEvent) {
  EventQueue q;
  bool fired = false;
  const EventId id = q.schedule(1.0, [&] { fired = true; });
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(q.empty());
  EXPECT_FALSE(fired);
}

TEST(EventQueue, DoubleCancelIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  EXPECT_TRUE(q.cancel(id));
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, CancelFiredEventIsNoop) {
  EventQueue q;
  const EventId id = q.schedule(1.0, [] {});
  q.pop().fn();
  EXPECT_FALSE(q.cancel(id));
}

TEST(EventQueue, NextTimeSkipsCancelled) {
  EventQueue q;
  const EventId early = q.schedule(1.0, [] {});
  q.schedule(2.0, [] {});
  q.cancel(early);
  EXPECT_DOUBLE_EQ(q.next_time(), 2.0);
  EXPECT_EQ(q.size(), 1u);
}

TEST(EventQueue, CancelMiddleOfTies) {
  EventQueue q;
  std::vector<int> order;
  const EventId a = q.schedule(1.0, [&] { order.push_back(0); });
  const EventId b = q.schedule(1.0, [&] { order.push_back(1); });
  const EventId c = q.schedule(1.0, [&] { order.push_back(2); });
  (void)a;
  (void)c;
  q.cancel(b);
  while (!q.empty()) q.pop().fn();
  EXPECT_EQ(order, (std::vector<int>{0, 2}));
}

TEST(EventQueue, RejectsSchedulingInThePast) {
  EventQueue q;
  q.set_now(10.0);
  EXPECT_THROW(q.schedule(9.9, [] {}), Error);
  EXPECT_NO_THROW(q.schedule(10.0, [] {}));
}

TEST(EventQueue, RejectsNonFiniteTime) {
  EventQueue q;
  EXPECT_THROW(q.schedule(kTimeNever, [] {}), Error);
  EXPECT_THROW(q.schedule(std::numeric_limits<double>::quiet_NaN(), [] {}),
               Error);
}

TEST(EventQueue, RejectsEmptyCallback) {
  EventQueue q;
  EXPECT_THROW(q.schedule(1.0, EventFn{}), Error);
}

TEST(EventQueue, PopOnEmptyThrows) {
  EventQueue q;
  EXPECT_THROW(q.pop(), Error);
}

TEST(EventQueue, TotalScheduledCounts) {
  EventQueue q;
  for (int i = 0; i < 5; ++i) q.schedule(1.0, [] {});
  EXPECT_EQ(q.total_scheduled(), 5u);
}

// --- slab / stale-handle semantics ------------------------------------------

TEST(EventQueue, IdsAreMonotoneInScheduleOrder) {
  EventQueue q;
  EventId last = kInvalidEventId;
  for (int i = 0; i < 100; ++i) {
    const EventId id = q.schedule(static_cast<Time>(100 - i), [] {});
    EXPECT_GT(id, last);
    last = id;
  }
}

TEST(EventQueue, StaleHandleCancelIsNoopAfterSlotReuse) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  ASSERT_TRUE(q.cancel(a));
  // The freed slot is recycled for b, but with a fresh id: the stale handle
  // must not be able to kill the new occupant.
  bool b_fired = false;
  const EventId b = q.schedule(2.0, [&] { b_fired = true; });
  EXPECT_NE(a, b);
  EXPECT_FALSE(q.cancel(a));
  EXPECT_EQ(q.size(), 1u);
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, StaleHandleCancelAfterFireIsNoop) {
  EventQueue q;
  const EventId a = q.schedule(1.0, [] {});
  q.pop().fn();
  bool b_fired = false;
  q.schedule(2.0, [&] { b_fired = true; });
  EXPECT_FALSE(q.cancel(a));  // a's slot now belongs to b
  q.pop().fn();
  EXPECT_TRUE(b_fired);
}

TEST(EventQueue, CancelReclaimsTheCallbackImmediately) {
  // The callback (and its captures) must be destroyed at cancel() time, not
  // lazily when the entry would have been popped.
  EventQueue q;
  auto probe = std::make_shared<int>(42);
  std::weak_ptr<int> watch = probe;
  const EventId id = q.schedule(1e9, [probe] { (void)*probe; });
  probe.reset();
  EXPECT_FALSE(watch.expired());  // alive inside the queue
  EXPECT_TRUE(q.cancel(id));
  EXPECT_TRUE(watch.expired());  // reclaimed at cancel, queue still nonempty?
  EXPECT_TRUE(q.empty());
}

TEST(EventQueue, CancelledSlotsAreReusedNotLeaked) {
  // Regression for the seed's unbounded growth: events scheduled past the
  // horizon and cancelled (never popped) must recycle their slab slot.
  EventQueue q;
  for (int i = 0; i < 10000; ++i) {
    const EventId id =
        q.schedule(1e12 + static_cast<Time>(i), [] {});  // far future
    ASSERT_TRUE(q.cancel(id));
  }
  EXPECT_TRUE(q.empty());
  // One live slot's worth of slab, not ten thousand.
  EXPECT_LE(q.slab_slots(), 2u);
  // Stale bookkeeping is compacted away, not accumulated.
  EXPECT_LE(q.stale_items(), 128u);
}

TEST(EventQueue, CancelHeavyLongHorizonStaysBounded) {
  // A long-horizon run keeping a bounded live set while churning through
  // schedule+cancel cycles: slab and stale bookkeeping must stay
  // proportional to the live population, never to the total churn.
  EventQueue q;
  std::vector<EventId> live;
  std::uint64_t x = 99;
  Time base = 0.0;
  for (int round = 0; round < 200; ++round) {
    for (int i = 0; i < 64; ++i) {
      x = x * 6364136223846793005ull + 1442695040888963407ull;
      live.push_back(
          q.schedule(base + 1.0 + static_cast<double>(x >> 50), [] {}));
    }
    // Cancel most of them (horizon-crossed checkpoint timers), pop a few.
    for (std::size_t i = 0; i + 1 < live.size(); i += 2) {
      q.cancel(live[i]);
    }
    live.clear();
    for (int i = 0; i < 8 && !q.empty(); ++i) {
      auto fired = q.pop();
      base = fired.time;
      q.set_now(base);
    }
  }
  // Slab tracks the live high-water mark (~ final live set + one round's
  // burst), not the 12800 events churned through the queue.
  EXPECT_LE(q.slab_slots(), q.size() + 256u);
  EXPECT_LE(q.stale_items(), q.size() + 128u);
}

TEST(EventQueue, ClearRestartsIdsLikeAFreshQueue) {
  EventQueue q;
  std::vector<EventId> first;
  for (int i = 0; i < 5; ++i) {
    first.push_back(q.schedule(1.0 + i, [] {}));
  }
  q.pop().fn();
  q.cancel(first[3]);
  q.clear();
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_scheduled(), 0u);
  for (int i = 0; i < 5; ++i) {
    EXPECT_EQ(q.schedule(1.0 + i, [] {}), first[static_cast<std::size_t>(i)]);
  }
}

TEST(EventQueue, InterleavedCancelStressOrdering) {
  EventQueue q;
  std::uint64_t x = 7;
  std::vector<EventId> ids;
  for (int i = 0; i < 3000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    ids.push_back(q.schedule(static_cast<double>(x >> 40), [] {}));
  }
  for (std::size_t i = 0; i < ids.size(); i += 3) q.cancel(ids[i]);
  double last = -1.0;
  std::size_t popped = 0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
    ++popped;
  }
  EXPECT_EQ(popped, 2000u);
}

TEST(EventQueue, ManyEventsStressOrdering) {
  EventQueue q;
  // Pseudo-random times; verify non-decreasing pop order.
  std::uint64_t x = 12345;
  for (int i = 0; i < 5000; ++i) {
    x = x * 6364136223846793005ull + 1442695040888963407ull;
    const double t = static_cast<double>(x >> 40);
    q.schedule(t, [] {});
  }
  double last = -1.0;
  while (!q.empty()) {
    auto fired = q.pop();
    EXPECT_GE(fired.time, last);
    last = fired.time;
  }
}

TEST(EventQueue, RejectedScheduleTakesNoSequenceNumber) {
  EventQueue q;
  q.set_now(2.0);
  EXPECT_THROW(q.schedule(1.0, [] {}), Error);
  EXPECT_THROW(q.schedule(3.0, EventFn{}), Error);
  EXPECT_EQ(q.total_scheduled(), 0u);
}

TEST(EventQueue, FireNextRunsTheCallbackInItsSlot) {
  // The handle of the event being fired is already stale inside its own
  // callback, and events it schedules take other slots.
  EventQueue q;
  EventId self = kInvalidEventId;
  bool cancelled_self = true;
  EventId child = kInvalidEventId;
  self = q.schedule(1.0, [&] {
    cancelled_self = q.cancel(self);
    child = q.schedule(2.0, [] {});
  });
  q.set_now(q.next_time());
  q.fire_next();
  EXPECT_FALSE(cancelled_self);
  EXPECT_EQ(q.size(), 1u);
  EXPECT_TRUE(q.cancel(child));
  EXPECT_EQ(q.slab_slots(), 2u);
}

TEST(EventQueue, ClearInsideAFiringCallbackThrowsAndLeavesTheQueueUsable) {
  EventQueue q;
  int fired = 0;
  q.schedule(1.0, [&] { q.clear(); });
  q.schedule(2.0, [&] { ++fired; });
  q.set_now(q.next_time());
  EXPECT_THROW(q.fire_next(), Error);
  // The throwing callback's slot was recycled; the later event still fires.
  EXPECT_EQ(q.size(), 1u);
  q.set_now(q.next_time());
  q.fire_next();
  EXPECT_EQ(fired, 1);
  q.clear();  // allowed again once no callback is running
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.slab_slots(), 0u);
}

// --- timers ------------------------------------------------------------------

TEST(EventQueueTimer, ArmTakesASequenceNumberLikeASchedule) {
  EventQueue q;
  std::vector<int> order;
  Timer timer(q, [&] { order.push_back(0); });
  q.schedule(5.0, [&] { order.push_back(1); });
  timer.arm(5.0);
  q.schedule(5.0, [&] { order.push_back(2); });
  EXPECT_EQ(q.total_scheduled(), 3u);
  EXPECT_EQ(q.size(), 3u);
  timer.arm(5.0);  // re-arm: behind event 2 now, like cancel + schedule
  EXPECT_EQ(q.total_scheduled(), 4u);
  EXPECT_EQ(q.size(), 3u);
  while (!q.empty()) {
    q.set_now(q.next_time());
    q.fire_next();
  }
  EXPECT_EQ(order, (std::vector<int>{1, 2, 0}));
  EXPECT_FALSE(timer.armed());
}

TEST(EventQueueTimer, DisarmLeavesNothingBehind) {
  EventQueue q;
  int fired = 0;
  Timer timer(q, [&] { ++fired; });
  timer.arm(2.0);
  timer.disarm();
  timer.disarm();  // no-op
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.next_time(), kTimeNever);
  EXPECT_EQ(q.stale_items(), 0u);
  EXPECT_EQ(q.total_scheduled(), 1u);
  q.schedule(1.0, [] {});
  timer.arm(3.0);
  EXPECT_EQ(q.next_time(), 1.0);
  q.set_now(1.0);
  q.fire_next();
  EXPECT_EQ(q.next_time(), 3.0);
  q.set_now(3.0);
  q.fire_next();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(q.empty());
}

TEST(EventQueueTimer, RejectsPastAndNonFiniteTimes) {
  EventQueue q;
  Timer timer(q, [] {});
  q.set_now(10.0);
  EXPECT_THROW(timer.arm(5.0), Error);
  EXPECT_THROW(timer.arm(kTimeNever), Error);
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(q.total_scheduled(), 0u);
}

TEST(EventQueueTimer, EarliestOfSeveralTimersAndEventsFiresFirst) {
  EventQueue q;
  std::vector<int> order;
  Timer a(q, [&] { order.push_back(10); });
  Timer b(q, [&] { order.push_back(20); });
  a.arm(1.0);
  b.arm(2.0);
  q.schedule(1.5, [&] { order.push_back(1); });
  a.arm(3.0);  // the cached earliest moves behind b
  EXPECT_EQ(q.next_time(), 1.5);
  b.disarm();
  b.arm(0.5);
  while (!q.empty()) {
    q.set_now(q.next_time());
    q.fire_next();
  }
  EXPECT_EQ(order, (std::vector<int>{20, 1, 10}));
}

TEST(EventQueueTimer, CallbackMayReArmItsOwnTimer) {
  EventQueue q;
  int fired = 0;
  std::unique_ptr<Timer> timer;
  timer = std::make_unique<Timer>(q, [&] {
    if (++fired < 3) timer->arm(q.now() + 1.0);
  });
  timer->arm(1.0);
  while (!q.empty()) {
    q.set_now(q.next_time());
    q.fire_next();
  }
  EXPECT_EQ(fired, 3);
  EXPECT_EQ(q.now(), 3.0);
  EXPECT_EQ(q.total_scheduled(), 3u);
}

TEST(EventQueueTimer, PopReturnsATimersFiring) {
  EventQueue q;
  int fired = 0;
  Timer timer(q, [&] { ++fired; });
  q.schedule(2.0, [] {});
  timer.arm(1.0);
  EventQueue::Fired first = q.pop();
  EXPECT_EQ(first.time, 1.0);
  EXPECT_FALSE(q.cancel(first.id));  // no calendar slot behind a timer
  EXPECT_FALSE(timer.armed());
  EXPECT_EQ(q.size(), 1u);
  first.fn();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTimer, ClearDisarmsTimersAndKeepsThemRegistered) {
  EventQueue q;
  int fired = 0;
  Timer timer(q, [&] { ++fired; });
  timer.arm(4.0);
  q.schedule(1.0, [] {});
  q.clear();
  EXPECT_FALSE(timer.armed());
  EXPECT_TRUE(q.empty());
  EXPECT_EQ(q.total_scheduled(), 0u);
  timer.arm(2.0);  // still registered: the queue serves it
  EXPECT_EQ(q.total_scheduled(), 1u);
  EXPECT_EQ(q.next_time(), 2.0);
  q.set_now(2.0);
  q.fire_next();
  EXPECT_EQ(fired, 1);
}

TEST(EventQueueTimer, OwnerDestroyedBeforeTheQueueUnregistersCleanly) {
  EventQueue q;
  std::vector<int> order;
  auto a = std::make_unique<Timer>(q, [&] { order.push_back(1); });
  auto b = std::make_unique<Timer>(q, [&] { order.push_back(2); });
  auto c = std::make_unique<Timer>(q, [&] { order.push_back(3); });
  a->arm(1.0);
  b->arm(2.0);
  c->arm(3.0);
  a.reset();  // armed and cached as the earliest when destroyed
  EXPECT_EQ(q.size(), 2u);
  EXPECT_EQ(q.next_time(), 2.0);
  b.reset();  // registry swap-removal must keep c reachable
  c->arm(3.5);
  EXPECT_EQ(q.next_time(), 3.5);
  q.set_now(3.5);
  q.fire_next();
  EXPECT_EQ(order, (std::vector<int>{3}));
  c->arm(4.0);
  c.reset();
  EXPECT_TRUE(q.empty());
  q.clear();  // touches no destroyed timer
}

TEST(EventQueueTimer, QueueDestroyedBeforeTheTimerDetachesIt) {
  auto q = std::make_unique<EventQueue>();
  Timer timer(*q, [] {});
  timer.arm(1.0);
  q.reset();
  EXPECT_FALSE(timer.armed());
  timer.disarm();  // no-op
  EXPECT_THROW(timer.arm(2.0), Error);
}

// --- reference oracle --------------------------------------------------------
//
// Random schedule / cancel / stale cancel / pop / fire_next / clear
// sequences, mixed with timer arm / re-arm / disarm / fire (some timer
// callbacks re-arm their own timer), checked step by step against a
// std::map keyed by (time, sequence). The map models a timer as cancel +
// schedule: a re-arm erases the timer's key and inserts one with the next
// sequence number. Populations swing from empty to a few thousand live
// events, so the calendar crosses its grow, shrink and stale-sweep rebuild
// thresholds many times per run.

class QueueOracle {
 public:
  explicit QueueOracle(std::uint64_t seed) : rng_(seed) {
    for (std::size_t k = 0; k < kTimers; ++k) {
      timers_.push_back(
          std::make_unique<Timer>(q_, [this, k] { on_timer_fired(k); }));
    }
  }

  /// Largest live population the run reached.
  std::size_t peak() const { return peak_; }

  void run(int steps) {
    for (int step = 0; step < steps; ++step) {
      SCOPED_TRACE(step);
      // Cycle through growth, cancel-heavy churn and drain phases, so the
      // live population swings between empty and a few thousand events.
      static constexpr double kMix[3][4] = {
          // schedule, cancel, stale cancel, timer arm/disarm
          {0.62, 0.08, 0.03, 0.05},  // grow
          {0.40, 0.35, 0.05, 0.08},  // churn: stale keys pile up
          {0.17, 0.10, 0.03, 0.10},  // drain
      };
      const double* mix = kMix[(step / 5000) % 3];
      double u = rng_.uniform();
      if ((u -= mix[0]) < 0.0) {
        schedule_fresh();
      } else if ((u -= mix[1]) < 0.0) {
        cancel_live();
      } else if ((u -= mix[2]) < 0.0) {
        cancel_stale();
      } else if ((u -= mix[3]) < 0.0) {
        const std::size_t k = rng_.uniform_index(kTimers);
        if (rng_.uniform() < 0.7) {
          arm_timer(k);
        } else {
          disarm_timer(k);
        }
      } else if (rng_.uniform() < 1e-4) {
        clear_all();
      } else {
        fire_one();
      }
      peak_ = std::max(peak_, q_.size());
      check_state();
      if (::testing::Test::HasFailure()) return;
    }
    // Stop timers re-arming themselves so the drain ends.
    for (bool& rearm : timer_rearm_) rearm = false;
    while (!oracle_.empty()) {
      fire_one();
      if (::testing::Test::HasFailure()) return;
    }
    EXPECT_TRUE(q_.empty());
  }

 private:
  using Key = std::pair<Time, std::uint64_t>;  // (time, sequence)
  static constexpr std::size_t kTimers = 3;

  /// Event times: exact ties at now and on a coarse grid, a near cluster,
  /// a long tail and a sparse far future.
  Time draw_time() {
    const Time now = q_.now();
    const double u = rng_.uniform();
    if (u < 0.15) return now;
    if (u < 0.40) return now + std::floor(rng_.uniform(0.0, 8.0));
    if (u < 0.80) return now + rng_.exponential(50.0);
    if (u < 0.97) return now + rng_.uniform(0.0, 1e5);
    return now + rng_.uniform(1e7, 1e9);
  }

  void insert(Time t, std::uint64_t seq, EventId id) {
    const int payload = next_payload_++;
    oracle_.emplace(Key{t, seq}, Entry{id, payload});
    handle_key_.emplace(id, Key{t, seq});
    live_.push_back(id);
  }

  void schedule_fresh() {
    const Time t = draw_time();
    const int payload = next_payload_;
    const EventId id =
        q_.schedule(t, [this, payload] { fired_.push_back(payload); });
    insert(t, ++seq_, id);
  }

  /// Pick and forget a random live handle (swap-remove); kInvalidEventId
  /// when none is live.
  EventId take_live() {
    while (!live_.empty()) {
      const std::size_t pick = rng_.uniform_index(live_.size());
      const EventId id = live_[pick];
      live_[pick] = live_.back();
      live_.pop_back();
      if (handle_key_.count(id) != 0) return id;  // else fired already
    }
    return kInvalidEventId;
  }

  void cancel_live() {
    const EventId id = take_live();
    if (id == kInvalidEventId) return;
    const Key key = handle_key_.at(id);
    EXPECT_TRUE(q_.cancel(id));
    oracle_.erase(key);
    handle_key_.erase(id);
    dead_.push_back(id);
  }

  void cancel_stale() {
    if (dead_.empty()) return;
    const EventId id = dead_[rng_.uniform_index(dead_.size())];
    EXPECT_FALSE(q_.cancel(id)) << "stale handle " << id;
  }

  /// Arm (or re-arm) timer `k`: cancel its key, schedule a fresh one.
  void arm_timer(std::size_t k) {
    if (timer_key_[k]) oracle_.erase(*timer_key_[k]);
    const Time t = draw_time();
    timers_[k]->arm(t);
    const Key key{t, ++seq_};
    timer_payload_[k] = next_payload_++;
    timer_rearm_[k] = rng_.uniform() < 0.3;
    oracle_.emplace(key, Entry{kInvalidEventId, timer_payload_[k],
                               static_cast<int>(k)});
    timer_key_[k] = key;
  }

  void disarm_timer(std::size_t k) {
    timers_[k]->disarm();
    if (timer_key_[k]) oracle_.erase(*timer_key_[k]);
    timer_key_[k].reset();
  }

  void on_timer_fired(std::size_t k) {
    fired_.push_back(timer_payload_[k]);
    if (timer_rearm_[k]) arm_timer(k);  // like the channel's completion
  }

  void fire_one() {
    if (oracle_.empty()) {
      EXPECT_TRUE(q_.empty());
      return;
    }
    // Retire the oracle's head before firing: a timer callback may re-arm
    // its timer, inserting the key it fires at next.
    const auto top = oracle_.begin();
    const Key key = top->first;
    const Entry entry = top->second;
    oracle_.erase(top);
    if (entry.timer >= 0) {
      timer_key_[static_cast<std::size_t>(entry.timer)].reset();
    } else {
      handle_key_.erase(entry.id);
      dead_.push_back(entry.id);
    }
    EXPECT_EQ(q_.next_time(), key.first);
    const std::size_t before = fired_.size();
    if (rng_.uniform() < 0.5) {
      auto fired = q_.pop();
      EXPECT_EQ(fired.time, key.first);
      if (entry.timer < 0) {
        EXPECT_EQ(fired.id, entry.id);
      }
      q_.set_now(fired.time);
      fired.fn();
    } else {
      q_.set_now(q_.next_time());
      q_.fire_next();
    }
    ASSERT_EQ(fired_.size(), before + 1);
    EXPECT_EQ(fired_.back(), entry.payload);
  }

  void clear_all() {
    q_.clear();
    oracle_.clear();
    handle_key_.clear();
    live_.clear();
    dead_.clear();  // ids restart: old handles would alias new events
    for (auto& key : timer_key_) key.reset();  // disarmed, still registered
    seq_ = 0;
  }

  void check_state() {
    EXPECT_EQ(q_.size(), oracle_.size());
    EXPECT_EQ(q_.total_scheduled(), seq_);
    for (std::size_t k = 0; k < kTimers; ++k) {
      EXPECT_EQ(timers_[k]->armed(), timer_key_[k].has_value()) << k;
      if (timer_key_[k]) {
        EXPECT_EQ(timers_[k]->time(), timer_key_[k]->first);
      }
    }
    if (dead_.size() > 4096) dead_.erase(dead_.begin(), dead_.begin() + 2048);
  }

  struct Entry {
    EventId id;  ///< kInvalidEventId for a timer's firing
    int payload;
    int timer = -1;  ///< index of the firing timer, -1 for an event
  };

  EventQueue q_;
  Rng rng_;
  std::map<Key, Entry> oracle_;
  std::map<EventId, Key> handle_key_;  ///< live handle -> oracle key
  std::vector<EventId> live_;          ///< live handles (lazily pruned)
  std::vector<EventId> dead_;          ///< fired or cancelled handles
  std::vector<int> fired_;
  // Destroyed before q_: every timer unregisters from a live queue.
  std::vector<std::unique_ptr<Timer>> timers_;
  std::optional<Key> timer_key_[kTimers];  ///< oracle key while armed
  int timer_payload_[kTimers] = {};
  bool timer_rearm_[kTimers] = {};  ///< the next firing re-arms the timer
  std::uint64_t seq_ = 0;  ///< sequence numbers handed out since clear()
  int next_payload_ = 0;
  std::size_t peak_ = 0;  ///< largest live population seen
};

TEST(EventQueueOracle, PinnedSeedsMatchTheReferenceMap) {
  for (const std::uint64_t seed : {0x1ull, 0xC0FFEEull, 0x5EEDull, 0xE7ull}) {
    SCOPED_TRACE(seed);
    QueueOracle oracle(seed);
    oracle.run(45000);
    // Far past the calendar's first grow threshold (8 x 16 buckets).
    EXPECT_GT(oracle.peak(), 1000u);
  }
}

TEST(EventQueueOracle, FreshSeedMatchesTheReferenceMap) {
  // A new seed per run widens coverage over time; it is echoed so a failure
  // can be pinned in the test above.
  const std::uint64_t seed =
      (static_cast<std::uint64_t>(std::random_device{}()) << 32) ^
      std::random_device{}();
  std::cout << "event queue oracle fresh seed: 0x" << std::hex << seed
            << std::dec << std::endl;
  SCOPED_TRACE(seed);
  QueueOracle oracle(seed);
  oracle.run(45000);
}

}  // namespace
}  // namespace coopcr::sim
