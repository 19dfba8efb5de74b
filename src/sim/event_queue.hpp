// coopcr/sim/event_queue.hpp
//
// Cancellable pending-event set for the discrete-event engine.
//
// Design (the hot path of every Monte Carlo replica):
//
//  * Event callbacks live in a free-listed, chunked slab of slots; an
//    EventId packs a monotone scheduling sequence over the slab slot
//    ((seq << 24) | slot+1), so handles resolve with two array reads — no
//    hash table anywhere — and stale handles (fired/cancelled events, whose
//    slot now carries a different id) are rejected by a single comparison.
//    Chunks never move, so growing the slab never relocates live callbacks.
//
//  * Pending (time, id) keys are ordered by a calendar queue (R. Brown,
//    CACM 1988): a power-of-two array of day-width buckets addressed by
//    floor(t / width) mod nbuckets, plus a sorted "today" window that serves
//    pops from its back. Schedule and pop are O(1) amortised — against the
//    O(log n) binary heap this roughly halves the per-event cost at the
//    10^4..10^5 pending events the micro benches stress. The queue resizes
//    (bucket count ~ live events, width ~ mean event spacing) as the
//    population changes.
//
//  * Ids are monotone in scheduling order and unique, so (time, id) is a
//    strict total order: the pop sequence is independent of bucket layout or
//    resize history, and ties break by insertion order — runs are fully
//    deterministic, bit-identical to a heap-backed implementation.
//
//  * O(1) cancel: cancelling destroys the callback and recycles the slot
//    immediately (nothing accumulates for events that are cancelled but
//    never popped); the stale 16-byte key is dropped when its bucket is next
//    scanned, or by a global sweep when stale keys outnumber live ones.
//
//  * Events carry a `sim::InlineFn` callback: the simulator's state machine
//    is written as plain member functions bound at schedule time, and those
//    small captures are stored inline — zero allocation per event. The
//    callback is built in its slab slot and fire_next() invokes it there.
//
//  * Re-armable timers live outside the calendar. A component that keeps
//    exactly one pending wake-up and moves it often (the PFS channel's next
//    completion, moved at every flow admission and completion) owns a
//    `sim::Timer` instead of cancelling and re-scheduling an event: arming
//    writes a (time, id) pair into the timer, nothing enters the calendar
//    and no stale key is left behind. arm() draws the next sequence number
//    exactly like schedule() would, so ties, the pop order and
//    total_scheduled() equal those of cancel + schedule. The queue serves
//    the earlier of the calendar head and the earliest armed timer, which it
//    keeps cached (a re-arm or disarm of that timer invalidates the cache;
//    the next query rescans the few registered timers).

#pragma once

#include <bit>
#include <cmath>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/inline_fn.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace coopcr::sim {

/// Opaque handle identifying a scheduled event; used to cancel it. Monotone
/// in scheduling order; stale handles are safely rejected.
using EventId = std::uint64_t;

/// Invalid event handle (never returned by schedule()).
inline constexpr EventId kInvalidEventId = 0;

/// Callback executed when an event fires. Captures up to
/// InlineFn::inline_capacity() bytes are stored without heap allocation.
using InlineFn = InlineFunction<void(), 48>;
using EventFn = InlineFn;

class EventQueue;

/// A re-armable wake-up owned by a component, kept outside the calendar.
/// Registered with its queue on construction and unregistered on
/// destruction; neither copyable nor movable (the queue holds its address).
/// At most one firing is pending at a time: arm() moves it, disarm() drops
/// it. When it fires it is disarmed first, so its callback may arm it again.
class Timer {
 public:
  Timer(EventQueue& queue, InlineFn fn);
  ~Timer();

  Timer(const Timer&) = delete;
  Timer& operator=(const Timer&) = delete;

  /// Fire at absolute time `t` (finite, not in the past), replacing any
  /// pending firing. Draws the next sequence number, like a schedule().
  void arm(Time t);
  /// Drop the pending firing, if any.
  void disarm();

  bool armed() const { return armed_; }
  /// Time of the pending firing; meaningful only while armed().
  Time time() const { return time_; }

 private:
  friend class EventQueue;

  bool fires_before(Time t, EventId id) const {
    if (time_ != t) return time_ < t;
    return id_ < id;
  }
  bool fires_before(const Timer& other) const {
    return fires_before(other.time_, other.id_);
  }

  EventQueue* queue_;  ///< null once the queue is gone first
  InlineFn fn_;
  Time time_ = 0.0;
  EventId id_ = kInvalidEventId;  ///< sequence << slot bits; no slab slot
  std::size_t index_ = 0;         ///< position in the queue's registry
  bool armed_ = false;
};

/// Priority queue of cancellable timed callbacks.
class EventQueue {
 public:
  EventQueue() = default;
  /// Detaches every timer still registered (their owners outlived the
  /// queue; their arm() then throws).
  ~EventQueue();

  EventQueue(const EventQueue&) = delete;
  EventQueue& operator=(const EventQueue&) = delete;

  /// Schedule `fn` at absolute time `t`. Returns a handle for cancellation.
  /// `t` must be finite; scheduling in the past is a caller bug and throws.
  /// The callable is built in place in its slab slot; a rejected schedule
  /// takes no sequence number.
  template <typename F>
  EventId schedule(Time t, F&& fn) {
    COOPCR_CHECK(std::isfinite(t), "event time must be finite");
    COOPCR_CHECK(t >= now_, "cannot schedule an event in the past");
    if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
      COOPCR_CHECK(static_cast<bool>(fn), "event callback must be callable");
    }
    const std::uint32_t index = acquire_slot();
    slot_at(index).fn.emplace(std::forward<F>(fn));
    return enqueue(t, index);
  }

  /// Cancel a previously scheduled event. Cancelling an already-fired or
  /// already-cancelled event (a stale handle) is a safe no-op (returns
  /// false). The event's slot — callback included — is reclaimed here, not
  /// at pop time.
  bool cancel(EventId id);

  /// True when no live event and no armed timer remains.
  bool empty() const { return live_count_ == 0 && armed_timers_ == 0; }

  /// Number of live (scheduled, not yet fired/cancelled) events plus armed
  /// timers.
  std::size_t size() const { return live_count_ + armed_timers_; }

  /// Timestamp of the earliest live event; kTimeNever when empty.
  Time next_time() const;

  /// Fire the earliest live event in place: its handle goes stale at once,
  /// its callback runs inside its slab slot (chunks never move), then the
  /// slot is recycled. Caller must check !empty() and set_now(next_time()).
  /// The callback must not clear() the queue (that throws): it would destroy
  /// the running callable.
  void fire_next();

  /// Pop and return the earliest live event. Caller must check !empty().
  /// A timer's firing is returned as a callable that runs the timer's
  /// callback: it must run while the timer's owner is alive.
  struct Fired {
    Time time;
    EventId id;
    EventFn fn;
  };
  Fired pop();

  /// Lower bound for schedule(): events may not be scheduled before this.
  /// The engine advances it to the current simulation time.
  void set_now(Time now) { now_ = now; }
  Time now() const { return now_; }

  /// Total events ever scheduled (monotone counter, for stats/tests).
  std::uint64_t total_scheduled() const { return next_seq_ - 1; }

  /// Drop every pending event, disarm every timer (they stay registered)
  /// and reset all counters to a pristine state, keeping slab and bucket
  /// capacity. A cleared queue behaves bit-identically to a freshly
  /// constructed one (same ids, same order) — this is what makes
  /// per-replica engine reuse safe.
  void clear();

  /// Slab/calendar introspection (tests): slots ever created and stale
  /// keys awaiting cleanup.
  std::size_t slab_slots() const { return slot_count_; }
  std::size_t stale_items() const { return stale_count_; }

 private:
  friend class Timer;

  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slot bits in an EventId: up to ~16.7M concurrently-pending events, with
  /// 40 bits of monotone scheduling sequence above them.
  static constexpr unsigned kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  /// Slots are allocated in chunks that never move: growing the slab never
  /// relocates live callbacks (vector reallocation would move every InlineFn
  /// through its manager function — 20% of a schedule-heavy run). Chunk c
  /// holds kFirstChunk << c slots, so a short-lived engine initialises 64
  /// slots, not a laptop page-cache worth, while big queues still amortise.
  static constexpr unsigned kFirstChunkShift = 6;
  static constexpr std::size_t kFirstChunk = std::size_t{1}
                                             << kFirstChunkShift;

  struct Slot {
    EventId id = kInvalidEventId;  ///< full id; kInvalidEventId when free
    std::uint32_t next_free = kNoSlot;
    EventFn fn;
  };

  /// 16-byte POD calendar key. `id` resolves the slab slot and validates
  /// liveness; its monotone sequence also breaks time ties.
  struct Key {
    Time time;
    EventId id;
    bool fires_before(const Key& other) const {
      if (time != other.time) return time < other.time;
      return id < other.id;
    }
  };

  /// Geometric chunk addressing: slot s lives in chunk
  /// c = bit_width((s >> 6) + 1) - 1 at offset s - (64 << c) + 64.
  Slot& slot_at(std::size_t index) {
    const std::size_t biased = (index >> kFirstChunkShift) + 1;
    const unsigned c = std::bit_width(biased) - 1;
    return chunks_[c][index - ((kFirstChunk << c) - kFirstChunk)];
  }
  const Slot& slot_at(std::size_t index) const {
    const std::size_t biased = (index >> kFirstChunkShift) + 1;
    const unsigned c = std::bit_width(biased) - 1;
    return chunks_[c][index - ((kFirstChunk << c) - kFirstChunk)];
  }

  bool is_live(const Key& key) const {
    return slot_at((key.id & kSlotMask) - 1).id == key.id;
  }

  std::uint32_t acquire_slot();
  /// Destroy a slot's callback and free it; its id is already invalid.
  void recycle_slot(std::uint32_t index);
  /// Stamp slot `index` with the next sequence number and put its key on
  /// the calendar.
  EventId enqueue(Time t, std::uint32_t index);
  /// Take the earliest live key off the calendar; invalidates its slot's id.
  Key detach();

  /// Exact integer day index of a timestamp — the one ordering primitive
  /// every calendar decision shares.
  std::uint64_t day_of(Time t) const;
  /// Ensure today_ serves the earliest live key (unless the queue is empty):
  /// strips stale keys and loads/sorts the next non-empty day on demand.
  void refill() const {
    if (!today_.empty() && is_live(today_.back())) return;
    refill_slow();
  }
  void refill_slow() const;
  /// Reposition the calendar on the globally earliest live key (used when a
  /// full bucket sweep finds nothing in range — sparse far-future events).
  void jump_to_earliest() const;
  /// Re-derive bucket count and day width from the live population and
  /// redistribute every live key (drops stale ones).
  void rebuild();
  void insert_key(Key key) const;

  // --- timers (friend Timer calls these) ---
  void register_timer(Timer& timer);
  void unregister_timer(Timer& timer);
  void arm_timer(Timer& timer, Time t);
  void disarm_timer(Timer& timer);
  /// Earliest armed timer, or null; rescans the registry when the cache was
  /// invalidated.
  Timer* earliest_timer() const {
    if (timers_stale_) rescan_timers();
    return earliest_timer_;
  }
  void rescan_timers() const;
  /// The timer due next when it comes before the calendar head, else null.
  Timer* timer_due() const;
  /// Disarm `timer` and run its callback, recycling nothing.
  void fire_timer(Timer& timer);

  // --- slab ---
  std::vector<std::unique_ptr<Slot[]>> chunks_;  ///< stable-address slab
  std::size_t slot_count_ = 0;                   ///< slots ever created
  std::uint32_t free_head_ = kNoSlot;

  // --- calendar (mutable: refill() repositions lazily from const paths) ---
  /// Physical bucket storage never shrinks (capacity reuse); only the
  /// logical power-of-two `bucket_count_` prefix is addressed.
  mutable std::vector<std::vector<Key>> buckets_;
  std::size_t bucket_count_ = 0;    ///< logical bucket count (power of two)
  mutable std::vector<Key> today_;  ///< current day, sorted desc; min at back
  mutable std::uint64_t current_day_ = 0;  ///< serving day index
  double width_ = 1.0;                     ///< day width (seconds)
  mutable std::size_t stale_count_ = 0;  ///< cancelled keys not yet dropped
  bool firing_ = false;                  ///< fire_next() is running a callback

  std::size_t live_count_ = 0;  ///< live calendar events (timers excluded)
  std::uint64_t next_seq_ = 1;
  Time now_ = 0.0;

  // --- timers ---
  std::vector<Timer*> timers_;           ///< registered, in any order
  std::size_t armed_timers_ = 0;
  mutable Timer* earliest_timer_ = nullptr;  ///< valid unless timers_stale_
  mutable bool timers_stale_ = false;
};

}  // namespace coopcr::sim
