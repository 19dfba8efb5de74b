#include "sim/event_queue.hpp"

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace coopcr::sim {

namespace {

/// Day widths below this are clamped: sub-microsecond event spacing is far
/// below any modelled quantity, and the floor keeps day indices well inside
/// exact double range.
constexpr double kMinWidth = 1e-6;

/// Target events per day: a freshly loaded day is sorted once (~k log k) and
/// then served by O(1) pops, so a handful per day amortises best.
constexpr double kTargetPerDay = 8.0;

/// Bucket-count bounds. The lower bound keeps the calendar trivial for tiny
/// queues; the upper bound caps rebuild cost for pathological populations.
constexpr std::size_t kMinBuckets = 16;
constexpr std::size_t kMaxBuckets = std::size_t{1} << 22;

}  // namespace

// --- slab --------------------------------------------------------------------

std::uint32_t EventQueue::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    Slot& slot = slot_at(index);
    free_head_ = slot.next_free;
    slot.next_free = kNoSlot;
    return index;
  }
  COOPCR_CHECK(slot_count_ < kSlotMask, "event slab exhausted");
  // Capacity after k chunks is kFirstChunk * (2^k - 1); grow geometrically.
  if (slot_count_ ==
      ((kFirstChunk << chunks_.size()) - kFirstChunk)) {
    chunks_.push_back(
        std::make_unique<Slot[]>(kFirstChunk << chunks_.size()));
  }
  return static_cast<std::uint32_t>(slot_count_++);
}

// --- calendar ----------------------------------------------------------------
//
// Keys are ordered by the exact integer day index floor(t / width): days are
// served in increasing index order and each day's keys are sorted by
// (time, id) before serving, which yields the strict global (time, id) order
// — day(t) is monotone in t, and all calendar decisions use the same
// integral day computation, so no key can slip past its day through float
// drift.

std::uint64_t EventQueue::day_of(Time t) const {
  return static_cast<std::uint64_t>(t / width_);
}

void EventQueue::insert_key(Key key) const {
  const std::uint64_t day = day_of(key.time);
  if (day <= current_day_) {
    // Belongs to the serving window: sorted insert (descending, min at the
    // back). Events scheduled at ~now land at the back — a cheap append.
    const auto pos = std::upper_bound(
        today_.begin(), today_.end(), key,
        [](const Key& a, const Key& b) { return b.fires_before(a); });
    today_.insert(pos, key);
  } else {
    buckets_[static_cast<std::size_t>(day) & (bucket_count_ - 1)].push_back(
        key);
  }
}

void EventQueue::jump_to_earliest() const {
  const Key* best = nullptr;
  for (std::size_t b = 0; b < bucket_count_; ++b) {
    for (const Key& key : buckets_[b]) {
      if (!is_live(key)) continue;
      if (best == nullptr || key.fires_before(*best)) best = &key;
    }
  }
  COOPCR_ASSERT(best != nullptr, "live events exist but none found");
  current_day_ = day_of(best->time);
}

void EventQueue::refill_slow() const {
  while (!today_.empty() && !is_live(today_.back())) {
    today_.pop_back();  // cancelled while waiting in the serving window
    --stale_count_;
  }
  if (!today_.empty() || live_count_ == 0) return;
  // Advance day by day until a bucket yields keys for the current day.
  std::size_t advanced = 0;
  for (;;) {
    std::vector<Key>& bucket =
        buckets_[static_cast<std::size_t>(current_day_) &
                 (bucket_count_ - 1)];
    bool loaded = false;
    if (!bucket.empty()) {
      std::size_t keep = 0;
      for (std::size_t r = 0; r < bucket.size(); ++r) {
        const Key key = bucket[r];
        if (!is_live(key)) {
          --stale_count_;  // drop stale keys while we touch the bucket
        } else if (day_of(key.time) <= current_day_) {
          today_.push_back(key);
          loaded = true;
        } else {
          bucket[keep++] = key;  // a later day (or a later year)
        }
      }
      bucket.resize(keep);
    }
    if (loaded) break;
    ++current_day_;
    if (++advanced >= bucket_count_) {
      // A whole year scanned empty: events are sparse — jump straight to
      // the earliest live key's day instead of walking empty days.
      jump_to_earliest();
      advanced = 0;
    }
  }
  std::sort(today_.begin(), today_.end(),
            [](const Key& a, const Key& b) { return b.fires_before(a); });
}

void EventQueue::rebuild() {
  // Gather every live key.
  std::vector<Key> live;
  live.reserve(live_count_);
  for (const Key& key : today_) {
    if (is_live(key)) live.push_back(key);
  }
  for (std::size_t b = 0; b < bucket_count_; ++b) {
    for (const Key& key : buckets_[b]) {
      if (is_live(key)) live.push_back(key);
    }
    buckets_[b].clear();
  }
  today_.clear();
  stale_count_ = 0;
  COOPCR_ASSERT(live.size() == live_count_, "calendar lost live events");

  if (live.empty()) {
    current_day_ = 0;
    width_ = 1.0;
    return;
  }

  // Bucket count ~ live/4 (a few events per bucket) and day width sized for
  // ~kTargetPerDay events per day: each refill scans one shallow bucket and
  // sorts a handful of keys. Physical bucket storage only ever grows, so
  // rebuilt calendars reuse the vectors' capacity.
  bucket_count_ =
      std::clamp(std::bit_ceil(live.size() / 4 + 1), kMinBuckets, kMaxBuckets);
  if (buckets_.size() < bucket_count_) buckets_.resize(bucket_count_);
  Time min_t = std::numeric_limits<double>::infinity();
  Time max_t = -std::numeric_limits<double>::infinity();
  for (const Key& key : live) {
    min_t = std::min(min_t, key.time);
    max_t = std::max(max_t, key.time);
  }
  const double span = max_t - min_t;
  width_ = std::max(kTargetPerDay * span / static_cast<double>(live.size()),
                    kMinWidth);

  // Reposition the serving window on the earliest day, then redistribute.
  current_day_ = day_of(min_t);
  for (const Key& key : live) {
    const std::uint64_t day = day_of(key.time);
    if (day <= current_day_) {
      today_.push_back(key);
    } else {
      buckets_[static_cast<std::size_t>(day) & (bucket_count_ - 1)].push_back(
          key);
    }
  }
  std::sort(today_.begin(), today_.end(),
            [](const Key& a, const Key& b) { return b.fires_before(a); });
}

// --- queue operations --------------------------------------------------------

EventId EventQueue::enqueue(Time t, std::uint32_t index) {
  const EventId id =
      (next_seq_++ << kSlotBits) | static_cast<EventId>(index + 1);
  slot_at(index).id = id;

  if (bucket_count_ == 0) {
    bucket_count_ = kMinBuckets;
    if (buckets_.size() < bucket_count_) buckets_.resize(bucket_count_);
  }
  ++live_count_;
  if (live_count_ == 1) {
    // Waking an idle calendar: reposition the serving window on this event's
    // day so pops don't walk the empty days since the last activity.
    current_day_ = day_of(t);
  }
  insert_key(Key{t, id});
  if (live_count_ > 8 * bucket_count_ && bucket_count_ < kMaxBuckets) {
    rebuild();  // population doubled since the last layout — re-derive it
  }
  return id;
}

bool EventQueue::cancel(EventId id) {
  const std::uint64_t slot_plus_one = id & kSlotMask;
  if (slot_plus_one == 0 || slot_plus_one > slot_count_) return false;
  const auto index = static_cast<std::uint32_t>(slot_plus_one - 1);
  if (slot_at(index).id != id) return false;  // stale: fired/cancelled
  // Invalidate outstanding handles and calendar keys, and destroy the
  // callback now, not at pop time.
  slot_at(index).id = kInvalidEventId;
  recycle_slot(index);
  COOPCR_ASSERT(live_count_ > 0, "live count underflow on cancel");
  --live_count_;
  ++stale_count_;
  // Amortised O(1) sweep: rebuild only when stale keys dominate, so a
  // cancel-heavy long-horizon run cannot grow the calendar beyond ~2x its
  // live size.
  if (stale_count_ > live_count_ + 64) rebuild();
  return true;
}

Time EventQueue::next_time() const {
  if (const Timer* timer = timer_due()) return timer->time_;
  if (live_count_ == 0) return kTimeNever;
  return today_.back().time;  // timer_due() refilled the serving window
}

void EventQueue::recycle_slot(std::uint32_t index) {
  Slot& slot = slot_at(index);
  slot.fn = nullptr;
  slot.next_free = free_head_;
  free_head_ = index;
}

EventQueue::Key EventQueue::detach() {
  COOPCR_CHECK(live_count_ > 0, "pop() on empty event queue");
  refill();
  const Key top = today_.back();
  today_.pop_back();
  slot_at((top.id & kSlotMask) - 1).id = kInvalidEventId;
  --live_count_;
  if (bucket_count_ > kMinBuckets && live_count_ * 16 < bucket_count_) {
    rebuild();  // drained far below the layout's population — shrink lazily
  }
  return top;
}

void EventQueue::fire_next() {
  if (Timer* timer = timer_due()) {
    fire_timer(*timer);
    return;
  }
  const auto index = static_cast<std::uint32_t>((detach().id & kSlotMask) - 1);
  // Recycle after the callback returns, also when it throws.
  struct Firing {
    EventQueue& queue;
    std::uint32_t index;
    ~Firing() {
      queue.firing_ = false;
      queue.recycle_slot(index);
    }
  } firing{*this, index};
  firing_ = true;
  slot_at(index).fn();
}

EventQueue::Fired EventQueue::pop() {
  if (Timer* timer = timer_due()) {
    Fired fired{timer->time_, timer->id_, [timer] { timer->fn_(); }};
    disarm_timer(*timer);
    return fired;
  }
  const Key top = detach();
  const auto index = static_cast<std::uint32_t>((top.id & kSlotMask) - 1);
  Fired fired{top.time, top.id, std::move(slot_at(index).fn)};
  recycle_slot(index);
  return fired;
}

void EventQueue::clear() {
  COOPCR_CHECK(!firing_, "event queue cleared from inside a firing callback");
  // Keep the chunks (stable capacity) but reset every created slot; ids and
  // slot allocation order restart exactly like a fresh queue.
  for (std::size_t i = 0; i < slot_count_; ++i) {
    Slot& slot = slot_at(i);
    slot.id = kInvalidEventId;
    slot.fn = nullptr;
    slot.next_free = kNoSlot;
  }
  for (auto& bucket : buckets_) bucket.clear();
  bucket_count_ = 0;
  today_.clear();
  free_head_ = kNoSlot;
  slot_count_ = 0;
  current_day_ = 0;
  width_ = 1.0;
  stale_count_ = 0;
  live_count_ = 0;
  next_seq_ = 1;
  now_ = 0.0;
  for (Timer* timer : timers_) timer->armed_ = false;
  armed_timers_ = 0;
  earliest_timer_ = nullptr;
  timers_stale_ = false;
}

// --- timers ------------------------------------------------------------------

Timer::Timer(EventQueue& queue, InlineFn fn)
    : queue_(&queue), fn_(std::move(fn)) {
  COOPCR_CHECK(static_cast<bool>(fn_), "timer callback must be callable");
  queue.register_timer(*this);
}

Timer::~Timer() {
  if (queue_ != nullptr) queue_->unregister_timer(*this);
}

void Timer::arm(Time t) {
  COOPCR_CHECK(queue_ != nullptr, "timer armed after its queue was destroyed");
  queue_->arm_timer(*this, t);
}

void Timer::disarm() {
  if (queue_ != nullptr && armed_) queue_->disarm_timer(*this);
}

EventQueue::~EventQueue() {
  for (Timer* timer : timers_) {
    timer->queue_ = nullptr;
    timer->armed_ = false;
  }
}

void EventQueue::register_timer(Timer& timer) {
  timer.index_ = timers_.size();
  timers_.push_back(&timer);
}

void EventQueue::unregister_timer(Timer& timer) {
  if (timer.armed_) disarm_timer(timer);
  Timer* last = timers_.back();
  timers_[timer.index_] = last;
  last->index_ = timer.index_;
  timers_.pop_back();
}

void EventQueue::arm_timer(Timer& timer, Time t) {
  COOPCR_CHECK(std::isfinite(t), "event time must be finite");
  COOPCR_CHECK(t >= now_, "cannot schedule an event in the past");
  timer.time_ = t;
  timer.id_ = next_seq_++ << kSlotBits;  // slot bits 0: cancel() rejects it
  if (!timer.armed_) {
    timer.armed_ = true;
    ++armed_timers_;
  }
  if (timers_stale_) return;
  if (earliest_timer_ == nullptr || timer.fires_before(*earliest_timer_)) {
    earliest_timer_ = &timer;
  } else if (earliest_timer_ == &timer) {
    // The cached earliest moved later: another timer may lead now.
    timers_stale_ = armed_timers_ > 1;
  }
}

void EventQueue::disarm_timer(Timer& timer) {
  timer.armed_ = false;
  --armed_timers_;
  if (earliest_timer_ == &timer) {
    earliest_timer_ = nullptr;
    timers_stale_ = armed_timers_ > 0;
  }
}

void EventQueue::rescan_timers() const {
  earliest_timer_ = nullptr;
  for (Timer* timer : timers_) {
    if (timer->armed_ && (earliest_timer_ == nullptr ||
                          timer->fires_before(*earliest_timer_))) {
      earliest_timer_ = timer;
    }
  }
  timers_stale_ = false;
}

Timer* EventQueue::timer_due() const {
  Timer* timer = armed_timers_ != 0 ? earliest_timer() : nullptr;
  if (live_count_ == 0) return timer;
  refill();
  if (timer != nullptr) {
    const Key& head = today_.back();
    if (timer->fires_before(head.time, head.id)) return timer;
  }
  return nullptr;
}

void EventQueue::fire_timer(Timer& timer) {
  disarm_timer(timer);
  struct Firing {
    bool& firing;
    ~Firing() { firing = false; }
  } guard{firing_};
  firing_ = true;
  timer.fn_();
}

}  // namespace coopcr::sim
