// coopcr/sim/engine.hpp
//
// Discrete-event simulation engine: the run loop around EventQueue.
//
// The engine owns the clock. Components schedule callbacks (or arm a
// sim::Timer on queue()); the engine fires them in (time, sequence) order,
// advances `now()`, and invokes them. The
// loop stops when the queue drains, when a configured horizon is reached, or
// when a component calls `stop()`.

#pragma once

#include <cstdint>
#include <utility>

#include "sim/event_queue.hpp"
#include "sim/time.hpp"
#include "util/error.hpp"

namespace coopcr::sim {

/// Discrete-event engine.
class Engine {
 public:
  Engine() = default;

  /// Current simulation time (seconds).
  Time now() const { return now_; }

  /// Schedule `fn` to run at absolute time `t` (>= now()).
  template <typename F>
  EventId at(Time t, F&& fn) {
    return queue_.schedule(t, std::forward<F>(fn));
  }

  /// Schedule `fn` to run `delay` seconds from now (delay >= 0).
  template <typename F>
  EventId after(Time delay, F&& fn) {
    COOPCR_CHECK(delay >= 0.0, "negative event delay");
    return queue_.schedule(now_ + delay, std::forward<F>(fn));
  }

  /// Cancel a scheduled event; no-op if already fired/cancelled.
  bool cancel(EventId id) { return queue_.cancel(id); }

  /// Run until the queue empties or `horizon` is passed. Events stamped
  /// exactly at the horizon still fire; later ones stay in the queue.
  /// Returns the number of events executed by this call.
  std::uint64_t run(Time horizon = kTimeNever);

  /// Execute at most `max_events` events (debug/test stepping helper).
  std::uint64_t run_steps(std::uint64_t max_events);

  /// Request that run() return after the current event completes.
  void stop() { stop_requested_ = true; }

  /// True when no live events remain.
  bool idle() const { return queue_.empty(); }

  /// Timestamp of the next pending event; kTimeNever when idle.
  Time next_event_time() const { return queue_.next_time(); }

  /// Total number of events executed over the engine's lifetime.
  std::uint64_t events_executed() const { return executed_; }

  /// Reset to a pristine state (t = 0, no events, zeroed counters) while
  /// keeping the queue's slab/heap capacity. A reset engine behaves
  /// bit-identically to a freshly constructed one — the basis of
  /// per-replica engine reuse (core/simulation.hpp SimWorkspace). Throws
  /// when called from inside an event callback.
  void reset() {
    queue_.clear();
    now_ = 0.0;
    executed_ = 0;
    stop_requested_ = false;
  }

  /// Direct queue access for advanced components/tests.
  EventQueue& queue() { return queue_; }

 private:
  void advance_to(Time t);
  /// Fire events up to `horizon`, at most `max_events` of them.
  std::uint64_t dispatch(Time horizon, std::uint64_t max_events);

  EventQueue queue_;
  Time now_ = 0.0;
  std::uint64_t executed_ = 0;
  bool stop_requested_ = false;
};

}  // namespace coopcr::sim
