#include "sim/engine.hpp"

namespace coopcr::sim {

void Engine::advance_to(Time t) {
  COOPCR_ASSERT(t >= now_, "time must be monotone");
  now_ = t;
  queue_.set_now(t);
}

std::uint64_t Engine::dispatch(Time horizon, std::uint64_t max_events) {
  stop_requested_ = false;
  std::uint64_t n = 0;
  while (n < max_events && !queue_.empty() && !stop_requested_) {
    const Time t = queue_.next_time();
    if (t > horizon) break;
    advance_to(t);
    queue_.fire_next();
    ++n;
    ++executed_;
  }
  return n;
}

std::uint64_t Engine::run(Time horizon) {
  const std::uint64_t n = dispatch(horizon, ~std::uint64_t{0});
  if (queue_.empty() && horizon != kTimeNever && now_ < horizon) {
    // Drained before the horizon: advance the clock so that now() reflects
    // the simulated span the caller asked for.
    advance_to(horizon);
  }
  return n;
}

std::uint64_t Engine::run_steps(std::uint64_t max_events) {
  return dispatch(kTimeNever, max_events);
}

}  // namespace coopcr::sim
