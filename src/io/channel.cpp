#include "io/channel.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "util/error.hpp"

namespace coopcr {

namespace {
// Completion slack in bytes. Volumes reach petabytes (1e15); double rounding
// leaves sub-byte residues, and one byte of slack is 25 ps at 40 GB/s —
// entirely negligible against any modelled quantity.
constexpr double kByteEpsilon = 1.0;

/// Pack a slab index and its generation into an opaque FlowId. Index is
/// offset by one so that kInvalidFlow (0) is never produced.
FlowId make_flow_id(std::uint32_t slot, std::uint32_t generation) {
  return (static_cast<FlowId>(generation) << 32) |
         static_cast<FlowId>(slot + 1);
}
}  // namespace

SharedChannel::SharedChannel(sim::Engine& engine, FlowSink& sink,
                             double bandwidth, InterferenceModel model,
                             double alpha)
    : engine_(engine),
      sink_(sink),
      completion_(engine.queue(), [this] { on_completion_event(); }) {
  reset(bandwidth, model, alpha);
}

void SharedChannel::reset(double bandwidth, InterferenceModel model,
                          double alpha) {
  bandwidth_ = bandwidth;
  model_ = model;
  alpha_ = alpha;
  COOPCR_CHECK(bandwidth_ > 0.0, "channel bandwidth must be positive");
  COOPCR_CHECK(alpha_ >= 0.0, "degradation alpha must be non-negative");
  slots_.clear();  // keeps capacity; fresh slots restart at generation 0
  active_.clear();
  expected_done_.clear();
  finished_.clear();
  free_head_ = kNoSlot;
  total_weight_ = 0;
  last_advance_ = engine_.now();
  completion_.disarm();
  busy_accum_ = 0.0;
  bytes_done_ = 0.0;
}

std::uint32_t SharedChannel::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = slots_[index].next_free;
    slots_[index].next_free = kNoSlot;
    return index;
  }
  COOPCR_CHECK(slots_.size() < 0xffffffffull, "flow slab exhausted");
  slots_.emplace_back();
  return static_cast<std::uint32_t>(slots_.size() - 1);
}

void SharedChannel::release_slot(std::uint32_t index) {
  Flow& flow = slots_[index];
  ++flow.generation;  // invalidate every outstanding handle
  flow.next_free = free_head_;
  free_head_ = index;
}

std::uint32_t SharedChannel::live_slot(FlowId id) const {
  const std::uint64_t slot_plus_one = id & 0xffffffffull;
  if (slot_plus_one == 0 || slot_plus_one > slots_.size()) return kNoSlot;
  const auto index = static_cast<std::uint32_t>(slot_plus_one - 1);
  if (slots_[index].generation != static_cast<std::uint32_t>(id >> 32)) {
    return kNoSlot;
  }
  return index;
}

void SharedChannel::deactivate(std::uint32_t index) {
  const auto it = std::find(active_.begin(), active_.end(), index);
  COOPCR_ASSERT(it != active_.end(), "deactivating an inactive flow");
  total_weight_ -= slots_[index].weight;
  active_.erase(it);  // order-preserving: completions in admission order
}

double SharedChannel::flow_rate(std::int64_t weight) const {
  if (active_.empty()) return 0.0;
  switch (model_) {
    case InterferenceModel::kNone:
      return bandwidth_;
    case InterferenceModel::kLinear: {
      const auto tw = static_cast<double>(total_weight_);
      return bandwidth_ * static_cast<double>(weight) / tw;
    }
    case InterferenceModel::kDegrading: {
      const auto k = static_cast<double>(active_.size());
      const double effective = bandwidth_ / (1.0 + alpha_ * (k - 1.0));
      const auto tw = static_cast<double>(total_weight_);
      return effective * static_cast<double>(weight) / tw;
    }
  }
  return 0.0;
}

void SharedChannel::advance() {
  const sim::Time now = engine_.now();
  const double dt = now - last_advance_;
  COOPCR_ASSERT(dt >= 0.0, "channel time ran backwards");
  if (dt > 0.0 && !active_.empty()) {
    busy_accum_ += dt;
    for (const std::uint32_t index : active_) {
      Flow& flow = slots_[index];
      flow.remaining = std::max(0.0, flow.remaining - flow.rate * dt);
    }
  }
  last_advance_ = now;
}

void SharedChannel::reschedule() {
  expected_done_.clear();
  if (active_.empty()) {
    completion_.disarm();
    return;
  }
  double min_ttf = std::numeric_limits<double>::infinity();
  for (const std::uint32_t index : active_) {
    Flow& flow = slots_[index];
    flow.rate = flow_rate(flow.weight);
    COOPCR_ASSERT(flow.rate > 0.0, "active flow with zero rate");
    flow.ttf = std::max(0.0, flow.remaining) / flow.rate;
    min_ttf = std::min(min_ttf, flow.ttf);
  }
  // Remember every flow finishing at (or indistinguishably close to) the
  // event time: they complete *by construction* when the event fires, which
  // makes completion immune to double rounding in rate*dt updates.
  const double slack = 1e-9 * std::max(min_ttf, 1.0);
  for (const std::uint32_t index : active_) {
    const Flow& flow = slots_[index];
    if (flow.ttf <= min_ttf + slack) {
      expected_done_.push_back(make_flow_id(index, flow.generation));
    }
  }
  // Re-arming draws a fresh sequence number, exactly as cancelling the old
  // completion event and scheduling a new one would.
  completion_.arm(engine_.now() + min_ttf);
}

FlowId SharedChannel::start(double volume, std::int64_t weight,
                            std::uint64_t token) {
  COOPCR_CHECK(volume >= 0.0, "flow volume must be non-negative");
  COOPCR_CHECK(weight > 0, "flow weight must be positive");
  advance();
  const std::uint32_t index = acquire_slot();
  Flow& flow = slots_[index];
  flow.remaining = volume;
  flow.volume = volume;
  flow.weight = weight;
  flow.token = token;
  active_.push_back(index);
  total_weight_ += weight;
  reschedule();
  return make_flow_id(index, flow.generation);
}

bool SharedChannel::abort(FlowId id) {
  advance();
  const std::uint32_t index = live_slot(id);
  if (index == kNoSlot) return false;
  deactivate(index);
  release_slot(index);
  reschedule();
  return true;
}

double SharedChannel::rate_of(FlowId id) const {
  const std::uint32_t index = live_slot(id);
  if (index == kNoSlot) return 0.0;
  return slots_[index].rate;
}

double SharedChannel::remaining_of(FlowId id) const {
  const std::uint32_t index = live_slot(id);
  if (index == kNoSlot) return 0.0;
  const Flow& flow = slots_[index];
  // Advance analytically without mutating (const view).
  const double dt = engine_.now() - last_advance_;
  return std::max(0.0, flow.remaining - flow.rate * dt);
}

double SharedChannel::aggregate_rate() const {
  double sum = 0.0;
  for (const std::uint32_t index : active_) sum += slots_[index].rate;
  return sum;
}

double SharedChannel::busy_time() const {
  double extra = 0.0;
  if (!active_.empty()) extra = engine_.now() - last_advance_;
  return busy_accum_ + extra;
}

void SharedChannel::on_completion_event() {
  advance();
  // Collect every drained flow first, then mutate, then notify: the sink
  // may start new flows on this very channel (serial token pump). The flows
  // this event was scheduled for complete by construction; any other flow
  // whose residue drained to (near) zero joins them. Collection walks the
  // admission-ordered active list, so simultaneous completions reach the
  // sink in admission order — deterministically.
  finished_.clear();
  for (const FlowId id : expected_done_) {
    const std::uint32_t index = live_slot(id);
    if (index == kNoSlot) continue;  // aborted meanwhile
    Flow& flow = slots_[index];
    finished_.emplace_back(id, flow.token);
    bytes_done_ += flow.volume;
    flow.remaining = 0.0;
  }
  for (const std::uint32_t index : active_) {
    Flow& flow = slots_[index];
    if (flow.remaining > 0.0 && flow.remaining <= kByteEpsilon) {
      finished_.emplace_back(make_flow_id(index, flow.generation),
                             flow.token);
      bytes_done_ += flow.volume;
      flow.remaining = 0.0;
    }
  }
  // A spurious wake-up (all flows still draining) can only happen if an
  // abort/start changed rates after this event was armed — reschedule()
  // re-arms the timer in those paths, so something drained here.
  COOPCR_ASSERT(!finished_.empty(), "completion event with no drained flow");
  for (const auto& [id, token] : finished_) {
    const std::uint32_t index = live_slot(id);
    COOPCR_ASSERT(index != kNoSlot, "finished flow vanished");
    deactivate(index);
    release_slot(index);
  }
  reschedule();
  for (const auto& [id, token] : finished_) sink_.on_flow_complete(id, token);
}

}  // namespace coopcr
