// coopcr/io/channel.hpp
//
// Shared-bandwidth transfer channel: the time-shared PFS of the model
// (paper §2, "Computational Platform Model").
//
// Interference models:
//  * kLinear (the paper's): the aggregated bandwidth B is split among the k
//    active flows proportionally to the node count of each flow's job —
//    rate_i = B * q_i / Σ_j q_j. Global throughput stays B.
//  * kNone (baseline runs): no contention — every flow proceeds at the full
//    bandwidth B regardless of concurrency (the fault-free, CR-free,
//    interference-free reference of §6.1).
//  * kDegrading (footnote 2's "more adversarial" model): concurrency also
//    degrades the aggregate — B_eff = B / (1 + alpha * (k - 1)), shares still
//    proportional to q_i.
//
// The channel is a processor-sharing queue simulated exactly: on every
// admission/abort/completion the remaining volumes are advanced analytically
// and the next completion is re-armed on the channel's own sim::Timer, which
// lives outside the event calendar — a move costs no cancel, no stale key
// and no calendar insert, yet fires in the same (time, sequence) order as a
// cancelled and re-scheduled event would. No time-stepping.
//
// Storage: flows live in a free-listed slab addressed by generation-tagged
// FlowIds; the active set is a contiguous admission-ordered index vector and
// the total interference weight is a cached aggregate maintained
// incrementally — admissions and completions touch no hash table and never
// re-sum weights. Rates are cached per active-set change. Completions go to
// one FlowSink with the flow's token: there is no per-flow closure.

#pragma once

#include <cstdint>
#include <vector>

#include "io/request.hpp"
#include "sim/engine.hpp"

namespace coopcr {

/// Contention model applied to concurrent flows.
enum class InterferenceModel {
  kLinear,     ///< paper model: fair proportional sharing, constant aggregate
  kNone,       ///< no interference (baseline reference runs)
  kDegrading,  ///< adversarial: aggregate shrinks with concurrency
};

/// Generation-tagged identifier of an active flow within one channel.
using FlowId = std::uint64_t;
inline constexpr FlowId kInvalidFlow = 0;

/// Receiver of a channel's flow completions.
class FlowSink {
 public:
  /// `flow` (started with `token`) finished and left the channel.
  virtual void on_flow_complete(FlowId flow, std::uint64_t token) = 0;

 protected:
  ~FlowSink() = default;
};

/// Processor-sharing bandwidth channel.
class SharedChannel {
 public:
  /// `sink` — receives every completion; `bandwidth` — aggregated bytes/s;
  /// `alpha` — degradation coefficient for kDegrading (ignored otherwise).
  SharedChannel(sim::Engine& engine, FlowSink& sink, double bandwidth,
                InterferenceModel model = InterferenceModel::kLinear,
                double alpha = 0.0);

  SharedChannel(const SharedChannel&) = delete;
  SharedChannel& operator=(const SharedChannel&) = delete;

  /// Re-arm for a new run with fresh parameters, keeping slab capacity. The
  /// engine must already be reset; behaves bit-identically to constructing a
  /// fresh channel.
  void reset(double bandwidth, InterferenceModel model, double alpha);

  /// Admit a flow transferring `volume` bytes with interference weight
  /// `weight` (the job's node count), reported to the sink with `token`.
  /// Zero-volume flows complete at the next event dispatch (still
  /// asynchronously). Returns the flow handle.
  FlowId start(double volume, std::int64_t weight, std::uint64_t token);

  /// Abort an active flow (failure killed the job). The sink hears nothing
  /// of it. Returns false if the flow is unknown (already completed).
  bool abort(FlowId id);

  /// Number of currently active flows.
  std::size_t active() const { return active_.size(); }

  /// Instantaneous rate of a flow (bytes/s); 0 for unknown flows.
  double rate_of(FlowId id) const;

  /// Remaining bytes of a flow (advanced to "now"); 0 for unknown flows.
  double remaining_of(FlowId id) const;

  /// Aggregate bytes/s currently being moved.
  double aggregate_rate() const;

  /// Total time during which at least one flow was active.
  double busy_time() const;

  /// Total bytes fully transferred through the channel.
  double bytes_transferred() const { return bytes_done_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;

  struct Flow {
    double remaining = 0.0;
    double volume = 0.0;  ///< original request size (for transfer accounting)
    double rate = 0.0;    ///< flow_rate(weight) over the current active set
    double ttf = 0.0;     ///< time to finish, as of the last reschedule()
    std::int64_t weight = 0;
    std::uint64_t token = 0;
    std::uint32_t generation = 0;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Slab index of a live flow, or kNoSlot for stale/unknown handles.
  std::uint32_t live_slot(FlowId id) const;
  /// Remove a slot from the admission-ordered active list (order preserved —
  /// the sink hears of completions in admission order, deterministically).
  void deactivate(std::uint32_t index);

  /// Advance all remaining volumes to the current engine time.
  void advance();
  /// Recompute per-flow rates and re-arm (or disarm) the completion timer.
  void reschedule();
  /// Completion timer handler: finish every flow whose volume has drained.
  void on_completion_event();
  /// Current per-flow rate for `weight` given the active set.
  double flow_rate(std::int64_t weight) const;

  sim::Engine& engine_;
  FlowSink& sink_;
  double bandwidth_ = 0.0;
  InterferenceModel model_ = InterferenceModel::kLinear;
  double alpha_ = 0.0;

  std::vector<Flow> slots_;
  std::vector<std::uint32_t> active_;  ///< live slab indices, admission order
  std::uint32_t free_head_ = kNoSlot;
  std::int64_t total_weight_ = 0;  ///< cached Σ weight over active flows
  /// Flows the armed completion timer was computed for: they are complete
  /// at that instant by construction, regardless of accumulated double
  /// rounding in remaining-volume updates.
  std::vector<FlowId> expected_done_;
  /// Scratch for on_completion_event (reused across events — the handler
  /// never re-enters itself, the sink only runs once state is consistent).
  std::vector<std::pair<FlowId, std::uint64_t>> finished_;
  sim::Time last_advance_ = 0.0;
  sim::Timer completion_;  ///< next completion; disarmed while idle

  double busy_accum_ = 0.0;
  double bytes_done_ = 0.0;
};

}  // namespace coopcr
