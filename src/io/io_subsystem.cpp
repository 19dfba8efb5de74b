#include "io/io_subsystem.hpp"

#include <algorithm>

#include "util/error.hpp"

namespace coopcr {

IoSubsystem::IoSubsystem(sim::Engine& engine, double bandwidth,
                         AdmissionMode mode, InterferenceModel interference,
                         double degradation_alpha,
                         std::unique_ptr<TokenPolicy> policy)
    : engine_(engine),
      channel_(engine, *this, bandwidth, interference, degradation_alpha) {
  reset(bandwidth, mode, interference, degradation_alpha, std::move(policy));
}

void IoSubsystem::reset(double bandwidth, AdmissionMode mode,
                        InterferenceModel interference,
                        double degradation_alpha,
                        std::unique_ptr<TokenPolicy> policy) {
  channel_.reset(bandwidth, interference, degradation_alpha);
  mode_ = mode;
  policy_ = std::move(policy);
  if (mode_ == AdmissionMode::kSerial) {
    COOPCR_CHECK(policy_ != nullptr, "serial admission needs a token policy");
  }
  records_.clear();  // keeps capacity; ids restart like a fresh subsystem
  free_head_ = kNoSlot;
  pending_.clear();
  active_count_ = 0;
  next_seq_ = 1;
  stats_ = IoSubsystemStats{};
  pumping_ = false;
}

std::uint32_t IoSubsystem::acquire_slot() {
  if (free_head_ != kNoSlot) {
    const std::uint32_t index = free_head_;
    free_head_ = records_[index].next_free;
    records_[index].next_free = kNoSlot;
    return index;
  }
  COOPCR_CHECK(records_.size() < kSlotMask, "request slab exhausted");
  records_.emplace_back();
  return static_cast<std::uint32_t>(records_.size() - 1);
}

void IoSubsystem::release_slot(std::uint32_t index) {
  Record& rec = records_[index];
  rec.id = kInvalidRequest;
  rec.flow = kInvalidFlow;
  rec.active = false;
  rec.next_free = free_head_;
  free_head_ = index;
}

std::uint32_t IoSubsystem::live_slot(RequestId id) const {
  const std::uint64_t slot_plus_one = id & kSlotMask;
  if (slot_plus_one == 0 || slot_plus_one > records_.size()) return kNoSlot;
  const auto index = static_cast<std::uint32_t>(slot_plus_one - 1);
  if (records_[index].id != id) return kNoSlot;  // stale or reused
  return index;
}

RequestId IoSubsystem::submit(const IoRequest& request, IoListener& listener,
                              std::uint64_t tag,
                              sim::Time last_checkpoint_end,
                              double recovery_seconds) {
  return open(request, listener, tag, RequestCallbacks{}, last_checkpoint_end,
              recovery_seconds);
}

RequestId IoSubsystem::submit(const IoRequest& request,
                              RequestCallbacks callbacks,
                              sim::Time last_checkpoint_end,
                              double recovery_seconds) {
  return open(request, *this, /*tag=*/0, std::move(callbacks),
              last_checkpoint_end, recovery_seconds);
}

RequestId IoSubsystem::open(const IoRequest& request, IoListener& listener,
                            std::uint64_t tag, RequestCallbacks&& callbacks,
                            sim::Time last_checkpoint_end,
                            double recovery_seconds) {
  COOPCR_CHECK(request.volume >= 0.0, "request volume must be >= 0");
  COOPCR_CHECK(request.nodes > 0, "request weight (nodes) must be positive");
  const std::uint32_t index = acquire_slot();
  const RequestId id =
      (next_seq_++ << kSlotBits) | static_cast<RequestId>(index + 1);
  Record& rec = records_[index];
  rec.id = id;
  rec.request = request;
  rec.listener = &listener;
  rec.tag = tag;
  rec.callbacks = std::move(callbacks);
  rec.submitted = engine_.now();
  rec.started = sim::kTimeNever;
  ++stats_.submitted;

  if (mode_ == AdmissionMode::kConcurrent) {
    grant(id);
    return id;
  }

  // Serial: enqueue, then pump (grants immediately when the token is free
  // and nothing older is waiting).
  PendingEntry entry;
  entry.id = id;
  entry.request = request;
  entry.enqueued_at = engine_.now();
  entry.last_checkpoint_end = last_checkpoint_end;
  entry.recovery_seconds = recovery_seconds;
  pending_.push_back(entry);
  pump();
  return id;
}

void IoSubsystem::grant(RequestId id) {
  const std::uint32_t index = live_slot(id);
  COOPCR_ASSERT(index != kNoSlot, "granting unknown request");
  Record& rec = records_[index];
  COOPCR_ASSERT(!rec.active, "granting an already-active request");
  rec.started = engine_.now();
  rec.active = true;
  stats_.total_wait_time += rec.started - rec.submitted;
  ++active_count_;
  rec.flow = channel_.start(rec.request.volume, rec.request.nodes, id);
  // Notify after internal state is consistent. The listener may re-enter
  // submit() and grow the record slab, so it gets copies, not references
  // into the (reallocatable) record.
  const IoRequest request = rec.request;
  rec.listener->on_io_start(request, id, rec.tag);
}

void IoSubsystem::pump() {
  if (mode_ == AdmissionMode::kConcurrent) return;
  if (pumping_) return;  // re-entrant submit() during a grant; outer loop wins
  pumping_ = true;
  while (active_count_ == 0 && !pending_.empty()) {
    const std::size_t pick = policy_->select(pending_, engine_.now());
    COOPCR_ASSERT(pick < pending_.size(), "policy returned bad index");
    const RequestId id = pending_[pick].id;
    pending_.erase(pending_.begin() + static_cast<std::ptrdiff_t>(pick));
    grant(id);
  }
  pumping_ = false;
}

void IoSubsystem::on_flow_complete(FlowId /*flow*/, std::uint64_t token) {
  const RequestId id = token;
  const std::uint32_t index = live_slot(id);
  COOPCR_ASSERT(index != kNoSlot, "completion for unknown request");
  Record& rec = records_[index];
  COOPCR_ASSERT(rec.active, "completion for an inactive request");
  const IoRequest request = rec.request;
  IoListener* const listener = rec.listener;
  const std::uint64_t tag = rec.tag;
  const sim::Time started = rec.started;
  --active_count_;
  release_slot(index);
  ++stats_.completed;
  stats_.total_transfer_time += engine_.now() - started;
  // The listener may submit follow-up requests; the token queue is already
  // consistent (this request fully removed).
  listener->on_io_complete(request, id, tag);
  pump();
}

void IoSubsystem::on_io_start(const IoRequest&, RequestId id, std::uint64_t) {
  // Moved out before it runs: it may re-enter submit() and grow the slab.
  auto fn = std::move(records_[(id & kSlotMask) - 1].callbacks.on_start);
  if (fn) fn(id);
}

void IoSubsystem::on_io_complete(const IoRequest&, RequestId id,
                                 std::uint64_t) {
  // The record is released but its slot not reused yet.
  auto fn = std::move(records_[(id & kSlotMask) - 1].callbacks.on_complete);
  if (fn) fn(id);
}

bool IoSubsystem::erase_pending(RequestId id) {
  const auto it =
      std::find_if(pending_.begin(), pending_.end(),
                   [id](const PendingEntry& e) { return e.id == id; });
  if (it == pending_.end()) return false;
  pending_.erase(it);
  return true;
}

bool IoSubsystem::cancel(RequestId id) {
  const std::uint32_t index = live_slot(id);
  // In concurrent mode nothing is ever pending, so cancel() always fails.
  if (index == kNoSlot || records_[index].active || !erase_pending(id)) {
    return false;
  }
  records_[index].callbacks = RequestCallbacks{};
  release_slot(index);
  ++stats_.cancelled;
  return true;
}

bool IoSubsystem::abort(RequestId id) {
  const std::uint32_t index = live_slot(id);
  if (index == kNoSlot) return false;
  const bool active = records_[index].active;
  if (active) {
    channel_.abort(records_[index].flow);
    --active_count_;
  } else {
    erase_pending(id);
  }
  records_[index].callbacks = RequestCallbacks{};  // no notification follows
  release_slot(index);
  ++stats_.aborted;
  if (active) pump();  // token freed — hand it to the next candidate
  return true;
}

bool IoSubsystem::is_pending(RequestId id) const {
  const std::uint32_t index = live_slot(id);
  return index != kNoSlot && !records_[index].active;
}

bool IoSubsystem::is_active(RequestId id) const {
  const std::uint32_t index = live_slot(id);
  return index != kNoSlot && records_[index].active;
}

sim::Time IoSubsystem::submitted_at(RequestId id) const {
  const std::uint32_t index = live_slot(id);
  COOPCR_CHECK(index != kNoSlot, "unknown request");
  return records_[index].submitted;
}

sim::Time IoSubsystem::started_at(RequestId id) const {
  const std::uint32_t index = live_slot(id);
  COOPCR_CHECK(index != kNoSlot, "unknown request");
  return records_[index].started;
}

}  // namespace coopcr
