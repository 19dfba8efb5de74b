// coopcr/io/io_subsystem.hpp
//
// Admission layer in front of the shared PFS channel.
//
// Two admission modes realise the paper's strategy families (§3):
//  * kConcurrent (Oblivious): every request starts transferring immediately;
//    the channel's interference model dilates everyone.
//  * kSerial (Ordered / Ordered-NB / Least-Waste): a single I/O token exists;
//    requests queue and a TokenPolicy decides who is granted when the
//    channel frees. Granted requests run alone at full bandwidth.
//
// Whether a *waiting* job keeps computing (non-blocking variants) is the
// simulator's concern; the subsystem only reports when a request starts and
// completes.
//
// Storage: request records live in a free-listed slab. A RequestId packs a
// monotone submission sequence over the slab slot ((seq << 20) | slot+1), so
// ids are O(1) to resolve without hashing *and* numerically ordered by
// submission time — the ordering TokenPolicy tie-breaks rely on.
//
// A record stores its submitter's IoListener and tag, through which grant
// and completion notify: no per-request closure. The closure-style submit()
// stores its RequestCallbacks in the record, with the subsystem itself as
// the listener that runs them.

#pragma once

#include <memory>
#include <vector>

#include "io/channel.hpp"
#include "io/request.hpp"
#include "io/token_policy.hpp"
#include "sim/engine.hpp"
#include "sim/inline_fn.hpp"

namespace coopcr {

/// How requests are admitted to the channel.
enum class AdmissionMode {
  kConcurrent,  ///< Oblivious: no coordination
  kSerial,      ///< one-at-a-time with a token policy
};

/// Receiver of request lifecycle notifications; requests are told apart by
/// the tag they were submitted with. The listener may submit re-entrantly.
class IoListener {
 public:
  /// Transfer begins (token granted / admitted) — synchronously from
  /// submit() when admission is immediate.
  virtual void on_io_start(const IoRequest& request, RequestId id,
                           std::uint64_t tag) = 0;
  /// Last byte transferred; the request has already left the subsystem.
  virtual void on_io_complete(const IoRequest& request, RequestId id,
                              std::uint64_t tag) = 0;

 protected:
  ~IoListener() = default;
};

/// Closure-style lifecycle notifications (the adapter submit()). Move-only.
struct RequestCallbacks {
  /// Callback type; captures up to the inline capacity need no allocation.
  using Fn = sim::InlineFunction<void(RequestId), 48>;
  /// Transfer begins (token granted / admitted). Invoked synchronously from
  /// submit() when admission is immediate, otherwise from the grant path.
  Fn on_start;
  /// Last byte transferred.
  Fn on_complete;
};

/// Aggregate counters for diagnostics and tests.
struct IoSubsystemStats {
  std::uint64_t submitted = 0;
  std::uint64_t completed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t aborted = 0;
  double total_wait_time = 0.0;      ///< Σ (start - submit) over started requests
  double total_transfer_time = 0.0;  ///< Σ (complete - start)
};

/// The platform's I/O front-end: queue + token + shared channel.
class IoSubsystem : private FlowSink, private IoListener {
 public:
  /// `policy` is required for kSerial and ignored for kConcurrent.
  IoSubsystem(sim::Engine& engine, double bandwidth, AdmissionMode mode,
              InterferenceModel interference = InterferenceModel::kLinear,
              double degradation_alpha = 0.0,
              std::unique_ptr<TokenPolicy> policy = nullptr);
  // Its channel and its own records hold its address.
  IoSubsystem(const IoSubsystem&) = delete;
  IoSubsystem& operator=(const IoSubsystem&) = delete;

  /// Re-arm for a new run with fresh parameters, keeping slab/queue capacity.
  /// The engine must already be reset; behaves bit-identically to
  /// constructing a fresh subsystem (same RequestIds, same order).
  void reset(double bandwidth, AdmissionMode mode,
             InterferenceModel interference, double degradation_alpha,
             std::unique_ptr<TokenPolicy> policy);

  /// Submit a request whose start and completion go to `listener` with
  /// `tag`. `last_checkpoint_end` / `recovery_seconds` feed the Least-Waste
  /// candidate model (ignored by other policies).
  RequestId submit(const IoRequest& request, IoListener& listener,
                   std::uint64_t tag, sim::Time last_checkpoint_end = 0.0,
                   double recovery_seconds = 0.0);

  /// Adapter: submit with closures instead of a listener.
  RequestId submit(const IoRequest& request, RequestCallbacks callbacks,
                   sim::Time last_checkpoint_end = 0.0,
                   double recovery_seconds = 0.0);

  /// Withdraw a *pending* request (e.g. a non-blocking checkpoint request
  /// overtaken by job completion). Returns false when the request is already
  /// active or finished.
  bool cancel(RequestId id);

  /// Abort a request in any state (job failure). Active transfers are torn
  /// down without a completion notice. Returns false when unknown.
  bool abort(RequestId id);

  /// State queries.
  bool is_pending(RequestId id) const;
  bool is_active(RequestId id) const;

  /// Submission / grant timestamps (for dilation accounting). Throws when the
  /// request is unknown.
  sim::Time submitted_at(RequestId id) const;
  sim::Time started_at(RequestId id) const;

  std::size_t pending_count() const { return pending_.size(); }
  std::size_t active_count() const { return active_count_; }

  const IoSubsystemStats& stats() const { return stats_; }

 private:
  static constexpr std::uint32_t kNoSlot = 0xffffffffu;
  /// Slot bits in a RequestId: up to ~1M concurrently-live requests, with
  /// 44 bits of monotone submission sequence above them.
  static constexpr unsigned kSlotBits = 20;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;

  struct Record {
    RequestId id = kInvalidRequest;  ///< full id; kInvalidRequest when free
    IoRequest request;
    IoListener* listener = nullptr;
    std::uint64_t tag = 0;
    RequestCallbacks callbacks;  ///< adapter closures; a free slot holds none
    sim::Time submitted = 0.0;
    sim::Time started = sim::kTimeNever;
    FlowId flow = kInvalidFlow;
    bool active = false;
    std::uint32_t next_free = kNoSlot;
  };

  std::uint32_t acquire_slot();
  void release_slot(std::uint32_t index);
  /// Slab index of a live request, or kNoSlot for stale/unknown ids.
  std::uint32_t live_slot(RequestId id) const;

  /// Both submit() overloads: open a record holding `listener`, `tag` and
  /// `callbacks` (empty unless the subsystem is the listener), then admit it.
  RequestId open(const IoRequest& request, IoListener& listener,
                 std::uint64_t tag, RequestCallbacks&& callbacks,
                 sim::Time last_checkpoint_end, double recovery_seconds);
  /// Remove `id` from the token queue; false when it is not queued.
  bool erase_pending(RequestId id);
  void grant(RequestId id);
  void pump();
  void on_flow_complete(FlowId flow, std::uint64_t token) override;
  // Closure-style submissions: run the closures stored in the record.
  void on_io_start(const IoRequest&, RequestId id, std::uint64_t) override;
  void on_io_complete(const IoRequest&, RequestId id, std::uint64_t) override;

  sim::Engine& engine_;
  SharedChannel channel_;
  AdmissionMode mode_ = AdmissionMode::kConcurrent;
  std::unique_ptr<TokenPolicy> policy_;

  std::vector<Record> records_;        ///< free-listed request slab
  std::uint32_t free_head_ = kNoSlot;
  std::vector<PendingEntry> pending_;  ///< arrival-ordered token queue
  std::size_t active_count_ = 0;
  std::uint64_t next_seq_ = 1;
  IoSubsystemStats stats_;
  bool pumping_ = false;
};

}  // namespace coopcr
