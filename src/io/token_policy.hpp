// coopcr/io/token_policy.hpp
//
// Token selection for the serialized I/O scheduling strategies (paper §3).
//
// Under Ordered / Ordered-NB / Least-Waste, at most one I/O operation owns
// the PFS at any time. When the channel frees and requests are pending, a
// TokenPolicy picks which one is granted:
//
//  * FcfsPolicy        — request arrival order (Ordered, Ordered-NB; §3.2/3.3)
//  * LeastWastePolicy  — the paper's contribution (§3.5): grant the request
//                        whose execution minimises the expected waste
//                        inflicted on every other candidate, Eq. (1)/(2)
//  * RandomPolicy, SmallestFirstPolicy — survey baselines for the ablation
//                        benches (not in the paper)

#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "io/request.hpp"
#include "util/rng.hpp"

namespace coopcr {

/// A request waiting for the I/O token, with the context Least-Waste needs.
struct PendingEntry {
  RequestId id = kInvalidRequest;
  IoRequest request;

  /// When the token was requested. For IO-candidates (blocking operations)
  /// the job has been idle since this instant — the `d_i` of category C_IO.
  sim::Time enqueued_at = 0.0;

  /// For checkpoint candidates: completion time of the job's previous
  /// checkpoint (or start of compute when none was taken yet). The paper's
  /// `d_i` of category C_Ckpt is `now - last_checkpoint_end`.
  sim::Time last_checkpoint_end = 0.0;

  /// R_j — recovery time of the job's class at full bandwidth.
  double recovery_seconds = 0.0;
};

/// Interface: choose which pending request obtains the I/O token.
class TokenPolicy {
 public:
  virtual ~TokenPolicy() = default;

  /// Return the index (into `pending`) of the request to grant. `pending` is
  /// ordered by request arrival and is never empty. Must be deterministic
  /// given the same inputs (RandomPolicy owns its generator state).
  virtual std::size_t select(const std::vector<PendingEntry>& pending,
                             sim::Time now) = 0;
};

/// First-come-first-served: always the oldest request (§3.2, §3.3).
class FcfsPolicy final : public TokenPolicy {
 public:
  std::size_t select(const std::vector<PendingEntry>& pending,
                     sim::Time now) override;
};

/// Uniform random selection (ablation baseline).
class RandomPolicy final : public TokenPolicy {
 public:
  explicit RandomPolicy(std::uint64_t seed) : rng_(seed) {}
  std::size_t select(const std::vector<PendingEntry>& pending,
                     sim::Time now) override;

 private:
  Rng rng_;
};

/// Smallest transfer first (ablation baseline, SJF-like).
class SmallestFirstPolicy final : public TokenPolicy {
 public:
  std::size_t select(const std::vector<PendingEntry>& pending,
                     sim::Time now) override;
};

/// Waste-formula variant for LeastWastePolicy.
enum class LeastWasteVariant {
  /// Eq. (1)/(2) exactly as printed in the paper — the whole candidate sum is
  /// multiplied by the grant duration (a waste *rate × duration* charge).
  kPaperEq12,
  /// The per-candidate itemised derivation of §3.5 (no extra duration factor
  /// on the C_IO term). Provided for the ablation bench; the two variants
  /// rank candidates nearly identically in practice.
  kMarginal,
};

/// The paper's Least-Waste heuristic (§3.5).
///
/// When the channel frees at time t, every pending blocking operation
/// (input / output / recovery / routine) is an IO-candidate with idle age
/// d_j = t - enqueued_at, and every pending checkpoint is a Ckpt-candidate
/// with age d_j = t - last_checkpoint_end. Granting candidate i charges all
/// other candidates with the expected waste of Eq. (1) (i ∈ C_IO) or
/// Eq. (2) (i ∈ C_Ckpt); the minimiser wins. Ties resolve to the oldest
/// request for determinism.
class LeastWastePolicy final : public TokenPolicy {
 public:
  /// `node_mtbf` — µ_ind (seconds); `bandwidth` — full PFS bandwidth used to
  /// convert volumes into channel occupancy times.
  LeastWastePolicy(double node_mtbf, double bandwidth,
                   LeastWasteVariant variant = LeastWasteVariant::kPaperEq12);

  std::size_t select(const std::vector<PendingEntry>& pending,
                     sim::Time now) override;

  /// Expected waste of granting `pending[index]` at time `now` — Eq. (1)/(2).
  /// Exposed so tests can pin the formulas numerically.
  double waste_of(const std::vector<PendingEntry>& pending, std::size_t index,
                  sim::Time now) const;

 private:
  double node_mtbf_;
  double bandwidth_;
  LeastWasteVariant variant_;
};

/// True when a pending entry belongs to category C_IO (blocking operations);
/// false for category C_Ckpt — checkpoint commits and burst-buffer drains,
/// whose waiting cost is failure risk rather than idle nodes.
bool is_io_candidate(const PendingEntry& entry);

}  // namespace coopcr
