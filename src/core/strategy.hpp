// coopcr/core/strategy.hpp
//
// A checkpoint/I/O scheduling strategy is an I/O-coordination policy
// composed with three plain values (core/policy.hpp): a checkpoint period,
// a request offset and a commit path (direct-to-PFS, or tiered through the
// scenario's burst buffer). The paper's seven strategies (§3) are prebuilt
// compositions:
//
//   Oblivious-Fixed   Oblivious-Daly     — uncoordinated, linear interference
//   Ordered-Fixed     Ordered-Daly       — serialized FCFS, blocking wait
//   Ordered-NB-Fixed  Ordered-NB-Daly    — serialized FCFS, compute while waiting
//   Least-Waste                          — serialized, Eq. (1)/(2) selection,
//                                          compute while waiting, Daly periods
//
// New strategies are *registered*, not enumerated: compose a StrategySpec
// from a built-in or custom coordination policy and add it to
// strategy_registry() to make it reachable by name — no edits to this file
// required.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/policy.hpp"

namespace coopcr {

/// One fully-specified scheduling strategy: a coordination policy, a
/// period, a request offset, a commit path and an optional display-name
/// override (the paper calls "Least-Waste + Daly periods" just
/// "Least-Waste"). The coordination policy is immutable and shared, so
/// copies are cheap and thread-safe.
class StrategySpec {
 public:
  /// Defaults to the baseline composition: Oblivious coordination with Daly
  /// periods, direct commits.
  StrategySpec(std::shared_ptr<const IoCoordinationPolicy> coordination =
                   oblivious_coordination(),
               CheckpointPeriod period = daly_period(),
               RequestOffset offset = RequestOffset::kPeriodMinusCommit,
               std::string display_name = "", bool tiered = false);

  /// Canonical display name: the override when set, otherwise
  /// "<coordination>-<period>", e.g. "Ordered-NB-Daly". A tiered commit
  /// path appends "-tiered" ("Least-Waste-tiered").
  std::string name() const;

  const IoCoordinationPolicy& coordination() const { return *coordination_; }
  const CheckpointPeriod& period() const { return period_; }
  RequestOffset offset() const { return offset_; }

  /// True when checkpoints commit through the scenario's burst buffer
  /// (ScenarioBuilder::burst_buffer, the §8 storage-tier extension,
  /// stdchk-style): each commit is absorbed at fast-tier bandwidth —
  /// blocking the application only for the absorb — and drained to the PFS
  /// asynchronously, with drains contending for PFS bandwidth under the
  /// same coordination policy. Un-drained checkpoints are lost when a
  /// failure kills the job (the fast tier is node-local), so restarts
  /// resume from the last *drained* snapshot. Without a buffer, or without
  /// free capacity for a commit, the tiered path falls back to the direct
  /// one. False is the paper's model: commits go straight to the PFS.
  ///
  /// Energy scope: the accounting model charges *job-node* power only, so a
  /// tiered run draws checkpoint watts during the (short) absorb and compute
  /// watts while the drain proceeds in its shadow; the drain's device-side
  /// power is outside the per-node model, as it is for every transfer.
  bool tiered() const { return tiered_; }

  /// True when the strategy serialises I/O behind a token.
  bool serialized() const { return coordination_->serialized(); }

  /// True when a job keeps computing while its *checkpoint* request waits
  /// for the I/O token (§3.3, §3.5).
  bool non_blocking_wait() const { return coordination_->non_blocking_wait(); }

  /// Same-composition copy with a different display name.
  StrategySpec named(std::string display_name) const;

  /// Same-composition copy with the given commit path. A tiered commit
  /// extends an explicit display name with "-tiered", so
  /// least_waste().with_commit(/*tiered=*/true) reads "Least-Waste-tiered";
  /// switching back to direct strips the suffix again.
  StrategySpec with_commit(bool tiered) const;

  /// Equality is by composition identity: the coordination name, the
  /// period, the offset, the commit path and the resolved display name
  /// (coordination policies are registered by name).
  bool operator==(const StrategySpec& other) const;
  bool operator!=(const StrategySpec& other) const { return !(*this == other); }

 private:
  std::shared_ptr<const IoCoordinationPolicy> coordination_;
  CheckpointPeriod period_;
  RequestOffset offset_;
  std::string display_name_;
  bool tiered_;
};

/// Historical alias — most call sites read better with "Strategy".
using Strategy = StrategySpec;

// --- paper strategy constructors --------------------------------------------

StrategySpec oblivious_fixed(double period_seconds = units::kHour);
StrategySpec oblivious_daly();
StrategySpec ordered_fixed(double period_seconds = units::kHour);
StrategySpec ordered_daly();
StrategySpec ordered_nb_fixed(double period_seconds = units::kHour);
StrategySpec ordered_nb_daly();
StrategySpec least_waste(
    LeastWasteVariant variant = LeastWasteVariant::kPaperEq12);

/// The paper's cooperative (Least-Waste) coordination composed with the
/// Aupy et al. energy-optimal period instead of Daly periods —
/// registered as "coop-energy". Degenerates to Least-Waste exactly when the
/// scenario's checkpoint and compute power draws coincide.
StrategySpec coop_energy();

/// The seven strategies evaluated in every figure of the paper, in the
/// paper's legend order: Oblivious-Fixed, Oblivious-Daly, Ordered-Fixed,
/// Ordered-Daly, Ordered-NB-Fixed, Ordered-NB-Daly, Least-Waste.
const std::vector<StrategySpec>& paper_strategies();

// --- strategy registry ------------------------------------------------------

/// Process-wide registry of complete strategies, pre-seeded with the seven
/// paper strategies (plus the "OrderedNB-*" alias spellings); registering
/// an existing name replaces it. Not synchronized: register custom
/// strategies up front, before spawning Monte Carlo worker threads.
Registry<StrategySpec>& strategy_registry();

/// Resolve a name into a StrategySpec. Looks up strategy_registry() first;
/// unregistered names of the form "<coordination>-<period>" (split at the
/// last '-'; the period is "Fixed", "Daly" or "Energy") are composed from
/// coordination_registry() with the coordination's default request offset.
/// A trailing "-tiered" composes the rest of the name with burst-buffer
/// commits, so "coop-daly-tiered" is the registered "coop-daly"
/// (Least-Waste) composition with tiered commits. Throws on unknown names.
StrategySpec strategy_from_name(const std::string& name);

}  // namespace coopcr
