// coopcr/core/monte_carlo.hpp
//
// Monte Carlo evaluation harness (paper §5, "Method of statistics
// collection"): draw many sets of initial conditions (job list + failure
// trace), simulate every strategy on each, and report candlestick statistics
// of the waste ratio.
//
// Determinism: replica r derives its RNG stream from (seed, r); results are
// identical for any thread count. All strategies of a replica share the same
// initial conditions so the comparison is paired, exactly as in the paper.
//
// The harness is decomposed into MonteCarloCampaign so that an external
// executor (exp::SweepRunner's shared ThreadPool) can schedule replicas from
// many campaigns at once: one replica = one task writing into a preassigned
// slot, and reduce() folds the slots in replica order. run_monte_carlo is the
// single-campaign convenience wrapper over the same decomposition.

#pragma once

#include <cstdint>
#include <exception>
#include <functional>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "core/simulation.hpp"
#include "core/variance_reduction.hpp"
#include "util/stats.hpp"

namespace coopcr {

class ThreadPool;

/// Execution options for the harness.
struct MonteCarloOptions {
  int replicas = 100;       ///< paper uses >= 1000; benches default lower
  int threads = 0;          ///< 0 = hardware concurrency
  bool keep_results = false; ///< retain the full per-replica SimulationResults

  // --- variance reduction (core/variance_reduction.hpp) ---------------------

  /// Simulate replicas in antithetic pairs: pair p covers replicas 2p (the
  /// plain stream — bit-identical to a non-antithetic run of that replica)
  /// and 2p+1, drawn from the *reflected* copy of the same stream
  /// (Rng antithetic mode: every continuous uniform inverted, u' = 1 - u),
  /// so the partner's workload, failure trace and baseline mirror the primal
  /// draw. Requires an even replica count.
  bool antithetic = false;
  /// Adjust the waste-ratio estimate with the closed-form first-order waste
  /// prediction (core/lower_bound) evaluated at each replica's failure
  /// count; the coefficient is fit per grid point at reduce time.
  bool control_variate = false;
  /// > 0 enables sequential stopping: the sweep backends (exp::SweepRunner
  /// and dist::DistSweepRunner) grow each campaign in doubling rounds until
  /// the 95% CI of every strategy's waste-ratio estimate is at most this
  /// wide (or max_replicas is hit). run_monte_carlo rejects it.
  double target_ci_width = 0.0;
  /// Replica cap for sequential stopping; 0 means 64 x replicas.
  int max_replicas = 0;
  /// Compute the no-failure baseline once per replica task and share it
  /// across all strategies (the default). Off re-runs the baseline per
  /// strategy — byte-identical output, only slower; kept as a toggle so the
  /// equivalence is testable.
  bool share_baseline = true;

  // --- estimator upgrades, round two ----------------------------------------

  /// Non-empty enables the paired strategy-contrast estimator: every other
  /// strategy's waste ratio is differenced per replica against this (named)
  /// reference strategy's — common random numbers, since all strategies of a
  /// replica share the same workload and failure trace — and the report
  /// carries a contrast estimate (core/variance_reduction.hpp
  /// estimate_contrast) per non-reference strategy. The campaign constructor
  /// throws when no strategy has this name.
  std::string contrast_reference;
  /// > 1 post-stratifies the waste-ratio means and contrasts on quantile
  /// bins of a realised per-replica workload feature (recorded in every
  /// ReplicaSlot) — the between-bin variance leaves the CI.
  int strata_bins = 0;
  /// Which recorded workload feature strata_bins bins on: "work_total"
  /// (total submitted node-seconds, the default), "work_jobs" (job count)
  /// or "work_max_share" (largest class share).
  std::string strata_feature = "work_total";

  /// True when any mean-estimator upgrade is on (vr_* columns are emitted).
  bool vr_active() const {
    return antithetic || control_variate || target_ci_width > 0.0 ||
           strata_bins > 1;
  }

  /// True when the paired strategy-contrast estimator is on (contrast_*
  /// columns are emitted).
  bool contrast_active() const { return !contrast_reference.empty(); }

  /// Sequential-stopping replica cap with the 0-default resolved.
  int resolved_max_replicas() const {
    return max_replicas > 0 ? max_replicas : 64 * replicas;
  }

  /// Read COOPCR_REPLICAS / COOPCR_THREADS — plus the variance-reduction
  /// knobs COOPCR_ANTITHETIC, COOPCR_CONTROL_VARIATE, COOPCR_TARGET_CI,
  /// COOPCR_MAX_REPLICAS, COOPCR_CONTRAST, COOPCR_STRATA_BINS and
  /// COOPCR_STRATA_FEATURE — from the environment, falling back to the
  /// provided defaults when unset or empty. Used by every bench binary.
  /// Throws coopcr::Error on malformed values (non-numeric, trailing
  /// garbage, out of range): COOPCR_REPLICAS must be >= 1 and COOPCR_THREADS
  /// >= 0 (0 keeps the hardware-concurrency default).
  static MonteCarloOptions from_env(int default_replicas,
                                    int default_threads = 0);
};

/// Distribution of one strategy's outcomes over the replicas.
struct StrategyOutcome {
  Strategy strategy;
  SampleSet waste_ratio;     ///< wasted / baseline useful, per replica
  SampleSet efficiency;      ///< useful / baseline useful, per replica
  SampleSet utilization;     ///< mean allocated node fraction
  SampleSet failures_hit;    ///< failures that killed a job
  SampleSet checkpoints;     ///< completed checkpoint count
  SampleSet energy_joules;   ///< total joules over the measured segment
  /// Wasted joules / baseline useful joules, per replica — the energy twin
  /// of waste_ratio (scenario platform PowerProfile, core/accounting.hpp).
  SampleSet energy_waste_ratio;
  /// Commit-transfer waste: the intrinsic (contention-free) unit-seconds of
  /// checkpoint commit transfers (TimeCategory::kCheckpoint) over baseline
  /// useful — the component a tiered (burst-buffer) commit path attacks
  /// directly. Token waits before a commit land in kBlockedWait and
  /// contention stretch in kIoDilation; neither is included here.
  SampleSet ckpt_waste_ratio;
  /// Variance-reduced estimate of the waste-ratio mean. `enabled` mirrors
  /// MonteCarloOptions::vr_active(); when false `estimate` is
  /// default-constructed and no vr_* columns are emitted.
  struct VrSummary {
    bool enabled = false;
    VrEstimate estimate;
  };
  VrSummary vr;
  /// Paired strategy-contrast estimate of E[waste_ratio - reference's
  /// waste_ratio]. `enabled` is set on every non-reference strategy when
  /// MonteCarloOptions::contrast_active(); the reference strategy itself
  /// (and every strategy when the contrast is off) keeps it false with a
  /// default-constructed estimate.
  struct ContrastSummary {
    bool enabled = false;
    VrEstimate estimate;
  };
  ContrastSummary contrast;
  /// Per-replica full results (only when keep_results was set).
  std::vector<SimulationResult> results;
};

/// Result of a Monte Carlo campaign.
struct MonteCarloReport {
  std::vector<StrategyOutcome> outcomes;  ///< one per requested strategy
  SampleSet baseline_useful;              ///< denominator, per replica
  SampleSet baseline_useful_energy;       ///< joules twin of the denominator
  int replicas = 0;
  /// True when any variance-reduction option was active (antithetic pairing,
  /// control variates, sequential stopping or post-stratification) — gates
  /// the vr_* report columns so VR-off output stays byte-identical to
  /// earlier releases.
  bool vr_enabled = false;
  /// True when the paired strategy-contrast estimator was active — gates the
  /// contrast_* report columns the same way.
  bool contrast_enabled = false;
  /// The contrast's reference strategy name (empty when disabled).
  std::string contrast_reference;

  /// Outcome lookup by strategy name; throws when absent.
  const StrategyOutcome& outcome(const std::string& name) const;
};

/// The flat, serialisable metric tuple one replica produces for one
/// strategy — exactly the values reduce() folds into the report's
/// SampleSets, computed once at task time. Because these are finished
/// doubles (not intermediate SimulationResults), a slot can cross a process
/// boundary (dist/ wire protocol, campaign journal) bit-exactly, which is
/// what extends the thread-invariance guarantee to process- and
/// resume-invariance.
struct ReplicaStrategyMetrics {
  double waste_ratio = 0.0;
  double efficiency = 0.0;
  double utilization = 0.0;
  double failures_hit = 0.0;
  double checkpoints = 0.0;
  double energy_joules = 0.0;
  double energy_waste_ratio = 0.0;
  double ckpt_waste_ratio = 0.0;
};

/// Everything one replica contributes to the reduced report: the baseline
/// denominators, one metric tuple per strategy (in strategy order), the
/// control-variate predictor and the realised workload features. An
/// antithetic partner is an ordinary replica with its own slot. The dist
/// wire protocol and campaign journal serialise all of it (slot layout v4),
/// so every campaign keeps the bit-exact process/resume invariance.
struct ReplicaSlot {
  double baseline_useful = 0.0;
  double baseline_useful_energy = 0.0;
  std::vector<ReplicaStrategyMetrics> per_strategy;
  /// Closed-form waste prediction at the replica's failure count.
  double cv_predictor = 0.0;
  /// Realised workload summaries of the replica's job list — always
  /// recorded, they cost one compose() pass: total submitted node-seconds,
  /// job count, and the largest class share. Post-stratification
  /// (MonteCarloOptions::strata_bins) bins on one of them at reduce time.
  double work_total = 0.0;
  double work_jobs = 0.0;
  double work_max_share = 0.0;
};

/// One campaign decomposed into schedulable replica tasks.
///
/// Usage (what run_monte_carlo does internally):
///
///   MonteCarloCampaign campaign(scenario, strategies, options);
///   for (int t = 0; t < campaign.tasks(); ++t)
///     pool.submit([&, t] { campaign.run_replica_task(t); });
///   pool.wait_idle();
///   MonteCarloReport report = campaign.reduce();
///
/// run_replica_task is thread-safe for distinct task indices (each writes
/// its own slot); reduce() is deterministic in task order regardless of
/// task scheduling, which is what makes sweep results bit-identical across
/// thread counts. A remote executor (dist::DistSweepRunner) runs the same
/// decomposition in worker processes: the worker calls run_replica_task +
/// slot(), ships the doubles over the wire, and the coordinator calls
/// install_slot() — reduce() cannot tell the difference.
///
/// Task t is replica t in every mode. Replica t draws its initial
/// conditions from Rng::stream(seed, t), except that under antithetic
/// pairing an odd replica 2p+1 draws from the reflected copy of stream
/// (seed, 2p).
class MonteCarloCampaign {
 public:
  /// Validates the inputs (non-empty strategy set, positive replicas, built
  /// scenario, even replica count when antithetic) — throws coopcr::Error
  /// otherwise.
  MonteCarloCampaign(ScenarioConfig scenario, std::vector<Strategy> strategies,
                     MonteCarloOptions options);

  int replicas() const { return options_.replicas; }
  /// Schedulable task count: one task per replica.
  int tasks() const { return options_.replicas; }
  const ScenarioConfig& scenario() const { return scenario_; }
  const std::vector<Strategy>& strategies() const { return strategies_; }
  const MonteCarloOptions& options() const { return options_; }

  /// Simulate task `t` (0-based, < tasks()) under every strategy and store
  /// the outputs in slot t.
  void run_replica_task(int t);

  /// True once task `t`'s slot holds results (run locally or installed).
  bool slot_done(int t) const;

  /// Task `t`'s finished metric slot, for shipping to a remote reducer
  /// (wire protocol, journal). Throws coopcr::Error when the task has not
  /// run.
  const ReplicaSlot& slot(int t) const;

  /// Install a slot computed elsewhere (a worker process or a journal
  /// replay) as task `t`'s output. The slot must carry exactly one
  /// metric tuple per strategy; incompatible with options.keep_results (full
  /// SimulationResults never cross the process boundary). Installing over an
  /// already-done slot throws — a duplicated work unit is a dispatcher bug,
  /// not something to paper over.
  void install_slot(int t, ReplicaSlot slot);

  /// Fold all replica slots into a report, in task order. Every replica
  /// task must have completed; throws coopcr::Error on missing slots.
  /// Single-use: reduce() moves results out of the slots, so a second call
  /// throws instead of returning corrupted statistics.
  MonteCarloReport reduce();

  /// Non-destructive mid-campaign reduction for sequential stopping: folds
  /// the currently configured tasks (all must be done) into a report by
  /// copying the slots, leaving the campaign open for extend() + further
  /// run_replica_task/install_slot calls and a final reduce(). Requires
  /// !options.keep_results (full results are too heavy to copy per round)
  /// and throws after reduce().
  MonteCarloReport snapshot() const;

  /// Grow the campaign to `new_replicas` (>= the current count). Existing
  /// slots are untouched — only the
  /// new tail needs running — so a snapshot-extend-run loop is bit-identical
  /// to a fixed-count campaign started at the final size. Throws after
  /// reduce().
  void extend(int new_replicas);

 private:
  /// Everything one replica produces, kept per-replica so reduction order is
  /// deterministic regardless of thread scheduling.
  struct ReplicaOutput {
    ReplicaSlot slot;
    /// Full per-strategy results, only populated under options.keep_results.
    std::vector<SimulationResult> results;
    bool done = false;
  };

  /// Fold tasks [0, tasks()) into a report. `destructive` moves slot
  /// contents out (reduce); snapshot passes false and copies.
  MonteCarloReport fold_report(bool destructive);

  ScenarioConfig scenario_;
  std::vector<Strategy> strategies_;
  MonteCarloOptions options_;
  std::vector<ReplicaOutput> outputs_;
  bool reduced_ = false;
  /// Index of the contrast reference strategy (-1 when the contrast is off);
  /// resolved from options.contrast_reference in the constructor.
  int contrast_index_ = -1;
  /// Control-variate predictor: predicted waste ratio at n failures is
  /// cv_intercept_ + cv_slope_ * n, with known mean cv_predictor_mean_
  /// (the closed-form lower-bound waste). Computed once in the constructor;
  /// all zero when control_variate is off.
  double cv_intercept_ = 0.0;
  double cv_slope_ = 0.0;
  double cv_predictor_mean_ = 0.0;
};

/// Submit every task of `campaign` onto `pool` as non-throwing tasks:
/// `errors` is resized to tasks() and each task stashes its exception (if
/// any) into its own slot; `on_task_done` (optional) runs after every task,
/// including failed ones. `campaign` and `errors` must outlive the tasks —
/// drain the pool (wait_idle) before unwinding past them, then pass `errors`
/// to rethrow_first_error. This is the one scheduling shim shared by
/// run_monte_carlo and exp::SweepRunner.
void submit_campaign_tasks(ThreadPool& pool, MonteCarloCampaign& campaign,
                           std::vector<std::exception_ptr>& errors,
                           std::function<void()> on_task_done = nullptr);

/// Range overload for sequential stopping: submit tasks [first, last) only,
/// growing `errors` to at least `last` slots. submit_campaign_tasks is the
/// (0, tasks()) special case.
void submit_campaign_task_range(ThreadPool& pool, MonteCarloCampaign& campaign,
                                std::vector<std::exception_ptr>& errors,
                                int first, int last,
                                std::function<void()> on_task_done = nullptr);

/// Rethrow the first stashed task error, if any (deterministic slot order).
void rethrow_first_error(const std::vector<std::exception_ptr>& errors);

/// Run `options.replicas` replicas of `scenario` under each strategy.
/// `scenario` must come out of ScenarioBuilder::build (classes resolved).
MonteCarloReport run_monte_carlo(const ScenarioConfig& scenario,
                                 const std::vector<Strategy>& strategies,
                                 const MonteCarloOptions& options);

/// Same campaign, but scheduled onto a caller-owned pool (options.threads is
/// ignored — the pool decides the parallelism). Results are bit-identical to
/// the internal-threads overload. Blocks until the pool drains, so it must
/// not be called from one of `pool`'s own workers (ThreadPool::wait_idle
/// throws on that re-entrant use).
MonteCarloReport run_monte_carlo(const ScenarioConfig& scenario,
                                 const std::vector<Strategy>& strategies,
                                 const MonteCarloOptions& options,
                                 ThreadPool& pool);

/// Single-replica convenience: generate initial conditions from
/// (scenario.seed, replica) and simulate one strategy. Used by tests and the
/// quickstart example.
struct ReplicaRun {
  SimulationResult result;
  double baseline_useful = 0.0;
  double waste_ratio = 0.0;
  double baseline_useful_energy = 0.0;  ///< joules of the baseline run
  double energy_waste_ratio = 0.0;      ///< wasted J / baseline useful J

  ReplicaRun(SimulationResult r) : result(std::move(r)) {}
};
ReplicaRun run_replica(const ScenarioConfig& scenario, const Strategy& strategy,
                       std::uint64_t replica);

}  // namespace coopcr
