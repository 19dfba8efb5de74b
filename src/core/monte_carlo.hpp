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
// One replica is defined once: prepare_replica draws its inputs and runs its
// baseline, strategy_metrics turns each strategy run into the slot's metric
// tuple. MonteCarloCampaign builds its slot-writing tasks on the two, so an
// external executor (exp::SweepRunner's shared ThreadPool, dist worker
// processes) can schedule replicas from many campaigns at once, and reduce()
// folds the slots in replica order. run_monte_carlo runs one campaign on a
// local pool; run_replica is one replica under one strategy.

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

  // --- estimator upgrades, round two ----------------------------------------

  /// Non-empty enables the paired strategy-contrast estimator: every other
  /// strategy's waste ratio is differenced per replica against this (named)
  /// reference strategy's — common random numbers, since all strategies of a
  /// replica share the same workload and failure trace — and the report
  /// carries a contrast estimate (core/variance_reduction.hpp
  /// estimate_contrast) per non-reference strategy. The campaign constructor
  /// throws when no strategy has this name.
  std::string contrast_reference;

  /// True when any mean-estimator upgrade is on (vr_* columns are emitted).
  bool vr_active() const {
    return antithetic || control_variate || target_ci_width > 0.0;
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
  /// COOPCR_MAX_REPLICAS and COOPCR_CONTRAST — from the environment, falling
  /// back to the provided defaults when unset or empty. Used by
  /// coopcr_sweep, fig3_prospective and the examples.
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
  /// control variates or sequential stopping) — gates the vr_* report
  /// columns so VR-off output stays byte-identical to earlier releases.
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
/// denominators, one metric tuple per strategy (in strategy order) and the
/// control-variate predictor. An antithetic partner is an ordinary replica
/// with its own slot. The dist wire protocol and campaign journal serialise
/// those values (slot layout v5), so every campaign keeps the bit-exact
/// process/resume invariance.
struct ReplicaSlot {
  double baseline_useful = 0.0;
  double baseline_useful_energy = 0.0;
  std::vector<ReplicaStrategyMetrics> per_strategy;
  /// Closed-form waste prediction at the replica's failure count.
  double cv_predictor = 0.0;
  /// Unused and never serialised; kept only because coopbench assigns them.
  double work_total = 0.0;
  double work_jobs = 0.0;
  double work_max_share = 0.0;
};

/// One campaign decomposed into schedulable replica tasks.
///
/// Usage (what run_monte_carlo does):
///
///   MonteCarloCampaign campaign(scenario, strategies, options);
///   std::vector<std::exception_ptr> errors;
///   submit_campaign_task_range(pool, campaign, errors, 0, campaign.tasks());
///   pool.wait_idle();
///   rethrow_first_error(errors, "campaign failed");
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
/// Task t is replica t in every mode: prepare_replica(scenario, t,
/// options.antithetic) followed by one simulate + strategy_metrics per
/// strategy.
class MonteCarloCampaign {
 public:
  /// Validates the inputs (non-empty strategy set, positive replicas, built
  /// scenario, even replica count when antithetic) — throws coopcr::Error
  /// otherwise.
  MonteCarloCampaign(ScenarioConfig scenario, std::vector<Strategy> strategies,
                     MonteCarloOptions options);

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

/// Submit tasks [first, last) of `campaign` onto `pool` as non-throwing
/// tasks: `errors` grows to at least `last` slots and each task stashes its
/// exception (if any) into its own slot; `on_task_done` (optional) runs after
/// every task, including failed ones. `campaign` and `errors` must outlive
/// the tasks — drain the pool (wait_idle) before unwinding past them, then
/// pass `errors` to rethrow_first_error. This is the one scheduling shim
/// shared by run_monte_carlo and exp::SweepRunner.
void submit_campaign_task_range(ThreadPool& pool, MonteCarloCampaign& campaign,
                                std::vector<std::exception_ptr>& errors,
                                int first, int last,
                                std::function<void()> on_task_done = nullptr);

/// Rethrow the first stashed task error, if any (deterministic slot order),
/// prefixed with `context` (which campaign failed) and the replica index —
/// a bare rethrow would leave the caller guessing which of a thousand tasks
/// blew up. Non-std exceptions propagate unwrapped.
void rethrow_first_error(const std::vector<std::exception_ptr>& errors,
                         const std::string& context);

/// Run `options.replicas` replicas of `scenario` under each strategy on a
/// local pool of min(threads or hardware concurrency, replicas) workers.
/// `scenario` must come out of ScenarioBuilder::build (classes resolved).
/// Sequential stopping (target_ci_width) runs through exp::SweepRunner and
/// is rejected here.
MonteCarloReport run_monte_carlo(const ScenarioConfig& scenario,
                                 const std::vector<Strategy>& strategies,
                                 const MonteCarloOptions& options);

/// One replica's drawn initial conditions and its baseline run. `slot`
/// holds the baseline denominators; its per-strategy tuples and
/// control-variate predictor are left for the caller.
struct ReplicaInputs {
  std::vector<Job> jobs;
  std::vector<Failure> failures;
  ReplicaSlot slot;
};

/// Materialise replica `replica` of `scenario`: its stream is
/// Rng::stream(seed, replica), or under antithetic pairing for an odd
/// replica 2p+1 the reflected copy of stream (seed, 2p); the stream draws
/// the jobs, then the failure trace. The baseline runs on `workspace`.
/// Throws coopcr::Error when the baseline does no useful work (every waste
/// ratio would divide by zero).
ReplicaInputs prepare_replica(const ScenarioConfig& scenario,
                              std::uint64_t replica, bool antithetic,
                              SimWorkspace& workspace);

/// The metric tuple of one strategy run against its replica's baseline
/// useful unit-seconds and joules.
ReplicaStrategyMetrics strategy_metrics(const SimulationResult& result,
                                        double base_useful,
                                        double base_energy);

/// Single-replica convenience: replica `replica` of a non-antithetic
/// campaign on `scenario`, simulated under one strategy. Used by tests and
/// the quickstart example.
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
