// coopcr/exp/sweep_runner.hpp
//
// Grid-level parallel execution of experiment sweeps.
//
// SweepRunner expands an ExperimentSpec and schedules every
// (grid point × replica) task of the whole grid onto one shared ThreadPool —
// replicas of different grid points interleave freely, so a 7-point sweep
// does not serialise at point boundaries. run() and run_batch() share one
// loop: each campaign starts its next sequential-stopping round as soon as
// its own tasks drain, and a fixed-count campaign is the one-round case.
// Because each replica task writes a preassigned slot (MonteCarloCampaign)
// and reductions fold slots in replica order, reports are bit-identical for
// any thread count and identical to per-point run_monte_carlo calls.
//
// run_batch() is the lower-level entry for adaptive drivers whose next grid
// is data-dependent — e.g. the Figure 3 bisection runs all not-yet-converged
// (MTBF, strategy) cells' probes as one batch per bisection round.

#pragma once

#include <functional>
#include <memory>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::exp {

/// One unit of run_batch work: a Monte Carlo campaign (scenario × strategy
/// set).
struct Campaign {
  ScenarioConfig scenario;
  std::vector<Strategy> strategies;
  MonteCarloOptions options;  ///< `threads` is ignored — the pool governs
};

/// Resolved sequential-stopping replica cap for `options`:
/// resolved_max_replicas() with antithetic pair parity kept.
int sequential_stopping_cap(const MonteCarloOptions& options);

/// Initial replica count of a sequential-stopping campaign: the requested
/// count clamped to the cap, so max_replicas bounds the *total* simulated
/// replicas — round one included, not just the extend rounds.
int sequential_stopping_start(const MonteCarloOptions& options);

/// The one sequential-stopping round decision, shared by SweepRunner and
/// dist::DistSweepRunner so the two backends can never disagree on the
/// growth schedule: snapshot `campaign` and return the replica count the
/// next doubling round grows it to, or 0 when it settles — the 95% CI of
/// every strategy's waste-ratio estimate (every *contrast* estimate when
/// the paired contrast is active) is at most target_ci_width, or the cap is
/// reached. Driven by the deterministic snapshot alone, so the schedule is
/// bit-identical across thread counts, shard counts and resume histories.
int next_sequential_round(const MonteCarloCampaign& campaign, int cap);

class SweepRunner final : public SweepExecutor {
 public:
  /// `threads` sizes the shared pool; 0 selects hardware concurrency. The
  /// pool is created once and reused across run()/run_batch() calls.
  explicit SweepRunner(int threads = 0);
  ~SweepRunner() override;

  SweepRunner(const SweepRunner&) = delete;
  SweepRunner& operator=(const SweepRunner&) = delete;

  int threads() const;

  std::string backend_name() const override { return "in-process"; }

  /// Called after each grid point's report is reduced, in grid order, as
  /// soon as every earlier point has settled (progress lines, also for
  /// adaptive sweeps). Cleared with nullptr.
  SweepRunner& on_point(PointCallback callback) override;

  /// Expand `spec` and run the full grid. The spec's strategy set and
  /// campaign options apply at every point.
  ExperimentReport run(const ExperimentSpec& spec) override;

  /// Run several campaigns concurrently on the shared pool; reports come
  /// back in campaign order. A failure names the first failing campaign in
  /// batch order.
  std::vector<MonteCarloReport> run_batch(std::vector<Campaign> campaigns);

 private:
  std::unique_ptr<ThreadPool> pool_;
  PointCallback on_point_;
};

}  // namespace coopcr::exp
