// coopcr/exp/sweep_runner.hpp
//
// Grid-level parallel execution of experiment sweeps.
//
// SweepRunner expands an ExperimentSpec and schedules every
// (grid point × replica) task of the whole grid onto one shared ThreadPool —
// replicas of different grid points interleave freely, so a 7-point sweep
// does not serialise at point boundaries. Each point's campaign starts its
// next sequential-stopping round as soon as its own tasks drain, and a
// fixed-count campaign is the one-round case. Because each replica task
// writes a preassigned slot (MonteCarloCampaign) and reductions fold slots
// in replica order, reports are bit-identical for any thread count and
// identical to per-point run_monte_carlo calls.

#pragma once

#include <memory>

#include "core/monte_carlo.hpp"
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::exp {

/// Resolved sequential-stopping replica cap for `options`:
/// resolved_max_replicas() with antithetic pair parity kept.
int sequential_stopping_cap(const MonteCarloOptions& options);

/// Initial replica count of a sequential-stopping campaign: the requested
/// count clamped to the cap, so max_replicas bounds the *total* simulated
/// replicas — round one included, not just the extend rounds.
int sequential_stopping_start(const MonteCarloOptions& options);

/// The replica count a sequential-stopping round grows a campaign of
/// `replicas` to, given the widest 95% CI it has measured, or 0 when it
/// settles (`ci_width <= target` or `replicas >= cap`). The round is sized
/// from the measurement: a CI narrows as 1/sqrt(n), so the prediction P is
/// the smallest even integer >= replicas·(ci_width/target)², and the result
/// is min(cap, 2·replicas, max(replicas + 2, P)). An unattainable target
/// (or an infinite width) therefore doubles, even sizes keep antithetic
/// pair parity, and the result never shrinks as ci_width grows.
int sequential_round_size(int replicas, double ci_width, double target,
                          int cap);

/// The one sequential-stopping round decision, shared by SweepRunner and
/// dist::DistSweepRunner so the two backends can never disagree on the
/// growth schedule: reduce `campaign` and return sequential_round_size() of
/// its widest waste-ratio 95% CI (widest *contrast* CI when the paired
/// contrast is active). A campaign with fewer than two estimator units
/// (replicas, or pairs under antithetic) has no CI yet and never settles
/// below the cap. Driven by the deterministic fold alone, so the schedule
/// is bit-identical across thread counts, shard counts and resume
/// histories.
int next_sequential_round(const MonteCarloCampaign& campaign, int cap);

class SweepRunner final : public SweepExecutor {
 public:
  /// `threads` sizes the shared pool; 0 selects hardware concurrency. The
  /// pool is created once and reused across run() calls.
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
  /// campaign options apply at every point. A failure names the first
  /// failing grid point in grid order.
  ExperimentReport run(const ExperimentSpec& spec) override;

 private:
  std::unique_ptr<ThreadPool> pool_;
  PointCallback on_point_;
};

}  // namespace coopcr::exp
