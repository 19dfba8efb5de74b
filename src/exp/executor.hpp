// coopcr/exp/executor.hpp
//
// The backend-neutral sweep execution interface.
//
// SweepExecutor is the one contract every sweep engine implements:
// `run(spec) -> ExperimentReport`, plus an optional `run_batch` capability
// for adaptive drivers (fig3's lockstep bisection, sequential stopping).
// Two backends ship with the repo — exp::SweepRunner (shared thread pool,
// in-process) and dist::DistSweepRunner (multi-process shard workers with a
// durable journal) — and both produce byte-identical reports for the same
// spec, so callers select an engine by *options*, never by concrete type:
//
//   exp::ExecutorOptions options;
//   options.backend = exp::ExecutorBackend::kDist;
//   options.shards = 4;
//   auto executor = exp::make_sweep_executor(options);
//   exp::ExperimentReport report = executor->run(spec);
//
// cli/coopcr_sweep and the serve/ advisor's on-demand fallback campaigns
// are both built on this interface.

#pragma once

#include <memory>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::dist {
class FaultPlan;  // dist/fault_injection.hpp — kept out of this header
}  // namespace coopcr::dist

namespace coopcr::exp {

/// One unit of sweep work: a Monte Carlo campaign (scenario × strategy set).
struct Campaign {
  ScenarioConfig scenario;
  std::vector<Strategy> strategies;
  MonteCarloOptions options;  ///< `threads` is ignored — the engine governs
};

/// Abstract sweep engine. Implementations must honour the determinism
/// contract: for the same expanded spec, reports are bit-identical across
/// backends, thread counts, shard counts and resume histories.
class SweepExecutor {
 public:
  virtual ~SweepExecutor() = default;

  /// Stable backend identifier, e.g. "in-process" or "dist".
  virtual std::string backend_name() const = 0;

  /// Expand `spec` and run the full grid.
  virtual ExperimentReport run(const ExperimentSpec& spec) = 0;

  /// Called after each grid point's report is reduced, in grid order.
  /// Cleared with nullptr.
  using PointCallback =
      std::function<void(const GridPoint&, const MonteCarloReport&)>;
  virtual SweepExecutor& on_point(PointCallback callback) = 0;

  /// True when run_batch() is implemented — adaptive drivers whose next
  /// grid is data-dependent need it; plain grid sweeps do not.
  virtual bool supports_run_batch() const { return false; }

  /// Run several campaigns concurrently; reports come back in campaign
  /// order. The default implementation throws coopcr::Error naming the
  /// backend — check supports_run_batch() first.
  virtual std::vector<MonteCarloReport> run_batch(
      std::vector<Campaign> campaigns);
};

/// Which sweep engine make_sweep_executor builds.
enum class ExecutorBackend {
  kInProcess,  ///< exp::SweepRunner on a shared thread pool
  kDist,       ///< dist::DistSweepRunner across worker processes
};

/// Parse a backend name ("inprocess", "in-process", "dist"); throws
/// coopcr::Error on anything else, naming the value.
ExecutorBackend executor_backend_from_name(const std::string& name);

/// Backend selection plus the union of both engines' knobs. Fields that do
/// not apply to the selected backend are ignored.
struct ExecutorOptions {
  ExecutorBackend backend = ExecutorBackend::kInProcess;

  /// In-process: thread-pool size; 0 selects hardware concurrency.
  int threads = 0;

  /// Dist: worker process count.
  int shards = 2;
  /// Dist: campaign journal path; empty disables journaling.
  std::string journal;
  /// Dist: replay `journal`, run only the missing units.
  bool resume = false;
  /// Dist: fork+exec worker launch command; empty forks the coordinator.
  std::vector<std::string> worker_command;

  /// Dist: respawn budget for replacing dead workers mid-campaign.
  int max_respawns = 0;
  /// Dist: silent-worker deadline in milliseconds; 0 disables.
  int heartbeat_ms = 0;
  /// Dist: scripted fault plan (dist::FaultPlan) — kills, stalls and
  /// elastic resizes among its actions. Held as shared_ptr so
  /// single-shot fault actions stay fired across a resume retry loop; the
  /// CLI builds it from --fault-plan / COOPCR_FAULT_PLAN.
  std::shared_ptr<dist::FaultPlan> fault_plan;
};

/// Build the selected engine behind the SweepExecutor interface.
std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options = {});

}  // namespace coopcr::exp
