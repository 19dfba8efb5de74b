// coopcr/exp/executor.hpp
//
// The backend-neutral sweep execution interface.
//
// SweepExecutor is the one contract every sweep engine implements:
// `run(spec) -> ExperimentReport` with grid-order point callbacks.
// Adaptive drivers that pick their next campaigns from earlier results
// (fig3's lockstep bisection) call exp::SweepRunner::run_batch directly.
// Two backends ship with the repo — exp::SweepRunner (shared thread pool,
// in-process) and dist::DistSweepRunner (multi-process shard workers with a
// durable journal) — and both produce byte-identical reports for the same
// spec, so callers select an engine by *options*, never by concrete type:
//
//   exp::ExecutorOptions options;
//   options.backend = exp::ExecutorBackend::kDist;
//   options.dist.shards = 4;
//   auto executor = exp::make_sweep_executor(options);
//   exp::ExperimentReport report = executor->run(spec);
//
// cli/coopcr_sweep and the serve/ advisor's on-demand fallback campaigns
// are both built on this interface.

#pragma once

#include <memory>
#include <string>

#include "core/monte_carlo.hpp"
#include "dist/dist_options.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::exp {

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
};

/// Which sweep engine make_sweep_executor builds.
enum class ExecutorBackend {
  kInProcess,  ///< exp::SweepRunner on a shared thread pool
  kDist,       ///< dist::DistSweepRunner across worker processes
};

/// Parse a backend name ("inprocess", "in-process", "dist"); throws
/// coopcr::Error on anything else, naming the value.
ExecutorBackend executor_backend_from_name(const std::string& name);

/// Backend selection plus each engine's knobs. The knobs of the backend
/// that is not selected are ignored.
struct ExecutorOptions {
  ExecutorBackend backend = ExecutorBackend::kInProcess;

  /// In-process: thread-pool size; 0 selects hardware concurrency.
  int threads = 0;

  /// Dist: shard count, journal, resume, worker command, respawn budget,
  /// heartbeat and fault plan (dist/dist_options.hpp).
  dist::DistOptions dist;
};

/// Build the selected engine behind the SweepExecutor interface.
std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options = {});

}  // namespace coopcr::exp
