// coopcr/exp/executor.hpp
//
// The backend-neutral sweep execution interface.
//
// SweepExecutor is the one contract every sweep engine implements:
// `run(spec) -> ExperimentReport` with grid-order point callbacks.
// Adaptive drivers that pick their next grids from earlier results (the
// spec registry's Figure 3 bisection) call run() once per grid. Two
// backends ship with the repo — exp::SweepRunner (shared thread pool,
// in-process) and dist::DistSweepRunner (multi-process shard workers with a
// durable journal) — and both produce byte-identical reports for the same
// spec, so callers select an engine by *options*, never by concrete type —
// the shard count picks it (0 in-process, N > 0 worker processes):
//
//   exp::ExecutorOptions options;
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

/// Each engine's knobs; dist.shards selects the engine, and the knobs of
/// the engine not selected are ignored.
struct ExecutorOptions {
  ExecutorOptions() { dist.shards = 0; }

  /// In-process: thread-pool size; 0 selects hardware concurrency.
  int threads = 0;

  /// Dist: shard count, journal, resume, worker command, respawn budget,
  /// heartbeat and fault plan (dist/dist_options.hpp). shards == 0 (the
  /// default here) runs in-process instead.
  dist::DistOptions dist;
};

/// Build the engine behind the SweepExecutor interface: exp::SweepRunner
/// when dist.shards == 0, dist::DistSweepRunner otherwise.
std::unique_ptr<SweepExecutor> make_sweep_executor(
    const ExecutorOptions& options = {});

}  // namespace coopcr::exp
