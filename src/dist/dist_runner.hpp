// coopcr/dist/dist_runner.hpp
//
// Multi-process sweep execution behind the exp::SweepExecutor interface:
// the coordinator half of the dist/ subsystem.
//
// DistSweepRunner expands an ExperimentSpec exactly like SweepRunner, but
// instead of scheduling (grid point × replica) tasks on a thread pool it
// shards them across a fleet of worker *processes* (fork of the current
// process by default, or fork+exec of a driver command) that pull units
// over the dist/wire.hpp protocol on a pair of pipes each (launched by
// dist/transport.hpp's spawn_worker). Dynamic pull is built-in work
// stealing: a fast worker simply asks for more. Completed units are
// appended to a crash-safe campaign journal (dist/journal.hpp), so a
// SIGKILLed sweep resumes by replaying the journal and dispatching only
// the missing units.
//
// Determinism contract, extending the thread-invariance guarantee to
// processes and crashes: every unit writes a preassigned
// MonteCarloCampaign slot whose metrics are finished doubles, slots cross
// the wire and the journal bit-exactly, and reduction folds slots in
// (point, replica) order after all units complete. Reports are therefore
// byte-identical (CSV and JSON) across 1 thread-pool run, any shard count,
// any kill/respawn/resize history, and any resume point — pinned by
// tests/dist/test_dist_runner.cpp and universally quantified over
// scripted fault schedules by tests/dist/test_fault_soak.cpp.
//
// Fault model (docs/ARCHITECTURE.md "Failure model of the campaign
// engine"): a worker that dies mid-unit has its in-flight unit re-queued;
// with a respawn budget (max_respawns) the coordinator also replaces the
// casualty to keep the fleet at strength. A worker silent past
// heartbeat_ms with a unit in flight is presumed hung and killed (then
// respawned within budget). The fleet grows or shrinks mid-campaign via a
// scripted FaultPlan resize or SIGUSR1/SIGUSR2. The sweep only fails once
// no workers remain and the respawn budget is spent — and then the journal
// already holds every completed unit.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/fault_injection.hpp"
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::dist {

/// Execution options for a distributed sweep.
struct DistOptions {
  /// Worker process count. COOPCR_SHARDS is the conventional env knob
  /// (cli/coopcr_sweep.cpp); at most one worker per pending unit is
  /// actually spawned.
  int shards = 2;

  /// Campaign journal path; empty disables journaling (the sweep is then
  /// not resumable). A fresh run refuses to overwrite an existing journal;
  /// set `resume` to continue it instead.
  std::string journal;

  /// Replay `journal` before dispatching: completed units are installed
  /// from the journal and only the missing ones run. The journal header
  /// must match this spec's digest, dimensions and code version.
  bool resume = false;

  /// Worker launch command (fork+exec). Empty forks the current process —
  /// the worker inherits the spec, which is why specs never need
  /// serialising. When set, the command must start a process that rebuilds
  /// the same spec and calls worker_serve on kWorkerInFd/kWorkerOutFd
  /// (coopcr_sweep --worker does); the coordinator verifies the worker's
  /// digest before dispatching. Stall directives ride along as
  /// "--stall <n>:<ms>" flags.
  std::vector<std::string> worker_command;

  /// Respawn budget: how many replacement workers may be spawned over the
  /// whole run to keep the fleet at target strength after deaths
  /// (including heartbeat kills and fault-plan casualties). 0 keeps the
  /// historical requeue-to-survivors behaviour.
  int max_respawns = 0;

  /// > 0: a worker with a unit in flight that has been silent this many
  /// milliseconds is presumed hung, SIGKILLed, and its unit re-queued
  /// (respawning within budget). 0 disables the deadline.
  int heartbeat_ms = 0;

  /// Scripted fault injection (see dist/fault_injection.hpp): worker kills,
  /// stalls, frame faults, journal damage, interrupts and elastic resizes.
  /// A resize grows the fleet by spawning at once and shrinks it by
  /// draining busy workers (their in-flight unit completes first);
  /// SIGUSR1/SIGUSR2 adjust the fleet by ±1 at run time on top of it. The
  /// hook seam is always compiled in and inert when the plan is null or
  /// empty. Held by shared_ptr so fired single-shot actions stay fired
  /// across a resume retry loop — the soak's core trick.
  std::shared_ptr<FaultPlan> fault_plan;
};

class DistSweepRunner final : public exp::SweepExecutor {
 public:
  explicit DistSweepRunner(DistOptions options);

  std::string backend_name() const override { return "dist"; }

  /// Called after each grid point's report is reduced, in grid order —
  /// same contract as exp::SweepRunner::on_point. Sequential stopping
  /// (target_ci_width) runs inside run(): the coordinator grows every point
  /// in journaled doubling rounds. run_batch stays unsupported
  /// (supports_run_batch() is false), so drivers that pick their next
  /// campaigns from earlier results, like fig3's bisection, run in-process.
  DistSweepRunner& on_point(PointCallback callback) override;

  /// Expand `spec` and run the full grid across the worker fleet. Throws
  /// coopcr::Error on journal/digest mismatches, when every worker died
  /// with units outstanding and no respawn budget remains, or when the
  /// spec requests keep_results (full SimulationResults never cross the
  /// process boundary).
  exp::ExperimentReport run(const exp::ExperimentSpec& spec) override;

 private:
  DistOptions options_;
  PointCallback on_point_;
};

}  // namespace coopcr::dist
