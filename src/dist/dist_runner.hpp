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
// engine"): each worker holds up to two units in flight (the one it runs
// and the next, so it never waits on the journal's fdatasync); a worker
// that dies has every in-flight unit re-queued at the queue front, in
// dispatch order; with a respawn budget (max_respawns) the coordinator
// also replaces the casualty to keep the fleet at strength. A worker
// silent past heartbeat_ms with units in flight is presumed hung and
// killed (then respawned within budget). The fleet grows or shrinks
// mid-campaign via a scripted FaultPlan resize or SIGUSR1/SIGUSR2. The
// sweep only fails once no workers remain and the respawn budget is spent
// — and then the journal already holds every completed unit.
//
// Structure: run() validates, builds the campaigns, keeps the pending-unit
// queue and turns the round loop. The fleet (dist_runner.cpp) owns the
// worker processes; its grow() is the one spawn point, called at the loop's
// head. The inbound frame seam (dist/transport.hpp InboundFrames) applies
// the plan's frame faults; the journal sink (dist/journal.hpp JournalSink)
// creates, replays and appends the journal. Options: dist/dist_options.hpp.

#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "dist/dist_options.hpp"
#include "dist/fault_injection.hpp"
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"

namespace coopcr::dist {

class DistSweepRunner final : public exp::SweepExecutor {
 public:
  explicit DistSweepRunner(DistOptions options);

  std::string backend_name() const override { return "dist"; }

  /// Called after each grid point's report is reduced, in grid order —
  /// same contract as exp::SweepRunner::on_point. Sequential stopping
  /// (target_ci_width) runs inside run(): the coordinator grows every point
  /// in journaled rounds sized by exp::next_sequential_round. Drivers that
  /// pick their next grids from earlier results, like Figure 3's
  /// bisection, call run() once per grid; each call spawns its own fleet.
  DistSweepRunner& on_point(PointCallback callback) override;

  /// Expand `spec` and run the full grid across the worker fleet. Throws
  /// coopcr::Error on journal/digest mismatches, when every worker died
  /// with units outstanding and no respawn budget remains, and when
  /// outstanding units are neither queued nor in flight (a coordinator
  /// bug that would otherwise wait forever).
  exp::ExperimentReport run(const exp::ExperimentSpec& spec) override;

 private:
  DistOptions options_;
  PointCallback on_point_;
};

}  // namespace coopcr::dist
