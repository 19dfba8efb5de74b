// coopcr/dist/dist_options.hpp
//
// The knobs of a distributed sweep, defined once: dist::DistSweepRunner
// takes them directly and exp::ExecutorOptions carries them as its `dist`
// member, so the executor factory hands them over whole.

#pragma once

#include <memory>
#include <string>
#include <vector>

namespace coopcr::dist {

class FaultPlan;  // dist/fault_injection.hpp

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

  /// > 0: a worker with units in flight (it holds up to two) that has been
  /// silent this many milliseconds is presumed hung, SIGKILLed, and its
  /// units re-queued (respawning within budget). 0 disables the deadline.
  int heartbeat_ms = 0;

  /// Scripted fault injection (see dist/fault_injection.hpp): worker kills,
  /// stalls, frame faults, journal damage, interrupts and elastic resizes;
  /// inert when null or empty. Held by shared_ptr so fired single-shot
  /// actions stay fired across a resume retry loop — the soak's core trick.
  /// The CLI builds it from --fault-plan / COOPCR_FAULT_PLAN.
  std::shared_ptr<FaultPlan> fault_plan;
};

}  // namespace coopcr::dist
