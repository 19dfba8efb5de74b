// coopcr/dist/transport.hpp
//
// Worker launch: how the coordinator's byte stream reaches a worker process.
//
// The wire protocol (dist/wire.hpp) only needs two file descriptors — one
// the coordinator writes kUnit/kShutdown into, one it reads kHello/kResult
// from — and exec-mode workers always serve on the fixed
// kWorkerInFd/kWorkerOutFd descriptors. Every worker channel is a pair of
// unidirectional pipes; a future ssh/srun launcher is itself a fork+exec'd
// child whose stdin and stdout are already two pipes, so spawn_worker stays
// the one launch seam. It absorbs the fork and fork+exec launch paths so
// DistSweepRunner never touches pipe(), fork() or dup2() directly.

#pragma once

#include <sys/types.h>

#include <string>
#include <vector>

#include "dist/worker.hpp"
#include "exp/experiment.hpp"

namespace coopcr::dist {

/// How to launch one worker. `command` empty forks the current process
/// (the spec is inherited in memory and `directives` apply directly);
/// non-empty fork+execs the command with its pipe ends landed on
/// kWorkerInFd/kWorkerOutFd — the caller encodes directives as command
/// flags in that case.
struct WorkerLaunch {
  const exp::ExperimentSpec* spec = nullptr;  ///< fork mode (required)
  WorkerDirectives directives;                ///< fork mode only
  std::vector<std::string> command;           ///< exec mode when non-empty
  /// Coordinator-side fds a forked child must close (the journal, other
  /// workers' channel ends) — a child keeping a dead sibling's pipe alive
  /// would mask its EOF.
  std::vector<int> extra_close;
};

/// Coordinator-side endpoint of a launched worker: two distinct pipe fds.
struct WorkerEndpoint {
  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator → worker
  int from_fd = -1;  ///< worker → coordinator
};

/// Launch one worker process over a fresh pair of pipes. Throws
/// coopcr::Error when the pipe, fork or exec setup fails.
WorkerEndpoint spawn_worker(const WorkerLaunch& launch);

}  // namespace coopcr::dist
