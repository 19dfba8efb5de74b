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
//
// InboundFrames is the read side of the boundary: one worker's bytes parsed
// into frames, with the plan's drop, truncate and delay faults applied there.

#pragma once

#include <sys/types.h>

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "dist/wire.hpp"
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

class FaultPlan;  // dist/fault_injection.hpp

/// One worker's inbound frame stream as the coordinator sees it. Frame
/// numbers count every frame parsed from the stream — frame 1 is the
/// worker's kHello — so "worker w's f-th frame" is a per-worker total
/// order, and the plan's frame faults fire on exactly that frame.
class InboundFrames {
 public:
  /// `worker` is the spawn index the plan's frame faults name.
  InboundFrames(FaultPlan& plan, int worker) : plan_(&plan), worker_(worker) {}

  /// Append raw bytes from a read().
  void feed(const std::uint8_t* data, std::size_t n) { buffer_.feed(data, n); }

  /// One poll round passed: every held frame is a round closer to release.
  void tick();

  /// The next frame to handle: a held frame whose hold has run out, else
  /// the next parsed frame no fault takes. A scripted delay holds its frame
  /// for R tick() calls and moves on to the frames behind it. A scripted
  /// drop or truncation cuts the stream — the bytes past a lost frame
  /// cannot be trusted — so next() returns nothing from then on and cut()
  /// is true. Throws coopcr::Error on an oversized length prefix.
  std::optional<Frame> next();

  bool cut() const { return cut_; }
  bool holding() const { return !held_.empty(); }

 private:
  struct Held {
    Frame frame;
    int rounds = 0;  ///< ticks left before release
  };

  FaultPlan* plan_;
  int worker_;
  FrameBuffer buffer_;
  int frames_seen_ = 0;
  std::vector<Held> held_;
  bool cut_ = false;
};

}  // namespace coopcr::dist
