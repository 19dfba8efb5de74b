#include "dist/transport.hpp"

#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

#include "dist/fault_injection.hpp"
#include "dist/wire.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

namespace {

/// One worker communication channel (two pipes), before the fork splits it.
struct Channel {
  int parent_to = -1;    ///< coordinator keeps: write units here
  int parent_from = -1;  ///< coordinator keeps: read results here
  int child_in = -1;     ///< child keeps: worker_serve's in_fd
  int child_out = -1;    ///< child keeps: worker_serve's out_fd
};

Channel open_channel() {
  int to_child[2];
  int from_child[2];
  COOPCR_CHECK(::pipe(to_child) == 0 && ::pipe(from_child) == 0,
               std::string("pipe failed: ") + std::strerror(errno));
  Channel ch;
  ch.parent_to = to_child[1];
  ch.child_in = to_child[0];
  ch.child_out = from_child[1];
  ch.parent_from = from_child[0];
  return ch;
}

void close_child_side(const Channel& ch) {
  ::close(ch.child_in);
  ::close(ch.child_out);
}

void close_parent_side(const Channel& ch) {
  ::close(ch.parent_to);
  ::close(ch.parent_from);
}

[[noreturn]] void child_serve_fork(const WorkerLaunch& launch,
                                   const Channel& ch) {
  close_parent_side(ch);
  for (int fd : launch.extra_close) {
    if (fd >= 0) ::close(fd);
  }
  try {
    worker_serve(*launch.spec, ch.child_in, ch.child_out, launch.directives);
    ::_exit(0);
  } catch (const std::exception& e) {
    // _exit (not exit): the child shares the coordinator's memory image and
    // must not run its atexit handlers or flush its stdio copies.
    const std::string msg =
        std::string("coopcr worker failed: ") + e.what() + "\n";
    (void)!::write(STDERR_FILENO, msg.data(), msg.size());
    ::_exit(1);
  } catch (...) {
    ::_exit(1);
  }
}

[[noreturn]] void child_exec(const WorkerLaunch& launch, const Channel& ch) {
  close_parent_side(ch);
  // Move the child's ends off the target descriptors before landing them
  // there, in case a channel fd already equals kWorkerInFd/kWorkerOutFd.
  int in = ch.child_in;
  int out = ch.child_out;
  while (in == kWorkerInFd || in == kWorkerOutFd) in = ::dup(in);
  while (out == kWorkerInFd || out == kWorkerOutFd) out = ::dup(out);
  if (::dup2(in, kWorkerInFd) < 0 || ::dup2(out, kWorkerOutFd) < 0) {
    ::_exit(127);
  }
  std::vector<char*> argv;
  argv.reserve(launch.command.size() + 1);
  for (const std::string& arg : launch.command) {
    argv.push_back(const_cast<char*>(arg.c_str()));
  }
  argv.push_back(nullptr);
  ::execvp(argv[0], argv.data());
  const std::string msg = std::string("coopcr worker exec failed: ") +
                          launch.command[0] + ": " + std::strerror(errno) +
                          "\n";
  (void)!::write(STDERR_FILENO, msg.data(), msg.size());
  ::_exit(127);
}

}  // namespace

WorkerEndpoint spawn_worker(const WorkerLaunch& launch) {
  COOPCR_CHECK(!launch.command.empty() || launch.spec != nullptr,
               "worker launch needs a spec (fork) or a command (exec)");
  const Channel ch = open_channel();
  const pid_t pid = ::fork();
  COOPCR_CHECK(pid >= 0, std::string("fork failed: ") + std::strerror(errno));
  if (pid == 0) {
    if (launch.command.empty()) {
      child_serve_fork(launch, ch);
    } else {
      child_exec(launch, ch);
    }
  }
  close_child_side(ch);
  WorkerEndpoint endpoint;
  endpoint.pid = pid;
  endpoint.to_fd = ch.parent_to;
  endpoint.from_fd = ch.parent_from;
  return endpoint;
}

void InboundFrames::tick() {
  for (Held& held : held_) --held.rounds;
}

std::optional<Frame> InboundFrames::next() {
  if (cut_) return std::nullopt;
  for (auto it = held_.begin(); it != held_.end(); ++it) {
    if (it->rounds > 0) continue;
    Frame frame = std::move(it->frame);
    held_.erase(it);
    return frame;
  }
  while (std::optional<Frame> frame = buffer_.next()) {
    const FaultAction fault = plan_->take_frame_fault(worker_, ++frames_seen_);
    if (!fault.fired) return frame;
    if (fault.kind == FaultKind::kDelayFrame) {
      held_.push_back(Held{std::move(*frame), fault.delay_rounds});
      continue;
    }
    // Drop or truncate: either way the frame is lost and the stream past
    // it is out of step.
    cut_ = true;
    return std::nullopt;
  }
  return std::nullopt;
}

}  // namespace coopcr::dist
