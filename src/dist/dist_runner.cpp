#include "dist/dist_runner.hpp"

#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <deque>
#include <filesystem>
#include <memory>
#include <optional>
#include <utility>
#include <vector>

#include "dist/journal.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_runner.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

namespace {

using Clock = std::chrono::steady_clock;
using Campaigns = std::vector<std::unique_ptr<MonteCarloCampaign>>;

/// Units a worker holds at once: the one it runs and the one it reads
/// next, so it never waits on the coordinator's journal fdatasync.
constexpr std::size_t kUnitsInFlight = 2;

/// Coordinator-side view of one worker process.
struct Worker {
  Worker(const WorkerEndpoint& endpoint, InboundFrames frames)
      : pid(endpoint.pid),
        to_fd(endpoint.to_fd),
        from_fd(endpoint.from_fd),
        inbound(std::move(frames)) {}

  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator → worker (kUnit / kShutdown)
  int from_fd = -1;  ///< worker → coordinator (kHello / kResult)
  bool alive = true;
  bool hello_ok = false;  ///< digest verified, may receive units
  bool draining = false;  ///< shrinking: finish the in-flight units, then retire
  /// Dispatched, result not yet seen, in dispatch order; at most
  /// kUnitsInFlight.
  std::vector<UnitMsg> inflight;
  InboundFrames inbound;  ///< from_fd's frames, faults applied
  Clock::time_point last_heard = Clock::now();
};

int elapsed_ms_since(Clock::time_point then) {
  const auto elapsed = Clock::now() - then;
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
}

// SIGUSR1 grows the fleet by one, SIGUSR2 shrinks it by one. The handlers
// only bump counters; the round loop turns the deltas into a new target.
volatile std::sig_atomic_t g_grow_signals = 0;
volatile std::sig_atomic_t g_shrink_signals = 0;

void on_grow_signal(int) { g_grow_signals = g_grow_signals + 1; }
void on_shrink_signal(int) { g_shrink_signals = g_shrink_signals + 1; }

/// The worker processes of one run: spawn, dispatch, kill, retire, the
/// respawn budget, resizes and the heartbeat deadline. grow() is the one
/// spawn point; a death, a resize or a signal only moves the target or a
/// worker's state, and the round loop calls grow() at its head, where no
/// walk over the workers is live. The constructor ignores SIGPIPE (a write
/// to a dead worker must fail, not kill the coordinator) and installs the
/// resize signal handlers without SA_RESTART, so a signal wakes the poll;
/// the destructor restores them and SIGKILLs and reaps every live worker,
/// so an exception never leaks processes or fds.
class Fleet {
 public:
  Fleet(const DistOptions& options, const exp::ExperimentSpec& spec,
        FaultPlan& plan, int journal_fd, std::deque<UnitMsg>& pending)
      : options_(options),
        spec_(spec),
        plan_(plan),
        journal_fd_(journal_fd),
        pending_(pending),
        target_(options.shards),
        respawns_left_(options.max_respawns),
        grow_signals_seen_(g_grow_signals),
        shrink_signals_seen_(g_shrink_signals) {
    ::signal(SIGPIPE, SIG_IGN);
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    ::sigemptyset(&sa.sa_mask);
    sa.sa_handler = on_grow_signal;
    ::sigaction(SIGUSR1, &sa, &old_grow_);
    sa.sa_handler = on_shrink_signal;
    ::sigaction(SIGUSR2, &sa, &old_shrink_);
  }

  ~Fleet() {
    ::sigaction(SIGUSR1, &old_grow_, nullptr);
    ::sigaction(SIGUSR2, &old_shrink_, nullptr);
    for (Worker& w : workers_) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      reap(w);
    }
  }

  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  std::vector<Worker>& workers() { return workers_; }

  /// Spawn toward the target, but never a worker that could not be handed
  /// a queued unit. A spawn that replaces a casualty is charged to the
  /// respawn budget and waits once the budget is spent; others are free.
  void grow() {
    while (active() < target_ && idle() < static_cast<int>(pending_.size())) {
      if (casualties_ > 0) {
        if (respawns_left_ == 0) return;
        --respawns_left_;
        --casualties_;
      }
      spawn();
    }
  }

  /// Set the target to `shards` (at least 1). A shrink retires idle workers
  /// first, then marks busy ones draining: their in-flight units complete
  /// and ship before they exit, so no work is lost. A grow waits for the
  /// next grow(). The new target is reached without charge: casualties
  /// from before the resize no longer draw on the respawn budget.
  void resize(int shards) {
    target_ = std::max(1, shards);
    casualties_ = 0;
    int excess = active() - target_;
    for (Worker& w : workers_) {
      if (excess > 0 && w.alive && !w.draining && w.inflight.empty()) {
        retire(w);
        --excess;
      }
    }
    for (Worker& w : workers_) {
      if (excess > 0 && w.alive && !w.draining) {
        w.draining = true;
        --excess;
      }
    }
  }

  /// Resize by the SIGUSR1/SIGUSR2 count that arrived since the last call.
  void apply_resize_signals() {
    const int grow = g_grow_signals;
    const int shrink = g_shrink_signals;
    const int delta =
        (grow - grow_signals_seen_) - (shrink - shrink_signals_seen_);
    grow_signals_seen_ = grow;
    shrink_signals_seen_ = shrink;
    if (delta != 0) resize(target_ + delta);
  }

  /// Kill every worker that has held units in flight, silent, past the
  /// heartbeat deadline — presumed hung; its units re-run elsewhere to the
  /// same bits.
  void kill_hung() {
    if (options_.heartbeat_ms <= 0) return;
    for (Worker& w : workers_) {
      if (w.alive && !w.inflight.empty() &&
          elapsed_ms_since(w.last_heard) > options_.heartbeat_ms) {
        kill(w);
      }
    }
  }

  /// Top `w` up to kUnitsInFlight pending units — or, once a draining
  /// worker's last unit has landed, retire it. A draining worker gets no
  /// new units.
  void dispatch(Worker& w) {
    if (!w.alive || !w.hello_ok) return;
    if (w.draining) {
      if (w.inflight.empty()) retire(w);
      return;
    }
    while (w.inflight.size() < kUnitsInFlight && !pending_.empty()) {
      w.inflight.push_back(pending_.front());
      pending_.pop_front();
      try {
        write_frame(w.to_fd, MsgType::kUnit, encode_unit(w.inflight.back()));
        w.last_heard = Clock::now();
      } catch (const Error&) {
        kill(w);  // a broken pipe: the worker is gone, its units go back
        return;
      }
    }
  }

  void dispatch_all() {
    for (Worker& w : workers_) {
      if (pending_.empty()) return;
      dispatch(w);
    }
  }

  /// SIGKILL and reap `w` and put its in-flight units back at the front of
  /// the queue, in dispatch order. Its held frames die with it: a dead
  /// worker's stream is never read again.
  void kill(Worker& w) {
    if (w.pid > 0) ::kill(w.pid, SIGKILL);
    reap(w);
    if (!w.draining) ++casualties_;
    pending_.insert(pending_.begin(), w.inflight.begin(), w.inflight.end());
    w.inflight.clear();
  }

  /// Graceful shutdown: kShutdown, then reap.
  void retire(Worker& w) {
    try {
      write_frame(w.to_fd, MsgType::kShutdown, {});
    } catch (const Error&) {
      // Already gone; reap below.
    }
    reap(w);
  }

  void retire_all() {
    for (Worker& w : workers_) {
      if (w.alive) retire(w);
    }
  }

  /// 1 ms while any frame is held (held frames age one round per wakeup),
  /// else until the nearest heartbeat deadline, else -1 (no timeout).
  int poll_timeout() const {
    int timeout = -1;
    for (const Worker& w : workers_) {
      if (!w.alive) continue;
      if (w.inbound.holding()) return 1;
      if (options_.heartbeat_ms > 0 && !w.inflight.empty()) {
        const int remaining =
            options_.heartbeat_ms - elapsed_ms_since(w.last_heard);
        const int t = std::max(1, remaining + 1);
        timeout = timeout < 0 ? t : std::min(timeout, t);
      }
    }
    return timeout;
  }

 private:
  int active() const {  // alive and not draining
    int n = 0;
    for (const Worker& w : workers_) n += w.alive && !w.draining;
    return n;
  }

  int idle() const {  // active with no unit in flight
    int n = 0;
    for (const Worker& w : workers_) {
      n += w.alive && !w.draining && w.inflight.empty();
    }
    return n;
  }

  void spawn() {
    const int index = static_cast<int>(workers_.size());
    WorkerLaunch launch;
    for (const FaultAction& stall : plan_.take_stalls(index)) {
      launch.directives.stalls.push_back(
          WorkerDirectives::Stall{stall.after_units, stall.stall_ms});
    }
    if (options_.worker_command.empty()) {
      launch.spec = &spec_;
      if (journal_fd_ >= 0) launch.extra_close.push_back(journal_fd_);
      for (const Worker& w : workers_) {
        launch.extra_close.push_back(w.to_fd);
        launch.extra_close.push_back(w.from_fd);
      }
    } else {
      launch.command = options_.worker_command;
      for (const WorkerDirectives::Stall& stall : launch.directives.stalls) {
        launch.command.push_back("--stall");
        launch.command.push_back(std::to_string(stall.before_result) + ":" +
                                 std::to_string(stall.ms));
      }
    }
    workers_.emplace_back(spawn_worker(launch), InboundFrames(plan_, index));
  }

  static void reap(Worker& w) {
    if (w.pid > 0) {
      int status = 0;
      while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
      }
      w.pid = -1;
    }
    w.alive = false;
    for (int* fd : {&w.to_fd, &w.from_fd}) {
      if (*fd >= 0) ::close(*fd);
      *fd = -1;
    }
  }

  const DistOptions& options_;
  const exp::ExperimentSpec& spec_;
  FaultPlan& plan_;
  int journal_fd_;
  std::deque<UnitMsg>& pending_;
  std::vector<Worker> workers_;
  int target_;
  int respawns_left_;
  int casualties_ = 0;  ///< deaths not yet replaced
  int grow_signals_seen_;
  int shrink_signals_seen_;
  struct sigaction old_grow_;
  struct sigaction old_shrink_;
};

/// Where results land: the campaigns and the journal, plus the counts that
/// end a round and trigger the plan's unit faults.
struct Intake {
  Campaigns& campaigns;
  JournalSink& journal;
  FaultPlan& plan;
  std::uint64_t spec_digest;
  std::size_t outstanding = 0;  ///< units of the current round still to land
  int fresh_results = 0;        ///< results landed in this run
};

/// Queue every unit of the campaigns' current sizes that has not run, in
/// (point, replica) order, and return the count. Dispatch order does not
/// matter for the results (slots are preassigned), only for load balance;
/// slot_done is the authoritative "already ran" record, so a refill at a
/// round boundary can never duplicate a unit.
std::size_t refill_pending(const Campaigns& campaigns,
                           std::deque<UnitMsg>& pending) {
  pending.clear();
  for (std::size_t p = 0; p < campaigns.size(); ++p) {
    for (int r = 0; r < campaigns[p]->tasks(); ++r) {
      if (!campaigns[p]->slot_done(r)) {
        pending.push_back(UnitMsg{static_cast<std::uint32_t>(p),
                                  static_cast<std::uint32_t>(r)});
      }
    }
  }
  return pending.size();
}

/// Fire every unit-triggered fault due at the current fresh-result count.
/// Journal tear/flip and interrupts abort the run (the Fleet cleans up);
/// the journal then drives the resume.
void fire_due_faults(Fleet& fleet, Intake& intake) {
  const int fresh = intake.fresh_results;
  for (const FaultAction& action : intake.plan.take_due(fresh)) {
    switch (action.kind) {
      case FaultKind::kKillWorker:
        // SIGKILL only — the death surfaces through the poll loop as an
        // EOF, exercising the same path a real crash takes.
        if (action.worker < static_cast<int>(fleet.workers().size())) {
          const Worker& target = fleet.workers()[action.worker];
          if (target.alive && target.pid > 0) ::kill(target.pid, SIGKILL);
        }
        break;
      case FaultKind::kResize:
        fleet.resize(action.shards);
        break;
      case FaultKind::kTearJournal:
        intake.journal.tear(action.tear_bytes);
        COOPCR_CHECK(false, "fault injection: journal torn after " +
                                std::to_string(fresh) +
                                " units — resume from the journal");
      case FaultKind::kFlipJournalByte:
        intake.journal.flip(action.offset);
        COOPCR_CHECK(false, "fault injection: journal byte " +
                                std::to_string(action.offset) +
                                " flipped after " + std::to_string(fresh) +
                                " units");
      case FaultKind::kInterrupt:
        COOPCR_CHECK(false, "sweep interrupted after " + std::to_string(fresh) +
                                " units (fault plan) — resume from the "
                                "journal");
      default:
        break;
    }
  }
}

void handle_frame(Fleet& fleet, Intake& intake, Worker& w,
                  const Frame& frame) {
  if (frame.type == MsgType::kHello) {
    COOPCR_CHECK(!w.hello_ok, "worker sent a second kHello");
    validate_hello(decode_hello(frame.payload), intake.spec_digest);
    w.hello_ok = true;
    fleet.dispatch(w);
    return;
  }
  COOPCR_CHECK(frame.type == MsgType::kResult,
               "coordinator expected kResult, got frame type " +
                   std::to_string(static_cast<int>(frame.type)));
  ResultMsg result = decode_result(frame.payload);
  // Any of the worker's units may land: a delayed frame can be overtaken by
  // the result behind it.
  const auto landed = std::find_if(
      w.inflight.begin(), w.inflight.end(), [&](const UnitMsg& unit) {
        return unit.point == result.point && unit.replica == result.replica;
      });
  COOPCR_CHECK(landed != w.inflight.end(),
               "worker returned a result for unit (point " +
                   std::to_string(result.point) + ", replica " +
                   std::to_string(result.replica) +
                   ") that is not in flight on it");
  w.inflight.erase(landed);
  // Top the worker up before the fdatasync below, so it computes while the
  // coordinator waits on the disk. The slot is installed only once its
  // record is durable.
  fleet.dispatch(w);
  intake.journal.append_unit(result.point, result.replica, result.slot);
  intake.campaigns[result.point]->install_slot(
      static_cast<int>(result.replica), std::move(result.slot));
  --intake.outstanding;
  ++intake.fresh_results;
  fire_due_faults(fleet, intake);
}

std::string all_dead_message(const Intake& intake,
                             const DistOptions& options) {
  std::string what = "all workers died with " +
                     std::to_string(intake.outstanding) + " units outstanding";
  if (options.max_respawns > 0) what += " (respawn budget exhausted)";
  if (intake.journal.enabled()) {
    what += " — completed units are journaled, resume to continue";
  }
  return what;
}

/// Wait once for worker output and handle everything it completes: feed
/// each ready stream, age every stream's held frames by one round, handle
/// each frame the stream gives up, and kill a worker whose stream ended or
/// was cut. Complete frames are handled before the death: a result the
/// worker managed to send before dying must count before its death
/// requeues anything.
void poll_round(Fleet& fleet, Intake& intake, const DistOptions& options) {
  std::vector<Worker>& workers = fleet.workers();
  // One pollfd per worker: poll() skips a dead worker's fd of -1.
  std::vector<struct pollfd> fds;
  for (const Worker& w : workers) fds.push_back(pollfd{w.from_fd, POLLIN, 0});
  const bool any_alive = std::any_of(workers.begin(), workers.end(),
                                     [](const Worker& w) { return w.alive; });
  COOPCR_CHECK(any_alive, all_dead_message(intake, options));
  if (::poll(fds.data(), fds.size(), fleet.poll_timeout()) < 0) {
    if (errno == EINTR) return;
    COOPCR_CHECK(false, std::string("poll failed: ") + std::strerror(errno));
  }
  for (std::size_t i = 0; i < fds.size(); ++i) {
    Worker& w = workers[i];
    if (!w.alive) continue;  // dead, or retired by an earlier frame
    bool ended = false;
    if (fds[i].revents & (POLLIN | POLLHUP | POLLERR)) {
      std::uint8_t chunk[4096];
      const ssize_t n = ::read(w.from_fd, chunk, sizeof(chunk));
      if (n > 0) {
        w.inbound.feed(chunk, static_cast<std::size_t>(n));
        w.last_heard = Clock::now();
      }
      ended = n == 0 || (n < 0 && errno != EINTR);
    }
    w.inbound.tick();
    while (w.alive) {
      std::optional<Frame> frame = w.inbound.next();
      if (!frame) break;
      handle_frame(fleet, intake, w, *frame);
    }
    if (w.alive && (ended || w.inbound.cut())) fleet.kill(w);
  }
}

}  // namespace

DistSweepRunner::DistSweepRunner(DistOptions options)
    : options_(std::move(options)) {
  COOPCR_CHECK(options_.shards >= 1, "dist sweep needs at least 1 shard, got " +
                                         std::to_string(options_.shards));
  COOPCR_CHECK(options_.max_respawns >= 0,
               "--respawn/COOPCR_RESPAWN must be >= 0, got " +
                   std::to_string(options_.max_respawns));
  COOPCR_CHECK(options_.heartbeat_ms >= 0,
               "--heartbeat-ms/COOPCR_HEARTBEAT_MS must be >= 0, got " +
                   std::to_string(options_.heartbeat_ms));
}

DistSweepRunner& DistSweepRunner::on_point(PointCallback callback) {
  on_point_ = std::move(callback);
  return *this;
}

exp::ExperimentReport DistSweepRunner::run(const exp::ExperimentSpec& spec) {
  COOPCR_CHECK(options_.journal.empty() || !options_.resume ||
                   std::filesystem::exists(options_.journal),
               "cannot resume: journal does not exist: " + options_.journal);
  COOPCR_CHECK(!options_.resume || !options_.journal.empty(),
               "--resume/resume requires a journal path — set --journal or "
               "COOPCR_JOURNAL");
  // An inert reference keeps the hook sites unconditional: the seam always
  // compiles, and an absent plan simply never matches a trigger.
  FaultPlan inert_plan;
  FaultPlan& plan = options_.fault_plan ? *options_.fault_plan : inert_plan;
  COOPCR_CHECK(!plan.touches_journal() || !options_.journal.empty(),
               "--fault-plan/COOPCR_FAULT_PLAN tears or flips the journal, "
               "which needs --journal or COOPCR_JOURNAL set");

  std::vector<exp::GridPoint> points = spec.expand();
  // Sequential stopping shares its round logic with the in-process runner:
  // the cap, the clamped round-one count and the per-round grow-or-settle
  // decision all come from exp::sequential_stopping_* helpers, so the growth
  // schedule — and therefore the reduced artifacts — cannot drift between
  // backends.
  MonteCarloOptions start_options = spec.campaign_options();
  const int replica_cap = exp::sequential_stopping_cap(start_options);
  start_options.replicas = exp::sequential_stopping_start(start_options);
  const bool adaptive = start_options.target_ci_width > 0.0;
  Campaigns campaigns;
  campaigns.reserve(points.size());
  for (const exp::GridPoint& point : points) {
    campaigns.push_back(std::make_unique<MonteCarloCampaign>(
        point.scenario, spec.strategy_set(), start_options));
  }
  const JournalHeader header =
      journal_header(spec, points, start_options.replicas);
  JournalSink journal(options_.journal, options_.resume, header, campaigns);

  std::deque<UnitMsg> pending;
  Intake intake{campaigns, journal, plan, header.spec_digest};
  intake.outstanding = refill_pending(campaigns, pending);
  Fleet fleet(options_, spec, plan, journal.fd(), pending);

  // Round loop: run the event loop until the current round's units are all
  // accounted for, then (under sequential stopping) take the shared
  // grow-or-settle decision per campaign, journal the round boundary, grow
  // the campaigns, and go again. Fixed-count sweeps take exactly one trip.
  for (;;) {
    while (intake.outstanding > 0) {
      fleet.apply_resize_signals();
      fleet.kill_hung();
      // The one spawn site: no walk of the fleet is live here. Zero-trigger
      // fault actions fire right after the first grow.
      fleet.grow();
      fire_due_faults(fleet, intake);
      fleet.dispatch_all();
      poll_round(fleet, intake, options_);
    }

    if (!adaptive) break;

    // Round boundary: every campaign's current replicas are installed, so the
    // deterministic snapshots decide — per point — whether to settle or grow.
    // The decision is exp::next_sequential_round, the very function the
    // in-process runner calls, on the very same slots; the two backends
    // therefore follow bit-identical growth schedules.
    bool any_extend = false;
    std::vector<std::uint32_t> next_counts(campaigns.size());
    for (std::size_t p = 0; p < campaigns.size(); ++p) {
      const int next = exp::next_sequential_round(*campaigns[p], replica_cap);
      next_counts[p] = static_cast<std::uint32_t>(
          next > 0 ? next : campaigns[p]->tasks());
      if (next > 0) any_extend = true;
    }
    if (!any_extend) break;

    // The round record goes to the journal *before* any extend-round unit can
    // complete: a crash anywhere inside the round replays the record first
    // and resumes with the grown campaign sizes the snapshots decided.
    journal.append_round(next_counts);
    for (std::size_t p = 0; p < campaigns.size(); ++p) {
      campaigns[p]->extend(static_cast<int>(next_counts[p]));
    }
    intake.outstanding = refill_pending(campaigns, pending);
  }

  fleet.retire_all();
  journal.close();

  // Reduction and report assembly mirror exp::SweepRunner::run — the same
  // report header, grid order and callback contract — which is what makes
  // the reports byte-identical across the two runners.
  exp::ExperimentReport report = exp::ExperimentReport::for_spec(spec);
  report.points.reserve(points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    MonteCarloReport point_report = campaigns[p]->reduce();
    if (on_point_) on_point_(points[p], point_report);
    report.points.push_back(
        exp::PointResult{std::move(points[p]), std::move(point_report)});
  }
  return report;
}

}  // namespace coopcr::dist
