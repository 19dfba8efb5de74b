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

#include "dist/journal.hpp"
#include "dist/transport.hpp"
#include "dist/wire.hpp"
#include "dist/worker.hpp"
#include "exp/sweep_runner.hpp"
#include "util/error.hpp"

namespace coopcr::dist {

namespace {

/// A frame held back by a kDelayFrame fault; delivered once `rounds` poll
/// rounds have elapsed.
struct DelayedFrame {
  Frame frame;
  int rounds = 0;
};

/// Coordinator-side view of one worker process.
struct Worker {
  pid_t pid = -1;
  int to_fd = -1;    ///< coordinator → worker (kUnit / kShutdown)
  int from_fd = -1;  ///< worker → coordinator (kHello / kResult)
  bool alive = false;
  bool hello_ok = false;  ///< digest verified, may receive units
  bool draining = false;  ///< shrinking: finish the in-flight unit, then retire
  std::optional<UnitMsg> inflight;  ///< dispatched, result not yet seen
  FrameBuffer buffer;
  int frames_seen = 0;  ///< inbound frames popped (frame-fault trigger)
  std::vector<DelayedFrame> delayed;
  std::chrono::steady_clock::time_point last_heard;  ///< heartbeat clock
};

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

void reap(Worker& w) {
  if (w.pid > 0) {
    int status = 0;
    while (::waitpid(w.pid, &status, 0) < 0 && errno == EINTR) {
    }
    w.pid = -1;
  }
  w.alive = false;
  close_fd(w.to_fd);
  close_fd(w.from_fd);
}

/// Kills and reaps every still-live worker on scope exit, so an exception
/// (digest mismatch, an injected interrupt, journal error) never leaks
/// processes or pipe fds. A graceful shutdown reaps workers first, making
/// this a no-op.
class FleetGuard {
 public:
  explicit FleetGuard(std::deque<Worker>& workers) : workers_(workers) {}
  ~FleetGuard() {
    for (Worker& w : workers_) {
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      reap(w);
    }
  }

 private:
  std::deque<Worker>& workers_;
};

/// The worker writes into a pipe whose read end the coordinator may have
/// closed after deciding the worker is dead; that must surface as an error
/// return, not a process-killing SIGPIPE.
void ignore_sigpipe() {
  static const bool done = [] {
    ::signal(SIGPIPE, SIG_IGN);
    return true;
  }();
  (void)done;
}

// SIGUSR1 grows the fleet by one, SIGUSR2 shrinks it by one. The handlers
// only bump counters; the poll loop consumes the deltas at a safe point.
volatile std::sig_atomic_t g_grow_signals = 0;
volatile std::sig_atomic_t g_shrink_signals = 0;

void on_grow_signal(int) { g_grow_signals = g_grow_signals + 1; }
void on_shrink_signal(int) { g_shrink_signals = g_shrink_signals + 1; }

/// Installs the resize signal handlers for the duration of a run (without
/// SA_RESTART, so a signal wakes the poll loop) and restores the previous
/// dispositions on exit.
class ResizeSignalGuard {
 public:
  ResizeSignalGuard() {
    struct sigaction sa;
    std::memset(&sa, 0, sizeof(sa));
    ::sigemptyset(&sa.sa_mask);
    sa.sa_handler = on_grow_signal;
    ::sigaction(SIGUSR1, &sa, &old_grow_);
    sa.sa_handler = on_shrink_signal;
    ::sigaction(SIGUSR2, &sa, &old_shrink_);
  }
  ~ResizeSignalGuard() {
    ::sigaction(SIGUSR1, &old_grow_, nullptr);
    ::sigaction(SIGUSR2, &old_shrink_, nullptr);
  }

 private:
  struct sigaction old_grow_;
  struct sigaction old_shrink_;
};

int elapsed_ms_since(std::chrono::steady_clock::time_point then) {
  const auto elapsed = std::chrono::steady_clock::now() - then;
  return static_cast<int>(
      std::chrono::duration_cast<std::chrono::milliseconds>(elapsed).count());
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
  COOPCR_CHECK(!spec.campaign_options().keep_results,
               "distributed sweeps cannot keep full simulation results — "
               "only reduced slots cross the process boundary");
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
  ignore_sigpipe();

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
  std::vector<std::unique_ptr<MonteCarloCampaign>> campaigns;
  campaigns.reserve(points.size());
  for (const exp::GridPoint& point : points) {
    campaigns.push_back(std::make_unique<MonteCarloCampaign>(
        point.scenario, spec.strategy_set(), start_options));
  }

  JournalHeader header;
  header.spec_digest = spec_digest(spec, points);
  header.points = static_cast<std::uint32_t>(points.size());
  header.replicas = static_cast<std::uint32_t>(start_options.replicas);
  header.strategies = static_cast<std::uint32_t>(spec.strategy_set().size());

  // Journal setup: replay-then-append on resume, create-fresh otherwise.
  // `rounds_recorded` is the highest extend-round index already journaled,
  // so a resumed run numbers its further rounds past the replayed ones.
  std::uint32_t rounds_recorded = 0;
  std::optional<JournalWriter> journal;
  if (!options_.journal.empty()) {
    if (options_.resume) {
      JournalReplay replay = replay_journal(options_.journal, header);
      for (const JournalRecord& record : replay.records) {
        if (record.kind == JournalRecord::Kind::kRound) {
          // Round records were appended *before* their round's units
          // dispatched; applying them in append order re-grows every
          // campaign to the sizes the original run's snapshots decided, so
          // later unit records land inside bounds and a mid-round resume
          // finishes exactly the round that was interrupted.
          for (std::uint32_t p = 0; p < header.points; ++p) {
            campaigns[p]->extend(static_cast<int>(record.round_replicas[p]));
          }
          rounds_recorded = record.round;
          continue;
        }
        // Duplicate records (a unit journaled, then re-run after a crash
        // landed between append and the coordinator's bookkeeping) keep the
        // first copy; both are bit-identical by construction.
        if (campaigns[record.point]->slot_done(
                static_cast<int>(record.replica))) {
          continue;
        }
        campaigns[record.point]->install_slot(
            static_cast<int>(record.replica), record.slot);
      }
      journal.emplace(
          JournalWriter::append_after(options_.journal, replay.valid_bytes));
    } else {
      COOPCR_CHECK(!std::filesystem::exists(options_.journal),
                   "journal already exists: " + options_.journal +
                       " — pass resume to continue it, or remove it");
      journal.emplace(JournalWriter::create(options_.journal, header));
    }
  }

  // Pending units in (point, replica) order; dispatch order does not matter
  // for the results (slots are preassigned), only for load balance.
  // Sequential stopping refills the queue at every round boundary from the
  // grown campaign sizes; slot_done is the authoritative "already ran"
  // record, so a refill can never duplicate a unit.
  std::deque<UnitMsg> pending;
  std::size_t outstanding = 0;
  auto refill_pending = [&]() {
    pending.clear();
    for (std::uint32_t p = 0; p < header.points; ++p) {
      const auto count = static_cast<std::uint32_t>(campaigns[p]->tasks());
      for (std::uint32_t r = 0; r < count; ++r) {
        if (!campaigns[p]->slot_done(static_cast<int>(r))) {
          pending.push_back(UnitMsg{p, r});
        }
      }
    }
    outstanding = pending.size();
  };
  refill_pending();
  int fresh_results = 0;

  // A deque keeps Worker references stable while respawn/resize push new
  // workers mid-round — a vector's reallocation would dangle the reference
  // the poll loop is holding.
  std::deque<Worker> workers;
  FleetGuard guard(workers);
  ResizeSignalGuard signal_guard;
  int grow_signals_seen = 0;
  int shrink_signals_seen = 0;

  int respawns_left = options_.max_respawns;

  int target_shards = static_cast<int>(std::min<std::size_t>(
      static_cast<std::size_t>(options_.shards), outstanding));

  auto active_count = [&]() {
    int n = 0;
    for (const Worker& w : workers) {
      if (w.alive && !w.draining) ++n;
    }
    return n;
  };
  auto idle_active_count = [&]() {
    int n = 0;
    for (const Worker& w : workers) {
      if (w.alive && !w.draining && !w.inflight) ++n;
    }
    return n;
  };

  auto spawn_one = [&]() {
    const int index = static_cast<int>(workers.size());
    WorkerDirectives directives;
    for (const FaultAction& stall : plan.take_stalls(index)) {
      directives.stalls.push_back(
          WorkerDirectives::Stall{stall.after_units, stall.stall_ms});
    }
    WorkerLaunch launch;
    if (options_.worker_command.empty()) {
      launch.spec = &spec;
      launch.directives = directives;
      if (journal) launch.extra_close.push_back(journal->fd());
      for (const Worker& w : workers) {
        launch.extra_close.push_back(w.to_fd);
        launch.extra_close.push_back(w.from_fd);
      }
    } else {
      launch.command = options_.worker_command;
      for (const WorkerDirectives::Stall& stall : directives.stalls) {
        launch.command.push_back("--stall");
        launch.command.push_back(std::to_string(stall.before_result) + ":" +
                                 std::to_string(stall.ms));
      }
    }
    const WorkerEndpoint endpoint = spawn_worker(launch);
    Worker w;
    w.pid = endpoint.pid;
    w.to_fd = endpoint.to_fd;
    w.from_fd = endpoint.from_fd;
    w.alive = true;
    w.last_heard = std::chrono::steady_clock::now();
    workers.push_back(std::move(w));
  };

  // Spawn toward target_shards, but never a worker that could not be
  // handed a queued unit.
  auto grow_to_target = [&]() {
    while (active_count() < target_shards &&
           idle_active_count() < static_cast<int>(pending.size())) {
      spawn_one();
    }
  };

  // Replace casualties up to the respawn budget, but never spawn a worker
  // that could not be handed a queued unit.
  auto top_up = [&]() {
    while (respawns_left > 0 && active_count() < target_shards &&
           idle_active_count() < static_cast<int>(pending.size())) {
      spawn_one();
      --respawns_left;
    }
  };

  // Graceful single-worker retirement (idle shrink target or a drained
  // worker whose last unit just landed).
  auto retire = [&](Worker& w) {
    try {
      write_frame(w.to_fd, MsgType::kShutdown, {});
    } catch (const Error&) {
      // Already gone; reap below.
    }
    reap(w);
  };

  // Dispatch the next pending unit to `w`; on a broken pipe the worker is
  // treated as dead and the unit goes back to the front of the queue.
  auto dispatch = [&](Worker& w) {
    if (pending.empty() || !w.alive || !w.hello_ok || w.inflight ||
        w.draining) {
      return;
    }
    const UnitMsg unit = pending.front();
    pending.pop_front();
    try {
      write_frame(w.to_fd, MsgType::kUnit, encode_unit(unit));
      w.inflight = unit;
      w.last_heard = std::chrono::steady_clock::now();
    } catch (const Error&) {
      pending.push_front(unit);
      if (w.pid > 0) ::kill(w.pid, SIGKILL);
      reap(w);
    }
  };

  // A worker died: requeue its in-flight unit, top the fleet back up, and
  // hand work to whoever is idle. Buffered complete frames were already
  // drained by the caller, so anything still in flight truly never
  // completed; held-back delayed frames die with the stream that produced
  // them.
  auto handle_death = [&](Worker& w) {
    reap(w);
    w.delayed.clear();
    if (w.inflight) {
      pending.push_front(*w.inflight);
      w.inflight.reset();
    }
    top_up();
    for (Worker& other : workers) {
      if (pending.empty()) break;
      dispatch(other);
    }
  };

  // Elastic resharding: grow by spawning (capped by queued work), shrink
  // by retiring idle workers first and draining busy ones — their
  // in-flight unit completes and ships before they exit, so no work is
  // lost and the artifacts cannot change.
  auto do_resize = [&](int new_shards) {
    target_shards = std::max(1, new_shards);
    grow_to_target();
    for (Worker& w : workers) {
      if (active_count() <= target_shards) break;
      if (!w.alive || w.draining || w.inflight) continue;
      retire(w);
    }
    for (Worker& w : workers) {
      if (active_count() <= target_shards) break;
      if (!w.alive || w.draining) continue;
      w.draining = true;
    }
  };

  // Fire every unit-triggered fault due at the current fresh-result count.
  // Journal tear/flip and interrupts abort the run (FleetGuard cleans up);
  // the journal then drives the resume.
  auto fire_unit_faults = [&]() {
    for (const FaultAction& action : plan.take_due(fresh_results)) {
      switch (action.kind) {
        case FaultKind::kKillWorker: {
          if (action.worker < static_cast<int>(workers.size())) {
            Worker& target = workers[action.worker];
            // SIGKILL only — the death surfaces through the poll loop as
            // an EOF, exercising the same path a real crash takes.
            if (target.alive && target.pid > 0) {
              ::kill(target.pid, SIGKILL);
            }
          }
          break;
        }
        case FaultKind::kResize:
          do_resize(action.shards);
          break;
        case FaultKind::kTearJournal:
          if (journal) {
            append_torn_journal_tail(journal->fd(), action.tear_bytes);
          }
          COOPCR_CHECK(false, "fault injection: journal torn after " +
                                  std::to_string(fresh_results) +
                                  " units — resume from the journal");
        case FaultKind::kFlipJournalByte:
          if (journal) {
            journal->close();
            flip_journal_byte_at(options_.journal, action.offset);
          }
          COOPCR_CHECK(false, "fault injection: journal byte " +
                                  std::to_string(action.offset) +
                                  " flipped after " +
                                  std::to_string(fresh_results) + " units");
        case FaultKind::kInterrupt:
          COOPCR_CHECK(false, "sweep interrupted after " +
                                  std::to_string(fresh_results) +
                                  " units (fault plan) — resume from the "
                                  "journal");
        default:
          break;
      }
    }
  };

  auto handle_frame = [&](Worker& w, const Frame& frame) {
    if (frame.type == MsgType::kHello) {
      COOPCR_CHECK(!w.hello_ok, "worker sent a second kHello");
      validate_hello(decode_hello(frame.payload), header.spec_digest);
      w.hello_ok = true;
      dispatch(w);
      return;
    }
    COOPCR_CHECK(frame.type == MsgType::kResult,
                 "coordinator expected kResult, got frame type " +
                     std::to_string(static_cast<int>(frame.type)));
    ResultMsg result = decode_result(frame.payload);
    COOPCR_CHECK(w.inflight && w.inflight->point == result.point &&
                     w.inflight->replica == result.replica,
                 "worker returned a result for a unit it was not assigned");
    w.inflight.reset();
    campaigns[result.point]->install_slot(static_cast<int>(result.replica),
                                          result.slot);
    if (journal) {
      JournalRecord record;
      record.point = result.point;
      record.replica = result.replica;
      record.slot = std::move(result.slot);
      journal->append_record(record);
    }
    --outstanding;
    ++fresh_results;
    fire_unit_faults();
    if (!w.alive) return;  // a fired fault retired or killed this worker
    if (w.draining) {
      retire(w);
      return;
    }
    dispatch(w);
  };

  for (int i = 0; i < target_shards; ++i) spawn_one();
  fire_unit_faults();  // zero-trigger actions fire before any result

  // Round loop: run the event loop until the current round's units are all
  // accounted for, then (under sequential stopping) take the shared
  // grow-or-settle decision per campaign, journal the round boundary, grow
  // the campaigns, and go again. Fixed-count sweeps take exactly one trip.
  for (;;) {
    // Event loop: poll the worker channels, feed per-worker frame buffers,
    // and handle whatever completes. Runs until every unit is accounted for.
    while (outstanding > 0) {
      // Operator resize signals accumulated since the last round.
      {
        const int grow = static_cast<int>(g_grow_signals);
        const int shrink = static_cast<int>(g_shrink_signals);
        const int delta =
            (grow - grow_signals_seen) - (shrink - shrink_signals_seen);
        grow_signals_seen = grow;
        shrink_signals_seen = shrink;
        if (delta != 0) do_resize(target_shards + delta);
      }

      // Heartbeat deadline: a worker with a unit in flight that has been
      // silent too long is presumed hung (e.g. a scripted stall) and killed;
      // its unit re-runs elsewhere to the same bits.
      if (options_.heartbeat_ms > 0) {
        for (Worker& w : workers) {
          if (!w.alive || !w.inflight) continue;
          if (elapsed_ms_since(w.last_heard) > options_.heartbeat_ms) {
            if (w.pid > 0) ::kill(w.pid, SIGKILL);
            handle_death(w);
          }
        }
      }

      // Deliver delayed frames whose hold expired.
      for (Worker& w : workers) {
        if (!w.alive || w.delayed.empty()) continue;
        std::size_t i = 0;
        while (i < w.delayed.size()) {
          if (--w.delayed[i].rounds > 0) {
            ++i;
            continue;
          }
          const Frame held = std::move(w.delayed[i].frame);
          w.delayed.erase(w.delayed.begin() + static_cast<std::ptrdiff_t>(i));
          handle_frame(w, held);
          if (!w.alive || outstanding == 0) break;
        }
        if (outstanding == 0) break;
      }
      if (outstanding == 0) break;

      top_up();

      std::vector<struct pollfd> fds;
      std::vector<std::size_t> owner;
      bool any_delayed = false;
      for (std::size_t i = 0; i < workers.size(); ++i) {
        if (!workers[i].alive) continue;
        fds.push_back(pollfd{workers[i].from_fd, POLLIN, 0});
        owner.push_back(i);
        if (!workers[i].delayed.empty()) any_delayed = true;
      }
      COOPCR_CHECK(
          !fds.empty(),
          "all workers died with " + std::to_string(outstanding) +
              " units outstanding" +
              (options_.max_respawns > 0 ? " (respawn budget exhausted)" : "") +
              (journal ? " — completed units are journaled, resume to continue"
                       : ""));

      int timeout = -1;
      if (any_delayed) {
        timeout = 1;  // held frames advance one round per poll wakeup
      } else if (options_.heartbeat_ms > 0) {
        for (const Worker& w : workers) {
          if (!w.alive || !w.inflight) continue;
          const int remaining =
              options_.heartbeat_ms - elapsed_ms_since(w.last_heard);
          const int t = std::max(1, remaining + 1);
          timeout = timeout < 0 ? t : std::min(timeout, t);
        }
      }
      const int ready = ::poll(fds.data(), fds.size(), timeout);
      if (ready < 0) {
        if (errno == EINTR) continue;
        COOPCR_CHECK(false, std::string("poll failed: ") + std::strerror(errno));
      }
      for (std::size_t i = 0; i < fds.size(); ++i) {
        if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR))) continue;
        Worker& w = workers[owner[i]];
        if (!w.alive) continue;  // reaped by an earlier handler this round
        std::uint8_t chunk[4096];
        const ssize_t n = ::read(w.from_fd, chunk, sizeof(chunk));
        if (n < 0) {
          if (errno == EINTR) continue;
          handle_death(w);
          continue;
        }
        if (n > 0) {
          w.buffer.feed(chunk, static_cast<std::size_t>(n));
          w.last_heard = std::chrono::steady_clock::now();
        }
        // Drain every complete frame first: a result the worker managed to
        // send before dying must count before its death requeues anything.
        bool stream_cut = false;
        while (std::optional<Frame> frame = w.buffer.next()) {
          ++w.frames_seen;
          const FaultAction fault =
              plan.take_frame_fault(static_cast<int>(owner[i]), w.frames_seen);
          if (fault.fired) {
            if (fault.kind == FaultKind::kDelayFrame) {
              w.delayed.push_back(
                  DelayedFrame{std::move(*frame), fault.delay_rounds});
              continue;
            }
            // Drop or truncate: the bytes are discarded and the stream past
            // them cannot be trusted, so the worker is killed; its in-flight
            // unit re-runs (bit-identically) elsewhere.
            if (fault.kind == FaultKind::kTruncateFrame) {
              // Leave the torn remainder in the buffer, as a real
              // mid-frame cut would.
              const std::uint8_t torn[3] = {0x08, 0x00, 0x00};
              w.buffer.feed(torn, sizeof(torn));
            }
            if (w.pid > 0) ::kill(w.pid, SIGKILL);
            handle_death(w);
            stream_cut = true;
            break;
          }
          handle_frame(w, *frame);
          if (!w.alive || outstanding == 0) break;
        }
        if (stream_cut) continue;
        if (n == 0 && w.alive) handle_death(w);
        if (outstanding == 0) break;
      }
    }

    if (!adaptive) break;

    // Round boundary: every campaign's current replicas are installed, so the
    // deterministic snapshots decide — per point — whether to settle or grow.
    // The decision is exp::next_sequential_round, the very function the
    // in-process runner calls, on the very same slots; the two backends
    // therefore follow bit-identical growth schedules.
    bool any_extend = false;
    std::vector<std::uint32_t> next_counts(header.points);
    for (std::uint32_t p = 0; p < header.points; ++p) {
      const int next = exp::next_sequential_round(*campaigns[p], replica_cap);
      next_counts[p] = static_cast<std::uint32_t>(
          next > 0 ? next : campaigns[p]->tasks());
      if (next > 0) any_extend = true;
    }
    if (!any_extend) break;

    // The round record goes to the journal *before* any extend-round unit can
    // complete: a crash anywhere inside the round replays the record first
    // and resumes with the grown campaign sizes the snapshots decided.
    ++rounds_recorded;
    if (journal) {
      JournalRecord record;
      record.kind = JournalRecord::Kind::kRound;
      record.round = rounds_recorded;
      record.round_replicas = next_counts;
      journal->append_record(record);
    }
    for (std::uint32_t p = 0; p < header.points; ++p) {
      campaigns[p]->extend(static_cast<int>(next_counts[p]));
    }
    refill_pending();

    // Wake the fleet: regrow toward the configured shard count if the new
    // round brought more units than live workers (a resume may have started
    // with a near-empty queue and a correspondingly small fleet), then hand
    // units to everyone idle. Fresh workers dispatch on their kHello.
    const int round_target = static_cast<int>(std::min<std::size_t>(
        static_cast<std::size_t>(options_.shards), pending.size()));
    if (round_target > target_shards) target_shards = round_target;
    grow_to_target();
    for (Worker& w : workers) {
      if (pending.empty()) break;
      dispatch(w);
    }
  }

  // Graceful shutdown: retire every survivor.
  for (Worker& w : workers) {
    if (w.alive) retire(w);
  }
  if (journal) journal->close();

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
