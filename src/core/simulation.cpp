#include "core/simulation.hpp"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "io/io_subsystem.hpp"
#include "platform/node_pool.hpp"
#include "sched/job_scheduler.hpp"
#include "sim/engine.hpp"
#include "util/error.hpp"

namespace coopcr {

namespace detail {

/// The reusable substrate behind SimWorkspace: one engine and (lazily
/// created) I/O subsystems whose slabs stay warm across runs. reset() paths
/// restore bit-identical pristine state, so a reused workspace produces
/// exactly the results of fresh construction.
struct SimWorkspaceImpl {
  sim::Engine engine;
  std::unique_ptr<IoSubsystem> io;     ///< PFS front-end
  std::unique_ptr<IoSubsystem> bb_io;  ///< fast tier (tiered commits only)
};

}  // namespace detail

SimWorkspace::SimWorkspace()
    : impl_(std::make_unique<detail::SimWorkspaceImpl>()) {}
SimWorkspace::~SimWorkspace() = default;

namespace {

/// Minimum residual work of a restart (guards Job::well_formed when a
/// failure lands exactly at a job's completion instant).
constexpr double kMinResidualWork = 1e-3;

/// Runtime state of a started job.
enum class JobState {
  kInitialIo,     ///< blocking initial read (input or recovery)
  kComputing,     ///< executing work
  kRoutineIo,     ///< blocking regular I/O chunk
  kCkptWait,      ///< checkpoint requested, job idle (blocking strategies)
  kCkptWaitNb,    ///< checkpoint requested, job computing (NB strategies)
  kCheckpointing, ///< commit in progress (job paused)
  kOutputIo,      ///< blocking final output
};

/// The orchestrator. One instance per run; not reusable. Listens to both I/O
/// subsystems, tagging a job's blocking request with its serial.
class Runner final : private IoListener {
 public:
  Runner(const SimulationConfig& config, const std::vector<Job>& jobs,
         const std::vector<Failure>& failures, detail::SimWorkspaceImpl& ws)
      : cfg_(config),
        engine_(ws.engine),
        pool_(config.platform.nodes),
        scheduler_(pool_),
        result_(config.segment_start, config.segment_end) {
    COOPCR_CHECK(!cfg_.classes.empty(), "simulation needs resolved classes");
    cfg_.platform.validate();
    stop_time_ = std::min(cfg_.horizon, cfg_.segment_end);
    engine_.reset();
    if (ws.io) {
      ws.io->reset(cfg_.platform.pfs_bandwidth, admission_mode(),
                   cfg_.interference, cfg_.degradation_alpha, make_policy());
    } else {
      ws.io = std::make_unique<IoSubsystem>(
          engine_, cfg_.platform.pfs_bandwidth, admission_mode(),
          cfg_.interference, cfg_.degradation_alpha, make_policy());
    }
    io_ = ws.io.get();
    // Tiered commit path: a fast tier in front of the PFS. Absorbs need no
    // token — NVRAM-style buffers are processor-shared among concurrent
    // writers (kConcurrent + kLinear) — while drains go through `io_` and
    // contend under the strategy's coordination like any transfer.
    tiered_ = cfg_.strategy.tiered() && cfg_.burst_buffer.usable();
    if (tiered_) {
      if (ws.bb_io) {
        ws.bb_io->reset(cfg_.burst_buffer.bandwidth,
                        AdmissionMode::kConcurrent, InterferenceModel::kLinear,
                        /*degradation_alpha=*/0.0, /*policy=*/nullptr);
      } else {
        ws.bb_io = std::make_unique<IoSubsystem>(
            engine_, cfg_.burst_buffer.bandwidth, AdmissionMode::kConcurrent,
            InterferenceModel::kLinear);
      }
      bb_io_ = ws.bb_io.get();
      bb_free_ = cfg_.burst_buffer.capacity;
    }
    next_job_id_ = 0;
    for (const Job& job : jobs) {
      next_job_id_ = std::max(next_job_id_, job.id + 1);
    }
    for (const Job& job : jobs) {
      COOPCR_CHECK(job.root >= 0 && job.root < next_job_id_,
                   "job root must be an original job id");
    }
    lineage_max_.assign(static_cast<std::size_t>(next_job_id_), 0.0);
    by_id_.assign(static_cast<std::size_t>(next_job_id_), nullptr);
    // Failure events (trace is pre-drawn so all strategies share it).
    for (const Failure& f : failures) {
      if (f.time >= stop_time_) continue;
      engine_.at(f.time, [this, f] { on_failure(f); });
    }
    // All jobs presented simultaneously at t = 0 (§2).
    for (const Job& job : jobs) scheduler_.submit(job);
  }

  SimulationResult run() {
    pump_scheduler();
    engine_.run(stop_time_);
    finalize(stop_time_);
    result_.useful = result_.accounting.useful();
    result_.wasted = result_.accounting.wasted();
    result_.energy = EnergyModel(cfg_.platform.power).breakdown(
        result_.accounting);
    result_.avg_utilization =
        util_accum_ / (static_cast<double>(cfg_.platform.nodes) *
                       result_.accounting.segment_length());
    result_.stop_time = stop_time_;
    result_.events = engine_.events_executed();
    result_.events_scheduled = engine_.queue().total_scheduled();
    return std::move(result_);
  }

 private:
  struct ActiveReq {
    std::uint64_t serial = 0;  ///< simulation-level identity (0 = none)
    RequestId id = kInvalidRequest;
    IoKind kind = IoKind::kInput;
    double volume = 0.0;
    sim::Time submitted = 0.0;
    sim::Time started = sim::kTimeNever;
    bool redo = false;  ///< routine chunk re-executed after a failure
    bool bb = false;    ///< runs on the burst buffer (tiered absorb)
    bool live() const { return serial != 0; }
  };

  /// One absorbed-but-not-yet-durable snapshot draining through `io_`.
  struct Drain {
    RequestId id = kInvalidRequest;
    double volume = 0.0;
    double pos = 0.0;  ///< work position the snapshot captured
  };

  struct JobRt {
    Job job;
    const ClassOnPlatform* cls = nullptr;
    JobState state = JobState::kInitialIo;
    double work_pos = 0.0;      ///< absolute work position (seconds)
    double snapshot_pos = 0.0;  ///< last committed snapshot position
    bool has_snapshot = false;  ///< lineage committed >= 1 checkpoint
    sim::Time compute_started_at = 0.0;
    sim::Time last_ckpt_end = 0.0;  ///< d_i reference for Least-Waste
    sim::EventId ckpt_timer = sim::kInvalidEventId;
    sim::Time ckpt_at = 0.0;  ///< firing time of `ckpt_timer` while armed
    sim::EventId milestone = sim::kInvalidEventId;
    /// Next compute milestone. It is queued only when it can fire: while a
    /// checkpoint request comes strictly first it is held here instead
    /// (`milestone_held`), and the request drops or queues it.
    sim::Time milestone_at = 0.0;
    double milestone_target = 0.0;
    bool milestone_held = false;
    bool ckpt_due = false;  ///< timer fired while the job was doing I/O
    /// A non-blocking checkpoint waiter that hit a routine-I/O boundary must
    /// stop computing (data dependence) and idle until the token arrives.
    bool chunk_blocked = false;
    sim::Time chunk_blocked_since = 0.0;
    ActiveReq req;
    int next_chunk = 1;  ///< next routine chunk index (1-based)
    // Tiered commit path. An absorbed checkpoint is only durable once its
    // drain reaches the PFS: `snapshot_pos`/`has_snapshot` above advance at
    // drain completion, never at absorb completion.
    double absorb_pos = 0.0;            ///< position of the absorbing commit
    sim::Time last_drained_end = 0.0;   ///< d_i reference for drain candidates
    std::vector<Drain> drains;          ///< outstanding drains, oldest first
  };

  // --- configuration plumbing -----------------------------------------------

  AdmissionMode admission_mode() const {
    return cfg_.strategy.serialized() ? AdmissionMode::kSerial
                                      : AdmissionMode::kConcurrent;
  }

  std::unique_ptr<TokenPolicy> make_policy() const {
    const Coordination& coordination = cfg_.strategy.coordination();
    if (!coordination.serialized()) return nullptr;
    auto policy = coordination.token_policy(TokenPolicyContext{
        cfg_.platform.node_mtbf, cfg_.platform.pfs_bandwidth,
        cfg_.policy_seed});
    COOPCR_CHECK(policy != nullptr, "serialized coordination '" +
                                        coordination.name +
                                        "' produced no token policy");
    return policy;
  }

  /// A running job's state; `what` names the event that expects one.
  JobRt& running(JobId jid, const char* what) const {
    JobRt* rt = by_id_[static_cast<std::size_t>(jid)];
    COOPCR_ASSERT(rt != nullptr, what);
    return *rt;
  }

  const ClassOnPlatform& cls_of(const Job& job) const {
    return cfg_.classes[static_cast<std::size_t>(job.class_index)];
  }

  void tr(JobId job, TraceKind kind, IoKind io = IoKind::kInput,
          double detail = 0.0) {
    if (cfg_.trace != nullptr) {
      cfg_.trace->record(engine_.now(), job, kind, io, detail);
    }
  }

  double period_of(const JobRt& rt) const {
    return cfg_.strategy.period().period_for(*rt.cls);
  }

  /// Delay from checkpoint completion (or compute start) to the next
  /// checkpoint *request* (DESIGN.md "Checkpoint scheduling").
  double request_delay(const JobRt& rt) const {
    return coopcr::request_delay(cfg_.strategy.offset(), period_of(rt),
                                 rt.cls->checkpoint_seconds);
  }

  int routine_chunks(const JobRt& rt) const {
    return rt.job.routine_io_bytes > 0.0 ? cfg_.routine_io_chunks : 0;
  }

  /// Absolute work position at which routine chunk `k` (1-based) is issued.
  double chunk_position(const JobRt& rt, int k) const {
    const int n = routine_chunks(rt);
    return rt.job.total_work * static_cast<double>(k) /
           static_cast<double>(n + 1);
  }

  // --- accounting helpers ----------------------------------------------------

  void note_alloc_change() { note_alloc_change_at(engine_.now()); }

  void note_alloc_change_at(sim::Time t) {
    const sim::Time lo = std::max(last_util_t_, cfg_.segment_start);
    const sim::Time hi = std::min(t, cfg_.segment_end);
    if (hi > lo) {
      util_accum_ += static_cast<double>(pool_.allocated_count()) * (hi - lo);
    }
    last_util_t_ = t;
  }

  double& lineage_max(JobId root) {
    return lineage_max_[static_cast<std::size_t>(root)];
  }

  /// Close a compute interval [t0, t1): split into lost-work re-execution
  /// (positions below the lineage's high-water mark) and useful compute.
  void close_compute(JobRt& rt, sim::Time t0, sim::Time t1) {
    COOPCR_ASSERT(t1 >= t0, "compute interval reversed");
    if (t1 == t0) return;
    const double p0 = rt.work_pos;
    const double p1 = p0 + (t1 - t0);
    double& lm = lineage_max(rt.job.root);
    const double lost = std::clamp(lm - p0, 0.0, p1 - p0);
    if (lost > 0.0) {
      result_.accounting.add(rt.job.nodes, TimeCategory::kLostWork, t0,
                             t0 + lost);
    }
    if (p1 - p0 - lost > 0.0) {
      result_.accounting.add(rt.job.nodes, TimeCategory::kUsefulCompute,
                             t0 + lost, t1);
    }
    rt.work_pos = p1;
    lm = std::max(lm, p1);
  }

  /// Account a finished (completed=true) or torn-down I/O request up to the
  /// given end time.
  void account_request_end(JobRt& rt, bool completed, sim::Time end) {
    const ActiveReq& req = rt.req;
    if (!req.live()) return;
    const bool nb_ckpt_wait = req.kind == IoKind::kCheckpoint &&
                              cfg_.strategy.non_blocking_wait();
    const sim::Time start =
        req.started == sim::kTimeNever ? end : req.started;
    // Wait (queueing) time: idle for blocking operations; overlapped with
    // compute for non-blocking checkpoint waits (already accounted there).
    if (!nb_ckpt_wait && start > req.submitted) {
      result_.accounting.add(rt.job.nodes, TimeCategory::kBlockedWait,
                             req.submitted, start);
    }
    if (req.started == sim::kTimeNever || end <= start) return;
    if (!completed) {
      // Torn-down transfer: the moved bytes are lost and will be redone.
      const TimeCategory cat = req.kind == IoKind::kCheckpoint
                                   ? TimeCategory::kCheckpoint
                                   : TimeCategory::kLostWork;
      result_.accounting.add(rt.job.nodes, cat, start, end);
      return;
    }
    // Completed transfer: the interference-free duration is the operation's
    // intrinsic cost; anything beyond is contention dilation. Absorbs move
    // through the fast tier, so their intrinsic cost is at β_bb.
    const double ref_bandwidth =
        req.bb ? cfg_.burst_buffer.bandwidth : cfg_.platform.pfs_bandwidth;
    const double ideal = std::min(req.volume / ref_bandwidth, end - start);
    TimeCategory ideal_cat = TimeCategory::kUsefulIo;
    switch (req.kind) {
      case IoKind::kInput:
      case IoKind::kOutput:
        ideal_cat = TimeCategory::kUsefulIo;
        break;
      case IoKind::kRoutine:
        ideal_cat =
            req.redo ? TimeCategory::kLostWork : TimeCategory::kUsefulIo;
        break;
      case IoKind::kRecovery:
        ideal_cat = TimeCategory::kRecovery;
        break;
      case IoKind::kCheckpoint:
      case IoKind::kDrain:  // unreachable: drains are not blocking requests
        ideal_cat = TimeCategory::kCheckpoint;
        break;
    }
    if (ideal > 0.0) {
      result_.accounting.add(rt.job.nodes, ideal_cat, start, start + ideal);
    }
    if (end - start - ideal > 0.0) {
      result_.accounting.add(rt.job.nodes, TimeCategory::kIoDilation,
                             start + ideal, end);
    }
  }

  // --- lifecycle -------------------------------------------------------------

  void pump_scheduler() {
    note_alloc_change();
    scheduler_.pump([this](const Job& job) { start_job(job); });
  }

  void start_job(const Job& job) {
    ++result_.counters.jobs_started;
    tr(job.id, TraceKind::kJobStart, IoKind::kInput,
       static_cast<double>(job.nodes));
    auto [it, inserted] = jobs_.try_emplace(job.id);
    COOPCR_ASSERT(inserted, "duplicate job id started");
    JobRt& rt = it->second;
    const auto slot = static_cast<std::size_t>(job.id);
    if (slot >= by_id_.size()) by_id_.resize(slot + 1, nullptr);
    by_id_[slot] = &rt;
    rt.job = job;
    rt.cls = &cls_of(job);
    rt.state = JobState::kInitialIo;
    rt.work_pos = job.work_start;
    rt.snapshot_pos = job.work_start;
    rt.has_snapshot = job.has_checkpoint;
    rt.last_ckpt_end = engine_.now();
    rt.last_drained_end = engine_.now();
    // Skip routine chunks already behind the restart position.
    const int n = routine_chunks(rt);
    while (rt.next_chunk <= n &&
           chunk_position(rt, rt.next_chunk) <= rt.work_pos) {
      ++rt.next_chunk;
    }
    submit_request(rt, job.is_restart ? IoKind::kRecovery : IoKind::kInput,
                   job.input_bytes);
  }

  void submit_request(JobRt& rt, IoKind kind, double volume,
                      bool redo = false, bool bb = false) {
    COOPCR_ASSERT(!rt.req.live(), "job already has an outstanding request");
    ++result_.counters.io_requests;
    const std::uint64_t serial = ++req_serial_;
    rt.req = ActiveReq{};
    rt.req.serial = serial;
    rt.req.kind = kind;
    rt.req.volume = volume;
    rt.req.submitted = engine_.now();
    rt.req.redo = redo;
    rt.req.bb = bb;
    IoRequest request;
    request.job = rt.job.id;
    request.kind = kind;
    request.volume = volume;
    request.nodes = rt.job.nodes;
    // submit() may call on_io_start — and through it arbitrary state
    // transitions, though none that ends a job — synchronously. Only adopt
    // the id if this request is still the job's live one afterwards.
    IoSubsystem& target = bb ? *bb_io_ : *io_;
    const RequestId id = target.submit(request, *this, serial,
                                       rt.last_ckpt_end,
                                       rt.cls->recovery_seconds);
    if (rt.req.serial == serial) rt.req.id = id;
  }

  // --- IoListener ------------------------------------------------------------

  void on_io_start(const IoRequest& request, RequestId id,
                   std::uint64_t serial) override {
    if (request.kind == IoKind::kDrain) {
      tr(request.job, TraceKind::kIoStart, IoKind::kDrain, request.volume);
      return;
    }
    // A torn-down request never notifies, so the job is always alive.
    JobRt& rt = running(request.job, "I/O start for unknown job");
    if (rt.req.serial != serial) return;  // stale
    const JobId jid = request.job;
    rt.req.id = id;
    rt.req.started = engine_.now();
    tr(jid, TraceKind::kIoStart, rt.req.kind, rt.req.volume);
    if (rt.req.kind != IoKind::kCheckpoint) return;

    if (rt.state == JobState::kCkptWait) {
      // Blocking variants paused at request time; just snapshot and commit.
      // A tiered absorb snapshots into `absorb_pos` — the position only
      // becomes the durable `snapshot_pos` when the drain completes.
      if (rt.req.bb) {
        rt.absorb_pos = rt.work_pos;
      } else {
        rt.snapshot_pos = rt.work_pos;
      }
      rt.state = JobState::kCheckpointing;
      return;
    }
    COOPCR_ASSERT(rt.state == JobState::kCkptWaitNb,
                  "checkpoint grant in unexpected state");
    if (rt.chunk_blocked) {
      // The waiter already stopped at a routine-I/O boundary; the wait since
      // then was idle time.
      result_.accounting.add(rt.job.nodes, TimeCategory::kBlockedWait,
                             rt.chunk_blocked_since, engine_.now());
      rt.chunk_blocked = false;
    } else {
      // Token granted mid-compute: stop, snapshot, commit (§3.3).
      close_compute(rt, rt.compute_started_at, engine_.now());
      drop_milestone(rt);
    }
    if (rt.work_pos >= rt.job.total_work) {
      // The job finished in the same instant the token arrived; the commit
      // is pointless — drop it and go straight to output.
      ++result_.counters.checkpoints_cancelled;
      rt.req = ActiveReq{};
      io_->abort(id);
      begin_output(rt);
      return;
    }
    rt.snapshot_pos = rt.work_pos;
    rt.state = JobState::kCheckpointing;
  }

  void on_io_complete(const IoRequest& request, RequestId id,
                      std::uint64_t serial) override {
    if (request.kind == IoKind::kDrain) {
      on_drain_complete(request.job, id);
      return;
    }
    JobRt& rt = running(request.job, "I/O completion for unknown job");
    if (rt.req.serial != serial) return;  // stale
    const JobId jid = request.job;
    account_request_end(rt, /*completed=*/true, engine_.now());
    tr(jid, TraceKind::kIoEnd, rt.req.kind, rt.req.volume);
    const IoKind kind = rt.req.kind;
    const bool was_absorb = rt.req.bb;
    rt.req = ActiveReq{};
    switch (kind) {
      case IoKind::kInput:
      case IoKind::kRecovery:
        rt.last_ckpt_end = engine_.now();
        begin_compute(rt, /*schedule_ckpt=*/true);
        break;
      case IoKind::kRoutine:
        begin_compute(rt, /*schedule_ckpt=*/false);
        break;
      case IoKind::kCheckpoint:
        ++result_.counters.checkpoints_completed;
        rt.last_ckpt_end = engine_.now();
        if (was_absorb) {
          // The application is released, but the snapshot is not durable
          // yet: queue the drain to the PFS and resume computing in its
          // shadow. `has_snapshot` advances at drain completion.
          ++result_.counters.bb_absorbs;
          enqueue_drain(rt);
        } else {
          // A direct commit (including a capacity-full fallback in a tiered
          // run) is durable immediately — keep the durable-commit clock in
          // sync so later drain candidates price only truly at-risk work.
          rt.has_snapshot = true;
          rt.last_drained_end = engine_.now();
        }
        begin_compute(rt, /*schedule_ckpt=*/true);
        break;
      case IoKind::kOutput:
        complete_job(rt);
        break;
      case IoKind::kDrain:
        COOPCR_ASSERT(false, "drains never run as a job's blocking request");
        break;
    }
  }

  /// (Re)enter the computing state; optionally restart the checkpoint clock.
  /// The milestone is queued before a new checkpoint timer (ties fire in
  /// that order), unless the checkpoint request comes strictly first: the
  /// job is then still computing when the request is made, and a blocking
  /// request would only cancel the milestone again.
  void begin_compute(JobRt& rt, bool schedule_ckpt) {
    rt.state = JobState::kComputing;
    rt.compute_started_at = engine_.now();
    plan_milestone(rt);
    const JobId jid = rt.job.id;
    if (schedule_ckpt && cfg_.checkpoints_enabled) {
      cancel_event(rt.ckpt_timer);
      rt.ckpt_due = false;
      const sim::Time at = engine_.now() + request_delay(rt);
      if (!(at < rt.milestone_at)) queue_milestone(rt);
      rt.ckpt_at = at;
      rt.ckpt_timer = engine_.at(at, [this, jid] { on_ckpt_timer(jid); });
    } else if (rt.ckpt_due && cfg_.checkpoints_enabled) {
      // The period elapsed while the job was doing routine I/O: request now.
      rt.ckpt_due = false;
      request_checkpoint(rt);
    } else if (rt.ckpt_timer == sim::kInvalidEventId ||
               !(rt.ckpt_at < rt.milestone_at)) {
      queue_milestone(rt);
    }
  }

  /// Compute the next milestone (the next routine chunk or the end of the
  /// work) and hold it; queue_milestone() puts it on the calendar.
  void plan_milestone(JobRt& rt) {
    cancel_event(rt.milestone);
    const int n = routine_chunks(rt);
    double target = rt.job.total_work;
    if (rt.next_chunk <= n) {
      target = std::min(target, chunk_position(rt, rt.next_chunk));
    }
    rt.milestone_at = engine_.now() + std::max(0.0, target - rt.work_pos);
    rt.milestone_target = target;
    rt.milestone_held = true;
  }

  void queue_milestone(JobRt& rt) {
    if (!rt.milestone_held) return;
    rt.milestone_held = false;
    const JobId jid = rt.job.id;
    const double target = rt.milestone_target;
    rt.milestone = engine_.at(
        rt.milestone_at, [this, jid, target] { on_milestone(jid, target); });
  }

  /// Cancel the queued milestone or forget the held one.
  void drop_milestone(JobRt& rt) {
    cancel_event(rt.milestone);
    rt.milestone_held = false;
  }

  void on_milestone(JobId jid, double target) {
    JobRt& rt = running(jid, "milestone for unknown job");
    rt.milestone = sim::kInvalidEventId;
    COOPCR_ASSERT(rt.state == JobState::kComputing ||
                      rt.state == JobState::kCkptWaitNb,
                  "milestone outside compute");
    close_compute(rt, rt.compute_started_at, engine_.now());
    rt.work_pos = target;  // authoritative position (kills fp drift)
    lineage_max(rt.job.root) = std::max(lineage_max(rt.job.root), target);

    if (target >= rt.job.total_work) {
      // Work complete. Withdraw any pending non-blocking checkpoint request.
      cancel_event(rt.ckpt_timer);
      if (rt.state == JobState::kCkptWaitNb && rt.req.live()) {
        ++result_.counters.checkpoints_cancelled;
        const RequestId id = rt.req.id;
        rt.req = ActiveReq{};
        io_->cancel(id);
      }
      begin_output(rt);
      return;
    }

    if (rt.state == JobState::kCkptWaitNb) {
      // Routine-I/O boundary reached while waiting for the checkpoint token:
      // the job cannot compute past its I/O point — idle until the token
      // arrives, commit, then issue the chunk.
      rt.chunk_blocked = true;
      rt.chunk_blocked_since = engine_.now();
      return;
    }

    issue_routine_chunk(rt, target);
  }

  void issue_routine_chunk(JobRt& rt, double target) {
    COOPCR_ASSERT(rt.state == JobState::kComputing,
                  "routine chunk outside compute");
    const int n = routine_chunks(rt);
    const double chunk_volume =
        rt.job.routine_io_bytes / static_cast<double>(n);
    // A chunk strictly behind the lineage high-water mark is a re-execution.
    const bool redo = target < lineage_max(rt.job.root);
    ++rt.next_chunk;
    rt.state = JobState::kRoutineIo;
    submit_request(rt, IoKind::kRoutine, chunk_volume, redo);
  }

  void on_ckpt_timer(JobId jid) {
    JobRt& rt = running(jid, "checkpoint timer for unknown job");
    rt.ckpt_timer = sim::kInvalidEventId;
    if (rt.state != JobState::kComputing) {
      // Busy with routine I/O — remember and request at the next resume.
      COOPCR_ASSERT(!rt.milestone_held, "held milestone outside compute");
      rt.ckpt_due = true;
      return;
    }
    request_checkpoint(rt);
  }

  void request_checkpoint(JobRt& rt) {
    COOPCR_ASSERT(rt.state == JobState::kComputing,
                  "checkpoint request outside compute");
    tr(rt.job.id, TraceKind::kCkptRequest, IoKind::kCheckpoint,
       rt.job.checkpoint_bytes);
    // Capacity-full tiered commits fall back to a direct PFS commit under
    // the normal coordination (the code below), at PFS speed. The fallback
    // counter only moves once a PFS commit is actually submitted.
    bool fallback = false;
    if (tiered_) {
      if (rt.job.checkpoint_bytes <= bb_free_) {
        absorb_checkpoint(rt);
        return;
      }
      fallback = true;
    }
    if (cfg_.strategy.non_blocking_wait()) {
      // Keep computing until the token arrives (§3.3, §3.5). The compute
      // interval stays open; a held milestone is queued now.
      queue_milestone(rt);
      ++result_.counters.checkpoint_requests;
      if (fallback) ++result_.counters.bb_fallbacks;
      rt.state = JobState::kCkptWaitNb;
      submit_request(rt, IoKind::kCheckpoint, rt.job.checkpoint_bytes);
      return;
    }
    // Blocking variants: stop computing at the request instant.
    close_compute(rt, rt.compute_started_at, engine_.now());
    drop_milestone(rt);
    if (rt.work_pos >= rt.job.total_work) {
      begin_output(rt);
      return;
    }
    ++result_.counters.checkpoint_requests;
    if (fallback) ++result_.counters.bb_fallbacks;
    rt.state = JobState::kCkptWait;
    submit_request(rt, IoKind::kCheckpoint, rt.job.checkpoint_bytes);
  }

  // --- tiered commit path ------------------------------------------------------

  /// Absorb a checkpoint into the burst buffer: blocks the job like a direct
  /// blocking commit, but needs no I/O token — the fast tier is processor-
  /// shared, so the write starts immediately at β_bb.
  void absorb_checkpoint(JobRt& rt) {
    close_compute(rt, rt.compute_started_at, engine_.now());
    drop_milestone(rt);
    if (rt.work_pos >= rt.job.total_work) {
      begin_output(rt);
      return;
    }
    ++result_.counters.checkpoint_requests;
    bb_free_ -= rt.job.checkpoint_bytes;  // reserved until drained or lost
    rt.state = JobState::kCkptWait;
    submit_request(rt, IoKind::kCheckpoint, rt.job.checkpoint_bytes,
                   /*redo=*/false, /*bb=*/true);
  }

  /// Queue the freshly absorbed snapshot for draining to the PFS. A newer
  /// snapshot subsumes any older one still *waiting* for the token (its
  /// fast-tier space is reclaimed); an already-draining transfer finishes.
  void enqueue_drain(JobRt& rt) {
    for (auto it = rt.drains.begin(); it != rt.drains.end();) {
      if (io_->cancel(it->id)) {
        bb_free_ += it->volume;
        ++result_.counters.bb_drains_superseded;
        it = rt.drains.erase(it);
      } else {
        ++it;
      }
    }
    ++result_.counters.io_requests;
    IoRequest request;
    request.job = rt.job.id;
    request.kind = IoKind::kDrain;
    request.volume = rt.job.checkpoint_bytes;
    request.nodes = rt.job.nodes;
    const RequestId id =
        io_->submit(request, *this, /*tag=*/0, rt.last_drained_end,
                    rt.cls->recovery_seconds);
    rt.drains.push_back(Drain{id, rt.job.checkpoint_bytes, rt.absorb_pos});
  }

  void on_drain_complete(JobId jid, RequestId id) {
    JobRt& rt = running(jid, "drain outlived its job");
    const auto it =
        std::find_if(rt.drains.begin(), rt.drains.end(),
                     [id](const Drain& drain) { return drain.id == id; });
    COOPCR_ASSERT(it != rt.drains.end(), "completion for unknown drain");
    const Drain drain = *it;
    rt.drains.erase(it);
    bb_free_ += drain.volume;
    ++result_.counters.bb_drains_completed;
    // The snapshot is durable now: restarts can resume from here.
    rt.has_snapshot = true;
    rt.snapshot_pos = std::max(rt.snapshot_pos, drain.pos);
    rt.last_drained_end = engine_.now();
    tr(jid, TraceKind::kIoEnd, IoKind::kDrain, drain.volume);
  }

  /// Tear down every outstanding drain of a finished or killed job. For a
  /// failure (`lost` = true) this is the lost-on-failure semantics:
  /// un-drained snapshots lived on the failed nodes' fast tier and are
  /// gone. At job completion the snapshots are merely obsolete.
  void abort_drains(JobRt& rt, bool lost) {
    for (const Drain& drain : rt.drains) {
      io_->abort(drain.id);
      bb_free_ += drain.volume;
      if (lost) {
        ++result_.counters.bb_drains_aborted;
      } else {
        ++result_.counters.bb_drains_withdrawn;
      }
    }
    rt.drains.clear();
  }

  void begin_output(JobRt& rt) {
    cancel_event(rt.ckpt_timer);
    rt.ckpt_due = false;
    rt.state = JobState::kOutputIo;
    submit_request(rt, IoKind::kOutput, rt.job.output_bytes);
  }

  void complete_job(JobRt& rt) {
    ++result_.counters.jobs_completed;
    tr(rt.job.id, TraceKind::kJobComplete);
    // Snapshots of a finished job are garbage: withdraw their drains so the
    // PFS (and the fast tier) stop paying for them.
    abort_drains(rt, /*lost=*/false);
    const JobId jid = rt.job.id;
    note_alloc_change();
    pool_.release(jid);
    by_id_[static_cast<std::size_t>(jid)] = nullptr;
    jobs_.erase(jid);
    pump_scheduler();
  }

  // --- failures ---------------------------------------------------------------

  void on_failure(const Failure& failure) {
    ++result_.counters.failures_total;
    const JobId victim = pool_.owner_of(failure.node);
    if (victim == kNoJob) return;  // spare node: swap is instantaneous
    ++result_.counters.failures_on_jobs;
    kill_job(victim);
  }

  void kill_job(JobId jid) {
    JobRt& rt = running(jid, "failure on unknown job");
    tr(jid, TraceKind::kFailure);

    close_open_intervals(rt, engine_.now());
    drop_milestone(rt);
    cancel_event(rt.ckpt_timer);

    // Tear down any outstanding I/O.
    if (rt.req.live()) {
      account_request_end(rt, /*completed=*/false, engine_.now());
      if (rt.req.kind == IoKind::kCheckpoint &&
          rt.req.started != sim::kTimeNever) {
        ++result_.counters.checkpoints_aborted;
      }
      const RequestId id = rt.req.id;
      const bool was_absorb = rt.req.bb;
      const double volume = rt.req.volume;
      rt.req = ActiveReq{};
      if (id != kInvalidRequest) {
        (was_absorb ? *bb_io_ : *io_).abort(id);
      }
      // A torn-down absorb frees its reserved fast-tier space.
      if (was_absorb) bb_free_ += volume;
    }
    // Un-drained snapshots die with the node: the restart below resumes
    // from `snapshot_pos`, which only ever advanced when a snapshot became
    // durable.
    abort_drains(rt, /*lost=*/true);

    // Build the restart (§5: highest priority; remaining work from the last
    // snapshot; the initial read becomes recovery I/O).
    Job restart = rt.job;
    restart.id = next_job_id_++;
    restart.is_restart = true;
    restart.priority = 1;
    restart.generation = rt.job.generation + 1;
    restart.root = rt.job.root;
    restart.has_checkpoint = rt.has_snapshot;
    if (rt.has_snapshot) {
      restart.work_start = rt.snapshot_pos;
      restart.input_bytes = rt.cls->checkpoint_bytes;
    } else {
      restart.work_start = 0.0;
      restart.input_bytes = rt.cls->input_bytes;
    }
    restart.work_start = std::min(
        restart.work_start, restart.total_work - kMinResidualWork);
    restart.work_start = std::max(restart.work_start, 0.0);
    ++result_.counters.restarts_submitted;

    tr(jid, TraceKind::kRestartSubmit, IoKind::kRecovery,
       static_cast<double>(restart.id));
    note_alloc_change();
    pool_.release(jid);
    by_id_[static_cast<std::size_t>(jid)] = nullptr;
    jobs_.erase(jid);
    scheduler_.submit(restart);
    pump_scheduler();
  }

  // --- teardown ----------------------------------------------------------------

  void cancel_event(sim::EventId& id) {
    if (id != sim::kInvalidEventId) {
      engine_.cancel(id);
      id = sim::kInvalidEventId;
    }
  }

  /// Close the job's open compute interval (if any), then its chunk-blocked
  /// wait, at `t`.
  void close_open_intervals(JobRt& rt, sim::Time t) {
    if (rt.state == JobState::kComputing ||
        (rt.state == JobState::kCkptWaitNb && !rt.chunk_blocked)) {
      close_compute(rt, rt.compute_started_at, t);
    }
    if (rt.chunk_blocked) {
      result_.accounting.add(rt.job.nodes, TimeCategory::kBlockedWait,
                             rt.chunk_blocked_since, t);
      rt.chunk_blocked = false;
    }
  }

  /// Close every open interval at the stop time so segment-clipped accounting
  /// is complete even though jobs are still running.
  void finalize(sim::Time stop) {
    // The engine's clock stops at the last executed event, which can be well
    // before `stop`; the allocation integral must still cover the tail.
    note_alloc_change_at(stop);
    for (auto& [jid, rt] : jobs_) {
      close_open_intervals(rt, stop);
      if (rt.req.live()) {
        // In-flight transfers continue past the stop time; classify the
        // elapsed part as if it completes (the segment clip removes any
        // overhang anyway).
        account_request_end(rt, /*completed=*/true, stop);
        rt.req = ActiveReq{};
      }
    }
  }

  SimulationConfig cfg_;
  sim::Engine& engine_;  ///< workspace-owned, reset at construction
  NodePool pool_;
  JobScheduler scheduler_;
  IoSubsystem* io_ = nullptr;  ///< workspace-owned
  SimulationResult result_;

  IoSubsystem* bb_io_ = nullptr;  ///< workspace-owned fast tier (tiered only)
  bool tiered_ = false;
  double bb_free_ = 0.0;  ///< free fast-tier capacity (bytes)

  // Lookups go through `by_id_`. The hash map stays only because finalize()
  // adds floating-point sums into `Accounting` in its iteration order; any
  // other container would change result bits.
  std::unordered_map<JobId, JobRt> jobs_;
  std::vector<JobRt*> by_id_;  ///< into `jobs_` (nodes never move) or null
  /// Work high-water mark per lineage, indexed by root (an original job id,
  /// all below the initial next_job_id_).
  std::vector<double> lineage_max_;
  JobId next_job_id_ = 0;
  std::uint64_t req_serial_ = 0;
  sim::Time stop_time_ = 0.0;

  double util_accum_ = 0.0;
  sim::Time last_util_t_ = 0.0;
};

}  // namespace

SimulationResult simulate(const SimulationConfig& config,
                          const std::vector<Job>& jobs,
                          const std::vector<Failure>& failures,
                          SimWorkspace& workspace) {
  Runner runner(config, jobs, failures, workspace.impl());
  return runner.run();
}

SimulationResult simulate(const SimulationConfig& config,
                          const std::vector<Job>& jobs,
                          const std::vector<Failure>& failures) {
  SimWorkspace workspace;
  return simulate(config, jobs, failures, workspace);
}

SimulationResult simulate_baseline(const SimulationConfig& config,
                                   const std::vector<Job>& jobs,
                                   SimWorkspace& workspace) {
  SimulationConfig baseline = config;
  baseline.strategy = oblivious_daly();
  baseline.checkpoints_enabled = false;
  baseline.interference = InterferenceModel::kNone;
  Runner runner(baseline, jobs, /*failures=*/{}, workspace.impl());
  return runner.run();
}

SimulationResult simulate_baseline(const SimulationConfig& config,
                                   const std::vector<Job>& jobs) {
  SimWorkspace workspace;
  return simulate_baseline(config, jobs, workspace);
}

}  // namespace coopcr
