// Tiered (burst-buffer) commit path — the §8 storage-tier extension wired
// into the full-platform simulation.
//
// The degradation guarantees are exact, not statistical: a zero-capacity
// buffer and a buffer too small for any checkpoint must reproduce the
// direct path bit for bit (same counters, same accounting, same waste
// ratio). The failure semantics are pinned on a hand-built deterministic
// micro-scenario: an absorbed checkpoint whose drain a failure interrupts
// is lost, and the restart resumes from the last *drained* snapshot.

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

ScenarioBuilder reduced_cielo() {
  return ScenarioBuilder::cielo_apex(/*seed=*/0xD373C7ull)
      .pfs_bandwidth(units::gb_per_s(40))
      .node_mtbf(units::years(2))
      .min_makespan(units::days(10))
      .segment(units::days(1), units::days(9));
}

void expect_same_run(const ReplicaRun& a, const ReplicaRun& b) {
  const SimulationCounters& ca = a.result.counters;
  const SimulationCounters& cb = b.result.counters;
  EXPECT_EQ(ca.failures_total, cb.failures_total);
  EXPECT_EQ(ca.failures_on_jobs, cb.failures_on_jobs);
  EXPECT_EQ(ca.checkpoint_requests, cb.checkpoint_requests);
  EXPECT_EQ(ca.checkpoints_completed, cb.checkpoints_completed);
  EXPECT_EQ(ca.checkpoints_aborted, cb.checkpoints_aborted);
  EXPECT_EQ(ca.checkpoints_cancelled, cb.checkpoints_cancelled);
  EXPECT_EQ(ca.jobs_started, cb.jobs_started);
  EXPECT_EQ(ca.jobs_completed, cb.jobs_completed);
  EXPECT_EQ(ca.restarts_submitted, cb.restarts_submitted);
  EXPECT_EQ(ca.io_requests, cb.io_requests);
  EXPECT_EQ(ca.bb_absorbs, cb.bb_absorbs);
  EXPECT_EQ(ca.bb_drains_completed, cb.bb_drains_completed);
  for (int cat = 0; cat < static_cast<int>(TimeCategory::kCount); ++cat) {
    EXPECT_DOUBLE_EQ(
        a.result.accounting.total(static_cast<TimeCategory>(cat)),
        b.result.accounting.total(static_cast<TimeCategory>(cat)))
        << to_string(static_cast<TimeCategory>(cat));
  }
  EXPECT_DOUBLE_EQ(a.waste_ratio, b.waste_ratio);
  EXPECT_EQ(a.result.events, b.result.events);
}

TEST(TieredCommit, ZeroCapacityDegradesBitIdenticallyToDirect) {
  const ScenarioConfig direct = reduced_cielo().build();
  const ScenarioConfig zero_cap =
      reduced_cielo().burst_buffer(0.0, units::gb_per_s(400)).build();
  const ReplicaRun a = run_replica(direct, least_waste(), /*replica=*/0);
  const ReplicaRun b = run_replica(
      zero_cap, least_waste().with_commit(/*tiered=*/true), /*replica=*/0);
  expect_same_run(a, b);
  EXPECT_EQ(b.result.counters.bb_absorbs, 0u);
  EXPECT_EQ(b.result.counters.bb_fallbacks, 0u);  // no usable buffer at all
}

TEST(TieredCommit, NoBufferConfiguredDegradesBitIdenticallyToDirect) {
  const ScenarioConfig scenario = reduced_cielo().build();
  const ReplicaRun a = run_replica(scenario, ordered_nb_daly(), 0);
  const ReplicaRun b = run_replica(
      scenario, ordered_nb_daly().with_commit(/*tiered=*/true), 0);
  expect_same_run(a, b);
}

TEST(TieredCommit, CapacityBelowEveryCheckpointFallsBackToPfs) {
  // A buffer smaller than the smallest checkpoint can absorb nothing:
  // every commit falls back to the direct PFS path at PFS speed, so the
  // run is bit-identical to direct except for the fallback counter.
  const ScenarioConfig direct = reduced_cielo().build();
  const ScenarioConfig tiny =
      reduced_cielo().burst_buffer(1e-9, units::gb_per_s(400)).build();
  ASSERT_GT(tiny.simulation.burst_buffer.capacity, 0.0);
  for (const auto& cls : tiny.simulation.classes) {
    ASSERT_LT(tiny.simulation.burst_buffer.capacity, cls.checkpoint_bytes);
  }
  const ReplicaRun a = run_replica(direct, least_waste(), 0);
  const ReplicaRun b =
      run_replica(tiny, least_waste().with_commit(/*tiered=*/true), 0);
  expect_same_run(a, b);
  EXPECT_EQ(b.result.counters.bb_absorbs, 0u);
  EXPECT_GT(b.result.counters.bb_fallbacks, 0u);
}

TEST(TieredCommit, TieredReducesBlockedCommitWaste) {
  // With capacity for the whole working set, commits block at 400 GB/s
  // instead of 40 GB/s: the kCheckpoint category must shrink.
  const ScenarioConfig direct = reduced_cielo().build();
  const ScenarioConfig tiered =
      reduced_cielo().burst_buffer(2.0, units::gb_per_s(400)).build();
  const ReplicaRun a = run_replica(direct, least_waste(), 0);
  const ReplicaRun b =
      run_replica(tiered, least_waste().with_commit(/*tiered=*/true), 0);
  EXPECT_GT(b.result.counters.bb_absorbs, 0u);
  EXPECT_GT(b.result.counters.bb_drains_completed, 0u);
  EXPECT_LT(b.result.accounting.total(TimeCategory::kCheckpoint),
            a.result.accounting.total(TimeCategory::kCheckpoint));
}

// --- deterministic micro-scenario for the failure semantics ----------------

/// One 4-node job on a 4-node platform; all volumes/timings chosen so every
/// phase lands on round numbers:
///   PFS 1 MB/s, BB 100 MB/s, checkpoint 1e8 B (C = 100 s at PFS speed,
///   1 s at BB speed), input 4e7 B (40 s), fixed period 200 s with the
///   P - C offset (request every 100 s of compute).
///
/// Timeline under Ordered + tiered: input [0, 40); compute from 40;
/// request 1 at t = 140 (pos 100), absorb [140, 141), drain 1 [141, 241);
/// request 2 at t = 241 (pos 200), absorb [241, 242), drain 2 [242, 342).
struct MicroScenario {
  ScenarioConfig scenario;
  Job job;

  MicroScenario() {
    PlatformSpec platform;
    platform.name = "micro";
    platform.nodes = 4;
    platform.cores_per_node = 1;
    platform.memory_bytes = 4e9;
    platform.pfs_bandwidth = 1e6;
    platform.node_mtbf = units::years(1000);  // failures come from the trace
    ApplicationClass app;
    app.name = "one-job";
    app.workload_share = 1.0;
    app.work_seconds = 1000.0;
    app.cores = 4;
    app.input_fraction = 0.01;       // 4e7 B -> 40 s read
    app.output_fraction = 0.01;
    app.checkpoint_fraction = 0.025; // 1e8 B -> 100 s at PFS, 1 s at BB
    scenario = ScenarioBuilder()
                   .platform(platform)
                   .add_application(app)
                   .burst_buffer(/*capacity_factor=*/10.0,
                                 /*bandwidth=*/1e8)
                   .segment(0.0, 4000.0)
                   .horizon(4000.0)
                   .build();
    const ClassOnPlatform& cls = scenario.simulation.classes[0];
    job.id = 0;
    job.class_index = 0;
    job.nodes = cls.nodes;
    job.total_work = cls.app.work_seconds;
    job.input_bytes = cls.input_bytes;
    job.output_bytes = cls.output_bytes;
    job.checkpoint_bytes = cls.checkpoint_bytes;
    job.root = 0;
  }

  StrategySpec strategy() const {
    return StrategySpec{ordered_coordination(), fixed_period(200.0),
                        RequestOffset::kPeriodMinusCommit, "",
                        /*tiered=*/true};
  }

  /// `horizon` trims the run for exact-count assertions: shortly after the
  /// failure, before the restart's own commits add to the bb counters.
  SimulationResult run(double failure_time, TraceRecorder* trace,
                       double horizon = 4000.0) {
    SimulationConfig cfg = scenario.simulation;
    cfg.strategy = strategy();
    cfg.trace = trace;
    cfg.horizon = horizon;
    const std::vector<Failure> failures = {{failure_time, /*node=*/0}};
    return simulate(cfg, {job}, failures);
  }
};

/// The recovery-read volume of the restart submitted after the failure:
/// checkpoint_bytes when a drained snapshot existed, input_bytes otherwise.
double restart_recovery_volume(const TraceRecorder& trace, JobId restart) {
  for (const TraceEvent& e : trace.for_job(restart)) {
    if (e.kind == TraceKind::kIoStart) {
      EXPECT_EQ(e.io, IoKind::kRecovery);
      return e.detail;
    }
  }
  ADD_FAILURE() << "restart never started its recovery read";
  return -1.0;
}

TEST(TieredCommit, DrainInterruptedByFailureIsLostWithTheNode) {
  MicroScenario micro;
  TraceRecorder trace;
  // t = 300: drain 1 completed (t = 241), drain 2 in flight [242, 342).
  // Horizon 320 stops right after the failure for exact counters.
  const SimulationResult result = micro.run(300.0, &trace, /*horizon=*/320.0);
  const SimulationCounters& c = result.counters;
  EXPECT_EQ(c.bb_absorbs, 2u);
  EXPECT_EQ(c.bb_drains_completed, 1u);
  EXPECT_EQ(c.bb_drains_aborted, 1u);  // drain 2 lost with the node
  EXPECT_EQ(c.restarts_submitted, 1u);
  // The restart recovers the *drained* snapshot: its recovery read carries
  // the checkpoint volume (a from-scratch restart would re-read the input).
  EXPECT_EQ(restart_recovery_volume(trace, /*restart=*/1),
            micro.job.checkpoint_bytes);
}

TEST(TieredCommit, DrainInterruptedByFailureReexecutesFromLastDrained) {
  MicroScenario micro;
  TraceRecorder trace;
  // Same failure, full horizon: the restart resumes from the drained pos-100
  // snapshot and re-executes up to the failure position (pos 258), so the
  // run accumulates 158 s x 4 nodes of lost work — restarting from the
  // absorbed pos-200 snapshot would lose only 58 s x 4, from scratch
  // 258 s x 4.
  const SimulationResult result = micro.run(300.0, &trace);
  EXPECT_EQ(restart_recovery_volume(trace, /*restart=*/1),
            micro.job.checkpoint_bytes);
  const double lost = result.accounting.total(TimeCategory::kLostWork);
  EXPECT_GE(lost, 150.0 * 4);
  EXPECT_LE(lost, 170.0 * 4);
}

TEST(TieredCommit, FailureAfterDrainCompletesRestartsFromNewestSnapshot) {
  MicroScenario micro;
  TraceRecorder trace;
  // t = 350: both drains completed (t = 241 and t = 342); the failure hits
  // at pos 308, so only 108 s x 4 nodes past the pos-200 snapshot are lost.
  const SimulationResult result = micro.run(350.0, &trace);
  EXPECT_EQ(restart_recovery_volume(trace, /*restart=*/1),
            micro.job.checkpoint_bytes);
  const double lost = result.accounting.total(TimeCategory::kLostWork);
  EXPECT_GE(lost, 100.0 * 4);
  EXPECT_LE(lost, 120.0 * 4);
}

TEST(TieredCommit, FailureBeforeAnyDrainRestartsFromScratch) {
  MicroScenario micro;
  TraceRecorder trace;
  // t = 200: checkpoint 1 absorbed (t = 141) but its drain runs [141, 241).
  const SimulationResult result = micro.run(200.0, &trace, /*horizon=*/260.0);
  const SimulationCounters& c = result.counters;
  EXPECT_EQ(c.bb_absorbs, 1u);
  EXPECT_EQ(c.bb_drains_completed, 0u);
  EXPECT_EQ(c.bb_drains_aborted, 1u);
  // No durable snapshot: the restart re-reads the original input.
  EXPECT_EQ(restart_recovery_volume(trace, /*restart=*/1),
            micro.job.input_bytes);
}

TEST(TieredCommit, EveryAbsorbedSnapshotIsEventuallyAccountedFor) {
  MicroScenario micro;
  TraceRecorder trace;
  // Failure after the job is long gone: the run completes cleanly, and
  // every absorb must have been drained, withdrawn at job completion, or
  // superseded by a newer snapshot — no fast-tier space leaks, and no
  // drain counts as failure-lost in a run whose failure hit no job.
  const SimulationResult result = micro.run(3999.0, &trace);
  const SimulationCounters& c = result.counters;
  EXPECT_EQ(c.jobs_completed, 1u);
  EXPECT_GT(c.bb_absorbs, 0u);
  EXPECT_EQ(c.bb_drains_aborted, 0u);
  EXPECT_EQ(c.bb_absorbs, c.bb_drains_completed + c.bb_drains_withdrawn +
                              c.bb_drains_superseded);
}

}  // namespace
}  // namespace coopcr
