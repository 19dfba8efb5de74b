// DistSweepRunner end-to-end guarantees, pinned down to emitted bytes:
//  * a multi-process sweep's CSV/JSON reports are byte-identical to the
//    in-process SweepRunner's for any shard count;
//  * a worker SIGKILLed mid-unit is survived (unit re-dispatched) with
//    byte-identical reports;
//  * an interrupted journaled sweep resumes with only the missing units and
//    still produces byte-identical reports;
//  * journals bound to a different grid refuse to resume.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"
#include "dist/fault_injection.hpp"
#include "dist/journal.hpp"

namespace coopcr {
namespace {

ScenarioBuilder tiny_base() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5));
}

/// A fault plan that aborts the coordinator once `units` fresh results
/// have been journaled — a deterministic stand-in for killing it mid-run.
std::shared_ptr<dist::FaultPlan> interrupt_after(int units) {
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->interrupt(units);
  return plan;
}

exp::ExperimentSpec grid_spec(int replicas = 3) {
  exp::ExperimentSpec spec(tiny_base(), "dist_grid_3x2");
  MonteCarloOptions options;
  options.replicas = replicas;
  spec.pfs_bandwidth_axis({60, 80, 100})
      .node_mtbf_axis({2, 8})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return spec;
}

std::string csv_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_csv(oss);
  return oss.str();
}

std::string json_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

exp::ExperimentReport reference_report(const exp::ExperimentSpec& spec) {
  exp::SweepRunner runner(/*threads=*/1);
  return runner.run(spec);
}

class DistRunnerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    journal_ = (std::filesystem::temp_directory_path() /
                ("coopcr_dist_test_" + std::to_string(::getpid()) + "_" +
                 ::testing::UnitTest::GetInstance()
                     ->current_test_info()
                     ->name() +
                 ".journal"))
                   .string();
    std::filesystem::remove(journal_);
  }
  void TearDown() override { std::filesystem::remove(journal_); }

  std::string journal_;
};

TEST_F(DistRunnerTest, ReportsMatchInProcessRunnerByteForByteAcrossShards) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  for (const int shards : {1, 2, 3}) {
    dist::DistOptions options;
    options.shards = shards;
    dist::DistSweepRunner runner(options);
    const exp::ExperimentReport distributed = runner.run(spec);
    EXPECT_EQ(csv_bytes(reference), csv_bytes(distributed))
        << "shards=" << shards;
    EXPECT_EQ(json_bytes(reference), json_bytes(distributed))
        << "shards=" << shards;
  }
}

TEST_F(DistRunnerTest, PointCallbackFiresInGridOrder) {
  dist::DistOptions options;
  options.shards = 2;
  dist::DistSweepRunner runner(options);
  std::vector<std::size_t> seen;
  runner.on_point([&](const exp::GridPoint& point, const MonteCarloReport& r) {
    seen.push_back(point.index);
    EXPECT_EQ(r.replicas, 3);
  });
  runner.run(grid_spec());
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST_F(DistRunnerTest, SurvivesWorkerKilledMidUnitWithIdenticalReports) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  // Worker 0 is SIGKILLed once 2 results have landed, most likely with a
  // unit in flight — the re-dispatched unit and the dead worker must leave
  // no trace in the output.
  auto plan = std::make_shared<dist::FaultPlan>();
  plan->kill_worker(0, 2);
  dist::DistOptions options;
  options.shards = 3;
  options.fault_plan = plan;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport survived = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(survived));
  EXPECT_EQ(json_bytes(reference), json_bytes(survived));
}

TEST_F(DistRunnerTest, InterruptedJournaledSweepResumesByteIdentically) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);

  // Phase 1: journaled sweep aborted after 7 of the 18 units.
  {
    dist::DistOptions options;
    options.shards = 2;
    options.journal = journal_;
    options.fault_plan = interrupt_after(7);
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(spec), Error);
  }
  ASSERT_TRUE(std::filesystem::exists(journal_));

  // Phase 2: resume. Only the missing units re-run; the report must not
  // betray the interruption.
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resumed = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resumed));
  EXPECT_EQ(json_bytes(reference), json_bytes(resumed));
}

TEST_F(DistRunnerTest, ResumeAfterWorkerKillStillMatches) {
  const exp::ExperimentSpec spec = grid_spec();
  const exp::ExperimentReport reference = reference_report(spec);

  // Both failure modes at once: worker 0 dies mid-unit AND the coordinator
  // aborts partway through, leaving a partial journal behind.
  {
    dist::DistOptions options;
    options.shards = 2;
    options.journal = journal_;
    options.fault_plan = interrupt_after(9);
    options.fault_plan->kill_worker(0, 1);
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(spec), Error);
  }

  dist::DistOptions options;
  options.shards = 3;  // resuming with a different shard count is fine too
  options.journal = journal_;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resumed = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resumed));
  EXPECT_EQ(json_bytes(reference), json_bytes(resumed));
}

TEST_F(DistRunnerTest, FullyJournaledSweepResumesWithoutSpawningWorkers) {
  const exp::ExperimentSpec spec = grid_spec();
  {
    dist::DistOptions options;
    options.shards = 2;
    options.journal = journal_;
    dist::DistSweepRunner runner(options);
    runner.run(spec);
  }
  // Every unit is journaled: the resume dispatches nothing and still
  // reduces the full report.
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resumed = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference_report(spec)), csv_bytes(resumed));
}

TEST_F(DistRunnerTest, RefusesJournalFromADifferentGrid) {
  {
    dist::DistOptions options;
    options.shards = 2;
    options.journal = journal_;
    options.fault_plan = interrupt_after(3);
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(grid_spec()), Error);
  }
  // Same journal, different replica count => different digest.
  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec(/*replicas=*/4));
    FAIL() << "expected a digest mismatch";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("different"), std::string::npos)
        << e.what();
  }
}

TEST_F(DistRunnerTest, FreshRunRefusesAnExistingJournal) {
  {
    dist::DistOptions options;
    options.shards = 1;
    options.journal = journal_;
    dist::DistSweepRunner runner(options);
    runner.run(grid_spec());
  }
  dist::DistOptions options;
  options.shards = 1;
  options.journal = journal_;  // resume not set
  dist::DistSweepRunner runner(options);
  try {
    runner.run(grid_spec());
    FAIL() << "expected the existing journal to be refused";
  } catch (const Error& e) {
    EXPECT_NE(std::string(e.what()).find("already exists"), std::string::npos)
        << e.what();
  }
}

TEST_F(DistRunnerTest, AntitheticCampaignCrossesTheWireByteIdentically) {
  // Antithetic pairs end to end: reflected-stream partner replicas and
  // control-variate predictors computed in worker processes. Reports must
  // match the in-process runner byte for byte, including a journaled run
  // resumed from disk.
  exp::ExperimentSpec spec = grid_spec(/*replicas=*/4);
  MonteCarloOptions options = spec.campaign_options();
  options.antithetic = true;
  options.control_variate = true;
  spec.options(options);
  const exp::ExperimentReport reference = reference_report(spec);
  EXPECT_TRUE(reference.points[0].report.vr_enabled);

  for (const int shards : {1, 2}) {
    dist::DistOptions dist_options;
    dist_options.shards = shards;
    dist::DistSweepRunner runner(dist_options);
    const exp::ExperimentReport distributed = runner.run(spec);
    EXPECT_EQ(csv_bytes(reference), csv_bytes(distributed))
        << "shards=" << shards;
    EXPECT_EQ(json_bytes(reference), json_bytes(distributed))
        << "shards=" << shards;
  }

  // Journal the sweep, then rebuild the report purely from the journal: the
  // slot records must round-trip through disk as faithfully as through the
  // pipe.
  {
    dist::DistOptions dist_options;
    dist_options.shards = 2;
    dist_options.journal = journal_;
    dist::DistSweepRunner runner(dist_options);
    runner.run(spec);
  }
  dist::DistOptions resume_options;
  resume_options.shards = 2;
  resume_options.journal = journal_;
  resume_options.resume = true;
  dist::DistSweepRunner resumer(resume_options);
  const exp::ExperimentReport resumed = resumer.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resumed));
  EXPECT_EQ(json_bytes(reference), json_bytes(resumed));
}

exp::ExperimentSpec adaptive_spec() {
  exp::ExperimentSpec spec(tiny_base(), "dist_adaptive_2x1");
  MonteCarloOptions options;
  options.replicas = 4;
  // An unattainable target pins the trajectory: every round doubles until
  // the cap, so the test asserts the full 4 → 8 → 16 growth schedule
  // without depending on the waste distribution's actual spread.
  options.target_ci_width = 1e-9;
  options.max_replicas = 16;
  spec.pfs_bandwidth_axis({60, 100})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  return spec;
}

TEST_F(DistRunnerTest, SequentialStoppingMatchesInProcessRunnerByteForByte) {
  // Dist-wide sequential stopping: the coordinator takes the same
  // snapshot-extend round decisions (exp::next_sequential_round) on the
  // same slots as the in-process runner, so an adaptive sweep's replica
  // trajectory and artifacts are byte-identical across backends and shard
  // counts.
  const exp::ExperimentSpec spec = adaptive_spec();
  const exp::ExperimentReport reference = reference_report(spec);
  ASSERT_EQ(reference.points[0].report.replicas, 16);
  for (const int shards : {1, 3}) {
    dist::DistOptions options;
    options.shards = shards;
    dist::DistSweepRunner runner(options);
    const exp::ExperimentReport distributed = runner.run(spec);
    EXPECT_EQ(distributed.points[0].report.replicas, 16)
        << "shards=" << shards;
    EXPECT_EQ(csv_bytes(reference), csv_bytes(distributed))
        << "shards=" << shards;
    EXPECT_EQ(json_bytes(reference), json_bytes(distributed))
        << "shards=" << shards;
  }
}

TEST_F(DistRunnerTest, AdaptiveJournaledSweepResumesMidRoundByteIdentically) {
  // A journaled adaptive sweep interrupted *inside* an extend round (after
  // the round record, before the round's units finish) must resume into the
  // grown campaign sizes and land on the same bytes. The contrast is on so
  // the convergence rule exercises the contrast-aware path.
  exp::ExperimentSpec spec = adaptive_spec();
  MonteCarloOptions mc = spec.campaign_options();
  mc.contrast_reference = spec.strategy_set()[0].name();
  spec.options(mc);
  const exp::ExperimentReport reference = reference_report(spec);
  ASSERT_EQ(reference.points[0].report.replicas, 16);

  // Round one is 2 points x 4 replicas = 8 units; interrupting after 10
  // lands mid-way through the first extend round.
  {
    dist::DistOptions options;
    options.shards = 2;
    options.journal = journal_;
    options.fault_plan = interrupt_after(10);
    dist::DistSweepRunner runner(options);
    EXPECT_THROW(runner.run(spec), Error);
  }
  ASSERT_TRUE(std::filesystem::exists(journal_));

  dist::DistOptions options;
  options.shards = 2;
  options.journal = journal_;
  options.resume = true;
  dist::DistSweepRunner runner(options);
  const exp::ExperimentReport resumed = runner.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resumed));
  EXPECT_EQ(json_bytes(reference), json_bytes(resumed));
}

TEST_F(DistRunnerTest, PredictedRoundSizesMatchAcrossShardsAndResume) {
  // An attainable contrast target: each round is sized from the measured
  // CI, so the points settle at 14 (4 -> 8 -> 14) and 36
  // (4 -> 8 -> 16 -> 32 -> 36) replicas — sizes no doubling from 4
  // reaches, below the cap of 64. The dist coordinator must take the same
  // predictions at any shard count, and a resume from inside the third
  // round (units 17-30; the interrupt lands after 20) must replay them.
  exp::ExperimentSpec spec(tiny_base(), "dist_adaptive_predicted");
  MonteCarloOptions options;
  options.replicas = 4;
  options.target_ci_width = 0.02;
  options.max_replicas = 64;
  options.contrast_reference = oblivious_daly().name();
  spec.pfs_bandwidth_axis({60, 100})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  const exp::ExperimentReport reference = reference_report(spec);
  ASSERT_EQ(reference.points.size(), 2u);
  EXPECT_EQ(reference.points[0].report.replicas, 14);
  EXPECT_EQ(reference.points[1].report.replicas, 36);
  for (const exp::PointResult& point : reference.points) {
    EXPECT_LE(point.report.outcomes[1].contrast.estimate.ci_width, 0.02);
  }

  for (const int shards : {1, 3}) {
    dist::DistOptions dist_options;
    dist_options.shards = shards;
    dist::DistSweepRunner runner(dist_options);
    const exp::ExperimentReport distributed = runner.run(spec);
    EXPECT_EQ(csv_bytes(reference), csv_bytes(distributed))
        << "shards=" << shards;
    EXPECT_EQ(json_bytes(reference), json_bytes(distributed))
        << "shards=" << shards;
  }

  {
    dist::DistOptions interrupted;
    interrupted.shards = 3;
    interrupted.journal = journal_;
    interrupted.fault_plan = interrupt_after(20);
    dist::DistSweepRunner runner(interrupted);
    EXPECT_THROW(runner.run(spec), Error);
  }
  ASSERT_TRUE(std::filesystem::exists(journal_));
  dist::DistOptions resume;
  resume.shards = 3;
  resume.journal = journal_;
  resume.resume = true;
  dist::DistSweepRunner resumer(resume);
  const exp::ExperimentReport resumed = resumer.run(spec);
  EXPECT_EQ(csv_bytes(reference), csv_bytes(resumed));
  EXPECT_EQ(json_bytes(reference), json_bytes(resumed));
}

TEST_F(DistRunnerTest, RejectsBadShardCounts) {
  dist::DistOptions zero;
  zero.shards = 0;
  EXPECT_THROW(dist::DistSweepRunner{zero}, Error);
}

TEST_F(DistRunnerTest, SpecDigestSeparatesGridsAndIsStable) {
  const exp::ExperimentSpec a = grid_spec();
  const exp::ExperimentSpec b = grid_spec();
  EXPECT_EQ(dist::spec_digest(a, a.expand()), dist::spec_digest(b, b.expand()));
  const exp::ExperimentSpec c = grid_spec(/*replicas=*/4);
  EXPECT_NE(dist::spec_digest(a, a.expand()), dist::spec_digest(c, c.expand()));

  exp::ExperimentSpec renamed = grid_spec();
  renamed.name("other_name");
  EXPECT_NE(dist::spec_digest(a, a.expand()),
            dist::spec_digest(renamed, renamed.expand()));
}

}  // namespace
}  // namespace coopcr
