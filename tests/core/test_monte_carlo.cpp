// Tests for the Monte Carlo harness: statistics plumbing, thread-count
// independence, env-var options, report lookups.

#include "core/monte_carlo.hpp"

#include <gtest/gtest.h>

#include <cstdlib>

#include "core/scenario.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workload/apex.hpp"

namespace coopcr {
namespace {

ScenarioConfig tiny_scenario() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .pfs_bandwidth(units::gb_per_s(80))
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5))
      .build();
}

TEST(MonteCarlo, CollectsOneSamplePerReplica) {
  const auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 4;
  options.threads = 2;
  const auto report = run_monte_carlo(
      scenario, {least_waste()}, options);
  EXPECT_EQ(report.replicas, 4);
  ASSERT_EQ(report.outcomes.size(), 1u);
  EXPECT_EQ(report.outcomes[0].waste_ratio.size(), 4u);
  EXPECT_EQ(report.baseline_useful.size(), 4u);
  for (const double w : report.outcomes[0].waste_ratio.samples()) {
    EXPECT_GE(w, 0.0);
    EXPECT_LT(w, 1.5);
  }
}

TEST(MonteCarlo, ThreadCountDoesNotChangeResults) {
  const auto scenario = tiny_scenario();
  const std::vector<Strategy> strategies = {oblivious_daly(),
                                            least_waste()};
  MonteCarloOptions serial;
  serial.replicas = 4;
  serial.threads = 1;
  MonteCarloOptions parallel;
  parallel.replicas = 4;
  parallel.threads = 4;
  const auto a = run_monte_carlo(scenario, strategies, serial);
  const auto b = run_monte_carlo(scenario, strategies, parallel);
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const auto& sa = a.outcomes[s].waste_ratio.samples();
    const auto& sb = b.outcomes[s].waste_ratio.samples();
    ASSERT_EQ(sa.size(), sb.size());
    for (std::size_t i = 0; i < sa.size(); ++i) {
      EXPECT_DOUBLE_EQ(sa[i], sb[i]) << "strategy " << s << " replica " << i;
    }
  }
}

TEST(MonteCarlo, StrategiesShareInitialConditions) {
  // Paired comparison: each replica's failure count must be similar across
  // strategies (identical traces; only job lifetimes differ slightly).
  const auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 2;
  options.threads = 1;
  const auto report = run_monte_carlo(scenario,
                                      {ordered_daly(), ordered_nb_daly()},
                                      options);
  const auto& fa = report.outcomes[0].failures_hit.samples();
  const auto& fb = report.outcomes[1].failures_hit.samples();
  for (std::size_t i = 0; i < fa.size(); ++i) {
    EXPECT_NEAR(fa[i], fb[i], 0.15 * std::max(fa[i], fb[i]) + 5.0);
  }
}

TEST(MonteCarlo, OutcomeLookupByName) {
  const auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 1;
  options.threads = 1;
  const auto report = run_monte_carlo(
      scenario, {least_waste()}, options);
  EXPECT_NO_THROW(report.outcome("Least-Waste"));
  EXPECT_THROW(report.outcome("Nope"), Error);
}

TEST(MonteCarlo, KeepResultsRetainsPerReplicaDetail) {
  const auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 2;
  options.threads = 1;
  options.keep_results = true;
  const auto report = run_monte_carlo(
      scenario, {oblivious_fixed()}, options);
  ASSERT_EQ(report.outcomes[0].results.size(), 2u);
  EXPECT_GT(report.outcomes[0].results[0].events, 0u);
}

TEST(MonteCarlo, OptionsFromEnvironment) {
  ::setenv("COOPCR_REPLICAS", "17", 1);
  ::setenv("COOPCR_THREADS", "3", 1);
  const auto options = MonteCarloOptions::from_env(5, 1);
  EXPECT_EQ(options.replicas, 17);
  EXPECT_EQ(options.threads, 3);
  ::unsetenv("COOPCR_REPLICAS");
  ::unsetenv("COOPCR_THREADS");
  const auto defaults = MonteCarloOptions::from_env(5, 1);
  EXPECT_EQ(defaults.replicas, 5);
  EXPECT_EQ(defaults.threads, 1);
}

TEST(MonteCarlo, OptionsFromEnvironmentRejectMalformedValues) {
  // Garbage, trailing junk, negatives and zero replicas must all throw a
  // clear error rather than silently falling back (the historical atoi
  // behaviour turned "1e3" into 1 and "-4" into the default).
  const auto expect_rejected = [](const char* name, const char* value) {
    ::setenv(name, value, 1);
    EXPECT_THROW(MonteCarloOptions::from_env(5, 1), Error)
        << name << "=" << value;
    ::unsetenv(name);
  };
  expect_rejected("COOPCR_REPLICAS", "abc");
  expect_rejected("COOPCR_REPLICAS", "12x");
  expect_rejected("COOPCR_REPLICAS", "1e3");
  expect_rejected("COOPCR_REPLICAS", "-4");
  expect_rejected("COOPCR_REPLICAS", "0");
  expect_rejected("COOPCR_REPLICAS", "99999999999999999999");
  expect_rejected("COOPCR_THREADS", "-1");
  expect_rejected("COOPCR_THREADS", "two");

  // Threads may be 0 (hardware concurrency) and whitespace-free ints parse.
  ::setenv("COOPCR_THREADS", "0", 1);
  EXPECT_EQ(MonteCarloOptions::from_env(5, 1).threads, 0);
  ::unsetenv("COOPCR_THREADS");

  // The error message names the variable and the offending value.
  ::setenv("COOPCR_REPLICAS", "bogus", 1);
  try {
    MonteCarloOptions::from_env(5, 1);
    FAIL() << "expected Error";
  } catch (const Error& e) {
    const std::string message = e.what();
    EXPECT_NE(message.find("COOPCR_REPLICAS"), std::string::npos);
    EXPECT_NE(message.find("bogus"), std::string::npos);
  }
  ::unsetenv("COOPCR_REPLICAS");
}

TEST(MonteCarlo, RejectsBadArguments) {
  const auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 0;
  EXPECT_THROW(run_monte_carlo(scenario, paper_strategies(), options), Error);
  options.replicas = 1;
  EXPECT_THROW(run_monte_carlo(scenario, {}, options), Error);
  // A scenario assembled by hand (bypassing ScenarioBuilder::build) has no
  // resolved classes and must be rejected.
  ScenarioConfig unbuilt;
  unbuilt.platform = PlatformSpec::cielo();
  unbuilt.applications = apex_lanl_classes();
  EXPECT_THROW(run_monte_carlo(unbuilt, paper_strategies(), options), Error);
}

TEST(MonteCarlo, ReduceTwiceNamesTheFootgun) {
  MonteCarloOptions options;
  options.replicas = 1;
  MonteCarloCampaign campaign(tiny_scenario(), {least_waste()}, options);
  campaign.run_replica_task(0);
  campaign.reduce();
  try {
    campaign.reduce();
    FAIL() << "expected the second reduce() to throw";
  } catch (const Error& e) {
    // The message must say *what* went wrong, not just that it did — the
    // single-use contract is easy to trip from generic runner code.
    EXPECT_NE(std::string(e.what()).find("campaign already reduced"),
              std::string::npos)
        << e.what();
  }
}

TEST(MonteCarlo, SlotExportAndInstallRoundTrip) {
  // The dist layer's core primitive: a slot computed in one campaign can be
  // installed into a fresh campaign of the same shape (think: another
  // process), and the reduced report cannot tell the difference.
  MonteCarloOptions options;
  options.replicas = 2;
  MonteCarloCampaign source(tiny_scenario(), {least_waste()}, options);
  EXPECT_FALSE(source.slot_done(0));
  source.run_replica_task(0);
  source.run_replica_task(1);
  EXPECT_TRUE(source.slot_done(0));

  MonteCarloCampaign target(tiny_scenario(), {least_waste()}, options);
  target.install_slot(0, source.slot(0));
  target.install_slot(1, source.slot(1));
  const MonteCarloReport from_slots = target.reduce();
  const MonteCarloReport direct = source.reduce();
  const auto& a = direct.outcomes[0].waste_ratio.samples();
  const auto& b = from_slots.outcomes[0].waste_ratio.samples();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) EXPECT_EQ(a[i], b[i]);
}

TEST(MonteCarlo, InstallSlotRejectsDuplicatesAndBadShapes) {
  MonteCarloOptions options;
  options.replicas = 2;
  MonteCarloCampaign campaign(tiny_scenario(), {least_waste()}, options);
  campaign.run_replica_task(0);

  // Duplicate: slot 0 already holds a result.
  EXPECT_THROW(campaign.install_slot(0, campaign.slot(0)), Error);

  // Wrong shape: a slot with the wrong per-strategy tuple count.
  ReplicaSlot malformed = campaign.slot(0);
  malformed.per_strategy.clear();
  EXPECT_THROW(campaign.install_slot(1, malformed), Error);

  // keep_results campaigns cannot accept foreign slots (no SimulationResult
  // travels with them).
  MonteCarloOptions keep = options;
  keep.keep_results = true;
  MonteCarloCampaign keeper(tiny_scenario(), {least_waste()}, keep);
  EXPECT_THROW(keeper.install_slot(0, campaign.slot(0)), Error);
}

TEST(MonteCarlo, SnapshotExtendLoopIsBitIdenticalToFixedCount) {
  // The sequential-stopping primitive: run 4 replicas, snapshot, grow to 8,
  // run the tail, reduce. Every sample must equal the fixed-count 8-replica
  // campaign's — extend() adds replicas without perturbing existing slots,
  // and snapshot() is non-destructive.
  MonteCarloOptions options;
  options.replicas = 4;
  MonteCarloCampaign campaign(tiny_scenario(), {least_waste()}, options);
  for (int t = 0; t < campaign.tasks(); ++t) campaign.run_replica_task(t);

  const MonteCarloReport snap = campaign.snapshot();
  EXPECT_EQ(snap.replicas, 4);
  ASSERT_EQ(snap.outcomes[0].waste_ratio.size(), 4u);

  campaign.extend(8);
  EXPECT_EQ(campaign.replicas(), 8);
  for (int t = 4; t < campaign.tasks(); ++t) campaign.run_replica_task(t);
  const MonteCarloReport grown = campaign.reduce();

  MonteCarloOptions fixed = options;
  fixed.replicas = 8;
  const MonteCarloReport reference =
      run_monte_carlo(tiny_scenario(), {least_waste()}, fixed);
  const auto& gs = grown.outcomes[0].waste_ratio.samples();
  const auto& rs = reference.outcomes[0].waste_ratio.samples();
  ASSERT_EQ(gs.size(), rs.size());
  for (std::size_t i = 0; i < gs.size(); ++i) {
    EXPECT_EQ(gs[i], rs[i]) << "replica " << i;
    // The snapshot saw the same prefix.
    if (i < 4) {
      EXPECT_EQ(snap.outcomes[0].waste_ratio.samples()[i], gs[i]);
    }
  }
}

TEST(MonteCarlo, InstallSlotStillWorksAfterSnapshotAndExtend) {
  // The dist coordinator's round loop interleaves snapshots with remotely
  // computed slots: installing into the extended tail after a snapshot must
  // behave exactly like running the task locally.
  MonteCarloOptions options;
  options.replicas = 2;
  MonteCarloCampaign campaign(tiny_scenario(), {least_waste()}, options);
  campaign.run_replica_task(0);
  campaign.run_replica_task(1);
  (void)campaign.snapshot();
  campaign.extend(4);

  MonteCarloOptions source_options;
  source_options.replicas = 4;
  MonteCarloCampaign source(tiny_scenario(), {least_waste()}, source_options);
  source.run_replica_task(2);
  source.run_replica_task(3);
  campaign.install_slot(2, source.slot(2));
  campaign.install_slot(3, source.slot(3));

  const MonteCarloReport mixed = campaign.reduce();
  const MonteCarloReport reference =
      run_monte_carlo(tiny_scenario(), {least_waste()}, source_options);
  const auto& ms = mixed.outcomes[0].waste_ratio.samples();
  const auto& rs = reference.outcomes[0].waste_ratio.samples();
  ASSERT_EQ(ms.size(), rs.size());
  for (std::size_t i = 0; i < ms.size(); ++i) EXPECT_EQ(ms[i], rs[i]);
}

TEST(MonteCarlo, SnapshotRequiresCompletionAndRejectsKeepResults) {
  MonteCarloOptions options;
  options.replicas = 2;
  MonteCarloCampaign incomplete(tiny_scenario(), {least_waste()}, options);
  incomplete.run_replica_task(0);
  EXPECT_THROW(incomplete.snapshot(), Error);  // task 1 never ran

  MonteCarloOptions keep = options;
  keep.keep_results = true;
  MonteCarloCampaign keeper(tiny_scenario(), {least_waste()}, keep);
  keeper.run_replica_task(0);
  keeper.run_replica_task(1);
  EXPECT_THROW(keeper.snapshot(), Error);

  // After the destructive reduce(), both snapshot() and extend() are dead.
  MonteCarloCampaign done(tiny_scenario(), {least_waste()}, options);
  done.run_replica_task(0);
  done.run_replica_task(1);
  done.reduce();
  EXPECT_THROW(done.snapshot(), Error);
  EXPECT_THROW(done.extend(4), Error);
}

TEST(MonteCarlo, DifferentSeedsDifferentSamples) {
  auto scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 1;
  options.threads = 1;
  const Strategy lw = least_waste();
  const auto a = run_monte_carlo(scenario, {lw}, options);
  scenario.seed = 12345;
  const auto b = run_monte_carlo(scenario, {lw}, options);
  EXPECT_NE(a.outcomes[0].waste_ratio.samples()[0],
            b.outcomes[0].waste_ratio.samples()[0]);
}

}  // namespace
}  // namespace coopcr
