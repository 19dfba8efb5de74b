// SweepRunner determinism and equivalence guarantees:
//  * reports are bit-identical for any thread count (threads=1 vs threads=8
//    over a 3x2 grid, compared down to the raw per-replica samples and the
//    emitted CSV/JSON bytes);
//  * the grid-parallel path is identical to per-point run_monte_carlo calls;
//  * adaptive (sequential-stopping) sweeps are thread-invariant and stream
//    their points in grid order;
//  * grid expansion order, point callbacks and error propagation.

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

ScenarioBuilder tiny_base() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5));
}

exp::ExperimentSpec grid_spec() {
  exp::ExperimentSpec spec(tiny_base(), "grid_3x2");
  MonteCarloOptions options;
  options.replicas = 3;
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

TEST(SweepRunner, ReportsAreBitIdenticalAcrossThreadCounts) {
  const exp::ExperimentSpec spec = grid_spec();
  exp::SweepRunner serial(/*threads=*/1);
  exp::SweepRunner parallel(/*threads=*/8);
  const exp::ExperimentReport a = serial.run(spec);
  const exp::ExperimentReport b = parallel.run(spec);

  ASSERT_EQ(a.points.size(), 6u);
  ASSERT_EQ(b.points.size(), 6u);
  for (std::size_t p = 0; p < a.points.size(); ++p) {
    const MonteCarloReport& ra = a.points[p].report;
    const MonteCarloReport& rb = b.points[p].report;
    ASSERT_EQ(ra.outcomes.size(), rb.outcomes.size());
    for (std::size_t s = 0; s < ra.outcomes.size(); ++s) {
      const auto& sa = ra.outcomes[s].waste_ratio.samples();
      const auto& sb = rb.outcomes[s].waste_ratio.samples();
      ASSERT_EQ(sa.size(), sb.size());
      for (std::size_t i = 0; i < sa.size(); ++i) {
        // Exact equality: same replica stream, same reduction order.
        EXPECT_EQ(sa[i], sb[i]) << "point " << p << " strategy " << s
                                << " replica " << i;
      }
    }
  }
  EXPECT_EQ(csv_bytes(a), csv_bytes(b));
  EXPECT_EQ(json_bytes(a), json_bytes(b));
}

TEST(SweepRunner, MatchesPerPointRunMonteCarlo) {
  const exp::ExperimentSpec spec = grid_spec();
  exp::SweepRunner runner(/*threads=*/4);
  const exp::ExperimentReport swept = runner.run(spec);

  MonteCarloOptions options = spec.campaign_options();
  options.threads = 1;
  const std::vector<exp::GridPoint> points = spec.expand();
  ASSERT_EQ(points.size(), swept.points.size());
  for (std::size_t p = 0; p < points.size(); ++p) {
    const MonteCarloReport direct =
        run_monte_carlo(points[p].scenario, spec.strategy_set(), options);
    const MonteCarloReport& viaRunner = swept.points[p].report;
    ASSERT_EQ(direct.outcomes.size(), viaRunner.outcomes.size());
    for (std::size_t s = 0; s < direct.outcomes.size(); ++s) {
      const auto& da = direct.outcomes[s].waste_ratio.samples();
      const auto& va = viaRunner.outcomes[s].waste_ratio.samples();
      ASSERT_EQ(da.size(), va.size());
      for (std::size_t i = 0; i < da.size(); ++i) {
        EXPECT_EQ(da[i], va[i]) << "point " << p << " strategy " << s
                                << " replica " << i;
      }
    }
  }
}

TEST(SweepRunner, GridExpandsRowMajorFirstAxisSlowest) {
  const std::vector<exp::GridPoint> points = grid_spec().expand();
  ASSERT_EQ(points.size(), 6u);
  // bandwidth (3 values) declared first => varies slowest; MTBF fastest.
  const std::vector<std::pair<double, double>> expected = {
      {60, 2}, {60, 8}, {80, 2}, {80, 8}, {100, 2}, {100, 8}};
  for (std::size_t p = 0; p < points.size(); ++p) {
    EXPECT_EQ(points[p].index, p);
    EXPECT_EQ(points[p].coord("pfs_bandwidth_gbps").value, expected[p].first);
    EXPECT_EQ(points[p].coord("node_mtbf_years").value, expected[p].second);
    // The axis edit must actually land in the built scenario.
    EXPECT_DOUBLE_EQ(points[p].scenario.platform.pfs_bandwidth,
                     units::gb_per_s(expected[p].first));
    EXPECT_DOUBLE_EQ(points[p].scenario.platform.node_mtbf,
                     units::years(expected[p].second));
  }
}

TEST(SweepRunner, PointCallbackFiresInGridOrder) {
  exp::SweepRunner runner(/*threads=*/4);
  std::vector<std::size_t> seen;
  runner.on_point([&](const exp::GridPoint& point, const MonteCarloReport& r) {
    seen.push_back(point.index);
    EXPECT_EQ(r.replicas, 3);
  });
  runner.run(grid_spec());
  ASSERT_EQ(seen.size(), 6u);
  for (std::size_t i = 0; i < seen.size(); ++i) EXPECT_EQ(seen[i], i);
}

TEST(SweepRunner, CampaignReduceIsSingleUseAndRequiresCompletion) {
  MonteCarloOptions options;
  options.replicas = 2;
  MonteCarloCampaign incomplete(tiny_base().build(), {least_waste()}, options);
  incomplete.run_replica_task(0);
  EXPECT_THROW(incomplete.reduce(), Error);  // replica 1 never ran

  MonteCarloCampaign campaign(tiny_base().build(), {least_waste()}, options);
  campaign.run_replica_task(0);
  campaign.run_replica_task(1);
  EXPECT_NO_THROW(campaign.reduce());
  EXPECT_THROW(campaign.reduce(), Error);  // outputs already moved out
}

TEST(SweepRunner, PropagatesCampaignErrors) {
  exp::ExperimentSpec spec(tiny_base(), "no_strategies");
  spec.replicas(1);  // strategy set left empty
  exp::SweepRunner runner(/*threads=*/2);
  EXPECT_THROW(runner.run(spec), Error);
}

TEST(SweepRunner, RunNamesTheFailingGridPointAndReplica) {
  // A scenario whose measurement segment lies beyond the drained workload:
  // it builds fine, but every replica task fails its baseline-useful check
  // inside the pool. The rethrown error must say *which* grid point blew up
  // (index + axis values) and which replica, not just the raw message.
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/99)
                               .min_makespan(units::days(2))
                               .segment(units::days(40), units::days(50)),
                           "energy_grid");
  spec.pfs_bandwidth_axis({60, 80}).strategies({least_waste()}).replicas(2);
  exp::SweepRunner runner(/*threads=*/2);
  try {
    runner.run(spec);
    FAIL() << "expected the sweep to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("experiment \"energy_grid\" grid point 0"),
              std::string::npos)
        << what;
    EXPECT_NE(what.find("pfs_bandwidth_gbps=60"), std::string::npos) << what;
    EXPECT_NE(what.find("replica 0"), std::string::npos) << what;
    EXPECT_NE(what.find("baseline run produced no useful work"),
              std::string::npos)
        << what;
  }
}

TEST(SweepRunner, RunBatchNamesTheFailingCampaign) {
  ScenarioConfig broken = ScenarioBuilder::cielo_apex(/*seed=*/99)
                              .min_makespan(units::days(2))
                              .segment(units::days(40), units::days(50))
                              .build();
  MonteCarloOptions options;
  options.replicas = 1;
  exp::SweepRunner runner(/*threads=*/2);
  std::vector<exp::Campaign> batch;
  batch.push_back(exp::Campaign{tiny_base().build(), {least_waste()}, options});
  batch.push_back(exp::Campaign{broken, {least_waste()}, options});
  try {
    runner.run_batch(std::move(batch));
    FAIL() << "expected the batch to fail";
  } catch (const Error& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("sweep batch campaign 1 of 2"), std::string::npos)
        << what;
    EXPECT_NE(what.find("replica 0"), std::string::npos) << what;
  }
}

TEST(SweepRunner, SequentialStoppingMatchesTheFixedCountCampaign) {
  // Pick the target from fixed-count reference runs so the test asserts the
  // exact doubling trajectory: the runner must stop at the first replica
  // count in {4, 8, 16, ...} whose plain 95% CI meets the target, and its
  // samples must be bit-identical to a fixed-count campaign of that size
  // (the snapshot-extend loop adds replicas, never perturbs existing ones).
  constexpr double kZ95 = 1.959963984540054;
  // Must match the swept grid point: the spec below pins bandwidth via its
  // one-value axis, so the reference runs pin it too.
  const ScenarioConfig scenario =
      tiny_base().pfs_bandwidth(units::gb_per_s(80)).build();
  const auto fixed_run = [&](int n) {
    MonteCarloOptions options;
    options.replicas = n;
    options.threads = 2;
    return run_monte_carlo(scenario, {least_waste()}, options);
  };
  const auto ci_width = [&](const MonteCarloReport& report) {
    const SampleSet& w = report.outcomes[0].waste_ratio;
    return 2.0 * kZ95 * w.stddev() /
           std::sqrt(static_cast<double>(report.replicas));
  };
  const double target = ci_width(fixed_run(16)) * 1.0001;
  int expected = 64;
  for (const int n : {4, 8, 16, 32}) {
    if (ci_width(fixed_run(n)) <= target) {
      expected = n;
      break;
    }
  }

  exp::ExperimentSpec spec(tiny_base(), "sequential");
  MonteCarloOptions options;
  options.replicas = 4;
  options.target_ci_width = target;
  options.max_replicas = 64;
  spec.pfs_bandwidth_axis({80}).strategies({least_waste()}).options(options);
  exp::SweepRunner runner(/*threads=*/4);
  const exp::ExperimentReport report = runner.run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  const MonteCarloReport& sequential = report.points[0].report;
  EXPECT_EQ(sequential.replicas, expected);
  EXPECT_TRUE(sequential.vr_enabled);
  EXPECT_LE(sequential.outcomes[0].vr.estimate.ci_width, target);

  const MonteCarloReport reference = fixed_run(expected);
  const auto& ss = sequential.outcomes[0].waste_ratio.samples();
  const auto& rs = reference.outcomes[0].waste_ratio.samples();
  ASSERT_EQ(ss.size(), rs.size());
  for (std::size_t i = 0; i < ss.size(); ++i) EXPECT_EQ(ss[i], rs[i]);
}

TEST(SweepRunner, AdaptiveSweepsAreThreadInvariantAndStreamInGridOrder) {
  // Three points whose CIs settle after different numbers of doubling
  // rounds: each campaign grows on its own as soon as its round drains, so
  // on four threads a later point can settle before an earlier one. The
  // artifacts must still match one thread byte for byte, and on_point must
  // fire in grid order with each point's final replica count.
  exp::ExperimentSpec spec(tiny_base(), "adaptive_grid");
  MonteCarloOptions options;
  options.replicas = 2;
  options.target_ci_width = 0.03;
  options.max_replicas = 32;
  spec.node_mtbf_axis({1, 4, 16}).strategies({least_waste()}).options(options);

  const auto run = [&](int threads) {
    exp::SweepRunner runner(threads);
    std::vector<std::pair<std::size_t, int>> seen;
    runner.on_point(
        [&](const exp::GridPoint& point, const MonteCarloReport& r) {
          seen.emplace_back(point.index, r.replicas);
        });
    exp::ExperimentReport report = runner.run(spec);
    EXPECT_EQ(seen.size(), report.points.size());
    for (std::size_t p = 0; p < seen.size(); ++p) {
      EXPECT_EQ(seen[p].first, p);
      EXPECT_EQ(seen[p].second, report.points[p].report.replicas);
    }
    return report;
  };
  const exp::ExperimentReport serial = run(1);
  const exp::ExperimentReport parallel = run(4);
  // The points stop at 32, 2 and 8 replicas: three different round counts.
  ASSERT_EQ(serial.points.size(), 3u);
  const int r0 = serial.points[0].report.replicas;
  const int r1 = serial.points[1].report.replicas;
  const int r2 = serial.points[2].report.replicas;
  EXPECT_TRUE(r0 != r1 && r1 != r2 && r0 != r2) << r0 << " " << r1 << " " << r2;
  EXPECT_EQ(csv_bytes(serial), csv_bytes(parallel));
  EXPECT_EQ(json_bytes(serial), json_bytes(parallel));
}

TEST(SweepRunner, MaxReplicasCapsTheTotalIncludingRoundOne) {
  // Regression: max_replicas bounds the *total* simulated replicas, round
  // one included. A campaign asked to start above the cap must run exactly
  // cap replicas — not its initial count — and the cap also halts the
  // doubling rounds mid-schedule (an unattainable target with cap 12 grows
  // 4 -> 8 -> 12, stopping at the cap rather than 16).
  const ScenarioConfig scenario = tiny_base().build();
  exp::SweepRunner runner(/*threads=*/2);

  MonteCarloOptions above_cap;
  above_cap.replicas = 32;
  above_cap.target_ci_width = 1e-9;  // unattainable: growth limited by cap
  above_cap.max_replicas = 8;
  std::vector<exp::Campaign> batch;
  batch.push_back(exp::Campaign{scenario, {least_waste()}, above_cap});
  std::vector<MonteCarloReport> reports = runner.run_batch(std::move(batch));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].replicas, 8);

  MonteCarloOptions mid_schedule;
  mid_schedule.replicas = 4;
  mid_schedule.target_ci_width = 1e-9;
  mid_schedule.max_replicas = 12;
  batch.clear();
  batch.push_back(exp::Campaign{scenario, {least_waste()}, mid_schedule});
  reports = runner.run_batch(std::move(batch));
  ASSERT_EQ(reports.size(), 1u);
  EXPECT_EQ(reports[0].replicas, 12);

  // The same contract through run(): the emitted per-point replica count is
  // the cap, and the samples are the deterministic (seed, r) prefix — a
  // fixed-count campaign of the same size matches bit for bit.
  exp::ExperimentSpec spec(tiny_base(), "capped");
  spec.pfs_bandwidth_axis({80}).strategies({least_waste()}).options(above_cap);
  const exp::ExperimentReport report = runner.run(spec);
  ASSERT_EQ(report.points.size(), 1u);
  EXPECT_EQ(report.points[0].report.replicas, 8);
  MonteCarloOptions fixed;
  fixed.replicas = 8;
  const MonteCarloReport reference = run_monte_carlo(
      tiny_base().pfs_bandwidth(units::gb_per_s(80)).build(), {least_waste()},
      fixed);
  const auto& capped = report.points[0].report.outcomes[0].waste_ratio;
  const auto& ref = reference.outcomes[0].waste_ratio;
  ASSERT_EQ(capped.samples().size(), ref.samples().size());
  for (std::size_t i = 0; i < ref.samples().size(); ++i) {
    EXPECT_EQ(capped.samples()[i], ref.samples()[i]);
  }
}

TEST(SweepRunner, RunMonteCarloRejectsSequentialStopping) {
  // The doubling loop lives in SweepRunner; the one-shot wrapper refuses the
  // option instead of silently ignoring it.
  MonteCarloOptions options;
  options.replicas = 2;
  options.target_ci_width = 0.05;
  EXPECT_THROW(
      run_monte_carlo(tiny_base().build(), {least_waste()}, options), Error);
}

TEST(SweepRunner, EmptyAxisYieldsEmptyReport) {
  exp::ExperimentSpec spec(tiny_base(), "empty_axis");
  spec.pfs_bandwidth_axis({}).strategies({least_waste()}).replicas(1);
  EXPECT_EQ(spec.grid_size(), 0u);
  exp::SweepRunner runner(/*threads=*/1);
  const exp::ExperimentReport report = runner.run(spec);
  EXPECT_TRUE(report.points.empty());
}

}  // namespace
}  // namespace coopcr
