// serve::QueryEngine: multilinear interpolation agrees with a direct Monte
// Carlo campaign at a held-out grid point (within pooled 3σ), on-grid
// queries return stored means exactly, ranking follows the metric's
// direction, and queries the grid cannot answer fall back through the
// SweepExecutor interface — exercised with BOTH backends, which must agree
// bit-for-bit (the repo's determinism contract).

#include <gtest/gtest.h>

#include <cmath>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

std::string demo_artifact(const std::vector<double>& bandwidths,
                          const std::vector<double>& alphas,
                          int replicas = 8) {
  exp::ExperimentSpec spec = exp::build_named_spec("demo", replicas);
  spec.clear_axes()
      .named_axis("pfs_bandwidth_gbps", bandwidths)
      .named_axis("interference_alpha", alphas);
  const exp::ExperimentReport report =
      exp::SweepRunner(/*threads=*/1).run(spec);
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

serve::AdvisorQuery demo_query(double bandwidth, double alpha,
                               const std::string& metric = "") {
  serve::AdvisorQuery query;
  query.coords = {{"pfs_bandwidth_gbps", bandwidth},
                  {"interference_alpha", alpha}};
  query.metric = metric;
  return query;
}

TEST(QueryEngine, HeldOutPointWithinPooledThreeSigma) {
  // Grid over a short bandwidth bracket [70, 90]; the 80 column is held
  // out and queried. The bracket is narrow enough that the multilinear
  // model's curvature bias is far below the Monte Carlo noise floor.
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(demo_artifact({70, 90}, {0.0}), "grid.json"));
  serve::QueryEngine engine(store);

  const serve::AdvisorAnswer answer = engine.answer(demo_query(80, 0.0));
  EXPECT_EQ(answer.source, "interpolated");
  ASSERT_EQ(answer.ranking.size(), 2u);

  // Direct reference campaign at the held-out point (independent samples).
  exp::ExperimentSpec direct = exp::build_named_spec("demo", 8);
  direct.clear_axes()
      .named_axis("pfs_bandwidth_gbps", {80})
      .named_axis("interference_alpha", {0.0});
  const exp::ExperimentReport reference =
      exp::SweepRunner(/*threads=*/1).run(direct);
  ASSERT_EQ(reference.points.size(), 1u);

  for (const StrategyOutcome& outcome : reference.points[0].report.outcomes) {
    const serve::StrategyEstimate* estimate = nullptr;
    for (const serve::StrategyEstimate& e : answer.ranking) {
      if (e.strategy == outcome.strategy.name()) estimate = &e;
    }
    ASSERT_NE(estimate, nullptr) << outcome.strategy.name();
    const SampleSet& samples =
        exp::metric_samples(outcome, exp::Metric::kWasteRatio);
    const double direct_mean = samples.mean();
    const double direct_se =
        samples.stddev() / std::sqrt(static_cast<double>(samples.size()));
    const double pooled =
        std::sqrt(estimate->se * estimate->se + direct_se * direct_se);
    EXPECT_NEAR(estimate->value, direct_mean, 3.0 * pooled)
        << outcome.strategy.name();
    EXPECT_GT(estimate->se, 0.0);
    EXPECT_NEAR(estimate->ci_halfwidth, 1.96 * estimate->se,
                0.01 * estimate->ci_halfwidth);
  }
  EXPECT_EQ(engine.counters().interpolated, 1u);
  EXPECT_EQ(engine.counters().computed, 0u);
}

TEST(QueryEngine, OnGridQueryReturnsStoredMeansExactly) {
  serve::GridStore store;
  ASSERT_TRUE(
      store.ingest_text(demo_artifact({40, 120}, {0.0, 1.0}, 2), "g.json"));
  serve::QueryEngine engine(store);

  const serve::AdvisorAnswer answer = engine.answer(demo_query(120, 1.0));
  EXPECT_EQ(answer.source, "interpolated");
  const serve::StoredGrid& grid = store.sole();
  const exp::LoadedPoint& cell = grid.at({1, 1});
  for (const serve::StrategyEstimate& estimate : answer.ranking) {
    const exp::LoadedSummary* summary = nullptr;
    for (const exp::LoadedStrategy& s : cell.strategies) {
      if (s.name == estimate.strategy) summary = &s.metric("waste_ratio");
    }
    ASSERT_NE(summary, nullptr);
    EXPECT_EQ(estimate.value, summary->candle.mean);  // exact, not near
    EXPECT_EQ(estimate.se, summary->se);
  }
  // Coords come back in grid axis order regardless of query order.
  ASSERT_EQ(answer.coords.size(), 2u);
  EXPECT_EQ(answer.coords[0].first, "pfs_bandwidth_gbps");
  EXPECT_EQ(answer.coords[1].first, "interference_alpha");
  // The demo experiment is registry-rebuildable, so the best strategy
  // carries per-application checkpoint periods.
  EXPECT_FALSE(answer.best_periods.empty());
  for (const serve::AppPeriod& period : answer.best_periods) {
    EXPECT_GT(period.seconds, 0.0) << period.app;
  }
}

TEST(QueryEngine, RankingFollowsTheMetricDirection) {
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(demo_artifact({70, 90}, {0.0}, 2), "g.json"));
  serve::QueryEngine engine(store);

  const serve::AdvisorAnswer waste = engine.answer(demo_query(80, 0.0));
  EXPECT_FALSE(waste.higher_is_better);
  ASSERT_EQ(waste.ranking.size(), 2u);
  EXPECT_LE(waste.ranking[0].value, waste.ranking[1].value);
  EXPECT_EQ(&waste.best(), &waste.ranking[0]);

  const serve::AdvisorAnswer efficiency =
      engine.answer(demo_query(80, 0.0, "efficiency"));
  EXPECT_TRUE(efficiency.higher_is_better);
  EXPECT_GE(efficiency.ranking[0].value, efficiency.ranking[1].value);
}

TEST(QueryEngine, OutOfHullFallsBackThroughBothBackendsIdentically) {
  serve::GridStore store;
  ASSERT_TRUE(
      store.ingest_text(demo_artifact({40, 120}, {0.0, 1.0}, 2), "g.json"));

  serve::EngineOptions in_process;
  in_process.fallback_replicas = 2;
  in_process.executor.threads = 1;
  serve::QueryEngine engine_a(store, in_process);

  serve::EngineOptions dist = in_process;
  dist.executor.backend = exp::ExecutorBackend::kDist;
  dist.executor.dist.shards = 2;
  serve::QueryEngine engine_b(store, dist);

  // Bandwidth 160 is outside the [40, 120] hull.
  const serve::AdvisorAnswer a = engine_a.answer(demo_query(160, 0.5));
  const serve::AdvisorAnswer b = engine_b.answer(demo_query(160, 0.5));

  EXPECT_EQ(a.source, "computed");
  EXPECT_EQ(a.backend, "in-process");
  EXPECT_EQ(b.source, "computed");
  EXPECT_EQ(b.backend, "dist");
  EXPECT_EQ(engine_a.counters().computed, 1u);
  EXPECT_EQ(engine_a.counters().out_of_hull, 1u);
  EXPECT_EQ(engine_b.counters().computed, 1u);

  // The determinism contract: both backends simulate the same campaign and
  // must agree bit-for-bit.
  ASSERT_EQ(a.ranking.size(), b.ranking.size());
  for (std::size_t i = 0; i < a.ranking.size(); ++i) {
    EXPECT_EQ(a.ranking[i].strategy, b.ranking[i].strategy);
    EXPECT_EQ(a.ranking[i].value, b.ranking[i].value);
    EXPECT_EQ(a.ranking[i].se, b.ranking[i].se);
  }
}

TEST(QueryEngine, MissingCornerFallsBack) {
  serve::GridStore store;
  // L-shaped grid: the (120, 1) corner is never ingested.
  ASSERT_TRUE(store.ingest_text(demo_artifact({40}, {0.0, 1.0}, 2), "a.json"));
  ASSERT_TRUE(store.ingest_text(demo_artifact({120}, {0.0}, 2), "b.json"));

  serve::EngineOptions options;
  options.fallback_replicas = 2;
  options.executor.threads = 1;
  serve::QueryEngine engine(store, options);

  const serve::AdvisorAnswer answer = engine.answer(demo_query(80, 0.5));
  EXPECT_EQ(answer.source, "computed");
  EXPECT_EQ(engine.counters().missing_corner, 1u);
}

TEST(QueryEngine, ConfidenceGateTriggersRecomputation) {
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(demo_artifact({70, 90}, {0.0}, 2), "g.json"));

  serve::EngineOptions options;
  options.max_ci_halfwidth = 1e-12;  // nothing interpolated can pass
  options.fallback_replicas = 2;
  options.executor.threads = 1;
  serve::QueryEngine engine(store, options);

  const serve::AdvisorAnswer answer = engine.answer(demo_query(80, 0.0));
  EXPECT_EQ(answer.source, "computed");
  EXPECT_EQ(engine.counters().low_confidence, 1u);
  EXPECT_EQ(engine.counters().interpolated, 0u);
}

TEST(QueryEngine, RejectsMalformedQueries) {
  serve::GridStore store;
  ASSERT_TRUE(store.ingest_text(demo_artifact({70, 90}, {0.0}, 2), "g.json"));
  serve::QueryEngine engine(store);

  serve::AdvisorQuery wrong_axis;
  wrong_axis.coords = {{"pfs_bandwidth_gbps", 80}, {"node_mtbf_years", 2}};
  EXPECT_THROW(engine.answer(wrong_axis), Error);

  serve::AdvisorQuery missing_axis;
  missing_axis.coords = {{"pfs_bandwidth_gbps", 80}};
  EXPECT_THROW(engine.answer(missing_axis), Error);

  serve::AdvisorQuery bad_metric = demo_query(80, 0.0, "no_such_metric");
  EXPECT_THROW(engine.answer(bad_metric), Error);

  serve::AdvisorQuery bad_experiment = demo_query(80, 0.0);
  bad_experiment.experiment = "unknown_experiment";
  EXPECT_THROW(engine.answer(bad_experiment), Error);
}

TEST(QueryEngine, MetricDirectionTable) {
  EXPECT_FALSE(serve::metric_higher_is_better("waste_ratio"));
  EXPECT_FALSE(serve::metric_higher_is_better("energy_waste_ratio"));
  EXPECT_FALSE(serve::metric_higher_is_better("ckpt_waste_ratio"));
  EXPECT_FALSE(serve::metric_higher_is_better("energy_joules"));
  EXPECT_TRUE(serve::metric_higher_is_better("efficiency"));
  EXPECT_TRUE(serve::metric_higher_is_better("utilization"));
}

}  // namespace
}  // namespace coopcr
