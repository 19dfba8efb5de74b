// exp::SweepExecutor: the backend-neutral interface both engines implement.
// Backend selection goes through ExecutorOptions/make_sweep_executor (never
// a concrete type), both backends produce byte-identical reports for the
// same spec, and point callbacks flow through the interface.

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

exp::ExperimentSpec tiny_spec() {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/17)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5)),
                           "executor_grid");
  MonteCarloOptions options;
  options.replicas = 2;
  spec.pfs_bandwidth_axis({60, 100})
      .strategies({oblivious_daly()})
      .options(options);
  return spec;
}

std::string json_bytes(const exp::ExperimentReport& report) {
  std::ostringstream oss;
  report.write_json(oss);
  return oss.str();
}

TEST(SweepExecutor, BackendNameParsing) {
  EXPECT_EQ(exp::executor_backend_from_name("inprocess"),
            exp::ExecutorBackend::kInProcess);
  EXPECT_EQ(exp::executor_backend_from_name("in-process"),
            exp::ExecutorBackend::kInProcess);
  EXPECT_EQ(exp::executor_backend_from_name("dist"),
            exp::ExecutorBackend::kDist);
  EXPECT_THROW(exp::executor_backend_from_name("quantum"), Error);
}

TEST(SweepExecutor, FactoryBuildsTheSelectedBackend) {
  exp::ExecutorOptions in_process;
  in_process.backend = exp::ExecutorBackend::kInProcess;
  EXPECT_EQ(exp::make_sweep_executor(in_process)->backend_name(),
            "in-process");

  exp::ExecutorOptions dist;
  dist.backend = exp::ExecutorBackend::kDist;
  dist.dist.shards = 2;
  EXPECT_EQ(exp::make_sweep_executor(dist)->backend_name(), "dist");
}

TEST(SweepExecutor, BackendsProduceByteIdenticalReports) {
  const exp::ExperimentSpec spec = tiny_spec();

  exp::ExecutorOptions in_process;
  in_process.threads = 1;
  const exp::ExperimentReport a =
      exp::make_sweep_executor(in_process)->run(spec);

  exp::ExecutorOptions dist;
  dist.backend = exp::ExecutorBackend::kDist;
  dist.dist.shards = 2;
  const exp::ExperimentReport b = exp::make_sweep_executor(dist)->run(spec);

  EXPECT_EQ(json_bytes(a), json_bytes(b));
}

TEST(SweepExecutor, PointCallbacksFlowThroughTheInterface) {
  const std::unique_ptr<exp::SweepExecutor> executor =
      exp::make_sweep_executor();
  std::vector<std::size_t> seen;
  executor->on_point(
      [&seen](const exp::GridPoint& point, const MonteCarloReport&) {
        seen.push_back(point.index);
      });
  executor->run(tiny_spec());
  EXPECT_EQ(seen, (std::vector<std::size_t>{0, 1}));
}

}  // namespace
}  // namespace coopcr
