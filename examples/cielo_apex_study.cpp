// cielo_apex_study — interactive study of the paper's §6.1 setting.
//
// Runs a Monte Carlo campaign of all seven strategies on Cielo with the
// APEX workload at a chosen (bandwidth, node-MTBF) operating point and
// prints the waste-ratio candlesticks plus the per-category node-time
// breakdown that explains *where* each strategy loses its node-hours.
//
// Usage:
//   cielo_apex_study [--bandwidth-gbps B] [--mtbf-years Y]
//                    [--replicas N] [--seed S]
//
// Example:
//   ./build/examples/cielo_apex_study --bandwidth-gbps 40 --mtbf-years 2

#include <array>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "coopcr.hpp"

using namespace coopcr;

namespace {

double arg_double(int argc, char** argv, const std::string& flag,
                  double fallback) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (argv[i] == flag) return std::atof(argv[i + 1]);
  }
  return fallback;
}

}  // namespace

int main(int argc, char** argv) {
  const double bandwidth_gbps =
      arg_double(argc, argv, "--bandwidth-gbps", 40.0);
  const double mtbf_years = arg_double(argc, argv, "--mtbf-years", 2.0);
  const int replicas =
      static_cast<int>(arg_double(argc, argv, "--replicas", 10.0));
  const auto seed = static_cast<std::uint64_t>(
      arg_double(argc, argv, "--seed", 42.0));

  const ScenarioConfig scenario =
      ScenarioBuilder::cielo_apex(seed)
          .pfs_bandwidth(units::gb_per_s(bandwidth_gbps))
          .node_mtbf(units::years(mtbf_years))
          .build();

  std::cout << "Cielo / APEX study — " << bandwidth_gbps
            << " GB/s aggregated PFS, node MTBF " << mtbf_years
            << " y (system MTBF "
            << TablePrinter::fmt(scenario.platform.system_mtbf() / units::kHour,
                                 2)
            << " h), " << replicas << " replicas\n\n";

  const MonteCarloOptions options = MonteCarloOptions::from_env(replicas);
  const auto& strategies = paper_strategies();
  const auto report = run_monte_carlo(scenario, strategies, options);

  TablePrinter summary({"strategy", "waste (mean)", "d1", "d9", "utilization",
                        "ckpts/replica", "failures-hit"});
  for (const auto& outcome : report.outcomes) {
    const Candlestick c = outcome.waste_ratio.candlestick();
    summary.add_row({outcome.strategy.name(), TablePrinter::fmt(c.mean, 4),
                     TablePrinter::fmt(c.d1, 4), TablePrinter::fmt(c.d9, 4),
                     TablePrinter::fmt(outcome.utilization.mean(), 4),
                     TablePrinter::fmt(outcome.checkpoints.mean(), 0),
                     TablePrinter::fmt(outcome.failures_hit.mean(), 0)});
  }
  summary.print(std::cout);

  const double bound = lower_bound_waste(scenario.platform,
                                         scenario.applications,
                                         scenario.platform.pfs_bandwidth);
  std::cout << "\nTheorem 1 lower bound at this operating point: "
            << TablePrinter::fmt(bound, 4) << "\n\n";

  // Node-hour breakdown (averaged over replicas), normalised by the
  // baseline's useful node-time: shows where each strategy loses time. The
  // report keeps only the per-replica metric tuples, so the category totals
  // replay each replica through the campaign's own pipeline.
  constexpr int kCategories = static_cast<int>(TimeCategory::kCount);
  std::vector<std::array<double, kCategories>> totals(strategies.size());
  for (int r = 0; r < report.replicas; ++r) {
    SimWorkspace workspace;
    const ReplicaInputs in = prepare_replica(
        scenario, static_cast<std::uint64_t>(r), options.antithetic, workspace);
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      SimulationConfig cfg = scenario.simulation;
      cfg.strategy = strategies[s];
      const SimulationResult result =
          simulate(cfg, in.jobs, in.failures, workspace);
      for (int c = 0; c < kCategories; ++c) {
        totals[s][c] += result.accounting.total(static_cast<TimeCategory>(c));
      }
    }
  }

  std::cout << "Per-category node-time shares (fraction of baseline useful "
               "work):\n\n";
  TablePrinter breakdown({"strategy", "compute", "io", "ckpt", "wait",
                          "dilation", "recovery", "lost"});
  const double baseline = report.baseline_useful.mean();
  for (std::size_t s = 0; s < strategies.size(); ++s) {
    const auto share = [&](TimeCategory c) {
      return TablePrinter::fmt(totals[s][static_cast<int>(c)] /
                                   static_cast<double>(report.replicas) /
                                   baseline,
                               4);
    };
    breakdown.add_row({report.outcomes[s].strategy.name(),
                       share(TimeCategory::kUsefulCompute),
                       share(TimeCategory::kUsefulIo),
                       share(TimeCategory::kCheckpoint),
                       share(TimeCategory::kBlockedWait),
                       share(TimeCategory::kIoDilation),
                       share(TimeCategory::kRecovery),
                       share(TimeCategory::kLostWork)});
  }
  breakdown.print(std::cout);
  std::cout << "\nReading guide: *-Fixed strategies burn node-hours in "
               "checkpoint commits and\nwaits; Oblivious strategies in I/O "
               "dilation; the non-blocking strategies trade\na little extra "
               "lost work for far less idle time (paper §6.1).\n";
  return 0;
}
