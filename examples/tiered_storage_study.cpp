// Example: tiered checkpoint storage (burst-buffer commits) end to end.
//
// Demonstrates the storage-tier subsystem through the facade:
//
//   1. put a burst buffer in front of the PFS with
//      ScenarioBuilder::burst_buffer(capacity_factor, bandwidth);
//   2. turn any strategy into its tiered twin — with_commit(true) or
//      the "-tiered" name suffix ("coop-daly-tiered");
//   3. read the commit-path counters (absorbs, drains, fallbacks, drains
//      lost to failures) and the blocked-commit waste next to the total
//      waste ratio.
//
// Build & run:  ./tiered_storage_study   (COOPCR_REPLICAS to rescale)

#include <iostream>

#include "coopcr.hpp"

using namespace coopcr;

int main() {
  // Cielo with a 400 GB/s fast tier sized to hold the workload's whole
  // checkpoint working set (capacity factor 1).
  const ScenarioConfig scenario = ScenarioBuilder::cielo_apex()
                                      .pfs_bandwidth(units::gb_per_s(40))
                                      .node_mtbf(units::years(2))
                                      .burst_buffer(/*capacity_factor=*/1.0,
                                                    units::gb_per_s(400))
                                      .min_makespan(units::days(10))
                                      .segment(units::days(1), units::days(9))
                                      .build();
  std::cout << "Burst buffer: "
            << scenario.simulation.burst_buffer.capacity / units::kTB
            << " TB @ "
            << scenario.simulation.burst_buffer.bandwidth / units::kGB
            << " GB/s in front of a "
            << scenario.platform.pfs_bandwidth / units::kGB << " GB/s PFS\n\n";

  const std::vector<Strategy> strategies = {
      least_waste(),
      strategy_from_name("coop-daly-tiered"),  // Least-Waste-tiered
      ordered_nb_daly(),
      ordered_nb_daly().with_commit(/*tiered=*/true),
  };
  MonteCarloOptions options = MonteCarloOptions::from_env(4);
  options.keep_results = true;  // per-replica counters for the drain stats
  const MonteCarloReport report =
      run_monte_carlo(scenario, strategies, options);

  std::cout << "Commit-path comparison (" << report.replicas
            << " replicas):\n";
  TablePrinter table({"strategy", "blocked-commit waste", "waste ratio",
                      "absorbs", "drains lost", "fallbacks"});
  for (const StrategyOutcome& outcome : report.outcomes) {
    std::uint64_t absorbs = 0, lost = 0, fallbacks = 0;
    for (const SimulationResult& r : outcome.results) {
      absorbs += r.counters.bb_absorbs;
      lost += r.counters.bb_drains_aborted;
      fallbacks += r.counters.bb_fallbacks;
    }
    table.add_row({outcome.strategy.name(),
                   TablePrinter::fmt(outcome.ckpt_waste_ratio.mean(), 4),
                   TablePrinter::fmt(outcome.waste_ratio.mean(), 4),
                   std::to_string(absorbs), std::to_string(lost),
                   std::to_string(fallbacks)});
  }
  table.print(std::cout);

  const double direct = report.outcome("Least-Waste").ckpt_waste_ratio.mean();
  const double tiered =
      report.outcome("Least-Waste-tiered").ckpt_waste_ratio.mean();
  std::cout << "\nTiered commits cut the time applications spend blocked in "
            << "checkpoint commits by "
            << (direct > 0.0 ? (direct - tiered) / direct * 100.0 : 0.0)
            << "%.\nThe *total* waste ratio moves less (or the other way): "
            << "drains still occupy the PFS,\nand a failure before the drain "
            << "finishes re-executes from the last drained snapshot\n— see "
            << "the A4 reading guide in EXPERIMENTS.md.\n";
  return 0;
}
