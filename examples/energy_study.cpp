// Example: energy accounting and the energy-aware cooperative strategy.
//
// Demonstrates the energy subsystem end to end through the facade:
//
//   1. attach a custom PowerProfile to a scenario (per-node watts for
//      compute / I/O / checkpoint / idle activity);
//   2. run a Monte Carlo campaign and read the new energy outcomes
//      (joules and energy-waste ratio) next to the time-waste ratio;
//   3. show the Aupy et al. energy-optimal period at work: "coop-energy"
//      stretches each class's Daly period by sqrt(P_ckpt / P_compute).
//
// Build & run:  ./energy_study   (COOPCR_REPLICAS to rescale)

#include <iostream>

#include "coopcr.hpp"

using namespace coopcr;

int main() {
  // An I/O-power-heavy machine: checkpoint transfers draw twice the compute
  // power per node (disk arrays + network fully active).
  PowerProfile power;
  power.compute_watts = 200.0;
  power.io_watts = 400.0;
  power.checkpoint_watts = 400.0;
  power.idle_watts = 80.0;

  const ScenarioConfig scenario = ScenarioBuilder::cielo_apex()
                                      .pfs_bandwidth(units::gb_per_s(80))
                                      .node_mtbf(units::years(2))
                                      .power_profile(power)
                                      .min_makespan(units::days(10))
                                      .segment(units::days(1), units::days(9))
                                      .build();

  // The energy-aware period adapts per class: P_E = P_Daly * sqrt(400/200).
  std::cout << "Energy-optimal periods (vs Daly):\n";
  const CheckpointPeriod energy = energy_period();
  for (const ClassOnPlatform& cls : scenario.simulation.classes) {
    std::cout << "  " << cls.app.name << ": " << energy.period_for(cls)
              << " s vs " << cls.daly_period << " s\n";
  }

  const std::vector<Strategy> strategies = {
      oblivious_daly(), least_waste(), strategy_from_name("coop-energy")};
  const MonteCarloReport report = run_monte_carlo(
      scenario, strategies, MonteCarloOptions::from_env(/*default_replicas=*/4));

  std::cout << "\nTime vs energy waste (" << report.replicas
            << " replicas, P_io/P_compute = 2):\n";
  TablePrinter table({"strategy", "waste ratio", "energy waste ratio",
                      "gigajoules"});
  for (const StrategyOutcome& outcome : report.outcomes) {
    table.add_row({outcome.strategy.name(),
                   TablePrinter::fmt(outcome.waste_ratio.mean(), 4),
                   TablePrinter::fmt(outcome.energy_waste_ratio.mean(), 4),
                   TablePrinter::fmt(outcome.energy_joules.mean() / 1e9, 1)});
  }
  table.print(std::cout);

  const double coop = report.outcome("coop-energy").energy_waste_ratio.mean();
  const double lw = report.outcome("Least-Waste").energy_waste_ratio.mean();
  std::cout << "\ncoop-energy saves "
            << (lw > 0.0 ? (lw - coop) / lw * 100.0 : 0.0)
            << "% of Least-Waste's energy waste on this machine.\n";
  return 0;
}
