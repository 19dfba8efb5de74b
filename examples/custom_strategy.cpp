// custom_strategy — defining and running new strategies through the registry,
// without touching core/strategy.* or core/policy.*.
//
// Two extension levels are shown:
//
//  1. Recomposition: "Smallest-First-Daly" — the built-in smallest-transfer-
//     first token arbiter (an SJF-like ablation baseline) composed with Daly
//     periods and the (P - C) request offset, registered under its own name.
//
//  2. A genuinely new policy: "Largest-First-Daly" — a custom TokenPolicy
//     subclass defined *in this file*, wrapped in a SerialCoordination and
//     registered in the coordination registry, then composed into a strategy.
//
// Both are then reachable by name via strategy_from_name() and run head to
// head against two paper baselines on the stressed Cielo operating point.
//
// Usage: custom_strategy [--replicas N]

#include <cstdlib>
#include <iostream>
#include <string>

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

/// A token arbiter the core library does not ship: always grant the largest
/// pending transfer (an adversarial anti-SJF baseline).
class LargestFirstPolicy final : public TokenPolicy {
 public:
  std::size_t select(const std::vector<PendingEntry>& pending,
                     sim::Time /*now*/) override {
    std::size_t best = 0;
    for (std::size_t i = 1; i < pending.size(); ++i) {
      if (pending[i].request.volume > pending[best].request.volume) best = i;
    }
    return best;
  }
  std::string name() const override { return "largest-first"; }
};

}  // namespace

int main(int argc, char** argv) {
  const int replicas =
      static_cast<int>(arg_double(argc, argv, "--replicas", 10.0));

  // --- extension level 1: recompose built-in policies ------------------------
  strategy_registry().add(StrategySpec{smallest_first_coordination(),
                                       daly_period(),
                                       RequestOffset::kPeriodMinusCommit});

  // --- extension level 2: register a brand-new coordination policy -----------
  const auto largest_first = std::make_shared<const SerialCoordination>(
      "Largest-First", /*non_blocking_wait=*/true,
      [](const TokenPolicyContext&) {
        return std::make_unique<LargestFirstPolicy>();
      });
  coordination_registry().add(largest_first);
  strategy_registry().add(StrategySpec{largest_first, daly_period(),
                                       RequestOffset::kPeriodMinusCommit});

  // Both are now plain names — exactly how a CLI or config file would pick
  // them up.
  const std::vector<StrategySpec> strategies = {
      strategy_from_name("Ordered-NB-Daly"),
      strategy_from_name("Least-Waste"),
      strategy_from_name("Smallest-First-Daly"),
      strategy_from_name("Largest-First-Daly"),
  };

  const ScenarioConfig scenario = ScenarioBuilder::cielo_apex()
                                      .pfs_bandwidth(units::gb_per_s(40))
                                      .node_mtbf(units::years(2))
                                      .seed(7)
                                      .build();

  std::cout << "Custom strategies via the registry — Cielo/APEX @ 40 GB/s, "
               "node MTBF 2 y, "
            << replicas << " replicas\n\n";

  const auto options = MonteCarloOptions::from_env(replicas);
  const auto report = run_monte_carlo(scenario, strategies, options);

  TablePrinter table({"strategy", "waste (mean)", "q1", "q3"});
  for (const auto& outcome : report.outcomes) {
    const Candlestick c = outcome.waste_ratio.candlestick();
    table.add_row({outcome.strategy.name(), TablePrinter::fmt(c.mean, 4),
                   TablePrinter::fmt(c.q1, 4), TablePrinter::fmt(c.q3, 4)});
  }
  table.print(std::cout);

  std::cout << "\nToken arbitration matters at scarce bandwidth: Least-Waste "
               "minimises expected\nwaste, smallest-first approximates it by "
               "clearing cheap commits early, and\nlargest-first head-of-line "
               "blocks everyone behind the bulkiest transfer.\n";
  return 0;
}
