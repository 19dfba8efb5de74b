// Figure 3 — "Minimum aggregated filesystem bandwidth to reach 80%
// efficiency with the different approaches on the prospective future
// system." (§6.2)
//
// Setting: the prospective system (50,000 nodes, 7 PB memory) running the
// APEX workload projected onto it (problem sizes scaled with machine
// memory). For each node MTBF in 5..25 years and each strategy, bisect on
// the aggregated bandwidth for the smallest value whose mean waste ratio is
// <= 20% (i.e. >= 80% efficiency); the model series uses Theorem 1 directly.
//
// The bisection runs in *lockstep*: every (MTBF, strategy) cell advances one
// probe per round, and all probes of a round form one exp::SweepRunner batch
// on the shared pool — grid-level parallelism for an adaptive sweep. Each
// cell replays exactly the probe sequence of bisect_threshold
// (util/numeric.hpp), so the results match the historical sequential bench
// bit for bit.
//
// This is the most expensive bench (a Monte Carlo campaign per bisection
// probe); the default replica count is small. COOPCR_REPLICAS /
// COOPCR_THREADS / COOPCR_CSV_DIR honoured as usual.

#include <iostream>

#include "coopcr.hpp"

using namespace coopcr;

namespace {

/// One bisection cell: a (node MTBF, strategy) pair hunting the smallest
/// bandwidth meeting the waste target. The phase machine mirrors
/// bisect_threshold: probe lo, probe hi, then halve until xtol / max_iter.
struct Cell {
  double years = 0.0;
  Strategy strategy;
  double lo = 0.0;
  double hi = 0.0;
  enum class Phase { kProbeLo, kProbeHi, kBisect, kDone } phase =
      Phase::kProbeLo;
  int iterations = 0;
  double probe = 0.0;
  double result = 0.0;
};

constexpr int kMaxIter = 200;  // bisect_threshold default

}  // namespace

int main() {
  const auto options = MonteCarloOptions::from_env(/*default_replicas=*/4);
  const std::vector<double> mtbf_years = {5, 10, 15, 20, 25};
  const double target_waste = 0.20;  // 80% efficiency target
  const double lo = units::tb_per_s(0.25);
  const double hi = units::tb_per_s(60);
  // Bandwidth resolution of the bisection (the paper plots 5..25 TB/s).
  const double xtol = units::tb_per_s(0.25);

  std::vector<Cell> cells;
  for (const double years : mtbf_years) {
    for (const Strategy& strategy : paper_strategies()) {
      Cell cell;
      cell.years = years;
      cell.strategy = strategy;
      cell.lo = lo;
      cell.hi = hi;
      cells.push_back(cell);
    }
  }

  exp::SweepRunner runner(options.threads);
  int round = 0;
  for (;;) {
    // Collect this round's probes: one campaign per active cell.
    std::vector<std::size_t> active;
    std::vector<exp::Campaign> campaigns;
    for (std::size_t i = 0; i < cells.size(); ++i) {
      Cell& cell = cells[i];
      if (cell.phase == Cell::Phase::kDone) continue;
      switch (cell.phase) {
        case Cell::Phase::kProbeLo: cell.probe = cell.lo; break;
        case Cell::Phase::kProbeHi: cell.probe = cell.hi; break;
        default: cell.probe = 0.5 * (cell.lo + cell.hi); break;
      }
      active.push_back(i);
      campaigns.push_back(exp::Campaign{
          ScenarioBuilder::prospective_apex()
              .pfs_bandwidth(cell.probe)
              .node_mtbf(units::years(cell.years))
              .build(),
          {cell.strategy},
          options});
    }
    if (active.empty()) break;
    std::cerr << "[fig3] bisection round " << ++round << ": "
              << active.size() << " probes\n";

    const auto reports = runner.run_batch(std::move(campaigns));
    for (std::size_t k = 0; k < active.size(); ++k) {
      Cell& cell = cells[active[k]];
      const bool hit =
          reports[k].outcomes[0].waste_ratio.mean() <= target_waste;
      switch (cell.phase) {
        case Cell::Phase::kProbeLo:
          if (hit) {
            cell.result = cell.lo;
            cell.phase = Cell::Phase::kDone;
          } else {
            cell.phase = Cell::Phase::kProbeHi;
          }
          continue;
        case Cell::Phase::kProbeHi:
          if (!hit) {
            cell.result = cell.hi;
            cell.phase = Cell::Phase::kDone;
            continue;
          }
          cell.phase = Cell::Phase::kBisect;
          break;
        case Cell::Phase::kBisect:
          if (hit) {
            cell.hi = cell.probe;
          } else {
            cell.lo = cell.probe;
          }
          ++cell.iterations;
          break;
        case Cell::Phase::kDone: continue;
      }
      if (cell.iterations >= kMaxIter || (cell.hi - cell.lo) <= xtol) {
        cell.result = cell.hi;
        cell.phase = Cell::Phase::kDone;
      }
    }
  }

  std::vector<exp::FigureRow> rows;
  std::size_t cell_index = 0;
  for (const double years : mtbf_years) {
    for (const Strategy& strategy : paper_strategies()) {
      const Cell& cell = cells[cell_index++];
      Candlestick point;
      point.mean = point.d1 = point.q1 = point.median = point.q3 = point.d9 =
          cell.result / units::kTB;
      point.n = static_cast<std::size_t>(options.replicas);
      rows.push_back(exp::FigureRow{years, strategy.name(), point});
      std::cerr << "[fig3] MTBF " << years << " y, " << strategy.name()
                << ": " << point.mean << " TB/s\n";
    }
    // Theorem 1 model series.
    const auto scenario = ScenarioBuilder::prospective_apex()
                              .pfs_bandwidth(units::tb_per_s(1))
                              .node_mtbf(units::years(years))
                              .build();
    const double model_beta = min_bandwidth_for_waste(
        scenario.platform, scenario.applications, target_waste, lo, hi);
    Candlestick model;
    model.mean = model.d1 = model.q1 = model.median = model.q3 = model.d9 =
        model_beta / units::kTB;
    model.n = 0;
    rows.push_back(exp::FigureRow{years, "Theoretical Model", model});
  }

  exp::Figure fig{
      "fig3_prospective",
      "Figure 3: minimum aggregated bandwidth (TB/s) for 80% efficiency\n"
      "System: prospective (50k nodes, 7 PB); workload: APEX projected",
      "node MTBF (years)", "min bandwidth (TB/s)", rows};
  fig.render(std::cout);
  if (const auto path = fig.emit_csv()) {
    std::cout << "\n[csv] wrote " << *path << "\n";
  }
  return 0;
}
