#include "exp/spec_registry.hpp"

#include <ostream>

#include "core/lower_bound.hpp"
#include "core/policy.hpp"
#include "core/scenario.hpp"
#include "core/strategy.hpp"
#include "exp/report.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coopcr::exp {

namespace {

// The reading guide of every artifact is in EXPERIMENTS.md.

/// The stressed §6.1 operating point of Figure 2's left end, shared by the
/// ablations: Cielo at a scarce 40 GB/s, node MTBF 2 years.
ScenarioBuilder stressed_cielo() {
  return ScenarioBuilder::cielo_apex()
      .pfs_bandwidth(units::gb_per_s(40))
      .node_mtbf(units::years(2));
}

ExperimentSpec build_demo(int replicas) {
  ExperimentSpec spec(ScenarioBuilder::cielo_apex()
                          .node_mtbf(units::years(2))
                          .min_makespan(units::days(8))
                          .segment(units::days(1), units::days(7)),
                      "sweep_demo");
  spec.pfs_bandwidth_axis({40, 120})
      .interference_axis({0.0, 1.0})
      .strategies({ordered_nb_daly(), oblivious_daly()})
      .replicas(replicas);
  return spec;
}

ExperimentSpec build_fig1(int replicas) {
  ExperimentSpec spec(ScenarioBuilder::cielo_apex().node_mtbf(units::years(2)),
                      "fig1_bandwidth_sweep");
  spec.pfs_bandwidth_axis({40, 60, 80, 100, 120, 140, 160})
      .strategies(paper_strategies())
      .replicas(replicas);
  return spec;
}

ExperimentSpec build_fig2(int replicas) {
  ExperimentSpec spec(
      ScenarioBuilder::cielo_apex().pfs_bandwidth(units::gb_per_s(40)),
      "fig2_mtbf_sweep");
  spec.node_mtbf_axis({2, 4, 8, 16, 25, 50})
      .strategies(paper_strategies())
      .replicas(replicas);
  return spec;
}

ExperimentSpec build_fig4(int replicas) {
  std::vector<Strategy> strategies = paper_strategies();
  strategies.push_back(strategy_from_name("coop-energy"));
  ExperimentSpec spec(ScenarioBuilder::cielo_apex()
                          .pfs_bandwidth(units::gb_per_s(80))
                          .node_mtbf(units::years(2)),
                      "fig4_energy_tradeoff");
  spec.energy_axis({0.25, 0.5, 1.0, 2.0, 4.0, 8.0})
      .strategies(strategies)
      .replicas(replicas);
  return spec;
}

ExperimentSpec build_ablation_interference(int replicas) {
  ExperimentSpec spec(stressed_cielo(), "ablation_interference");
  spec.interference_axis({0.0, 0.25, 1.0})
      .strategies(paper_strategies())
      .replicas(replicas);
  return spec;
}

// A2 and A3 are single-point surveys whose strategy set carries the cases,
// paired by construction (every strategy shares each replica's draws).
ExperimentSpec build_ablation_token_policy(int replicas) {
  const auto chassis = [](auto coordination, const char* name) {
    return StrategySpec{coordination, daly_period(),
                        RequestOffset::kPeriodMinusCommit, name};
  };
  const std::vector<Strategy> cases = {
      chassis(ordered_nb_coordination(), "fcfs"),
      chassis(random_coordination(), "random"),
      chassis(smallest_first_coordination(), "smallest-first"),
      chassis(least_waste_coordination(), "least-waste"),
  };
  ExperimentSpec spec(stressed_cielo(), "ablation_token_policy");
  spec.strategies(cases).replicas(replicas);
  return spec;
}

ExperimentSpec build_ablation_candidate_rule(int replicas) {
  const auto variant = [](LeastWasteVariant v, RequestOffset offset,
                          const char* name) {
    return StrategySpec{least_waste_coordination(v), daly_period(), offset,
                        name};
  };
  using V = LeastWasteVariant;
  using O = RequestOffset;
  const std::vector<Strategy> cases = {
      variant(V::kPaperEq12, O::kFullPeriod, "P-offset, Eq.(1)/(2)"),
      variant(V::kMarginal, O::kFullPeriod, "P-offset, marginal"),
      variant(V::kPaperEq12, O::kPeriodMinusCommit, "(P-C)-offset, Eq.(1)/(2)"),
      variant(V::kMarginal, O::kPeriodMinusCommit, "(P-C)-offset, marginal"),
  };
  ExperimentSpec spec(stressed_cielo(), "ablation_candidate_rule");
  spec.strategies(cases).replicas(replicas);
  return spec;
}

ExperimentSpec build_ablation_burst_buffer(int replicas) {
  const std::vector<Strategy> strategies = {
      least_waste(),
      strategy_from_name("coop-daly-tiered"),  // Least-Waste-tiered
      ordered_nb_daly(),
      ordered_nb_daly().with_commit(/*tiered=*/true),
  };
  ExperimentSpec spec(stressed_cielo().bb_bandwidth(units::gb_per_s(400)),
                      "ablation_burst_buffer");
  spec.bb_capacity_axis({0.0, 0.5, 1.0, 2.0, 4.0})
      .strategies(strategies)
      .replicas(replicas);
  return spec;
}

// --- renderers ---------------------------------------------------------------

/// Relative saving of `better` over `baseline`, in percent.
double percent_less(double baseline, double better) {
  return baseline > 0.0 ? (baseline - better) / baseline * 100.0 : 0.0;
}

/// Per-point waste-ratio means (and the grown replica count under
/// sequential stopping).
void render_summary(const ExperimentReport& report, std::ostream& os) {
  for (const PointResult& pr : report.points) {
    os << pr.point.label();
    if (pr.report.vr_enabled) os << " [replicas " << pr.report.replicas << "]";
    os << "\n";
    for (const StrategyOutcome& outcome : pr.report.outcomes) {
      os << "  " << outcome.strategy.name() << ": waste ratio mean = "
         << TablePrinter::fmt(outcome.waste_ratio.mean(), 4) << "\n";
    }
  }
}

/// Candlestick waste figure over the first axis, each point followed by the
/// Theorem 1 model at that point's platform and bandwidth.
void render_with_model(const ExperimentReport& report, std::ostream& os,
                       const std::string& title, const std::string& x_label) {
  std::vector<FigureRow> rows;
  for (const PointResult& pr : report.points) {
    const double x = pr.point.coords.at(0).value;
    for (const StrategyOutcome& outcome : pr.report.outcomes) {
      rows.push_back(FigureRow{x, outcome.strategy.name(),
                               outcome.waste_ratio.candlestick()});
    }
    const ScenarioConfig& scenario = pr.point.scenario;
    Candlestick model;
    model.mean = model.d1 = model.q1 = model.median = model.q3 = model.d9 =
        lower_bound_waste(scenario.platform, scenario.applications,
                          scenario.platform.pfs_bandwidth);
    model.n = 0;
    rows.push_back(FigureRow{x, "Theoretical Model", model});
  }
  const Figure fig{report.name, title, x_label, "waste ratio", rows};
  fig.render(os);
}

void render_fig1(const ExperimentReport& report, std::ostream& os) {
  const char* title =
      "Figure 1: waste ratio vs system aggregated bandwidth\n"
      "System: Cielo; Node MTBF: 2 years; workload: LANL APEX (Table 1)";
  render_with_model(report, os, title, "bandwidth (GB/s)");
}

void render_fig2(const ExperimentReport& report, std::ostream& os) {
  const char* title =
      "Figure 2: waste ratio vs node MTBF\n"
      "System: Cielo; aggregated bandwidth: 40 GB/s; workload: LANL APEX";
  render_with_model(report, os, title, "node MTBF (years)");
}

void render_fig4(const ExperimentReport& report, std::ostream& os) {
  const Figure fig{
      "fig4_energy_tradeoff",
      "Figure 4: energy-waste ratio vs I/O-to-compute power ratio\n"
      "System: Cielo @ 80 GB/s; Node MTBF: 2 years; workload: LANL APEX",
      "P_io / P_compute", "energy waste ratio",
      report.figure_rows(Metric::kEnergyWasteRatio)};
  fig.render(os);
  // Headline: energy-aware periods vs Least-Waste's Daly periods at the
  // I/O-power-dominated end of the sweep.
  const PointResult& heavy = report.at(report.points.size() - 1);
  const double coop =
      heavy.report.outcome("coop-energy").energy_waste_ratio.mean();
  const double daly =
      heavy.report.outcome("Least-Waste").energy_waste_ratio.mean();
  os << "\nAt P_io/P_compute = " << heavy.point.coords[0].label
     << ": coop-energy " << coop << " vs Least-Waste (Daly) " << daly << " ("
     << percent_less(daly, coop) << "% less energy waste)\n";
}

void render_ablation_interference(const ExperimentReport& report,
                                  std::ostream& os) {
  const Figure fig{
      "ablation_interference",
      "Ablation A1: linear vs adversarial interference (Cielo, 40 GB/s, "
      "node MTBF 2 y)\nalpha = 0 is the paper's linear model",
      "degradation alpha", "waste ratio",
      report.figure_rows(Metric::kWasteRatio, "interference_alpha")};
  fig.render(os);
}

void render_ablation_token_policy(const ExperimentReport& report,
                                  std::ostream& os) {
  const Figure fig{
      "ablation_token_policy",
      "Ablation A2: token policy on the Ordered-NB-Daly chassis\n"
      "(Cielo, 40 GB/s, node MTBF 2 y)",
      "case #", "waste ratio", report.case_rows()};
  fig.render(os);
}

void render_ablation_candidate_rule(const ExperimentReport& report,
                                    std::ostream& os) {
  const Figure fig{
      "ablation_candidate_rule",
      "Ablation A3: Least-Waste request offset and waste-formula variant\n"
      "(Cielo, 40 GB/s, node MTBF 2 y; row 0 is the paper configuration)",
      "case #", "waste ratio", report.case_rows()};
  fig.render(os);
}

void render_ablation_burst_buffer(const ExperimentReport& report,
                                  std::ostream& os) {
  const Figure blocked{
      "ablation_burst_buffer",
      "Ablation A4: blocked-commit waste vs burst-buffer capacity factor\n"
      "System: Cielo @ 40 GB/s PFS + 400 GB/s burst buffer; Node MTBF: 2 "
      "years;\nworkload: LANL APEX; capacity factor = fast-tier bytes / "
      "checkpoint working set",
      "capacity factor", "blocked-commit waste",
      report.figure_rows(Metric::kCkptWasteRatio)};
  blocked.render(os);
  const Figure total{
      "ablation_burst_buffer_total",
      "\nAblation A4 (companion): total waste ratio over the same sweep",
      "capacity factor", "waste ratio",
      report.figure_rows(Metric::kWasteRatio)};
  total.render(os);
  // Headline: tiered vs direct cooperative commits once the buffer holds
  // the whole working set (capacity factor 1, grid point 2).
  const PointResult& knee = report.at(2);
  const double direct =
      knee.report.outcome("Least-Waste").ckpt_waste_ratio.mean();
  const double tiered =
      knee.report.outcome("Least-Waste-tiered").ckpt_waste_ratio.mean();
  os << "\nAt capacity factor " << knee.point.coords[0].label
     << ": blocked-commit waste " << tiered << " (tiered) vs " << direct
     << " (direct) — " << percent_less(direct, tiered)
     << "% less time blocked on commits\n";
}

}  // namespace

const std::vector<NamedSpec>& spec_registry() {
  static const std::vector<NamedSpec> kSpecs = {
      {"demo", "2x2 bandwidth x interference demo grid, 2 strategies",
       build_demo, render_summary},
      {"fig1", "paper Figure 1: waste vs PFS bandwidth 40-160 GB/s, Cielo",
       build_fig1, render_fig1},
      {"fig2", "paper Figure 2: waste vs node MTBF 2-50 y, Cielo at 40 GB/s",
       build_fig2, render_fig2},
      {"fig4", "Figure 4 (extension): energy waste vs I/O power ratio",
       build_fig4, render_fig4},
      {"ablation_interference",
       "ablation A1: linear vs adversarial PFS interference",
       build_ablation_interference, render_ablation_interference},
      {"ablation_token_policy",
       "ablation A2: token policy on the Ordered-NB-Daly chassis",
       build_ablation_token_policy, render_ablation_token_policy},
      {"ablation_candidate_rule",
       "ablation A3: Least-Waste request offset x waste formula",
       build_ablation_candidate_rule, render_ablation_candidate_rule},
      {"ablation_burst_buffer",
       "ablation A4: blocked-commit waste vs burst-buffer capacity",
       build_ablation_burst_buffer, render_ablation_burst_buffer},
  };
  return kSpecs;
}

ExperimentSpec build_named_spec(const std::string& name, int replicas) {
  for (const NamedSpec& entry : spec_registry()) {
    if (name == entry.name) return entry.build(replicas);
  }
  std::string known;
  for (const NamedSpec& entry : spec_registry()) {
    known += (known.empty() ? "" : ", ") + entry.name;
  }
  throw Error("unknown spec \"" + name + "\" — registered: " + known);
}

const NamedSpec* find_spec_by_experiment(const std::string& experiment) {
  for (const NamedSpec& entry : spec_registry()) {
    if (experiment == entry.build(1).name()) return &entry;
  }
  return nullptr;
}

}  // namespace coopcr::exp
