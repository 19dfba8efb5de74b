#include "exp/spec_registry.hpp"

#include <ostream>
#include <utility>

#include "core/daly.hpp"
#include "core/lower_bound.hpp"
#include "core/optimal_period.hpp"
#include "core/policy.hpp"
#include "core/scenario.hpp"
#include "core/strategy.hpp"
#include "exp/executor.hpp"
#include "exp/report.hpp"
#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/table.hpp"
#include "util/units.hpp"
#include "workload/apex.hpp"

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
  const auto chassis = [](Coordination coordination, const char* name) {
    return StrategySpec{std::move(coordination), daly_period(),
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
  fig.print(os);
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
  fig.print(os);
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
  fig.print(os);
}

void render_ablation_token_policy(const ExperimentReport& report,
                                  std::ostream& os) {
  const Figure fig{
      "ablation_token_policy",
      "Ablation A2: token policy on the Ordered-NB-Daly chassis\n"
      "(Cielo, 40 GB/s, node MTBF 2 y)",
      "case #", "waste ratio", report.case_rows()};
  fig.print(os);
}

void render_ablation_candidate_rule(const ExperimentReport& report,
                                    std::ostream& os) {
  const Figure fig{
      "ablation_candidate_rule",
      "Ablation A3: Least-Waste request offset and waste-formula variant\n"
      "(Cielo, 40 GB/s, node MTBF 2 y; row 0 is the paper configuration)",
      "case #", "waste ratio", report.case_rows()};
  fig.print(os);
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
  blocked.print(os);
  const Figure total{
      "ablation_burst_buffer_total",
      "\nAblation A4 (companion): total waste ratio over the same sweep",
      "capacity factor", "waste ratio",
      report.figure_rows(Metric::kWasteRatio)};
  total.print(os);
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

// --- driven entries ----------------------------------------------------------

/// One Figure 3 bisection cell: a (node MTBF, strategy) pair hunting the
/// smallest bandwidth whose mean waste meets the target. It replays
/// bisect_threshold (util/numeric.hpp) one probe per round: lo, then hi,
/// then midpoints until xtol or 200 halvings.
struct BisectionCell {
  double years = 0.0;
  std::size_t strategy = 0;  ///< index into paper_strategies()
  double lo = 0.0;
  double hi = 0.0;
  int probes = 0;  ///< probes folded in so far
  bool done = false;
  double result = 0.0;

  double probe() const {
    return probes == 0 ? lo : probes == 1 ? hi : 0.5 * (lo + hi);
  }

  /// Fold in whether probe() met the waste target.
  void observe(bool hit, double xtol) {
    switch (probes++) {
      case 0:
        if (hit) finish(lo);
        return;
      case 1:
        if (!hit) return finish(hi);
        break;
      default:
        (hit ? hi : lo) = 0.5 * (lo + hi);
        break;
    }
    if (probes - 2 >= 200 || hi - lo <= xtol) finish(hi);
  }

  void finish(double x) {
    result = x;
    done = true;
  }
};

/// Figure 3 (§6.2): on the prospective system (50,000 nodes, 7 PB) running
/// the projected APEX workload, the smallest aggregated bandwidth whose mean
/// waste ratio is <= 20% (80% efficiency), per node MTBF and strategy; the
/// model series is Theorem 1. The bisection runs in lockstep: every live
/// cell advances one probe per round, and a round is one grid per strategy
/// whose "probe" axis holds that strategy's live cells (each point sets the
/// cell's node MTBF and probe bandwidth).
void drive_fig3(SweepExecutor& executor, const MonteCarloOptions& options,
                std::ostream& os) {
  const std::vector<double> mtbf_years = {5, 10, 15, 20, 25};
  const std::vector<Strategy> strategies = paper_strategies();
  const double target_waste = 0.20;
  const double lo = units::tb_per_s(0.25);
  const double hi = units::tb_per_s(60);
  // Bandwidth resolution of the bisection (the paper plots 5..25 TB/s).
  const double xtol = units::tb_per_s(0.25);

  std::vector<BisectionCell> cells;
  for (const double years : mtbf_years) {
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      cells.push_back(BisectionCell{years, s, lo, hi});
    }
  }
  for (bool live = true; live;) {
    live = false;
    for (std::size_t s = 0; s < strategies.size(); ++s) {
      std::vector<BisectionCell*> round;
      SweepAxis probe{"probe", {}};
      for (BisectionCell& cell : cells) {
        if (cell.strategy != s || cell.done) continue;
        round.push_back(&cell);
        const double years = cell.years;
        const double bandwidth = cell.probe();
        probe.points.push_back(AxisPoint{
            bandwidth / units::kTB,
            format_number(years, 6) + " y @ " +
                format_number(bandwidth / units::kTB, 6) + " TB/s",
            [years, bandwidth](ScenarioBuilder& b) {
              b.pfs_bandwidth(bandwidth).node_mtbf(units::years(years));
            }});
      }
      if (round.empty()) continue;
      live = true;
      ExperimentSpec spec(ScenarioBuilder::prospective_apex(),
                          "fig3_prospective");
      spec.axis(std::move(probe)).strategies({strategies[s]}).options(options);
      const ExperimentReport report = executor.run(spec);
      for (std::size_t k = 0; k < round.size(); ++k) {
        const double waste =
            report.points[k].report.outcomes[0].waste_ratio.mean();
        round[k]->observe(waste <= target_waste, xtol);
      }
    }
  }

  const auto flat = [](double value, std::size_t n) {
    Candlestick point;
    point.mean = point.d1 = point.q1 = point.median = point.q3 = point.d9 =
        value / units::kTB;
    point.n = n;
    return point;
  };
  std::vector<FigureRow> rows;
  for (std::size_t c = 0; c < cells.size(); ++c) {
    const BisectionCell& cell = cells[c];
    rows.push_back(FigureRow{cell.years, strategies[cell.strategy].name(),
                             flat(cell.result, static_cast<std::size_t>(
                                                   options.replicas))});
    if (cell.strategy + 1 < strategies.size()) continue;
    const ScenarioConfig scenario = ScenarioBuilder::prospective_apex()
                                        .pfs_bandwidth(units::tb_per_s(1))
                                        .node_mtbf(units::years(cell.years))
                                        .build();
    const double model = min_bandwidth_for_waste(
        scenario.platform, scenario.applications, target_waste, lo, hi);
    rows.push_back(FigureRow{cell.years, "Theoretical Model", flat(model, 0)});
  }

  const Figure fig{
      "fig3_prospective",
      "Figure 3: minimum aggregated bandwidth (TB/s) for 80% efficiency\n"
      "System: prospective (50k nodes, 7 PB); workload: APEX projected",
      "node MTBF (years)", "min bandwidth (TB/s)", rows};
  fig.print(os);
  if (const auto path = fig.emit_csv()) os << "[csv] wrote " << *path << "\n";
}

/// Write a driven table's CSV twin `<file_id>.csv` under COOPCR_CSV_DIR and
/// say where it went; nothing when the variable is unset.
void emit_table(std::ostream& os, const std::string& file_id,
                const std::vector<std::string>& header,
                const std::vector<std::vector<std::string>>& rows) {
  const auto dir = CsvWriter::env_output_dir();
  if (!dir) return;
  const std::string path = *dir + "/" + file_id + ".csv";
  CsvWriter csv(path);
  csv.write_row(header);
  for (const auto& row : rows) csv.write_row(row);
  os << "[csv] wrote " << path << "\n";
}

/// Table 1: the LANL workflow workload from the APEX Workflows report, plus
/// the derived per-class quantities (q_i, footprint, C_i, µ_i, P_Daly) on
/// Cielo that every other experiment builds on. Closed form.
void drive_table1(SweepExecutor&, const MonteCarloOptions&, std::ostream& os) {
  const PlatformSpec cielo = PlatformSpec::cielo();
  const auto apps = apex_lanl_classes();
  const auto classes = resolve_all(apps, cielo);

  os << "Table 1: LANL Workflow Workload from the APEX Workflows report\n"
     << "Platform: " << cielo.name << " (" << cielo.total_cores() << " cores, "
     << cielo.memory_bytes / units::kTB << " TB memory, "
     << cielo.pfs_bandwidth / units::kGB << " GB/s PFS)\n\n";

  TablePrinter paper({"Workflow", "Workload %", "Work time (h)", "Cores",
                      "Input (%mem)", "Output (%mem)", "Ckpt (%mem)"});
  for (const auto& app : apps) {
    paper.add_row({app.name, TablePrinter::fmt(app.workload_share * 100, 1),
                   TablePrinter::fmt(app.work_seconds / units::kHour, 1),
                   std::to_string(app.cores),
                   TablePrinter::fmt(app.input_fraction * 100, 0),
                   TablePrinter::fmt(app.output_fraction * 100, 0),
                   TablePrinter::fmt(app.checkpoint_fraction * 100, 0)});
  }
  paper.print(os);

  os << "\nDerived quantities on Cielo (node MTBF "
     << cielo.node_mtbf / units::kYear << " y => system MTBF "
     << TablePrinter::fmt(cielo.system_mtbf() / units::kHour, 2) << " h):\n\n";

  TablePrinter derived({"Workflow", "q (units)", "Footprint (TB)",
                        "Ckpt (TB)", "C=R at 160GB/s (s)", "mu_i (h)",
                        "P_Daly (s)", "steady jobs"});
  for (const auto& cls : classes) {
    derived.add_row(
        {cls.app.name, std::to_string(cls.nodes),
         TablePrinter::fmt(cls.footprint_bytes / units::kTB, 2),
         TablePrinter::fmt(cls.checkpoint_bytes / units::kTB, 2),
         TablePrinter::fmt(cls.checkpoint_seconds, 1),
         TablePrinter::fmt(cls.mtbf / units::kHour, 2),
         TablePrinter::fmt(cls.daly_period, 1),
         TablePrinter::fmt(cls.steady_state_jobs(cielo), 2)});
  }
  derived.print(os);

  // Aggregate I/O pressure at the Daly periods: the quantity that drives the
  // whole paper (F > 1 means Daly periods are infeasible, Theorem 1).
  const LowerBoundResult bound = solve_lower_bound(cielo, apps);
  os << "\nSteady-state I/O fraction at optimal periods (160 GB/s): F = "
     << TablePrinter::fmt(bound.io_fraction, 4)
     << (bound.io_constrained ? "  [I/O-constrained, lambda = "
                              : "  [unconstrained, lambda = ")
     << bound.lambda << "]\n"
     << "Lower-bound platform waste (Eq. 7): "
     << TablePrinter::fmt(bound.waste, 4) << "\n";

  std::vector<std::vector<std::string>> csv_rows;
  for (std::size_t i = 0; i < apps.size(); ++i) {
    const auto& a = apps[i];
    const auto& c = classes[i];
    std::vector<std::string> row = {a.name};
    for (const double v :
         {a.workload_share * 100, a.work_seconds / units::kHour,
          static_cast<double>(a.cores), a.input_fraction * 100,
          a.output_fraction * 100, a.checkpoint_fraction * 100,
          static_cast<double>(c.nodes), c.footprint_bytes / units::kTB,
          c.checkpoint_bytes / units::kTB, c.checkpoint_seconds,
          c.mtbf / units::kHour, c.daly_period}) {
      row.push_back(format_number(v, 8));
    }
    csv_rows.push_back(std::move(row));
  }
  emit_table(os, "table1_workload",
             {"workflow", "workload_pct", "work_h", "cores", "input_pct",
              "output_pct", "ckpt_pct", "nodes", "footprint_tb", "ckpt_tb",
              "ckpt_s", "mtbf_h", "daly_s"},
             csv_rows);
}

/// Ablation A5: checkpoint-period formula quality across the APEX classes
/// at both Figure 1 operating points — Young, Daly-higher-order and exact
/// optimal periods, the exact overhead at each, and Eq. (3)'s first-order
/// estimate at the Young period. Closed form.
void drive_ablation_period_formula(SweepExecutor&, const MonteCarloOptions&,
                                   std::ostream& os) {
  std::vector<std::vector<std::string>> csv_rows;
  for (const double gbps : {40.0, 160.0}) {
    PlatformSpec cielo = PlatformSpec::cielo();
    cielo.pfs_bandwidth = units::gb_per_s(gbps);
    const auto classes = resolve_all(apex_lanl_classes(), cielo);

    os << "Ablation A5: period formulas at " << gbps
       << " GB/s (node MTBF 2 y)\n\n";
    TablePrinter table({"class", "C/mu", "P_young (s)", "P_daly (s)",
                        "P_exact (s)", "H(young)", "H(daly)", "H(exact)",
                        "Eq.(3)@young"});
    for (const auto& cls : classes) {
      const auto cmp = compare_periods(cls.checkpoint_seconds,
                                       cls.recovery_seconds, cls.mtbf);
      const double eq3 = periodic_waste(cmp.young, cls.checkpoint_seconds,
                                        cls.recovery_seconds, cls.mtbf);
      const double c_over_mu = cls.checkpoint_seconds / cls.mtbf;
      table.add_row({cls.app.name, TablePrinter::fmt(c_over_mu, 3),
                     TablePrinter::fmt(cmp.young, 0),
                     TablePrinter::fmt(cmp.daly, 0),
                     TablePrinter::fmt(cmp.exact, 0),
                     TablePrinter::fmt(cmp.overhead_young, 4),
                     TablePrinter::fmt(cmp.overhead_daly, 4),
                     TablePrinter::fmt(cmp.overhead_exact, 4),
                     TablePrinter::fmt(eq3, 4)});
      csv_rows.push_back({std::to_string(gbps), cls.app.name,
                          TablePrinter::fmt(c_over_mu, 6),
                          TablePrinter::fmt(cmp.young, 3),
                          TablePrinter::fmt(cmp.daly, 3),
                          TablePrinter::fmt(cmp.exact, 3),
                          TablePrinter::fmt(cmp.overhead_young, 6),
                          TablePrinter::fmt(cmp.overhead_daly, 6),
                          TablePrinter::fmt(cmp.overhead_exact, 6),
                          TablePrinter::fmt(eq3, 6)});
    }
    table.print(os);
    os << "\n";
  }
  os << "Reading guide: at 160 GB/s every class sits in the Young regime "
        "(C << mu) and all\ncolumns agree. At 40 GB/s Silverton's C/mu "
        "reaches ~0.37 and first order is out of\nits depth: Eq. (3) "
        "disagrees sharply with the exact renewal overhead (1.23 vs 2.97),"
        "\nand the exact optimal period is markedly longer than Young's. "
        "This sensitivity of\nthe waste model to its approximation order is "
        "why simulated strategies can undercut\nthe Eq. (7) bound at the "
        "stressed end of Figure 2 (see EXPERIMENTS.md).\n";
  emit_table(os, "ablation_period_formula",
             {"bandwidth_gbps", "class", "c_over_mu", "p_young", "p_daly",
              "p_exact", "h_young", "h_daly", "h_exact", "eq3_at_young"},
             csv_rows);
}

}  // namespace

const std::vector<NamedSpec>& spec_registry() {
  static const std::vector<NamedSpec> kSpecs = {
      {"demo", "2x2 bandwidth x interference demo grid, 2 strategies",
       build_demo, render_summary, nullptr},
      {"fig1", "paper Figure 1: waste vs PFS bandwidth 40-160 GB/s, Cielo",
       build_fig1, render_fig1, nullptr},
      {"fig2", "paper Figure 2: waste vs node MTBF 2-50 y, Cielo at 40 GB/s",
       build_fig2, render_fig2, nullptr},
      {"fig3",
       "paper Figure 3: min bandwidth for 80% efficiency vs node MTBF, "
       "prospective system (bisection)",
       nullptr, nullptr, drive_fig3},
      {"fig4", "Figure 4 (extension): energy waste vs I/O power ratio",
       build_fig4, render_fig4, nullptr},
      {"table1", "paper Table 1: APEX workload and derived per-class values",
       nullptr, nullptr, drive_table1},
      {"ablation_interference",
       "ablation A1: linear vs adversarial PFS interference",
       build_ablation_interference, render_ablation_interference, nullptr},
      {"ablation_token_policy",
       "ablation A2: token policy on the Ordered-NB-Daly chassis",
       build_ablation_token_policy, render_ablation_token_policy, nullptr},
      {"ablation_candidate_rule",
       "ablation A3: Least-Waste request offset x waste formula",
       build_ablation_candidate_rule, render_ablation_candidate_rule, nullptr},
      {"ablation_burst_buffer",
       "ablation A4: blocked-commit waste vs burst-buffer capacity",
       build_ablation_burst_buffer, render_ablation_burst_buffer, nullptr},
      {"ablation_period_formula",
       "ablation A5: Young vs Daly vs exact checkpoint periods",
       nullptr, nullptr, drive_ablation_period_formula},
  };
  return kSpecs;
}

const NamedSpec& named_spec(const std::string& name) {
  for (const NamedSpec& entry : spec_registry()) {
    if (name == entry.name) return entry;
  }
  std::string known;
  for (const NamedSpec& entry : spec_registry()) {
    known += (known.empty() ? "" : ", ") + entry.name;
  }
  throw Error("unknown spec \"" + name + "\" — registered: " + known);
}

ExperimentSpec build_named_spec(const std::string& name, int replicas) {
  const NamedSpec& entry = named_spec(name);
  COOPCR_CHECK(entry.build != nullptr,
               "spec \"" + name + "\" is driven: it runs its own rounds of "
               "grids and has no one grid to build");
  return entry.build(replicas);
}

const NamedSpec* find_spec_by_experiment(const std::string& experiment) {
  for (const NamedSpec& entry : spec_registry()) {
    if (entry.build && experiment == entry.build(1).name()) return &entry;
  }
  return nullptr;
}

}  // namespace coopcr::exp
