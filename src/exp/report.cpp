#include "exp/report.hpp"

#include <algorithm>
#include <cmath>
#include <fstream>
#include <ostream>

#include "util/csv.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/table.hpp"
#include "util/units.hpp"

namespace coopcr::exp {

namespace {

/// Candlestick summary plus the sample standard error ("se") the serving
/// layer's interpolation propagates (0 for fewer than 2 samples).
void write_candlestick_json(std::ostream& os, const SampleSet& samples) {
  const Candlestick c = samples.candlestick();
  const double se =
      c.n >= 2 ? samples.stddev() / std::sqrt(static_cast<double>(c.n)) : 0.0;
  os << "{\"mean\":" << format_number(c.mean) << ",\"d1\":"
     << format_number(c.d1) << ",\"q1\":" << format_number(c.q1)
     << ",\"median\":" << format_number(c.median) << ",\"q3\":"
     << format_number(c.q3) << ",\"d9\":" << format_number(c.d9)
     << ",\"se\":" << format_number(se) << ",\"n\":" << c.n << "}";
}

}  // namespace

const SampleSet& metric_samples(const StrategyOutcome& outcome,
                                Metric metric) {
  switch (metric) {
    case Metric::kWasteRatio: return outcome.waste_ratio;
    case Metric::kEfficiency: return outcome.efficiency;
    case Metric::kUtilization: return outcome.utilization;
    case Metric::kFailuresHit: return outcome.failures_hit;
    case Metric::kCheckpoints: return outcome.checkpoints;
    case Metric::kEnergyJoules: return outcome.energy_joules;
    case Metric::kEnergyWasteRatio: return outcome.energy_waste_ratio;
    case Metric::kCkptWasteRatio: return outcome.ckpt_waste_ratio;
  }
  COOPCR_CHECK(false, "unknown metric");
  return outcome.waste_ratio;  // unreachable
}

std::string metric_name(Metric metric) {
  switch (metric) {
    case Metric::kWasteRatio: return "waste_ratio";
    case Metric::kEfficiency: return "efficiency";
    case Metric::kUtilization: return "utilization";
    case Metric::kFailuresHit: return "failures_hit";
    case Metric::kCheckpoints: return "checkpoints";
    case Metric::kEnergyJoules: return "energy_joules";
    case Metric::kEnergyWasteRatio: return "energy_waste_ratio";
    case Metric::kCkptWasteRatio: return "ckpt_waste_ratio";
  }
  COOPCR_CHECK(false, "unknown metric");
  return "";  // unreachable
}

const std::vector<Metric>& all_metrics() {
  static const std::vector<Metric> kAll = {
      Metric::kWasteRatio,   Metric::kEfficiency,   Metric::kUtilization,
      Metric::kFailuresHit,  Metric::kCheckpoints,  Metric::kEnergyJoules,
      Metric::kEnergyWasteRatio, Metric::kCkptWasteRatio};
  return kAll;
}

ExperimentReport ExperimentReport::for_spec(const ExperimentSpec& spec) {
  ExperimentReport report;
  report.name = spec.name();
  report.replicas = spec.campaign_options().replicas;
  for (const auto& axis : spec.axes()) report.axis_names.push_back(axis.name);
  return report;
}

const PointResult& ExperimentReport::at(std::size_t index) const {
  COOPCR_CHECK(index < points.size(),
               "grid point index " + std::to_string(index) +
                   " out of range (grid has " +
                   std::to_string(points.size()) + " points)");
  return points[index];
}

namespace {

/// The point's burst-buffer coordinates for the always-on bb_* columns.
double bb_column_value(const PointResult& pr, const std::string& column) {
  const BurstBufferConfig& bb = pr.point.scenario.simulation.burst_buffer;
  return column == "bb_capacity_factor" ? bb.capacity_factor
                                        : bb.bandwidth / units::kGB;
}

}  // namespace

void ExperimentReport::write_csv(std::ostream& os) const {
  CsvWriter csv(os);
  std::vector<std::string> header = axis_names;
  // Burst-buffer configuration columns ride along unconditionally so
  // tiered-commit results are self-describing — unless a sweep axis of the
  // same name already emits the value.
  std::vector<std::string> bb_columns;
  for (const char* column : {"bb_capacity_factor", "bb_bandwidth_gbps"}) {
    if (std::find(axis_names.begin(), axis_names.end(), column) ==
        axis_names.end()) {
      bb_columns.push_back(column);
      header.push_back(column);
    }
  }
  for (const char* column :
       {"strategy", "metric", "mean", "d1", "q1", "median", "q3", "d9", "n"}) {
    header.push_back(column);
  }
  // vr_* columns appear only when variance reduction was active, so VR-off
  // reports stay byte-identical to earlier releases. Values are filled on
  // waste_ratio rows (the metric the estimators target) and left empty
  // elsewhere.
  const bool vr = !points.empty() && points[0].report.vr_enabled;
  if (vr) {
    for (const char* column : {"vr_mean", "vr_std_error", "vr_ci_width",
                               "vr_factor", "vr_ess", "vr_cv_beta"}) {
      header.push_back(column);
    }
  }
  // contrast_* columns likewise appear only when the paired contrast
  // estimator was active; they carry the strategy − reference difference
  // estimate on waste_ratio rows of non-reference strategies, and
  // contrast_vr_factor compares against the *unpaired* two-sample
  // estimator — it reads directly as the replica-count saving.
  const bool contrast = !points.empty() && points[0].report.contrast_enabled;
  if (contrast) {
    for (const char* column : {"contrast_mean", "contrast_std_error",
                               "contrast_ci_width", "contrast_vr_factor"}) {
      header.push_back(column);
    }
  }
  csv.write_row(header);
  for (const auto& pr : points) {
    std::vector<std::string> prefix;
    prefix.reserve(axis_names.size() + bb_columns.size());
    for (const auto& coord : pr.point.coords) {
      prefix.push_back(format_number(coord.value));
    }
    for (const auto& column : bb_columns) {
      prefix.push_back(format_number(bb_column_value(pr, column)));
    }
    for (const auto& outcome : pr.report.outcomes) {
      for (const Metric metric : all_metrics()) {
        const Candlestick c = metric_samples(outcome, metric).candlestick();
        std::vector<std::string> row = prefix;
        row.push_back(outcome.strategy.name());
        row.push_back(metric_name(metric));
        row.push_back(format_number(c.mean));
        row.push_back(format_number(c.d1));
        row.push_back(format_number(c.q1));
        row.push_back(format_number(c.median));
        row.push_back(format_number(c.q3));
        row.push_back(format_number(c.d9));
        row.push_back(std::to_string(c.n));
        if (vr) {
          if (metric == Metric::kWasteRatio && outcome.vr.enabled) {
            const VrEstimate& est = outcome.vr.estimate;
            row.push_back(format_number(est.mean));
            row.push_back(format_number(est.std_error));
            row.push_back(format_number(est.ci_width));
            row.push_back(format_number(est.vr_factor));
            row.push_back(format_number(est.ess));
            row.push_back(format_number(est.cv_beta));
          } else {
            row.insert(row.end(), 6, std::string());
          }
        }
        if (contrast) {
          if (metric == Metric::kWasteRatio && outcome.contrast.enabled) {
            const VrEstimate& est = outcome.contrast.estimate;
            row.push_back(format_number(est.mean));
            row.push_back(format_number(est.std_error));
            row.push_back(format_number(est.ci_width));
            row.push_back(format_number(est.vr_factor));
          } else {
            row.insert(row.end(), 4, std::string());
          }
        }
        csv.write_row(row);
      }
    }
  }
}

void ExperimentReport::write_json(std::ostream& os) const {
  os << "{\"schema_version\":" << kSchemaVersion << ",\"name\":\""
     << json_escape(name) << "\",\"replicas\":" << replicas << ",\"axes\":[";
  for (std::size_t a = 0; a < axis_names.size(); ++a) {
    if (a > 0) os << ",";
    os << "\"" << json_escape(axis_names[a]) << "\"";
  }
  os << "],\"points\":[";
  for (std::size_t p = 0; p < points.size(); ++p) {
    const PointResult& pr = points[p];
    if (p > 0) os << ",";
    os << "{\"index\":" << pr.point.index << ",\"coords\":[";
    for (std::size_t c = 0; c < pr.point.coords.size(); ++c) {
      const AxisCoordinate& coord = pr.point.coords[c];
      if (c > 0) os << ",";
      os << "{\"axis\":\"" << json_escape(coord.axis) << "\",\"value\":"
         << format_number(coord.value) << ",\"label\":\""
         << json_escape(coord.label) << "\"}";
    }
    const BurstBufferConfig& bb = pr.point.scenario.simulation.burst_buffer;
    os << "],\"burst_buffer\":{\"capacity_factor\":"
       << format_number(bb.capacity_factor) << ",\"bandwidth_gbps\":"
       << format_number(bb.bandwidth / units::kGB) << "}";
    os << ",\"baseline_useful\":";
    write_candlestick_json(os, pr.report.baseline_useful);
    os << ",\"baseline_useful_energy\":";
    write_candlestick_json(os, pr.report.baseline_useful_energy);
    os << ",\"strategies\":[";
    for (std::size_t s = 0; s < pr.report.outcomes.size(); ++s) {
      const StrategyOutcome& outcome = pr.report.outcomes[s];
      if (s > 0) os << ",";
      os << "{\"name\":\"" << json_escape(outcome.strategy.name())
         << "\",\"metrics\":{";
      bool first = true;
      for (const Metric metric : all_metrics()) {
        if (!first) os << ",";
        os << "\"" << metric_name(metric) << "\":";
        write_candlestick_json(os, metric_samples(outcome, metric));
        first = false;
      }
      os << "}";
      if (outcome.vr.enabled) {
        const VrEstimate& est = outcome.vr.estimate;
        os << ",\"vr\":{\"mean\":" << format_number(est.mean)
           << ",\"std_error\":" << format_number(est.std_error)
           << ",\"ci_width\":" << format_number(est.ci_width)
           << ",\"vr_factor\":" << format_number(est.vr_factor)
           << ",\"ess\":" << format_number(est.ess)
           << ",\"cv_beta\":" << format_number(est.cv_beta)
           << ",\"simulations\":" << est.simulations << "}";
      }
      if (outcome.contrast.enabled) {
        const VrEstimate& est = outcome.contrast.estimate;
        os << ",\"contrast\":{\"reference\":\""
           << json_escape(pr.report.contrast_reference)
           << "\",\"mean\":" << format_number(est.mean)
           << ",\"std_error\":" << format_number(est.std_error)
           << ",\"ci_width\":" << format_number(est.ci_width)
           << ",\"vr_factor\":" << format_number(est.vr_factor)
           << ",\"ess\":" << format_number(est.ess)
           << ",\"simulations\":" << est.simulations << "}";
      }
      os << "}";
    }
    os << "]}";
  }
  os << "]}\n";
}

std::optional<std::string> ExperimentReport::emit_csv(
    const std::string& stem) const {
  const auto dir = CsvWriter::env_output_dir();
  if (!dir) return std::nullopt;
  const std::string path = *dir + "/" + (stem.empty() ? name : stem) + ".csv";
  std::ofstream out(path);
  COOPCR_CHECK(out.good(), "cannot open CSV output file: " + path);
  write_csv(out);
  return path;
}

std::optional<std::string> ExperimentReport::emit_json(
    const std::string& stem) const {
  const auto dir = CsvWriter::env_output_dir();
  if (!dir) return std::nullopt;
  const std::string path = *dir + "/" + (stem.empty() ? name : stem) + ".json";
  std::ofstream out(path);
  COOPCR_CHECK(out.good(), "cannot open JSON output file: " + path);
  write_json(out);
  return path;
}

std::vector<FigureRow> ExperimentReport::figure_rows(
    Metric metric, const std::string& x_axis) const {
  const std::string axis =
      !x_axis.empty() ? x_axis
                      : (axis_names.empty() ? std::string() : axis_names[0]);
  std::vector<FigureRow> rows;
  for (const auto& pr : points) {
    const double x = axis.empty() ? 0.0 : pr.point.coord(axis).value;
    for (const auto& outcome : pr.report.outcomes) {
      rows.push_back(FigureRow{x, outcome.strategy.name(),
                               metric_samples(outcome, metric).candlestick()});
    }
  }
  return rows;
}

std::vector<FigureRow> ExperimentReport::contrast_rows(
    Metric metric, const std::string& x_axis) const {
  const std::string axis =
      !x_axis.empty() ? x_axis
                      : (axis_names.empty() ? std::string() : axis_names[0]);
  std::vector<FigureRow> rows;
  for (const auto& pr : points) {
    if (!pr.report.contrast_enabled) continue;
    // Locate the reference outcome; replica samples are recorded in the same
    // deterministic order for every strategy (common random numbers), so the
    // per-index differences are the paired contrasts.
    const StrategyOutcome* reference = nullptr;
    for (const auto& outcome : pr.report.outcomes) {
      if (outcome.strategy.name() == pr.report.contrast_reference) {
        reference = &outcome;
        break;
      }
    }
    if (reference == nullptr) continue;
    const std::vector<double>& ref_samples =
        metric_samples(*reference, metric).samples();
    const double x = axis.empty() ? 0.0 : pr.point.coord(axis).value;
    for (const auto& outcome : pr.report.outcomes) {
      if (!outcome.contrast.enabled) continue;
      const std::vector<double>& samples =
          metric_samples(outcome, metric).samples();
      COOPCR_CHECK(samples.size() == ref_samples.size(),
                   "contrast figure: strategy \"" + outcome.strategy.name() +
                       "\" has " + std::to_string(samples.size()) +
                       " samples vs the reference's " +
                       std::to_string(ref_samples.size()));
      SampleSet diffs;
      for (std::size_t i = 0; i < samples.size(); ++i) {
        diffs.add(samples[i] - ref_samples[i]);
      }
      rows.push_back(FigureRow{x,
                               outcome.strategy.name() + " - " +
                                   pr.report.contrast_reference,
                               diffs.candlestick()});
    }
  }
  return rows;
}

std::vector<FigureRow> ExperimentReport::case_rows(Metric metric,
                                                   std::size_t point) const {
  std::vector<FigureRow> rows;
  const MonteCarloReport& mc = at(point).report;
  rows.reserve(mc.outcomes.size());
  for (std::size_t s = 0; s < mc.outcomes.size(); ++s) {
    rows.push_back(
        FigureRow{static_cast<double>(s), mc.outcomes[s].strategy.name(),
                  metric_samples(mc.outcomes[s], metric).candlestick()});
  }
  return rows;
}

void Figure::print(std::ostream& os) const {
  os << title << "\n\n";
  TablePrinter table({x_label, "series", y_label + " (mean)", "d1", "q1",
                      "median", "q3", "d9", "n"});
  for (const auto& row : rows) {
    table.add_row({TablePrinter::fmt(row.x, 1), row.series,
                   TablePrinter::fmt(row.stats.mean, 4),
                   TablePrinter::fmt(row.stats.d1, 4),
                   TablePrinter::fmt(row.stats.q1, 4),
                   TablePrinter::fmt(row.stats.median, 4),
                   TablePrinter::fmt(row.stats.q3, 4),
                   TablePrinter::fmt(row.stats.d9, 4),
                   std::to_string(row.stats.n)});
  }
  table.print(os);
}

void Figure::write_csv(std::ostream& os) const {
  CsvWriter csv(os);
  csv.write_row({x_label, "series", "mean", "d1", "q1", "median", "q3", "d9",
                 "n"});
  for (const auto& row : rows) {
    csv.write_row({TablePrinter::fmt(row.x, 6), row.series,
                   TablePrinter::fmt(row.stats.mean, 6),
                   TablePrinter::fmt(row.stats.d1, 6),
                   TablePrinter::fmt(row.stats.q1, 6),
                   TablePrinter::fmt(row.stats.median, 6),
                   TablePrinter::fmt(row.stats.q3, 6),
                   TablePrinter::fmt(row.stats.d9, 6),
                   std::to_string(row.stats.n)});
  }
}

std::optional<std::string> Figure::emit_csv() const {
  const auto dir = CsvWriter::env_output_dir();
  if (!dir) return std::nullopt;
  const std::string path = *dir + "/" + id + ".csv";
  std::ofstream out(path);
  COOPCR_CHECK(out.good(), "cannot open CSV output file: " + path);
  write_csv(out);
  return path;
}

}  // namespace coopcr::exp
