// coopcr/exp/report.hpp
//
// Structured results of a sweep experiment, plus presentation helpers.
//
// ExperimentReport pairs every grid point with its MonteCarloReport and
// emits machine-readable artifacts: a long-format CSV (one row per
// point × strategy × metric) and a JSON document mirroring the full
// candlestick summaries. Number formatting is locale-independent
// (util/csv.hpp format_number) and round-trips doubles exactly.
//
// Figure is the paper-style presentation: the candlestick console table,
// the optional COOPCR_PLOT ascii chart, and the legacy per-figure CSV
// schema. Both layers honour COOPCR_CSV_DIR through the emit_* helpers.

#pragma once

#include <iosfwd>
#include <optional>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/experiment.hpp"
#include "util/stats.hpp"

namespace coopcr::exp {

/// Which SampleSet of a StrategyOutcome a figure/report column refers to.
enum class Metric {
  kWasteRatio,
  kEfficiency,
  kUtilization,
  kFailuresHit,
  kCheckpoints,
  kEnergyJoules,      ///< total joules over the measured segment
  kEnergyWasteRatio,  ///< wasted joules / baseline useful joules
  /// Intrinsic commit-transfer unit-seconds (kCheckpoint only — token waits
  /// and contention dilation excluded) / baseline useful.
  kCkptWasteRatio,
};

/// The outcome's sample set for `metric`.
const SampleSet& metric_samples(const StrategyOutcome& outcome, Metric metric);

/// Snake-case metric name used in CSV/JSON columns ("waste_ratio", ...).
std::string metric_name(Metric metric);

/// All metrics, in emission order.
const std::vector<Metric>& all_metrics();

/// One grid point together with its campaign report.
struct PointResult {
  GridPoint point;
  MonteCarloReport report;
};

/// One (x, series) data point of a paper-style candlestick figure.
struct FigureRow {
  double x = 0.0;
  std::string series;
  Candlestick stats;
};

/// Full result of a sweep experiment.
struct ExperimentReport {
  /// Version of the emitted JSON document. History: v1-v2 predate the
  /// explicit field (base schema, energy columns), v3 added the
  /// burst-buffer/ckpt_waste extensions, v4 adds the "schema_version" field
  /// itself plus a per-candlestick standard error ("se") — the field the
  /// serve/ advisor's interpolation propagates. v5 adds the paired
  /// strategy-contrast estimates: contrast_* CSV columns and a per-strategy
  /// "contrast" JSON object (mean difference vs the reference strategy,
  /// std_error, ci_width, vr_factor vs the unpaired two-sample estimator),
  /// present only when the contrast estimator was active — contrast-off
  /// artifacts are byte-identical to v4 apart from this version field.
  /// exp::load_report_json rejects documents whose version it does not
  /// understand, so bump this whenever the document shape changes.
  static constexpr int kSchemaVersion = 5;

  std::string name;
  std::vector<std::string> axis_names;  ///< in declaration order
  std::vector<PointResult> points;      ///< in grid (row-major) order
  int replicas = 0;                     ///< per grid point

  /// The empty report a sweep of `spec` fills: its name, requested
  /// replicas and axis names, no points yet.
  static ExperimentReport for_spec(const ExperimentSpec& spec);

  /// Bounds-checked point access; throws coopcr::Error.
  const PointResult& at(std::size_t index) const;

  /// Long-format CSV: header `<axes...>,bb_capacity_factor,
  /// bb_bandwidth_gbps,strategy,metric,mean,d1,q1,median,q3,d9,n`, one row
  /// per point × strategy × metric. The two bb_* columns always carry the
  /// point's burst-buffer configuration (0,0 when none) so tiered-commit
  /// sweeps are self-describing without callers opting in; each is omitted
  /// only when a sweep axis of the same name already emits it. An empty
  /// grid emits the header row only.
  void write_csv(std::ostream& os) const;

  /// JSON document with the same content plus per-point baseline summaries
  /// and the per-point `burst_buffer` configuration object. Every
  /// candlestick object carries the sample standard error ("se") next to
  /// the quantiles, and the document leads with "schema_version"
  /// (kSchemaVersion) — the contract exp::load_report_json validates.
  void write_json(std::ostream& os) const;

  /// COOPCR_CSV_DIR emission of the structured artifacts as `<stem>.csv` /
  /// `<stem>.json` (stem defaults to the experiment name). Returns the
  /// written path, or nullopt when the env var is unset.
  std::optional<std::string> emit_csv(const std::string& stem = "") const;
  std::optional<std::string> emit_json(const std::string& stem = "") const;

  /// Candlestick figure rows: x = the point's coordinate on `x_axis`
  /// (default: the first axis; 0 for an axis-less grid), one series per
  /// strategy, samples selected by `metric`.
  std::vector<FigureRow> figure_rows(Metric metric = Metric::kWasteRatio,
                                     const std::string& x_axis = "") const;

  /// Single-point survey rows (strategy-set ablations): x = each strategy's
  /// index in outcome order ("case #"), series = strategy name.
  std::vector<FigureRow> case_rows(Metric metric = Metric::kWasteRatio,
                                   std::size_t point = 0) const;

  /// Candlestick rows of the per-replica paired *differences*
  /// (strategy − reference) under the contrast estimator: one series per
  /// non-reference strategy, named "<strategy> - <reference>". Common random
  /// numbers make each replica's difference meaningful, so the candles show
  /// the distribution of the contrast itself — usually far tighter than the
  /// two marginal candles. Empty when the contrast estimator was off.
  std::vector<FigureRow> contrast_rows(Metric metric = Metric::kWasteRatio,
                                       const std::string& x_axis = "") const;
};

/// Paper-style candlestick figure presentation (console table + legacy CSV
/// schema + optional COOPCR_PLOT ascii chart).
struct Figure {
  std::string id;       ///< file stem of the CSV artifact
  std::string title;
  std::string x_label;
  std::string y_label = "waste ratio";
  std::vector<FigureRow> rows;

  /// Print the paper-format candlestick table to `os`.
  void print(std::ostream& os) const;

  /// Legacy per-figure CSV schema: `<x_label>,series,mean,d1,q1,median,q3,
  /// d9,n` with 6-decimal fixed formatting.
  void write_csv(std::ostream& os) const;

  /// Write the CSV under COOPCR_CSV_DIR as `<id>.csv`; nullopt when unset.
  std::optional<std::string> emit_csv() const;

  /// The console presentation: print(os) and the COOPCR_PLOT=1 ascii chart
  /// of the mean curves. Writes no files — callers that want the legacy CSV
  /// call emit_csv() themselves.
  void render(std::ostream& os) const;
};

/// CSV twin of a console table (Table 1, ablation A5): writes
/// `<file_id>.csv` under COOPCR_CSV_DIR; nullopt when unset.
std::optional<std::string> emit_table_csv(
    const std::string& file_id, const std::vector<std::string>& header,
    const std::vector<std::vector<std::string>>& rows);

}  // namespace coopcr::exp
