// coopcr/serve/query.hpp
//
// The advisor's wire types: structured queries and versioned answers.
//
// An AdvisorQuery asks "at this point of parameter space, which strategy
// should I run, with what checkpoint period, and what waste should I
// expect?" — an experiment grid to consult, one coordinate per sweep axis,
// and the metric to rank by. Queries parse from single-line JSON documents
// (cli/coopcr_advisor's stdin protocol) and have one canonical text form,
// the key of serve::QueryCache.
//
// An AdvisorAnswer is the versioned JSON document the advisor emits: the
// echoed query, how it was answered ("interpolated" from the stored grid or
// "computed" by an on-demand fallback campaign), the best strategy with its
// per-application checkpoint periods, and the full strategy ranking with
// 95% confidence half-widths. Rendering is deterministic — numbers use the
// repo's locale-independent 17-digit round-trip formatting and carry no
// timestamps or latencies — so a cached answer is byte-identical to the
// freshly-rendered one (stats live out of band; see serve/advisor.hpp).

#pragma once

#include <string>
#include <utility>
#include <vector>

namespace coopcr::serve {

/// One structured advisor query.
struct AdvisorQuery {
  /// Experiment name of the grid to consult ("sweep_demo",
  /// "fig1_bandwidth_sweep"). May be empty when the store holds exactly one
  /// grid.
  std::string experiment;

  /// One (axis name, value) coordinate per sweep axis of the target grid,
  /// in any order. The engine validates the set matches the grid's axes.
  std::vector<std::pair<std::string, double>> coords;

  /// Metric to rank strategies by (CSV/JSON column name). Empty selects the
  /// engine's default ("waste_ratio").
  std::string metric;

  /// Parse a single-line JSON query:
  ///   {"experiment":"sweep_demo",
  ///    "coords":{"pfs_bandwidth_gbps":80,"interference_alpha":0.5},
  ///    "metric":"waste_ratio"}
  /// "experiment" and "metric" are optional; "coords" is required. Throws
  /// coopcr::Error on malformed documents or unknown members.
  static AdvisorQuery from_json(const std::string& text);

  /// Canonical text form: a single-line JSON object of experiment, metric,
  /// and coords sorted by axis name, every string escaped and values in
  /// 17-digit round-trip formatting. Two queries meaning the same thing
  /// canonicalise identically regardless of coord order, and two different
  /// queries never share a form, whatever their strings contain.
  /// It is the QueryCache key.
  std::string canonical() const;
};

/// One strategy's estimate at the query point.
struct StrategyEstimate {
  std::string strategy;
  double value = 0.0;          ///< metric mean at the query point
  double se = 0.0;             ///< propagated standard error of the mean
  double ci_halfwidth = 0.0;   ///< 1.96 * se (95% normal CI)
};

/// A per-application checkpoint period of the recommended strategy.
struct AppPeriod {
  std::string app;        ///< application class name
  double seconds = 0.0;   ///< the strategy's period at the query point
};

/// The advisor's versioned answer document.
struct AdvisorAnswer {
  /// Version of the rendered answer JSON. Bump whenever the document shape
  /// changes so scripted consumers can detect drift.
  static constexpr int kAnswerVersion = 1;

  std::string experiment;
  std::string metric;
  /// Echoed query coordinates, re-ordered into the grid's axis order.
  std::vector<std::pair<std::string, double>> coords;
  /// "interpolated" (multilinear, from the stored grid) or "computed"
  /// (on-demand fallback campaign through a SweepExecutor).
  std::string source;
  /// Executor backend that ran the fallback campaign; empty for
  /// interpolated answers.
  std::string backend;
  /// True when the metric ranks descending (efficiency, utilization).
  bool higher_is_better = false;

  /// All strategies of the grid, best first (ties broken by name).
  std::vector<StrategyEstimate> ranking;
  /// Checkpoint periods of ranking.front()'s strategy, one per application
  /// class, when the experiment is registry-rebuildable; empty otherwise.
  std::vector<AppPeriod> best_periods;

  /// Best estimate; throws coopcr::Error when the ranking is empty.
  const StrategyEstimate& best() const;

  /// Deterministic single-line JSON rendering:
  ///   {"answer_version":1,"experiment":...,"metric":...,"coords":{...},
  ///    "source":...,"backend":...,"higher_is_better":...,
  ///    "best":{"strategy":...,"value":...,"se":...,"ci_halfwidth":...,
  ///            "periods":[{"app":...,"seconds":...}]},
  ///    "ranking":[{"strategy":...,"value":...,"se":...,
  ///                "ci_halfwidth":...},...]}
  std::string to_json() const;
};

}  // namespace coopcr::serve
