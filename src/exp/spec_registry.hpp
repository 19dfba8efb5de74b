// coopcr/exp/spec_registry.hpp
//
// The registry of named paper artifacts, the single definition of every
// one of them (Figures 1-4, Table 1, ablations A1-A5) plus a fast demo
// grid. cli/coopcr_sweep runs any entry by key.
//
// Most entries are one grid: `build` is a pure function of (name,
// replicas). cli/coopcr_sweep exec-mode workers rebuild their spec from
// those two values alone (the dist spec digest only helps if both sides
// build the same grid), and the serve/ advisor rebuilds the same spec to
// run on-demand fallback campaigns for queries its stored grids cannot
// answer. Artifacts carry the built spec's *experiment name* ("fig1"
// builds "fig1_bandwidth_sweep"); the advisor maps an ingested artifact
// back to its entry through it. Each grid entry also owns its console
// presentation (`render`), which coopcr_sweep prints.
//
// The rest are *driven*: `drive` runs the whole artifact on an executor and
// writes its presentation and its `<stem>.csv` (COOPCR_CSV_DIR) itself.
// Figure 3's bisection picks each round's grids from the last round's
// results; Table 1 and ablation A5 are closed-form and ignore the
// executor. A driven entry has no one grid, so it cannot be journaled,
// resumed, served by exec workers or rebuilt by the advisor.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "core/monte_carlo.hpp"
#include "exp/experiment.hpp"

namespace coopcr::exp {

struct ExperimentReport;
class SweepExecutor;

/// One registry entry: either `build` and `render` (a grid entry) or
/// `drive` (a driven entry) is set.
struct NamedSpec {
  std::string name;   ///< registry key, e.g. "fig1"
  std::string blurb;  ///< one-line description (--list-specs)
  /// The entry's one grid; must be a pure function of its argument.
  ExperimentSpec (*build)(int replicas);
  /// Console presentation of a finished run of the built spec.
  void (*render)(const ExperimentReport& report, std::ostream& os);
  /// Run the whole artifact on `executor` with `options` per campaign, print
  /// its presentation to `os` and emit its CSV.
  void (*drive)(SweepExecutor& executor, const MonteCarloOptions& options,
                std::ostream& os);
};

/// All registered entries, in registration order (demo, then the paper's
/// figures and table, then the ablations).
const std::vector<NamedSpec>& spec_registry();

/// The entry registered under `name`; throws coopcr::Error on unknown
/// names, listing the registered keys.
const NamedSpec& named_spec(const std::string& name);

/// Build a grid entry's spec by key; throws coopcr::Error on unknown names
/// and on driven entries.
ExperimentSpec build_named_spec(const std::string& name, int replicas);

/// The grid entry whose built spec reports under `experiment` (e.g.
/// "fig1_bandwidth_sweep"); nullptr when no grid entry matches.
const NamedSpec* find_spec_by_experiment(const std::string& experiment);

}  // namespace coopcr::exp
