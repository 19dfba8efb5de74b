// coopcr/exp/spec_registry.hpp
//
// The registry of named, deterministically-rebuildable experiment specs:
// the single definition of every Monte Carlo paper artifact (Figures 1, 2
// and 4, ablations A1-A4) plus a fast demo grid.
//
// Every entry is a pure function of (name, replicas): cli/coopcr_sweep
// exec-mode workers rebuild their spec from those two values alone (the
// dist spec digest only helps if both sides build the same grid), and the
// serve/ advisor rebuilds the same spec to run on-demand fallback campaigns
// for queries its stored grids cannot answer. Artifacts carry the built
// spec's *experiment name* ("fig1" builds "fig1_bandwidth_sweep"); the
// advisor maps an ingested artifact back to its entry through it. Each
// entry also owns its console presentation, which coopcr_sweep prints.

#pragma once

#include <iosfwd>
#include <string>
#include <vector>

#include "exp/experiment.hpp"

namespace coopcr::exp {

struct ExperimentReport;

/// One registry entry. `build` must be a pure function of its arguments.
struct NamedSpec {
  std::string name;   ///< registry key, e.g. "fig1"
  std::string blurb;  ///< one-line description (--list-specs)
  ExperimentSpec (*build)(int replicas);
  /// Console presentation of a finished run of the built spec.
  void (*render)(const ExperimentReport& report, std::ostream& os);
};

/// All registered specs, in registration order (demo, then the paper's
/// figures, then the ablations).
const std::vector<NamedSpec>& spec_registry();

/// Build a registry spec by key; throws coopcr::Error on unknown names,
/// listing the registered keys.
ExperimentSpec build_named_spec(const std::string& name, int replicas);

/// The entry whose built spec reports under `experiment` (e.g.
/// "fig1_bandwidth_sweep"); nullptr when no entry matches.
const NamedSpec* find_spec_by_experiment(const std::string& experiment);

}  // namespace coopcr::exp
