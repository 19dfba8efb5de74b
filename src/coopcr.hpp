// coopcr.hpp — the single public facade header.
//
// Everything an application, example or bench needs to define scenarios,
// compose strategies and run simulations:
//
//   #include "coopcr.hpp"
//
//   using namespace coopcr;
//   const ScenarioConfig sc = ScenarioBuilder::cielo_apex()
//                                 .pfs_bandwidth(units::gb_per_s(40))
//                                 .build();
//   const auto report = run_monte_carlo(sc, paper_strategies(),
//                                       MonteCarloOptions::from_env(10));
//
// Extension points (no core edits required):
//  * core/policy.hpp   — implement an IoCoordinationPolicy (or wrap a custom
//                        TokenPolicy in a SerialCoordination) and add it to
//                        coordination_registry();
//  * core/strategy.hpp — compose a StrategySpec from a coordination policy,
//                        a period, a request offset and a commit path, and
//                        add it to strategy_registry() to make it reachable
//                        by name.
//
// docs/ARCHITECTURE.md has the layer map and the full extension recipe.

#pragma once

// Core: strategies, policies, scenarios, simulation, statistics harness.
#include "core/accounting.hpp"
#include "core/config.hpp"
#include "core/daly.hpp"
#include "core/lower_bound.hpp"
#include "core/monte_carlo.hpp"
#include "core/optimal_period.hpp"
#include "core/policy.hpp"
#include "core/scenario.hpp"
#include "core/simulation.hpp"
#include "core/strategy.hpp"
#include "core/trace.hpp"
#include "core/variance_reduction.hpp"

// Experiments: declarative sweep specs, the backend-neutral SweepExecutor
// interface + factory, the named-spec registry, grid-level parallel runner,
// structured CSV/JSON reports (and the loader reading them back) and figure
// presentation.
#include "exp/executor.hpp"
#include "exp/experiment.hpp"
#include "exp/report.hpp"
#include "exp/report_io.hpp"
#include "exp/spec_registry.hpp"
#include "exp/sweep_runner.hpp"

// Distributed execution: the kill-resume coordinator over multi-process
// shard workers (byte-identical reports for any shard count or
// crash/respawn/resize history). Its worker launch, journal, worker loop
// and fault-injection harness sit below the facade under dist/.
#include "dist/dist_runner.hpp"

// Serving: the checkpoint advisor — artifact grid store, interpolating
// query engine with Monte Carlo fallback, and the digest-keyed query cache.
#include "serve/advisor.hpp"
#include "serve/grid_store.hpp"
#include "serve/query.hpp"
#include "serve/query_cache.hpp"
#include "serve/query_engine.hpp"

// I/O subsystem: requests and token policies.
#include "io/io_subsystem.hpp"
#include "io/request.hpp"
#include "io/token_policy.hpp"

// Platform and workload models.
#include "platform/failure_model.hpp"
#include "platform/platform.hpp"
#include "workload/apex.hpp"
#include "workload/app_class.hpp"
#include "workload/generator.hpp"
#include "workload/job.hpp"

// Presentation and numeric utilities used by the examples and benches.
#include "util/ascii_chart.hpp"
#include "util/csv.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/json.hpp"
#include "util/numeric.hpp"
#include "util/stats.hpp"
#include "util/table.hpp"
#include "util/thread_pool.hpp"
#include "util/units.hpp"
