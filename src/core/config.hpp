// coopcr/core/config.hpp
//
// Configuration records for single simulations and Monte Carlo scenarios.
//
// All strategy behaviour (I/O coordination, checkpoint periods, request
// offsets, token-policy choice) lives in the composable StrategySpec
// (core/strategy.hpp); SimulationConfig carries only the platform, the
// resolved workload classes and engine-level knobs. ScenarioConfig is the
// *built* artifact of a ScenarioBuilder (core/scenario.hpp) — construct it
// through the builder, which validates and resolves classes at build() time.

#pragma once

#include <cstdint>
#include <vector>

#include "core/strategy.hpp"
#include "core/trace.hpp"
#include "io/channel.hpp"
#include "platform/failure_model.hpp"
#include "platform/platform.hpp"
#include "util/units.hpp"
#include "workload/app_class.hpp"
#include "workload/generator.hpp"

namespace coopcr {

/// Tiered (burst-buffer) commit-path configuration, resolved by
/// ScenarioBuilder::build — `capacity` is capacity_factor × the workload's
/// aggregate checkpoint working set on the final platform. Only consulted
/// when the run's strategy commits tiered (StrategySpec::tiered); a zero
/// capacity degrades bit-identically to the direct path.
struct BurstBufferConfig {
  double bandwidth = 0.0;        ///< β_bb, bytes/s (0 = no buffer)
  double capacity = 0.0;         ///< resolved fast-tier bytes
  double capacity_factor = 0.0;  ///< capacity / checkpoint working set

  /// True when a tiered strategy can actually absorb into the buffer.
  bool usable() const { return bandwidth > 0.0 && capacity > 0.0; }
};

/// Everything one simulation run needs besides the job list and failures.
struct SimulationConfig {
  PlatformSpec platform;
  std::vector<ClassOnPlatform> classes;
  StrategySpec strategy;  ///< defaults to the Oblivious-Daly baseline

  /// Burst buffer in front of the PFS (ScenarioBuilder::burst_buffer).
  BurstBufferConfig burst_buffer;

  /// Measurement segment: statistics are collected on
  /// [segment_start, segment_end] only — "The segment excludes the first and
  /// last days of the simulation" (§5).
  double segment_start = units::days(1);
  double segment_end = units::days(59);

  /// Hard horizon: the engine stops here even if jobs remain (guards against
  /// pathological dilation, e.g. Oblivious-Fixed at very low bandwidth).
  double horizon = units::days(365);

  /// Interference model of the PFS channel (kLinear is the paper's;
  /// kDegrading is the footnote-2 adversarial ablation).
  InterferenceModel interference = InterferenceModel::kLinear;
  double degradation_alpha = 0.0;

  /// Number of chunks the per-job routine (non-CR) I/O volume is split into,
  /// issued evenly across the job's work (§2). Only used when a class
  /// declares routine I/O.
  int routine_io_chunks = 8;

  /// Disable checkpointing entirely (baseline runs).
  bool checkpoints_enabled = true;

  /// Seed for strategy-internal randomness (e.g. the Random token policy).
  std::uint64_t policy_seed = 0x5EEDull;

  /// Optional, non-owning execution trace sink (see core/trace.hpp). When
  /// set, every job lifecycle transition is recorded. Leave null for Monte
  /// Carlo sweeps.
  TraceRecorder* trace = nullptr;
};

/// A Monte Carlo scenario: the invariant part shared by all strategies and
/// replicas. Per-replica initial conditions (job list, failure trace) derive
/// from `seed` + the replica index. Build through ScenarioBuilder
/// (core/scenario.hpp), which resolves classes and validates invariants.
struct ScenarioConfig {
  PlatformSpec platform;
  std::vector<ApplicationClass> applications;
  WorkloadOptions workload;
  FailureModel failures;
  SimulationConfig simulation;  ///< strategy field is overridden per run
  std::uint64_t seed = 0xC0FFEEull;
};

}  // namespace coopcr
