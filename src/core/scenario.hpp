// coopcr/core/scenario.hpp
//
// Fluent construction of Monte Carlo scenarios.
//
// ScenarioBuilder replaces the historical mutate-then-finalize() pattern of
// ScenarioConfig: every knob is a chainable setter, nothing is resolved until
// build(), and build() validates the whole scenario (platform invariants,
// non-empty workload, segment within horizon) before resolving the
// application classes against the final platform. Because resolution happens
// last, setter order never matters — bandwidth and MTBF tweaks after
// selecting the workload are picked up correctly.
//
//   const ScenarioConfig sc = ScenarioBuilder::cielo_apex()
//                                 .pfs_bandwidth(units::gb_per_s(40))
//                                 .node_mtbf(units::years(2))
//                                 .seed(42)
//                                 .build();
//
// The cielo_apex() / prospective_apex() presets are the two platform +
// workload pairings every experiment in the paper starts from (§6.1, §6.2);
// benches and examples share them instead of hand-rolling the same setup.

#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/config.hpp"

namespace coopcr {

/// Fluent builder for ScenarioConfig. Obtain one via the presets or the
/// default constructor, chain setters, then call build().
class ScenarioBuilder {
 public:
  ScenarioBuilder() = default;

  // --- platform --------------------------------------------------------------

  /// Replace the platform spec. Bandwidth/MTBF values set through
  /// pfs_bandwidth()/node_mtbf() survive a later platform() call — they are
  /// recorded as overrides and re-applied at build() time.
  ScenarioBuilder& platform(const PlatformSpec& spec);
  ScenarioBuilder& pfs_bandwidth(double bytes_per_second);
  ScenarioBuilder& node_mtbf(double seconds);

  // --- power (energy accounting) --------------------------------------------

  /// Replace the platform's per-node power draws (survives a later
  /// platform() call, like the bandwidth/MTBF overrides).
  ScenarioBuilder& power_profile(const PowerProfile& profile);
  /// Set the I/O and checkpoint draws to `ratio` × the compute draw — the
  /// fig4 energy-trade-off axis. Applied at build() time on top of whatever
  /// profile the platform (or power_profile()) carries.
  ScenarioBuilder& io_power_ratio(double ratio);
  /// Clamp every per-node draw to at most `watts` (power-cap studies).
  /// Applied last, after the profile and ratio edits.
  ScenarioBuilder& power_cap(double watts);

  // --- tiered storage (burst buffer) -----------------------------------------

  /// Put a burst buffer of `bandwidth` bytes/s in front of the PFS, sized to
  /// `capacity_factor` × the workload's aggregate checkpoint working set
  /// (resolved against the *final* platform at build() time, like every
  /// other deferred knob). The buffer only changes behaviour for strategies
  /// that commit tiered; a factor of 0 degrades bit-identically to
  /// direct commits.
  ScenarioBuilder& burst_buffer(double capacity_factor, double bandwidth);
  /// The two knobs separately — the bb sweep axes edit one at a time.
  ScenarioBuilder& bb_capacity_factor(double factor);
  ScenarioBuilder& bb_bandwidth(double bytes_per_second);

  // --- workload --------------------------------------------------------------

  ScenarioBuilder& applications(std::vector<ApplicationClass> apps);
  ScenarioBuilder& add_application(const ApplicationClass& app);
  /// Project the current application list from `from` onto the *final*
  /// platform at build() time (§6.2 problem-size scaling). The projection is
  /// deferred so later platform edits are honoured.
  ScenarioBuilder& project_applications_from(const PlatformSpec& from);
  ScenarioBuilder& workload(const WorkloadOptions& options);
  ScenarioBuilder& min_makespan(double seconds);

  // --- failures --------------------------------------------------------------

  ScenarioBuilder& failures(const FailureModel& model);

  // --- simulation knobs ------------------------------------------------------

  ScenarioBuilder& segment(double start_seconds, double end_seconds);
  ScenarioBuilder& horizon(double seconds);
  ScenarioBuilder& interference(InterferenceModel model, double alpha = 0.0);
  ScenarioBuilder& routine_io_chunks(int chunks);
  ScenarioBuilder& checkpoints_enabled(bool enabled);
  /// Default strategy of the built SimulationConfig (the Monte Carlo harness
  /// overrides it per requested strategy).
  ScenarioBuilder& strategy(const StrategySpec& spec);
  ScenarioBuilder& policy_seed(std::uint64_t seed);
  ScenarioBuilder& trace(TraceRecorder* recorder);

  // --- replication -----------------------------------------------------------

  ScenarioBuilder& seed(std::uint64_t seed);

  /// Validate and assemble the scenario. Throws coopcr::Error on an
  /// ill-formed configuration (bad platform, empty workload, empty or
  /// out-of-horizon measurement segment). The builder is reusable: build()
  /// does not consume it.
  ScenarioConfig build() const;

  // --- presets ---------------------------------------------------------------

  /// Cielo + APEX workload — the §6.1 setting every figure starts from.
  static ScenarioBuilder cielo_apex(std::uint64_t seed = 0xC1E10ull);

  /// Prospective system (§6.2) with the APEX workload projected onto it
  /// (problem sizes scaled with machine memory).
  static ScenarioBuilder prospective_apex(std::uint64_t seed = 0xF07EC457ull);

 private:
  ScenarioConfig config_;
  bool project_from_set_ = false;
  PlatformSpec project_from_;
  std::optional<double> bandwidth_override_;
  std::optional<double> mtbf_override_;
  std::optional<PowerProfile> power_override_;
  std::optional<double> io_power_ratio_;
  std::optional<double> power_cap_;
  std::optional<double> bb_capacity_factor_;
  std::optional<double> bb_bandwidth_;
};

}  // namespace coopcr
