// The energy accounting subsystem: PowerProfile validation, the
// TimeCategory -> watts mapping, the per-replica energy identity
// (joules == sum of category unit-seconds x category watts), the Aupy et al.
// energy-optimal period and its Daly degeneracy, the coop-energy
// strategy composition, and the ScenarioBuilder power knobs.

#include <gtest/gtest.h>

#include <cmath>
#include <cstddef>

#include "coopcr.hpp"

namespace coopcr {
namespace {

ScenarioBuilder small_cielo(std::uint64_t seed = 0xE4E26Full) {
  return ScenarioBuilder::cielo_apex(seed)
      .pfs_bandwidth(units::gb_per_s(80))
      .node_mtbf(units::years(2))
      .min_makespan(units::days(10))
      .segment(units::days(1), units::days(9));
}

TEST(PowerProfile, ValidatesPositiveDraws) {
  PowerProfile power;  // defaults are valid
  EXPECT_NO_THROW(power.validate());
  power.compute_watts = 0.0;
  EXPECT_THROW(power.validate(), Error);
  power = PowerProfile{};
  power.io_watts = -1.0;
  EXPECT_THROW(power.validate(), Error);
  power = PowerProfile{};
  power.checkpoint_watts = 0.0;
  EXPECT_THROW(power.validate(), Error);
  power = PowerProfile{};
  power.idle_watts = 0.0;
  EXPECT_THROW(power.validate(), Error);
  // An invalid profile also fails platform validation (build() path).
  PlatformSpec spec = PlatformSpec::cielo();
  spec.power.compute_watts = -5.0;
  EXPECT_THROW(spec.validate(), Error);
}

TEST(EnergyModel, MapsEveryCategoryOntoItsActivityDraw) {
  PowerProfile power;
  power.compute_watts = 201.0;
  power.io_watts = 103.0;
  power.checkpoint_watts = 157.0;
  power.idle_watts = 71.0;
  const EnergyModel model(power);
  EXPECT_EQ(model.watts_for(TimeCategory::kUsefulCompute), 201.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kLostWork), 201.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kUsefulIo), 103.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kIoDilation), 103.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kCheckpoint), 157.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kRecovery), 157.0);
  EXPECT_EQ(model.watts_for(TimeCategory::kBlockedWait), 71.0);
  EXPECT_THROW(model.watts_for(TimeCategory::kCount), Error);
  EXPECT_THROW(EnergyModel(PowerProfile{.compute_watts = 0.0}), Error);
}

TEST(EnergyModel, PerReplicaJoulesEqualCategorySecondsTimesWatts) {
  const ScenarioConfig scenario = small_cielo().build();
  const ReplicaRun run = run_replica(scenario, least_waste(), /*replica=*/0);
  const EnergyModel model(scenario.platform.power);

  // The identity the whole subsystem hangs on: per-category joules are
  // exactly the accumulated (nodes x seconds) units times the per-node draw
  // of that activity. Accounting::add already folds the node count in.
  double useful = 0.0;
  double wasted = 0.0;
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(TimeCategory::kCount); ++i) {
    const auto category = static_cast<TimeCategory>(i);
    const double expected =
        run.result.accounting.total(category) * model.watts_for(category);
    EXPECT_EQ(run.result.energy.joules(category), expected)
        << to_string(category);
    (is_waste(category) ? wasted : useful) += expected;
  }
  EXPECT_DOUBLE_EQ(run.result.energy.useful(), useful);
  EXPECT_DOUBLE_EQ(run.result.energy.wasted(), wasted);
  EXPECT_DOUBLE_EQ(run.result.energy.total(), useful + wasted);
  EXPECT_GT(run.result.energy.useful(), 0.0);
  EXPECT_GT(run.result.energy.wasted(), 0.0);
  EXPECT_GT(run.baseline_useful_energy, 0.0);
  EXPECT_DOUBLE_EQ(run.energy_waste_ratio,
                   run.result.energy.wasted() / run.baseline_useful_energy);
}

TEST(EnergyModel, BreakdownMatchesFreshModelOverTheSameAccounting) {
  const ScenarioConfig scenario = small_cielo().build();
  const ReplicaRun run = run_replica(scenario, ordered_nb_daly(), 1);
  const EnergyBreakdown recomputed =
      EnergyModel(scenario.platform.power).breakdown(run.result.accounting);
  for (std::size_t i = 0;
       i < static_cast<std::size_t>(TimeCategory::kCount); ++i) {
    const auto category = static_cast<TimeCategory>(i);
    EXPECT_EQ(run.result.energy.joules(category),
              recomputed.joules(category));
  }
}

TEST(EnergyAwarePeriod, StretchesDalyBySqrtOfThePowerRatio) {
  PowerProfile power;
  power.compute_watts = 200.0;
  power.checkpoint_watts = 800.0;  // ratio 4 -> period doubles
  const ScenarioConfig scenario = small_cielo().power_profile(power).build();
  const CheckpointPeriod period = energy_period();
  EXPECT_EQ(period.name(), "Energy");
  for (const ClassOnPlatform& cls : scenario.simulation.classes) {
    EXPECT_DOUBLE_EQ(period.period_for(cls), cls.daly_period * 2.0);
  }
}

TEST(EnergyAwarePeriod, DegeneratesToDalyWhenDrawsCoincide) {
  PowerProfile flat;
  flat.compute_watts = 218.0;
  flat.io_watts = 218.0;
  flat.checkpoint_watts = 218.0;
  flat.idle_watts = 90.0;
  const ScenarioConfig scenario = small_cielo().power_profile(flat).build();
  for (const ClassOnPlatform& cls : scenario.simulation.classes) {
    // sqrt(218/218) == 1.0 exactly, so the periods are bit-identical.
    EXPECT_EQ(energy_period().period_for(cls), cls.daly_period);
  }
  // ... and therefore the whole coop-energy simulation is bit-identical to
  // Least-Waste (the only difference between the compositions is the
  // period). This is the fig4 r = 1 degeneracy, asserted exactly.
  const ReplicaRun coop = run_replica(scenario, coop_energy(), 0);
  const ReplicaRun lw = run_replica(scenario, least_waste(), 0);
  EXPECT_EQ(coop.waste_ratio, lw.waste_ratio);
  EXPECT_EQ(coop.energy_waste_ratio, lw.energy_waste_ratio);
  EXPECT_EQ(coop.result.counters.checkpoints_completed,
            lw.result.counters.checkpoints_completed);
  EXPECT_EQ(coop.result.energy.total(), lw.result.energy.total());
}

TEST(EnergyAwarePeriod, BeatsDalyPeriodsWhenIoPowerDominates) {
  // The fig4 acceptance shape: at P_io/P_compute = 8 the energy-optimal
  // period trades cheap recompute for expensive checkpoint I/O and wins on
  // energy waste against every Daly-period strategy.
  const ScenarioConfig scenario = small_cielo().io_power_ratio(8.0).build();
  MonteCarloOptions options;
  options.replicas = 6;
  const MonteCarloReport report = run_monte_carlo(
      scenario,
      {oblivious_daly(), ordered_daly(), ordered_nb_daly(), least_waste(),
       coop_energy()},
      options);
  const double coop = report.outcome("coop-energy").energy_waste_ratio.mean();
  for (const char* daly_strategy :
       {"Oblivious-Daly", "Ordered-Daly", "Ordered-NB-Daly", "Least-Waste"}) {
    EXPECT_LT(coop,
              report.outcome(daly_strategy).energy_waste_ratio.mean())
        << daly_strategy;
  }
}

TEST(CoopEnergyStrategy, ResolvesFromTheRegistries) {
  const StrategySpec direct = coop_energy();
  EXPECT_EQ(direct.name(), "coop-energy");
  EXPECT_EQ(direct.coordination().name(), "Least-Waste");
  EXPECT_EQ(direct.period(), energy_period());
  EXPECT_EQ(direct.offset(), RequestOffset::kFullPeriod);
  EXPECT_TRUE(direct.serialized());
  EXPECT_TRUE(direct.non_blocking_wait());

  // Registered under its own name...
  EXPECT_TRUE(strategy_registry().contains("coop-energy"));
  EXPECT_EQ(strategy_from_name("coop-energy"), direct);
  // ...and the Energy period composes by name through the fallback.
  const StrategySpec composed = strategy_from_name("Least-Waste-Energy");
  EXPECT_EQ(composed.period(), energy_period());
  EXPECT_EQ(composed.offset(), RequestOffset::kFullPeriod);
  const StrategySpec ordered = strategy_from_name("Ordered-Energy");
  EXPECT_EQ(ordered.coordination().name(), "Ordered");
  EXPECT_EQ(ordered.offset(), RequestOffset::kPeriodMinusCommit);
}

TEST(ScenarioBuilderPower, ProfileOverrideSurvivesLaterPlatformCall) {
  PowerProfile custom;
  custom.compute_watts = 321.0;
  const ScenarioConfig built = small_cielo()
                                   .power_profile(custom)
                                   .platform(PlatformSpec::cielo())
                                   .pfs_bandwidth(units::gb_per_s(80))
                                   .node_mtbf(units::years(2))
                                   .build();
  EXPECT_EQ(built.platform.power.compute_watts, 321.0);
  // The resolved classes carry the override too (the Energy period reads it).
  for (const ClassOnPlatform& cls : built.simulation.classes) {
    EXPECT_EQ(cls.power.compute_watts, 321.0);
  }
}

TEST(ScenarioBuilderPower, IoRatioAndCapComposeAtBuildTime) {
  const ScenarioConfig ratioed = small_cielo().io_power_ratio(3.0).build();
  const PowerProfile& p = ratioed.platform.power;
  EXPECT_DOUBLE_EQ(p.io_watts, 3.0 * p.compute_watts);
  EXPECT_DOUBLE_EQ(p.checkpoint_watts, 3.0 * p.compute_watts);

  // The cap clamps every draw, including the ratio-amplified ones.
  const ScenarioConfig capped =
      small_cielo().io_power_ratio(3.0).power_cap(250.0).build();
  const PowerProfile& c = capped.platform.power;
  EXPECT_LE(c.compute_watts, 250.0);
  EXPECT_EQ(c.io_watts, 250.0);
  EXPECT_EQ(c.checkpoint_watts, 250.0);
  EXPECT_LE(c.idle_watts, 250.0);

  EXPECT_THROW(ScenarioBuilder().io_power_ratio(0.0), Error);
  EXPECT_THROW(ScenarioBuilder().power_cap(-1.0), Error);
}

TEST(ScenarioBuilderPower, PresetsCarryCalibratedProfiles) {
  const PowerProfile cielo = PlatformSpec::cielo().power;
  EXPECT_EQ(cielo.compute_watts, PowerProfile::cielo().compute_watts);
  EXPECT_GT(cielo.compute_watts, cielo.io_watts);
  EXPECT_GT(cielo.io_watts, cielo.idle_watts);
  const PowerProfile prospective = PlatformSpec::prospective().power;
  EXPECT_GT(prospective.compute_watts, cielo.compute_watts);
}

}  // namespace
}  // namespace coopcr
