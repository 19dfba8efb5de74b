// Unit tests for the strategy parts (core/policy.hpp): period and offset
// values, token-policy construction, and the name-keyed registry.

#include "core/policy.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "util/error.hpp"
#include "util/units.hpp"

namespace coopcr {
namespace {

ClassOnPlatform stub_class(double daly, double commit) {
  ClassOnPlatform cls;
  cls.daly_period = daly;
  cls.checkpoint_seconds = commit;
  return cls;
}

// --- periods ----------------------------------------------------------------

TEST(CheckpointPeriod, FixedReturnsConfiguredSeconds) {
  const CheckpointPeriod hourly = fixed_period();
  EXPECT_EQ(hourly.rule, CheckpointPeriod::Rule::kFixed);
  EXPECT_EQ(hourly.name(), "Fixed");
  EXPECT_DOUBLE_EQ(hourly.period_for(stub_class(123.0, 5.0)), units::kHour);
  const CheckpointPeriod custom = fixed_period(200.0);
  EXPECT_DOUBLE_EQ(custom.period_for(stub_class(123.0, 5.0)), 200.0);
}

TEST(CheckpointPeriod, NonDefaultFixedPeriodIsNamed) {
  // Parameters are part of the name, so differently-configured periods
  // never alias under name-based identity.
  EXPECT_EQ(fixed_period(200.0).name(), "Fixed@200s");
  EXPECT_EQ(fixed_period(units::kHour).name(), "Fixed");
  EXPECT_FALSE(fixed_period(200.0) == fixed_period());
}

TEST(CheckpointPeriod, DalyReadsResolvedClass) {
  const CheckpointPeriod daly = daly_period();
  EXPECT_EQ(daly.rule, CheckpointPeriod::Rule::kDaly);
  EXPECT_EQ(daly.name(), "Daly");
  EXPECT_DOUBLE_EQ(daly.period_for(stub_class(105.0, 5.0)), 105.0);
}

TEST(CheckpointPeriod, EnergyStretchesDalyByThePowerRatio) {
  ClassOnPlatform cls = stub_class(105.0, 5.0);
  cls.power.compute_watts = 100.0;
  cls.power.checkpoint_watts = 400.0;
  const CheckpointPeriod energy = energy_period();
  EXPECT_EQ(energy.rule, CheckpointPeriod::Rule::kEnergy);
  EXPECT_EQ(energy.name(), "Energy");
  EXPECT_DOUBLE_EQ(energy.period_for(cls), 210.0);
  EXPECT_FALSE(energy == daly_period());
}

// --- offsets ----------------------------------------------------------------

TEST(RequestOffset, PeriodMinusCommitClampsAtZero) {
  const RequestOffset offset = RequestOffset::kPeriodMinusCommit;
  EXPECT_EQ(to_string(offset), "P-minus-C");
  EXPECT_DOUBLE_EQ(request_delay(offset, 105.0, 5.0), 100.0);
  EXPECT_DOUBLE_EQ(request_delay(offset, 3.0, 5.0), 0.0);
}

TEST(RequestOffset, FullPeriodIgnoresCommit) {
  const RequestOffset offset = RequestOffset::kFullPeriod;
  EXPECT_EQ(to_string(offset), "full-period");
  EXPECT_DOUBLE_EQ(request_delay(offset, 105.0, 5.0), 105.0);
}

// --- coordination policies --------------------------------------------------

TEST(CoordinationPolicy, ObliviousIsConcurrent) {
  const auto policy = oblivious_coordination();
  EXPECT_FALSE(policy->serialized());
  EXPECT_FALSE(policy->non_blocking_wait());
  EXPECT_EQ(policy->make_token_policy({}), nullptr);
}

TEST(CoordinationPolicy, OrderedVariantsDifferOnlyInWaitBehaviour) {
  EXPECT_FALSE(ordered_coordination()->non_blocking_wait());
  EXPECT_TRUE(ordered_nb_coordination()->non_blocking_wait());
  for (const auto& policy :
       {ordered_coordination(), ordered_nb_coordination()}) {
    EXPECT_TRUE(policy->serialized());
    const auto token = policy->make_token_policy({});
    ASSERT_NE(token, nullptr);
    EXPECT_EQ(token->name(), "fcfs");
  }
}

TEST(CoordinationPolicy, LeastWasteBuildsConfiguredArbiter) {
  const TokenPolicyContext ctx{units::years(2), units::gb_per_s(40), 1};
  const auto token = least_waste_coordination()->make_token_policy(ctx);
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->name(), "least-waste");
  EXPECT_EQ(least_waste_coordination()->default_offset(),
            RequestOffset::kFullPeriod);
  EXPECT_EQ(ordered_coordination()->default_offset(),
            RequestOffset::kPeriodMinusCommit);
}

TEST(CoordinationPolicy, AblationBaselinesAreSerializedNonBlocking) {
  const TokenPolicyContext ctx{units::years(2), units::gb_per_s(40), 7};
  for (const auto& policy :
       {random_coordination(), smallest_first_coordination()}) {
    EXPECT_TRUE(policy->serialized());
    EXPECT_TRUE(policy->non_blocking_wait());
    EXPECT_NE(policy->make_token_policy(ctx), nullptr);
  }
}

// --- registry ---------------------------------------------------------------

TEST(RegistryTest, BuiltinCoordinationsArePreSeeded) {
  for (const char* name : {"Oblivious", "Ordered", "Ordered-NB", "Least-Waste",
                           "Random", "Smallest-First"}) {
    ASSERT_TRUE(coordination_registry().contains(name)) << name;
    EXPECT_EQ(coordination_registry().make(name)->name(), name);
  }
}

TEST(RegistryTest, MakeThrowsOnUnknownName) {
  EXPECT_THROW(coordination_registry().make("nope"), Error);
  Registry<std::shared_ptr<const IoCoordinationPolicy>> empty;
  EXPECT_THROW(empty.make("Oblivious"), Error);
  EXPECT_THROW(empty.add(nullptr), Error);
}

TEST(RegistryTest, NamesAreSortedAndLastWriterWins) {
  Registry<std::shared_ptr<const IoCoordinationPolicy>> registry;
  registry.add(ordered_coordination());
  registry.add(oblivious_coordination());
  EXPECT_EQ(registry.names(),
            (std::vector<std::string>{"Oblivious", "Ordered"}));
  // Re-registering a name shadows the earlier factory.
  registry.add("Ordered", [] { return ordered_nb_coordination(); });
  EXPECT_EQ(registry.make("Ordered")->name(), "Ordered-NB");
  EXPECT_EQ(registry.names().size(), 2u);
  const auto names = coordination_registry().names();
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

}  // namespace
}  // namespace coopcr
