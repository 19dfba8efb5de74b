// Unit tests for the composable strategy API: paper compositions, naming,
// name round-tripping through the registry, and registry extensibility.

#include "core/strategy.hpp"

#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "util/error.hpp"

namespace coopcr {
namespace {

TEST(Strategy, PaperListHasSevenInLegendOrder) {
  const auto& list = paper_strategies();
  ASSERT_EQ(list.size(), 7u);
  EXPECT_EQ(list[0].name(), "Oblivious-Fixed");
  EXPECT_EQ(list[1].name(), "Oblivious-Daly");
  EXPECT_EQ(list[2].name(), "Ordered-Fixed");
  EXPECT_EQ(list[3].name(), "Ordered-Daly");
  EXPECT_EQ(list[4].name(), "Ordered-NB-Fixed");
  EXPECT_EQ(list[5].name(), "Ordered-NB-Daly");
  EXPECT_EQ(list[6].name(), "Least-Waste");
}

TEST(Strategy, NamesAreUnique) {
  std::set<std::string> names;
  for (const auto& s : paper_strategies()) names.insert(s.name());
  EXPECT_EQ(names.size(), 7u);
}

TEST(Strategy, NonBlockingClassification) {
  EXPECT_FALSE(oblivious_daly().non_blocking_wait());
  EXPECT_FALSE(ordered_daly().non_blocking_wait());
  EXPECT_TRUE(ordered_nb_daly().non_blocking_wait());
  EXPECT_TRUE(least_waste().non_blocking_wait());
}

TEST(Strategy, SerializedClassification) {
  EXPECT_FALSE(oblivious_daly().serialized());
  EXPECT_TRUE(ordered_daly().serialized());
  EXPECT_TRUE(ordered_nb_fixed().serialized());
  EXPECT_TRUE(least_waste().serialized());
}

TEST(Strategy, PaperOffsetsFollowSection35) {
  // Least-Waste issues requests a full period after the previous commit
  // (§3.5 candidate definition); everything else uses P - C (§2).
  EXPECT_EQ(least_waste().offset(), RequestOffset::kFullPeriod);
  for (const auto& s : paper_strategies()) {
    if (s.name() == "Least-Waste") continue;
    EXPECT_EQ(s.offset(), RequestOffset::kPeriodMinusCommit) << s.name();
  }
}

TEST(Strategy, DefaultSpecIsObliviousDaly) {
  const StrategySpec spec;
  EXPECT_EQ(spec.name(), "Oblivious-Daly");
  EXPECT_TRUE(spec == oblivious_daly());
}

TEST(Strategy, ParameterisedCompositionsDoNotAliasDefaults) {
  // A non-default fixed period and the non-paper Least-Waste variant carry
  // their parameters in the composition names, so they compare unequal to
  // the paper defaults instead of silently aliasing them.
  EXPECT_FALSE(oblivious_fixed(200.0) == oblivious_fixed());
  EXPECT_EQ(oblivious_fixed(200.0).name(), "Oblivious-Fixed@200s");
  EXPECT_FALSE(least_waste(LeastWasteVariant::kMarginal) == least_waste());
  EXPECT_EQ(least_waste(LeastWasteVariant::kMarginal).name(),
            "Least-Waste:marginal");
}

TEST(Strategy, DisplayNameOverride) {
  EXPECT_EQ(least_waste().name(), "Least-Waste");
  const StrategySpec renamed = ordered_nb_daly().named("chassis");
  EXPECT_EQ(renamed.name(), "chassis");
  EXPECT_EQ(renamed.coordination().name(), "Ordered-NB");
}

// --- round-tripping ---------------------------------------------------------

TEST(Strategy, EveryRegisteredStrategyRoundTripsByName) {
  const auto names = strategy_registry().names();
  EXPECT_GE(names.size(), 7u);
  for (const std::string& name : names) {
    const StrategySpec s = strategy_registry().make(name);
    const StrategySpec parsed = strategy_from_name(s.name());
    EXPECT_TRUE(parsed == s) << name;
    EXPECT_EQ(parsed.name(), s.name()) << name;
  }
}

TEST(Strategy, PaperStrategiesRoundTrip) {
  for (const auto& s : paper_strategies()) {
    const StrategySpec parsed = strategy_from_name(s.name());
    EXPECT_TRUE(parsed == s) << s.name();
  }
}

TEST(Strategy, NonCanonicalNbAliasesResolve) {
  EXPECT_TRUE(strategy_from_name("OrderedNB-Fixed") == ordered_nb_fixed());
  EXPECT_TRUE(strategy_from_name("OrderedNB-Daly") == ordered_nb_daly());
}

TEST(Strategy, CompositionalFallbackUsesCoordinationRegistry) {
  // "Smallest-First-Daly" is not a registered *strategy*, but the
  // coordination is registered and "Daly" names a period, so the
  // compositional fallback assembles it.
  const StrategySpec s = strategy_from_name("Smallest-First-Daly");
  EXPECT_EQ(s.coordination().name(), "Smallest-First");
  EXPECT_EQ(s.period(), daly_period());
  EXPECT_EQ(s.offset(), RequestOffset::kPeriodMinusCommit);
  EXPECT_TRUE(s.serialized());
}

TEST(Strategy, UnknownNameThrows) {
  EXPECT_THROW(strategy_from_name("Magic"), Error);
  EXPECT_THROW(strategy_from_name("Magic-Daly"), Error);
  EXPECT_THROW(strategy_from_name("Oblivious-Magic"), Error);
  EXPECT_THROW(strategy_from_name("Magic-tiered"), Error);
  EXPECT_THROW(strategy_from_name("Oblivious-Fixed@200s"), Error);
  EXPECT_THROW(strategy_from_name("Oblivious-daly"), Error);
}

// --- commit axis -------------------------------------------------------------

TEST(Strategy, DefaultCommitIsDirect) {
  for (const auto& s : paper_strategies()) {
    EXPECT_FALSE(s.tiered()) << s.name();
  }
}

TEST(Strategy, WithCommitExtendsDisplayName) {
  const StrategySpec tiered = least_waste().with_commit(/*tiered=*/true);
  EXPECT_EQ(tiered.name(), "Least-Waste-tiered");
  EXPECT_TRUE(tiered.tiered());
  EXPECT_TRUE(tiered != least_waste());
  // Composed (override-free) names get the suffix too.
  EXPECT_EQ(ordered_nb_daly().with_commit(/*tiered=*/true).name(),
            "Ordered-NB-Daly-tiered");
  // Re-applying the direct commit changes nothing.
  EXPECT_TRUE(least_waste().with_commit(/*tiered=*/false) == least_waste());
  // Switching a tiered spec back to direct strips the suffix again, so the
  // name keeps telling the truth about the commit path.
  EXPECT_TRUE(tiered.with_commit(/*tiered=*/false) == least_waste());
  EXPECT_EQ(tiered.with_commit(/*tiered=*/false).name(), "Least-Waste");
  EXPECT_TRUE(tiered.with_commit(/*tiered=*/true) == tiered);
}

TEST(Strategy, CommitSuffixResolvesThroughRegistryAliases) {
  // The acceptance spelling: "coop-daly" aliases the paper's cooperative
  // strategy, and the "-tiered" suffix composes the burst-buffer commit.
  const StrategySpec coop = strategy_from_name("coop-daly");
  EXPECT_TRUE(coop == least_waste());
  const StrategySpec tiered = strategy_from_name("coop-daly-tiered");
  EXPECT_EQ(tiered.name(), "Least-Waste-tiered");
  EXPECT_TRUE(tiered.tiered());
  EXPECT_EQ(tiered.coordination().name(), "Least-Waste");
  EXPECT_EQ(tiered.period(), daly_period());
  EXPECT_EQ(tiered.offset(), RequestOffset::kFullPeriod);
  // The suffix also composes with the compositional fallback.
  const StrategySpec composed = strategy_from_name("Ordered-NB-Daly-tiered");
  EXPECT_TRUE(composed ==
              strategy_from_name("Ordered-NB-Daly").with_commit(
                  /*tiered=*/true));
}

TEST(Strategy, TieredNamesRoundTrip) {
  struct Case {
    const char* name;
    CheckpointPeriod period;
    RequestOffset offset;
    bool tiered;
  };
  using O = RequestOffset;
  const Case cases[] = {
      {"Least-Waste-tiered", daly_period(), O::kFullPeriod, true},
      {"Ordered-Daly-tiered", daly_period(), O::kPeriodMinusCommit, true},
      {"coop-energy-tiered", energy_period(), O::kFullPeriod, true},
      {"Random-Fixed", fixed_period(), O::kPeriodMinusCommit, false},
      {"Smallest-First-Energy", energy_period(), O::kPeriodMinusCommit, false},
      // The offset comes from the coordination, not from the period.
      {"Least-Waste-Daly", daly_period(), O::kFullPeriod, false},
      {"Random-Energy-tiered", energy_period(), O::kPeriodMinusCommit, true},
  };
  for (const Case& c : cases) {
    const StrategySpec s = strategy_from_name(c.name);
    EXPECT_EQ(s.name(), c.name);
    EXPECT_EQ(s.period(), c.period) << c.name;
    EXPECT_EQ(s.offset(), c.offset) << c.name;
    EXPECT_EQ(s.tiered(), c.tiered) << c.name;
    EXPECT_TRUE(strategy_from_name(s.name()) == s) << c.name;
  }
}

// --- registry extensibility -------------------------------------------------

TEST(StrategyRegistryTest, RegisteredCustomStrategyIsReachableByName) {
  ASSERT_FALSE(strategy_registry().contains("Test-Custom"));
  strategy_registry().add(
      StrategySpec{smallest_first_coordination(), daly_period(),
                   RequestOffset::kFullPeriod, "Test-Custom"});
  ASSERT_TRUE(strategy_registry().contains("Test-Custom"));
  const StrategySpec s = strategy_from_name("Test-Custom");
  EXPECT_EQ(s.name(), "Test-Custom");
  EXPECT_EQ(s.coordination().name(), "Smallest-First");
  EXPECT_EQ(s.offset(), RequestOffset::kFullPeriod);
}

TEST(StrategyRegistryTest, CustomCoordinationPolicyComposesByName) {
  // A brand-new serialized coordination policy, registered on its axis,
  // becomes reachable through the compositional name fallback with no edits
  // to core/strategy.*.
  class YoungestFirst final : public TokenPolicy {
   public:
    std::size_t select(const std::vector<PendingEntry>& pending,
                       sim::Time) override {
      return pending.size() - 1;  // newest request (arrival-ordered queue)
    }
    std::string name() const override { return "test-youngest"; }
  };
  const auto custom = std::make_shared<const SerialCoordination>(
      "Test-Youngest", /*non_blocking_wait=*/true,
      [](const TokenPolicyContext&) {
        return std::make_unique<YoungestFirst>();
      });
  coordination_registry().add(custom);
  const StrategySpec s = strategy_from_name("Test-Youngest-Daly");
  EXPECT_EQ(s.coordination().name(), "Test-Youngest");
  EXPECT_TRUE(s.non_blocking_wait());
  const auto token = s.coordination().make_token_policy({});
  ASSERT_NE(token, nullptr);
  EXPECT_EQ(token->name(), "test-youngest");
}

}  // namespace
}  // namespace coopcr
