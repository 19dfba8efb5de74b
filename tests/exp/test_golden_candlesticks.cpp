// Statistical regression guard for the experiment/sweep subsystem.
//
// Complements the exact-counter determinism test (tests/core/
// test_determinism.cpp): where that test pins a single replica's event
// counters, this one pins the *distribution* summaries (d1/q1/mean/median/
// q3/d9 candlesticks) of a small fixed-seed Monte Carlo campaign for all
// seven paper strategies, run through exp::SweepRunner. Any engine,
// optimizer or policy change that shifts the waste-ratio distribution —
// even one that keeps individual counters plausible — shows up here.
//
// A second case pins the Figure 1 bench's 160 GB/s row (default seeds,
// 3 replicas) against the values the pre-migration hand-rolled bench
// emitted, proving the migrated sweep path reproduces the historical
// figures exactly.
//
// If a *deliberate* behaviour change invalidates these numbers, re-pin them
// and say so explicitly in the commit message.

#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "coopcr.hpp"

namespace coopcr {
namespace {

constexpr double kTol = 1e-9;

struct PinnedCandle {
  const char* strategy;
  double d1, q1, mean;
  double median, q3, d9;
};

// Captured from this implementation at PR 2 (seed 0xC1E10, Cielo/APEX @
// 40 GB/s, node MTBF 2 y, 8-day measured segment, 16 replicas); verified
// identical to per-point run_monte_carlo on the pre-existing harness.
const std::vector<PinnedCandle>& pinned_candles() {
  static const std::vector<PinnedCandle> kPinned = {
      {"Oblivious-Fixed",
       0.82825752407834963, 0.84518899570073669, 0.8771798226104881,
       0.8674851815836413, 0.91798188440805961, 0.93336312854412562},
      {"Oblivious-Daly",
       0.48897590589720175, 0.57540265801428336, 0.62409016162492859,
       0.61983073614311923, 0.73007650465808993, 0.74854431452997905},
      {"Ordered-Fixed",
       0.84731534124483554, 0.88197092598958027, 0.90753852001537427,
       0.91471932712962789, 0.93706067073611909, 0.95275622767912227},
      {"Ordered-Daly",
       0.46396471767664421, 0.60383916524781789, 0.64056479894079799,
       0.65246948539721905, 0.75544190149223911, 0.76690394640148551},
      {"Ordered-NB-Fixed",
       0.37866967603849006, 0.43283656678201032, 0.50654894760537394,
       0.52565954245164837, 0.58778848791982563, 0.6122582135617427},
      {"Ordered-NB-Daly",
       0.30434517376369974, 0.38596355344787564, 0.45101999975343887,
       0.46217660870036714, 0.54725120038572139, 0.57844579216962366},
      {"Least-Waste",
       0.27383656181437749, 0.35864431080720516, 0.43342627631086311,
       0.44614197540514861, 0.53284269651063099, 0.5713295839380621},
  };
  return kPinned;
}

exp::ExperimentReport run_pinned_campaign() {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex()
                               .pfs_bandwidth(units::gb_per_s(40))
                               .node_mtbf(units::years(2))
                               .min_makespan(units::days(10))
                               .segment(units::days(1), units::days(9)),
                           "golden_candlesticks");
  MonteCarloOptions options;
  options.replicas = 16;
  spec.strategies(paper_strategies()).options(options);
  exp::SweepRunner runner(/*threads=*/2);
  return runner.run(spec);
}

TEST(GoldenCandlesticks, AllPaperStrategiesMatchPinnedSummaries) {
  const exp::ExperimentReport report = run_pinned_campaign();
  ASSERT_EQ(report.points.size(), 1u);
  const MonteCarloReport& mc = report.at(0).report;
  ASSERT_EQ(mc.outcomes.size(), pinned_candles().size());
  for (std::size_t s = 0; s < pinned_candles().size(); ++s) {
    const PinnedCandle& expected = pinned_candles()[s];
    const StrategyOutcome& outcome = mc.outcomes[s];
    EXPECT_EQ(outcome.strategy.name(), expected.strategy);
    const Candlestick c = outcome.waste_ratio.candlestick();
    EXPECT_NEAR(c.d1, expected.d1, kTol) << expected.strategy;
    EXPECT_NEAR(c.q1, expected.q1, kTol) << expected.strategy;
    EXPECT_NEAR(c.mean, expected.mean, kTol) << expected.strategy;
    EXPECT_NEAR(c.median, expected.median, kTol) << expected.strategy;
    EXPECT_NEAR(c.q3, expected.q3, kTol) << expected.strategy;
    EXPECT_NEAR(c.d9, expected.d9, kTol) << expected.strategy;
    EXPECT_EQ(c.n, 16u);
  }
}

TEST(GoldenCandlesticks, CoversEveryPaperStrategy) {
  ASSERT_EQ(pinned_candles().size(), paper_strategies().size());
  for (std::size_t i = 0; i < pinned_candles().size(); ++i) {
    EXPECT_EQ(pinned_candles()[i].strategy, paper_strategies()[i].name());
  }
}

// The energy subsystem's statistical guard: the coop-energy strategy's
// time- and energy-waste distributions over the same pinned campaign
// (Cielo default PowerProfile, so P_ckpt/P_compute = 132/218 and the
// energy-optimal periods are ~0.778 x Daly). Captured from this
// implementation when the energy subsystem landed.
TEST(GoldenCandlesticks, CoopEnergyMatchesPinnedSummaries) {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex()
                               .pfs_bandwidth(units::gb_per_s(40))
                               .node_mtbf(units::years(2))
                               .min_makespan(units::days(10))
                               .segment(units::days(1), units::days(9)),
                           "golden_energy");
  MonteCarloOptions options;
  options.replicas = 16;
  spec.strategies({coop_energy()}).options(options);
  exp::SweepRunner runner(/*threads=*/2);
  const exp::ExperimentReport report = runner.run(spec);
  const StrategyOutcome& outcome = report.at(0).report.outcomes[0];
  EXPECT_EQ(outcome.strategy.name(), "coop-energy");

  const Candlestick waste = outcome.waste_ratio.candlestick();
  EXPECT_NEAR(waste.d1, 0.28273147565155177, kTol);
  EXPECT_NEAR(waste.q1, 0.35840920303653656, kTol);
  EXPECT_NEAR(waste.mean, 0.4370955535423745, kTol);
  EXPECT_NEAR(waste.median, 0.44994952748396433, kTol);
  EXPECT_NEAR(waste.q3, 0.53191114356759461, kTol);
  EXPECT_NEAR(waste.d9, 0.57637674799066319, kTol);

  const Candlestick energy = outcome.energy_waste_ratio.candlestick();
  EXPECT_NEAR(energy.d1, 0.22130303413537394, kTol);
  EXPECT_NEAR(energy.q1, 0.28083968905734491, kTol);
  EXPECT_NEAR(energy.mean, 0.3327463580128398, kTol);
  EXPECT_NEAR(energy.median, 0.34153287039551122, kTol);
  EXPECT_NEAR(energy.q3, 0.40030263268536226, kTol);
  EXPECT_NEAR(energy.d9, 0.42526640117476516, kTol);
  EXPECT_EQ(energy.n, 16u);
}

// The tiered-commit (burst-buffer) statistical guard, over the same pinned
// campaign with a 400 GB/s fast tier sized to the full checkpoint working
// set (capacity factor 1). Two claims are pinned: the acceptance property —
// tiered commits strictly reduce blocked-checkpoint waste vs direct at
// capacity factor >= 1 on Cielo/APEX — and the exact candlesticks of the
// "coop-daly-tiered" (Least-Waste-tiered) composition, captured from this
// implementation when the storage-tier subsystem landed. The direct
// Least-Waste series in the same sweep must stay bit-identical to
// pinned_candles() above: configuring a buffer must not perturb direct runs.
TEST(GoldenCandlesticks, TieredCommitMatchesPinnedSummariesAndBeatsDirect) {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex()
                               .pfs_bandwidth(units::gb_per_s(40))
                               .node_mtbf(units::years(2))
                               .min_makespan(units::days(10))
                               .segment(units::days(1), units::days(9))
                               .burst_buffer(1.0, units::gb_per_s(400)),
                           "golden_tiered");
  MonteCarloOptions options;
  options.replicas = 16;
  spec.strategies({least_waste(), strategy_from_name("coop-daly-tiered")})
      .options(options);
  exp::SweepRunner runner(/*threads=*/2);
  const exp::ExperimentReport report = runner.run(spec);
  const MonteCarloReport& mc = report.at(0).report;

  const StrategyOutcome& direct = mc.outcome("Least-Waste");
  const StrategyOutcome& tiered = mc.outcome("Least-Waste-tiered");

  // Direct runs ignore the buffer entirely (same numbers as pinned_candles).
  const Candlestick dw = direct.waste_ratio.candlestick();
  EXPECT_NEAR(dw.mean, 0.43342627631086311, kTol);
  EXPECT_NEAR(dw.median, 0.44614197540514861, kTol);

  // Blocked-commit waste: absorbing at 10x bandwidth collapses the time
  // applications spend blocked in commits — strictly, per replica.
  const Candlestick dc = direct.ckpt_waste_ratio.candlestick();
  const Candlestick tc = tiered.ckpt_waste_ratio.candlestick();
  for (std::size_t r = 0; r < tiered.ckpt_waste_ratio.samples().size(); ++r) {
    EXPECT_LT(tiered.ckpt_waste_ratio.samples()[r],
              direct.ckpt_waste_ratio.samples()[r])
        << "replica " << r;
  }
  EXPECT_NEAR(dc.mean, 0.064366665067896567, kTol);

  EXPECT_NEAR(tc.d1, 0.010640780703330084, kTol);
  EXPECT_NEAR(tc.q1, 0.011187975073743701, kTol);
  EXPECT_NEAR(tc.mean, 0.01221958752549572, kTol);
  EXPECT_NEAR(tc.median, 0.011915027768685429, kTol);
  EXPECT_NEAR(tc.q3, 0.013020368789642557, kTol);
  EXPECT_NEAR(tc.d9, 0.014465885574692802, kTol);
  EXPECT_EQ(tc.n, 16u);

  // The total waste ratio of the tiered run (drains contend for the PFS and
  // failures lose un-drained snapshots — see EXPERIMENTS.md).
  const Candlestick tw = tiered.waste_ratio.candlestick();
  EXPECT_NEAR(tw.d1, 0.31849524794390438, kTol);
  EXPECT_NEAR(tw.q1, 0.43107171037498587, kTol);
  EXPECT_NEAR(tw.mean, 0.50362420515405926, kTol);
  EXPECT_NEAR(tw.median, 0.51426858822237231, kTol);
  EXPECT_NEAR(tw.q3, 0.62245551892406226, kTol);
  EXPECT_NEAR(tw.d9, 0.64837795584540336, kTol);
}

// The antithetic artifact pin: a two-point in-process sweep with every
// estimator that consumes the pairing switched on (antithetic pairs, the
// control variate, 2-bin post-stratification and the Oblivious-Daly
// contrast), its CSV and JSON report bytes pinned by FNV-1a digest. Captured
// from this implementation while the pair partner was still carried inside
// its primal replica's slot; the one-slot-per-replica layout had to
// reproduce these bytes exactly.
std::uint64_t fnv1a(const std::string& bytes) {
  std::uint64_t h = 14695981039346656037ull;
  for (const unsigned char c : bytes) h = (h ^ c) * 1099511628211ull;
  return h;
}

TEST(GoldenCandlesticks, AntitheticEstimatorStackMatchesPinnedArtifactBytes) {
  exp::ExperimentSpec spec(ScenarioBuilder::cielo_apex(/*seed=*/99)
                               .min_makespan(units::days(6))
                               .segment(units::days(1), units::days(5)),
                           "golden_antithetic");
  MonteCarloOptions options;
  options.replicas = 8;
  options.antithetic = true;
  options.control_variate = true;
  options.strata_bins = 2;
  options.contrast_reference = "Oblivious-Daly";
  spec.pfs_bandwidth_axis({80, 160})
      .strategies({oblivious_daly(), least_waste()})
      .options(options);
  exp::SweepRunner runner(/*threads=*/2);
  const exp::ExperimentReport report = runner.run(spec);
  std::ostringstream csv;
  std::ostringstream json;
  report.write_csv(csv);
  report.write_json(json);
  EXPECT_EQ(csv.str().size(), 5664u);
  EXPECT_EQ(fnv1a(csv.str()), 2502659888703960838ull);
  EXPECT_EQ(json.str().size(), 8589u);
  EXPECT_EQ(fnv1a(json.str()), 6220827004431026389ull);
}

// The Figure 1 bench's 160 GB/s row with the default seeds and 3 replicas,
// as emitted by the pre-migration bench's CSV (6-decimal fixed precision —
// hence the looser rounding tolerance).
struct Fig1Row {
  const char* strategy;
  double mean, d1, q1, median, q3, d9;
};

TEST(GoldenCandlesticks, Fig1BandwidthRowMatchesPreMigrationBench) {
  static const std::vector<Fig1Row> kFig1At160 = {
      {"Oblivious-Fixed", 0.270499, 0.258345, 0.262229, 0.268703, 0.277872,
       0.283373},
      {"Oblivious-Daly", 0.210270, 0.203003, 0.203112, 0.203294, 0.213939,
       0.220326},
      {"Ordered-Fixed", 0.181829, 0.173696, 0.174744, 0.176489, 0.186244,
       0.192097},
      {"Ordered-Daly", 0.173982, 0.167315, 0.167646, 0.168198, 0.177425,
       0.182962},
      {"Ordered-NB-Fixed", 0.163093, 0.157814, 0.159080, 0.161192, 0.166155,
       0.169133},
      {"Ordered-NB-Daly", 0.152666, 0.149248, 0.150507, 0.152607, 0.154795,
       0.156108},
      {"Least-Waste", 0.149941, 0.146788, 0.148035, 0.150111, 0.151932,
       0.153025},
  };
  exp::ExperimentSpec spec(
      ScenarioBuilder::cielo_apex().node_mtbf(units::years(2)),
      "fig1_spot_row");
  MonteCarloOptions options;
  options.replicas = 3;
  spec.pfs_bandwidth_axis({160}).strategies(paper_strategies()).options(
      options);
  exp::SweepRunner runner(/*threads=*/2);
  const exp::ExperimentReport report = runner.run(spec);
  const MonteCarloReport& mc = report.at(0).report;
  ASSERT_EQ(mc.outcomes.size(), kFig1At160.size());
  for (std::size_t s = 0; s < kFig1At160.size(); ++s) {
    const Fig1Row& expected = kFig1At160[s];
    const StrategyOutcome& outcome = mc.outcomes[s];
    EXPECT_EQ(outcome.strategy.name(), expected.strategy);
    const Candlestick c = outcome.waste_ratio.candlestick();
    const double tol = 5e-7;  // pre-migration CSV carries 6 decimals
    EXPECT_NEAR(c.mean, expected.mean, tol) << expected.strategy;
    EXPECT_NEAR(c.d1, expected.d1, tol) << expected.strategy;
    EXPECT_NEAR(c.q1, expected.q1, tol) << expected.strategy;
    EXPECT_NEAR(c.median, expected.median, tol) << expected.strategy;
    EXPECT_NEAR(c.q3, expected.q3, tol) << expected.strategy;
    EXPECT_NEAR(c.d9, expected.d9, tol) << expected.strategy;
  }
}

}  // namespace
}  // namespace coopcr
