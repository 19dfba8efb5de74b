// Variance-reduction estimator guarantees (core/variance_reduction.hpp and
// the MonteCarloOptions antithetic / control_variate toggles):
//  * estimate_mean arithmetic — plain, paired and control-variate paths,
//    pinned to hand-computed values;
//  * antithetic pairing is measure-preserving: the primal member of every
//    pair is bit-identical to the corresponding plain replica, and the
//    pooled estimate lands inside the plain estimate's confidence band;
//  * the control variate degenerates safely (constant predictor -> beta 0)
//    and actually reduces variance (vr_factor > 1) on a failure-noise
//    dominated row, where its premise holds;
//  * option validation: odd replica counts are rejected under antithetic
//    pairing, and every slot, partner included, is its prepare_replica run;
//  * estimate_contrast arithmetic — per-replica paired differences, the
//    unpaired two-sample vr_factor credit and antithetic composition —
//    pinned to hand-computed values;
//  * the campaign-level contrast on a full-APEX-mix row cancels the shared
//    workload-schedule variance (vr_factor floor vs the unpaired
//    comparison);
//  * the replica-economy floors: at the Figure 1 160 GB/s row's production
//    sizes, the estimators' vr_factor and replicas-to-target reductions
//    stay at or above the figures EXPERIMENTS.md ("Replica economy")
//    advertises.

#include "core/variance_reduction.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/monte_carlo.hpp"
#include "core/scenario.hpp"
#include "exp/experiment.hpp"
#include "exp/sweep_runner.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workload/apex.hpp"
#include "workload/generator.hpp"

namespace coopcr {
namespace {

ScenarioConfig tiny_scenario() {
  return ScenarioBuilder::cielo_apex(/*seed=*/99)
      .pfs_bandwidth(units::gb_per_s(80))
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5))
      .build();
}

/// Failure-noise-isolated platform: one application class (EAP) and no
/// duration jitter make the workload deterministic, so every bit of
/// waste-ratio variance is failure-driven — the regime the control variate
/// is built for (EXPERIMENTS.md, "Replica economy").
ScenarioBuilder eap_only() {
  WorkloadOptions workload;
  workload.jitter = DurationJitter::kNone;
  ApplicationClass eap = apex_eap();
  eap.workload_share = 1.0;
  return ScenarioBuilder()
      .platform(PlatformSpec::cielo())
      .applications({eap})
      .workload(workload);
}

ScenarioConfig failure_isolated_scenario() {
  return eap_only()
      .min_makespan(units::days(6))
      .segment(units::days(1), units::days(5))
      .pfs_bandwidth(units::gb_per_s(160))
      .seed(77)
      .build();
}

TEST(EstimateMean, UnpairedMatchesSampleStatistics) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  const VrEstimate est = estimate_mean(samples, /*paired=*/false, {}, 0.0);
  EXPECT_DOUBLE_EQ(est.mean, 2.5);
  // Unbiased sample variance 5/3, so SE = sqrt((5/3)/4).
  EXPECT_DOUBLE_EQ(est.std_error, std::sqrt(5.0 / 12.0));
  EXPECT_DOUBLE_EQ(est.ci_width, 2.0 * 1.959963984540054 * est.std_error);
  EXPECT_DOUBLE_EQ(est.vr_factor, 1.0);
  EXPECT_DOUBLE_EQ(est.ess, 4.0);
  EXPECT_DOUBLE_EQ(est.cv_beta, 0.0);
  EXPECT_EQ(est.simulations, 4u);
}

TEST(EstimateMean, PairedEstimatesFromPairMeans) {
  // Pairs (1,3) and (2,6): pair means {2, 4}.
  const std::vector<double> samples = {1.0, 3.0, 2.0, 6.0};
  const VrEstimate est = estimate_mean(samples, /*paired=*/true, {}, 0.0);
  EXPECT_DOUBLE_EQ(est.mean, 3.0);
  // Unit variance over {2, 4} is 2, two units -> estimator variance 1.
  EXPECT_DOUBLE_EQ(est.std_error, 1.0);
  // Plain estimator over the raw samples: variance 14/3 over 4 samples.
  EXPECT_DOUBLE_EQ(est.vr_factor, (14.0 / 3.0 / 4.0) / 1.0);
  EXPECT_DOUBLE_EQ(est.ess, 4.0 * est.vr_factor);
  EXPECT_EQ(est.simulations, 4u);
}

TEST(EstimateMean, PerfectlyAnticorrelatedPairsCollapseTheError) {
  // Every pair sums to 6: the pair-mean sequence is constant, so the paired
  // estimator's error vanishes even though the raw spread is large.
  const std::vector<double> samples = {0.0, 6.0, 2.0, 4.0, 1.0, 5.0};
  const VrEstimate est = estimate_mean(samples, /*paired=*/true, {}, 0.0);
  EXPECT_DOUBLE_EQ(est.mean, 3.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
  EXPECT_DOUBLE_EQ(est.ci_width, 0.0);
}

TEST(EstimateMean, ConstantPredictorDegeneratesToPlainMean) {
  const std::vector<double> samples = {1.0, 2.0, 3.0, 4.0};
  const std::vector<double> predictors(4, 0.7);
  const VrEstimate plain = estimate_mean(samples, false, {}, 0.0);
  const VrEstimate cv = estimate_mean(samples, false, predictors, 0.7);
  EXPECT_DOUBLE_EQ(cv.cv_beta, 0.0);
  EXPECT_DOUBLE_EQ(cv.mean, plain.mean);
  EXPECT_DOUBLE_EQ(cv.std_error, plain.std_error);
  EXPECT_DOUBLE_EQ(cv.vr_factor, 1.0);
}

TEST(EstimateMean, PerfectlyLinearPredictorCancelsAllVariance) {
  // samples = 2 x + 5 exactly: beta fits to 2 and the adjusted units are
  // all equal to 2 E[X] + 5.
  const std::vector<double> predictors = {1.0, 2.0, 3.0, 4.0};
  std::vector<double> samples;
  for (const double x : predictors) samples.push_back(2.0 * x + 5.0);
  const VrEstimate est = estimate_mean(samples, false, predictors, 2.5);
  EXPECT_DOUBLE_EQ(est.cv_beta, 2.0);
  EXPECT_DOUBLE_EQ(est.mean, 10.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
}

TEST(EstimateMean, ValidatesItsInputs) {
  EXPECT_THROW(estimate_mean({}, false, {}, 0.0), Error);
  EXPECT_THROW(estimate_mean({1.0, 2.0, 3.0}, /*paired=*/true, {}, 0.0),
               Error);
  EXPECT_THROW(estimate_mean({1.0, 2.0}, false, {0.5}, 0.0), Error);
}

TEST(EstimateContrast, MatchesHandComputedPairedDifferences) {
  // diffs = {1, 1, 1, -1}: mean 1/2, sample variance 1, so the paired
  // estimator's variance is 1/4. The unpaired two-sample alternative over
  // the same budget: (var(A) + var(B)) / n = (20/3 + 35/3) / 4 = 55/12.
  const std::vector<double> a = {2.0, 4.0, 6.0, 8.0};
  const std::vector<double> b = {1.0, 3.0, 5.0, 9.0};
  const VrEstimate est = estimate_contrast(a, b, /*paired=*/false);
  EXPECT_DOUBLE_EQ(est.mean, 0.5);
  EXPECT_DOUBLE_EQ(est.std_error, 0.5);
  EXPECT_DOUBLE_EQ(est.ci_width, 2.0 * 1.959963984540054 * 0.5);
  EXPECT_DOUBLE_EQ(est.vr_factor, (55.0 / 12.0) / 0.25);
  EXPECT_DOUBLE_EQ(est.ess, 4.0 * est.vr_factor);
  EXPECT_EQ(est.simulations, 4u);
  EXPECT_DOUBLE_EQ(est.cv_beta, 0.0);
}

TEST(EstimateContrast, ComposesWithAntitheticPairing) {
  // diffs = {1, 2, 1, 4}; antithetic pair means {3/2, 5/2}: mean 2, unit
  // variance 1/2 over 2 units -> estimator variance 1/4. Unpaired:
  // (var(A) + var(B)) / n = (14/3 + 2/3) / 4 = 4/3.
  const std::vector<double> a = {1.0, 3.0, 2.0, 6.0};
  const std::vector<double> b = {0.0, 1.0, 1.0, 2.0};
  const VrEstimate est = estimate_contrast(a, b, /*paired=*/true);
  EXPECT_DOUBLE_EQ(est.mean, 2.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.5);
  EXPECT_DOUBLE_EQ(est.vr_factor, (4.0 / 3.0) / 0.25);
}

TEST(EstimateContrast, ValidatesItsInputs) {
  EXPECT_THROW(estimate_contrast({}, {}, false), Error);
  EXPECT_THROW(estimate_contrast({1.0, 2.0}, {1.0}, false), Error);
  EXPECT_THROW(
      estimate_contrast({1.0, 2.0, 3.0}, {1.0, 2.0, 3.0}, /*paired=*/true),
      Error);
}

TEST(EstimateContrast, IdenticalStrategiesCollapseTheContrastError) {
  // A strategy contrasted against itself: every difference is exactly 0 —
  // the degenerate-variance guard must report vr_factor 1, not infinity.
  const std::vector<double> a = {0.3, 0.4, 0.5, 0.6};
  const VrEstimate est = estimate_contrast(a, a, false);
  EXPECT_DOUBLE_EQ(est.mean, 0.0);
  EXPECT_DOUBLE_EQ(est.std_error, 0.0);
  EXPECT_DOUBLE_EQ(est.vr_factor, 1.0);
}

TEST(VarianceReduction, CampaignContrastCancelsSharedMixVarianceOnMixRow) {
  // Full APEX mix: the workload-schedule interaction dominates the
  // waste-ratio variance and is common to every strategy of a replica, so
  // the paired contrast beats the unpaired two-sample comparison by a wide
  // margin (ContrastEconomyFloor below holds the same floor at production
  // sizes). The reference strategy's own contrast stays off, and
  // the contrast mean must equal the difference of the per-strategy means
  // exactly — common random numbers change the variance, never the point
  // estimate.
  const ScenarioConfig scenario = tiny_scenario();
  MonteCarloOptions options;
  options.replicas = 48;
  options.threads = 4;
  const std::vector<StrategySpec> strategies = {oblivious_daly(),
                                                least_waste()};
  MonteCarloOptions contrast = options;
  contrast.contrast_reference = strategies[0].name();
  const auto report = run_monte_carlo(scenario, strategies, contrast);

  ASSERT_TRUE(report.contrast_enabled);
  EXPECT_EQ(report.contrast_reference, strategies[0].name());
  EXPECT_FALSE(report.outcomes[0].contrast.enabled);
  ASSERT_TRUE(report.outcomes[1].contrast.enabled);
  const VrEstimate& est = report.outcomes[1].contrast.estimate;
  EXPECT_GT(est.vr_factor, 2.0);
  EXPECT_NEAR(est.mean,
              report.outcomes[1].waste_ratio.mean() -
                  report.outcomes[0].waste_ratio.mean(),
              1e-12);
  EXPECT_EQ(est.simulations, 48u);
}

TEST(VarianceReduction, ContrastRejectsUnknownReferenceStrategy) {
  MonteCarloOptions options;
  options.replicas = 2;
  options.contrast_reference = "no-such-strategy";
  EXPECT_THROW(run_monte_carlo(tiny_scenario(), {least_waste()}, options),
               Error);
}

TEST(VarianceReduction, AntitheticPrimalMembersMatchPlainReplicas) {
  // Pair p's primal member draws from Rng::stream(seed, 2p) exactly as a
  // plain replica 2p would, so the even-indexed samples (and baseline
  // denominators) of an antithetic run are bit-identical to the plain run's.
  const ScenarioConfig scenario = tiny_scenario();
  MonteCarloOptions plain;
  plain.replicas = 4;
  plain.threads = 2;
  MonteCarloOptions anti = plain;
  anti.antithetic = true;
  const auto p = run_monte_carlo(scenario, {least_waste()}, plain);
  const auto a = run_monte_carlo(scenario, {least_waste()}, anti);

  const auto& ps = p.outcomes[0].waste_ratio.samples();
  const auto& as = a.outcomes[0].waste_ratio.samples();
  ASSERT_EQ(ps.size(), 4u);
  ASSERT_EQ(as.size(), 4u);
  EXPECT_EQ(as[0], ps[0]);
  EXPECT_EQ(as[2], ps[2]);
  // The partner is a genuinely different draw (the reflected stream), not a
  // copy of the next plain replica.
  EXPECT_NE(as[1], ps[1]);
  const auto& pb = p.baseline_useful.samples();
  const auto& ab = a.baseline_useful.samples();
  EXPECT_EQ(ab[0], pb[0]);
  EXPECT_EQ(ab[2], pb[2]);
  EXPECT_TRUE(a.vr_enabled);
  EXPECT_FALSE(p.vr_enabled);
}

TEST(VarianceReduction, AntitheticPooledMeanStaysInThePlainConfidenceBand) {
  // Measure preservation: the reflected stream samples the same distribution,
  // so the paired estimate must agree with the plain sample mean within the
  // pooled 3-sigma band (fixed seed -> this either always passes or always
  // fails; the margin at seed 99 is comfortable).
  const ScenarioConfig scenario = tiny_scenario();
  MonteCarloOptions plain;
  plain.replicas = 16;
  plain.threads = 4;
  MonteCarloOptions anti = plain;
  anti.antithetic = true;
  const auto p = run_monte_carlo(scenario, {least_waste()}, plain);
  const auto a = run_monte_carlo(scenario, {least_waste()}, anti);

  const SampleSet& pw = p.outcomes[0].waste_ratio;
  const VrEstimate& est = a.outcomes[0].vr.estimate;
  EXPECT_EQ(est.simulations, 16u);
  const double plain_se = pw.stddev() / std::sqrt(16.0);
  const double band =
      3.0 * std::sqrt(plain_se * plain_se + est.std_error * est.std_error);
  EXPECT_NEAR(est.mean, pw.mean(), band);
}

TEST(VarianceReduction, ControlVariateWinsOnFailureIsolatedRow) {
  // With the workload deterministic, the closed-form waste prediction at the
  // replica's failure count tracks the realised waste and the fitted
  // coefficient buys a real variance reduction (measured vr ~ 1.5 at this
  // size; the thresholds leave slack but would catch a broken estimator).
  const ScenarioConfig scenario = failure_isolated_scenario();
  MonteCarloOptions cv;
  cv.replicas = 64;
  cv.threads = 4;
  cv.control_variate = true;
  const auto report = run_monte_carlo(scenario, {least_waste()}, cv);
  const VrEstimate& est = report.outcomes[0].vr.estimate;
  EXPECT_GT(est.vr_factor, 1.2);
  EXPECT_GT(est.cv_beta, 0.5);
  EXPECT_GT(est.ess, 64.0 * 1.2);
  EXPECT_LT(est.std_error,
            report.outcomes[0].waste_ratio.stddev() / std::sqrt(64.0));
}

TEST(VarianceReduction, CombinedEstimatorStillBeatsPlainOnIsolatedRow) {
  const ScenarioConfig scenario = failure_isolated_scenario();
  MonteCarloOptions both;
  both.replicas = 64;
  both.threads = 4;
  both.antithetic = true;
  both.control_variate = true;
  const auto report = run_monte_carlo(scenario, {least_waste()}, both);
  EXPECT_GT(report.outcomes[0].vr.estimate.vr_factor, 1.05);
}

void expect_same_metrics(const ReplicaStrategyMetrics& a,
                         const ReplicaStrategyMetrics& b, int replica) {
  EXPECT_EQ(a.waste_ratio, b.waste_ratio) << "replica " << replica;
  EXPECT_EQ(a.efficiency, b.efficiency) << "replica " << replica;
  EXPECT_EQ(a.utilization, b.utilization) << "replica " << replica;
  EXPECT_EQ(a.failures_hit, b.failures_hit) << "replica " << replica;
  EXPECT_EQ(a.checkpoints, b.checkpoints) << "replica " << replica;
  EXPECT_EQ(a.energy_joules, b.energy_joules) << "replica " << replica;
  EXPECT_EQ(a.energy_waste_ratio, b.energy_waste_ratio)
      << "replica " << replica;
  EXPECT_EQ(a.ckpt_waste_ratio, b.ckpt_waste_ratio) << "replica " << replica;
}

TEST(VarianceReduction, AntitheticRejectsOddReplicasAndPairsPreparedReplicas) {
  const ScenarioConfig scenario = tiny_scenario();
  MonteCarloOptions odd;
  odd.replicas = 3;
  odd.antithetic = true;
  EXPECT_THROW(run_monte_carlo(scenario, {least_waste()}, odd), Error);

  // Every slot, partner included, is its prepare_replica run under the
  // campaign's own pipeline, and every primal slot equals the plain
  // campaign's slot bit for bit.
  MonteCarloOptions plain;
  plain.replicas = 4;
  MonteCarloOptions anti = plain;
  anti.antithetic = true;
  MonteCarloCampaign p(scenario, {least_waste()}, plain);
  MonteCarloCampaign a(scenario, {least_waste()}, anti);
  for (int r = 0; r < 4; ++r) {
    p.run_replica_task(r);
    a.run_replica_task(r);
    SimWorkspace workspace;
    const ReplicaInputs in = prepare_replica(
        scenario, static_cast<std::uint64_t>(r), /*antithetic=*/true,
        workspace);
    SimulationConfig cfg = scenario.simulation;
    cfg.strategy = least_waste();
    const ReplicaStrategyMetrics m = strategy_metrics(
        simulate(cfg, in.jobs, in.failures, workspace),
        in.slot.baseline_useful, in.slot.baseline_useful_energy);
    const ReplicaSlot& slot = a.slot(r);
    EXPECT_EQ(slot.baseline_useful, in.slot.baseline_useful) << r;
    EXPECT_EQ(slot.baseline_useful_energy, in.slot.baseline_useful_energy)
        << r;
    ASSERT_EQ(slot.per_strategy.size(), 1u);
    expect_same_metrics(slot.per_strategy[0], m, r);
    if (r % 2 == 0) {
      EXPECT_EQ(slot.baseline_useful, p.slot(r).baseline_useful) << r;
      expect_same_metrics(slot.per_strategy[0], p.slot(r).per_strategy[0], r);
    } else {
      // The partner is a genuinely different (mirrored) draw.
      EXPECT_NE(slot.baseline_useful, p.slot(r).baseline_useful) << r;
    }
  }
}

// --- Replica-economy floors -------------------------------------------------
//
// Replicas needed to reach a fixed 95% CI width on the Figure 1 160 GB/s
// row at the default scenario seed, grown from 16 in sequential-stopping
// rounds sized from the measured CI (exp::sequential_round_size). The
// floors are ratios of statistics, not timings: deterministic on any host,
// so they carry no slack. Two rows (EXPERIMENTS.md, "Replica economy"):
//  * the EAP row (eap_only above), where every bit of waste variance is
//    failure-driven;
//  * the mix row: the paper's full APEX mix, where the workload-schedule
//    interaction dominates and only the paired contrast cancels it.

constexpr int kEconomyStart = 16;
constexpr int kEconomyThreads = 4;
constexpr double kEapTarget = 0.0007;
constexpr double kContrastTarget = 0.004;

ScenarioBuilder economy_eap_row() {
  return eap_only().node_mtbf(units::years(2));
}

ScenarioBuilder economy_mix_row() {
  return ScenarioBuilder::cielo_apex().node_mtbf(units::years(2));
}

/// One campaign on `row` at 160 GB/s; sequential stopping when `options`
/// sets a target CI width.
MonteCarloReport economy_run(const ScenarioBuilder& row,
                             std::vector<Strategy> strategies,
                             const MonteCarloOptions& options) {
  exp::ExperimentSpec spec(row, "replica_economy");
  spec.pfs_bandwidth_axis({160})
      .strategies(std::move(strategies))
      .options(options);
  exp::SweepRunner runner(kEconomyThreads);
  return runner.run(spec).points[0].report;
}

/// Least-Waste alone to a 0.0007-wide CI on the EAP row: the plain sample
/// mean, or antithetic pairs plus the control variate.
MonteCarloReport eap_mean_leg(bool reduced) {
  MonteCarloOptions options;
  options.replicas = kEconomyStart;
  options.target_ci_width = kEapTarget;
  options.max_replicas = 4096;
  options.antithetic = reduced;
  options.control_variate = reduced;
  return economy_run(economy_eap_row(), {least_waste()}, options);
}

/// Least-Waste minus Oblivious-Daly to a 0.004-wide paired-contrast CI.
MonteCarloReport contrast_leg(const ScenarioBuilder& row) {
  MonteCarloOptions options;
  options.replicas = kEconomyStart;
  options.target_ci_width = kContrastTarget;
  options.max_replicas = 8192;
  options.contrast_reference = oblivious_daly().name();
  return economy_run(row, {oblivious_daly(), least_waste()}, options);
}

const MonteCarloReport& eap_reduced_leg() {
  static const MonteCarloReport report = eap_mean_leg(true);
  return report;
}

const MonteCarloReport& mix_contrast_leg() {
  static const MonteCarloReport report = contrast_leg(economy_mix_row());
  return report;
}

TEST(ReplicaEconomyFloor, EapRowVrFactorAtLeastTwo) {
  const VrEstimate& est = eap_reduced_leg().outcomes[0].vr.estimate;
  EXPECT_LE(est.ci_width, kEapTarget);
  EXPECT_GE(est.vr_factor, 2.0);
}

TEST(ReplicaEconomyFloor, EapRowReductionAtLeastTwo) {
  const MonteCarloReport plain = eap_mean_leg(/*reduced=*/false);
  const MonteCarloReport& reduced = eap_reduced_leg();
  EXPECT_LE(plain.outcomes[0].vr.estimate.ci_width, kEapTarget);
  EXPECT_GE(static_cast<double>(plain.replicas) /
                static_cast<double>(reduced.replicas),
            2.0)
      << plain.replicas << " plain vs " << reduced.replicas << " reduced";
}

TEST(ContrastEconomyFloor, EapRowVrFactorAtLeastOneAndAHalf) {
  const MonteCarloReport report = contrast_leg(economy_eap_row());
  const VrEstimate& est = report.outcomes[1].contrast.estimate;
  EXPECT_LE(est.ci_width, kContrastTarget);
  EXPECT_GE(est.vr_factor, 1.5);
}

TEST(ContrastEconomyFloor, MixRowVrFactorAtLeastTwo) {
  const VrEstimate& est = mix_contrast_leg().outcomes[1].contrast.estimate;
  EXPECT_LE(est.ci_width, kContrastTarget);
  EXPECT_GE(est.vr_factor, 2.0);
}

TEST(ContrastEconomyFloor, MixRowReductionAtLeastThree) {
  // The unpaired comparison estimates each strategy independently and takes
  // the classical two-sample width 2·z·sqrt(se_A² + se_B²) under the same
  // stopping rule: rounds from 16 sized by exp::sequential_round_size from
  // that width. It needs at least three times the paired contrast's C
  // replicas exactly when its CI is still above target at every round size
  // n < 3·C the rule visits. Replica r is a pure function of (seed, r), so
  // one fixed run of 3·C - 1 replicas holds every such round as a prefix.
  constexpr double kZ95 = 1.959963984540054;
  const MonteCarloReport& paired = mix_contrast_leg();
  const int converged = paired.replicas;
  ASSERT_LE(paired.outcomes[1].contrast.estimate.ci_width, kContrastTarget);
  const int largest = 3 * converged - 1;

  MonteCarloOptions options;
  options.replicas = largest;
  const MonteCarloReport unpaired = economy_run(
      economy_mix_row(), {oblivious_daly(), least_waste()}, options);
  ASSERT_EQ(unpaired.replicas, largest);
  for (std::size_t s = 0; s < unpaired.outcomes.size(); ++s) {
    const std::vector<double>& head = paired.outcomes[s].waste_ratio.samples();
    const std::vector<double>& all = unpaired.outcomes[s].waste_ratio.samples();
    ASSERT_TRUE(std::equal(head.begin(), head.end(), all.begin()))
        << "strategy " << s << ": the paired run is not a prefix";
  }

  for (int n = kEconomyStart; n > 0 && n < 3 * converged;) {
    double variance = 0.0;
    for (const StrategyOutcome& outcome : unpaired.outcomes) {
      const std::vector<double>& all = outcome.waste_ratio.samples();
      const SampleSet prefix(std::vector<double>(all.begin(), all.begin() + n));
      variance += prefix.stddev() * prefix.stddev() / n;
    }
    const double width = 2.0 * kZ95 * std::sqrt(variance);
    EXPECT_GT(width, kContrastTarget)
        << "unpaired CI reaches the target at n = " << n << ", under 3 x "
        << converged << " paired replicas";
    n = exp::sequential_round_size(n, width, kContrastTarget, /*cap=*/8192);
  }
}

}  // namespace
}  // namespace coopcr
