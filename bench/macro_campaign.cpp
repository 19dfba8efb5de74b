// End-to-end Monte Carlo replica throughput on the cielo_apex preset.
//
// Where micro_engine bounds the cost of the substrate's individual
// operations, this bench measures what the user actually pays: full
// replicas — workload generation, a fault-free baseline run and all seven
// paper strategies — per wall-clock second. It is the number every
// SweepRunner grid point multiplies.
//
// Output is one machine-readable line per metric ("key = value") plus a
// short human summary; tools/bench_to_json.py folds these lines (together
// with micro_engine's JSON) into BENCH_engine.json, the repo's tracked
// perf trajectory. EXPERIMENTS.md ("Benchmarking methodology") documents
// how to run and read it.
//
// A second section measures the dist layer: the same campaign run through
// DistSweepRunner at 1/2/4/8 worker processes, reported as
// "macro_campaign.dist_scaling.shards_N.*" lines — the shard-count scaling
// curve, tracked in BENCH_engine.json alongside the single-process number.
// The dominant cost per unit is the replica simulation itself, so the curve
// mostly reads as fork/pipe/journal-free coordination overhead at N=1 and
// scheduling efficiency beyond.
//
// Knobs: COOPCR_REPLICAS (default 8) and COOPCR_THREADS (default 1 — keep
// single-threaded for comparable replicas/sec across machines; raise it to
// measure scaling instead).

#include <chrono>
#include <cmath>
#include <cstdio>

#include "bench_util.hpp"
#include "coopcr.hpp"

namespace {

using namespace coopcr;

struct Measurement {
  double wall_seconds = 0.0;
  int replicas = 0;
  std::size_t strategies = 0;
  std::uint64_t events = 0;  ///< engine events executed, all runs summed
};

ScenarioBuilder bench_base() {
  return ScenarioBuilder::cielo_apex()
      .pfs_bandwidth(units::gb_per_s(40))
      .node_mtbf(units::years(2))
      .min_makespan(units::days(10))
      .segment(units::days(1), units::days(9));
}

Measurement run_campaign(const MonteCarloOptions& options) {
  const ScenarioConfig scenario = bench_base().build();
  const std::vector<Strategy> strategies = paper_strategies();

  MonteCarloOptions opts = options;
  opts.keep_results = true;
  // This section measures raw replica throughput; the estimator knobs from
  // the environment (COOPCR_TARGET_CI drives the replica-economy section
  // below) must not leak into it.
  opts.antithetic = false;
  opts.control_variate = false;
  opts.target_ci_width = 0.0;
  const auto t0 = std::chrono::steady_clock::now();
  const MonteCarloReport report = run_monte_carlo(scenario, strategies, opts);
  const auto t1 = std::chrono::steady_clock::now();

  Measurement m;
  m.wall_seconds = std::chrono::duration<double>(t1 - t0).count();
  m.replicas = report.replicas;
  m.strategies = report.outcomes.size();
  for (const StrategyOutcome& outcome : report.outcomes) {
    for (const SimulationResult& result : outcome.results) {
      m.events += result.events;
    }
  }
  return m;
}

/// One sequential-stopping run on a Figure 1 160 GB/s spot row, least_waste
/// only: grow replicas in doubling rounds until the waste-ratio 95% CI is at
/// most `target_ci`. `vr` toggles the full estimator stack (antithetic pairs
/// + control variate) against the plain sample mean — the replica counts'
/// ratio is the "replica economy" the estimators buy.
///
/// Two rows are measured, because the estimators only attack *failure*
/// randomness:
///  - `eap_row`: the fig1 platform/bandwidth with the dominant APEX class
///    (EAP, 66% of the mix) as the whole workload and duration jitter off.
///    The workload is then deterministic, every bit of waste variance is
///    failure-driven, and the closed-form control variate plus antithetic
///    gap pairing cut the replica bill by >= 2x.
///  - `apex_mix` (reference): the paper's full APEX mix, where the waste
///    variance is dominated by the workload-schedule interaction that no
///    estimator trick can cancel — vr_factor sits near 1 and sequential
///    stopping alone is the economy. EXPERIMENTS.md ("Replica economy")
///    documents both regimes.
struct EconomyRun {
  int replicas = 0;        ///< replicas consumed at convergence
  double ci_width = 0.0;   ///< achieved 95% CI width
  double vr_factor = 1.0;  ///< estimator variance reduction factor
  double ess = 0.0;        ///< effective sample size
};

ScenarioBuilder economy_eap_row() {
  WorkloadOptions workload;
  workload.jitter = DurationJitter::kNone;
  ApplicationClass eap = apex_eap();
  eap.workload_share = 1.0;
  return ScenarioBuilder()
      .platform(PlatformSpec::cielo())
      .applications({eap})
      .workload(workload)
      .node_mtbf(units::years(2));
}

EconomyRun run_economy(const ScenarioBuilder& row, const char* name, bool vr,
                       double target_ci, int threads) {
  exp::ExperimentSpec spec(row, name);
  MonteCarloOptions options;
  options.replicas = 16;
  options.target_ci_width = target_ci;
  options.max_replicas = 4096;
  options.antithetic = vr;
  options.control_variate = vr;
  spec.pfs_bandwidth_axis({160}).strategies({least_waste()}).options(options);

  exp::SweepRunner runner(threads);
  const exp::ExperimentReport report = runner.run(spec);
  const StrategyOutcome& outcome = report.points[0].report.outcomes[0];
  EconomyRun run;
  run.replicas = report.points[0].report.replicas;
  run.ci_width = outcome.vr.estimate.ci_width;
  run.vr_factor = outcome.vr.estimate.vr_factor;
  run.ess = outcome.vr.estimate.ess;
  return run;
}

/// Paired strategy-contrast economy on one fig1 160 GB/s spot row: replicas
/// needed to pin E[waste(least_waste) - waste(oblivious-daly)] to a target
/// 95% CI, with the common-random-numbers contrast estimator versus the
/// classical unpaired two-sample comparison over independent per-strategy
/// estimates. Both legs follow the same doubling schedule from 16 replicas,
/// so `reduction` reads directly as the replica bill the pairing saves —
/// this is the headline of the "Strategy contrasts" estimator round: on the
/// full APEX mix the workload-schedule variance that defeats the
/// per-strategy estimators is *common* to every strategy of a replica, so
/// the paired difference cancels it and the comparison converges in a
/// fraction of the replicas.
struct ContrastEconomy {
  int contrast_replicas = 0;   ///< replicas the paired contrast consumed
  double contrast_mean = 0.0;  ///< contrast point estimate at convergence
  double contrast_ci = 0.0;    ///< achieved contrast 95% CI width
  double vr_factor = 1.0;      ///< contrast vr_factor vs unpaired, measured
  int unpaired_replicas = 0;   ///< replicas the unpaired comparison needed
  double unpaired_ci = 0.0;    ///< achieved unpaired 95% CI width
  double reduction = 1.0;      ///< unpaired_replicas / contrast_replicas
};

ContrastEconomy run_contrast_economy(const ScenarioBuilder& row,
                                     const char* name, double target_ci,
                                     int threads) {
  constexpr double kZ95 = 1.959963984540054;
  constexpr int kStart = 16;
  constexpr int kCap = 8192;

  const auto make_spec = [&](const MonteCarloOptions& options) {
    exp::ExperimentSpec spec(row, name);
    spec.pfs_bandwidth_axis({160})
        .strategies({oblivious_daly(), least_waste()})
        .options(options);
    return spec;
  };

  ContrastEconomy economy;

  // Contrast leg: sequential stopping on the paired-contrast CI (the
  // reference strategy contributes a zero-width CI, so the target binds on
  // the least_waste - reference difference alone).
  {
    MonteCarloOptions options;
    options.replicas = kStart;
    options.target_ci_width = target_ci;
    options.max_replicas = kCap;
    exp::ExperimentSpec spec = make_spec(options);
    MonteCarloOptions with_contrast = spec.campaign_options();
    with_contrast.contrast_reference = spec.strategy_set()[0].name();
    spec.options(with_contrast);
    exp::SweepRunner runner(threads);
    const exp::ExperimentReport report = runner.run(spec);
    const StrategyOutcome& outcome = report.points[0].report.outcomes[1];
    economy.contrast_replicas = report.points[0].report.replicas;
    economy.contrast_mean = outcome.contrast.estimate.mean;
    economy.contrast_ci = outcome.contrast.estimate.ci_width;
    economy.vr_factor = outcome.contrast.estimate.vr_factor;
  }

  // Unpaired baseline: the same doubling schedule, but each strategy
  // estimated independently and the difference's CI taken as the classical
  // two-sample width 2·z·sqrt(se_A² + se_B²). Replica r is a pure function
  // of (seed, r), so rerunning at each doubled count reproduces the exact
  // prefix the extend path would.
  for (int n = kStart;; n *= 2) {
    MonteCarloOptions options;
    options.replicas = n;
    exp::ExperimentSpec spec = make_spec(options);
    exp::SweepRunner runner(threads);
    const exp::ExperimentReport report = runner.run(spec);
    const auto& outcomes = report.points[0].report.outcomes;
    const double inv_n = 1.0 / static_cast<double>(n);
    double variance = 0.0;
    for (const StrategyOutcome& outcome : outcomes) {
      const SampleSet& samples =
          exp::metric_samples(outcome, exp::Metric::kWasteRatio);
      variance += samples.stddev() * samples.stddev() * inv_n;
    }
    economy.unpaired_replicas = n;
    economy.unpaired_ci = 2.0 * kZ95 * std::sqrt(variance);
    if (economy.unpaired_ci <= target_ci || n >= kCap) break;
  }

  economy.reduction = static_cast<double>(economy.unpaired_replicas) /
                      static_cast<double>(economy.contrast_replicas);
  return economy;
}

/// Wall-clock one DistSweepRunner pass over the bench campaign with
/// `shards` worker processes (same scenario and strategy set as the
/// single-process measurement, no journal — pure execution cost). With
/// `empty_plan` an inert FaultPlan object rides along, so every
/// fault-injection hook in the coordinator's hot loop executes against an
/// empty action list — the seam whose overhead the fault_seam section pins
/// at zero.
double run_dist_campaign(int replicas, int shards, bool empty_plan = false) {
  exp::ExperimentSpec spec(bench_base(), "macro_dist");
  MonteCarloOptions options;
  options.replicas = replicas;
  spec.pfs_bandwidth_axis({40}).strategies(paper_strategies()).options(options);

  dist::DistOptions dist_options;
  dist_options.shards = shards;
  if (empty_plan) {
    dist_options.fault_plan = std::make_shared<dist::FaultPlan>();
  }
  dist::DistSweepRunner runner(dist_options);
  const auto t0 = std::chrono::steady_clock::now();
  runner.run(spec);
  const auto t1 = std::chrono::steady_clock::now();
  return std::chrono::duration<double>(t1 - t0).count();
}

}  // namespace

int main() {
  const MonteCarloOptions options =
      MonteCarloOptions::from_env(/*default_replicas=*/8,
                                  /*default_threads=*/1);

  // One untimed warm-up replica so lazy initialisation (thread pools, libc
  // arenas) does not pollute the measured run.
  {
    MonteCarloOptions warmup = options;
    warmup.replicas = 1;
    run_campaign(warmup);
  }

  const Measurement m = run_campaign(options);
  const double replicas_per_sec =
      static_cast<double>(m.replicas) / m.wall_seconds;
  const double events_per_sec =
      static_cast<double>(m.events) / m.wall_seconds;

  std::printf("macro_campaign.scenario = cielo_apex_40GBs_2y_8day\n");
  std::printf("macro_campaign.replicas = %d\n", m.replicas);
  std::printf("macro_campaign.strategies = %zu\n", m.strategies);
  std::printf("macro_campaign.threads = %d\n", options.threads);
  std::printf("macro_campaign.wall_seconds = %.6f\n", m.wall_seconds);
  std::printf("macro_campaign.replicas_per_sec = %.6f\n", replicas_per_sec);
  std::printf("macro_campaign.strategy_runs_per_sec = %.6f\n",
              replicas_per_sec * static_cast<double>(m.strategies));
  std::printf("macro_campaign.events_per_sec = %.0f\n", events_per_sec);
  std::printf(
      "\n%d replicas x %zu strategies in %.2f s -> %.3f replicas/s "
      "(%.0f engine events/s)\n",
      m.replicas, m.strategies, m.wall_seconds, replicas_per_sec,
      events_per_sec);

  // Shard-count scaling curve through the dist layer. Per-shard lines nest
  // under macro_campaign.dist_scaling in BENCH_engine.json.
  double one_shard_seconds = 0.0;
  for (const int shards : {1, 2, 4, 8}) {
    const double seconds = run_dist_campaign(options.replicas, shards);
    if (shards == 1) one_shard_seconds = seconds;
    const double dist_replicas_per_sec =
        static_cast<double>(options.replicas) / seconds;
    std::printf("macro_campaign.dist_scaling.shards_%d.wall_seconds = %.6f\n",
                shards, seconds);
    std::printf(
        "macro_campaign.dist_scaling.shards_%d.replicas_per_sec = %.6f\n",
        shards, dist_replicas_per_sec);
    std::printf("macro_campaign.dist_scaling.shards_%d.speedup = %.3f\n",
                shards, one_shard_seconds / seconds);
  }

  // Fault-seam guard: the same dist leg with an inert (empty) FaultPlan
  // attached. The fault-injection hooks are compiled in always; this pins
  // their cost on the fault-free path — overhead_ratio must track 1.0.
  {
    const double plain = run_dist_campaign(options.replicas, 2, false);
    const double seamed = run_dist_campaign(options.replicas, 2, true);
    std::printf("macro_campaign.fault_seam.plain_wall_seconds = %.6f\n",
                plain);
    std::printf("macro_campaign.fault_seam.empty_plan_wall_seconds = %.6f\n",
                seamed);
    std::printf("macro_campaign.fault_seam.overhead_ratio = %.4f\n",
                seamed / plain);
  }

  // Replica economy: replicas needed to hit a fixed CI on the Figure 1
  // 160 GB/s spot row, plain estimator vs antithetic + control variate
  // (COOPCR_TARGET_CI overrides the headline row's CI target). `reduction`
  // is the headline: how many times fewer simulations the variance-reduced
  // estimator needs on the failure-noise-dominated EAP row.
  const double target_ci = env::double_knob("COOPCR_TARGET_CI", 0.0007, 0.0);
  const ScenarioBuilder eap_row = economy_eap_row();
  const EconomyRun plain =
      run_economy(eap_row, "replica_economy", false, target_ci,
                  options.threads);
  const EconomyRun reduced =
      run_economy(eap_row, "replica_economy", true, target_ci,
                  options.threads);
  std::printf("macro_campaign.replica_economy.target_ci = %.6f\n", target_ci);
  std::printf("macro_campaign.replica_economy.plain_replicas = %d\n",
              plain.replicas);
  std::printf("macro_campaign.replica_economy.plain_ci_width = %.6f\n",
              plain.ci_width);
  std::printf("macro_campaign.replica_economy.vr_replicas = %d\n",
              reduced.replicas);
  std::printf("macro_campaign.replica_economy.vr_ci_width = %.6f\n",
              reduced.ci_width);
  std::printf("macro_campaign.replica_economy.vr_factor = %.3f\n",
              reduced.vr_factor);
  std::printf("macro_campaign.replica_economy.vr_ess = %.1f\n", reduced.ess);
  std::printf("macro_campaign.replica_economy.reduction = %.3f\n",
              static_cast<double>(plain.replicas) /
                  static_cast<double>(reduced.replicas));

  // Reference row: the full APEX mix, where workload-schedule variance
  // dominates and the estimators are a wash (vr_factor ~ 1). Kept in the
  // tracked bench output so the regime split stays visible.
  const ScenarioBuilder mix_row =
      ScenarioBuilder::cielo_apex().node_mtbf(units::years(2));
  const double mix_target = env::double_knob("COOPCR_MIX_TARGET_CI", 0.004,
                                             /*min_value=*/0.0);
  const EconomyRun mix_plain =
      run_economy(mix_row, "replica_economy_mix", false, mix_target,
                  options.threads);
  const EconomyRun mix_vr =
      run_economy(mix_row, "replica_economy_mix", true, mix_target,
                  options.threads);
  std::printf("macro_campaign.replica_economy.apex_mix.plain_replicas = %d\n",
              mix_plain.replicas);
  std::printf("macro_campaign.replica_economy.apex_mix.vr_replicas = %d\n",
              mix_vr.replicas);
  std::printf("macro_campaign.replica_economy.apex_mix.vr_factor = %.3f\n",
              mix_vr.vr_factor);

  // Contrast economy: replicas needed to pin the least_waste-vs-oblivious
  // waste-ratio *difference* to a fixed CI — common-random-numbers paired
  // contrast versus the unpaired two-sample comparison. Reported on both
  // regimes: the failure-isolated EAP row (failure noise is shared too, so
  // the pairing still wins) and the full APEX mix, where the contrast
  // cancels the workload-schedule variance the per-strategy estimators
  // cannot touch and the replica reduction is the headline number
  // tools/bench_check.py holds a floor on.
  const double contrast_target =
      env::double_knob("COOPCR_CONTRAST_TARGET_CI", 0.004, 0.0);
  const ContrastEconomy eap_contrast = run_contrast_economy(
      eap_row, "contrast_economy", contrast_target, options.threads);
  std::printf("macro_campaign.contrast_economy.target_ci = %.6f\n",
              contrast_target);
  std::printf("macro_campaign.contrast_economy.contrast_replicas = %d\n",
              eap_contrast.contrast_replicas);
  std::printf("macro_campaign.contrast_economy.contrast_ci_width = %.6f\n",
              eap_contrast.contrast_ci);
  std::printf("macro_campaign.contrast_economy.vr_factor = %.3f\n",
              eap_contrast.vr_factor);
  std::printf("macro_campaign.contrast_economy.unpaired_replicas = %d\n",
              eap_contrast.unpaired_replicas);
  std::printf("macro_campaign.contrast_economy.unpaired_ci_width = %.6f\n",
              eap_contrast.unpaired_ci);
  std::printf("macro_campaign.contrast_economy.reduction = %.3f\n",
              eap_contrast.reduction);

  const double mix_contrast_target =
      env::double_knob("COOPCR_CONTRAST_MIX_TARGET_CI", 0.004, 0.0);
  const ContrastEconomy mix_contrast = run_contrast_economy(
      mix_row, "contrast_economy_mix", mix_contrast_target, options.threads);
  std::printf("macro_campaign.contrast_economy.apex_mix.target_ci = %.6f\n",
              mix_contrast_target);
  std::printf(
      "macro_campaign.contrast_economy.apex_mix.contrast_replicas = %d\n",
      mix_contrast.contrast_replicas);
  std::printf(
      "macro_campaign.contrast_economy.apex_mix.contrast_ci_width = %.6f\n",
      mix_contrast.contrast_ci);
  std::printf("macro_campaign.contrast_economy.apex_mix.vr_factor = %.3f\n",
              mix_contrast.vr_factor);
  std::printf(
      "macro_campaign.contrast_economy.apex_mix.unpaired_replicas = %d\n",
      mix_contrast.unpaired_replicas);
  std::printf(
      "macro_campaign.contrast_economy.apex_mix.unpaired_ci_width = %.6f\n",
      mix_contrast.unpaired_ci);
  std::printf("macro_campaign.contrast_economy.apex_mix.reduction = %.3f\n",
              mix_contrast.reduction);
  std::printf(
      "\ncontrast economy (apex mix): %d paired vs %d unpaired replicas "
      "-> %.1fx fewer (vr_factor %.1f)\n",
      mix_contrast.contrast_replicas, mix_contrast.unpaired_replicas,
      mix_contrast.reduction, mix_contrast.vr_factor);
  return 0;
}
