#include "core/monte_carlo.hpp"

#include <algorithm>
#include <atomic>
#include <exception>
#include <thread>

#include "core/lower_bound.hpp"
#include "platform/failure_model.hpp"
#include "util/env.hpp"
#include "util/error.hpp"
#include "util/thread_pool.hpp"
#include "workload/generator.hpp"

namespace coopcr {

MonteCarloOptions MonteCarloOptions::from_env(int default_replicas,
                                              int default_threads) {
  MonteCarloOptions options;
  options.replicas = env::int_knob("COOPCR_REPLICAS", default_replicas,
                                   /*min_value=*/1);
  options.threads = env::int_knob("COOPCR_THREADS", default_threads,
                                  /*min_value=*/0);
  options.antithetic = env::flag_knob("COOPCR_ANTITHETIC");
  options.control_variate = env::flag_knob("COOPCR_CONTROL_VARIATE");
  options.target_ci_width =
      env::double_knob("COOPCR_TARGET_CI", 0.0, /*min_value=*/0.0);
  options.max_replicas = env::int_knob("COOPCR_MAX_REPLICAS", 0,
                                       /*min_value=*/0);
  if (const auto contrast = env::string_knob("COOPCR_CONTRAST")) {
    options.contrast_reference = *contrast;
  }
  options.strata_bins = env::int_knob("COOPCR_STRATA_BINS", 0,
                                      /*min_value=*/0);
  if (const auto feature = env::string_knob("COOPCR_STRATA_FEATURE")) {
    options.strata_feature = *feature;
  }
  return options;
}

const StrategyOutcome& MonteCarloReport::outcome(
    const std::string& name) const {
  for (const auto& o : outcomes) {
    if (o.strategy.name() == name) return o;
  }
  COOPCR_CHECK(false, "no outcome for strategy: " + name);
  return outcomes.front();  // unreachable
}

MonteCarloCampaign::MonteCarloCampaign(ScenarioConfig scenario,
                                       std::vector<Strategy> strategies,
                                       MonteCarloOptions options)
    : scenario_(std::move(scenario)),
      strategies_(std::move(strategies)),
      options_(options) {
  COOPCR_CHECK(!strategies_.empty(), "no strategies requested");
  COOPCR_CHECK(options_.replicas > 0, "replicas must be positive");
  COOPCR_CHECK(!scenario_.simulation.classes.empty(),
               "scenario has no resolved classes (build it with "
               "ScenarioBuilder::build)");
  COOPCR_CHECK(!options_.antithetic || options_.replicas % 2 == 0,
               "antithetic pairing needs an even replica count");
  if (options_.contrast_active()) {
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      if (strategies_[s].name() == options_.contrast_reference) {
        contrast_index_ = static_cast<int>(s);
        break;
      }
    }
    COOPCR_CHECK(contrast_index_ >= 0,
                 "contrast reference strategy \"" +
                     options_.contrast_reference +
                     "\" is not in the campaign's strategy set");
  }
  COOPCR_CHECK(options_.strata_feature == "work_total" ||
                   options_.strata_feature == "work_jobs" ||
                   options_.strata_feature == "work_max_share",
               "--strata-feature/COOPCR_STRATA_FEATURE: unknown "
               "stratification feature \"" +
                   options_.strata_feature +
                   "\" — expected work_total, work_jobs or work_max_share");
  outputs_.resize(static_cast<std::size_t>(tasks()));
  if (options_.control_variate) {
    // Closed-form first-order waste prediction (Theorem 1): split the bound
    // into the failure-free checkpoint overhead and the failure-driven rest,
    // then scale the latter linearly in the replica's failure count around
    // its expectation E[n] = horizon / system MTBF. The predictor
    //   X(n) = ckpt_term + fail_term * n / E[n]
    // then has known mean lb.waste, which is all a control variate needs —
    // the per-point least-squares beta absorbs any model error.
    const LowerBoundResult lb =
        solve_lower_bound(scenario_.platform, scenario_.applications);
    double ckpt_term = 0.0;
    const double total_nodes = static_cast<double>(scenario_.platform.nodes);
    for (const LowerBoundClass& cls : lb.classes) {
      ckpt_term += (cls.steady_jobs * cls.nodes / total_nodes) *
                   (cls.checkpoint_seconds / cls.period);
    }
    const sim::Time stop = std::min(scenario_.simulation.horizon,
                                    scenario_.simulation.segment_end);
    const double expected_failures = stop / scenario_.platform.system_mtbf();
    cv_intercept_ = ckpt_term;
    cv_slope_ = expected_failures > 0.0
                    ? (lb.waste - ckpt_term) / expected_failures
                    : 0.0;
    cv_predictor_mean_ = lb.waste;
  }
}

void MonteCarloCampaign::run_replica_task(int t) {
  COOPCR_CHECK(t >= 0 && t < tasks(), "task index out of range");
  // Under antithetic pairing, odd replica 2p+1 replays replica 2p's stream
  // with every continuous uniform reflected (u' = 1 - u): its workload,
  // failure trace and baseline are the mirror draw of its partner's.
  // Reflecting before any draw is what couples the whole replica — pairing
  // only the failure gaps leaves the workload variance (which dominates the
  // waste ratio on quiet scenarios) uncancelled.
  const bool reflected = options_.antithetic && t % 2 == 1;
  Rng rng = Rng::stream(scenario_.seed,
                        static_cast<std::uint64_t>(reflected ? t - 1 : t));
  rng.set_antithetic(reflected);
  WorkloadGenerator generator(scenario_.simulation.classes, scenario_.platform,
                              scenario_.workload);
  const std::vector<Job> jobs = generator.generate(rng);
  const sim::Time stop = std::min(scenario_.simulation.horizon,
                                  scenario_.simulation.segment_end);
  const std::vector<Failure> failures =
      scenario_.failures.generate(scenario_.platform, stop, rng);

  // One warm substrate per replica task: the baseline and every strategy run
  // reuse the same engine/IO slabs, so only the first run of the task pays
  // for their growth (results are bit-identical to fresh construction).
  SimWorkspace workspace;
  ReplicaOutput& out = outputs_[static_cast<std::size_t>(t)];
  const SimulationResult baseline =
      simulate_baseline(scenario_.simulation, jobs, workspace);
  out.slot.baseline_useful = baseline.useful;
  out.slot.baseline_useful_energy = baseline.energy.useful();
  COOPCR_CHECK(out.slot.baseline_useful > 0.0,
               "baseline run produced no useful work — check the workload");
  out.slot.cv_predictor =
      cv_intercept_ + cv_slope_ * static_cast<double>(failures.size());

  // Realised workload summaries for post-stratification. Recorded
  // unconditionally: one compose() pass per replica is noise next to the
  // simulations, and always-on features keep the slot layout (and so the
  // wire/journal formats) independent of the estimator options.
  const WorkloadComposition comp = generator.compose(jobs);
  out.slot.work_total = comp.total_node_seconds;
  out.slot.work_jobs = static_cast<double>(jobs.size());
  out.slot.work_max_share = 0.0;
  for (const double share : comp.shares) {
    out.slot.work_max_share = std::max(out.slot.work_max_share, share);
  }

  // Metrics are finished at task time (not at reduce time) so a slot is a
  // flat double tuple any executor — local pool, worker process, journal
  // replay — can hand to reduce() bit-identically.
  out.slot.per_strategy.clear();
  out.slot.per_strategy.reserve(strategies_.size());
  out.results.clear();
  if (options_.keep_results) out.results.reserve(strategies_.size());
  const double base_useful = out.slot.baseline_useful;
  const double base_energy = out.slot.baseline_useful_energy;
  for (const Strategy& strategy : strategies_) {
    SimulationConfig cfg = scenario_.simulation;
    cfg.strategy = strategy;
    SimulationResult result = simulate(cfg, jobs, failures, workspace);
    ReplicaStrategyMetrics m;
    m.waste_ratio = result.wasted / base_useful;
    m.efficiency = result.useful / base_useful;
    m.utilization = result.avg_utilization;
    m.failures_hit = static_cast<double>(result.counters.failures_on_jobs);
    m.checkpoints =
        static_cast<double>(result.counters.checkpoints_completed);
    m.energy_joules = result.energy.total();
    m.energy_waste_ratio = result.energy.wasted() / base_energy;
    m.ckpt_waste_ratio =
        result.accounting.total(TimeCategory::kCheckpoint) / base_useful;
    out.slot.per_strategy.push_back(m);
    if (options_.keep_results) out.results.push_back(std::move(result));
  }
  out.done = true;
}

bool MonteCarloCampaign::slot_done(int t) const {
  COOPCR_CHECK(t >= 0 && t < tasks(), "task index out of range");
  return outputs_[static_cast<std::size_t>(t)].done;
}

const ReplicaSlot& MonteCarloCampaign::slot(int t) const {
  COOPCR_CHECK(t >= 0 && t < tasks(), "task index out of range");
  const ReplicaOutput& out = outputs_[static_cast<std::size_t>(t)];
  COOPCR_CHECK(out.done, "replica task " + std::to_string(t) +
                             " has not run — no slot to export");
  return out.slot;
}

void MonteCarloCampaign::install_slot(int t, ReplicaSlot slot) {
  COOPCR_CHECK(t >= 0 && t < tasks(), "task index out of range");
  COOPCR_CHECK(!options_.keep_results,
               "install_slot is incompatible with keep_results — full "
               "SimulationResults never cross the process boundary");
  COOPCR_CHECK(slot.per_strategy.size() == strategies_.size(),
               "slot carries " + std::to_string(slot.per_strategy.size()) +
                   " strategy tuples, campaign expects " +
                   std::to_string(strategies_.size()));
  ReplicaOutput& out = outputs_[static_cast<std::size_t>(t)];
  COOPCR_CHECK(!out.done, "replica task " + std::to_string(t) +
                              " already has results — duplicate work unit");
  out.slot = std::move(slot);
  out.done = true;
}

MonteCarloReport MonteCarloCampaign::fold_report(bool destructive) {
  MonteCarloReport report;
  report.replicas = options_.replicas;
  report.vr_enabled = options_.vr_active();
  report.contrast_enabled = options_.contrast_active();
  report.contrast_reference = options_.contrast_reference;
  report.outcomes.resize(strategies_.size());
  for (std::size_t s = 0; s < strategies_.size(); ++s) {
    report.outcomes[s].strategy = strategies_[s];
  }
  // Waste-ratio samples (and, under control variates, their predictors) per
  // strategy, in replica order: under antithetic pairing that is the
  // even/odd layout estimate_mean pairs on. The contrast estimator needs the
  // same per-strategy alignment, so it shares the collection.
  const bool collect_samples = report.vr_enabled || report.contrast_enabled;
  std::vector<std::vector<double>> vr_samples;
  std::vector<std::vector<double>> vr_predictors;
  if (collect_samples) {
    vr_samples.resize(strategies_.size());
    if (options_.control_variate) vr_predictors.resize(strategies_.size());
  }
  // One shared stratification-feature stream (per sample, same order) — the
  // feature is a property of the replica draw, not the strategy.
  const bool stratify = options_.strata_bins > 1;
  std::vector<double> strata_features;
  auto slot_feature = [&](const ReplicaSlot& slot) {
    if (options_.strata_feature == "work_jobs") return slot.work_jobs;
    if (options_.strata_feature == "work_max_share") {
      return slot.work_max_share;
    }
    return slot.work_total;
  };

  // Deterministic reduction in replica order.
  for (int t = 0; t < tasks(); ++t) {
    ReplicaOutput& out = outputs_[static_cast<std::size_t>(t)];
    COOPCR_CHECK(out.done, "replica task " + std::to_string(t) +
                               " never ran — reduce() before completion");
    report.baseline_useful.add(out.slot.baseline_useful);
    report.baseline_useful_energy.add(out.slot.baseline_useful_energy);
    if (stratify) strata_features.push_back(slot_feature(out.slot));
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      StrategyOutcome& outcome = report.outcomes[s];
      const ReplicaStrategyMetrics& m = out.slot.per_strategy[s];
      outcome.waste_ratio.add(m.waste_ratio);
      outcome.efficiency.add(m.efficiency);
      outcome.utilization.add(m.utilization);
      outcome.failures_hit.add(m.failures_hit);
      outcome.checkpoints.add(m.checkpoints);
      outcome.energy_joules.add(m.energy_joules);
      outcome.energy_waste_ratio.add(m.energy_waste_ratio);
      outcome.ckpt_waste_ratio.add(m.ckpt_waste_ratio);
      if (collect_samples) {
        vr_samples[s].push_back(m.waste_ratio);
        if (options_.control_variate) {
          vr_predictors[s].push_back(out.slot.cv_predictor);
        }
      }
      if (options_.keep_results && destructive) {
        outcome.results.push_back(std::move(out.results[s]));
      }
    }
  }
  if (report.vr_enabled) {
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      StrategyOutcome& outcome = report.outcomes[s];
      outcome.vr.enabled = true;
      outcome.vr.estimate = estimate_mean(
          vr_samples[s], options_.antithetic,
          options_.control_variate ? vr_predictors[s] : std::vector<double>{},
          cv_predictor_mean_, strata_features, options_.strata_bins);
    }
  }
  if (report.contrast_enabled) {
    const std::vector<double>& reference =
        vr_samples[static_cast<std::size_t>(contrast_index_)];
    for (std::size_t s = 0; s < strategies_.size(); ++s) {
      if (s == static_cast<std::size_t>(contrast_index_)) continue;
      StrategyOutcome& outcome = report.outcomes[s];
      outcome.contrast.enabled = true;
      outcome.contrast.estimate =
          estimate_contrast(vr_samples[s], reference, options_.antithetic,
                            strata_features, options_.strata_bins);
    }
  }
  return report;
}

MonteCarloReport MonteCarloCampaign::reduce() {
  COOPCR_CHECK(!reduced_,
               "campaign already reduced — reduce() moves the replica "
               "outputs and cannot be called twice");
  reduced_ = true;
  return fold_report(/*destructive=*/true);
}

MonteCarloReport MonteCarloCampaign::snapshot() const {
  COOPCR_CHECK(!reduced_,
               "campaign already reduced — no snapshot after reduce()");
  COOPCR_CHECK(!options_.keep_results,
               "snapshot() is incompatible with keep_results");
  // fold_report(false) never moves anything out, so the const_cast is only a
  // plumbing convenience (the fold mutates SampleSets inside the *report*,
  // not the campaign).
  return const_cast<MonteCarloCampaign*>(this)->fold_report(
      /*destructive=*/false);
}

void MonteCarloCampaign::extend(int new_replicas) {
  COOPCR_CHECK(!reduced_,
               "campaign already reduced — extend() before reduce()");
  COOPCR_CHECK(new_replicas >= options_.replicas,
               "extend() cannot shrink the campaign");
  options_.replicas = new_replicas;
  outputs_.resize(static_cast<std::size_t>(tasks()));
}

MonteCarloReport run_monte_carlo(const ScenarioConfig& scenario,
                                 const std::vector<Strategy>& strategies,
                                 const MonteCarloOptions& options) {
  COOPCR_CHECK(options.target_ci_width == 0.0,
               "sequential stopping (target_ci_width) runs through "
               "exp::SweepRunner, not run_monte_carlo");
  MonteCarloCampaign campaign(scenario, strategies, options);
  const int task_count = campaign.tasks();
  unsigned thread_count =
      options.threads > 0 ? static_cast<unsigned>(options.threads)
                          : std::thread::hardware_concurrency();
  if (thread_count == 0) thread_count = 1;
  thread_count = std::min<unsigned>(thread_count,
                                    static_cast<unsigned>(task_count));

  std::atomic<int> next{0};
  auto worker = [&] {
    for (;;) {
      const int t = next.fetch_add(1);
      if (t >= task_count) break;
      campaign.run_replica_task(t);
    }
  };
  if (thread_count <= 1) {
    worker();
  } else {
    std::vector<std::thread> threads;
    threads.reserve(thread_count);
    for (unsigned t = 0; t < thread_count; ++t) threads.emplace_back(worker);
    for (auto& t : threads) t.join();
  }
  return campaign.reduce();
}

void submit_campaign_task_range(ThreadPool& pool, MonteCarloCampaign& campaign,
                                std::vector<std::exception_ptr>& errors,
                                int first, int last,
                                std::function<void()> on_task_done) {
  COOPCR_CHECK(first >= 0 && last <= campaign.tasks() && first <= last,
               "task range out of bounds");
  if (errors.size() < static_cast<std::size_t>(last)) {
    errors.resize(static_cast<std::size_t>(last));
  }
  for (int t = first; t < last; ++t) {
    std::exception_ptr* error = &errors[static_cast<std::size_t>(t)];
    pool.submit([&campaign, error, t, on_task_done] {
      try {
        campaign.run_replica_task(t);
      } catch (...) {
        *error = std::current_exception();
      }
      if (on_task_done) on_task_done();
    });
  }
}

void submit_campaign_tasks(ThreadPool& pool, MonteCarloCampaign& campaign,
                           std::vector<std::exception_ptr>& errors,
                           std::function<void()> on_task_done) {
  errors.clear();
  submit_campaign_task_range(pool, campaign, errors, 0, campaign.tasks(),
                             std::move(on_task_done));
}

void rethrow_first_error(const std::vector<std::exception_ptr>& errors) {
  for (const auto& error : errors) {
    if (error) std::rethrow_exception(error);
  }
}

MonteCarloReport run_monte_carlo(const ScenarioConfig& scenario,
                                 const std::vector<Strategy>& strategies,
                                 const MonteCarloOptions& options,
                                 ThreadPool& pool) {
  COOPCR_CHECK(options.target_ci_width == 0.0,
               "sequential stopping (target_ci_width) runs through "
               "exp::SweepRunner, not run_monte_carlo");
  MonteCarloCampaign campaign(scenario, strategies, options);
  std::vector<std::exception_ptr> errors;
  submit_campaign_tasks(pool, campaign, errors);
  pool.wait_idle();
  rethrow_first_error(errors);
  return campaign.reduce();
}

ReplicaRun run_replica(const ScenarioConfig& scenario,
                       const Strategy& strategy, std::uint64_t replica) {
  Rng rng = Rng::stream(scenario.seed, replica);
  WorkloadGenerator generator(scenario.simulation.classes, scenario.platform,
                              scenario.workload);
  const std::vector<Job> jobs = generator.generate(rng);
  const sim::Time stop = std::min(scenario.simulation.horizon,
                                  scenario.simulation.segment_end);
  const std::vector<Failure> failures =
      scenario.failures.generate(scenario.platform, stop, rng);
  SimWorkspace workspace;
  const SimulationResult baseline =
      simulate_baseline(scenario.simulation, jobs, workspace);
  SimulationConfig cfg = scenario.simulation;
  cfg.strategy = strategy;
  ReplicaRun run(simulate(cfg, jobs, failures, workspace));
  run.baseline_useful = baseline.useful;
  run.waste_ratio = run.result.wasted / baseline.useful;
  run.baseline_useful_energy = baseline.energy.useful();
  run.energy_waste_ratio =
      run.result.energy.wasted() / run.baseline_useful_energy;
  return run;
}

}  // namespace coopcr
