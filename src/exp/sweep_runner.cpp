#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <condition_variable>
#include <deque>
#include <exception>
#include <mutex>
#include <utility>

#include "util/error.hpp"
#include "util/thread_pool.hpp"

namespace coopcr::exp {

namespace {

/// Drains the pool on scope exit. Campaigns, error slots and progress state
/// live on the caller's frame while pool workers reference them, so no
/// exception may unwind past that frame with tasks still in flight.
class DrainGuard {
 public:
  explicit DrainGuard(ThreadPool& pool) : pool_(pool) {}
  ~DrainGuard() { pool_.wait_idle(); }

 private:
  ThreadPool& pool_;
};

/// The one in-process campaign loop behind SweepRunner::run and run_batch.
/// Every campaign's first round goes onto `pool` at once; each campaign
/// starts its next sequential-stopping round as soon as its own tasks drain.
/// `on_settled(c, report)` receives campaign c's reduced report in index
/// order, as soon as campaigns [0, c] have all settled. On failure the pool
/// drains and the first failing campaign's first failing replica is
/// rethrown, prefixed with `context(c, campaign)`.
void run_campaigns(
    ThreadPool& pool, std::vector<Campaign> batch,
    const std::function<std::string(std::size_t, const MonteCarloCampaign&)>&
        context,
    const std::function<void(std::size_t, MonteCarloReport)>& on_settled) {
  // Validate every campaign up front (MonteCarloCampaign's constructor
  // throws on bad input) so no task runs when any campaign is ill-formed.
  // Replica caps for sequential stopping are resolved against the *initial*
  // replica counts, before any extend() grows them; the cap bounds the total
  // including round one.
  const std::size_t n = batch.size();
  std::vector<std::unique_ptr<MonteCarloCampaign>> campaigns;
  std::vector<int> cap;
  campaigns.reserve(n);
  cap.reserve(n);
  for (Campaign& c : batch) {
    cap.push_back(sequential_stopping_cap(c.options));
    c.options.replicas = sequential_stopping_start(c.options);
    campaigns.push_back(std::make_unique<MonteCarloCampaign>(
        std::move(c.scenario), std::move(c.strategies), c.options));
  }

  // Tasks write preassigned slots and each campaign's rounds are decided by
  // its own deterministic snapshots, so neither pool scheduling nor the
  // interleaving of campaigns can change a report. A task only counts down
  // its campaign's round; the calling thread takes each drained campaign in
  // turn and either grows it by another round or settles it.
  enum class State { kRunning, kSettled, kFailed };
  std::vector<State> state(n, State::kRunning);
  std::vector<std::vector<std::exception_ptr>> errors(n);
  std::vector<int> submitted(n, 0);
  struct Rounds {
    std::mutex mutex;
    std::condition_variable drained_cv;
    std::vector<int> pending;
    std::deque<std::size_t> drained;
  } rounds;
  rounds.pending.assign(n, 0);
  DrainGuard guard(pool);  // declared last: drains before the state dies

  const auto submit_round = [&](std::size_t c) {
    const int first = submitted[c];
    submitted[c] = campaigns[c]->tasks();
    rounds.pending[c] = submitted[c] - first;  // no task of c is in flight
    const auto task_done = [c, &rounds] {
      std::lock_guard<std::mutex> lock(rounds.mutex);
      if (--rounds.pending[c] == 0) {
        rounds.drained.push_back(c);
        rounds.drained_cv.notify_one();
      }
    };
    submit_campaign_task_range(pool, *campaigns[c], errors[c], first,
                               submitted[c], task_done);
  };
  for (std::size_t c = 0; c < n; ++c) submit_round(c);

  // A failed campaign stops its own rounds and every later campaign's (they
  // settle early but are never handed over), while earlier campaigns run
  // on: the error raised is always the first failing campaign in index
  // order, whatever the thread count.
  std::size_t first_failed = n;
  std::size_t emitted = 0;
  while (emitted < n) {
    std::size_t c = 0;
    {
      std::unique_lock<std::mutex> lock(rounds.mutex);
      rounds.drained_cv.wait(lock, [&] { return !rounds.drained.empty(); });
      c = rounds.drained.front();
      rounds.drained.pop_front();
    }
    const bool failed = std::any_of(errors[c].begin(), errors[c].end(),
                                    [](const auto& e) { return e != nullptr; });
    if (failed) first_failed = std::min(first_failed, c);
    const int next =
        c < first_failed ? next_sequential_round(*campaigns[c], cap[c]) : 0;
    if (next > 0) {
      campaigns[c]->extend(next);
      submit_round(c);
    } else {
      state[c] = failed ? State::kFailed : State::kSettled;
    }
    // Hand over the settled grid-order prefix; a failed campaign at its
    // head is the first failure in index order.
    for (; emitted < n && state[emitted] != State::kRunning; ++emitted) {
      if (state[emitted] == State::kFailed) {
        rethrow_first_error(errors[emitted],
                            context(emitted, *campaigns[emitted]));
      }
      on_settled(emitted, campaigns[emitted]->reduce());
    }
  }
}

}  // namespace

int sequential_stopping_cap(const MonteCarloOptions& options) {
  int cap = options.resolved_max_replicas();
  if (options.antithetic) cap -= cap % 2;  // keep pair parity
  return cap;
}

int sequential_stopping_start(const MonteCarloOptions& options) {
  if (options.target_ci_width <= 0.0) return options.replicas;
  // max_replicas caps the *total*, round one included: a campaign asked to
  // start above the cap starts at the cap instead of overrunning it.
  return std::min(options.replicas, sequential_stopping_cap(options));
}

int next_sequential_round(const MonteCarloCampaign& campaign, int cap) {
  const MonteCarloOptions& opt = campaign.options();
  if (opt.target_ci_width <= 0.0) return 0;
  const MonteCarloReport snap = campaign.snapshot();
  bool converged = true;
  for (const StrategyOutcome& outcome : snap.outcomes) {
    // Contrast-aware convergence: when the paired contrast estimator is on,
    // the accuracy target applies to the strategy *differences* — the
    // quantity the campaign exists to pin down — not the individual means.
    const double ci_width = opt.contrast_active()
                                ? (outcome.contrast.enabled
                                       ? outcome.contrast.estimate.ci_width
                                       : 0.0)
                                : outcome.vr.estimate.ci_width;
    if (ci_width > opt.target_ci_width) {
      converged = false;
      break;
    }
  }
  if (converged || campaign.tasks() >= cap) return 0;
  return std::min(cap, 2 * campaign.tasks());
}

SweepRunner::SweepRunner(int threads)
    : pool_(std::make_unique<ThreadPool>(threads)) {}

SweepRunner::~SweepRunner() = default;

int SweepRunner::threads() const { return pool_->size(); }

SweepRunner& SweepRunner::on_point(PointCallback callback) {
  on_point_ = std::move(callback);
  return *this;
}

std::vector<MonteCarloReport> SweepRunner::run_batch(
    std::vector<Campaign> campaigns) {
  const std::size_t n = campaigns.size();
  std::vector<MonteCarloReport> reports;
  reports.reserve(n);
  run_campaigns(
      *pool_, std::move(campaigns),
      [n](std::size_t c, const MonteCarloCampaign& campaign) {
        return "sweep batch campaign " + std::to_string(c) + " of " +
               std::to_string(n) + " (scenario \"" +
               campaign.scenario().platform.name + "\") failed";
      },
      [&](std::size_t, MonteCarloReport report) {
        reports.push_back(std::move(report));
      });
  return reports;
}

ExperimentReport SweepRunner::run(const ExperimentSpec& spec) {
  std::vector<GridPoint> points = spec.expand();
  std::vector<Campaign> batch;
  batch.reserve(points.size());
  for (const GridPoint& point : points) {
    batch.push_back(
        Campaign{point.scenario, spec.strategy_set(), spec.campaign_options()});
  }
  ExperimentReport report = ExperimentReport::for_spec(spec);
  report.points.reserve(points.size());
  run_campaigns(
      *pool_, std::move(batch),
      [&](std::size_t p, const MonteCarloCampaign&) {
        return "experiment \"" + spec.name() + "\" grid point " +
               std::to_string(p) + " (" + points[p].label() + ") failed";
      },
      [&](std::size_t p, MonteCarloReport point_report) {
        if (on_point_) on_point_(points[p], point_report);
        report.points.push_back(
            PointResult{std::move(points[p]), std::move(point_report)});
      });
  return report;
}

}  // namespace coopcr::exp
