#include "exp/sweep_runner.hpp"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <limits>
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

int sequential_round_size(int replicas, double ci_width, double target,
                          int cap) {
  if (ci_width <= target || replicas >= cap) return 0;
  // A CI narrows as 1/sqrt(n), so n·(w/t)² replicas would just meet the
  // target. The square is taken in double and clamped at 2n before any int
  // conversion: an infinite or NaN width (or ratio) simply doubles.
  const double ratio = ci_width / target;
  const double want = static_cast<double>(replicas) * ratio * ratio;
  const double doubled = 2.0 * static_cast<double>(replicas);
  int predicted = static_cast<int>(want < doubled ? std::ceil(want) : doubled);
  predicted += predicted % 2;  // even sizes keep antithetic pair parity
  return std::min({cap, 2 * replicas, std::max(replicas + 2, predicted)});
}

int next_sequential_round(const MonteCarloCampaign& campaign, int cap) {
  const MonteCarloOptions& opt = campaign.options();
  if (opt.target_ci_width <= 0.0) return 0;
  const int replicas = campaign.tasks();
  // Below two estimator units (replicas, or antithetic pairs) the sample
  // variance is undefined and the fold reports a CI width of 0: an
  // unmeasured CI counts as infinitely wide, never as converged.
  const int units = opt.antithetic ? replicas / 2 : replicas;
  double widest = std::numeric_limits<double>::infinity();
  if (units >= 2) {
    widest = 0.0;
    const MonteCarloReport snap = campaign.reduce();
    for (const StrategyOutcome& outcome : snap.outcomes) {
      // Contrast-aware convergence: when the paired contrast estimator is
      // on, the accuracy target applies to the strategy *differences* — the
      // quantity the campaign exists to pin down — not the individual means.
      const double ci_width = opt.contrast_active()
                                  ? (outcome.contrast.enabled
                                         ? outcome.contrast.estimate.ci_width
                                         : 0.0)
                                  : outcome.vr.estimate.ci_width;
      widest = std::max(widest, ci_width);
    }
  }
  return sequential_round_size(replicas, widest, opt.target_ci_width, cap);
}

SweepRunner::SweepRunner(int threads)
    : pool_(std::make_unique<ThreadPool>(threads)) {}

SweepRunner::~SweepRunner() = default;

int SweepRunner::threads() const { return pool_->size(); }

SweepRunner& SweepRunner::on_point(PointCallback callback) {
  on_point_ = std::move(callback);
  return *this;
}

ExperimentReport SweepRunner::run(const ExperimentSpec& spec) {
  // Build every point's campaign up front (MonteCarloCampaign's constructor
  // throws on bad input) so no task runs when any point is ill-formed. The
  // sequential-stopping cap is resolved against the *initial* replica
  // count, before any extend() grows it; it bounds the total including
  // round one.
  std::vector<GridPoint> points = spec.expand();
  const std::size_t n = points.size();
  MonteCarloOptions options = spec.campaign_options();
  const int cap = sequential_stopping_cap(options);
  options.replicas = sequential_stopping_start(options);
  std::vector<std::unique_ptr<MonteCarloCampaign>> campaigns;
  campaigns.reserve(n);
  for (const GridPoint& point : points) {
    campaigns.push_back(std::make_unique<MonteCarloCampaign>(
        point.scenario, spec.strategy_set(), options));
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
  ExperimentReport report = ExperimentReport::for_spec(spec);
  report.points.reserve(n);
  DrainGuard guard(*pool_);  // declared last: drains before the state dies

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
    submit_campaign_task_range(*pool_, *campaigns[c], errors[c], first,
                               submitted[c], task_done);
  };
  for (std::size_t c = 0; c < n; ++c) submit_round(c);

  // A failed point stops its own rounds and every later point's (they
  // settle early but are never handed over), while earlier points run on:
  // the error raised is always the first failing point in grid order,
  // whatever the thread count.
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
        c < first_failed ? next_sequential_round(*campaigns[c], cap) : 0;
    if (next > 0) {
      campaigns[c]->extend(next);
      submit_round(c);
    } else {
      state[c] = failed ? State::kFailed : State::kSettled;
    }
    // Hand over the settled grid-order prefix; a failed point at its head
    // is the first failure in grid order.
    for (; emitted < n && state[emitted] != State::kRunning; ++emitted) {
      if (state[emitted] == State::kFailed) {
        rethrow_first_error(errors[emitted],
                            "experiment \"" + spec.name() + "\" grid point " +
                                std::to_string(emitted) + " (" +
                                points[emitted].label() + ") failed");
      }
      MonteCarloReport point_report = campaigns[emitted]->reduce();
      if (on_point_) on_point_(points[emitted], point_report);
      report.points.push_back(
          PointResult{std::move(points[emitted]), std::move(point_report)});
    }
  }
  return report;
}

}  // namespace coopcr::exp
