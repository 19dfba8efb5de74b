#include "core/policy.hpp"

#include <algorithm>
#include <cmath>

namespace coopcr {

// --- offset -----------------------------------------------------------------

std::string to_string(RequestOffset offset) {
  return offset == RequestOffset::kFullPeriod ? "full-period" : "P-minus-C";
}

double request_delay(RequestOffset offset, double period,
                     double commit_seconds) {
  return offset == RequestOffset::kFullPeriod
             ? period
             : std::max(0.0, period - commit_seconds);
}

// --- period -----------------------------------------------------------------

std::string CheckpointPeriod::name() const {
  if (rule == Rule::kDaly) return "Daly";
  if (rule == Rule::kEnergy) return "Energy";
  if (seconds == units::kHour) return "Fixed";
  // Compact spelling: integral second counts print without a fraction.
  const auto whole = static_cast<long long>(seconds);
  std::string value = static_cast<double>(whole) == seconds
                          ? std::to_string(whole)
                          : std::to_string(seconds);
  return "Fixed@" + value + "s";
}

double CheckpointPeriod::period_for(const ClassOnPlatform& cls) const {
  if (rule == Rule::kFixed) return seconds;
  if (rule == Rule::kDaly) return cls.daly_period;
  return cls.daly_period *
         std::sqrt(cls.power.checkpoint_watts / cls.power.compute_watts);
}

CheckpointPeriod fixed_period(double seconds) {
  return {CheckpointPeriod::Rule::kFixed, seconds};
}

CheckpointPeriod daly_period() {
  return {CheckpointPeriod::Rule::kDaly};
}

CheckpointPeriod energy_period() {
  return {CheckpointPeriod::Rule::kEnergy};
}

// --- coordination -----------------------------------------------------------

Coordination oblivious_coordination() {
  return {"Oblivious", /*non_blocking_wait=*/false,
          RequestOffset::kPeriodMinusCommit, /*token_policy=*/nullptr};
}

namespace {

std::unique_ptr<TokenPolicy> fcfs(const TokenPolicyContext&) {
  return std::make_unique<FcfsPolicy>();
}

}  // namespace

Coordination ordered_coordination() {
  return {"Ordered", /*non_blocking_wait=*/false,
          RequestOffset::kPeriodMinusCommit, fcfs};
}

Coordination ordered_nb_coordination() {
  return {"Ordered-NB", /*non_blocking_wait=*/true,
          RequestOffset::kPeriodMinusCommit, fcfs};
}

Coordination least_waste_coordination(LeastWasteVariant variant) {
  // The variant is part of the name so the two compositions never alias;
  // the paper variant keeps the paper's plain spelling and is the one the
  // registry serves.
  const bool paper = variant == LeastWasteVariant::kPaperEq12;
  return {paper ? "Least-Waste" : "Least-Waste:marginal",
          /*non_blocking_wait=*/true, RequestOffset::kFullPeriod,
          [variant](const TokenPolicyContext& ctx) {
            return std::make_unique<LeastWastePolicy>(
                ctx.node_mtbf, ctx.pfs_bandwidth, variant);
          }};
}

Coordination random_coordination() {
  return {"Random", /*non_blocking_wait=*/true,
          RequestOffset::kPeriodMinusCommit, [](const TokenPolicyContext& ctx) {
            return std::make_unique<RandomPolicy>(ctx.seed);
          }};
}

Coordination smallest_first_coordination() {
  return {"Smallest-First", /*non_blocking_wait=*/true,
          RequestOffset::kPeriodMinusCommit, [](const TokenPolicyContext&) {
            return std::make_unique<SmallestFirstPolicy>();
          }};
}

// --- registries -------------------------------------------------------------

Registry<Coordination>& coordination_registry() {
  static auto* registry = [] {
    auto* r = new Registry<Coordination>();
    r->add(oblivious_coordination());
    r->add(ordered_coordination());
    r->add(ordered_nb_coordination());
    r->add(least_waste_coordination());
    r->add(random_coordination());
    r->add(smallest_first_coordination());
    return r;
  }();
  return *registry;
}

}  // namespace coopcr
