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

SerialCoordination::SerialCoordination(std::string name,
                                       bool non_blocking_wait,
                                       TokenFactory factory,
                                       RequestOffset default_offset)
    : name_(std::move(name)),
      non_blocking_wait_(non_blocking_wait),
      factory_(std::move(factory)),
      default_offset_(default_offset) {
  COOPCR_CHECK(!name_.empty(), "coordination policy name must not be empty");
  COOPCR_CHECK(factory_ != nullptr,
               "serialized coordination needs a token-policy factory");
}

std::shared_ptr<const IoCoordinationPolicy> oblivious_coordination() {
  static const auto policy = std::make_shared<const ObliviousCoordination>();
  return policy;
}

std::shared_ptr<const IoCoordinationPolicy> ordered_coordination() {
  static const auto policy = std::make_shared<const SerialCoordination>(
      "Ordered", /*non_blocking_wait=*/false, [](const TokenPolicyContext&) {
        return std::make_unique<FcfsPolicy>();
      });
  return policy;
}

std::shared_ptr<const IoCoordinationPolicy> ordered_nb_coordination() {
  static const auto policy = std::make_shared<const SerialCoordination>(
      "Ordered-NB", /*non_blocking_wait=*/true, [](const TokenPolicyContext&) {
        return std::make_unique<FcfsPolicy>();
      });
  return policy;
}

std::shared_ptr<const IoCoordinationPolicy> least_waste_coordination(
    LeastWasteVariant variant) {
  // The variant is part of the name so the two compositions never alias;
  // the paper variant keeps the paper's plain spelling and is the one the
  // registry serves.
  static const auto paper = std::make_shared<const SerialCoordination>(
      "Least-Waste", /*non_blocking_wait=*/true,
      [](const TokenPolicyContext& ctx) {
        return std::make_unique<LeastWastePolicy>(
            ctx.node_mtbf, ctx.pfs_bandwidth, LeastWasteVariant::kPaperEq12);
      },
      RequestOffset::kFullPeriod);
  static const auto marginal = std::make_shared<const SerialCoordination>(
      "Least-Waste:marginal", /*non_blocking_wait=*/true,
      [](const TokenPolicyContext& ctx) {
        return std::make_unique<LeastWastePolicy>(
            ctx.node_mtbf, ctx.pfs_bandwidth, LeastWasteVariant::kMarginal);
      },
      RequestOffset::kFullPeriod);
  return variant == LeastWasteVariant::kPaperEq12 ? paper : marginal;
}

std::shared_ptr<const IoCoordinationPolicy> random_coordination() {
  static const auto policy = std::make_shared<const SerialCoordination>(
      "Random", /*non_blocking_wait=*/true, [](const TokenPolicyContext& ctx) {
        return std::make_unique<RandomPolicy>(ctx.seed);
      });
  return policy;
}

std::shared_ptr<const IoCoordinationPolicy> smallest_first_coordination() {
  static const auto policy = std::make_shared<const SerialCoordination>(
      "Smallest-First", /*non_blocking_wait=*/true,
      [](const TokenPolicyContext&) {
        return std::make_unique<SmallestFirstPolicy>();
      });
  return policy;
}

// --- registries -------------------------------------------------------------

Registry<std::shared_ptr<const IoCoordinationPolicy>>& coordination_registry() {
  static auto* registry = [] {
    auto* r = new Registry<std::shared_ptr<const IoCoordinationPolicy>>();
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
