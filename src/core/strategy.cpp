#include "core/strategy.hpp"

#include <string_view>
#include <utility>

#include "util/error.hpp"

namespace coopcr {

// --- StrategySpec -----------------------------------------------------------

namespace {

constexpr std::string_view kTieredSuffix = "-tiered";

}  // namespace

StrategySpec::StrategySpec(Coordination coordination, CheckpointPeriod period,
                           RequestOffset offset, std::string display_name,
                           bool tiered)
    : coordination_(std::move(coordination)),
      period_(period),
      offset_(offset),
      display_name_(std::move(display_name)),
      tiered_(tiered) {}

std::string StrategySpec::name() const {
  if (!display_name_.empty()) return display_name_;
  std::string composed = coordination_.name + "-" + period_.name();
  if (tiered_) composed.append(kTieredSuffix);
  return composed;
}

StrategySpec StrategySpec::named(std::string display_name) const {
  StrategySpec copy = *this;
  copy.display_name_ = std::move(display_name);
  return copy;
}

StrategySpec StrategySpec::with_commit(bool tiered) const {
  StrategySpec copy = *this;
  if (!copy.display_name_.empty()) {
    // Swap the suffix the current commit contributed for the new one, so
    // the name always tells the truth about the commit path — including
    // when a tiered spec is switched back to direct commits.
    std::string& label = copy.display_name_;
    if (tiered_ && label.size() > kTieredSuffix.size() &&
        label.ends_with(kTieredSuffix)) {
      label.resize(label.size() - kTieredSuffix.size());
    }
    if (tiered) label.append(kTieredSuffix);
  }
  copy.tiered_ = tiered;
  return copy;
}

bool StrategySpec::operator==(const StrategySpec& other) const {
  return coordination_.name == other.coordination_.name &&
         period_ == other.period_ && offset_ == other.offset_ &&
         tiered_ == other.tiered_ && name() == other.name();
}

// --- paper strategy constructors --------------------------------------------

StrategySpec oblivious_fixed(double period_seconds) {
  return {oblivious_coordination(), fixed_period(period_seconds),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec oblivious_daly() {
  return {oblivious_coordination(), daly_period(),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec ordered_fixed(double period_seconds) {
  return {ordered_coordination(), fixed_period(period_seconds),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec ordered_daly() {
  return {ordered_coordination(), daly_period(),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec ordered_nb_fixed(double period_seconds) {
  return {ordered_nb_coordination(), fixed_period(period_seconds),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec ordered_nb_daly() {
  return {ordered_nb_coordination(), daly_period(),
          RequestOffset::kPeriodMinusCommit};
}

StrategySpec least_waste(LeastWasteVariant variant) {
  // "Fixed checkpointing makes little sense in the Least-Waste strategy"
  // (§3.5 footnote): the paper's Least-Waste always uses Daly periods, and
  // its display name drops the period suffix. The non-paper marginal
  // variant keeps its own name so the two never alias.
  const bool paper = variant == LeastWasteVariant::kPaperEq12;
  return StrategySpec{least_waste_coordination(variant), daly_period(),
                      RequestOffset::kFullPeriod,
                      paper ? "Least-Waste" : "Least-Waste:marginal"};
}

StrategySpec coop_energy() {
  return StrategySpec{least_waste_coordination(), energy_period(),
                      RequestOffset::kFullPeriod, "coop-energy"};
}

const std::vector<StrategySpec>& paper_strategies() {
  static const std::vector<StrategySpec> kStrategies = {
      oblivious_fixed(), oblivious_daly(),  ordered_fixed(), ordered_daly(),
      ordered_nb_fixed(), ordered_nb_daly(), least_waste(),
  };
  return kStrategies;
}

// --- registry ---------------------------------------------------------------

Registry<StrategySpec>& strategy_registry() {
  static auto* registry = [] {
    auto* r = new Registry<StrategySpec>();
    for (const StrategySpec& s : paper_strategies()) r->add(s);
    // The two non-canonical spellings of the NB variants, kept for CLIs.
    r->add("OrderedNB-Fixed", [] { return ordered_nb_fixed(); });
    r->add("OrderedNB-Daly", [] { return ordered_nb_daly(); });
    // Cooperative coordination with the energy-optimal period (Aupy et al.).
    r->add(coop_energy());
    // "coop-daly" spelling of the paper's cooperative strategy, so the
    // commit-suffix fallback resolves "coop-daly-tiered" and friends.
    r->add("coop-daly", [] { return least_waste(); });
    return r;
  }();
  return *registry;
}

namespace {

/// Non-throwing resolution used by strategy_from_name and its commit-suffix
/// recursion. Returns false when the name matches nothing.
bool try_strategy_from_name(const std::string& name, StrategySpec& out) {
  if (strategy_registry().contains(name)) {
    out = strategy_registry().make(name);
    return true;
  }
  const auto dash = name.rfind('-');
  if (dash == std::string::npos || dash == 0 || dash + 1 >= name.size()) {
    return false;
  }
  const std::string head = name.substr(0, dash);
  const std::string tail = name.substr(dash + 1);
  // Commit-suffix fallback: "<strategy>-tiered" composes the resolved
  // strategy with burst-buffer commits ("coop-daly-tiered").
  if (tail == "tiered") {
    StrategySpec base;
    if (try_strategy_from_name(head, base)) {
      out = base.with_commit(/*tiered=*/true);
      return true;
    }
  }
  // Compositional fallback: "<coordination>-<period>", split at the last '-'
  // so multi-part coordination names ("Ordered-NB", "Smallest-First") work.
  if (!coordination_registry().contains(head)) return false;
  for (const CheckpointPeriod& period :
       {fixed_period(), daly_period(), energy_period()}) {
    if (period.name() != tail) continue;
    const Coordination coordination = coordination_registry().make(head);
    out = {coordination, period, coordination.default_offset};
    return true;
  }
  return false;
}

}  // namespace

StrategySpec strategy_from_name(const std::string& name) {
  StrategySpec spec;
  COOPCR_CHECK(try_strategy_from_name(name, spec),
               "unknown strategy name: " + name);
  return spec;
}

}  // namespace coopcr
