// coopcr/core/policy.hpp
//
// The parts a checkpoint/IO scheduling strategy is composed of (paper §3,
// decomposed):
//
//  * IoCoordinationPolicy — how I/O is admitted to the PFS (concurrent vs
//                           token-serialized), whether a job keeps computing
//                           while its checkpoint request waits, and which
//                           TokenPolicy arbitrates the token. The one open
//                           axis: an interface with a name-keyed registry,
//                           so client code (examples, benches, downstream
//                           users) can add coordination policies without
//                           touching this file or core/strategy.*.
//  * CheckpointPeriod     — how each job's checkpoint period P_i is chosen:
//                           a fixed interval, Young/Daly, or the Aupy et al.
//                           energy-optimal period. A plain value.
//  * RequestOffset        — when, relative to the previous checkpoint's
//                           completion, the next checkpoint *request* is
//                           issued (P - C per §2, or the full period per the
//                           §3.5 Least-Waste candidate definition). An enum.
//
// The commit path (direct-to-PFS vs tiered through the burst buffer, §8) is
// a flag on the StrategySpec (core/strategy.hpp) that composes these.

#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "io/token_policy.hpp"
#include "util/error.hpp"
#include "util/units.hpp"
#include "workload/app_class.hpp"

namespace coopcr {

// ---------------------------------------------------------------------------
// Checkpoint request offset
// ---------------------------------------------------------------------------

/// When, relative to the previous checkpoint's completion (or compute
/// start), the next checkpoint *request* is issued.
enum class RequestOffset {
  /// max(0, P - C): completions land exactly P apart in an interference-free
  /// run (§2). Used by Oblivious / Ordered / Ordered-NB.
  kPeriodMinusCommit,
  /// P: matches §3.5's Least-Waste candidate definition, where a pending
  /// checkpoint candidate always satisfies d_i >= P_Daly(J_i).
  kFullPeriod,
};

/// Display name: "P-minus-C" or "full-period".
std::string to_string(RequestOffset offset);

/// Delay (seconds) until the next request, given the job's period P and
/// commit time C.
double request_delay(RequestOffset offset, double period,
                     double commit_seconds);

// ---------------------------------------------------------------------------
// Checkpoint period
// ---------------------------------------------------------------------------

/// How each job's checkpoint period P_i is chosen (§3.4). Build one with
/// fixed_period(), daly_period() or energy_period().
struct CheckpointPeriod {
  enum class Rule {
    /// A fixed interval for every class — "a common heuristic is to take a
    /// checkpoint every hour" (§1).
    kFixed,
    /// P_Daly(J_i) = sqrt(2 µ_i C_i), precomputed per class at resolve time.
    kDaly,
    /// Energy-optimal first-order period following Aupy et al. (*Optimal
    /// Checkpointing Period: Time vs. Energy*): minimising joules instead
    /// of seconds replaces the Young/Daly optimum by
    ///
    ///     T_opt^E = sqrt(2 µ_i C_i · P_checkpoint / P_compute)
    ///             = P_Daly(J_i) · sqrt(P_checkpoint / P_compute),
    ///
    /// where the draws are the platform's total per-node powers during a
    /// checkpoint commit and during compute. When the two draws coincide
    /// the rule degenerates to Daly exactly. The profile is read from the
    /// *resolved* class, so one rule adapts to whatever PowerProfile the
    /// swept scenario carries (exp::ExperimentSpec::energy_axis).
    kEnergy,
  };

  Rule rule = Rule::kDaly;
  double seconds = units::kHour;  ///< the kFixed interval; unused otherwise

  /// Display name: "Daly", "Energy", "Fixed" for the one-hour interval, and
  /// "Fixed@200s" for any other, so differently-parameterised periods never
  /// alias.
  std::string name() const;

  /// Checkpoint period (seconds) for a job of the given resolved class.
  double period_for(const ClassOnPlatform& cls) const;

  bool operator==(const CheckpointPeriod&) const = default;
};

CheckpointPeriod fixed_period(double seconds = units::kHour);
CheckpointPeriod daly_period();
CheckpointPeriod energy_period();

// ---------------------------------------------------------------------------
// I/O coordination
// ---------------------------------------------------------------------------

/// Platform context handed to a coordination policy when the simulation
/// instantiates its TokenPolicy (one fresh instance per run, so stateful
/// policies such as RandomPolicy never share state across replicas).
struct TokenPolicyContext {
  double node_mtbf = 0.0;      ///< µ_ind (seconds)
  double pfs_bandwidth = 0.0;  ///< full PFS bandwidth (bytes/s)
  std::uint64_t seed = 0;      ///< strategy-internal randomness seed
};

/// How I/O is coordinated platform-wide (§3.1-3.5).
class IoCoordinationPolicy {
 public:
  virtual ~IoCoordinationPolicy() = default;

  /// Registry key and display-name component, e.g. "Ordered-NB".
  virtual std::string name() const = 0;

  /// True when at most one I/O operation owns the PFS at a time.
  virtual bool serialized() const = 0;

  /// True when a job keeps computing while its *checkpoint* request waits
  /// for the I/O token (§3.3, §3.5).
  virtual bool non_blocking_wait() const = 0;

  /// Build the token arbiter for one simulation run. Must return non-null
  /// for serialized policies; ignored (may return null) for concurrent ones.
  virtual std::unique_ptr<TokenPolicy> make_token_policy(
      const TokenPolicyContext& ctx) const = 0;

  /// The request offset this coordination implies when a strategy is
  /// assembled by name ("the paper rule": full-period for Least-Waste,
  /// period-minus-commit for everything else).
  virtual RequestOffset default_offset() const {
    return RequestOffset::kPeriodMinusCommit;
  }
};

/// Oblivious (§3.1): no coordination; the channel's interference model
/// dilates all concurrent transfers.
class ObliviousCoordination final : public IoCoordinationPolicy {
 public:
  std::string name() const override { return "Oblivious"; }
  bool serialized() const override { return false; }
  bool non_blocking_wait() const override { return false; }
  std::unique_ptr<TokenPolicy> make_token_policy(
      const TokenPolicyContext&) const override {
    return nullptr;
  }
};

/// Generic token-serialized coordination: a display name, a wait behaviour
/// and a TokenPolicy factory. All serialized strategies — the paper's and
/// custom ones — are instances of this class, so defining a new serialized
/// strategy requires no new coordination subclass.
class SerialCoordination final : public IoCoordinationPolicy {
 public:
  using TokenFactory =
      std::function<std::unique_ptr<TokenPolicy>(const TokenPolicyContext&)>;

  SerialCoordination(
      std::string name, bool non_blocking_wait, TokenFactory factory,
      RequestOffset default_offset = RequestOffset::kPeriodMinusCommit);

  std::string name() const override { return name_; }
  bool serialized() const override { return true; }
  bool non_blocking_wait() const override { return non_blocking_wait_; }
  std::unique_ptr<TokenPolicy> make_token_policy(
      const TokenPolicyContext& ctx) const override {
    return factory_(ctx);
  }
  RequestOffset default_offset() const override { return default_offset_; }

 private:
  std::string name_;
  bool non_blocking_wait_;
  TokenFactory factory_;
  RequestOffset default_offset_;
};

/// Built-in coordination policies (shared, immutable — cheap to copy around).
std::shared_ptr<const IoCoordinationPolicy> oblivious_coordination();
std::shared_ptr<const IoCoordinationPolicy> ordered_coordination();
std::shared_ptr<const IoCoordinationPolicy> ordered_nb_coordination();
std::shared_ptr<const IoCoordinationPolicy> least_waste_coordination(
    LeastWasteVariant variant = LeastWasteVariant::kPaperEq12);
/// Ablation baselines (serialized, non-blocking waits).
std::shared_ptr<const IoCoordinationPolicy> random_coordination();
std::shared_ptr<const IoCoordinationPolicy> smallest_first_coordination();

// ---------------------------------------------------------------------------
// Registries
// ---------------------------------------------------------------------------

/// Name-keyed factory registry of `T` values (coordination policies,
/// whole strategies). Registering an existing name replaces the factory
/// (last writer wins), so tests and downstream code can shadow built-ins.
template <typename T>
class Registry {
 public:
  using Factory = std::function<T()>;

  void add(const std::string& name, Factory factory) {
    COOPCR_CHECK(!name.empty(), "registry name must not be empty");
    COOPCR_CHECK(factory != nullptr, "registry factory must not be null");
    factories_[name] = std::move(factory);
  }

  /// Register a ready-made value under its own name().
  void add(T value) {
    const std::string key = name_of(value);
    add(key, [value = std::move(value)] { return value; });
  }

  bool contains(const std::string& name) const {
    return factories_.count(name) != 0;
  }

  T make(const std::string& name) const {
    const auto it = factories_.find(name);
    COOPCR_CHECK(it != factories_.end(), "unknown registry name: " + name);
    return it->second();
  }

  /// Registered names in lexicographic order (stable for tables/tests).
  std::vector<std::string> names() const {
    std::vector<std::string> out;
    out.reserve(factories_.size());
    for (const auto& [name, factory] : factories_) out.push_back(name);
    return out;
  }

 private:
  static std::string name_of(const T& value) {
    if constexpr (requires { value->name(); }) {
      COOPCR_CHECK(value != nullptr, "registered value must not be null");
      return value->name();
    } else {
      return value.name();
    }
  }

  std::map<std::string, Factory> factories_;
};

/// Process-wide coordination registry, pre-seeded with the built-ins above.
/// Not synchronized: register custom policies up front, before spawning
/// Monte Carlo worker threads.
Registry<std::shared_ptr<const IoCoordinationPolicy>>& coordination_registry();

}  // namespace coopcr
