// coopcr/core/variance_reduction.hpp
//
// Variance-reduced mean estimation for the Monte Carlo harness (the ROADMAP
// "replica economy" item).
//
// The candlestick figures need E[waste ratio] to a given precision, and after
// the engine and dist optimisations the replica *count* is the dominant cost
// of every sweep. Three classical estimator upgrades attack it:
//
//  * antithetic variates — replicas are simulated in pairs whose failure
//    traces use inverted gap uniforms (platform/failure_model.hpp); the
//    estimator averages pair means, cancelling the monotone component of the
//    waste's dependence on the failure draw;
//  * control variates — the closed-form first-order expected waste
//    (core/daly.hpp, core/lower_bound.hpp) evaluated at each replica's
//    failure count is a free predictor X with known mean; the estimator
//    subtracts beta * (X̄ - E[X]) with beta fit per grid point;
//  * sequential stopping — MonteCarloOptions::target_ci_width drives
//    exp::SweepRunner in rounds until the 95% CI of each estimate is narrow
//    enough.
//
// The second-generation upgrade ("Estimator upgrades, round two") targets
// the variance the failure-side tricks cannot touch — on full-APEX-mix rows
// ~85-90% of the waste variance is workload–schedule interaction common to
// every strategy of a replica:
//
//  * strategy contrasts — all strategies of a replica share the same
//    workload and failure trace (common random numbers), so the paired
//    difference E[waste_A - waste_B] cancels the shared component exactly;
//    estimate_contrast reports its vr_factor against the *unpaired*
//    two-sample estimator over the same simulations.
//
// estimate_mean is the one numeric kernel they all share. It is plain
// deterministic arithmetic over the already-reduced samples, so adding it
// never perturbs the simulation stream: with variance reduction disabled,
// reports stay byte-identical to earlier releases.

#pragma once

#include <cstddef>
#include <vector>

namespace coopcr {

/// A variance-reduced estimate of one metric's mean, plus the bookkeeping
/// the vr_* report columns expose.
struct VrEstimate {
  double mean = 0.0;       ///< point estimate of the metric's expectation
  double std_error = 0.0;  ///< standard error of `mean`
  double ci_width = 0.0;   ///< full 95% CI width (2 x 1.96 x std_error)
  /// Variance of the plain sample-mean estimator over the same simulations,
  /// divided by the variance of this estimator (1 when degenerate). The
  /// replicas-to-fixed-CI saving factor.
  double vr_factor = 1.0;
  double ess = 0.0;      ///< effective sample size: simulations x vr_factor
  double cv_beta = 0.0;  ///< fitted control-variate coefficient (0 = no CV)
  std::size_t simulations = 0;  ///< raw strategy simulations consumed
};

/// Estimate the mean of `samples` (per-simulation values in replica order).
///
/// When `paired` is set, consecutive even/odd entries are an antithetic pair
/// (samples.size() must be even) and the estimator works on pair means.
/// `predictors` — empty, or one control-variate predictor per sample with
/// known expectation `predictor_mean` — selects the control-variate
/// adjustment; the coefficient is the least-squares fit over the (pair-mean)
/// units and degenerates to 0 when the predictor is constant.
VrEstimate estimate_mean(const std::vector<double>& samples, bool paired,
                         const std::vector<double>& predictors,
                         double predictor_mean);

/// Estimate the paired strategy contrast E[samples - reference] from
/// per-replica differences. `samples` and `reference` are the two
/// strategies' per-simulation values over the *same* replica draws (common
/// random numbers), in the same replica order; `paired` composes exactly as
/// in estimate_mean (the differences are paired into antithetic units).
/// Control variates do not apply: the closed-form
/// predictor depends only on the replica's failure draw, which the
/// difference cancels exactly.
///
/// vr_factor compares against the classical *unpaired* two-sample estimator
/// over the same simulation budget — (var(samples) + var(reference)) / n —
/// so it reads directly as the replicas-to-fixed-CI saving of running the
/// comparison with common random numbers instead of independent campaigns.
VrEstimate estimate_contrast(const std::vector<double>& samples,
                             const std::vector<double>& reference,
                             bool paired);

}  // namespace coopcr
