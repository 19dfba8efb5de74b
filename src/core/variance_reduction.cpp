#include "core/variance_reduction.hpp"

#include <cmath>

#include "util/error.hpp"

namespace coopcr {

namespace {

constexpr double kZ95 = 1.959963984540054;  ///< 97.5% normal quantile

double mean_of(const std::vector<double>& xs) {
  double sum = 0.0;
  for (const double x : xs) sum += x;
  return xs.empty() ? 0.0 : sum / static_cast<double>(xs.size());
}

/// Unbiased sample variance (0 for fewer than 2 observations).
double variance_of(const std::vector<double>& xs, double mean) {
  if (xs.size() < 2) return 0.0;
  double sum = 0.0;
  for (const double x : xs) sum += (x - mean) * (x - mean);
  return sum / static_cast<double>(xs.size() - 1);
}

/// Average consecutive even/odd entries into antithetic pair means.
std::vector<double> pair_means(const std::vector<double>& xs) {
  std::vector<double> out;
  out.reserve(xs.size() / 2);
  for (std::size_t i = 0; i + 1 < xs.size(); i += 2) {
    out.push_back(0.5 * (xs[i] + xs[i + 1]));
  }
  return out;
}

}  // namespace

VrEstimate estimate_mean(const std::vector<double>& samples, bool paired,
                         const std::vector<double>& predictors,
                         double predictor_mean) {
  COOPCR_CHECK(!samples.empty(), "estimate_mean needs at least one sample");
  COOPCR_CHECK(!paired || samples.size() % 2 == 0,
               "paired estimation needs an even sample count");
  COOPCR_CHECK(predictors.empty() || predictors.size() == samples.size(),
               "control-variate predictors must parallel the samples");

  VrEstimate est;
  est.simulations = samples.size();

  // Plain-estimator variance over the same simulation budget — the vr_factor
  // numerator. (For paired samples this is still the iid sample-mean
  // variance; the pairing is exactly what the factor gets credit for.)
  const double raw_mean = mean_of(samples);
  const double raw_var = variance_of(samples, raw_mean);
  const double plain_est_var =
      raw_var / static_cast<double>(samples.size());

  // Reduce to estimation units: pair means when paired, raw samples
  // otherwise. The control-variate predictors average the same way.
  std::vector<double> units = paired ? pair_means(samples) : samples;
  std::vector<double> unit_predictors =
      paired && !predictors.empty() ? pair_means(predictors) : predictors;
  const std::size_t m = units.size();
  const double unit_mean = mean_of(units);

  double est_mean = unit_mean;
  std::vector<double> adjusted;
  if (!unit_predictors.empty()) {
    const double x_mean = mean_of(unit_predictors);
    const double x_var = variance_of(unit_predictors, x_mean);
    double beta = 0.0;
    if (x_var > 0.0 && m >= 2) {
      double cov = 0.0;
      for (std::size_t i = 0; i < m; ++i) {
        cov += (units[i] - unit_mean) * (unit_predictors[i] - x_mean);
      }
      cov /= static_cast<double>(m - 1);
      beta = cov / x_var;
    }
    est.cv_beta = beta;
    // Adjusted units y_i = u_i - beta (x_i - E[X]); their mean is the CV
    // estimate and their spread its residual variance.
    adjusted.reserve(m);
    for (std::size_t i = 0; i < m; ++i) {
      adjusted.push_back(units[i] -
                         beta * (unit_predictors[i] - predictor_mean));
    }
    est_mean = mean_of(adjusted);
  }
  const std::vector<double>& final_units =
      adjusted.empty() ? units : adjusted;
  const double est_var = variance_of(final_units, est_mean);

  est.mean = est_mean;
  const double est_mean_var = m > 0 ? est_var / static_cast<double>(m) : 0.0;
  est.std_error = std::sqrt(est_mean_var);
  est.ci_width = 2.0 * kZ95 * est.std_error;
  est.vr_factor = (est_mean_var > 0.0 && plain_est_var > 0.0)
                      ? plain_est_var / est_mean_var
                      : 1.0;
  est.ess = static_cast<double>(samples.size()) * est.vr_factor;
  return est;
}

VrEstimate estimate_contrast(const std::vector<double>& samples,
                             const std::vector<double>& reference,
                             bool paired) {
  COOPCR_CHECK(!samples.empty(), "estimate_contrast needs at least one sample");
  COOPCR_CHECK(reference.size() == samples.size(),
               "contrast reference samples must parallel the samples");
  COOPCR_CHECK(!paired || samples.size() % 2 == 0,
               "paired estimation needs an even sample count");

  // Per-replica paired differences — the common-random-numbers estimator.
  std::vector<double> diffs;
  diffs.reserve(samples.size());
  for (std::size_t i = 0; i < samples.size(); ++i) {
    diffs.push_back(samples[i] - reference[i]);
  }
  VrEstimate est = estimate_mean(diffs, paired, {}, 0.0);

  // Credit the pairing against the honest alternative: the *unpaired*
  // two-sample difference-of-means estimator over the same budget,
  // var(A)/n + var(B)/n. estimate_mean's own vr_factor compared against the
  // iid mean of the differences, which already assumes the pairing.
  const double n = static_cast<double>(samples.size());
  const double unpaired_var =
      (variance_of(samples, mean_of(samples)) +
       variance_of(reference, mean_of(reference))) /
      n;
  const double est_mean_var = est.std_error * est.std_error;
  est.vr_factor = (est_mean_var > 0.0 && unpaired_var > 0.0)
                      ? unpaired_var / est_mean_var
                      : 1.0;
  est.ess = n * est.vr_factor;
  return est;
}

}  // namespace coopcr
