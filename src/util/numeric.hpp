// coopcr/util/numeric.hpp
//
// Small numerical toolbox used by the analytical model (core/lower_bound) and
// the capacity-planning studies (Figure 3 bisection on bandwidth).

#pragma once

#include <functional>

namespace coopcr {

/// Result of a 1-D root / threshold search.
struct SolveResult {
  double x = 0.0;       ///< solution abscissa
  double fx = 0.0;      ///< residual f(x)
  int iterations = 0;   ///< iterations spent
  bool converged = false;
};

/// Find a root of `f` (continuous) in [lo, hi] by bisection.
///
/// Requires f(lo) and f(hi) to have opposite signs (or one of them to be
/// zero). Converges to |hi - lo| <= xtol or |f| <= ftol.
SolveResult bisect_root(const std::function<double(double)>& f, double lo,
                        double hi, double xtol = 1e-10, double ftol = 0.0,
                        int max_iter = 200);

/// Find the smallest x in [lo, hi] such that `pred(x)` is true, assuming
/// `pred` is monotone (false ... false true ... true). Returns hi if pred is
/// never true in the bracket; lo if pred(lo) is already true.
///
/// Used e.g. for "minimum bandwidth achieving 80% efficiency" (Figure 3).
double bisect_threshold(const std::function<bool(double)>& pred, double lo,
                        double hi, double xtol = 1e-6, int max_iter = 200);

/// Golden-section minimisation of a unimodal function on [lo, hi].
SolveResult golden_section_min(const std::function<double(double)>& f,
                               double lo, double hi, double xtol = 1e-9,
                               int max_iter = 300);

}  // namespace coopcr
