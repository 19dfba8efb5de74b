// Unit tests for the Young/Daly helpers (paper Eq. (3) and Eq. (5)).

#include "core/daly.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "util/units.hpp"

namespace coopcr {
namespace {

TEST(Daly, JobMtbfDividesByNodes) {
  EXPECT_DOUBLE_EQ(job_mtbf(units::years(2), 2048),
                   units::years(2) / 2048.0);
  EXPECT_DOUBLE_EQ(job_mtbf(1000.0, 1), 1000.0);
}

TEST(Daly, PeriodFormula) {
  EXPECT_DOUBLE_EQ(daly_period(300.0, 30000.0),
                   std::sqrt(2.0 * 30000.0 * 300.0));
}

TEST(Daly, PeriodGrowsWithSqrtOfBoth) {
  const double base = daly_period(100.0, 10000.0);
  EXPECT_NEAR(daly_period(400.0, 10000.0), 2.0 * base, 1e-9);
  EXPECT_NEAR(daly_period(100.0, 40000.0), 2.0 * base, 1e-9);
}

TEST(Daly, WasteFormulaMatchesEq3) {
  // W = C/P + (P/2 + R)/µ.
  const double w = periodic_waste(1000.0, 50.0, 60.0, 20000.0);
  EXPECT_NEAR(w, 50.0 / 1000.0 + (500.0 + 60.0) / 20000.0, 1e-15);
}

TEST(Daly, DalyPeriodMinimisesWaste) {
  const double c = 327.0;
  const double mu = 30796.0;
  const double r = c;
  const double p_star = daly_period(c, mu);
  const double w_star = periodic_waste(p_star, c, r, mu);
  for (const double factor : {0.5, 0.8, 0.9, 1.1, 1.3, 2.0}) {
    EXPECT_LE(w_star, periodic_waste(p_star * factor, c, r, mu))
        << "factor " << factor;
  }
}

TEST(Daly, EapOnCieloMatchesHandComputation) {
  // EAP on Cielo: µ = 2 y / 2048 ≈ 30,796 s; C(160 GB/s) ≈ 327.4 s;
  // P_Daly = sqrt(2 µ C) ≈ 4490 s (cf. coopcr_sweep --spec table1).
  const double mu = job_mtbf(units::years(2), 2048);
  EXPECT_NEAR(mu, 30796.9, 0.5);
  EXPECT_NEAR(daly_period(327.4, mu), 4490.7, 2.0);
}

}  // namespace
}  // namespace coopcr
