#include "numeric/poisson.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

namespace csrlmrm::numeric {
namespace {

TEST(Poisson, ZeroMeanIsPointMassAtZero) {
  EXPECT_DOUBLE_EQ(poisson_pmf(0, 0.0), 1.0);
  EXPECT_DOUBLE_EQ(poisson_pmf(3, 0.0), 0.0);
}

TEST(Poisson, MatchesThesisRecursion) {
  // P_0 = e^{-m}, P_i = (m/i) P_{i-1} (section 4.6.2).
  const double mean = 3.7;
  double recursive = std::exp(-mean);
  for (std::size_t i = 0; i <= 25; ++i) {
    EXPECT_NEAR(poisson_pmf(i, mean), recursive, 1e-14) << "at i=" << i;
    recursive *= mean / static_cast<double>(i + 1);
  }
}

TEST(Poisson, PmfSumsToOne) {
  const double mean = 12.0;
  double total = 0.0;
  for (std::size_t i = 0; i <= 200; ++i) total += poisson_pmf(i, mean);
  EXPECT_NEAR(total, 1.0, 1e-12);
}

TEST(Poisson, StableForHugeMeans) {
  // The naive recursion underflows at e^{-2000}; the log-domain form must
  // still give usable masses near the mode.
  const double mean = 2000.0;
  const double at_mode = poisson_pmf(2000, mean);
  EXPECT_GT(at_mode, 0.0);
  EXPECT_NEAR(at_mode, 1.0 / std::sqrt(2.0 * 3.14159265358979 * mean), 1e-4);
}

TEST(Poisson, RejectsInvalidMean) {
  EXPECT_THROW(poisson_pmf(0, -1.0), std::invalid_argument);
  EXPECT_THROW(poisson_pmf(0, std::numeric_limits<double>::infinity()),
               std::invalid_argument);
}

/// Pr{N <= n} by direct summation of the pointwise masses.
double direct_cdf(std::size_t n, double mean) {
  double acc = 0.0;
  for (std::size_t i = 0; i <= n; ++i) acc += poisson_pmf(i, mean);
  return std::min(acc, 1.0);
}

TEST(Poisson, CdfIsMonotone) {
  const PoissonTable table(5.0);
  double prev = 0.0;
  for (std::size_t i = 0; i <= 30; ++i) {
    const double c = table.cdf(i);
    EXPECT_GE(c, prev);
    EXPECT_LE(c, 1.0);
    prev = c;
  }
  EXPECT_NEAR(prev, 1.0, 1e-10);
}

TEST(Poisson, SequenceMatchesPointwisePmf) {
  const PoissonTable table(4.2);
  for (std::size_t i = 0; i <= 20; ++i) EXPECT_EQ(table.pmf(i), poisson_pmf(i, 4.2));
}

TEST(Poisson, TruncationPointCapturesMass) {
  // The right edge is the smallest n whose mass above stays within epsilon.
  const double mean = 8.0;
  const double epsilon = 1e-10;
  const PoissonTable table(mean);
  const std::size_t n = table.right_edge(epsilon);
  EXPECT_GE(direct_cdf(n, mean), 1.0 - epsilon);
  ASSERT_GT(n, 0u);
  EXPECT_LT(direct_cdf(n - 1, mean), 1.0 - epsilon);
}

TEST(Poisson, TruncationPointRejectsBadEpsilon) {
  const PoissonTable table(1.0);
  EXPECT_THROW(table.right_edge(0.0), std::invalid_argument);
  EXPECT_THROW(table.right_edge(1.0), std::invalid_argument);
  EXPECT_THROW(table.right_edge(std::numeric_limits<double>::quiet_NaN()),
               std::invalid_argument);
}

TEST(PoissonTable, MatchesDirectCdf) {
  const PoissonTable table(6.5);
  EXPECT_NEAR(table.cdf(10), direct_cdf(10, 6.5), 1e-14);
  EXPECT_NEAR(table.cdf(3), direct_cdf(3, 6.5), 1e-14);
  EXPECT_NEAR(table.cdf(25), direct_cdf(25, 6.5), 1e-14);
}

TEST(PoissonTable, TailComplementsCdf) {
  const PoissonTable table(4.0);
  EXPECT_DOUBLE_EQ(table.tail(0), 1.0);
  EXPECT_NEAR(table.tail(5), 1.0 - direct_cdf(4, 4.0), 1e-14);
  EXPECT_GE(table.tail(100), 0.0);
}

TEST(PoissonTable, MassesEqualPointwisePmfBitwise) {
  // The class-DP sweep and the DFPG oracle must see the very bits
  // poisson_pmf gives, inside the table's range and past its end. Means span
  // the point mass, small, mid and the largest the class-DP engine tabulates
  // (-ln 1e-300 ~ 690).
  for (const double mean : {0.0, 1e-3, 0.37, 4.2, 57.0, 690.0}) {
    const PoissonTable table(mean);
    ASSERT_GT(table.size(), static_cast<std::size_t>(mean));
    for (std::size_t n = 0; n < table.size() + 10; ++n) {
      ASSERT_EQ(table.pmf(n), poisson_pmf(n, mean)) << "mean " << mean << ", n " << n;
    }
  }
}

TEST(PoissonTable, TailIsClampedComplementOfCdfInsideAndPastTheTable) {
  for (const double mean : {0.0, 0.5, 12.0, 300.0}) {
    const PoissonTable table(mean);
    EXPECT_EQ(table.tail(0), 1.0);
    for (std::size_t n = 1; n < table.size() + 20; ++n) {
      ASSERT_EQ(table.tail(n), std::max(0.0, 1.0 - table.cdf(n - 1)))
          << "mean " << mean << ", n " << n;
    }
    // Past its end the table keeps summing masses instead of freezing.
    EXPECT_EQ(table.cdf(table.size() + 5),
              std::min(table.cdf(table.size() + 4) + poisson_pmf(table.size() + 5, mean), 1.0));
  }
}

TEST(PoissonTable, RejectsInvalidMean) {
  EXPECT_THROW(PoissonTable(-1.0), std::invalid_argument);
  EXPECT_THROW(PoissonTable(std::numeric_limits<double>::quiet_NaN()), std::invalid_argument);
  EXPECT_THROW(PoissonTable(std::numeric_limits<double>::infinity()), std::invalid_argument);
}

TEST(PoissonTable, ZeroMeanIsPointMass) {
  const PoissonTable table(0.0);
  EXPECT_EQ(table.pmf(0), 1.0);
  EXPECT_EQ(table.pmf(1), 0.0);
  EXPECT_EQ(table.tail(1), 0.0);
  EXPECT_EQ(table.right_edge(1e-10), 0u);
  EXPECT_EQ(table.right_edge(1e-300), 0u);
}

// The tables past the class DP's range: the edge keeps at least 1 - epsilon
// of the mass, stops within O(sqrt(mean) log(1/epsilon)) of the mean, and
// is the *smallest* such index, out to mean 1e6 (a 1e6 + 4e4 entry table)
// and down to epsilon = 1e-30, far below what 1 - cdf(n) can resolve.
class PoissonTableMeans : public ::testing::TestWithParam<double> {};

TEST_P(PoissonTableMeans, RightEdgeKeepsTheRequestedMass) {
  const double mean = GetParam();
  const PoissonTable table(mean);
  for (const double epsilon : {1e-6, 1e-9, 1e-12, 1e-30}) {
    const std::size_t edge = table.right_edge(epsilon);
    // Summed from the far end, like the edge itself, so the check resolves
    // tails far below 1e-16.
    double above = 0.0;
    for (std::size_t k = table.size() - 1; k > edge; --k) above += table.pmf(k);
    EXPECT_LE(above, epsilon) << "mean=" << mean << " epsilon=" << epsilon;
    EXPECT_GT(above + table.pmf(edge), epsilon) << "mean=" << mean << " epsilon=" << epsilon;
    // The kept masses hold 1 - epsilon up to the rounding of the masses.
    double kept = 0.0;
    for (std::size_t k = 0; k <= edge; ++k) kept += table.pmf(k);
    EXPECT_GE(kept, 1.0 - epsilon - 1e-13) << "mean=" << mean << " epsilon=" << epsilon;
    EXPECT_LT(static_cast<double>(edge), mean + 15.0 * std::sqrt(mean + 1.0) + 60.0)
        << "mean=" << mean << " epsilon=" << epsilon;
  }
}

INSTANTIATE_TEST_SUITE_P(Means, PoissonTableMeans,
                         ::testing::Values(0.05, 0.7, 3.0, 17.5, 32.0, 33.0, 150.0, 2500.0, 40000.0,
                                           1.0e6));

TEST(PoissonTable, RefusesAHorizonPastItsSizeLimitWithoutAllocating) {
  // The table spans ~80 sqrt(mean) entries, so it passes 2^26 entries near
  // mean 7e11; the guard throws before the allocation, naming Lambda*t and
  // the remedy. At 1e300 the two ends of the span round to the same double,
  // so the guard must not rest on their difference.
  for (const double mean : {1.0e12, 5.0e13, 1.0e300}) {
    try {
      const PoissonTable table(mean);
      FAIL() << "expected std::invalid_argument at mean " << mean;
    } catch (const std::invalid_argument& error) {
      const std::string message = error.what();
      EXPECT_NE(message.find("Lambda*t"), std::string::npos) << message;
      EXPECT_NE(message.find("shorten the time bound"), std::string::npos) << message;
    }
  }
}

TEST(PoissonTable, SpansASquareRootWindowAroundTheMean) {
  // Below left() every mass underflows to 0, so the table starts there.
  const double mean = 1.0e6;
  const PoissonTable table(mean);
  ASSERT_GT(table.left(), 0u);
  EXPECT_LT(table.size() - table.left(), static_cast<std::size_t>(100.0 * std::sqrt(mean)));
  EXPECT_EQ(poisson_pmf(table.left() - 1, mean), 0.0);
  EXPECT_EQ(table.pmf(table.left() - 1), 0.0);
  EXPECT_EQ(table.pmf(0), 0.0);
  EXPECT_EQ(table.cdf(table.left() - 1), 0.0);
  EXPECT_EQ(table.tail(table.left()), 1.0);
  EXPECT_EQ(table.pmf(1000000), poisson_pmf(1000000, mean));
  EXPECT_NEAR(table.mass_between(0, table.size() - 1), 1.0, 1e-13);
  // Small means still start at 0, where the class DP reads its masses.
  EXPECT_EQ(PoissonTable(1500.0).left(), 0u);
}

TEST(PoissonTable, MassErrorBoundsTheRoundingOfTheMasses) {
  // Reference masses from the ratio recurrence P_{k+1} = P_k m / (k+1),
  // anchored at the mode and normalized, in 64-bit-mantissa long double:
  // accurate to ~1e-16 over the table, well under the bounds checked.
  if constexpr (std::numeric_limits<long double>::digits < 64) {
    GTEST_SKIP() << "needs an extended-precision long double";
  }
  // Both forms: the log domain up to mean 40, the saddle point past it.
  for (const double mean : {0.05, 3.0, 17.5, 40.0, 40.5, 150.0, 745.0, 5050.0}) {
    const PoissonTable table(mean);
    const std::size_t mode = static_cast<std::size_t>(mean);
    std::vector<long double> reference(table.size(), 0.0L);
    reference[mode] = 1.0L;
    for (std::size_t k = mode; k + 1 < table.size(); ++k) {
      reference[k + 1] = reference[k] * mean / static_cast<long double>(k + 1);
    }
    for (std::size_t k = mode; k > table.left(); --k) {
      reference[k - 1] = reference[k] * static_cast<long double>(k) / mean;
    }
    long double total = 0.0L;
    for (const long double r : reference) total += r;
    long double weighted = 0.0L;
    for (std::size_t k = table.left(); k < table.size(); ++k) {
      const long double exact = reference[k] / total;
      if (exact < 1e-300L) continue;
      weighted += std::abs(static_cast<long double>(table.pmf(k)) - exact);
    }
    EXPECT_LE(static_cast<double>(weighted), table.mass_error()) << "mean " << mean;
    EXPECT_LE(table.mass_error(), 1e-13) << "mean " << mean;
  }
}

}  // namespace
}  // namespace csrlmrm::numeric
