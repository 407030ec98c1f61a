// Expected occupation times E[L_j(t)] through the backward reward series
// expected_accumulated_rates: the rate vector e_j accrues exactly the time
// spent in j, and the all-ones vector accrues the whole horizon t.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "numeric/transient.hpp"

namespace csrlmrm::numeric {
namespace {

std::vector<double> unit(std::size_t n, std::size_t j) {
  std::vector<double> e(n, 0.0);
  e[j] = 1.0;
  return e;
}

TEST(OccupationTimes, SumToTheHorizon) {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 0.5);
  rates.add(2, 0, 2.0);
  const auto matrix = rates.build();
  for (double t : {0.5, 3.0, 20.0}) {
    const auto total = expected_accumulated_rates(matrix, {1.0, 1.0, 1.0}, t);
    for (std::size_t s = 0; s < total.size(); ++s) {
      EXPECT_NEAR(total[s], t, 1e-8) << "t=" << t << " start=" << s;
    }
    double summed = 0.0;
    for (std::size_t j = 0; j < 3; ++j) {
      summed += expected_accumulated_rates(matrix, unit(3, j), t)[0];
    }
    EXPECT_NEAR(summed, t, 1e-8) << "t=" << t;
  }
}

TEST(OccupationTimes, AbsorbingChainMatchesClosedForm) {
  // 0 -> 1 at mu: E[L_0(t)] = E[min(T,t)] = (1 - e^{-mu t}) / mu.
  const double mu = 0.8;
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  const auto matrix = rates.build();
  for (double t : {0.25, 1.0, 5.0, 50.0}) {
    const auto in_zero = expected_accumulated_rates(matrix, unit(2, 0), t);
    const auto in_one = expected_accumulated_rates(matrix, unit(2, 1), t);
    const double expected = (1.0 - std::exp(-mu * t)) / mu;
    EXPECT_NEAR(in_zero[0], expected, 1e-8) << "t=" << t;
    EXPECT_NEAR(in_one[0], t - expected, 1e-8);
    // Started in the absorbing state, the chain never leaves it.
    EXPECT_NEAR(in_zero[1], 0.0, 1e-8);
    EXPECT_NEAR(in_one[1], t, 1e-8);
  }
}

TEST(OccupationTimes, LongHorizonFollowsSteadyState) {
  // Two-state chain a=1, b=3: pi = (3/4, 1/4); L_s(t)/t -> pi_s.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  rates.add(1, 0, 3.0);
  const auto matrix = rates.build();
  const auto in_zero = expected_accumulated_rates(matrix, unit(2, 0), 500.0);
  const auto in_one = expected_accumulated_rates(matrix, unit(2, 1), 500.0);
  EXPECT_NEAR(in_zero[0] / 500.0, 0.75, 1e-3);
  EXPECT_NEAR(in_one[0] / 500.0, 0.25, 1e-3);
}

TEST(OccupationTimes, ZeroHorizonIsZero) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const auto occupation = expected_accumulated_rates(rates.build(), {0.5, 0.5}, 0.0);
  EXPECT_DOUBLE_EQ(occupation[0], 0.0);
  EXPECT_DOUBLE_EQ(occupation[1], 0.0);
}

TEST(OccupationTimes, AllAbsorbingSplitsByInitialDistribution) {
  // Nothing moves, so from the initial distribution (1/4, 3/4) the horizon
  // t = 8 splits into 2 time units in state 0 and 6 in state 1.
  const auto matrix = core::RateMatrixBuilder(2).build();
  const std::vector<double> initial = {0.25, 0.75};
  for (std::size_t j = 0; j < 2; ++j) {
    const auto per_start = expected_accumulated_rates(matrix, unit(2, j), 8.0);
    const double occupation = initial[0] * per_start[0] + initial[1] * per_start[1];
    EXPECT_DOUBLE_EQ(occupation, j == 0 ? 2.0 : 6.0);
  }
}

TEST(OccupationTimes, RejectsBadInput) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  const auto matrix = rates.build();
  EXPECT_THROW(expected_accumulated_rates(matrix, {1.0}, 1.0), std::invalid_argument);
  EXPECT_THROW(
      expected_accumulated_rates(matrix, {std::numeric_limits<double>::infinity(), 0.0}, 1.0),
      std::invalid_argument);
  EXPECT_THROW(expected_accumulated_rates(matrix, {1.0, 0.0}, -1.0), std::invalid_argument);
}

TEST(UniformizedTransitionMatrix, IsSharedAndStochastic) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  rates.add(1, 0, 1.0);
  double lambda = 0.0;
  const auto P = uniformized_transition_matrix(rates.build(), lambda);
  EXPECT_DOUBLE_EQ(lambda, 2.0);
  EXPECT_NEAR(P.row_sum(0), 1.0, 1e-12);
  EXPECT_NEAR(P.row_sum(1), 1.0, 1e-12);
  EXPECT_DOUBLE_EQ(P.at(1, 1), 0.5);
}

}  // namespace
}  // namespace csrlmrm::numeric
