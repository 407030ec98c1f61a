// The discretization engine (Algorithm 4.6) against closed forms and the
// reward-scaling helper. The engine answers every start state in one sweep;
// the death chain starts in state 0, the absorbing target is state 1.
#include "numeric/discretization.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "core/transform.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::numeric {
namespace {

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

DiscretizationOptions step(double d) {
  DiscretizationOptions options;
  options.step = d;
  return options;
}

/// Two-state death chain 0 -> 1 (rate mu) with rho(0) = c and an optional
/// impulse; target state 1 is already absorbing, rewards of psi-states are
/// zeroed as the transformed model would have them.
core::Mrm death_chain(double mu, double c, double iota = 0.0) {
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, mu);
  core::ImpulseRewardsBuilder impulses(2);
  if (iota > 0.0) impulses.add(0, 1, iota);
  return core::Mrm(core::Ctmc(rates.build(), core::Labeling(2)), {c, 0.0}, impulses.build());
}

TEST(Discretization, FindIntegerScaleIdentifiesFactors) {
  EXPECT_EQ(find_integer_scale({1.0, 2.0, 5.0}, 100), 1u);
  EXPECT_EQ(find_integer_scale({0.5, 1.5}, 100), 2u);
  EXPECT_EQ(find_integer_scale({7.4, 10.0}, 100), 5u);
  EXPECT_EQ(find_integer_scale({1.0 / 3.0}, 100), 3u);
  EXPECT_THROW(find_integer_scale({0.123456789}, 10), std::domain_error);
}

TEST(Discretization, ConvergesToExponentialClosedForm) {
  // P = 1 - exp(-mu min(t, r/c)); time-limited case.
  const double mu = 0.5;
  const double c = 2.0;
  const core::Mrm model = death_chain(mu, c);
  const double t = 4.0;
  const double r = 100.0;  // not binding
  double previous_error = 1.0;
  for (double d : {0.25, 0.125, 0.0625}) {
    const auto result =
        until_probabilities_discretization(model, mask(2, {1}), t, r, step(d));
    const double error = std::abs(result.probabilities[0] - (1.0 - std::exp(-mu * t)));
    EXPECT_LT(error, previous_error) << "d=" << d;  // converges as d shrinks
    previous_error = error;
  }
  EXPECT_LT(previous_error, 5e-3);
}

TEST(Discretization, RewardBoundBitesAtRoverC) {
  const double mu = 0.8;
  const double c = 4.0;
  const core::Mrm model = death_chain(mu, c);
  const double t = 10.0;
  const double r = 8.0;  // binding: effective horizon r/c = 2
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), t, r, step(1.0 / 64.0));
  EXPECT_NEAR(result.probabilities[0], 1.0 - std::exp(-mu * (r / c)), 2e-2);
}

TEST(Discretization, ImpulseShiftsTheRewardBudget) {
  const double mu = 1.0;
  const double c = 1.0;
  const double iota = 2.0;
  const core::Mrm model = death_chain(mu, c, iota);
  const double t = 10.0;
  const double r = 3.0;  // need c*T + iota <= r -> T <= 1
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), t, r, step(1.0 / 64.0));
  EXPECT_NEAR(result.probabilities[0], 1.0 - std::exp(-mu * 1.0), 2e-2);
}

TEST(Discretization, ImpulseAboveBudgetGivesZero) {
  const core::Mrm model = death_chain(1.0, 1.0, 5.0);
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), 4.0, 3.0, step(0.125));
  EXPECT_DOUBLE_EQ(result.probabilities[0], 0.0);
}

TEST(Discretization, ScalesRationalRewards) {
  // rho = 0.5 needs scale 2; result must match the integer-reward run.
  const core::Mrm half = death_chain(0.5, 0.5);
  const auto result =
      until_probabilities_discretization(half, mask(2, {1}), 4.0, 100.0, step(0.125));
  EXPECT_EQ(result.reward_scale, 2u);
  EXPECT_NEAR(result.probabilities[0], 1.0 - std::exp(-0.5 * 4.0), 2e-2);
}

TEST(Discretization, PsiStartIsCertain) {
  const core::Mrm model = death_chain(1.0, 2.0);
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), 3.0, 10.0, step(0.25));
  EXPECT_NEAR(result.probabilities[1], 1.0, 1e-12);
}

TEST(Discretization, ZeroTimeIsIndicator) {
  const core::Mrm model = death_chain(1.0, 2.0);
  EXPECT_DOUBLE_EQ(
      until_probabilities_discretization(model, mask(2, {1}), 0.0, 1.0, step(0.25))
          .probabilities[1],
      1.0);
  EXPECT_DOUBLE_EQ(
      until_probabilities_discretization(model, mask(2, {1}), 0.0, 1.0, step(0.25))
          .probabilities[0],
      0.0);
}

TEST(Discretization, ReportsGridDimensions) {
  const core::Mrm model = death_chain(1.0, 2.0);
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), 2.0, 4.0, step(0.25));
  EXPECT_EQ(result.time_steps, 8u);
  EXPECT_EQ(result.reward_levels, 17u);  // levels 0..16
  EXPECT_EQ(result.reward_scale, 1u);
}

TEST(Discretization, RejectsTooCoarseStep) {
  const core::Mrm model = death_chain(10.0, 1.0);  // max exit 10 -> need d < 0.1
  EXPECT_THROW(
      until_probabilities_discretization(model, mask(2, {1}), 1.0, 1.0, step(0.25)),
      std::invalid_argument);
}

TEST(Discretization, RejectsNonMultipleTime) {
  const core::Mrm model = death_chain(1.0, 1.0);
  EXPECT_THROW(
      until_probabilities_discretization(model, mask(2, {1}), 1.1, 1.0, step(0.25)),
      std::invalid_argument);
}

TEST(Discretization, RejectsNonGridImpulse) {
  // iota = 0.1 is not a multiple of d = 0.25.
  const core::Mrm model = death_chain(1.0, 1.0, 0.1);
  EXPECT_THROW(
      until_probabilities_discretization(model, mask(2, {1}), 1.0, 1.0, step(0.25)),
      std::invalid_argument);
}

TEST(Discretization, AnswersEveryStartStateInOneSweep) {
  const core::Mrm model = death_chain(1.0, 2.0);
  const auto result =
      until_probabilities_discretization(model, mask(2, {1}), 2.0, 4.0, step(0.25));
  ASSERT_EQ(result.probabilities.size(), 2u);
  EXPECT_GT(result.probabilities[0], 0.0);
  EXPECT_LT(result.probabilities[0], 1.0);
  EXPECT_DOUBLE_EQ(result.probabilities[1], 1.0);
}

TEST(Discretization, RewardCdfRejectsBadStartAndBounds) {
  const core::Mrm model = death_chain(1.0, 2.0);
  EXPECT_THROW(reward_cdf_discretization(model, mask(2, {1}), 2, 2.0, {4.0}, step(0.25)),
               std::invalid_argument);
  EXPECT_THROW(reward_cdf_discretization(model, mask(2, {1}), 0, 2.0, {4.0, -1.0}, step(0.25)),
               std::invalid_argument);
  EXPECT_TRUE(
      reward_cdf_discretization(model, mask(2, {1}), 0, 2.0, {}, step(0.25)).probabilities.empty());
}

TEST(Discretization, WavelanTransformedModelRuns) {
  // End-to-end shape: run on M[!idle v busy] and compare roughly with the
  // Example 3.6 value (d is coarse, so allow a percent-level gap).
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  std::vector<bool> absorb(5, false);
  for (std::size_t s = 0; s < 5; ++s) absorb[s] = !idle[s] || busy[s];
  const core::Mrm transformed = core::make_absorbing(model, absorb);
  // Impulses (multiples of 5e-5) force a fine reward grid; keep r modest.
  DiscretizationOptions options;
  options.step = 1.0 / 64.0;
  options.max_reward_scale = 1;
  // State rewards are integers (0, 80, 1319, ...) and impulses are multiples
  // of 1/64? They are not -> expect the integrality guard to fire.
  EXPECT_THROW(
      until_probabilities_discretization(transformed, busy, 2.0, 2000.0, options),
      std::invalid_argument);
}

}  // namespace
}  // namespace csrlmrm::numeric
