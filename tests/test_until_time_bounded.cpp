// Time-bounded until without reward bound (P1): Theorem 4.1 reduction to
// transient analysis, against closed forms.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/until.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"

namespace csrlmrm::checker {
namespace {

using logic::Interval;

std::vector<bool> mask(std::size_t n, std::initializer_list<int> members) {
  std::vector<bool> m(n, false);
  for (int i : members) m[static_cast<std::size_t>(i)] = true;
  return m;
}

TEST(TimeBoundedUntil, SingleTransitionMatchesExponentialCdf) {
  core::RateMatrixBuilder rates(2);
  const double mu = 0.8;
  rates.add(0, 1, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)), {0.0, 0.0});
  for (double t : {0.5, 2.0, 10.0}) {
    const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                            logic::up_to(t), Interval{});
    EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-mu * t), 1e-9) << "t=" << t;
    EXPECT_DOUBLE_EQ(values[1].probability, 1.0);
  }
}

TEST(TimeBoundedUntil, PhiViolationMakesTargetUnreachable) {
  // 0 -> 1 -> 2 with Phi = {0}: P(0, Phi U^[0,t] {2}) = 0.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto values =
      until_probabilities(model, mask(3, {0}), mask(3, {2}), logic::up_to(10.0), Interval{});
  EXPECT_NEAR(values[0].probability, 0.0, 1e-12);
}

TEST(TimeBoundedUntil, TwoStepErlangReachability) {
  // 0 -> 1 -> 2 both at rate mu, all Phi: P = Erlang-2 CDF.
  const double mu = 1.3;
  const double t = 1.7;
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, mu);
  rates.add(1, 2, mu);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  const auto values = until_probabilities(model, std::vector<bool>(3, true), mask(3, {2}),
                                          logic::up_to(t), Interval{});
  const double erlang2 = 1.0 - std::exp(-mu * t) * (1.0 + mu * t);
  EXPECT_NEAR(values[0].probability, erlang2, 1e-9);
}

TEST(TimeBoundedUntil, TruncatedIntervalHoldsTheMassBeforeTheSecondJump) {
  // 0 -> 1 -> 2 at rate 1, target 2: P = 1 - Pr{N_32 <= 1} = 1 - 33 e^{-32}
  // = 1 - 4.18e-13, inside the epsilon = 1e-12 band. A series that drops
  // the small masses on the left and renormalizes what it keeps reports
  // exactly 1 and misses it; summing the raw masses keeps the truth inside
  // [p, p + epsilon].
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(3)),
                        std::vector<double>(3, 0.0));
  CheckerOptions options;
  options.transient.epsilon = 1e-12;
  const auto values = until_probabilities(model, std::vector<bool>(3, true), mask(3, {2}),
                                          logic::up_to(32.0), Interval{}, options);
  const double truth = 1.0 - 33.0 * std::exp(-32.0);
  EXPECT_LE(values[0].bound.lower, truth) << values[0].bound.to_string();
  EXPECT_GE(values[0].bound.upper, truth) << values[0].bound.to_string();
}

TEST(TimeBoundedUntil, LongHorizonIntervalsHoldTheTruthDespiteRounding) {
  // TMR at t = 1e5 (Lambda t = 5050) and t = 1e6 (Lambda t = 50500), states
  // 0 and 1, against 40-digit uniformization: 0.99996686492437859716 and
  // 0.99996712584666406947, then 1 - O(1e-20), which is 1 in double. Over
  // tens of thousands of products the
  // series' rounding (~5e-14 at t = 1e6) exceeds what epsilon leaves after
  // the truncation, so the interval must carry the rounding bound.
  const core::Mrm model = models::make_tmr();
  const auto sup = model.labels().states_with("Sup");
  const auto failed = model.labels().states_with("failed");
  struct Case {
    double t;
    double truth[2];
  };
  const Case cases[] = {{1e5, {0.99996686492437859716, 0.99996712584666406947}},
                        {1e6, {1.0, 1.0}}};
  for (const auto& [t, truths] : cases) {
    const auto values = until_probabilities(model, sup, failed, logic::up_to(t), Interval{});
    for (core::StateIndex s = 0; s < 2; ++s) {
      const double truth = truths[s];
      EXPECT_LE(values[s].bound.lower, truth) << "t=" << t << " " << values[s].bound.to_string();
      EXPECT_GE(values[s].bound.upper, truth) << "t=" << t << " " << values[s].bound.to_string();
      // The bound grows with Lambda t but stays far from vacuous.
      EXPECT_LT(values[s].bound.width(), 1e-10) << "t=" << t;
    }
  }
}

TEST(TimeBoundedUntil, RoundingBoundKeepsShortHorizonIntervalsEpsilonWide) {
  // At the paper's horizons (TMR t = 100, Lambda t = 5) the rounding bound
  // is carved out of epsilon: the interval stays epsilon wide and holds
  // the lost mass below p plus the rounding on both sides.
  const core::Mrm model = models::make_tmr();
  CheckerOptions options;
  options.transient.epsilon = 1e-12;
  const auto values = until_probabilities(model, model.labels().states_with("Sup"),
                                          model.labels().states_with("failed"),
                                          logic::up_to(100.0), Interval{}, options);
  for (core::StateIndex s = 0; s < 2; ++s) {
    EXPECT_NEAR(values[s].bound.width(), 1e-12, 1e-16) << values[s].bound.to_string();
    EXPECT_LT(values[s].bound.lower, values[s].probability);
    EXPECT_LE(values[s].error_bound, 1e-12);
  }
}

TEST(TimeBoundedUntil, PsiAbsorptionFreezesSuccess) {
  // Once Psi is hit the formula stays satisfied even if the original chain
  // would leave Psi again: 0 -> 1 -> 0 cycle, target {1}.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 2.0);
  rates.add(1, 0, 50.0);  // would bounce right back
  const core::Mrm model(core::Ctmc(rates.build(), core::Labeling(2)),
                        std::vector<double>(2, 0.0));
  const auto values = until_probabilities(model, std::vector<bool>(2, true), mask(2, {1}),
                                          logic::up_to(3.0), Interval{});
  EXPECT_NEAR(values[0].probability, 1.0 - std::exp(-2.0 * 3.0), 1e-9);
}

TEST(TimeBoundedUntil, ZeroTimeIsIndicatorOfPsi) {
  const core::Mrm model = models::make_wavelan();
  const auto values = until_probabilities(model, std::vector<bool>(5, true),
                                          model.labels().states_with("busy"),
                                          logic::up_to(0.0), Interval{});
  EXPECT_DOUBLE_EQ(values[models::kWavelanReceive].probability, 1.0);
  EXPECT_DOUBLE_EQ(values[models::kWavelanIdle].probability, 0.0);
}

TEST(TimeBoundedUntil, LongHorizonApproachesUnboundedUntil) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  const auto busy = model.labels().states_with("busy");
  const auto bounded = until_probabilities(model, all, busy, logic::up_to(1000.0), Interval{});
  const auto unbounded = unbounded_until_probabilities(model, all, busy);
  for (std::size_t s = 0; s < 5; ++s) {
    EXPECT_NEAR(bounded[s].probability, unbounded[s], 1e-6) << "state " << s;
  }
}

TEST(TimeBoundedUntil, MonotoneInHorizon) {
  const core::Mrm model = models::make_wavelan();
  const auto idle = model.labels().states_with("idle");
  const auto busy = model.labels().states_with("busy");
  double prev = 0.0;
  for (double t : {0.01, 0.05, 0.1, 0.5, 1.0}) {
    const auto values = until_probabilities(model, idle, busy, logic::up_to(t), Interval{});
    EXPECT_GE(values[models::kWavelanIdle].probability, prev - 1e-12);
    prev = values[models::kWavelanIdle].probability;
  }
}

TEST(TimeBoundedUntil, RejectsUnsupportedTimeShapes) {
  const core::Mrm model = models::make_wavelan();
  const std::vector<bool> all(5, true);
  // [t1, infinity) has no algorithm in the thesis or in [Bai03]'s two-phase
  // form as implemented here; bounded [t1,t2] is covered (see
  // test_until_interval.cpp).
  EXPECT_THROW(until_probabilities(
                   model, all, all,
                   Interval(1.0, std::numeric_limits<double>::infinity()), Interval{}),
               UnsupportedFormulaError);
}

}  // namespace
}  // namespace csrlmrm::checker
