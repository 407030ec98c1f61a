// The R-operator extension (expected-reward bounds in the logic):
// parsing, printing, and checking against the underlying measures.
#include <gtest/gtest.h>

#include <cmath>

#include "checker/absorption.hpp"
#include "checker/performability.hpp"
#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "models/mm1k.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"
#include "plan_check.hpp"

namespace csrlmrm {
namespace {

using logic::FormulaKind;
using logic::RewardQuery;

TEST(RewardOperator, ParsesCumulativeQuery) {
  const auto f = logic::parse_formula("R(<= 25)[C[0,10]]");
  ASSERT_EQ(f->kind, FormulaKind::kExpectedReward);
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kCumulative);
  EXPECT_DOUBLE_EQ(node.bound, 25.0);
  EXPECT_DOUBLE_EQ(node.time_horizon, 10.0);
}

TEST(RewardOperator, ParsesReachabilityQuery) {
  const auto f = logic::parse_formula("R(<100)[F failed]");
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kReachability);
  EXPECT_EQ(node.operand->kind, FormulaKind::kAtomic);
}

TEST(RewardOperator, ParsesLongRunQuery) {
  const auto f = logic::parse_formula("R(>=3.2)[S]");
  const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*f);
  EXPECT_EQ(node.query, RewardQuery::kLongRun);
  EXPECT_DOUBLE_EQ(node.bound, 3.2);
}

TEST(RewardOperator, ThresholdMayExceedOne) {
  // Unlike P/S operators, reward thresholds are unbounded.
  EXPECT_NO_THROW(logic::parse_formula("R(<1000)[S]"));
  EXPECT_THROW(logic::parse_formula("P(<1000)[a U b]"), logic::ParseError);
}

TEST(RewardOperator, RejectsMalformedQueries) {
  EXPECT_THROW(logic::parse_formula("R(<5)[C]"), logic::ParseError);       // missing horizon
  EXPECT_THROW(logic::parse_formula("R(<5)[C[1,2]]"), logic::ParseError);  // not [0,t]
  EXPECT_THROW(logic::parse_formula("R(<5)[G a]"), logic::ParseError);     // unknown query
  EXPECT_THROW(logic::parse_formula("R(<5) a"), logic::ParseError);        // missing [...]
}

TEST(RewardOperator, PrintsAndReparses) {
  for (const char* text :
       {"R(<= 25) [C[0,10]]", "R(< 100) [F failed]", "R(>= 3.2) [S]",
        "R(> 0.5) [F (a || b)]"}) {
    const auto f = logic::parse_formula(text);
    EXPECT_EQ(logic::to_string(f), text);
  }
}

TEST(RewardOperator, RIsStillAnOrdinaryAtomElsewhere) {
  const auto f = logic::parse_formula("R || busy");
  ASSERT_EQ(f->kind, FormulaKind::kOr);
}

TEST(RewardOperator, CumulativeCheckMatchesMeasure) {
  const core::Mrm model = models::make_mm1k({4, 0.7, 1.0, 1.0, 5.0, 2.0});
  const double expected = checker::expected_accumulated_reward(model, 0, 5.0);
  const auto low = test::check_one(model, "R(<=" + std::to_string(expected + 0.01) + ")[C[0,5]]");
  const auto high =
      test::check_one(model, "R(<=" + std::to_string(expected - 0.01) + ")[C[0,5]]");
  EXPECT_TRUE(low.sat[0]);
  EXPECT_FALSE(high.sat[0]);
  ASSERT_TRUE(low.has_values);
  EXPECT_NEAR(low.values[0], expected, 1e-12);
}

TEST(RewardOperator, ReachabilityCheckHandlesInfinity) {
  // From a state that may escape the target, the expected reward is
  // +infinity and no finite upper bound is satisfied, while ">=" bounds are.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(0, 2, 1.0);
  core::Labeling labels(3);
  labels.add(1, "goal");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)),
                        std::vector<double>(3, 1.0));
  EXPECT_FALSE(test::check_one(model, "R(<1000000)[F goal]").sat[0]);
  EXPECT_TRUE(test::check_one(model, "R(>1000000)[F goal]").sat[0]);
  EXPECT_TRUE(test::check_one(model, "R(<=0)[F goal]").sat[1]);
}

TEST(RewardOperator, LongRunCheckOnTmr) {
  // The TMR's long-run rate sits just above rho(allUp) = 8 (mostly all-up,
  // occasionally degraded, tiny repair-impulse flux).
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  EXPECT_TRUE(test::check_one(model, "R(>8)[S]").sat[0]);
  EXPECT_TRUE(test::check_one(model, "R(<8.2)[S]").sat[0]);
}

TEST(RewardOperator, CumulativeBoundHoldsTheValueAtALongHorizon) {
  // TMR R[C[0,1e5]] (Lambda t = 5050) against a 50-digit matrix exponential
  // of the generator augmented by the gain rates. The series lands ~6e-8
  // above the value, outside a one-sided [v, v + eps t max gain] band, so
  // the bound must carry the series' rounding on both sides.
  const core::Mrm model = models::make_tmr(models::TmrConfig{});
  const auto result = test::check_one(model, "R(<1e300)[C[0,100000]]");
  ASSERT_TRUE(result.has_bounds);
  const double truth[] = {803087.0394155564267886668, 803129.7751002393259099259};
  for (core::StateIndex s = 0; s < 2; ++s) {
    EXPECT_TRUE(result.bounds[s].contains(truth[s])) << result.bounds[s].to_string();
    EXPECT_LT(result.bounds[s].width(), 1e-4) << result.bounds[s].to_string();
  }
}

TEST(RewardOperator, NestsInsideBooleanFormulas) {
  const core::Mrm model = models::make_wavelan();
  // Long-run power above 100 mW and eventually-busy almost surely.
  const auto f = test::check_one(model, "R(>100)[S] && P(>=0.99)[TT U busy]");
  EXPECT_TRUE(f.sat[models::kWavelanIdle]);
}

TEST(RewardOperator, ExpectedRewardsRejectsWrongNode) {
  const core::Mrm model = models::make_wavelan();
  // Expected-reward values belong to R roots only: none for a label, path
  // probabilities (not reward values) for a P root.
  EXPECT_FALSE(test::check_one(model, "busy").has_values);
  EXPECT_FALSE(test::check_one(model, "P(>=0.99)[TT U busy]").has_values);
  const auto reward = test::check_one(model, "R(>100)[S]");
  EXPECT_TRUE(reward.has_values);
  EXPECT_EQ(reward.values.size(), model.num_states());
}

}  // namespace
}  // namespace csrlmrm
