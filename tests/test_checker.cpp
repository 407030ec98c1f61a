// The checker end-to-end: Algorithm 4.1 over parsed CSRL formulas, run
// through the compiled plan.
#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "models/wavelan.hpp"
#include "plan_check.hpp"

namespace csrlmrm::checker {
namespace {

class CheckerOnWavelan : public ::testing::Test {
 protected:
  CheckerOnWavelan() : model_(models::make_wavelan()) {}

  static CheckerOptions options() {
    CheckerOptions o;
    o.uniformization.truncation_probability = 1e-18;
    return o;
  }

  plan::FormulaResult check(const std::string& formula) const {
    return test::check_one(model_, formula, options());
  }

  std::vector<bool> sat(const std::string& formula) const { return check(formula).sat; }

  core::Mrm model_;
};

TEST_F(CheckerOnWavelan, ConstantsAndAtoms) {
  EXPECT_EQ(sat("TT"), std::vector<bool>(5, true));
  EXPECT_EQ(sat("FF"), std::vector<bool>(5, false));
  EXPECT_EQ(sat("busy"), (std::vector<bool>{false, false, false, true, true}));
  EXPECT_EQ(sat("idle"), (std::vector<bool>{false, false, true, false, false}));
  EXPECT_EQ(sat("nonexistent"), std::vector<bool>(5, false));
}

TEST_F(CheckerOnWavelan, BooleanConnectives) {
  EXPECT_EQ(sat("!busy"), (std::vector<bool>{true, true, true, false, false}));
  EXPECT_EQ(sat("busy || idle"), (std::vector<bool>{false, false, true, true, true}));
  EXPECT_EQ(sat("busy && transmit"), (std::vector<bool>{false, false, false, false, true}));
  EXPECT_EQ(sat("!(busy || idle) && !off"), (std::vector<bool>{false, true, false, false, false}));
}

TEST_F(CheckerOnWavelan, SteadyStateOperator) {
  // The WaveLAN chain is irreducible: either every state satisfies an
  // S-formula or none does.
  const auto yes = sat("S(>0.0001) busy");
  const auto no = sat("S(>0.9) busy");
  EXPECT_EQ(yes, std::vector<bool>(5, true));
  EXPECT_EQ(no, std::vector<bool>(5, false));
}

TEST_F(CheckerOnWavelan, NextOperator) {
  // From receive/transmit the only successor is idle.
  const auto s = sat("P(>=1) [X idle]");
  EXPECT_TRUE(s[models::kWavelanReceive]);
  EXPECT_TRUE(s[models::kWavelanTransmit]);
  EXPECT_FALSE(s[models::kWavelanIdle]);
  EXPECT_FALSE(s[models::kWavelanOff]);
}

TEST_F(CheckerOnWavelan, UnboundedUntilOperator) {
  // Irreducible chain: busy is eventually reached from everywhere.
  EXPECT_EQ(sat("P(>0.99)[TT U busy]"), std::vector<bool>(5, true));
  // But not while staying idle from off.
  const auto s = sat("P(>0.01)[idle U busy]");
  EXPECT_FALSE(s[models::kWavelanOff]);
  EXPECT_TRUE(s[models::kWavelanIdle]);
  EXPECT_TRUE(s[models::kWavelanReceive]);  // Psi-state satisfies immediately
}

TEST_F(CheckerOnWavelan, RewardBoundedUntilExample36) {
  // P(3, idle U^[0,2]_[0,2000] busy) = 0.15789: satisfies > 0.1, not > 0.2.
  const auto lo = sat("P(>0.1)[idle U[0,2][0,2000] busy]");
  EXPECT_TRUE(lo[models::kWavelanIdle]);
  const auto hi = sat("P(>0.2)[idle U[0,2][0,2000] busy]");
  EXPECT_FALSE(hi[models::kWavelanIdle]);
}

TEST_F(CheckerOnWavelan, NestedFormulasEvaluate) {
  const auto s = sat("P(>0.5)[X (P(>=1)[X idle])]");
  // From idle, successors receive/transmit both satisfy P(>=1)[X idle]
  // with combined jump probability (1.5+0.75)/14.25 < 0.5 -> idle fails;
  // sleep's successor set {off, idle}: idle does not satisfy the inner
  // formula (jump prob to idle is 12/14.25 < 1)... compute: inner Sat =
  // {receive, transmit}; from idle P = 2.25/14.25 ~ 0.158 < 0.5.
  EXPECT_FALSE(s[models::kWavelanIdle]);
  EXPECT_FALSE(s[models::kWavelanOff]);
}

// A formula node is evaluated once per plan: the same node twice in a batch
// lowers to one root op and yields the same satisfaction set.
TEST_F(CheckerOnWavelan, SatisfactionIsMemoizedPerNode) {
  const auto formula = logic::parse_formula("S(>0.0001) busy");
  const plan::Plan compiled = plan::compile(model_, {formula, formula}, options());
  ASSERT_EQ(compiled.roots.size(), 2u);
  EXPECT_EQ(compiled.roots[0], compiled.roots[1]);
  const plan::PlanResult result = plan::execute(compiled, model_);
  EXPECT_EQ(result.formulas[0].sat, result.formulas[1].sat);
}

TEST_F(CheckerOnWavelan, SatisfiesChecksSingleState) {
  const auto result = check("busy");
  ASSERT_EQ(result.sat.size(), model_.num_states());
  EXPECT_TRUE(result.sat[models::kWavelanReceive]);
  EXPECT_FALSE(result.sat[models::kWavelanIdle]);
  EXPECT_EQ(result.verdicts[models::kWavelanReceive], Verdict::kSat);
  EXPECT_EQ(result.verdicts[models::kWavelanIdle], Verdict::kUnsat);
}

// Raw numbers belong to operator roots only: none for a label, steady-state
// values (not path probabilities) for an S node.
TEST_F(CheckerOnWavelan, PathProbabilitiesRejectsNonPathNode) {
  const auto label = check("busy");
  EXPECT_FALSE(label.has_probabilities);
  EXPECT_FALSE(label.has_values);
  EXPECT_FALSE(label.has_bounds);
  const auto steady = check("S(>0.0001) busy");
  EXPECT_FALSE(steady.has_probabilities);
  EXPECT_TRUE(steady.has_values);
  EXPECT_EQ(steady.values.size(), model_.num_states());
}

TEST_F(CheckerOnWavelan, DiscretizationMethodIsSelectable) {
  CheckerOptions o;
  o.until_method = UntilMethod::kDiscretization;
  o.discretization.step = 0.015625;  // 1/64 > 1/14.25? no: 0.0156*14.25 = 0.22 < 1 ok
  // Use a reward bound that is a multiple of the impulse grid: impulses are
  // multiples of 5e-5, not of d -> the engine must refuse.
  EXPECT_THROW(test::check_one(model_, "P(>0.1)[idle U[0,2][0,2000] busy]", o),
               std::invalid_argument);
}

TEST(Checker, HandlesModelWithTrapStates) {
  // Two-state model where the b-state is an absorbing trap.
  core::RateMatrixBuilder rates(2);
  rates.add(0, 1, 1.0);
  core::Labeling labels(2);
  labels.add(1, "b");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)), {1.0, 0.0});
  // P(0, TT U^[0,1]_[0,10] b) = 1 - e^{-1} ~ 0.632 (reward bound not binding).
  const auto yes = test::check_one(model, "P(>=0.5)[TT U[0,1][0,10] b]").sat;
  EXPECT_TRUE(yes[0]);
  EXPECT_TRUE(yes[1]);
  const auto no = test::check_one(model, "P(>=0.7)[TT U[0,1][0,10] b]").sat;
  EXPECT_FALSE(no[0]);
  EXPECT_TRUE(no[1]);
}

}  // namespace
}  // namespace csrlmrm::checker
