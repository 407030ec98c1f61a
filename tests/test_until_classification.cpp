// The until dispatch has one owner: checker::classify_until decides the class
// of a (time, reward) bound pair, until_probabilities switches on it, and the
// plan compiler and printer report the same value. Over the bound-shape
// matrix, the checker must throw UnsupportedFormulaError exactly for the
// shapes classified kUnsupported and answer every other one.
#include <gtest/gtest.h>

#include <limits>
#include <string>
#include <vector>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"

namespace csrlmrm::checker {
namespace {

using logic::Interval;

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Shape {
  const char* name;
  Interval bound;
};

const std::vector<Shape>& time_shapes() {
  static const std::vector<Shape> shapes = {
      {"[0,~]", Interval{}},         {"[0,4]", Interval(0.0, 4.0)},
      {"[0,0]", Interval(0.0, 0.0)}, {"[1,4]", Interval(1.0, 4.0)},
      {"[3,3]", Interval(3.0, 3.0)}, {"[1,~]", Interval(1.0, kInf)},
  };
  return shapes;
}

const std::vector<Shape>& reward_shapes() {
  static const std::vector<Shape> shapes = {
      {"[0,~]", Interval{}},
      {"[0,30]", Interval(0.0, 30.0)},
      {"[5,30]", Interval(5.0, 30.0)},
      {"[5,~]", Interval(5.0, kInf)},
  };
  return shapes;
}

TEST(UntilClassification, NamesTheThesisClasses) {
  EXPECT_EQ(classify_until(Interval{}, Interval{}), UntilClass::kUnbounded);
  EXPECT_EQ(classify_until(Interval(0.0, 4.0), Interval{}), UntilClass::kTimeBounded);
  EXPECT_EQ(classify_until(Interval(1.0, 4.0), Interval{}), UntilClass::kTwoPhase);
  // The reward-free point interval rides the two-phase reduction.
  EXPECT_EQ(classify_until(Interval(3.0, 3.0), Interval{}), UntilClass::kTwoPhase);
  EXPECT_EQ(classify_until(Interval(0.0, 4.0), Interval(0.0, 30.0)), UntilClass::kTimeReward);
  EXPECT_EQ(classify_until(Interval(0.0, 0.0), Interval(0.0, 30.0)), UntilClass::kTimeReward);
  EXPECT_EQ(classify_until(Interval(3.0, 3.0), Interval(0.0, 30.0)),
            UntilClass::kPointTimeReward);
  EXPECT_EQ(classify_until(Interval(0.0, 4.0), Interval(5.0, 30.0)), UntilClass::kUnsupported);
  EXPECT_EQ(classify_until(Interval(1.0, kInf), Interval{}), UntilClass::kUnsupported);
  EXPECT_EQ(classify_until(Interval{}, Interval(0.0, 30.0)), UntilClass::kUnsupported);

  EXPECT_STREQ(to_string(UntilClass::kUnbounded), "P0:unbounded");
  EXPECT_STREQ(to_string(UntilClass::kTimeBounded), "P1:time-bounded");
  EXPECT_STREQ(to_string(UntilClass::kTwoPhase), "P1':two-phase");
  EXPECT_STREQ(to_string(UntilClass::kTimeReward), "P2:time-reward");
  EXPECT_STREQ(to_string(UntilClass::kPointTimeReward), "P2:point-time-reward");
  EXPECT_STREQ(to_string(UntilClass::kUnsupported), "unsupported");
}

TEST(UntilClassification, CheckerThrowsExactlyForUnsupportedShapes) {
  const core::Mrm model = models::make_tmr();
  // Phi = every state, so Psi => Phi holds and the point-interval class has
  // no mask-dependent reason to refuse.
  const std::vector<bool> phi(model.num_states(), true);
  const std::vector<bool> psi = model.labels().states_with("failed");
  CheckerOptions options;
  options.uniformization.truncation_probability = 1e-6;
  for (const Shape& time : time_shapes()) {
    for (const Shape& reward : reward_shapes()) {
      SCOPED_TRACE(std::string("time=") + time.name + " reward=" + reward.name);
      const UntilClass cls = classify_until(time.bound, reward.bound);
      if (cls == UntilClass::kUnsupported) {
        EXPECT_THROW(until_probabilities(model, phi, psi, time.bound, reward.bound, options),
                     UnsupportedFormulaError);
      } else {
        EXPECT_NO_THROW(until_probabilities(model, phi, psi, time.bound, reward.bound, options));
      }
    }
  }
}

TEST(UntilClassification, PlanOpsCarryTheCheckersClass) {
  const core::Mrm model = models::make_tmr();
  const std::vector<std::string> texts = {
      "P(>0.9)[Sup U failed]", "P(>0.1)[Sup U[0,100] failed]",
      "P(>0.1)[Sup U[10,100] failed]", "P(>0.1)[Sup U[0,100][0,3000] failed]",
      "P(>0.05)[Sup U[100,100][0,3000] failed]", "P(>0.1)[Sup U[0,100][5,3000] failed]"};
  std::vector<logic::FormulaPtr> formulas;
  for (const auto& text : texts) formulas.push_back(logic::parse_formula(text));
  const plan::Plan compiled = plan::compile(model, formulas, CheckerOptions{});
  std::size_t untils = 0;
  for (const plan::PlanOp& op : compiled.ops) {
    if (op.kind != plan::OpKind::kUntilSolve) continue;
    ++untils;
    EXPECT_EQ(op.until_class, classify_until(op.time_bound, op.reward_bound));
  }
  EXPECT_EQ(untils, texts.size());
}

}  // namespace
}  // namespace csrlmrm::checker
