// Property tests driven by randomly generated CSRL formulas: parser/printer
// round trips and checker consistency laws on random models.
#include <gtest/gtest.h>

#include "logic/parser.hpp"
#include "logic/printer.hpp"
#include "models/random_formula.hpp"
#include "models/random_mrm.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"
#include "plan_check.hpp"

namespace csrlmrm {
namespace {

models::RandomMrmConfig calm_model() {
  models::RandomMrmConfig config;
  config.num_states = 5;
  config.max_rate = 0.8;  // keeps Lambda * t small for until formulas
  return config;
}

class RandomFormulaSuite : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(RandomFormulaSuite, PrintedFormulaReparsesToSameSatSet) {
  const auto formula = models::make_random_formula(GetParam());
  const auto reparsed = logic::parse_formula(logic::to_string(formula));

  const core::Mrm model = models::make_random_mrm(GetParam() * 7 + 1, calm_model());
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  EXPECT_EQ(test::check_one(model, formula, options).sat,
            test::check_one(model, reparsed, options).sat)
      << logic::to_string(formula);
}

TEST_P(RandomFormulaSuite, NegationComplementsTheSatSet) {
  const auto formula = models::make_random_formula(GetParam());
  const auto negated = logic::make_not(formula);
  const core::Mrm model = models::make_random_mrm(GetParam() * 13 + 3, calm_model());
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  const plan::PlanResult checked =
      plan::execute(plan::compile(model, {formula, negated}, options), model);
  const auto& sat = checked.formulas[0].sat;
  const auto& sat_negated = checked.formulas[1].sat;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    EXPECT_NE(sat[s], sat_negated[s]) << logic::to_string(formula) << " state " << s;
  }
}

TEST_P(RandomFormulaSuite, DisjunctionIsUnionOfSatSets) {
  const auto lhs = models::make_random_formula(GetParam());
  const auto rhs = models::make_random_formula(GetParam() + 1000);
  const auto disjunction = logic::make_or(lhs, rhs);
  const core::Mrm model = models::make_random_mrm(GetParam() * 31 + 5, calm_model());
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  const plan::PlanResult checked =
      plan::execute(plan::compile(model, {lhs, rhs, disjunction}, options), model);
  const auto& sat_lhs = checked.formulas[0].sat;
  const auto& sat_rhs = checked.formulas[1].sat;
  const auto& sat = checked.formulas[2].sat;
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    EXPECT_EQ(sat[s], sat_lhs[s] || sat_rhs[s]) << "state " << s;
  }
}

TEST_P(RandomFormulaSuite, GenerationIsDeterministic) {
  const auto a = models::make_random_formula(GetParam());
  const auto b = models::make_random_formula(GetParam());
  EXPECT_EQ(logic::to_string(a), logic::to_string(b));
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomFormulaSuite, ::testing::Range(1u, 26u));

TEST(RandomFormulas, ProduceDiverseOperators) {
  // Over a seed range, all operator kinds should appear at the top level of
  // the printed text somewhere.
  bool saw_until = false;
  bool saw_next = false;
  bool saw_steady = false;
  for (std::uint32_t seed = 1; seed <= 200; ++seed) {
    models::RandomFormulaConfig config;
    config.probabilistic_probability = 0.6;
    const auto text = logic::to_string(models::make_random_formula(seed, config));
    saw_until = saw_until || text.find(" U") != std::string::npos;
    saw_next = saw_next || text.find("[X") != std::string::npos;
    saw_steady = saw_steady || text.find("S(") != std::string::npos;
  }
  EXPECT_TRUE(saw_until);
  EXPECT_TRUE(saw_next);
  EXPECT_TRUE(saw_steady);
}

}  // namespace
}  // namespace csrlmrm
