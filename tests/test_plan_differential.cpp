// Differential test of the plan pipeline against the reference checker: for
// random MRMs and random formula batches, compile+execute must reproduce the
// AST-walking oracle::ReferenceChecker's verdicts, value enclosures, and
// path probabilities BITWISE — both call the same checker/operator_eval.hpp
// functions, and this suite is the proof that the plan passes (CSE, transform
// hoisting, method annotation) never change a single bit of output.
// Exercised at 1/2/8 worker threads: the plan is compiled at each count and
// compared against the reference at the SAME count.
#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "logic/printer.hpp"
#include "models/random_formula.hpp"
#include "models/random_mrm.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"
#include "reference_checker.hpp"

namespace csrlmrm {
namespace {

models::RandomMrmConfig calm_model() {
  models::RandomMrmConfig config;
  config.num_states = 5;
  config.max_rate = 0.8;  // keeps Lambda * t small for until formulas
  return config;
}

/// A batch of three structurally diverse formulas for one seed. Offsets are
/// co-prime-ish so batches mix operator kinds; reusing seed-derived offsets
/// keeps everything reproducible.
std::vector<logic::FormulaPtr> make_batch(std::uint32_t seed) {
  return {models::make_random_formula(seed),
          models::make_random_formula(seed * 3 + 500),
          models::make_random_formula(seed * 7 + 900)};
}

void expect_bitwise_equal(const checker::ProbabilityBound& direct,
                          const checker::ProbabilityBound& planned, std::size_t state) {
  EXPECT_EQ(direct.lower, planned.lower) << "state " << state;
  EXPECT_EQ(direct.upper, planned.upper) << "state " << state;
}

class PlanDifferentialSuite : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(PlanDifferentialSuite, BatchMatchesDirectCheckerBitwiseAtEveryThreadCount) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = models::make_random_mrm(seed * 11 + 2, calm_model());
  const std::vector<logic::FormulaPtr> batch = make_batch(seed);

  for (const unsigned threads : {1u, 2u, 8u}) {
    checker::CheckerOptions options;
    options.uniformization.truncation_probability = 1e-9;
    options.threads = threads;
    const plan::PlanResult planned = plan::execute(plan::compile(model, batch, options), model);

    for (std::size_t i = 0; i < batch.size(); ++i) {
      SCOPED_TRACE("threads=" + std::to_string(threads) + " formula[" + std::to_string(i) +
                   "]=" + logic::to_string(batch[i]));
      // A fresh reference per formula: nothing shared across the batch.
      oracle::ReferenceChecker direct(model, options);
      const auto verdicts = direct.verdicts(batch[i]);
      ASSERT_EQ(verdicts.size(), planned.formulas[i].verdicts.size());
      for (std::size_t s = 0; s < verdicts.size(); ++s) {
        EXPECT_EQ(verdicts[s], planned.formulas[i].verdicts[s]) << "state " << s;
      }

      const logic::FormulaKind kind = batch[i]->kind;
      const bool is_operator = kind == logic::FormulaKind::kSteady ||
                               kind == logic::FormulaKind::kProbNext ||
                               kind == logic::FormulaKind::kProbUntil ||
                               kind == logic::FormulaKind::kExpectedReward;
      if (is_operator) {
        ASSERT_TRUE(planned.formulas[i].has_bounds);
        const auto bounds = direct.value_bounds(batch[i]);
        ASSERT_EQ(bounds.size(), planned.formulas[i].bounds.size());
        for (std::size_t s = 0; s < bounds.size(); ++s) {
          expect_bitwise_equal(bounds[s], planned.formulas[i].bounds[s], s);
        }
      }
      if (kind == logic::FormulaKind::kProbUntil || kind == logic::FormulaKind::kProbNext) {
        ASSERT_TRUE(planned.formulas[i].has_probabilities);
        const auto values = direct.path_probabilities(batch[i]);
        ASSERT_EQ(values.size(), planned.formulas[i].probabilities.size());
        for (std::size_t s = 0; s < values.size(); ++s) {
          const auto& planned_value = planned.formulas[i].probabilities[s];
          EXPECT_EQ(values[s].probability, planned_value.probability) << "state " << s;
          EXPECT_EQ(values[s].error_bound, planned_value.error_bound) << "state " << s;
          expect_bitwise_equal(values[s].bound, planned_value.bound, s);
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, PlanDifferentialSuite, ::testing::Range(1u, 101u));

}  // namespace
}  // namespace csrlmrm
