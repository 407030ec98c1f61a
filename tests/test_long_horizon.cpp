// Long horizons must cost O(1), not O(Lambda*t): a P2 query whose horizon
// puts e^{-Lambda t} below w is answered by the class DP's exact level-0 cut,
// a P1 or R[C] series that would run more than 2^26 terms fails before
// building anything, and a P1 series with steady-state detection folds
// early from a table of O(sqrt(Lambda t)) entries. Each case runs the
// library's one check path
// (plan::compile + plan::execute) and must finish within a second; the
// `long_horizon_guard` ctest reruns this suite under a TIMEOUT, so a
// Lambda*t-linear regression fails CI instead of hanging it.
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <string>
#include <vector>

#include "io/model_files.hpp"
#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm {
namespace {

double seconds_since(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
}

plan::PlanResult check(const core::Mrm& model, const std::string& text,
                       const checker::CheckerOptions& options = {}) {  // default: w = 1e-8
  const plan::Plan compiled = plan::compile(model, {logic::parse_formula(text)}, options);
  return plan::execute(compiled, model);
}

TEST(LongHorizon, TmrTimeRewardAnswersAtOnce) {
  const core::Mrm model = models::make_tmr();
  for (const char* t : {"1e9", "1e12"}) {
    const auto start = std::chrono::steady_clock::now();
    const plan::PlanResult result =
        check(model, std::string("P(>0.1)[Sup U[0,") + t + "][0,3000] failed]");
    EXPECT_LT(seconds_since(start), 1.0) << "t=" << t;
    const plan::FormulaResult& formula = result.formulas.at(0);
    ASSERT_TRUE(formula.has_bounds);
    // States 1 and 2 are cut whole at level 0: p = 0 with error 1.
    for (core::StateIndex s = 0; s < 2; ++s) {
      EXPECT_EQ(formula.bounds[s].lower, 0.0) << "t=" << t << " state " << s;
      EXPECT_EQ(formula.bounds[s].upper, 1.0) << "t=" << t << " state " << s;
      EXPECT_EQ(formula.verdicts[s], checker::Verdict::kUnknown);
    }
  }
}

TEST(LongHorizon, CellphoneTimeRewardAnswersAtOnce) {
  const std::string base = std::string(CSRLMRM_EXAMPLE_MODELS_DIR) + "/cellphone";
  const core::Mrm model =
      io::load_mrm(base + ".tra", base + ".lab", base + ".rewr", base + ".rewi");
  const auto start = std::chrono::steady_clock::now();
  const plan::PlanResult result =
      check(model, "P(>0.5)[(Call_Idle || Doze) U[0,6e8][0,1000] Call_Initiated]");
  EXPECT_LT(seconds_since(start), 1.0);
  const plan::FormulaResult& formula = result.formulas.at(0);
  ASSERT_TRUE(formula.has_bounds);
  for (core::StateIndex s = 0; s < 3; ++s) {
    EXPECT_EQ(formula.bounds[s].lower, 0.0) << "state " << s;
    EXPECT_EQ(formula.bounds[s].upper, 1.0) << "state " << s;
  }
}

TEST(LongHorizon, PoissonSeriesPastItsLengthLimitFailsAtOnce) {
  // Lambda*t ~ 5e10: the P1 and R[C] series would run 5e10 products; they
  // refuse before building the Poisson table, naming Lambda*t.
  const core::Mrm model = models::make_tmr();
  for (const char* text : {"P(>0.1)[Sup U[0,1e12] failed]", "R(<1e300)[C[0,1e12]]"}) {
    const auto start = std::chrono::steady_clock::now();
    try {
      check(model, text);
      ADD_FAILURE() << "expected std::invalid_argument for " << text;
    } catch (const std::invalid_argument& error) {
      EXPECT_NE(std::string(error.what()).find("Lambda*t"), std::string::npos) << error.what();
    }
    EXPECT_LT(seconds_since(start), 1.0) << text;
  }
}

TEST(LongHorizon, SteadyDetectionAnswersPastTheSeriesLengthLimit) {
  // Lambda*t ~ 5e8: TMR reaches its absorbing states after a few thousand
  // products, so the detected fold closes the series long before the edge,
  // from a table of ~1.8e6 entries.
  const core::Mrm model = models::make_tmr();
  checker::CheckerOptions options;
  options.transient.detect_steady_state = true;
  const auto start = std::chrono::steady_clock::now();
  const plan::PlanResult result = check(model, "P(>0.1)[Sup U[0,1e10] failed]", options);
  EXPECT_LT(seconds_since(start), 1.0);
  const plan::FormulaResult& formula = result.formulas.at(0);
  ASSERT_TRUE(formula.has_bounds);
  for (core::StateIndex s = 0; s < 2; ++s) {
    EXPECT_TRUE(formula.bounds[s].contains(1.0)) << formula.bounds[s].to_string();
    EXPECT_EQ(formula.verdicts[s], checker::Verdict::kSat);
  }
}

}  // namespace
}  // namespace csrlmrm
