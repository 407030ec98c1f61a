// Graceful degradation of the P2 uniformization engine and engine-agnostic
// three-valued verdicts: exhausting the class-DP node budget must not abort
// the whole check when a fallback policy is configured, the returned interval
// must still contain the truth, and a threshold inside the error band must
// yield UNKNOWN (not an engine-dependent SAT/UNSAT flip).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>

#include "checker/until.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"
#include "numeric/class_explorer.hpp"
#include "obs/stats.hpp"
#include "plan_check.hpp"

namespace csrlmrm::checker {
namespace {

/// A three-state cycle with integer state rewards (so the discretization
/// fallback is always feasible) and no impulse rewards. a-states 0 and 1,
/// b-state 2.
core::Mrm make_cycle() {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  rates.add(2, 0, 1.0);
  core::Labeling labels(3);
  labels.add(0, "a");
  labels.add(1, "a");
  labels.add(2, "b");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), {1.0, 2.0, 1.0});
}

/// The same cycle with an integral impulse reward on 0 -> 1. Being
/// integral, the impulse stays on every adapted step's level grid, so the
/// discretization fallback remains feasible.
core::Mrm make_impulse_cycle() {
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  rates.add(2, 0, 1.0);
  core::ImpulseRewardsBuilder impulses(3);
  impulses.add(0, 1, 1.0);
  core::Labeling labels(3);
  labels.add(0, "a");
  labels.add(1, "a");
  labels.add(2, "b");
  return core::Mrm(core::Ctmc(rates.build(), std::move(labels)), {1.0, 2.0, 1.0},
                   impulses.build());
}

const std::vector<bool> kPhi{true, true, false};
const std::vector<bool> kPsi{false, false, true};

CheckerOptions starved(BudgetPolicy policy) {
  CheckerOptions options;
  options.uniformization.truncation_probability = 1e-12;
  options.uniformization.max_nodes = 5;  // guaranteed exhaustion
  options.on_budget_exhausted = policy;
  return options;
}

class EngineFallback : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }
};

TEST_F(EngineFallback, ThrowPolicyRaisesTypedBudgetError) {
  const core::Mrm model = make_cycle();
  EXPECT_THROW(until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                                   starved(BudgetPolicy::kThrow)),
               numeric::NodeBudgetError);
}

TEST_F(EngineFallback, FallbackPolicyDegradesToDiscretizationWithoutThrowing) {
  const core::Mrm model = make_impulse_cycle();

  // Reference 1: the accurate uniformization value (ample budget).
  CheckerOptions accurate;
  accurate.uniformization.truncation_probability = 1e-12;
  const auto exact =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), accurate);

  // Reference 2: the pure discretization engine.
  CheckerOptions disc;
  disc.until_method = UntilMethod::kDiscretization;
  const auto by_disc =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), disc);

  // Degraded run: budget forces the fallback; must not throw.
  const auto degraded =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                          starved(BudgetPolicy::kFallbackToDiscretization));

  EXPECT_GE(obs::StatsRegistry::global().counter("uniformization.fallbacks"), 1u);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    // The degraded interval still encloses both references' truths.
    EXPECT_TRUE(degraded[s].bound.contains(by_disc[s].probability))
        << "state " << s << ": " << degraded[s].bound.to_string() << " vs discretization "
        << by_disc[s].probability;
    EXPECT_TRUE(degraded[s].bound.overlaps(exact[s].bound))
        << "state " << s << ": " << degraded[s].bound.to_string() << " vs "
        << exact[s].bound.to_string();
    EXPECT_GE(degraded[s].bound.lower, 0.0);
    EXPECT_LE(degraded[s].bound.upper, 1.0);
  }
}

TEST_F(EngineFallback, EveryDegradedStartSharesOneDiscretizationSweep) {
  // Both a-states exhaust the budget; one adapted-step sweep answers them
  // together, while the fallback counter still counts each degraded start.
  const core::Mrm model = make_impulse_cycle();
  const auto degraded =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                          starved(BudgetPolicy::kFallbackToDiscretization));
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("discretization.calls"), 1u);
  EXPECT_EQ(registry.counter("uniformization.fallbacks"), 2u);
  EXPECT_EQ(degraded[2].probability, 1.0);  // absorbed Psi start, never degraded
  for (core::StateIndex s = 0; s < 2; ++s) {
    EXPECT_GT(degraded[s].bound.width(), 0.0) << "state " << s;
  }
}

TEST_F(EngineFallback, ExhaustedBatchDegradesInOneSweep) {
  // The budget chain is batch-level: one class-DP run over every
  // non-trivial start, and when it exhausts the budget, one discretization
  // sweep answering all of them — no per-start retries.
  const core::Mrm model = make_impulse_cycle();
  until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                      starved(BudgetPolicy::kFallbackToDiscretization));
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("classdp.calls"), 1u);
  EXPECT_EQ(registry.counter("discretization.calls"), 1u);
  EXPECT_EQ(registry.counter("uniformization.widenings"), 0u);
  // States 0 and 1 are non-trivial; state 2 is the absorbed Psi start.
  EXPECT_EQ(registry.counter("uniformization.fallbacks"), 2u);
}

TEST_F(EngineFallback, ExhaustedBatchWidensWBeforeDegrading) {
  // The widen-w twin: with a budget that fits the widest w (1e-2) but not
  // the configured one, the same batch re-runs at a coarser w and never
  // reaches the discretization stage.
  const core::Mrm model = make_impulse_cycle();
  const std::vector<bool> absorb{false, false, true};  // !Phi v Psi
  const std::vector<bool> dead(3, false);
  const numeric::SignatureClassUntilEngine engine(core::make_absorbing(model, absorb), kPsi,
                                                  dead);
  numeric::PathExplorerOptions probe;
  probe.truncation_probability = 1e-2;
  const std::size_t widest = engine.compute_batch({0, 1}, 1.0, 10.0, probe)[0].nodes_expanded;
  probe.truncation_probability = 1e-12;
  const std::size_t configured =
      engine.compute_batch({0, 1}, 1.0, 10.0, probe)[0].nodes_expanded;
  ASSERT_LT(widest, configured);
  obs::StatsRegistry::global().reset();

  CheckerOptions options = starved(BudgetPolicy::kWidenW);
  options.uniformization.max_nodes = widest;
  const auto widened =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), options);
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_GT(registry.counter("classdp.calls"), 1u);
  EXPECT_GE(registry.counter("uniformization.widenings"), 1u);
  EXPECT_EQ(registry.counter("uniformization.fallbacks"), 0u);
  EXPECT_EQ(registry.counter("discretization.calls"), 0u);
  for (core::StateIndex s = 0; s < 2; ++s) {
    EXPECT_GT(widened[s].bound.width(), 0.0) << "state " << s;  // the coarser w shows
  }
}

TEST_F(EngineFallback, InfeasibleFallbackReRaisesTheBudgetErrorWithBothDiagnoses) {
  // An impulse of 0.1 is on no level grid the adapted step (1/64 over t = 1)
  // can offer, so the degradation itself fails: the typed budget error comes
  // back carrying the discretization diagnosis too.
  core::RateMatrixBuilder rates(3);
  rates.add(0, 1, 1.0);
  rates.add(1, 2, 1.0);
  rates.add(2, 0, 1.0);
  core::ImpulseRewardsBuilder impulses(3);
  impulses.add(0, 1, 0.1);
  core::Labeling labels(3);
  labels.add(0, "a");
  labels.add(1, "a");
  labels.add(2, "b");
  const core::Mrm model(core::Ctmc(rates.build(), std::move(labels)), {1.0, 2.0, 1.0},
                        impulses.build());
  try {
    until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0),
                        starved(BudgetPolicy::kFallbackToDiscretization));
    FAIL() << "expected NodeBudgetError";
  } catch (const numeric::NodeBudgetError& error) {
    const std::string message = error.what();
    EXPECT_NE(message.find("fallback to discretization also failed"), std::string::npos)
        << message;
    EXPECT_NE(message.find("impulse reward"), std::string::npos) << message;
  }
}

TEST_F(EngineFallback, WidenWPolicyDoesNotThrowAndKeepsTheTruthEnclosed) {
  const core::Mrm model = make_impulse_cycle();
  CheckerOptions accurate;
  accurate.uniformization.truncation_probability = 1e-12;
  const auto exact =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), accurate);

  const auto widened = until_probabilities(model, kPhi, kPsi, logic::up_to(1.0),
                                           logic::up_to(10.0), starved(BudgetPolicy::kWidenW));
  // Either a coarser w fit the budget or the engine fell through to
  // discretization; both are recorded and both keep a rigorous interval.
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_GE(registry.counter("uniformization.widenings") +
                registry.counter("uniformization.fallbacks"),
            1u);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_TRUE(widened[s].bound.overlaps(exact[s].bound)) << "state " << s;
  }
}

TEST_F(EngineFallback, AutoStarvedRunDiscretizesUpFrontWithoutThrowing) {
  // An impulse-free model takes the same budget chain as any other: the
  // class DP exhausts the starved budget, and one adapted-step
  // discretization sweep answers both live starts without a
  // NodeBudgetError reaching the caller.
  const core::Mrm model = make_cycle();
  const CheckerOptions options = starved(BudgetPolicy::kFallbackToDiscretization);
  const auto values =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), options);
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("classdp.calls"), 1u);
  EXPECT_EQ(registry.counter("uniformization.fallbacks"), 2u);

  CheckerOptions disc;
  disc.until_method = UntilMethod::kDiscretization;
  const auto by_disc =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), disc);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_TRUE(values[s].bound.contains(by_disc[s].probability))
        << "state " << s << ": " << values[s].bound.to_string();
  }
}

TEST_F(EngineFallback, AutoUnderThrowPolicyFailsLoudlyInsteadOfDegrading) {
  // kThrow disables every degradation: the starved run must raise the
  // typed budget error.
  const core::Mrm model = make_cycle();
  const CheckerOptions options = starved(BudgetPolicy::kThrow);
  EXPECT_THROW(
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(10.0), options),
      numeric::NodeBudgetError);
}

TEST(EngineBoundaries, ZeroTimeHorizonIsTheIndicatorOfPsiOnBothEngines) {
  const core::Mrm model = make_cycle();
  for (const auto method : {UntilMethod::kUniformization, UntilMethod::kDiscretization}) {
    CheckerOptions options;
    options.until_method = method;
    const auto values =
        until_probabilities(model, kPhi, kPsi, logic::up_to(0.0), logic::up_to(1.0), options);
    EXPECT_DOUBLE_EQ(values[2].probability, 1.0);
    EXPECT_DOUBLE_EQ(values[0].probability, 0.0);
    EXPECT_DOUBLE_EQ(values[1].probability, 0.0);
    EXPECT_TRUE(values[2].bound.contains(1.0));
    EXPECT_LE(values[0].bound.width(), 1e-12);
  }
}

TEST(EngineBoundaries, ZeroRewardBoundScoresPsiStartsOnlyOnBothEngines) {
  // With strictly positive gain rates, Y grows immediately: only a start
  // already in Psi (satisfied at x = 0 with Y(0) = 0) can win.
  const core::Mrm model = make_cycle();
  for (const auto method : {UntilMethod::kUniformization, UntilMethod::kDiscretization}) {
    CheckerOptions options;
    options.until_method = method;
    const auto values =
        until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(0.0), options);
    EXPECT_DOUBLE_EQ(values[2].probability, 1.0);
    EXPECT_NEAR(values[0].probability, 0.0, values[0].error_bound + 1e-12);
    EXPECT_NEAR(values[1].probability, 0.0, values[1].error_bound + 1e-12);
  }
}

TEST(EngineBoundaries, PointTimeIntervalIsBoundedByTheFullWindow) {
  // [t,t] demands Psi exactly at time t; [0,t] accepts any earlier witness,
  // so its probability dominates (up to the engines' error bands).
  const core::Mrm model = make_cycle();
  const std::vector<bool> everywhere(3, true);
  CheckerOptions options;
  const auto at_t = until_probabilities(model, everywhere, kPsi, logic::Interval{1.0, 1.0},
                                        logic::Interval{}, options);
  const auto up_to_t = until_probabilities(model, everywhere, kPsi, logic::up_to(1.0),
                                           logic::Interval{}, options);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    EXPECT_GE(at_t[s].probability, 0.0);
    EXPECT_LE(at_t[s].probability, 1.0);
    EXPECT_TRUE(at_t[s].bound.contains(at_t[s].probability));
    EXPECT_LE(at_t[s].bound.lower, up_to_t[s].bound.upper + 1e-12) << "state " << s;
  }
}

TEST(VerdictStability, ThresholdInsideTheErrorBandIsUnknownOnBothEngines) {
  // The regression this layer exists for: with the threshold inside both
  // engines' error bands the answer must be UNKNOWN twice — never SAT from
  // one engine and UNSAT from the other.
  const core::Mrm model = make_cycle();

  CheckerOptions coarse_uni;
  coarse_uni.uniformization.truncation_probability = 0.1;
  CheckerOptions coarse_disc;
  coarse_disc.until_method = UntilMethod::kDiscretization;
  coarse_disc.discretization.step = 0.25;

  const auto uni = until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0),
                                       coarse_uni);
  const auto disc = until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0),
                                        coarse_disc);
  const core::StateIndex s = 0;
  ASSERT_GT(uni[s].bound.width(), 0.0);
  ASSERT_GT(disc[s].bound.width(), 0.0);
  const double lo = std::max(uni[s].bound.lower, disc[s].bound.lower);
  const double hi = std::min(uni[s].bound.upper, disc[s].bound.upper);
  ASSERT_LT(lo, hi) << "intervals must overlap: " << uni[s].bound.to_string() << " "
                    << disc[s].bound.to_string();
  const double threshold = 0.5 * (lo + hi);

  const auto straddling = logic::make_prob_until(logic::Comparison::kGreaterEqual, threshold,
                                                 logic::up_to(1.0), logic::up_to(2.0),
                                                 logic::make_atomic("a"),
                                                 logic::make_atomic("b"));

  const plan::FormulaResult by_uni = test::check_one(model, straddling, coarse_uni);
  const plan::FormulaResult by_disc = test::check_one(model, straddling, coarse_disc);
  EXPECT_EQ(by_uni.verdicts[s], Verdict::kUnknown);
  EXPECT_EQ(by_disc.verdicts[s], Verdict::kUnknown);
  // And UNKNOWN states are never reported as satisfying.
  EXPECT_FALSE(by_uni.sat[s]);
  EXPECT_FALSE(by_disc.sat[s]);
  EXPECT_TRUE(by_uni.unknown[s]);
}

TEST(VerdictStability, KleenePropagationThroughConnectives) {
  const core::Mrm model = make_cycle();
  CheckerOptions coarse;
  coarse.uniformization.truncation_probability = 0.1;
  const auto values =
      until_probabilities(model, kPhi, kPsi, logic::up_to(1.0), logic::up_to(2.0), coarse);
  const core::StateIndex s = 0;
  ASSERT_GT(values[s].bound.width(), 0.0);
  const double threshold = 0.5 * (values[s].bound.lower + values[s].bound.upper);

  const auto unknown_node =
      logic::make_prob_until(logic::Comparison::kGreaterEqual, threshold, logic::up_to(1.0),
                             logic::up_to(2.0), logic::make_atomic("a"),
                             logic::make_atomic("b"));
  // One plan: the connectives share the UNKNOWN node's single solve.
  const plan::PlanResult checked = plan::execute(
      plan::compile(model,
                    {unknown_node, logic::make_or(logic::make_true(), unknown_node),
                     logic::make_and(logic::make_false(), unknown_node),
                     logic::make_not(unknown_node),
                     logic::make_or(unknown_node, logic::make_false()),
                     logic::make_and(unknown_node, logic::make_true())},
                    coarse),
      model);
  ASSERT_EQ(checked.formulas[0].verdicts[s], Verdict::kUnknown);

  // T || U = T; F && U = F; !U = U; U || F = U; U && T = U.
  EXPECT_EQ(checked.formulas[1].verdicts[s], Verdict::kSat);
  EXPECT_EQ(checked.formulas[2].verdicts[s], Verdict::kUnsat);
  EXPECT_EQ(checked.formulas[3].verdicts[s], Verdict::kUnknown);
  EXPECT_EQ(checked.formulas[4].verdicts[s], Verdict::kUnknown);
  EXPECT_EQ(checked.formulas[5].verdicts[s], Verdict::kUnknown);
}

}  // namespace
}  // namespace csrlmrm::checker
