// Pass-level unit tests of the plan compiler: each pass's effect is pinned
// through the Plan's deterministic summary fields, the `plan.*` stats
// counters, and — for transform hoisting — the `omega.shared_cache_*`
// counters of the uniformization layer the shared transformed models feed.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "numeric/conditional.hpp"
#include "obs/stats.hpp"
#include "plan/batch.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm {
namespace {

std::vector<logic::FormulaPtr> parse_batch(const std::vector<std::string>& texts) {
  std::vector<logic::FormulaPtr> batch;
  for (const auto& text : texts) batch.push_back(logic::parse_formula(text));
  return batch;
}

/// Counter-reading tests need the stats layer armed (the default test
/// process keeps it off); every test leaves the registry clean.
class PlanPasses : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
    numeric::SharedOmegaCache::global().clear();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }
};

// ---------------------------------------------------------------------------
// CSE pass
// ---------------------------------------------------------------------------

// The Table 5.4-style batch: two thresholds over one time-reward until plus
// the time-only variant. CSE must intern the two label sets once, share the
// entire time-reward solve between the thresholds, and keep exactly one
// transform op for both untils (same M[!Phi v Psi] mask).
TEST_F(PlanPasses, CseDedupCountsPinnedOnTmrBatch) {
  const core::Mrm model = models::make_tmr();
  const auto batch = parse_batch({"P(>0.1)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.5)[Sup U[0,100][0,3000] failed]",
                                  "P(>0.1)[Sup U[0,100] failed]"});
  checker::CheckerOptions options;
  const plan::Plan compiled = plan::compile(model, batch, options);

  // Ops: Sup, failed, transform, until[0,100][0,3000], cmp>0.1, cmp>0.5,
  // until[0,100], cmp>0.1 — eight, not the 15 a per-formula lowering builds.
  EXPECT_EQ(compiled.ops.size(), 8u);
  // Hits: formula 2 re-finds Sup, failed, and the whole solve; formula 3
  // re-finds the two label sets.
  EXPECT_EQ(compiled.cse_hits, 5u);
  EXPECT_EQ(compiled.transforms_hoisted, 1u);  // second until reuses the transform

  // The same numbers flow into the global counters (what `--stats` reports).
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("plan.cse.hits"), compiled.cse_hits);
  EXPECT_EQ(registry.counter("plan.ops"), compiled.ops.size());
  EXPECT_EQ(registry.counter("plan.transforms.hoisted"), compiled.transforms_hoisted);
  EXPECT_EQ(registry.counter("plan.compile.calls"), 1u);

  // The shared until solve is referenced by both compare ops.
  std::size_t shared_solves = 0;
  for (const auto& op : compiled.ops) {
    if (op.kind == plan::OpKind::kUntilSolve && op.uses == 2) ++shared_solves;
  }
  EXPECT_EQ(shared_solves, 1u);
}

// ---------------------------------------------------------------------------
// Transform-hoisting pass
// ---------------------------------------------------------------------------

// Two time-reward untils over the same operand sets at ratio-matched bounds
// ([0,50][0,300] and [0,100][0,600]: same r/t, so their zero-impulse Omega
// thresholds coincide): one hoisted transform, and part of the second
// solve's Omega evaluators (keyed by the transformed model's reward
// coefficients and the canonical threshold) must be served from
// numeric::SharedOmegaCache instead of re-derived. Measured against two
// singleton plans executed from a cold cache, the batch must spend strictly
// fewer misses (= evaluator derivations) and score strictly more hits.
TEST_F(PlanPasses, HoistedTransformSharesOmegaEvaluatorsAcrossSolves) {
  const core::Mrm model = models::make_tmr();  // has impulse rewards
  checker::CheckerOptions options;
  const auto& registry = obs::StatsRegistry::global();

  // Lane 1: each formula compiled and executed alone, cold cache each time —
  // the per-process behavior of two separate mrmcheck invocations.
  std::uint64_t singleton_misses = 0;
  std::uint64_t singleton_hits = 0;
  for (const std::string& text :
       {std::string("P(>0.1)[Sup U[0,50][0,300] failed]"),
        std::string("P(>0.1)[Sup U[0,100][0,600] failed]")}) {
    numeric::SharedOmegaCache::global().clear();
    obs::StatsRegistry::global().reset();
    const plan::Plan single = plan::compile(model, parse_batch({text}), options);
    plan::execute(single, model);
    singleton_misses += registry.counter("omega.shared_cache_misses");
    singleton_hits += registry.counter("omega.shared_cache_hits");
  }

  // Lane 2: the batch through one plan, cold cache once.
  numeric::SharedOmegaCache::global().clear();
  obs::StatsRegistry::global().reset();
  const plan::Plan batch = plan::compile(
      model, parse_batch({"P(>0.1)[Sup U[0,50][0,300] failed]",
                          "P(>0.1)[Sup U[0,100][0,600] failed]"}),
      options);
  EXPECT_EQ(batch.transforms_hoisted, 1u);
  EXPECT_GE(registry.counter("plan.transform_prewarms"), 1u);
  plan::execute(batch, model);
  const std::uint64_t batch_misses = registry.counter("omega.shared_cache_misses");
  const std::uint64_t batch_hits = registry.counter("omega.shared_cache_hits");

  EXPECT_LT(batch_misses, singleton_misses);
  EXPECT_GT(batch_hits, singleton_hits);
}

// ---------------------------------------------------------------------------
// Engine dispatch
// ---------------------------------------------------------------------------

// A P2 until runs the engine the options name: uniformization is one
// class-DP batch and no discretization sweep.
TEST_F(PlanPasses, PlanExecutionCountsTheAutoChoice) {
  const core::Mrm model = models::make_tmr();
  const auto batch = parse_batch({"P(>0.1)[Sup U[0,100][0,3000] failed]"});
  checker::CheckerOptions options;
  const plan::Plan compiled = plan::compile(model, batch, options);
  obs::StatsRegistry::global().reset();
  plan::execute(compiled, model);
  const auto& registry = obs::StatsRegistry::global();
  EXPECT_EQ(registry.counter("classdp.calls"), 1u);
  EXPECT_EQ(registry.counter("discretization.calls"), 0u);
}

// ---------------------------------------------------------------------------
// The batch policy (plan/batch.hpp)
// ---------------------------------------------------------------------------

// An unsupported bound shape poisons the shared execution: every formula
// re-runs as a plan of one, only the offender fails, and the survivors'
// answers are bitwise those of a plan of one. A malformed text fails at
// parse time and never reaches a plan.
TEST_F(PlanPasses, PoisonedBatchFailsOnlyTheOffender) {
  const core::Mrm model = models::make_tmr();
  checker::CheckerOptions options;
  const std::string good = "P(>0.1)[Sup U[0,100][0,3000] failed]";
  const plan::BatchOutcome outcome = plan::check_batch(
      model, {good, "P(>0.1)[Sup U[0,100][5,3000] failed]", "P(>0.1)[Sup U["}, options);
  ASSERT_EQ(outcome.entries.size(), 3u);
  EXPECT_NE(outcome.batch_error.find("reward bounds"), std::string::npos)
      << outcome.batch_error;
  EXPECT_TRUE(outcome.entries[0].error.empty()) << outcome.entries[0].error;
  EXPECT_EQ(outcome.entries[1].error, outcome.batch_error);
  EXPECT_EQ(outcome.entries[2].formula, nullptr);
  EXPECT_FALSE(outcome.entries[2].error.empty());

  const plan::PlanResult alone =
      plan::execute(plan::compile(model, parse_batch({good}), options), model);
  const plan::FormulaResult& batched = outcome.entries[0].result;
  ASSERT_TRUE(batched.has_probabilities);
  ASSERT_EQ(batched.probabilities.size(), alone.formulas[0].probabilities.size());
  for (std::size_t s = 0; s < batched.probabilities.size(); ++s) {
    EXPECT_EQ(batched.probabilities[s].probability,
              alone.formulas[0].probabilities[s].probability);
    EXPECT_EQ(batched.bounds[s].lower, alone.formulas[0].bounds[s].lower);
    EXPECT_EQ(batched.bounds[s].upper, alone.formulas[0].bounds[s].upper);
  }
  EXPECT_EQ(batched.verdicts, alone.formulas[0].verdicts);
}

// A poisoned plan of one already is the formula's own run: no re-run.
TEST_F(PlanPasses, PoisonedSingletonBatchIsNotRerun) {
  const core::Mrm model = models::make_tmr();
  const plan::BatchOutcome outcome = plan::check_batch(
      model, {"P(>0.1)[Sup U[0,100][5,3000] failed]"}, checker::CheckerOptions{});
  ASSERT_EQ(outcome.entries.size(), 1u);
  EXPECT_FALSE(outcome.batch_error.empty());
  EXPECT_EQ(outcome.entries[0].error, outcome.batch_error);
  EXPECT_EQ(obs::StatsRegistry::global().counter("plan.compile.calls"), 1u);
}

}  // namespace
}  // namespace csrlmrm
