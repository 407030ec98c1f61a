// Property-based validation of the signature-class DP until engine
// (class_explorer.hpp) against the DFS path generator of the thesis
// (Algorithm 4.7, the test oracle dfpg_oracle.hpp). Both engines compute a lower
// approximation p with p <= p_exact <= p + error_bound, so on every model
// they must agree within the sum of their reported bounds — checked here
// over 50 seeded random impulse-reward MRMs rather than hand-picked
// examples. The DP additionally promises bitwise determinism across worker
// thread counts and batch-vs-single-start equivalence; both are asserted
// exactly (==), not within a tolerance. The random models stay below the
// hand-off trigger's row floor, so ClassExplorerHandoff runs the 11-module
// NMR batch that reaches it; ClassExplorerLongHorizon pins the exact
// level-0 cut.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdint>
#include <vector>

#include "checker/options.hpp"
#include "checker/until.hpp"
#include "core/transform.hpp"
#include "dfpg_oracle.hpp"
#include "models/random_mrm.hpp"
#include "models/tmr.hpp"
#include "numeric/class_explorer.hpp"
#include "obs/stats.hpp"

namespace csrlmrm {
namespace {

struct UntilSetup {
  core::Mrm transformed;
  std::vector<bool> psi;
  std::vector<bool> dead;
};

/// The checker's until preprocessing (phi from label "a" padded with the even
/// states, psi from label "b" with a seeded fallback) applied to one random
/// model — the same recipe as test_property_cross_validation.cpp, so the two
/// property suites exercise comparable formula shapes.
UntilSetup make_setup(const core::Mrm& model, std::uint32_t seed) {
  std::vector<bool> phi = model.labels().states_with("a");
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (const auto value : psi) any_psi = any_psi || value;
  if (!any_psi) psi[seed % model.num_states()] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);

  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  for (std::size_t s = 0; s < model.num_states(); ++s) {
    absorb[s] = !phi[s] || psi[s];
    dead[s] = !phi[s] && !psi[s];
  }
  return {core::make_absorbing(model, absorb), std::move(psi), std::move(dead)};
}

core::Mrm make_model(std::uint32_t seed) {
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;  // keeps Lambda*t small enough for path enumeration
  return models::make_random_mrm(seed, config);
}

/// Per-seed query parameters, derived deterministically so the suite needs no
/// runtime randomness.
double time_bound_of(std::uint32_t seed) { return 0.5 + 0.25 * (seed % 7); }
double reward_bound_of(std::uint32_t seed) { return 1.0 + (seed % 9); }

std::vector<core::StateIndex> all_states(const core::Mrm& model) {
  std::vector<core::StateIndex> starts(model.num_states());
  for (core::StateIndex s = 0; s < model.num_states(); ++s) starts[s] = s;
  return starts;
}

class ClassExplorerCrossEngine : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerCrossEngine, AgreesWithDfsWithinCombinedErrorBounds) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  oracle::DfpgUntilEngine dfs(setup.transformed, setup.psi, setup.dead);
  numeric::SignatureClassUntilEngine classdp(setup.transformed, setup.psi, setup.dead);
  oracle::DfpgOptions options;
  options.truncation_probability = 1e-10;

  const auto batch = classdp.compute_batch(all_states(model), t, r, options);
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto reference = dfs.compute(start, t, r, options);
    const auto& candidate = batch[start];
    EXPECT_GE(candidate.probability, -1e-12) << "start=" << start;
    EXPECT_LE(candidate.probability, 1.0 + 1e-12) << "start=" << start;
    EXPECT_GE(candidate.error_bound, 0.0) << "start=" << start;
    // Both engines bracket the same exact value from below, so the point
    // estimates can differ by at most the combined truncation error.
    EXPECT_NEAR(candidate.probability, reference.probability,
                candidate.error_bound + reference.error_bound + 1e-12)
        << "start=" << start << " t=" << t << " r=" << r;
  }
}

// 50 random impulse-reward MRMs (the generator attaches impulses to ~40% of
// transitions, so nearly every seed exercises non-empty j signatures).
INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerCrossEngine,
                         ::testing::Range(1u, 51u));

class ClassExplorerBatch : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerBatch, BatchIsBitwiseEqualToSingleStartRuns) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;

  const auto batch = engine.compute_batch(all_states(model), t, r, options);
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto single = engine.compute(start, t, r, options);
    EXPECT_EQ(batch[start].probability, single.probability) << "start=" << start;  // bitwise
    EXPECT_EQ(batch[start].error_bound, single.error_bound) << "start=" << start;
  }
}

TEST_P(ClassExplorerBatch, DuplicateStartsGetIdenticalSlots) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const std::vector<core::StateIndex> starts{0, 1, 0};
  const auto batch = engine.compute_batch(starts, time_bound_of(seed), reward_bound_of(seed));
  EXPECT_EQ(batch[0].probability, batch[2].probability);
  EXPECT_EQ(batch[0].error_bound, batch[2].error_bound);
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerBatch,
                         ::testing::Values(1u, 8u, 15u, 22u, 29u, 36u, 43u, 50u));

class ClassExplorerDeterminism : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassExplorerDeterminism, BitwiseIdenticalAcrossThreadCounts) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  const UntilSetup setup = make_setup(model, seed);
  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);

  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;
  options.threads = 1;
  const auto reference = engine.compute_batch(all_states(model), t, r, options);
  for (const unsigned threads : {2u, 8u}) {
    options.threads = threads;
    const auto other = engine.compute_batch(all_states(model), t, r, options);
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(other[i].probability, reference[i].probability)
          << "threads=" << threads << " start=" << i;  // bitwise, sorted merge
      EXPECT_EQ(other[i].error_bound, reference[i].error_bound)
          << "threads=" << threads << " start=" << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassExplorerDeterminism,
                         ::testing::Values(2u, 9u, 16u, 23u, 30u, 37u, 44u));

TEST(ClassExplorerEdgeCases, ZeroTimeBoundIsThePsiIndicator) {
  const core::Mrm model = make_model(3);
  const UntilSetup setup = make_setup(model, 3);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const auto batch = engine.compute_batch(all_states(model), 0.0, 5.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const double expected = (!setup.dead[s] && setup.psi[s]) ? 1.0 : 0.0;
    EXPECT_EQ(batch[s].probability, expected) << "start=" << s;
    EXPECT_EQ(batch[s].error_bound, 0.0) << "start=" << s;
  }
}

TEST(ClassExplorerEdgeCases, DeadStartsAreExactlyZero) {
  const core::Mrm model = make_model(4);
  const UntilSetup setup = make_setup(model, 4);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  const auto batch = engine.compute_batch(all_states(model), 1.5, 4.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!setup.dead[s]) continue;
    EXPECT_EQ(batch[s].probability, 0.0) << "start=" << s;
    EXPECT_EQ(batch[s].error_bound, 0.0) << "start=" << s;
  }
}

TEST(ClassExplorerEdgeCases, ExhaustedClassBudgetThrowsNodeBudgetError) {
  const core::Mrm model = make_model(5);
  const UntilSetup setup = make_setup(model, 5);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-10;
  options.max_nodes = 3;
  EXPECT_THROW(engine.compute_batch(all_states(model), 2.0, 6.0, options),
               numeric::NodeBudgetError);
}

TEST(ClassExplorerEdgeCases, RejectsInvalidArguments) {
  const core::Mrm model = make_model(6);
  const UntilSetup setup = make_setup(model, 6);
  numeric::SignatureClassUntilEngine engine(setup.transformed, setup.psi, setup.dead);
  EXPECT_THROW(engine.compute(model.num_states(), 1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(engine.compute(0, -1.0, 1.0), std::invalid_argument);
  EXPECT_THROW(engine.compute(0, 1.0, -1.0), std::invalid_argument);
  numeric::PathExplorerOptions options;
  options.truncation_probability = 0.0;
  EXPECT_THROW(engine.compute(0, 1.0, 1.0, options), std::invalid_argument);
}

class ClassDpCheckerAgreement : public ::testing::TestWithParam<std::uint32_t> {};

TEST_P(ClassDpCheckerAgreement, CheckerLevelResultsMatchDfpgEngine) {
  const std::uint32_t seed = GetParam();
  const core::Mrm model = make_model(seed);
  std::vector<bool> phi = model.labels().states_with("a");
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (const auto value : psi) any_psi = any_psi || value;
  if (!any_psi) psi[seed % model.num_states()] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);

  const double t = time_bound_of(seed);
  const double r = reward_bound_of(seed);
  const checker::CheckerOptions classdp;
  const auto lhs = checker::until_probabilities(model, phi, psi, logic::up_to(t),
                                                logic::up_to(r), classdp);

  // Direct oracle runs on the same transformed model, one DFS per start, at
  // the checker's default w.
  const UntilSetup setup = make_setup(model, seed);
  const oracle::DfpgUntilEngine dfpg(setup.transformed, setup.psi, setup.dead);
  ASSERT_EQ(lhs.size(), model.num_states());
  for (core::StateIndex s = 0; s < lhs.size(); ++s) {
    const auto rhs = dfpg.compute(s, t, r);
    EXPECT_NEAR(lhs[s].probability, rhs.probability,
                lhs[s].error_bound + rhs.error_bound + 1e-12)
        << "seed=" << seed << " state=" << s;
  }
}

INSTANTIATE_TEST_SUITE_P(RandomModels, ClassDpCheckerAgreement,
                         ::testing::Values(3u, 11u, 19u, 27u, 35u, 47u));

TEST(ClassDpCheckerFallback, TinyNodeBudgetDegradesGracefully) {
  // With the DP's class budget forced to a handful of frontier rows the
  // checker must fall back (per BudgetPolicy) instead of propagating
  // NodeBudgetError, and still return a sane probability vector.
  const core::Mrm model = make_model(7);
  std::vector<bool> phi(model.num_states(), true);
  std::vector<bool> psi = model.labels().states_with("b");
  bool any_psi = false;
  for (const auto value : psi) any_psi = any_psi || value;
  if (!any_psi) psi[0] = true;

  checker::CheckerOptions options;
  options.uniformization.max_nodes = 3;
  std::vector<checker::UntilValue> values;
  ASSERT_NO_THROW(values = checker::until_probabilities(model, phi, psi, logic::up_to(1.5),
                                                        logic::up_to(6.0), options));
  for (std::size_t s = 0; s < values.size(); ++s) {
    EXPECT_GE(values[s].probability, -1e-12) << "state=" << s;
    EXPECT_LE(values[s].probability, 1.0 + 1e-12) << "state=" << s;
  }
}

/// Enables statistics for one test and clears the registry around it.
class ClassDpStatsTest : public ::testing::Test {
 protected:
  void SetUp() override {
    obs::set_stats_enabled(true);
    obs::StatsRegistry::global().reset();
  }
  void TearDown() override {
    obs::StatsRegistry::global().reset();
    obs::set_stats_enabled(false);
  }
  static std::uint64_t counter(const char* name) {
    return obs::StatsRegistry::global().counter(name);
  }
};

/// The 11-module NMR batch of bench_until_engines (Table 5.5 calibration,
/// P[tt U[0,t][0,r] allUp] from every non-allUp state). t = 19 is the
/// smallest whole horizon whose frontier reaches the hand-off trigger (at
/// t = 18 merging stays effective to the end); r = 380 scales the table's
/// r = 2000 at t = 100 down to this horizon, so the reward bound bites.
constexpr double kHandoffT = 19.0;
constexpr double kHandoffR = 380.0;

struct NmrBatch {
  UntilSetup setup;
  std::vector<core::StateIndex> starts;
};

NmrBatch make_nmr_batch() {
  const core::Mrm model = models::make_tmr(models::chapter5_nmr_config(false));
  std::vector<bool> psi = model.labels().states_with("allUp");
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (!psi[s]) starts.push_back(s);
  }
  core::Mrm transformed = core::make_absorbing(model, psi);
  return {{std::move(transformed), std::move(psi), std::vector<bool>(model.num_states(), false)},
          std::move(starts)};
}

numeric::PathExplorerOptions handoff_options(unsigned threads) {
  numeric::PathExplorerOptions options;
  options.truncation_probability = 1e-8;
  options.threads = threads;
  return options;
}

using ClassExplorerHandoff = ClassDpStatsTest;

TEST_F(ClassExplorerHandoff, FiresOnceAtTheSmallestTriggeringHorizon) {
  const NmrBatch nmr = make_nmr_batch();
  const numeric::SignatureClassUntilEngine engine(nmr.setup.transformed, nmr.setup.psi,
                                                  nmr.setup.dead);
  engine.compute_batch(nmr.starts, kHandoffT - 1.0, kHandoffR, handoff_options(1));
  EXPECT_EQ(counter("classdp.hybrid_handoffs"), 0u);
  obs::StatsRegistry::global().reset();
  engine.compute_batch(nmr.starts, kHandoffT, kHandoffR, handoff_options(1));
  EXPECT_EQ(counter("classdp.hybrid_handoffs"), 1u);
  EXPECT_EQ(counter("classdp.calls"), 1u);
}

TEST_F(ClassExplorerHandoff, BitwiseIdenticalAt1_2_4Threads) {
  const NmrBatch nmr = make_nmr_batch();
  const numeric::SignatureClassUntilEngine engine(nmr.setup.transformed, nmr.setup.psi,
                                                  nmr.setup.dead);
  const auto reference =
      engine.compute_batch(nmr.starts, kHandoffT, kHandoffR, handoff_options(1));
  for (const unsigned threads : {2u, 4u}) {
    const auto other =
        engine.compute_batch(nmr.starts, kHandoffT, kHandoffR, handoff_options(threads));
    ASSERT_EQ(other.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
      EXPECT_EQ(other[i].probability, reference[i].probability)
          << "threads=" << threads << " start=" << nmr.starts[i];  // bitwise
      EXPECT_EQ(other[i].error_bound, reference[i].error_bound)
          << "threads=" << threads << " start=" << nmr.starts[i];
      EXPECT_EQ(other[i].nodes_expanded, reference[i].nodes_expanded);
      EXPECT_EQ(other[i].paths_stored, reference[i].paths_stored);
      EXPECT_EQ(other[i].paths_truncated, reference[i].paths_truncated);
      EXPECT_EQ(other[i].signature_classes, reference[i].signature_classes);
      EXPECT_EQ(other[i].max_depth, reference[i].max_depth);
    }
  }
  EXPECT_EQ(counter("classdp.hybrid_handoffs"), 3u);  // one per run
}

TEST_F(ClassExplorerHandoff, AgreesWithDfpgWithinSummedErrorBounds) {
  const NmrBatch nmr = make_nmr_batch();
  const numeric::SignatureClassUntilEngine classdp(nmr.setup.transformed, nmr.setup.psi,
                                                   nmr.setup.dead);
  const oracle::DfpgUntilEngine dfpg(nmr.setup.transformed, nmr.setup.psi, nmr.setup.dead);
  const auto batch = classdp.compute_batch(nmr.starts, kHandoffT, kHandoffR, handoff_options(0));
  ASSERT_EQ(counter("classdp.hybrid_handoffs"), 1u);
  oracle::DfpgOptions options;
  options.truncation_probability = 1e-8;
  for (std::size_t i = 0; i < nmr.starts.size(); ++i) {
    const auto reference = dfpg.compute(nmr.starts[i], kHandoffT, kHandoffR, options);
    EXPECT_GT(batch[i].probability, 0.0) << "start=" << nmr.starts[i];
    EXPECT_NEAR(batch[i].probability, reference.probability,
                batch[i].error_bound + reference.error_bound)
        << "start=" << nmr.starts[i];
  }
}

/// 3-module TMR, P[Sup U[0,t][0,3000] failed], from every state plus a
/// duplicate start (so the level-0 fold merges a row).
struct TmrBatch {
  UntilSetup setup;
  std::vector<core::StateIndex> starts;
  std::size_t live = 0;
  std::size_t distinct_live = 0;
};

TmrBatch make_tmr_batch() {
  const core::Mrm model = models::make_tmr();
  const std::vector<bool> phi = model.labels().states_with("Sup");
  std::vector<bool> psi = model.labels().states_with("failed");
  std::vector<bool> absorb(model.num_states());
  std::vector<bool> dead(model.num_states());
  std::vector<core::StateIndex> starts;
  std::size_t distinct_live = 0;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    absorb[s] = !phi[s] || psi[s];
    dead[s] = !phi[s] && !psi[s];
    starts.push_back(s);
    if (!dead[s]) ++distinct_live;
  }
  starts.push_back(0);
  const std::size_t live = distinct_live + (dead[0] ? 0 : 1);
  return {{core::make_absorbing(model, absorb), std::move(psi), std::move(dead)},
          std::move(starts),
          live,
          distinct_live};
}

using ClassExplorerLongHorizon = ClassDpStatsTest;

TEST_F(ClassExplorerLongHorizon, LevelZeroCutAnswersAnAstronomicalHorizonAtOnce) {
  // Lambda t ~ 5e10: a Poisson table for this mean would never finish, but
  // e^{-Lambda t} < w cuts every start at level 0, which is the whole answer.
  const TmrBatch tmr = make_tmr_batch();
  const numeric::SignatureClassUntilEngine engine(tmr.setup.transformed, tmr.setup.psi,
                                                  tmr.setup.dead);
  const auto begin = std::chrono::steady_clock::now();
  const auto results = engine.compute_batch(tmr.starts, 1e12, 3000.0);
  const std::chrono::duration<double> elapsed = std::chrono::steady_clock::now() - begin;
  EXPECT_LT(elapsed.count(), 1.0);
  for (std::size_t i = 0; i < tmr.starts.size(); ++i) {
    const bool dead = tmr.setup.dead[tmr.starts[i]];
    EXPECT_EQ(results[i].probability, 0.0) << "start=" << tmr.starts[i];
    EXPECT_EQ(results[i].error_bound, dead ? 0.0 : 1.0) << "start=" << tmr.starts[i];
  }
  EXPECT_EQ(counter("classdp.levels"), 1u);
  EXPECT_EQ(counter("classdp.nodes_expanded"), 0u);
}

TEST_F(ClassExplorerLongHorizon, LevelZeroCutMatchesTheSweepAtItsBoundary) {
  const TmrBatch tmr = make_tmr_batch();
  const numeric::SignatureClassUntilEngine engine(tmr.setup.transformed, tmr.setup.psi,
                                                  tmr.setup.dead);
  const double w = 1e-8;
  numeric::PathExplorerOptions options;
  options.truncation_probability = w;

  // Lambda t = 20: e^{-20} ~ 2.1e-9 < w, so the cut applies. These are the
  // values and counters the full level sweep produces here (a cheap sweep:
  // it stops at level 0 too).
  const auto cut = engine.compute_batch(tmr.starts, 20.0 / engine.lambda(), 3000.0, options);
  for (std::size_t i = 0; i < tmr.starts.size(); ++i) {
    const bool dead = tmr.setup.dead[tmr.starts[i]];
    EXPECT_EQ(cut[i].probability, 0.0);
    EXPECT_EQ(cut[i].error_bound, dead ? 0.0 : 1.0);
    EXPECT_EQ(cut[i].paths_truncated, tmr.live);
    EXPECT_EQ(cut[i].paths_stored, 0u);
    EXPECT_EQ(cut[i].signature_classes, 0u);
    EXPECT_EQ(cut[i].nodes_expanded, 0u);
    EXPECT_EQ(cut[i].max_depth, 0u);
  }
  EXPECT_EQ(counter("classdp.levels"), 1u);
  EXPECT_EQ(counter("classdp.nodes_expanded"), 0u);
  EXPECT_EQ(counter("classdp.classes_merged"), tmr.live - tmr.distinct_live);
  EXPECT_EQ(counter("classdp.conditional_evals"), 0u);
  EXPECT_EQ(counter("classdp.trivial_folds"), 0u);
  EXPECT_EQ(counter("classdp.hybrid_handoffs"), 0u);
  EXPECT_EQ(obs::StatsRegistry::global().gauge("classdp.frontier_peak"),
            static_cast<double>(tmr.distinct_live));

  // Lambda t = 18: e^{-18} ~ 1.5e-8 >= w, so level 0 survives and the sweep
  // runs on.
  obs::StatsRegistry::global().reset();
  const auto swept = engine.compute_batch(tmr.starts, 18.0 / engine.lambda(), 3000.0, options);
  EXPECT_GT(counter("classdp.levels"), 1u);
  EXPECT_GT(counter("classdp.nodes_expanded"), 0u);
  for (std::size_t i = 0; i < tmr.starts.size(); ++i) {
    EXPECT_LT(swept[i].error_bound, 1.0) << "start=" << tmr.starts[i];
  }
}

}  // namespace
}  // namespace csrlmrm
