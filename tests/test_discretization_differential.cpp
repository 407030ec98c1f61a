// Differential suite: the backward discretization sweep (one pass for every
// start state) against the forward single-start oracle of Algorithm 4.6 in
// discretization_oracle.hpp. Both evaluate the same linear functional on the
// same grid, so they must agree to rounding at every start state, on the
// random-MRM families of the parallel and cross-validation suites, with
// impulse rewards, the live-Psi [t,t] transform, starts whose first
// residence step already leaves the grid, and the t = 0 / r = 0 edges.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/transform.hpp"
#include "discretization_oracle.hpp"
#include "models/random_mrm.hpp"
#include "numeric/discretization.hpp"

namespace csrlmrm {
namespace {

constexpr double kTolerance = 1e-13;

/// Phi/Psi masks that are never vacuous (the parallel and cross-validation
/// suites' construction).
void make_masks(const core::Mrm& model, std::uint32_t seed, std::vector<bool>& phi,
                std::vector<bool>& psi) {
  phi = model.labels().states_with("a");
  psi = model.labels().states_with("b");
  bool any_psi = false;
  for (auto v : psi) any_psi = any_psi || v;
  if (!any_psi) psi[seed % model.num_states()] = true;
  for (std::size_t s = 0; s < phi.size(); ++s) phi[s] = phi[s] || (s % 2 == 0);
}

/// M[!Phi v Psi], the model every [0,t] P2 query runs on.
core::Mrm until_transform(const core::Mrm& model, const std::vector<bool>& phi,
                          const std::vector<bool>& psi) {
  std::vector<bool> absorb(model.num_states());
  for (std::size_t s = 0; s < absorb.size(); ++s) absorb[s] = !phi[s] || psi[s];
  return core::make_absorbing(model, absorb);
}

numeric::DiscretizationOptions step(double d) {
  numeric::DiscretizationOptions options;
  options.step = d;
  return options;
}

/// Runs the backward sweep once and the forward oracle from every start;
/// returns the number of starts whose answer is 0 because rho(start) already
/// reaches the level cap.
std::size_t expect_agreement(const core::Mrm& model, const std::vector<bool>& psi, double t,
                             double r, const numeric::DiscretizationOptions& options,
                             const std::string& context) {
  const auto backward =
      numeric::until_probabilities_discretization(model, psi, t, r, options);
  EXPECT_EQ(backward.probabilities.size(), model.num_states()) << context;
  std::size_t off_grid_starts = 0;
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto forward = oracle::forward_until_probability(model, psi, start, t, r, options);
    EXPECT_NEAR(backward.probabilities[start], forward.probability, kTolerance)
        << context << " start=" << start;
    EXPECT_EQ(backward.time_steps, forward.time_steps) << context;
    EXPECT_EQ(backward.reward_levels, forward.reward_levels) << context;
    const double level = model.state_reward(start) * backward.reward_scale;
    if (t > 0.0 && level >= static_cast<double>(backward.reward_levels)) {
      EXPECT_EQ(backward.probabilities[start], 0.0) << context << " start=" << start;
      ++off_grid_starts;
    }
  }
  return off_grid_starts;
}

std::string describe(std::uint32_t seed, double t, double r) {
  return "seed=" + std::to_string(seed) + " t=" + std::to_string(t) +
         " r=" + std::to_string(r);
}

TEST(DiscretizationDifferential, ParallelSuiteSeedsMatchTheForwardOracle) {
  models::RandomMrmConfig config;
  config.num_states = 8;
  config.max_rate = 1.0;
  // (2, 3) is the parallel suite's query; (1, 20) keeps the level window
  // narrow for the whole horizon, (8, 3) lets it saturate at the full grid.
  const double queries[][2] = {{2.0, 3.0}, {1.0, 20.0}, {8.0, 3.0}};
  for (std::uint32_t seed = 0; seed < 50; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    const core::Mrm transformed = until_transform(model, phi, psi);
    for (const auto& [t, r] : queries) {
      expect_agreement(model, psi, t, r, step(1.0 / 16.0), "raw " + describe(seed, t, r));
      expect_agreement(transformed, psi, t, r, step(1.0 / 16.0),
                       "transformed " + describe(seed, t, r));
    }
  }
}

TEST(DiscretizationDifferential, CrossValidationWorkloadsMatchTheForwardOracle) {
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;
  const double workloads[][2] = {{2.0, 6.0}, {1.0, 3.0}, {2.0, 10.0}, {3.0, 8.0},
                                 {1.5, 4.0}, {2.5, 12.0}, {1.0, 2.0}, {2.0, 20.0},
                                 {1.0, 5.0}, {2.0, 7.0}};
  for (std::uint32_t seed = 1; seed <= 10; ++seed) {
    const auto [t, r] = workloads[seed - 1];
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    expect_agreement(until_transform(model, phi, psi), psi, t, r, step(1.0 / 128.0),
                     describe(seed, t, r));
  }
}

TEST(DiscretizationDifferential, ImpulseDominatedModelsMatchTheForwardOracle) {
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;
  config.max_state_reward = 1;
  config.impulse_probability = 0.9;
  config.max_impulse = 2.0;
  const double workloads[][2] = {{1.0, 2.0}, {1.5, 3.0}, {2.0, 5.0}, {1.0, 4.0}, {1.5, 6.0}};
  for (std::uint32_t seed = 21; seed <= 25; ++seed) {
    const auto [t, r] = workloads[seed - 21];
    const core::Mrm model = models::make_random_mrm(seed, config);
    ASSERT_TRUE(model.has_impulse_rewards()) << "seed=" << seed;
    std::vector<bool> psi = model.labels().states_with("b");
    bool any_psi = false;
    for (auto v : psi) any_psi = any_psi || v;
    if (!any_psi) psi[seed % config.num_states] = true;
    expect_agreement(core::make_absorbing(model, psi), psi, t, r, step(1.0 / 64.0),
                     describe(seed, t, r));
  }
}

TEST(DiscretizationDifferential, PointIntervalWithLivePsiMatchesTheForwardOracle) {
  // Theorem 4.2's [t,t] transform makes only !Phi && !Psi absorbing: Psi
  // states keep their rates and rewards, so Psi rows are read at every level
  // and leave Psi again.
  models::RandomMrmConfig config;
  config.num_states = 8;
  config.max_rate = 1.0;
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    std::vector<bool> dead(model.num_states());
    for (std::size_t s = 0; s < dead.size(); ++s) {
      phi[s] = phi[s] || psi[s];  // Psi => Phi
      dead[s] = !phi[s] && !psi[s];
    }
    const core::Mrm transformed = core::make_absorbing(model, dead);
    expect_agreement(transformed, psi, 2.0, 6.0, step(1.0 / 16.0), describe(seed, 2.0, 6.0));
  }
}

TEST(DiscretizationDifferential, StartsWhoseRewardLeavesTheGridScoreZero) {
  // r = 0.25 at d = 1/16 keeps 5 levels; state rewards reach 6, so some
  // starts overrun the grid on their first residence step.
  models::RandomMrmConfig config;
  config.num_states = 8;
  config.max_rate = 1.0;
  std::size_t off_grid_starts = 0;
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    off_grid_starts += expect_agreement(model, psi, 2.0, 0.25, step(1.0 / 16.0),
                                        describe(seed, 2.0, 0.25));
  }
  EXPECT_GT(off_grid_starts, 0u);
}

TEST(DiscretizationDifferential, ZeroTimeAndZeroRewardEdges) {
  models::RandomMrmConfig config;
  config.num_states = 8;
  config.max_rate = 1.0;
  for (std::uint32_t seed = 0; seed < 20; ++seed) {
    const core::Mrm model = models::make_random_mrm(seed, config);
    std::vector<bool> phi, psi;
    make_masks(model, seed, phi, psi);
    const core::Mrm transformed = until_transform(model, phi, psi);
    // t = 0: the indicator of Psi, before any grid is built.
    const auto at_zero =
        numeric::until_probabilities_discretization(transformed, psi, 0.0, 3.0, step(0.0625));
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      EXPECT_EQ(at_zero.probabilities[s], psi[s] ? 1.0 : 0.0) << "seed=" << seed;
    }
    expect_agreement(transformed, psi, 0.0, 3.0, step(1.0 / 16.0), describe(seed, 0.0, 3.0));
    // r = 0: one level; only reward-free runs count.
    expect_agreement(transformed, psi, 2.0, 0.0, step(1.0 / 16.0), describe(seed, 2.0, 0.0));
  }
}

}  // namespace
}  // namespace csrlmrm
