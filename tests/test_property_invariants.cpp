// Property suites over seeded random MRMs: probability-theoretic invariants
// every engine must satisfy regardless of the model.
#include <gtest/gtest.h>

#include <algorithm>

#include "checker/next.hpp"
#include "checker/performability.hpp"
#include "checker/steady.hpp"
#include "checker/until.hpp"
#include "core/transform.hpp"
#include "graph/scc.hpp"
#include "linalg/vector_ops.hpp"
#include "models/random_mrm.hpp"
#include "numeric/transient.hpp"

namespace csrlmrm {
namespace {

models::RandomMrmConfig calm_config() {
  // Keep Lambda*t small so the path-enumeration invariant checks stay fast;
  // the cross-validation suite covers denser models.
  models::RandomMrmConfig config;
  config.num_states = 6;
  config.max_rate = 1.0;
  return config;
}

class RandomModelInvariants : public ::testing::TestWithParam<std::uint32_t> {
 protected:
  core::Mrm model_ = models::make_random_mrm(GetParam(), calm_config());
};

TEST_P(RandomModelInvariants, TransientDistributionSumsToOne) {
  for (double t : {0.1, 1.0, 5.0}) {
    const auto p = numeric::transient_distribution_from(model_.rates(), 0, t);
    EXPECT_TRUE(linalg::is_distribution(p, 1e-8)) << "t=" << t;
  }
}

TEST_P(RandomModelInvariants, SteadyStateDistributionSumsToOne) {
  for (core::StateIndex start = 0; start < model_.num_states(); ++start) {
    const auto pi = checker::steady_state_distribution(model_, start);
    EXPECT_TRUE(linalg::is_distribution(pi, 1e-8)) << "start=" << start;
  }
}

TEST_P(RandomModelInvariants, SteadyStateMassConcentratesOnBsccs) {
  const auto bsccs = graph::bottom_sccs(model_.rates().matrix());
  std::vector<bool> in_bottom(model_.num_states(), false);
  for (const auto& component : bsccs) {
    for (const auto s : component) in_bottom[s] = true;
  }
  const auto pi = checker::steady_state_distribution(model_, 0);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    if (!in_bottom[s]) {
      EXPECT_NEAR(pi[s], 0.0, 1e-10) << "transient state " << s;
    }
  }
}

TEST_P(RandomModelInvariants, SccsPartitionTheStateSpace) {
  const auto scc = graph::strongly_connected_components(model_.rates().matrix());
  std::vector<std::size_t> size(scc.component_count, 0);
  for (const auto c : scc.component_of) {
    ASSERT_LT(c, scc.component_count);
    ++size[c];
  }
  std::size_t total = 0;
  for (const auto s : size) {
    EXPECT_GT(s, 0u);
    total += s;
  }
  EXPECT_EQ(total, model_.num_states());
}

TEST_P(RandomModelInvariants, UnboundedUntilIsAProbabilityAndRespectsMasks) {
  const auto phi = model_.labels().states_with("a");
  auto psi = model_.labels().states_with("b");
  psi[0] = true;  // never vacuous
  const auto p = checker::unbounded_until_probabilities(model_, phi, psi);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_GE(p[s], 0.0);
    EXPECT_LE(p[s], 1.0);
    if (psi[s]) {
      EXPECT_DOUBLE_EQ(p[s], 1.0);
    }
    if (!psi[s] && !phi[s]) {
      EXPECT_DOUBLE_EQ(p[s], 0.0);
    }
  }
}

TEST_P(RandomModelInvariants, TimeBoundedUntilIsMonotoneInT) {
  std::vector<bool> phi(model_.num_states(), true);
  auto psi = model_.labels().states_with("c");
  psi[model_.num_states() - 1] = true;
  double previous = -1.0;
  for (double t : {0.2, 0.5, 1.0, 2.0}) {
    const auto values =
        checker::until_probabilities(model_, phi, psi, logic::up_to(t), logic::Interval{});
    EXPECT_GE(values[0].probability, previous - 1e-9) << "t=" << t;
    previous = values[0].probability;
  }
}

TEST_P(RandomModelInvariants, RewardBoundedUntilIsMonotoneInR) {
  std::vector<bool> phi(model_.num_states(), true);
  std::vector<bool> psi(model_.num_states(), false);
  psi[1] = true;
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  double previous = -1.0;
  for (double r : {0.5, 2.0, 5.0, 20.0}) {
    const auto values = checker::until_probabilities(model_, phi, psi, logic::up_to(1.0),
                                                     logic::up_to(r), options);
    EXPECT_GE(values[0].probability, previous - 1e-9) << "r=" << r;
    EXPECT_GE(values[0].probability, 0.0);
    EXPECT_LE(values[0].probability, 1.0 + 1e-9);
    previous = values[0].probability;
  }
}

TEST_P(RandomModelInvariants, RewardBoundedUntilIsBoundedByTimeBoundedUntil) {
  // Adding a reward constraint can only remove paths.
  std::vector<bool> phi(model_.num_states(), true);
  std::vector<bool> psi(model_.num_states(), false);
  psi[2 % model_.num_states()] = true;
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-9;
  const double t = 1.0;
  const auto bounded = checker::until_probabilities(model_, phi, psi, logic::up_to(t),
                                                    logic::up_to(3.0), options);
  const auto free = checker::until_probabilities(model_, phi, psi, logic::up_to(t),
                                                 logic::Interval{});
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_LE(bounded[s].probability, free[s].probability + 1e-9) << "state " << s;
  }
}

TEST_P(RandomModelInvariants, NextProbabilitiesAreSubProbabilities) {
  const auto phi = model_.labels().states_with("a");
  const auto unrestricted = checker::next_probabilities(model_, std::vector<bool>(
                                                            model_.num_states(), true),
                                                        logic::Interval{}, logic::Interval{});
  const auto restricted =
      checker::next_probabilities(model_, phi, logic::Interval{}, logic::Interval{});
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_GE(restricted[s], 0.0);
    EXPECT_LE(restricted[s], unrestricted[s] + 1e-12);
    EXPECT_LE(unrestricted[s], 1.0 + 1e-12);
    if (model_.rates().is_absorbing(s)) {
      EXPECT_DOUBLE_EQ(unrestricted[s], 0.0);
    }
  }
}

// The checker answers P1, P1' and R[C] with one backward series each. Its
// answers must lie in enclosures built independently from the forward
// single-start oracle (transient_distribution_from). The backward and
// forward sums are the same truncated series associated differently, so
// they may differ only by rounding (kRounding).
constexpr double kRounding = 1e-13;

struct UntilMasks {
  std::vector<bool> phi;
  std::vector<bool> psi;
};

UntilMasks backward_masks(const core::Mrm& model, std::uint32_t seed) {
  UntilMasks masks{model.labels().states_with("a"), model.labels().states_with("b")};
  masks.psi[seed % model.num_states()] = true;  // never vacuous
  for (std::size_t s = 0; s < masks.phi.size(); ++s) {
    masks.phi[s] = masks.phi[s] || s % 2 == 0;
  }
  return masks;
}

/// Forward-oracle P1 value of every start: Pr{X(t) in Psi} in M[!Phi v Psi].
std::vector<double> forward_time_bounded(const core::Mrm& model, const UntilMasks& masks,
                                         double t) {
  std::vector<bool> absorb(model.num_states());
  for (std::size_t s = 0; s < absorb.size(); ++s) absorb[s] = !masks.phi[s] || masks.psi[s];
  const core::Mrm transformed = core::make_absorbing(model, absorb);
  std::vector<double> values(model.num_states(), 0.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    const auto at_t = numeric::transient_distribution_from(transformed.rates(), s, t);
    for (core::StateIndex v = 0; v < model.num_states(); ++v) {
      if (masks.psi[v]) values[s] += at_t[v];
    }
  }
  return values;
}

TEST_P(RandomModelInvariants, BackwardTimeBoundedUntilLiesInForwardEnclosure) {
  const UntilMasks masks = backward_masks(model_, GetParam());
  const double epsilon = numeric::TransientOptions{}.epsilon;
  const auto values = checker::until_probabilities(model_, masks.phi, masks.psi,
                                                   logic::up_to(1.5), logic::Interval{});
  const auto forward = forward_time_bounded(model_, masks, 1.5);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    if (masks.psi[s]) {
      EXPECT_EQ(values[s].probability, 1.0);
      continue;
    }
    // Poisson truncation only loses mass: the truth is in [p, p + eps].
    EXPECT_GE(values[s].bound.lower, forward[s] - kRounding) << "state " << s;
    EXPECT_LE(values[s].bound.upper, forward[s] + epsilon + kRounding) << "state " << s;
  }
}

TEST_P(RandomModelInvariants, BackwardIntervalUntilLiesInForwardEnclosure) {
  const UntilMasks masks = backward_masks(model_, GetParam());
  const double epsilon = numeric::TransientOptions{}.epsilon;
  const double t1 = 0.5;
  const double t2 = 2.0;
  const auto values = checker::until_probabilities(
      model_, masks.phi, masks.psi, logic::Interval(t1, t2), logic::Interval{});
  // Residual Phi U[0, t2 - t1] Psi from the forward oracle: exactly 1 on
  // Psi, within [r, r + eps] elsewhere.
  const auto residual = forward_time_bounded(model_, masks, t2 - t1);
  std::vector<bool> not_phi(model_.num_states());
  for (std::size_t s = 0; s < not_phi.size(); ++s) not_phi[s] = !masks.phi[s];
  const core::Mrm phase_one = core::make_absorbing(model_, not_phi);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    if (!masks.phi[s]) continue;
    const auto at_t1 = numeric::transient_distribution_from(phase_one.rates(), s, t1);
    double lower = 0.0;
    double upper = epsilon;  // the phase-one weights lose at most eps mass
    for (core::StateIndex mid = 0; mid < model_.num_states(); ++mid) {
      if (!masks.phi[mid]) continue;
      const double r = masks.psi[mid] ? 1.0 : residual[mid];
      lower += at_t1[mid] * r;
      upper += at_t1[mid] * (masks.psi[mid] ? r : r + epsilon);
    }
    EXPECT_GE(values[s].probability, lower - kRounding) << "state " << s;
    EXPECT_LE(values[s].probability, upper + kRounding) << "state " << s;
    EXPECT_GE(values[s].bound.lower, lower - kRounding) << "state " << s;
    EXPECT_LE(values[s].bound.upper, upper + kRounding) << "state " << s;
  }
}

TEST_P(RandomModelInvariants, BackwardCumulativeRewardLiesInForwardEnclosure) {
  // E[Y(t)] = int_0^t pi_s(u) . g du, by the midpoint rule over forward
  // distributions. With f(u) = pi_s(u) . g, |f''| = |pi_s(u) Q^2 g| <=
  // (2 Lambda)^2 max|g|, so the rule is off by at most t h^2 / 24 of that;
  // each forward distribution loses at most eps mass, i.e. t * eps * max|g|
  // in total. The backward series itself reports [v, v + eps * t * max|g|].
  const double t = 2.0;
  const std::size_t steps = 200;
  const double h = t / static_cast<double>(steps);
  const double epsilon = numeric::TransientOptions{}.epsilon;
  const auto gain = checker::per_state_gain_rates(model_);
  const double max_gain = *std::max_element(gain.begin(), gain.end());
  const double lambda = model_.rates().max_exit_rate();
  const double quadrature = t * h * h / 24.0 * 4.0 * lambda * lambda * max_gain;
  const double lost = t * epsilon * max_gain;
  const auto values = checker::expected_accumulated_rewards(model_, t);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    double midpoint = 0.0;
    for (std::size_t i = 0; i < steps; ++i) {
      const double u = (static_cast<double>(i) + 0.5) * h;
      const auto at_u = numeric::transient_distribution_from(model_.rates(), s, u);
      for (core::StateIndex v = 0; v < model_.num_states(); ++v) {
        midpoint += h * at_u[v] * gain[v];
      }
    }
    // Gains are non-negative, so both truncations only lose reward: the
    // exact midpoint sum is in [midpoint, midpoint + lost], the truth within
    // `quadrature` of it, and the backward value in [truth - lost, truth].
    EXPECT_GE(values[s], midpoint - quadrature - lost - kRounding) << "state " << s;
    EXPECT_LE(values[s], midpoint + lost + quadrature + kRounding) << "state " << s;
  }
}

TEST_P(RandomModelInvariants, MakeAbsorbingIsIdempotent) {
  const auto mask = model_.labels().states_with("a");
  const core::Mrm once = core::make_absorbing(model_, mask);
  const core::Mrm twice = core::make_absorbing(once, mask);
  for (core::StateIndex s = 0; s < model_.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(once.state_reward(s), twice.state_reward(s));
    EXPECT_DOUBLE_EQ(once.rates().exit_rate(s), twice.rates().exit_rate(s));
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomModelInvariants, ::testing::Range(1u, 21u));

}  // namespace
}  // namespace csrlmrm
