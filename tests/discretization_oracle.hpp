// Reference oracle for the discretization engine: Algorithm 4.6 as the
// paper states it, one forward sweep of the probability mass from a single
// start state. The engine (numeric/discretization) runs the transposed,
// backward recursion for every start state at once; the two evaluate the
// same linear functional, so they must agree up to rounding on every start.
//
//   F^{j+1}(s,k) = F^j(s, k - rho(s)) (1 - E(s) d)
//                + sum_{s'} F^j(s', k - rho(s') - iota(s',s)/d) R(s',s) d
//
// P(start) = sum_{s |= Psi} sum_k F^{T-1}(s,k), with F^0 the unit mass at
// (start, rho(start)) and mass leaving the level grid dropped. Serial and
// without the engine's row-emptiness skip: this is the plain textbook sweep.
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <stdexcept>
#include <vector>

#include "core/approx.hpp"
#include "core/mrm.hpp"
#include "numeric/discretization.hpp"

namespace csrlmrm::oracle {

struct ForwardDiscretizationResult {
  double probability = 0.0;
  std::size_t time_steps = 0;
  std::size_t reward_levels = 0;
};

inline bool forward_is_integral(double v) {
  return std::abs(v - std::round(v)) <= 1e-9 * std::max(1.0, std::abs(v));
}

/// Pr{ Y(t) <= r, X(t) |= Psi } from `start` on the absorbing-transformed
/// model, by the forward scheme. Same grid rules as the engine: integral
/// (scaled) state rewards, impulses on the level grid, t a multiple of d.
inline ForwardDiscretizationResult forward_until_probability(
    const core::Mrm& transformed, const std::vector<bool>& psi, core::StateIndex start,
    double t, double r, const numeric::DiscretizationOptions& options) {
  const std::size_t n = transformed.num_states();
  ForwardDiscretizationResult result;
  if (core::exactly_zero(t)) {
    result.probability = psi[start] ? 1.0 : 0.0;
    return result;
  }
  const double d = options.step;
  if (!forward_is_integral(t / d)) {
    throw std::invalid_argument("forward oracle: t must be a multiple of d");
  }
  const std::size_t time_steps = static_cast<std::size_t>(std::llround(t / d));
  const double scale =
      numeric::find_integer_scale(transformed.state_rewards(), options.max_reward_scale);
  const std::size_t levels = static_cast<std::size_t>(std::floor(r * scale / d + 1e-9)) + 1;

  std::vector<std::size_t> residence(n);
  for (core::StateIndex s = 0; s < n; ++s) {
    residence[s] = static_cast<std::size_t>(std::llround(transformed.state_reward(s) * scale));
  }
  struct Incoming {
    core::StateIndex source;
    double probability;
    std::size_t shift;
  };
  std::vector<std::vector<Incoming>> incoming(n);
  for (core::StateIndex from = 0; from < n; ++from) {
    for (const auto& e : transformed.rates().transitions(from)) {
      const double impulse_levels = transformed.impulse_reward(from, e.col) * scale / d;
      if (!forward_is_integral(impulse_levels)) {
        throw std::invalid_argument("forward oracle: impulse not on the level grid");
      }
      incoming[e.col].push_back(
          {from, e.value * d,
           residence[from] + static_cast<std::size_t>(std::llround(impulse_levels))});
    }
  }

  std::vector<double> cur(n * levels, 0.0);
  std::vector<double> next(n * levels, 0.0);
  if (residence[start] < levels) cur[start * levels + residence[start]] = 1.0;
  for (std::size_t step = 1; step < time_steps; ++step) {
    std::fill(next.begin(), next.end(), 0.0);
    for (core::StateIndex s = 0; s < n; ++s) {
      const double stay = 1.0 - transformed.rates().exit_rate(s) * d;
      for (std::size_t k = residence[s]; k < levels; ++k) {
        next[s * levels + k] += stay * cur[s * levels + k - residence[s]];
      }
      for (const Incoming& in : incoming[s]) {
        for (std::size_t k = in.shift; k < levels; ++k) {
          next[s * levels + k] += in.probability * cur[in.source * levels + k - in.shift];
        }
      }
    }
    cur.swap(next);
  }

  for (core::StateIndex s = 0; s < n; ++s) {
    if (!psi[s]) continue;
    for (std::size_t k = 0; k < levels; ++k) result.probability += cur[s * levels + k];
  }
  result.time_steps = time_steps;
  result.reward_levels = levels;
  return result;
}

}  // namespace csrlmrm::oracle
