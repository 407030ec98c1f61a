// Discretization engine (Algorithm 4.6): the Tijms-Veldman scheme [Tij02]
// extended with impulse rewards.
//
// Both time and accumulated reward are discretized with the same step d:
// time advances in steps of d; the reward axis is a grid of levels worth d
// reward units each, so one step of residence in state s advances the reward
// level by rho(s) (hence state rewards must be integers — rational rewards
// are scaled, together with the bound r, by the smallest integer factor that
// makes them integral), and a transition s -> s' advances it additionally by
// iota(s,s')/d levels (which must be integral; choose d to divide the
// impulse rewards).
//
// The paper states the scheme forward, as a density F^j(s,k) pushed from one
// start state. The engine runs its transpose instead: V^j(s,k) is the
// probability of ending in Psi with fewer than L reward levels used when
// j steps remain and k levels are already consumed,
//
//   V^0(s,k)     = [s |= Psi]
//   V^{j+1}(s,k) = (1 - E(s) d) V^j(s, k + rho(s))
//                + sum_{s'} R(s,s') d V^j(s', k + rho(s) + iota(s,s')/d),
//
// where a term whose level reaches L is dropped, exactly as the forward
// scheme drops mass leaving the grid. Both evaluate the same linear
// functional, so one backward sweep answers every start state:
// P(s) = V^{T-1}(s, rho(s)), or 0 when rho(s) >= L.
//
// As with the uniformization engine, the input model must already be the
// absorbing-transformed M[!Phi v Psi], after which P(s) =
// P(s, Phi U_[0,r]^[0,t] Psi).
#pragma once

#include <cstddef>
#include <vector>

#include "core/labels.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::numeric {

/// Parameters of the discretization run.
struct DiscretizationOptions {
  /// The step d (time units). Must satisfy d * max_s E(s) < 1 so the
  /// "no transition" factor stays a probability.
  double step = 1.0 / 64.0;
  /// Largest integer factor tried when scaling rational state rewards to
  /// integers.
  unsigned max_reward_scale = 1000;
  /// Worker threads for the per-state level sweep; 0 = the process default
  /// (CSRLMRM_THREADS or hardware concurrency). Each state's row of the
  /// level grid is written by exactly one task in the same order as the
  /// serial sweep, so the result is bitwise-identical at every thread count.
  unsigned threads = 0;
  /// Cap on the level grid size n * levels (two such buffers of doubles are
  /// allocated). A large reward bound r or a tiny step d would otherwise
  /// silently attempt a multi-gigabyte allocation and die with bad_alloc;
  /// instead the engine raises std::invalid_argument with the offending
  /// sizes and the remedies (larger d, smaller r, or the uniformization
  /// engine). The default (64M cells = 512 MiB per buffer) is far above any
  /// practical configuration.
  std::size_t max_grid_cells = 64ull * 1024 * 1024;
};

/// Result of a discretization sweep.
struct UntilDiscretizationResult {
  /// One probability per start state (until_probabilities_discretization)
  /// or per reward bound (reward_cdf_discretization).
  std::vector<double> probabilities;
  /// Derived half-width of the O(d) error band (section 4.5: the scheme
  /// converges linearly in the step): per time step the scheme drops the
  /// multi-jump events, whose probability is at most (E_max d)^2 / 2, plus
  /// one step's worth of single-jump timing/reward quantization at the
  /// boundary, giving t E_max^2 d / 2 + E_max d overall (clamped to 1).
  double error_bound = 0.0;
  /// T = t / d time steps performed.
  std::size_t time_steps = 0;
  /// R = (scaled r) / d reward levels maintained per state.
  std::size_t reward_levels = 0;
  /// Integer factor applied to the reward structure (1 when rewards were
  /// already integral).
  unsigned reward_scale = 1;
};

/// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } on the absorbing-transformed model
/// by discretization, for every start state in one backward sweep. Throws
/// std::invalid_argument for an unusable step (d * max E >= 1, non-integral
/// impulse levels, t not a multiple of d) or a grid above max_grid_cells,
/// and std::domain_error when no reward scale <= max_reward_scale makes the
/// state rewards integral.
UntilDiscretizationResult until_probabilities_discretization(
    const core::Mrm& transformed, const std::vector<bool>& psi, double t, double r,
    const DiscretizationOptions& options);

/// Pr{ Y(t) <= r_i, X(t) |= Psi } from `start` for every bound r_i, from one
/// sweep at the largest bound: the grid at r_max holds the grid at r_i
/// shifted by L_max - L_i levels (a run stays below L_i levels from level k
/// exactly when it stays below L_max from k + L_max - L_i), so bound r_i is
/// read at level rho(start) + L_max - L_i. reward_levels reports L_max.
/// Throws like until_probabilities_discretization, and std::invalid_argument
/// for an out-of-range start.
UntilDiscretizationResult reward_cdf_discretization(const core::Mrm& transformed,
                                                    const std::vector<bool>& psi,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const DiscretizationOptions& options);

/// Smallest integer factor f <= max_scale such that f * value is integral
/// (within 1e-9 relative tolerance) for every value; throws std::domain_error
/// when none exists. Exposed for tests.
unsigned find_integer_scale(const std::vector<double>& values, unsigned max_scale);

}  // namespace csrlmrm::numeric
