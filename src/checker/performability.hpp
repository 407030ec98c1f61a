// Performability measures (section 3.5, Definition 3.4) as first-class API.
//
// Perf(<= r) = Pr{ Y(t) <= r } is exactly what the until engines compute
// when nothing is made absorbing and every state counts as a target
// (Theorem 4.3 with Psi = tt on the untransformed model), so both numerical
// methods are reusable verbatim. Expected-value measures come from
// uniformization occupation times:
//
//   E[Y(t)] = sum_s E[L_s(t)] * ( rho(s) + sum_s' R(s,s') iota(s,s') )
//
// (each unit of expected residence in s earns rho(s) directly and triggers
// transitions s -> s' at rate R(s,s'), each paying its impulse), and the
// long-run reward rate substitutes the steady-state distribution for the
// occupation-time profile. The sum runs backward — one series over the gain
// vector answers every start state (numeric::expected_accumulated_rates).
#pragma once

#include <vector>

#include "checker/options.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"

namespace csrlmrm::checker {

/// A performability value with the error bound of the engine that produced
/// it (uniformization truncation mass, or the derived O(d) discretization
/// band) and the rigorous interval containing the true value.
struct PerformabilityValue {
  double probability = 0.0;
  double error_bound = 0.0;
  ProbabilityBound bound = ProbabilityBound::point(0.0);
};

/// Perf(<= r) = Pr{ Y(t) <= r } from `start` over the utilization interval
/// [0, t]. Uses the engine selected in `options` (uniformization by
/// default). Requires t, r finite and >= 0 and `start` a state of `model`.
PerformabilityValue performability(const core::Mrm& model, core::StateIndex start, double t,
                                   double r, const CheckerOptions& options = {});

/// The distribution function r -> Pr{ Y(t) <= r } evaluated at each bound in
/// `reward_bounds`. Discretization runs one sweep at the largest bound and
/// reads every other bound off it (numeric::reward_cdf_discretization); the
/// uniformization engine runs one pass per entry, sharing its path
/// exploration across entries only through signature reuse, so prefer
/// modest sweep sizes there.
std::vector<PerformabilityValue> performability_cdf(const core::Mrm& model,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const CheckerOptions& options = {});

/// E[Y(t)]: expected reward accumulated during [0, t], including impulse
/// rewards, for every start state at once (one backward series over the
/// gain rates, see numeric::expected_accumulated_rates).
std::vector<double> expected_accumulated_rewards(const core::Mrm& model, double t,
                                                 const numeric::TransientOptions& options = {});

/// expected_accumulated_rewards with the series' two-sided rounding bound
/// (numeric::expected_accumulated_rates_checked).
numeric::TransientResult expected_accumulated_rewards_checked(
    const core::Mrm& model, double t, const numeric::TransientOptions& options = {});

/// expected_accumulated_rewards for one start state.
double expected_accumulated_reward(const core::Mrm& model, core::StateIndex start, double t,
                                   const numeric::TransientOptions& options = {});

/// The long-run reward rate lim_{t->inf} E[Y(t)] / t for every starting
/// state (steady-state weighted gain rate; rates differ across states only
/// when the chain has multiple BSCCs).
std::vector<double> long_run_reward_rate(const core::Mrm& model,
                                         const linalg::IterativeOptions& solver = {});

/// Per-state gain rate rho(s) + sum_s' R(s,s') iota(s,s') — the expected
/// reward earned per unit of residence in s. Exposed so the checker can
/// bound the cumulative-reward error (lost occupation mass times the
/// largest gain rate).
std::vector<double> per_state_gain_rates(const core::Mrm& model);

}  // namespace csrlmrm::checker
