#include "checker/performability.hpp"

#include <stdexcept>

#include "checker/steady.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/discretization.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::checker {

std::vector<double> per_state_gain_rates(const core::Mrm& model) {
  std::vector<double> gain(model.num_states(), 0.0);
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    gain[s] = model.state_reward(s);
    for (const auto& e : model.impulse_rewards().row(s)) {
      gain[s] += model.rates().rate(s, e.col) * e.value;
    }
  }
  return gain;
}

namespace {

PerformabilityValue discretization_value(double probability, double error_bound) {
  return {probability, error_bound,
          ProbabilityBound::from_point_error(probability, error_bound, error_bound)};
}

}  // namespace

PerformabilityValue performability(const core::Mrm& model, core::StateIndex start, double t,
                                   double r, const CheckerOptions& options) {
  obs::ScopedTimer timer("checker.performability");
  obs::counter_add("checker.performability.calls");
  if (start >= model.num_states()) {
    throw std::invalid_argument("performability: start state out of range");
  }
  const std::vector<bool> everything(model.num_states(), true);
  if (options.until_method == UntilMethod::kUniformization) {
    const std::vector<bool> nothing(model.num_states(), false);
    const numeric::SignatureClassUntilEngine engine(model, everything, nothing);
    const auto result = engine.compute(start, t, r, options.uniformization);
    // Truncation only loses mass: the truth lies in [p, p + error].
    return {result.probability, result.error_bound,
            ProbabilityBound::from_point_error(result.probability, 0.0, result.error_bound)};
  }
  const auto result = numeric::reward_cdf_discretization(model, everything, start, t, {r},
                                                         options.discretization);
  return discretization_value(result.probabilities[0], result.error_bound);
}

std::vector<PerformabilityValue> performability_cdf(const core::Mrm& model,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const CheckerOptions& options) {
  if (start >= model.num_states()) {
    throw std::invalid_argument("performability_cdf: start state out of range");
  }
  std::vector<PerformabilityValue> values;
  values.reserve(reward_bounds.size());
  const std::vector<bool> everything(model.num_states(), true);
  if (options.until_method == UntilMethod::kUniformization) {
    // Build the engine once; each bound re-runs the (truncated) frontier
    // sweep but shares the uniformization preprocessing.
    const std::vector<bool> nothing(model.num_states(), false);
    const numeric::SignatureClassUntilEngine engine(model, everything, nothing);
    for (const double r : reward_bounds) {
      const auto result = engine.compute(start, t, r, options.uniformization);
      values.push_back(
          {result.probability, result.error_bound,
           ProbabilityBound::from_point_error(result.probability, 0.0, result.error_bound)});
    }
    return values;
  }
  // One sweep at the largest bound answers every bound (a level shift).
  const auto result = numeric::reward_cdf_discretization(model, everything, start, t,
                                                         reward_bounds, options.discretization);
  for (const double p : result.probabilities) {
    values.push_back(discretization_value(p, result.error_bound));
  }
  return values;
}

numeric::TransientResult expected_accumulated_rewards_checked(
    const core::Mrm& model, double t, const numeric::TransientOptions& options) {
  obs::ScopedTimer timer("checker.expected_reward");
  obs::counter_add("checker.expected_reward.calls");
  return numeric::expected_accumulated_rates_checked(model.rates(), per_state_gain_rates(model),
                                                     t, options);
}

std::vector<double> expected_accumulated_rewards(const core::Mrm& model, double t,
                                                 const numeric::TransientOptions& options) {
  return expected_accumulated_rewards_checked(model, t, options).values;
}

double expected_accumulated_reward(const core::Mrm& model, core::StateIndex start, double t,
                                   const numeric::TransientOptions& options) {
  if (start >= model.num_states()) {
    throw std::invalid_argument("expected_accumulated_reward: start state out of range");
  }
  return expected_accumulated_rewards(model, t, options)[start];
}

std::vector<double> long_run_reward_rate(const core::Mrm& model,
                                         const linalg::IterativeOptions& solver) {
  const auto gain = per_state_gain_rates(model);
  std::vector<double> rates(model.num_states(), 0.0);
  for (core::StateIndex start = 0; start < model.num_states(); ++start) {
    const auto pi = steady_state_distribution(model, start, solver);
    double rate = 0.0;
    for (core::StateIndex s = 0; s < model.num_states(); ++s) rate += pi[s] * gain[s];
    rates[start] = rate;
  }
  return rates;
}

}  // namespace csrlmrm::checker
