#include "checker/until.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <stdexcept>
#include <string>

#include "core/transform.hpp"
#include "graph/reachability.hpp"
#include "linalg/gauss_seidel.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/discretization.hpp"
#include "numeric/transient.hpp"
#include "obs/stats.hpp"
#include "core/approx.hpp"

namespace csrlmrm::checker {

namespace {

void require_masks(const core::Mrm& model, const std::vector<bool>& sat_phi,
                   const std::vector<bool>& sat_psi) {
  if (sat_phi.size() != model.num_states() || sat_psi.size() != model.num_states()) {
    throw std::invalid_argument("until: satisfaction mask size mismatch");
  }
}

/// M[absorb] through the caller's transform cache when one was supplied
/// (batched plan execution), else a fresh build. Both paths run
/// core::make_absorbing — a pure function of (model, absorb) — so the
/// returned model is bitwise-identical either way. The shared_ptr keeps the
/// model alive across cache eviction while this solve uses it.
std::shared_ptr<const core::Mrm> absorbing_model(const core::Mrm& model,
                                                 const std::vector<bool>& absorb,
                                                 core::TransformCache* transforms) {
  if (transforms != nullptr) return transforms->absorbing(model, absorb);
  return std::make_shared<const core::Mrm>(core::make_absorbing(model, absorb));
}

/// Reward bounds must be trivial or of the form [0,r] (thesis section 4.6).
bool reward_shape_supported(const logic::Interval& reward) {
  return reward.is_trivial() ||
         (core::exactly_zero(reward.lower()) && !reward.is_upper_unbounded());
}

/// The !Phi && !Psi states: they can never satisfy the until.
std::vector<bool> dead_mask(const std::vector<bool>& sat_phi, const std::vector<bool>& sat_psi) {
  std::vector<bool> dead(sat_phi.size(), false);
  for (std::size_t s = 0; s < dead.size(); ++s) dead[s] = !sat_phi[s] && !sat_psi[s];
  return dead;
}

}  // namespace

UntilClass classify_until(const logic::Interval& time_bound,
                          const logic::Interval& reward_bound) {
  if (!reward_shape_supported(reward_bound)) return UntilClass::kUnsupported;
  const bool reward_trivial = reward_bound.is_trivial();
  if (time_bound.is_trivial() && reward_trivial) return UntilClass::kUnbounded;
  const bool time_bounded = !time_bound.is_upper_unbounded();
  // [t1,t2] with t1 > 0 and no reward bound: the two-phase reduction (which
  // also covers the reward-free point interval [t,t]).
  if (reward_trivial && time_bound.lower() > 0.0 && time_bounded) return UntilClass::kTwoPhase;
  const bool time_zero_based = core::exactly_zero(time_bound.lower()) && time_bounded;
  const bool time_point = time_bound.is_point() && time_bounded;
  if (!time_zero_based && !time_point) return UntilClass::kUnsupported;
  if (reward_trivial) return UntilClass::kTimeBounded;  // time_zero_based holds here
  if (time_point && time_bound.lower() > 0.0) return UntilClass::kPointTimeReward;
  return UntilClass::kTimeReward;
}

const char* to_string(UntilClass cls) {
  switch (cls) {
    case UntilClass::kUnbounded:
      return "P0:unbounded";
    case UntilClass::kTimeBounded:
      return "P1:time-bounded";
    case UntilClass::kTwoPhase:
      return "P1':two-phase";
    case UntilClass::kTimeReward:
      return "P2:time-reward";
    case UntilClass::kPointTimeReward:
      return "P2:point-time-reward";
    case UntilClass::kUnsupported:
      return "unsupported";
  }
  return "?";
}

std::vector<double> unbounded_until_probabilities(const core::Mrm& model,
                                                  const std::vector<bool>& sat_phi,
                                                  const std::vector<bool>& sat_psi,
                                                  const linalg::IterativeOptions& solver) {
  obs::ScopedTimer timer("checker.until.unbounded");
  obs::counter_add("checker.until.unbounded.calls");
  require_masks(model, sat_phi, sat_psi);
  const std::size_t n = model.num_states();

  // Graph precomputation: P > 0 exactly for states that can reach a Psi-state
  // through Phi-states. Everything else is pinned to 0 (this also realizes
  // the "least solution" requirement of eq. 3.8: zero wherever possible).
  const std::vector<bool> positive =
      graph::backward_reachable_via(model.rates().matrix(), sat_phi, sat_psi);

  std::vector<double> result(n, 0.0);
  std::vector<core::StateIndex> unknown;  // Phi && !Psi states with positive prob
  std::vector<std::size_t> unknown_index(n, n);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (sat_psi[s]) {
      result[s] = 1.0;
    } else if (sat_phi[s] && positive[s]) {
      unknown_index[s] = unknown.size();
      unknown.push_back(s);
    }
  }
  if (unknown.empty()) return result;

  // Solve (I - P_UU) x = P_U,Psi * 1 over the unknown states, with P the
  // embedded DTMC.
  linalg::CsrBuilder builder(unknown.size(), unknown.size());
  std::vector<double> rhs(unknown.size(), 0.0);
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    const core::StateIndex s = unknown[i];
    const double exit = model.rates().exit_rate(s);
    builder.add(i, i, 1.0);
    for (const auto& e : model.rates().transitions(s)) {
      const double p = e.value / exit;
      if (sat_psi[e.col]) {
        rhs[i] += p;
      } else if (unknown_index[e.col] != n) {
        builder.add(i, unknown_index[e.col], -p);
      }
      // transitions into probability-0 states contribute nothing
    }
  }
  std::vector<double> x(unknown.size(), 0.0);
  const auto outcome = linalg::gauss_seidel_solve(builder.build(), rhs, x, solver);
  if (!outcome.converged) {
    throw std::runtime_error("unbounded_until_probabilities: Gauss-Seidel did not converge in " +
                             std::to_string(outcome.iterations) + " iterations");
  }
  for (std::size_t i = 0; i < unknown.size(); ++i) {
    result[unknown[i]] = std::min(1.0, std::max(0.0, x[i]));
  }
  return result;
}

namespace {

/// Discretization options usable as an automatic *fallback* for a query
/// uniformization abandoned on its node budget: the configured step is
/// adapted so it satisfies d * E_max < 1 and divides t (explicit
/// discretization runs keep the user's step untouched and fail loudly
/// instead).
numeric::DiscretizationOptions adapted_discretization_options(
    const core::Mrm& transformed, double t, numeric::DiscretizationOptions base) {
  const double max_exit = transformed.rates().max_exit_rate();
  double target = base.step;
  if (max_exit > 0.0 && target * max_exit >= 1.0) target = 0.5 / max_exit;
  const double steps = std::ceil(t / target - 1e-9);
  if (steps >= 1.0) base.step = t / steps;
  return base;
}

/// The class-DP batch under the configured budget policy: the configured w
/// first, then — under kWidenW — w widened by 1000x per retry up to 1e-2.
/// Returns nothing when every attempt exhausted the budget (the first
/// diagnosis lands in `budget_error`); under kThrow the error propagates.
std::optional<std::vector<numeric::UntilUniformizationResult>> class_dp_within_budget(
    const numeric::SignatureClassUntilEngine& engine,
    const std::vector<core::StateIndex>& starts, double t, double r,
    const CheckerOptions& options, std::string& budget_error) {
  try {
    return engine.compute_batch(starts, t, r, options.uniformization);
  } catch (const numeric::NodeBudgetError& error) {
    if (options.on_budget_exhausted == BudgetPolicy::kThrow) throw;
    budget_error = error.what();
  }
  if (options.on_budget_exhausted != BudgetPolicy::kWidenW) return std::nullopt;
  numeric::PathExplorerOptions widened = options.uniformization;
  while (widened.truncation_probability < 1e-2) {
    widened.truncation_probability = std::min(widened.truncation_probability * 1e3, 1e-2);
    try {
      auto batch = engine.compute_batch(starts, t, r, widened);
      obs::counter_add("uniformization.widenings");
      return batch;
    } catch (const numeric::NodeBudgetError&) {
      // still too large; widen further, or fall through to discretization
    }
  }
  return std::nullopt;
}

/// Shared P2 evaluation: Pr{ Y(t) <= r, X(t) |= Psi } on `transformed` for
/// every state. `dead` marks !Phi && !Psi states. When `psi_absorbed` is set
/// (the [0,t] reduction, where Psi-states were made absorbing with zero
/// rewards), Psi starting states score exactly 1 — case 1 of eq. (3.6) —
/// without burning engine time on them.
///
/// Uniformization runs one class-DP batch over every non-trivial start. On
/// budget exhaustion the BudgetPolicy chain is batch-level too: the same
/// batch at a widened w (kWidenW), then one adapted-step discretization
/// sweep answering every non-trivial start.
std::vector<UntilValue> bounded_time_reward(const core::Mrm& transformed,
                                            const std::vector<bool>& sat_psi,
                                            const std::vector<bool>& dead, double t, double r,
                                            const CheckerOptions& options,
                                            bool psi_absorbed) {
  obs::ScopedTimer timer(options.until_method == UntilMethod::kUniformization
                             ? "checker.until.bounded.uniformization"
                             : "checker.until.bounded.discretization");
  const std::size_t n = transformed.num_states();
  std::vector<UntilValue> values(n);
  // Absorbed Psi-states score exactly 1 (case 1 of eq. 3.6) on every engine.
  const auto trivially_one = [&](core::StateIndex s) { return psi_absorbed && sat_psi[s]; };
  if (options.until_method == UntilMethod::kDiscretization) {
    if (psi_absorbed && std::all_of(sat_psi.begin(), sat_psi.end(), [](bool b) { return b; })) {
      std::fill(values.begin(), values.end(), exact_until_value(1.0));
      return values;
    }
    // One backward sweep answers every start state.
    const auto result = numeric::until_probabilities_discretization(transformed, sat_psi, t, r,
                                                                    options.discretization);
    for (core::StateIndex s = 0; s < n; ++s) {
      values[s] = trivially_one(s)
                      ? exact_until_value(1.0)
                      : two_sided_until_value(result.probabilities[s], result.error_bound);
    }
    return values;
  }
  // Every non-trivial start state rides one batched frontier sweep (one
  // engine run, one conditional-probability evaluation per signature class
  // for the whole fan-out). Trivial starts are scored directly: absorbed
  // Psi-states exactly 1, dead states exactly 0.
  std::vector<core::StateIndex> starts;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (trivially_one(s)) {
      values[s] = exact_until_value(1.0);
    } else if (dead[s]) {
      values[s] = truncated_until_value(0.0, 0.0);
    } else {
      starts.push_back(s);
    }
  }
  if (starts.empty()) return values;
  const numeric::SignatureClassUntilEngine engine(transformed, sat_psi, dead);
  std::string budget_error;
  if (const auto batch = class_dp_within_budget(engine, starts, t, r, options, budget_error)) {
    for (std::size_t i = 0; i < starts.size(); ++i) {
      values[starts[i]] = truncated_until_value((*batch)[i].probability, (*batch)[i].error_bound);
    }
    return values;
  }
  // Still over budget: one adapted-step sweep answers every start the DP
  // could not.
  numeric::UntilDiscretizationResult result;
  try {
    result = numeric::until_probabilities_discretization(
        transformed, sat_psi, t, r,
        adapted_discretization_options(transformed, t, options.discretization));
  } catch (const std::invalid_argument& fallback_error) {
    // The degradation path is itself infeasible (e.g. impulse rewards not
    // commensurable with any reasonable step). Re-raise the budget error
    // with both diagnoses so the user can pick a remedy.
    throw numeric::NodeBudgetError(budget_error + "; fallback to discretization also failed: " +
                                   fallback_error.what() +
                                   " (raise max_nodes, widen w, or adjust rewards)");
  }
  for (const core::StateIndex s : starts) {
    values[s] = two_sided_until_value(result.probabilities[s], result.error_bound);
  }
  obs::counter_add("uniformization.fallbacks", starts.size());
  return values;
}

}  // namespace

std::vector<UntilValue> until_probabilities(const core::Mrm& model,
                                            const std::vector<bool>& sat_phi,
                                            const std::vector<bool>& sat_psi,
                                            const logic::Interval& time_bound,
                                            const logic::Interval& reward_bound,
                                            const CheckerOptions& caller_options,
                                            core::TransformCache* transforms) {
  obs::ScopedTimer timer("checker.until");
  obs::counter_add("checker.until.calls");
  require_masks(model, sat_phi, sat_psi);
  const std::size_t n = model.num_states();
  // Engine-level thread counts left at 0 inherit the checker-level knob.
  const CheckerOptions options = with_inherited_threads(caller_options);

  switch (classify_until(time_bound, reward_bound)) {
    case UntilClass::kUnsupported:
      if (!reward_shape_supported(reward_bound)) {
        throw UnsupportedFormulaError(
            "until: reward bounds must have the form [0,r] (thesis section 4.6: general "
            "reward intervals are future work)");
      }
      throw UnsupportedFormulaError(
          "until: time bounds must have the form [0,t], [t1,t2] (reward-unbounded), or [t,t] "
          "(thesis sections 4.3.2/4.6 and [Bai03])");

    case UntilClass::kUnbounded: {
      // P0: Phi U Psi. Graph precomputation pins exact zeros/ones; the linear
      // solve converges to solver.tolerance (treated as exact, like the
      // thesis).
      const auto probabilities =
          unbounded_until_probabilities(model, sat_phi, sat_psi, options.solver);
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) values[s] = exact_until_value(probabilities[s]);
      return values;
    }

    case UntilClass::kTwoPhase: {
      // P1': general time interval [t1,t2] with t1 > 0 and no reward bound —
      // the two-phase reduction of [Bai03]: run the chain in M[!Phi] until t1
      // (any visit to a !Phi state is fatal; Psi-states without Phi are
      // absorbed there as well, and they contribute nothing because the
      // witness time cannot lie before t1), then solve the residual
      // Phi U^[0,t2-t1] Psi problem from every Phi-state reached.
      const double t1 = time_bound.lower();
      const double t2 = time_bound.upper();

      std::vector<bool> not_phi(n, false);
      for (core::StateIndex s = 0; s < n; ++s) not_phi[s] = !sat_phi[s];
      const auto phase_one_ptr = absorbing_model(model, not_phi, transforms);
      const core::Mrm& phase_one = *phase_one_ptr;

      const auto residual = until_probabilities(model, sat_phi, sat_psi,
                                                logic::Interval(0.0, t2 - t1),
                                                logic::Interval{}, options, transforms);

      // Phase one, backward: one series per residual component f, masked to
      // Phi, gives E[f(X(t1)) | X(0) = s] in M[!Phi] for every start s at once.
      // Components that coincide (lower == probability whenever the residual
      // is exact on the low side) share one series.
      enum Component { kProbability, kError, kLower, kUpper, kComponents };
      std::vector<std::vector<double>> terminal(kComponents, std::vector<double>(n, 0.0));
      for (core::StateIndex mid = 0; mid < n; ++mid) {
        if (!sat_phi[mid]) continue;
        terminal[kProbability][mid] = residual[mid].probability;
        terminal[kError][mid] = residual[mid].error_bound;
        terminal[kLower][mid] = residual[mid].bound.lower;
        terminal[kUpper][mid] = residual[mid].bound.upper;
      }
      std::vector<numeric::TransientResult> at_t1(kComponents);
      for (int c = 0; c < kComponents; ++c) {
        const auto same = std::find(terminal.begin(), terminal.begin() + c, terminal[c]);
        at_t1[c] = same != terminal.begin() + c
                       ? at_t1[same - terminal.begin()]
                       : numeric::transient_expectations(phase_one.rates(), terminal[c], t1,
                                                         options.transient);
      }

      // Each series' steady-state fold and rounding are two-sided.
      const auto two_sided = [](const numeric::TransientResult& r) {
        return r.steady_error + r.rounding_error;
      };
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) {
        if (!sat_phi[s]) continue;
        // Interval arithmetic over the convex combination: the phase-one
        // weights underestimate by at most the truncation loss of total mass
        // (the series truncation only loses terms), each residual contributes
        // its own enclosure, so [lower - two-sided, upper + lost + two-sided]
        // contains the truth.
        const double probability = at_t1[kProbability].values[s];
        const double error = at_t1[kError].truncation_error + at_t1[kError].values[s] +
                             at_t1[kError].steady_error + at_t1[kProbability].steady_error;
        const double lower = at_t1[kLower].values[s] - two_sided(at_t1[kLower]);
        const double upper = at_t1[kUpper].truncation_error + at_t1[kUpper].values[s] +
                             two_sided(at_t1[kUpper]);
        values[s] = {probability, error,
                     ProbabilityBound{std::max(0.0, lower), std::min(1.0, upper)}};
      }
      return values;
    }

    case UntilClass::kTimeBounded: {
      // P1: Phi U^[0,t] Psi = transient analysis of M[!Phi v Psi] (Thm 4.1).
      std::vector<bool> absorb(n, false);
      for (core::StateIndex s = 0; s < n; ++s) absorb[s] = !sat_phi[s] || sat_psi[s];
      const auto transformed_ptr = absorbing_model(model, absorb, transforms);
      const core::Mrm& transformed = *transformed_ptr;
      // One backward column series u_{k+1} = P u_k answers every start state
      // at once. Since Psi is absorbing in M[!Phi v Psi], the hit probability
      // at t equals the until probability.
      const auto hit = numeric::transient_hit_probabilities(
          transformed.rates(), sat_psi, time_bound.upper(), options.transient);
      const double lost = hit.truncation_error;                     // one-sided
      const double two_sided = hit.steady_error + hit.rounding_error;  // fold and rounding
      std::vector<UntilValue> values(n);
      for (core::StateIndex s = 0; s < n; ++s) {
        if (sat_psi[s]) {
          values[s] = exact_until_value(1.0);  // absorbed Psi start: case 1 of eq. (3.6)
          continue;
        }
        const double p = hit.values[s];
        // True value lies in [p - two_sided, p + lost + two_sided], epsilon
        // wide with detection off while the rounding bound is small; the
        // a-priori error is the lost mass plus the fold.
        values[s] = {p, lost + hit.steady_error,
                     ProbabilityBound::from_point_error(p, two_sided, lost + two_sided)};
      }
      return values;
    }

    case UntilClass::kPointTimeReward: {
      // [t,t] with t > 0: Theorem 4.2 requires Psi => Phi; only
      // !Phi && !Psi states become absorbing, Psi-states stay live.
      for (core::StateIndex s = 0; s < n; ++s) {
        if (sat_psi[s] && !sat_phi[s]) {
          throw UnsupportedFormulaError(
              "until with point time interval [t,t] requires Psi => Phi (Theorem 4.2)");
        }
      }
      const std::vector<bool> dead = dead_mask(sat_phi, sat_psi);
      const auto transformed_ptr = absorbing_model(model, dead, transforms);
      return bounded_time_reward(*transformed_ptr, sat_psi, dead, time_bound.upper(),
                                 reward_bound.upper(), options, /*psi_absorbed=*/false);
    }

    case UntilClass::kTimeReward: {
      // P2: Phi U^[0,t]_[0,r] Psi on M[!Phi v Psi] (Theorems 4.1 + 4.3).
      std::vector<bool> absorb(n, false);
      for (core::StateIndex s = 0; s < n; ++s) absorb[s] = !sat_phi[s] || sat_psi[s];
      const auto transformed_ptr = absorbing_model(model, absorb, transforms);
      return bounded_time_reward(*transformed_ptr, sat_psi, dead_mask(sat_phi, sat_psi),
                                 time_bound.upper(), reward_bound.upper(), options,
                                 /*psi_absorbed=*/true);
    }
  }
  throw std::logic_error("until: unknown dispatch class");
}

}  // namespace csrlmrm::checker
