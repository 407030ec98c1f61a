#include "numeric/transient.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <utility>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "linalg/blocked_csr.hpp"
#include "numeric/fox_glynn.hpp"
#include "numeric/poisson.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

void require_distribution(const core::RateMatrix& rates, const std::vector<double>& initial) {
  if (initial.size() != rates.num_states()) {
    throw std::invalid_argument("transient: initial distribution size mismatch");
  }
  double mass = 0.0;
  for (double p : initial) {
    if (p < 0.0) throw std::invalid_argument("transient: negative probability");
    mass += p;
  }
  if (std::abs(mass - 1.0) > 1e-6) {
    throw std::invalid_argument("transient: initial distribution does not sum to 1");
  }
}

void require_time(double t) {
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("transient: t must be finite and >= 0");
  }
}

/// The blocked gather needs finite inputs (see linalg/blocked_csr.hpp).
void require_finite_vector(const core::RateMatrix& rates, const std::vector<double>& vector) {
  if (vector.size() != rates.num_states()) {
    throw std::invalid_argument("transient: per-state vector size mismatch");
  }
  for (const double v : vector) {
    if (!std::isfinite(v)) throw std::invalid_argument("transient: non-finite per-state value");
  }
}

/// Norm the steady-state criterion contracts in: the forward (row-vector)
/// iteration is non-expansive in the 1-norm, the backward (column-vector)
/// iteration in the max norm. Either norm bounds every per-state error.
enum class SteadyNorm { kL1, kMax };

/// The weights of one series: term k enters with weights[k - first] for k in
/// [first, last()], and not at all before `first`.
struct SeriesWeights {
  std::size_t first = 0;
  std::vector<double> weights;

  std::size_t last() const { return first + weights.size() - 1; }
};

/// The normalized Fox-Glynn probabilities of the window [left, right].
SeriesWeights poisson_weights(FoxGlynnWeights window) {
  for (double& w : window.weights) w /= window.total_weight;
  return {window.left, std::move(window.weights)};
}

/// Body of every uniformization series: term_k = A^k x_0 through the blocked
/// gather over `gather` (P for the backward series, P^T for the forward
/// one), accumulated with `series` weights and optionally cut once
/// successive iterates have stabilized. With detection off the operation
/// sequence is the plain truncated sum.
TransientResult accumulate_series(const linalg::CsrMatrix& gather, const SeriesWeights& series,
                                  std::vector<double> initial, const TransientOptions& options,
                                  SteadyNorm norm) {
  const linalg::BlockedCsrMatrix blocked(gather);
  const std::size_t last = series.last();
  const unsigned threads =
      parallel::choose_thread_count(options.threads, gather.non_zeros() * (last + 1));
  TransientResult out;
  std::vector<double> term = std::move(initial);  // A^i * x_0
  std::vector<double> scratch(term.size(), 0.0);
  out.values.assign(term.size(), 0.0);
  for (std::size_t i = 0; i <= last; ++i) {
    ++out.series_terms;
    if (i >= series.first) {
      core::simd::axpy(out.values.data(), term.data(), out.values.size(),
                       series.weights[i - series.first]);
    }
    if (i == last) break;
    blocked.multiply_into(term, scratch, threads);
    term.swap(scratch);
    // After the swap `scratch` holds the previous iterate, so the
    // steady-state test compares successive terms without extra storage.
    if (options.detect_steady_state && i + 1 < last) {
      const std::size_t remaining = last - (i + 1);
      double delta = 0.0;
      if (norm == SteadyNorm::kL1) {
        for (std::size_t s = 0; s < term.size(); ++s) delta += std::abs(term[s] - scratch[s]);
      } else {
        for (std::size_t s = 0; s < term.size(); ++s) {
          delta = std::max(delta, std::abs(term[s] - scratch[s]));
        }
      }
      if (delta * static_cast<double>(remaining) <= options.steady_epsilon) {
        // The uniformized step is non-expansive in `norm`, so every future
        // iterate stays within remaining * delta of the current one; folding
        // the whole remaining (normalized) Poisson mass onto the current
        // iterate therefore closes the series with a per-state error of at
        // most steady_error — accounted into the caller's interval.
        double tail_mass = 0.0;
        for (std::size_t k = std::max(series.first, i + 1); k <= last; ++k) {
          tail_mass += series.weights[k - series.first];
        }
        core::simd::axpy(out.values.data(), term.data(), out.values.size(), tail_mass);
        out.steady_error = delta * static_cast<double>(remaining);
        out.steady_state_detected = true;
        obs::counter_add("uniformization.steady_detected");
        obs::counter_add("uniformization.terms_saved", remaining);
        break;
      }
    }
  }
  obs::counter_add("transient.series_terms", out.series_terms);
  return out;
}

}  // namespace

linalg::CsrMatrix uniformized_transition_matrix(const core::RateMatrix& rates,
                                                double& lambda_out) {
  const std::size_t n = rates.num_states();
  const double max_exit = rates.max_exit_rate();
  lambda_out = max_exit > 0.0 ? max_exit : 1.0;

  linalg::CsrBuilder builder(n, n);
  builder.reserve(rates.matrix().non_zeros() + n);
  for (core::StateIndex s = 0; s < n; ++s) {
    double off_diagonal = 0.0;
    for (const auto& e : rates.transitions(s)) {
      if (e.col == s) continue;
      builder.add(s, e.col, e.value / lambda_out);
      off_diagonal += e.value / lambda_out;
    }
    const double self_loop = 1.0 - off_diagonal;
    if (self_loop > 0.0) builder.add(s, s, self_loop);
  }
  return builder.build();
}

TransientResult transient_distribution_checked(const core::RateMatrix& rates,
                                               const std::vector<double>& initial, double t,
                                               const TransientOptions& options) {
  obs::ScopedTimer timer("transient.distribution");
  obs::counter_add("transient.calls");
  require_distribution(rates, initial);
  require_time(t);
  TransientResult out;
  if (core::exactly_zero(t) || core::exactly_zero(rates.max_exit_rate())) {
    out.values = initial;  // nothing moves (t = 0 or every state absorbing)
    return out;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  // Fox-Glynn window and weights: only the [left, right] Poisson terms
  // carry mass above the tolerance; normalizing by the weight total keeps
  // the result an (eps-accurate) distribution. The row-vector product
  // p * P is the gather over P^T.
  return accumulate_series(P.transposed(), poisson_weights(fox_glynn(lambda * t, options.epsilon)),
                           initial, options, SteadyNorm::kL1);
}

std::vector<double> transient_distribution(const core::RateMatrix& rates,
                                           const std::vector<double>& initial, double t,
                                           const TransientOptions& options) {
  return transient_distribution_checked(rates, initial, t, options).values;
}

std::vector<double> transient_distribution_from(const core::RateMatrix& rates,
                                                core::StateIndex start, double t,
                                                const TransientOptions& options) {
  if (start >= rates.num_states()) {
    throw std::invalid_argument("transient_distribution_from: start state out of range");
  }
  std::vector<double> initial(rates.num_states(), 0.0);
  initial[start] = 1.0;
  return transient_distribution(rates, initial, t, options);
}

TransientResult transient_expectations(const core::RateMatrix& rates,
                                       std::vector<double> terminal, double t,
                                       const TransientOptions& options) {
  obs::ScopedTimer timer("transient.expectations");
  obs::counter_add("transient.calls");
  require_finite_vector(rates, terminal);
  require_time(t);
  if (core::exactly_zero(t) || core::exactly_zero(rates.max_exit_rate())) {
    TransientResult out;
    out.values = std::move(terminal);  // the chain never leaves its start
    return out;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  return accumulate_series(P, poisson_weights(fox_glynn(lambda * t, options.epsilon)),
                           std::move(terminal), options, SteadyNorm::kMax);
}

TransientResult transient_hit_probabilities(const core::RateMatrix& rates,
                                            const std::vector<bool>& target, double t,
                                            const TransientOptions& options) {
  if (target.size() != rates.num_states()) {
    throw std::invalid_argument("transient_hit_probabilities: target mask size mismatch");
  }
  std::vector<double> indicator(target.size(), 0.0);
  for (std::size_t s = 0; s < target.size(); ++s) {
    if (target[s]) indicator[s] = 1.0;
  }
  return transient_expectations(rates, std::move(indicator), t, options);
}

std::vector<double> expected_accumulated_rates(const core::RateMatrix& rates,
                                               std::vector<double> rate, double t,
                                               const TransientOptions& options) {
  obs::ScopedTimer timer("transient.accumulated_rates");
  obs::counter_add("transient.calls");
  require_finite_vector(rates, rate);
  require_time(t);
  const std::size_t n = rates.num_states();
  if (core::exactly_zero(t)) return std::vector<double>(n, 0.0);
  if (core::exactly_zero(rates.max_exit_rate())) {
    // Nothing moves: every start accrues its own rate for the whole horizon.
    for (double& r : rate) r *= t;
    return rate;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  const double mean = lambda * t;

  // The tail weights Pr{N_t >= k+1} / Lambda sum to E[N_t] / Lambda = t;
  // truncate once the remaining tail mass contributes less than epsilon * t.
  const PoissonTable poisson(mean);
  const std::size_t hard_cap =
      poisson_truncation_point(mean, options.epsilon / (mean + 1.0)) + 1;
  SeriesWeights series;
  for (std::size_t k = 0; k <= hard_cap; ++k) {
    const double weight = poisson.tail(k + 1) / lambda;
    if (weight <= 0.0) break;
    series.weights.push_back(weight);
  }
  if (series.weights.empty()) return std::vector<double>(n, 0.0);
  // The fold bound assumes weights summing to at most 1, which occupation
  // weights (summing to t) do not satisfy: this series always runs in full.
  TransientOptions full = options;
  full.detect_steady_state = false;
  return accumulate_series(P, series, std::move(rate), full, SteadyNorm::kMax).values;
}

}  // namespace csrlmrm::numeric
