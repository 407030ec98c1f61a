#include "numeric/transient.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <functional>
#include <limits>
#include <stdexcept>
#include <utility>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "linalg/blocked_csr.hpp"
#include "numeric/poisson.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

constexpr double kUnitRoundoff = 0.5 * std::numeric_limits<double>::epsilon();

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

/// Body of every uniformization series: term_k = A^k x_0 through the blocked
/// gather over `gather` (P for the backward series, P^T for the forward
/// one), accumulated with weight(k) for k = 0..last and optionally cut once
/// successive iterates have stabilized; weight_after(i) is the weight
/// sum_{k=i+1}^{last} weight(k) the cut folds onto term i. With detection
/// off the operation sequence is the plain truncated sum.
TransientResult accumulate_series(const linalg::CsrMatrix& gather, std::size_t last,
                                  const std::function<double(std::size_t)>& weight,
                                  const std::function<double(std::size_t)>& weight_after,
                                  std::vector<double> initial, const TransientOptions& options,
                                  SteadyNorm norm) {
  const linalg::BlockedCsrMatrix blocked(gather);
  const unsigned threads =
      parallel::choose_thread_count(options.threads, gather.non_zeros() * (last + 1));
  TransientResult out;
  std::vector<double> term = std::move(initial);  // A^i * x_0
  std::vector<double> scratch(term.size(), 0.0);
  out.values.assign(term.size(), 0.0);
  for (std::size_t i = 0; i <= last; ++i) {
    ++out.series_terms;
    // Far-left masses underflow to exactly 0; adding 0 * term is a no-op.
    if (const double w = weight(i); w > 0.0) {
      core::simd::axpy(out.values.data(), term.data(), out.values.size(), w);
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
        // the whole remaining Poisson mass onto the current iterate therefore
        // closes the series with a per-state error of at most steady_error —
        // accounted into the caller's interval.
        core::simd::axpy(out.values.data(), term.data(), out.values.size(), weight_after(i));
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

/// A series without the steady-state cut runs one matrix product per term
/// out to its right edge, which lies past the mean: refuse a Lambda*t that
/// would take more than 2^26 products, before building anything.
void require_series_length(double mean, bool may_fold, const char* remedy) {
  constexpr double kMaxSeriesTerms = 1 << 26;
  if (may_fold || mean <= kMaxSeriesTerms) return;
  char message[256];
  std::snprintf(message, sizeof(message),
                "transient: Lambda*t = %.3g needs more than 2^26 series terms; %s", mean, remedy);
  throw std::invalid_argument(message);
}

/// The most stored entries in one row of `matrix`.
std::size_t max_row_entries(const linalg::CsrMatrix& matrix) {
  std::size_t most = 0;
  for (std::size_t r = 0; r < matrix.rows(); ++r) most = std::max(most, matrix.row(r).size());
  return most;
}

/// The transient series sum_{k=0}^{R} pmf(k) A^k x_0 with its error
/// accounting, per unit of the norm of x_0:
///  - rounding: every product rounds by at most n u (n = row_entries, the
///    most entries in a row of P or of the gather, u = 2^-53), and the stored
///    P differs from I + Q/Lambda by at most (n + 1) u in row norm; both pass
///    through the later non-expansive products, so term k is off by at most
///    (2n + 2) u k (the extra u covers second-order terms), and
///    sum_k pmf(k) k <= Lambda t. The weighted sum adds
///    (R + 2) u and the masses their own rounding (PoissonTable::mass_error);
///  - truncation: the right edge R keeps all but epsilon - 2 rounding of the
///    mass (at least epsilon / 4), so [p - rounding, p + truncation +
///    rounding] holds the truth and is epsilon wide while rounding stays
///    below 3 epsilon / 8.
/// The table spans O(sqrt(Lambda t)) entries.
TransientResult poisson_series(const linalg::CsrMatrix& gather, std::size_t row_entries,
                               double mean, std::vector<double> initial,
                               const TransientOptions& options, SteadyNorm norm) {
  require_series_length(mean, options.detect_steady_state,
                        "shorten the time bound or enable steady-state detection");
  const PoissonTable poisson(mean);
  const double rounding =
      kUnitRoundoff * (static_cast<double>(2 * row_entries + 2) * mean +
                       static_cast<double>(poisson.size() + 1)) +
      poisson.mass_error();
  const double truncation = std::max(options.epsilon - 2.0 * rounding, 0.25 * options.epsilon);
  double scale = 0.0;  // the norm of x_0
  for (const double x : initial) {
    scale = norm == SteadyNorm::kL1 ? scale + std::abs(x) : std::max(scale, std::abs(x));
  }
  const std::size_t last = poisson.right_edge(truncation);
  TransientResult out = accumulate_series(
      gather, last, [&poisson](std::size_t k) { return poisson.pmf(k); },
      [&poisson, last](std::size_t i) { return poisson.mass_between(i + 1, last); },
      std::move(initial), options, norm);
  out.truncation_error = truncation;
  out.rounding_error = rounding * scale;
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
  // The row-vector product p * P is the gather over P^T.
  const linalg::CsrMatrix gather = P.transposed();
  return poisson_series(gather, std::max(max_row_entries(P), max_row_entries(gather)), lambda * t,
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
  return poisson_series(P, max_row_entries(P), lambda * t, std::move(terminal), options,
                        SteadyNorm::kMax);
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

TransientResult expected_accumulated_rates_checked(const core::RateMatrix& rates,
                                                  std::vector<double> rate, double t,
                                                  const TransientOptions& options) {
  obs::ScopedTimer timer("transient.accumulated_rates");
  obs::counter_add("transient.calls");
  require_finite_vector(rates, rate);
  require_time(t);
  const std::size_t n = rates.num_states();
  TransientResult out;
  if (core::exactly_zero(t)) {
    out.values.assign(n, 0.0);
    return out;
  }
  if (core::exactly_zero(rates.max_exit_rate())) {
    // Nothing moves: every start accrues its own rate for the whole horizon.
    for (double& r : rate) r *= t;
    out.values = std::move(rate);
    return out;
  }

  double lambda = 0.0;
  const linalg::CsrMatrix P = uniformized_transition_matrix(rates, lambda);
  const double mean = lambda * t;

  // The tail weights Pr{N_t >= k+1} / Lambda sum to E[N_t] / Lambda = t.
  // Past the right edge R of epsilon / (Lambda t + 1) the dropped weights
  // sum to E[(N_t - R - 2)^+] / Lambda <= t Pr{N_t > R + 1}, well under
  // epsilon * t; the series also ends where 1 - cdf rounds to 0.
  require_series_length(mean, false, "shorten the time bound");
  const PoissonTable poisson(mean);
  if (poisson.tail(1) <= 0.0) {
    out.values.assign(n, 0.0);
    return out;
  }
  std::size_t last = poisson.right_edge(options.epsilon / (mean + 1.0)) + 1;
  while (poisson.tail(last + 1) <= 0.0) --last;
  double scale = 0.0;  // max |rate|
  for (const double r : rate) scale = std::max(scale, std::abs(r));
  // The fold bound assumes weights summing to at most 1, which occupation
  // weights (summing to t) do not satisfy: this series always runs in full.
  TransientOptions full = options;
  full.detect_steady_state = false;
  out = accumulate_series(
      P, last, [&poisson, lambda](std::size_t k) { return poisson.tail(k + 1) / lambda; },
      nullptr, std::move(rate), full, SteadyNorm::kMax);
  // Rounding, as for poisson_series: term k is off by (2n + 2) u k and
  // sum_k k Pr{N >= k+1} / Lambda = t m / 2; the weighted sum adds (R + 2) u t;
  // each weight 1 - cdf(k) carries the (k + 2) u of its running sum and the
  // masses' own rounding, which sum to ((R + 2)^2 u / 2 + (R + 2) e) / Lambda.
  const double entries = static_cast<double>(max_row_entries(P));
  const double terms = static_cast<double>(last + 2);
  out.rounding_error = scale * (kUnitRoundoff * ((entries + 1.0) * t * mean + terms * t +
                                                 0.5 * terms * terms / lambda) +
                                terms * poisson.mass_error() / lambda);
  return out;
}

std::vector<double> expected_accumulated_rates(const core::RateMatrix& rates,
                                               std::vector<double> rate, double t,
                                               const TransientOptions& options) {
  return expected_accumulated_rates_checked(rates, std::move(rate), t, options).values;
}

}  // namespace csrlmrm::numeric
