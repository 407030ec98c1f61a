// Standard transient analysis of a CTMC by uniformization (eq. 2.2):
//
//   p(t) = sum_{i>=0} PoissonPmf(i; Lambda t) * p(0) * P^i
//
// truncated at the right edge R of the Poisson table (numeric/poisson.hpp):
// the masses PoissonPmf(0..R) are summed, and the mass beyond R plus twice
// the series' rounding bound is at most epsilon, so the interval
// [p - rounding, p + epsilon - rounding] holds the exact value. This is the
// workhorse for the P1 class of until formulas (time bound, no reward bound,
// Theorem 4.1 + [Bai03]) and the reference oracle several property tests
// compare the reward engines against.
//
// The checker answers every query with one BACKWARD series u = sum_k w_k
// P^k v (transient_expectations, expected_accumulated_rates): only the
// terminal vector v and the weights w_k differ between query types. The
// forward distribution API stays as the reference oracle tests and benches
// compare against.
//
// Every series ping-pongs two preallocated buffers (no per-term allocation)
// through the blocked SELL-C gather (linalg/blocked_csr.hpp), over P for the
// backward form and over P^T for the forward one. The gather accumulates
// every output entry in ascending source order, so results are bitwise
// identical at every thread count.
#pragma once

#include <vector>

#include "core/rate_matrix.hpp"
#include "linalg/csr_matrix.hpp"

namespace csrlmrm::numeric {

/// Options for the transient solver.
struct TransientOptions {
  /// Total error budget for the Poisson sum: the series stops at the right
  /// edge R with Pr{N > R} + 2 * (rounding bound) <= epsilon while the
  /// rounding bound allows (TransientResult::truncation_error).
  double epsilon = 1e-12;
  /// Worker threads for the series' matrix-vector products; 0 = the process
  /// default (CSRLMRM_THREADS or hardware concurrency).
  unsigned threads = 0;
  /// Steady-state detection (Malhotra '94 / Reibman-Trivedi '88 style): once
  /// successive series terms differ by delta with
  /// delta * (terms remaining) <= steady_epsilon, the remaining Poisson mass
  /// is folded into the current term in one axpy instead of advancing the
  /// series to the Poisson right edge, so depth stops scaling with
  /// Lambda*t on stiff models. The cut is sound — the contraction of the
  /// uniformized iteration bounds the per-state error by the reported
  /// TransientResult::steady_error <= steady_epsilon — but the folded result
  /// is numerically different from the full series, so detection is opt-in
  /// (off by default; paper-scale results stay bitwise unchanged).
  bool detect_steady_state = false;
  /// Absolute per-state error budget for the steady-state fold.
  double steady_epsilon = 1e-12;
};

/// A transient solve plus the accounting a sound interval verdict needs.
struct TransientResult {
  /// The per-state result vector (a distribution for the forward series,
  /// per-start expectations of the terminal vector for the backward series).
  std::vector<double> values;
  /// One-sided truncation loss per state (for entries of x_0 in [0,1], or a
  /// distribution): the Poisson mass past the right edge, epsilon minus
  /// twice the unit rounding bound, and never below epsilon / 4.
  double truncation_error = 0.0;
  /// Two-sided bound on the floating-point error per state: the rounding of
  /// the products, of the stored uniformized matrix, of the weighted sum and
  /// of the Poisson masses. The truth lies in
  /// [value - rounding_error - steady_error,
  ///  value + truncation_error + rounding_error + steady_error], an interval
  /// epsilon (+ 2 steady_error) wide until Lambda*t reaches the hundreds to
  /// thousands, depending on the row lengths.
  double rounding_error = 0.0;
  /// Bound on the additional two-sided per-state error introduced by the
  /// steady-state fold; 0.0 when detection is off or never fired.
  double steady_error = 0.0;
  /// True iff the series was cut by steady-state detection.
  bool steady_state_detected = false;
  /// Series terms actually accumulated (1 + the number of matrix products).
  std::size_t series_terms = 0;
};

/// State occupation probabilities at time t >= 0 starting from distribution
/// `initial` (must have one entry per state, sum 1 within 1e-6). Throws
/// std::invalid_argument on bad inputs.
std::vector<double> transient_distribution(const core::RateMatrix& rates,
                                           const std::vector<double>& initial, double t,
                                           const TransientOptions& options = {});

/// transient_distribution with the steady-state accounting exposed: the
/// distribution plus the fold error, detection flag, and term count. With
/// options.detect_steady_state == false the values are bitwise identical to
/// transient_distribution's.
TransientResult transient_distribution_checked(const core::RateMatrix& rates,
                                               const std::vector<double>& initial, double t,
                                               const TransientOptions& options = {});

/// The one backward uniformization series every checker query runs:
/// values[s] = E[ terminal(X(t)) | X(0) = s ] for EVERY state s, from one
/// column-vector series u_{k+1} = P u_k started at `terminal` — O(nnz *
/// terms) total, where the forward route costs one full series per start
/// state. `terminal` must be finite, one entry per state. For terminal
/// entries in [0,1] the per-state error is bounded by the reported
/// truncation_error (one-sided, lost mass), rounding_error (two-sided) and
/// steady_error (two-sided) when detection fires; the backward iteration contracts in the
/// max norm, which makes the steady-state criterion sound for any terminal
/// vector. Throws std::invalid_argument on bad inputs.
TransientResult transient_expectations(const core::RateMatrix& rates,
                                       std::vector<double> terminal, double t,
                                       const TransientOptions& options = {});

/// transient_expectations at the indicator of `target`: values[s] =
/// Pr{ X(t) is in `target` | X(0) = s }. For an absorbing target set (the P1
/// until transform M[!Phi v Psi]) this is the probability of reaching
/// `target` within t.
TransientResult transient_hit_probabilities(const core::RateMatrix& rates,
                                            const std::vector<bool>& target, double t,
                                            const TransientOptions& options = {});

/// Convenience: transient distribution started from a single state.
std::vector<double> transient_distribution_from(const core::RateMatrix& rates,
                                                core::StateIndex start, double t,
                                                const TransientOptions& options = {});

/// The uniformized one-step matrix P = I + Q/Lambda with Lambda = max exit
/// rate (1 for an all-absorbing chain); `lambda_out` receives Lambda. Shared
/// by the transient solver and the expected-reward measures.
linalg::CsrMatrix uniformized_transition_matrix(const core::RateMatrix& rates,
                                                double& lambda_out);

/// Expected accumulated rate E[ int_0^t rate(X(u)) du | X(0) = s ] for
/// every state s, from one backward series with the occupation-time weights
/// int_0^t PoissonPmf(k; Lambda u) du = Pr{N_t >= k+1} / Lambda:
///
///   values = sum_{k>=0} Pr{N_t >= k+1} / Lambda * P^k rate.
///
/// `rate` must be finite, one entry per state. The series stops one term
/// past the right edge of epsilon / (Lambda t + 1), so the lost occupation
/// mass is at most epsilon * t per state. rate = 1 gives t;
/// rate = e_j gives the expected occupation time of state j.
std::vector<double> expected_accumulated_rates(const core::RateMatrix& rates,
                                               std::vector<double> rate, double t,
                                               const TransientOptions& options = {});

/// expected_accumulated_rates with its rounding bound: values as above,
/// rounding_error the two-sided floating-point error per state (products,
/// stored matrix, weighted sum, and the 1 - cdf weights), which grows like
/// 2^-53 max|rate| t Lambda t; truncation_error stays 0 (the caller's
/// epsilon * t * max|rate| covers the lost occupation mass).
TransientResult expected_accumulated_rates_checked(const core::RateMatrix& rates,
                                                  std::vector<double> rate, double t,
                                                  const TransientOptions& options = {});

}  // namespace csrlmrm::numeric
