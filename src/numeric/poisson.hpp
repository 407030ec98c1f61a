// Poisson probabilities for uniformization.
//
// The thesis computes Poisson weights with the simple recursion
// P_0 = e^{-Lambda t}, P_i = (Lambda t / i) P_{i-1} (section 4.6.2). That
// recursion underflows once e^{-Lambda t} does (Lambda*t beyond ~745), so the
// masses are evaluated pointwise in one of two forms, chosen by the mean:
//
//  * up to mean 40, in the log domain exp(n ln m - m - lgamma(n+1)); tests
//    pin it against the recursion. The exponent is a difference of terms of
//    size n ln m, so its rounding grows with the mean (a mass-weighted
//    relative error of ~1e-14 at mean 40, ~4e-13 at 745). The class DP
//    tabulates only means with e^{-mean} >= w, so at every w >= e^{-40}
//    (~4e-18) its P2 weights come from this form;
//  * past mean 40, in Loader's saddle-point form
//    exp(-stirlerr(n) - bd0(n, m)) / sqrt(2 pi n), whose deviance term bd0
//    is summed without cancellation: the relative error stays at a few ulp
//    at every mean (C. Loader, "Fast and accurate computation of binomial
//    probabilities", 2000).
//
// PoissonTable is the one Poisson source of every engine: the P1/P1' and
// R[C] series take their weights and their right truncation edge from it,
// and the class DP its per-level masses and eq. (4.6) tails.
#pragma once

#include <cstddef>
#include <vector>

namespace csrlmrm::numeric {

/// Pr{N = n} for N ~ Poisson(mean). mean must be >= 0 and finite (throws
/// std::invalid_argument otherwise); mean == 0 gives the point mass at 0.
double poisson_pmf(std::size_t n, double mean);

/// Immutable Poisson table for one fixed mean: the masses Pr{N = n} and the
/// CDF Pr{N <= n} for n = left() .. cap + 2, where cap = mean + 40
/// sqrt(mean + 1) + 64, past which the remaining mass is far below any
/// tolerance, and left() = max(0, mean - 40 sqrt(mean + 1)), below which
/// every mass underflows to 0. The table spans O(sqrt(mean)) entries; one
/// table serves a whole solve and is safe to share across threads without
/// synchronization.
class PoissonTable {
 public:
  /// Throws std::invalid_argument for a negative or non-finite mean, and —
  /// before allocating anything — when the table would exceed 2^26 entries
  /// (1 GiB for the two arrays; Lambda*t beyond about 7e11).
  explicit PoissonTable(double mean);

  /// The first tabulated index: 0 up to mean ~1600. Every mass below it
  /// underflows to 0.
  std::size_t left() const { return left_; }
  /// One past the last tabulated index (cap + 3).
  std::size_t size() const { return left_ + mass_.size(); }

  /// Pr{N = n}, bitwise equal to poisson_pmf(n, mean).
  double pmf(std::size_t n) const;
  /// Pr{N <= n}: the clamped running sum min(cdf(n-1) + pmf(n), 1).
  double cdf(std::size_t n) const;
  /// Pr{N >= n} = max(0, 1 - cdf(n-1)); tail(0) = 1.
  double tail(std::size_t n) const;
  /// The right truncation edge for tolerance epsilon in (0,1): the smallest
  /// n with sum_{k>n} pmf(k) <= epsilon. The tail is summed from the far end
  /// of the table, so it resolves tolerances far below the 1e-16 that
  /// 1 - cdf(n) can. Recorded in the `poisson.right` gauge.
  std::size_t right_edge(double epsilon) const;
  /// sum_{k=from}^{to} pmf(k), summed from `to` down to `from`.
  double mass_between(std::size_t from, std::size_t to) const;
  /// A bound on sum_n Pr{N = n} |relative rounding error of pmf(n)|: ~2e-15
  /// in the saddle-point form, 4u (m |ln m| + m + 4) in the log-domain form
  /// (u = 2^-53), checked against extended-precision masses in the tests.
  double mass_error() const;

 private:
  double mean_;
  std::size_t left_ = 0;
  std::vector<double> mass_;  // mass_[i] = Pr{N = left_ + i}
  std::vector<double> cdf_;   // cdf_[i] = Pr{N <= left_ + i}
};

}  // namespace csrlmrm::numeric
