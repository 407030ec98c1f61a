// Poisson probabilities for uniformization.
//
// The thesis computes Poisson weights with the simple recursion
// P_0 = e^{-Lambda t}, P_i = (Lambda t / i) P_{i-1} (section 4.6.2). That
// recursion underflows for Lambda*t beyond ~700, so all entry points here
// evaluate each mass in the log domain (n ln m - m - lgamma(n+1)), which is
// stable for any mean, and tests pin the two forms against each other where
// both are representable.
#pragma once

#include <cstddef>
#include <vector>

namespace csrlmrm::numeric {

/// Pr{N = n} for N ~ Poisson(mean). mean must be >= 0 and finite (throws
/// std::invalid_argument otherwise); mean == 0 gives the point mass at 0.
double poisson_pmf(std::size_t n, double mean);

/// Pr{N <= n}.
double poisson_cdf(std::size_t n, double mean);

/// The masses Pr{N = 0} .. Pr{N = n_max} as a vector of length n_max + 1.
std::vector<double> poisson_pmf_sequence(std::size_t n_max, double mean);

/// Smallest N such that Pr{N > N} <= epsilon, i.e. the right truncation
/// point for a uniformization sum with error tolerance epsilon in (0,1).
std::size_t poisson_truncation_point(double mean, double epsilon);

/// Immutable Poisson table for one fixed mean: the masses Pr{N = n} and the
/// CDF Pr{N <= n} for n = 0 .. cap + 2, where cap = mean + 40 sqrt(mean + 1)
/// + 64 is where poisson_truncation_point stops scanning. One table serves
/// a whole solve — the uniformization sweep's per-level masses, its eq. (4.6)
/// tails and the accumulated-reward series weights — and is safe to share
/// across threads without synchronization. Its size is linear in the mean,
/// so the class-DP engine builds one only past its exact level-0 cut
/// (mean <= -ln w).
class PoissonTable {
 public:
  explicit PoissonTable(double mean);

  /// Number of tabulated entries (cap + 3).
  std::size_t size() const { return cdf_.size(); }

  /// Pr{N = n}, bitwise equal to poisson_pmf(n, mean).
  double pmf(std::size_t n) const;
  /// Pr{N <= n}: the clamped running sum min(cdf(n-1) + pmf(n), 1).
  double cdf(std::size_t n) const;
  /// Pr{N >= n} = max(0, 1 - cdf(n-1)); tail(0) = 1.
  double tail(std::size_t n) const;

 private:
  double mean_;
  std::vector<double> mass_;  // mass_[i] = Pr{N = i}
  std::vector<double> cdf_;   // cdf_[i] = Pr{N <= i}
};

}  // namespace csrlmrm::numeric
