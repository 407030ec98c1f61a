#include "numeric/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

#include "core/approx.hpp"
#include "core/simd.hpp"

namespace csrlmrm::numeric {

namespace {
void require_valid_mean(double mean) {
  if (!(mean >= 0.0) || !std::isfinite(mean)) {
    throw std::invalid_argument("poisson: mean must be finite and >= 0");
  }
}

// std::lgamma writes the global `signgam` (a data race when the thread pool
// evaluates Poisson masses concurrently); the argument here is always >= 1,
// so the sign is irrelevant and the reentrant variant is safe to use.
double log_gamma(double x) {
#if defined(__GLIBC__) || defined(__APPLE__)
  int sign = 0;
  return ::lgamma_r(x, &sign);
#else
  // Non-glibc/Apple fallback only: no lgamma_r on this platform, and the
  // serial call sites tolerate the signgam write.
  return std::lgamma(x);  // lint:allow(unsafe-libm)
#endif
}

// Index past which Poisson mass is negligible for any tolerance the engines
// use; poisson_truncation_point bounds its scan with it, and PoissonTable
// covers it (plus two) so tail() queries never leave the precomputed range.
std::size_t poisson_hard_cap(double mean) {
  return static_cast<std::size_t>(mean + 40.0 * std::sqrt(mean + 1.0)) + 64;
}

}  // namespace

double poisson_pmf(std::size_t n, double mean) {
  require_valid_mean(mean);
  if (core::exactly_zero(mean)) return n == 0 ? 1.0 : 0.0;
  const double dn = static_cast<double>(n);
  return std::exp(dn * std::log(mean) - mean - log_gamma(dn + 1.0));
}

double poisson_cdf(std::size_t n, double mean) {
  require_valid_mean(mean);
  double acc = 0.0;
  for (std::size_t i = 0; i <= n; ++i) acc += poisson_pmf(i, mean);
  return std::min(acc, 1.0);
}

std::vector<double> poisson_pmf_sequence(std::size_t n_max, double mean) {
  require_valid_mean(mean);
  std::vector<double> pmf(n_max + 1, 0.0);
  if (core::exactly_zero(mean)) {  // point mass at 0; the log-domain fill would form 0*log(0)
    pmf[0] = 1.0;
    return pmf;
  }
  // Two-pass log-domain fill: the affine part n*log(mean) - mean is
  // vectorized (core::simd::fill_affine matches poisson_pmf's
  // `dn * std::log(mean) - mean` bit for bit, since x + (-m) == x - m in IEEE
  // arithmetic), then a scalar lgamma/exp pass, so each entry equals
  // poisson_pmf(i, mean) exactly.
  core::simd::fill_affine(pmf.data(), pmf.size(), 0, std::log(mean), -mean);
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    pmf[i] = std::exp(pmf[i] - log_gamma(static_cast<double>(i) + 1.0));
  }
  return pmf;
}

std::size_t poisson_truncation_point(double mean, double epsilon) {
  require_valid_mean(mean);
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("poisson_truncation_point: epsilon must be in (0,1)");
  }
  double cumulative = 0.0;
  std::size_t n = 0;
  // Accumulate until the captured mass reaches 1 - epsilon. The loop is
  // bounded: past the mode the masses decay faster than geometrically, so we
  // cap iterations generously relative to the mean.
  const std::size_t hard_cap = poisson_hard_cap(mean);
  for (;; ++n) {
    cumulative += poisson_pmf(n, mean);
    if (cumulative >= 1.0 - epsilon || n >= hard_cap) return n;
  }
}

PoissonTable::PoissonTable(double mean) : mean_(mean) {
  require_valid_mean(mean);
  mass_ = poisson_pmf_sequence(poisson_hard_cap(mean) + 2, mean);
  cdf_.resize(mass_.size());
  cdf_[0] = mass_[0];
  for (std::size_t i = 1; i < cdf_.size(); ++i) cdf_[i] = std::min(cdf_[i - 1] + mass_[i], 1.0);
}

double PoissonTable::pmf(std::size_t n) const {
  return n < mass_.size() ? mass_[n] : poisson_pmf(n, mean_);
}

double PoissonTable::cdf(std::size_t n) const {
  if (n < cdf_.size()) return cdf_[n];
  // Past the cap the remaining masses are summed on the fly, without
  // mutation, so concurrent readers stay race-free.
  double acc = cdf_.back();
  for (std::size_t i = cdf_.size(); i <= n; ++i) acc += poisson_pmf(i, mean_);
  return std::min(acc, 1.0);
}

double PoissonTable::tail(std::size_t n) const {
  if (n == 0) return 1.0;
  return std::max(0.0, 1.0 - cdf(n - 1));
}

}  // namespace csrlmrm::numeric
