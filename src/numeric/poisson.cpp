#include "numeric/poisson.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <stdexcept>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::numeric {

namespace {

// The largest table PoissonTable builds, in entries.
constexpr double kMaxTableEntries = 1 << 26;

// Standard deviations a table reaches on either side of its mean: the left
// and right tails past 40 sigma are below e^{-799}, which underflows.
constexpr double kReachSigmas = 40.0;

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

// The log-domain form serves means up to 40: every table the class DP
// builds at w >= e^{-40} ~ 4e-18 (it tabulates only means with
// e^{-mean} >= w; the checker's default w is 1e-8), so those P2 weights keep
// their bits. Past it the form's rounding would pass 1e-13 and the
// saddle-point form takes over.
constexpr double kLogFormMaxMean = 40.0;

bool log_domain_form(double mean) { return mean <= kLogFormMaxMean; }

constexpr double kUnitRoundoff = 0.5 * std::numeric_limits<double>::epsilon();

/// stirlerr(n) = ln n! - (n + 1/2) ln n + n - ln sqrt(2 pi), n >= 1: the
/// asymptotic series past 15, where it converges to a few ulp.
double stirling_error(double n) {
  constexpr double kS0 = 1.0 / 12.0;
  constexpr double kS1 = 1.0 / 360.0;
  constexpr double kS2 = 1.0 / 1260.0;
  constexpr double kS3 = 1.0 / 1680.0;
  constexpr double kS4 = 1.0 / 1188.0;
  if (n <= 15.0) {
    constexpr double kLogSqrtTwoPi = 0.91893853320467274178;
    return log_gamma(n + 1.0) - (n + 0.5) * std::log(n) + n - kLogSqrtTwoPi;
  }
  const double nn = n * n;
  if (n > 500.0) return (kS0 - kS1 / nn) / n;
  if (n > 80.0) return (kS0 - (kS1 - kS2 / nn) / nn) / n;
  if (n > 35.0) return (kS0 - (kS1 - (kS2 - kS3 / nn) / nn) / nn) / n;
  return (kS0 - (kS1 - (kS2 - (kS3 - kS4 / nn) / nn) / nn) / nn) / n;
}

/// bd0(x, m) = x ln(x / m) + m - x >= 0. Near x = m it is a difference of
/// nearly equal terms, so there it is summed as the series
/// (x - m) v + 2x sum_j v^{2j+1} / (2j + 1) with v = (x - m) / (x + m).
double deviance(double x, double mean) {
  if (std::abs(x - mean) < 0.1 * (x + mean)) {
    double v = (x - mean) / (x + mean);
    double sum = (x - mean) * v;
    double term = 2.0 * x * v;
    v *= v;
    for (int j = 1; j < 1000; ++j) {
      term *= v;
      const double next = sum + term / (2 * j + 1);
      if (next == sum) break;
      sum = next;
    }
    return sum;
  }
  return x * std::log(x / mean) + mean - x;
}

double saddle_point_pmf(std::size_t n, double mean) {
  if (n == 0) return std::exp(-mean);
  constexpr double kTwoPi = 6.283185307179586477;
  const double dn = static_cast<double>(n);
  return std::exp(-stirling_error(dn) - deviance(dn, mean)) / std::sqrt(kTwoPi * dn);
}

/// The masses Pr{N = first} .. Pr{N = last}, each equal to
/// poisson_pmf(n, mean).
std::vector<double> poisson_pmf_sequence(std::size_t first, std::size_t last, double mean) {
  std::vector<double> pmf(last - first + 1, 0.0);
  if (core::exactly_zero(mean)) {  // point mass at 0; the log-domain fill would form 0*log(0)
    pmf[0] = 1.0;
    return pmf;
  }
  if (!log_domain_form(mean)) {
    for (std::size_t i = 0; i < pmf.size(); ++i) pmf[i] = saddle_point_pmf(first + i, mean);
    return pmf;
  }
  // Two-pass log-domain fill: the affine part n*log(mean) - mean is
  // vectorized (core::simd::fill_affine matches poisson_pmf's
  // `dn * std::log(mean) - mean` bit for bit, since x + (-m) == x - m in IEEE
  // arithmetic), then a scalar lgamma/exp pass, so each entry equals
  // poisson_pmf(n, mean) exactly.
  core::simd::fill_affine(pmf.data(), pmf.size(), first, std::log(mean), -mean);
  for (std::size_t i = 0; i < pmf.size(); ++i) {
    pmf[i] = std::exp(pmf[i] - log_gamma(static_cast<double>(first + i) + 1.0));
  }
  return pmf;
}

}  // namespace

double poisson_pmf(std::size_t n, double mean) {
  require_valid_mean(mean);
  if (core::exactly_zero(mean)) return n == 0 ? 1.0 : 0.0;
  if (!log_domain_form(mean)) return saddle_point_pmf(n, mean);
  const double dn = static_cast<double>(n);
  return std::exp(dn * std::log(mean) - mean - log_gamma(dn + 1.0));
}

PoissonTable::PoissonTable(double mean) : mean_(mean) {
  require_valid_mean(mean);
  // The table spans mean -+ 40 sqrt(mean + 1), plus 64 + 2 entries on the
  // right, so tail() queries never leave the precomputed range. The width
  // is checked in closed form first: at a mean of 1e300 the two ends would
  // round to the same double.
  const double reach = kReachSigmas * std::sqrt(mean + 1.0);
  if (2.0 * reach + 67.0 > kMaxTableEntries) {
    char message[256];
    std::snprintf(message, sizeof(message),
                  "poisson: Lambda*t = %.3g needs a Poisson table of %.3g entries, over the "
                  "limit of 2^26 (Lambda*t up to about 7e11); shorten the time bound",
                  mean, 2.0 * reach + 67.0);
    throw std::invalid_argument(message);
  }
  obs::counter_add("poisson.tables");
  left_ = mean > reach ? static_cast<std::size_t>(mean - reach) : 0;
  mass_ = poisson_pmf_sequence(left_, static_cast<std::size_t>(mean + reach) + 64 + 2, mean);
  cdf_.resize(mass_.size());
  cdf_[0] = mass_[0];
  for (std::size_t i = 1; i < cdf_.size(); ++i) cdf_[i] = std::min(cdf_[i - 1] + mass_[i], 1.0);
}

double PoissonTable::pmf(std::size_t n) const {
  if (n < left_) return 0.0;
  return n < size() ? mass_[n - left_] : poisson_pmf(n, mean_);
}

double PoissonTable::cdf(std::size_t n) const {
  if (n < left_) return 0.0;
  if (n < size()) return cdf_[n - left_];
  // Past the cap the remaining masses are summed on the fly, without
  // mutation, so concurrent readers stay race-free.
  double acc = cdf_.back();
  for (std::size_t i = size(); i <= n; ++i) acc += poisson_pmf(i, mean_);
  return std::min(acc, 1.0);
}

double PoissonTable::tail(std::size_t n) const {
  if (n == 0) return 1.0;
  return std::max(0.0, 1.0 - cdf(n - 1));
}

std::size_t PoissonTable::right_edge(double epsilon) const {
  if (!(epsilon > 0.0) || !(epsilon < 1.0)) {
    throw std::invalid_argument("poisson: right_edge epsilon must be in (0,1)");
  }
  // Walk down from the far end while the mass above n stays within epsilon.
  std::size_t n = size() - 1;
  double above = 0.0;  // sum_{k>n} pmf(k)
  while (n > left_ && above + mass_[n - left_] <= epsilon) {
    above += mass_[n - left_];
    --n;
  }
  obs::gauge_max("poisson.right", static_cast<double>(n));
  return n;
}

double PoissonTable::mass_error() const {
  if (core::exactly_zero(mean_)) return 0.0;
  if (!log_domain_form(mean_)) return 16.0 * kUnitRoundoff;
  // exp(x) with x = n ln m - m - lgamma(n+1) carries the rounding of terms
  // of size ~n |ln m|, n and m; weighted by the masses, n averages to m.
  return 4.0 * kUnitRoundoff * (mean_ * std::abs(std::log(mean_)) + mean_ + 4.0);
}

double PoissonTable::mass_between(std::size_t from, std::size_t to) const {
  double sum = 0.0;
  for (std::size_t k = to + 1; k-- > std::max(from, left_);) sum += pmf(k);
  return sum;
}

}  // namespace csrlmrm::numeric
