#include "numeric/discretization.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>
#include <string>

#include "core/approx.hpp"
#include "core/simd.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"

namespace csrlmrm::numeric {

namespace {

bool is_integral(double v, double scale = 1.0) {
  return std::abs(v - std::round(v)) <= 1e-9 * std::max(1.0, std::abs(scale));
}

}  // namespace

unsigned find_integer_scale(const std::vector<double>& values, unsigned max_scale) {
  for (unsigned f = 1; f <= max_scale; ++f) {
    bool all_integral = true;
    for (double v : values) {
      if (!is_integral(v * f, v * f)) {
        all_integral = false;
        break;
      }
    }
    if (all_integral) return f;
  }
  throw std::domain_error(
      "find_integer_scale: no integer factor <= " + std::to_string(max_scale) +
      " makes the state rewards integral; rescale the reward structure manually");
}

namespace {

/// The dimensions of one sweep, validated by make_grid.
struct Grid {
  double step = 0.0;
  double max_exit = 0.0;
  std::size_t time_steps = 0;
  std::size_t levels = 0;
  unsigned scale = 1;
  /// rho(s) in levels: the advance per time step of residence in s.
  std::vector<std::size_t> residence_shift;
};

void check_arguments(const core::Mrm& transformed, const std::vector<bool>& psi, double t,
                     double step) {
  if (psi.size() != transformed.num_states()) {
    throw std::invalid_argument("discretization: psi mask size mismatch");
  }
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("discretization: t and r must be finite and >= 0");
  }
  if (!(step > 0.0) || !std::isfinite(step)) {
    throw std::invalid_argument("discretization: step must be positive");
  }
}

void check_reward_bound(double r) {
  if (!(r >= 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument("discretization: t and r must be finite and >= 0");
  }
}

/// Number of reward levels 0..R for bound r: floor(r * scale / d) + 1.
double level_count(double r, double fscale, double d) {
  return std::floor(r * fscale / d + 1e-9) + 1.0;
}

/// Validates step, horizon, reward scale and grid size for a sweep with
/// reward bound r (t > 0).
Grid make_grid(const core::Mrm& transformed, double t, double r,
               const DiscretizationOptions& options) {
  Grid grid;
  const std::size_t n = transformed.num_states();
  const double d = options.step;
  grid.step = d;
  grid.max_exit = transformed.rates().max_exit_rate();
  if (grid.max_exit * d >= 1.0) {
    throw std::invalid_argument("discretization: step too large (d * max exit rate = " +
                                std::to_string(grid.max_exit * d) + " >= 1); choose d < " +
                                std::to_string(1.0 / grid.max_exit));
  }
  if (!is_integral(t / d, t / d)) {
    throw std::invalid_argument("discretization: t must be an integer multiple of the step d");
  }
  grid.time_steps = static_cast<std::size_t>(std::llround(t / d));

  // Scale rational state rewards (and with them the impulses and the bound)
  // to integers, as section 4.4.1 prescribes.
  grid.scale = find_integer_scale(transformed.state_rewards(), options.max_reward_scale);
  const double fscale = static_cast<double>(grid.scale);
  grid.residence_shift.assign(n, 0);
  for (core::StateIndex s = 0; s < n; ++s) {
    grid.residence_shift[s] =
        static_cast<std::size_t>(std::llround(transformed.state_reward(s) * fscale));
  }

  // Grid sizing, checked in floating point *before* the integer cast: a
  // large r or tiny d would overflow the cast and/or attempt an n * levels
  // allocation far beyond memory, dying with bad_alloc instead of a
  // diagnosis.
  const double levels_estimate = level_count(r, fscale, d);
  const double cells_estimate = static_cast<double>(n) * levels_estimate;
  if (!(cells_estimate <= static_cast<double>(options.max_grid_cells))) {
    throw std::invalid_argument(
        "discretization: reward grid of " + std::to_string(n) + " states x " +
        std::to_string(levels_estimate) +
        " levels exceeds max_grid_cells = " + std::to_string(options.max_grid_cells) +
        "; choose a larger step d, a smaller reward bound r, or the uniformization engine");
  }
  grid.levels = static_cast<std::size_t>(levels_estimate);
  return grid;
}

/// The backward sweep: returns V^{T-1} as n rows of grid.levels values
/// (row s at s * levels), exact below `read_limit`, the only levels the
/// caller reads.
std::vector<double> backward_sweep(const core::Mrm& transformed, const std::vector<bool>& psi,
                                   const Grid& grid, std::size_t read_limit,
                                   const DiscretizationOptions& options) {
  const std::size_t n = transformed.num_states();
  const std::size_t levels = grid.levels;
  const double d = grid.step;
  const double fscale = static_cast<double>(grid.scale);
  const auto& residence_shift = grid.residence_shift;

  // Outgoing adjacency per source state, flattened: (target, R(s,target)*d,
  // level shift = rho(s) + iota(s,target)/d). Arcs whose shift reaches the
  // level cap can never reach a level inside the grid, so they are dropped
  // here instead of being re-tested every time step.
  struct Outgoing {
    core::StateIndex target;
    double probability;  // R(s,s') * d
    std::size_t shift;   // residence + impulse levels consumed
  };
  std::vector<std::size_t> first_arc(n + 1, 0);
  std::vector<Outgoing> arcs;
  arcs.reserve(transformed.rates().matrix().non_zeros());
  for (core::StateIndex s = 0; s < n; ++s) {
    for (const auto& e : transformed.rates().transitions(s)) {
      const double impulse = transformed.impulse_reward(s, e.col);
      const double impulse_levels = impulse * fscale / d;
      if (!is_integral(impulse_levels, impulse_levels)) {
        throw std::invalid_argument(
            "discretization: impulse reward " + std::to_string(impulse) +
            " is not a multiple of the (scaled) step; choose d dividing the impulse rewards");
      }
      const std::size_t shift =
          residence_shift[s] + static_cast<std::size_t>(std::llround(impulse_levels));
      if (shift >= levels) continue;
      arcs.push_back({e.col, e.value * d, shift});
    }
    first_arc[s + 1] = arcs.size();
  }

  // Invariant per-state factors, hoisted out of the time loop: the stay
  // probability 1 - E(s) d and whether the residence term can read a level
  // inside the grid at all (positive stay probability, shift below the cap).
  std::vector<double> stay(n, 0.0);
  std::vector<char> residence_active(n, 0);
  for (core::StateIndex s = 0; s < n; ++s) {
    stay[s] = 1.0 - transformed.rates().exit_rate(s) * d;
    residence_active[s] = stay[s] > 0.0 && residence_shift[s] < levels;
  }

  // Level window: V^{T-1} is read below read_limit, and each step reads at
  // most max_shift levels above the level it writes, so with `remaining`
  // steps still to go only the levels below read_limit + remaining *
  // max_shift can reach an answer. Computing just that prefix of every row
  // evaluates each kept level by the very same operations, so the answers
  // are bitwise those of the full-width sweep. The window grows back to the
  // full grid once the horizon is long enough to cross it.
  std::size_t max_shift = 0;
  for (core::StateIndex s = 0; s < n; ++s) {
    if (residence_active[s]) max_shift = std::max(max_shift, residence_shift[s]);
  }
  for (const Outgoing& out : arcs) max_shift = std::max(max_shift, out.shift);
  const auto window = [&](std::size_t remaining) {
    if (max_shift > 0 && remaining > levels / max_shift) return levels;
    return std::min(levels, read_limit + remaining * max_shift);
  };

  // cur[s * levels + k] = V^j(s,k); V^0 is 1 on every level of the Psi rows.
  std::vector<double> cur(n * levels, 0.0);
  std::vector<double> next(n * levels, 0.0);
  // Conservative per-state emptiness of the current rows: a row only becomes
  // nonzero by reading a nonzero row, so propagating one boolean per state
  // along the same residence/outgoing structure (O(degree) per row, not
  // O(levels)) lets the sweep skip every shifted-add read from a still-empty
  // row. All grid entries are non-negative, so skipping an empty row only
  // omits += 0.0 terms and the result stays bitwise-identical. Rows of
  // states that cannot reach Psi stay empty for the whole sweep.
  std::vector<char> row_nonzero(n, 0);
  std::vector<char> next_nonzero(n, 0);
  for (core::StateIndex s = 0; s < n; ++s) {
    if (!psi[s]) continue;
    std::fill(cur.data() + s * levels, cur.data() + (s + 1) * levels, 1.0);
    row_nonzero[s] = 1;
  }

  // The level sweep: each state's next row is written by exactly one task,
  // in residence-then-outgoing order, so the parallel sweep is
  // bitwise-identical to the serial one for every thread count.
  const std::size_t non_zeros = transformed.rates().matrix().non_zeros();
  const unsigned threads = parallel::choose_thread_count(
      options.threads, n > 0 ? grid.time_steps * levels * (1 + non_zeros / n) : 0);
  for (std::size_t step = 1; step < grid.time_steps; ++step) {
    const std::size_t width = window(grid.time_steps - 1 - step);
    parallel::parallel_for(n, threads, [&](std::size_t begin, std::size_t end) {
      for (core::StateIndex s = begin; s < end; ++s) {
        double* next_row = next.data() + s * levels;
        char touched = 0;
        // Residence term: stay in s, consuming rho(s) more levels; levels
        // whose read would leave the grid are 0.
        if (residence_active[s] && row_nonzero[s]) {
          const std::size_t count = std::min(width, levels - residence_shift[s]);
          core::simd::scale(next_row, cur.data() + s * levels + residence_shift[s], count,
                            stay[s]);
          std::fill(next_row + count, next_row + width, 0.0);
          touched = 1;
        } else {
          std::fill(next_row, next_row + width, 0.0);
        }
        // Transition terms: jump to s', consuming rho(s) + iota levels.
        for (std::size_t a = first_arc[s]; a < first_arc[s + 1]; ++a) {
          const Outgoing& out = arcs[a];
          if (!row_nonzero[out.target]) continue;
          core::simd::axpy(next_row, cur.data() + out.target * levels + out.shift,
                           std::min(width, levels - out.shift), out.probability);
          touched = 1;
        }
        next_nonzero[s] = touched;
      }
    });
    cur.swap(next);
    row_nonzero.swap(next_nonzero);
  }

  obs::counter_add("discretization.time_steps", grid.time_steps);
  obs::gauge_max("discretization.reward_levels", static_cast<double>(levels));
  obs::gauge_max("discretization.reward_scale", static_cast<double>(grid.scale));
  return cur;
}

/// Shared result fields of a sweep on `grid` up to horizon t.
UntilDiscretizationResult sweep_result(const Grid& grid, double t) {
  UntilDiscretizationResult result;
  // O(d) error band (see UntilDiscretizationResult::error_bound): discarded
  // multi-jump mass per step plus one step of boundary quantization.
  result.error_bound = std::min(
      1.0, 0.5 * t * grid.max_exit * grid.max_exit * grid.step + grid.max_exit * grid.step);
  result.time_steps = grid.time_steps;
  result.reward_levels = grid.levels;
  result.reward_scale = grid.scale;
  return result;
}

}  // namespace

UntilDiscretizationResult until_probabilities_discretization(
    const core::Mrm& transformed, const std::vector<bool>& psi, double t, double r,
    const DiscretizationOptions& options) {
  obs::ScopedTimer timer("discretization.until");
  obs::counter_add("discretization.calls");
  const std::size_t n = transformed.num_states();
  check_arguments(transformed, psi, t, options.step);
  check_reward_bound(r);
  if (core::exactly_zero(t)) {
    UntilDiscretizationResult result;
    result.probabilities.assign(psi.begin(), psi.end());
    return result;
  }

  const Grid grid = make_grid(transformed, t, r, options);
  std::size_t read_limit = 0;
  for (const std::size_t level : grid.residence_shift) {
    if (level < grid.levels) read_limit = std::max(read_limit, level + 1);
  }
  const std::vector<double> values = backward_sweep(transformed, psi, grid, read_limit, options);
  UntilDiscretizationResult result = sweep_result(grid, t);
  result.probabilities.assign(n, 0.0);
  for (core::StateIndex s = 0; s < n; ++s) {
    const std::size_t level = grid.residence_shift[s];
    if (level < grid.levels) result.probabilities[s] = values[s * grid.levels + level];
  }
  return result;
}

UntilDiscretizationResult reward_cdf_discretization(const core::Mrm& transformed,
                                                    const std::vector<bool>& psi,
                                                    core::StateIndex start, double t,
                                                    const std::vector<double>& reward_bounds,
                                                    const DiscretizationOptions& options) {
  obs::ScopedTimer timer("discretization.until");
  obs::counter_add("discretization.calls");
  check_arguments(transformed, psi, t, options.step);
  if (start >= transformed.num_states()) {
    throw std::invalid_argument("discretization: start out of range");
  }
  double r_max = 0.0;
  for (const double r : reward_bounds) {
    check_reward_bound(r);
    r_max = std::max(r_max, r);
  }
  if (reward_bounds.empty()) return {};
  if (core::exactly_zero(t)) {
    UntilDiscretizationResult result;
    result.probabilities.assign(reward_bounds.size(), psi[start] ? 1.0 : 0.0);
    return result;
  }

  const Grid grid = make_grid(transformed, t, r_max, options);
  const double fscale = static_cast<double>(grid.scale);
  std::vector<std::size_t> bound_levels;
  for (const double r : reward_bounds) {
    bound_levels.push_back(static_cast<std::size_t>(level_count(r, fscale, grid.step)));
  }
  // Bound r_i is read at level rho(start) + L_max - L_i; the smallest bound
  // reads highest.
  const std::size_t level = grid.residence_shift[start];
  const std::size_t fewest = *std::min_element(bound_levels.begin(), bound_levels.end());
  const std::size_t read_limit = std::min(grid.levels, level + grid.levels - fewest + 1);
  const std::vector<double> values = backward_sweep(transformed, psi, grid, read_limit, options);
  UntilDiscretizationResult result = sweep_result(grid, t);
  for (const std::size_t levels : bound_levels) {
    result.probabilities.push_back(
        level < levels ? values[start * grid.levels + level + grid.levels - levels] : 0.0);
  }
  return result;
}

}  // namespace csrlmrm::numeric
