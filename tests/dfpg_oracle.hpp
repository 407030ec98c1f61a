// Reference oracle for the uniformization engine: depth-first path
// generation (Algorithm 4.7) with the a-priori error bound for truncated
// paths (eq. 4.6), as the thesis appendix's tool runs it. The checker's one
// uniformization engine is the signature-class DP of
// numeric/class_explorer.hpp; both compute a lower approximation p with
// p <= p_exact <= p + error_bound, so on every model they must agree within
// the sum of their reported bounds.
//
// The engine works on an MRM that has *already* been transformed by
// make_absorbing(Sat(!Phi) u Sat(Psi)) (Theorems 4.1/4.3), so
//
//   P(s, Phi U_[0,r]^[0,t] Psi) = Pr{ Y(t) <= r, X(t) |= Psi }
//     ~  sum over truncated uniformized paths ending in a Psi-state of
//        P(sigma, t) * Pr{ Y(t) <= r | n, k, j }.
//
// Paths are classified by their reward signature: k counts Poisson-epoch
// residences per distinct-state-reward class, j counts transitions per
// distinct-impulse class. Probabilities of same-signature paths are summed
// before the conditional probability (an Omega evaluation) is applied — the
// recomputation-avoidance the thesis describes at the end of 4.4.2. The
// oracle also keeps the thesis's two ablation knobs: per-path Omega
// evaluation (aggregate_signatures off) and depth truncation N (eq. 4.3).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "core/approx.hpp"
#include "core/labels.hpp"
#include "core/mrm.hpp"
#include "numeric/class_explorer.hpp"
#include "numeric/conditional.hpp"
#include "numeric/poisson.hpp"
#include "numeric/signature_model.hpp"
#include "obs/stats.hpp"

namespace csrlmrm::oracle {

/// The engine options plus the oracle's two ablation knobs. max_nodes counts
/// DFS node expansions; threads is ignored (the DFS is serial).
struct DfpgOptions : numeric::PathExplorerOptions {
  /// Depth truncation N (eq. 4.3): additionally cut every path after N
  /// transitions, accounting the discarded mass in the error bound. 0
  /// disables it (pure path truncation, eq. 4.4/4.5 — the thesis's
  /// preferred mode). Both truncations may be combined.
  std::size_t depth_truncation = 0;
  /// Sum probabilities per (k, j) signature before calling Omega (the
  /// paper's optimization). Off = one Omega evaluation per stored path;
  /// results are identical, only cost differs (ablation knob).
  bool aggregate_signatures = true;
};

namespace detail {

/// Hash for a concatenated (k, j) signature vector.
struct SignatureHash {
  std::size_t operator()(const std::vector<std::uint32_t>& v) const noexcept {
    std::size_t h = 1469598103934665603ull;
    for (std::uint32_t x : v) {
      h ^= x;
      h *= 1099511628211ull;
    }
    return h;
  }
};

}  // namespace detail

/// DFPG for P2-class until formulas on one transformed MRM. Construct once
/// per formula; query per starting state / bound.
class DfpgUntilEngine {
 public:
  /// `transformed` is M[!Phi v Psi] (taken by value: the engine keeps its own
  /// copy so callers may discard theirs). `psi` marks Sat(Psi); `dead` marks
  /// the states satisfying neither Phi nor Psi, from which the formula is
  /// unsatisfiable (exploration cuts there without contributing error).
  /// Masks must match the state count.
  DfpgUntilEngine(core::Mrm transformed, std::vector<bool> psi, std::vector<bool> dead)
      : sig_(std::move(transformed), std::move(psi), std::move(dead)) {}

  DfpgUntilEngine(const DfpgUntilEngine&) = delete;
  DfpgUntilEngine& operator=(const DfpgUntilEngine&) = delete;

  /// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } from `start`. Requires t >= 0
  /// finite and r >= 0 finite; t = 0 short-circuits to the indicator of
  /// start |= Psi.
  numeric::UntilUniformizationResult compute(core::StateIndex start, double t, double r,
                                             const DfpgOptions& options = {}) const;

  /// The distinct state rewards r_1 > ... > r_{K+1} of the transformed model.
  const std::vector<double>& distinct_state_rewards() const {
    return sig_.distinct_state_rewards;
  }
  /// The distinct impulse rewards i_1 > ... > i_J (always containing 0, the
  /// impulse of uniformization self-loops).
  const std::vector<double>& distinct_impulse_rewards() const {
    return sig_.distinct_impulse_rewards;
  }
  /// The uniformization rate Lambda.
  double lambda() const { return sig_.uniformized.lambda(); }

 private:
  numeric::SignatureModel sig_;
};

inline numeric::UntilUniformizationResult DfpgUntilEngine::compute(
    core::StateIndex start, double t, double r, const DfpgOptions& options) const {
  using namespace numeric;
  obs::ScopedTimer timer("uniformization.until");
  obs::counter_add("uniformization.calls");
  const std::size_t n = sig_.model.num_states();
  if (start >= n) {
    throw std::invalid_argument("DfpgUntilEngine::compute: start out of range");
  }
  if (!(t >= 0.0) || !std::isfinite(t)) {
    throw std::invalid_argument("DfpgUntilEngine::compute: t must be finite, >= 0");
  }
  if (!(r >= 0.0) || !std::isfinite(r)) {
    throw std::invalid_argument("DfpgUntilEngine::compute: r must be finite, >= 0");
  }
  if (!(options.truncation_probability > 0.0) || !(options.truncation_probability < 1.0)) {
    throw std::invalid_argument(
        "DfpgUntilEngine::compute: truncation probability must be in (0,1)");
  }

  UntilUniformizationResult result;
  if (sig_.dead[start]) return result;
  if (core::exactly_zero(t)) {
    // inf(I) = inf(J) = 0: the formula holds immediately iff start |= Psi.
    result.probability = sig_.psi[start] ? 1.0 : 0.0;
    return result;
  }

  const double mean = sig_.uniformized.lambda() * t;
  const double log_mean = std::log(mean);
  const double log_w = std::log(options.truncation_probability);
  const PoissonTable poisson(mean);

  const std::size_t num_k = sig_.distinct_state_rewards.size();
  const std::size_t num_j = sig_.distinct_impulse_rewards.size();
  RewardStructureContext context(sig_.distinct_state_rewards, sig_.distinct_impulse_rewards);

  // signature = k ++ j, accumulated path probability P(sigma, t).
  std::unordered_map<std::vector<std::uint32_t>, double, detail::SignatureHash> classes;
  std::vector<std::uint32_t> signature(num_k + num_j, 0);

  // log P(sigma, t) = log_poisson(n) + sum of log 1-step probabilities; we
  // carry the two addends separately so the error bound can recover
  // P(sigma) = exp(log_weight) without dividing tiny numbers.
  struct Frame {
    core::StateIndex state;
    std::size_t depth;        // n = number of transitions taken
    double log_poisson;       // log PoissonPmf(depth; mean)
    double log_weight;        // log prod of 1-step probabilities
  };

  std::size_t nodes = 0;
  std::size_t visited = 0;

  // Recursive lambda via explicit Y-combinator style to keep undo logic tight.
  auto explore = [&](auto&& self, const Frame& frame) -> void {
    ++visited;
    if (sig_.dead[frame.state]) return;  // (!Phi && !Psi): unsatisfiable, exact cut
    const double log_p = frame.log_poisson + frame.log_weight;
    const bool too_deep =
        options.depth_truncation != 0 && frame.depth > options.depth_truncation;
    if (log_p < log_w || too_deep) {
      // Truncated (below w, eq. 4.4, or beyond the depth bound N, eq. 4.3):
      // account the whole discarded sub-tree per eq. (4.6). The last state
      // satisfies Phi v Psi here (dead states returned above).
      ++result.paths_truncated;
      result.error_bound += std::exp(frame.log_weight) * poisson.tail(frame.depth);
      return;
    }
    if (++nodes > options.max_nodes) {
      throw NodeBudgetError(
          "DfpgUntilEngine: node budget exhausted; raise truncation probability w "
          "(Lambda*t too large for path enumeration)");
    }
    result.max_depth = std::max(result.max_depth, frame.depth);

    if (sig_.psi[frame.state]) {
      ++result.paths_stored;
      const double p = std::exp(log_p);
      if (options.aggregate_signatures) {
        classes[signature] += p;
      } else {
        const SpacingCounts k(signature.begin(), signature.begin() + num_k);
        const SpacingCounts j(signature.begin() + num_k, signature.end());
        result.probability += p * context.conditional_probability(k, j, t, r);
      }
    }

    const double log_next_poisson =
        frame.log_poisson + log_mean - std::log(static_cast<double>(frame.depth + 1));
    for (const SignatureTransition& edge : sig_.adjacency[frame.state]) {
      ++signature[sig_.reward_class[edge.target]];
      ++signature[num_k + edge.impulse_class];
      self(self, Frame{edge.target, frame.depth + 1, log_next_poisson,
                       frame.log_weight + edge.log_probability});
      --signature[sig_.reward_class[edge.target]];
      --signature[num_k + edge.impulse_class];
    }
  };

  // Initial path: n = 0, k = 1_[rho(start)], j = 0, p = e^{-mean}.
  ++signature[sig_.reward_class[start]];
  explore(explore, Frame{start, 0, -mean, 0.0});

  if (options.aggregate_signatures) {
    result.signature_classes = classes.size();
    // Drain the hash map into lexicographic signature order before folding:
    // accumulating in unordered_map iteration order made the rounding of
    // result.probability depend on the hash seed / load factor, so two runs
    // (or two stdlib versions) could disagree in the last ulps — enough to
    // flip a threshold verdict inside the error band.
    // lint:allow(unordered-iteration) — this drain is order-insensitive: the
    // fold below runs over `ordered` only after the sort.
    std::vector<std::pair<std::vector<std::uint32_t>, double>> ordered(classes.begin(),
                                                                       classes.end());  // lint:allow(unordered-iteration)
    std::sort(ordered.begin(), ordered.end(),
              [](const auto& a, const auto& b) { return a.first < b.first; });
    for (const auto& [sig, p] : ordered) {
      const SpacingCounts k(sig.begin(), sig.begin() + num_k);
      const SpacingCounts j(sig.begin() + num_k, sig.end());
      result.probability += p * context.conditional_probability(k, j, t, r);
    }
  } else {
    result.signature_classes = result.paths_stored;
  }
  result.nodes_expanded = nodes;

  obs::counter_add("uniformization.paths_visited", visited);
  obs::counter_add("uniformization.nodes_expanded", result.nodes_expanded);
  obs::counter_add("uniformization.paths_stored", result.paths_stored);
  obs::counter_add("uniformization.paths_truncated", result.paths_truncated);
  obs::counter_add("uniformization.signature_classes", result.signature_classes);
  obs::gauge_max("uniformization.max_depth", static_cast<double>(result.max_depth));
  return result;
}

}  // namespace csrlmrm::oracle
