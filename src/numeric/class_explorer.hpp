// Signature-class dynamic-programming engine for uniformization-based until
// checking — the checker's one uniformization engine for P2-class until
// formulas (eq. 4.5 with the error bound of eq. 4.6).
//
// The thesis's depth-first path generator (Algorithm 4.7, kept as the test
// oracle tests/dfpg_oracle.hpp) enumerates uniformized paths one by one and
// only merges their probabilities after harvesting, so its cost grows with
// the number of path prefixes. This engine advances a *frontier* of
// equivalence classes
//
//   (current state, reward signature (k, j))  ->  probability mass
//
// one uniformization step (= one Poisson epoch) per level. Two path prefixes
// that end in the same state with the same signature are indistinguishable
// for everything that follows — same continuations, same conditional
// probability Pr{ Y(t) <= r | n, k, j } — so their masses are summed the
// moment they collide instead of being explored twice. On models with heavy
// signature collisions (few distinct rewards, many interleavings) the
// frontier stays polynomial where the DFS tree is exponential.
//
// Error accounting follows DFPG's eq. (4.4)/(4.6) discipline,
// lifted to merged classes: alongside its mass every class tracks how many
// path prefixes it aggregates, and a class is cut at level n when
// PoissonPmf(n) * mass < w * count — i.e. when the *average* prefix weight
// falls below the truncation probability, the faithful aggregate of the
// per-path rule (4.4). (Pruning on the total mass alone would keep a class
// alive as long as thousands of individually-sub-w prefixes sum past w,
// exploring far more than the DFS does at equal w.) Cut mass contributes
// mass * Pr{ N >= n } to the error bound exactly as in eq. (4.6), so the
// returned probability p brackets the exact value as p <= p_exact <=
// p + error_bound and the DP and the DFS agree within the sum of their
// reported bounds.
//
// Multi-start batching: the checker's until fan-out queries the same formula
// from every Phi-state. Instead of one engine run per start, compute_batch
// carries one weight slot per queried start through a single frontier sweep;
// classes reached from several starts are stored once and each conditional
// probability is evaluated once for the whole batch. Slots are fully
// independent (pruning, error, harvest are per-slot).
//
// Parallelism: per-level frontier expansion is data-parallel (each class
// writes its successors into a precomputed disjoint slice), and merging
// sorts the successor array before folding adjacent equal keys, so results
// are bitwise identical at every thread count.
//
// Adaptive hybrid: merging is only worth the per-level sort when classes
// actually collide. The engine tracks the fold ratio per level and, after
// two consecutive large levels where folding kept >= 7/10 of the raw rows,
// hands off: it finishes every remaining class with a depth-first
// continuation (identical prune/budget/error/harvest semantics, no further
// merge attempts), run once for the whole batch. The hand-off preserves
// thread-count determinism (the trigger sees thread-invariant row counts;
// the continuation is chunked in a fixed layout). A batch is bitwise equal
// to the corresponding single-start runs as long as no level reaches the
// trigger's row floor; past it the trigger sees different frontier sizes and
// may fire at a different level.
//
// Poisson weights come from one per-solve PoissonTable. When e^{-Lambda t}
// < w the level-0 prune cuts every start, and the engine returns that exact
// answer (p = 0, error bound 1) without building the table, whose size is
// linear in Lambda t.
// Observability: "classdp.hybrid_handoffs".
#pragma once

#include <cstddef>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/mrm.hpp"
#include "numeric/poisson.hpp"
#include "numeric/signature_model.hpp"

namespace csrlmrm::numeric {

/// Thrown when the engine exceeds PathExplorerOptions::max_nodes. Typed so the
/// checker can distinguish "model too large for path enumeration" (and apply
/// its degradation policy, see checker::BudgetPolicy) from genuine input
/// errors.
class NodeBudgetError : public std::runtime_error {
 public:
  explicit NodeBudgetError(const std::string& message) : std::runtime_error(message) {}
};

/// Tuning knobs for the uniformization engine.
struct PathExplorerOptions {
  /// Truncation probability w: classes whose average prefix weight
  /// P(sigma, t) drops below w are cut and accounted in the error bound.
  /// Must be in (0, 1).
  double truncation_probability = 1e-8;
  /// Safety valve: abort (NodeBudgetError) after this many frontier classes
  /// processed — uniformization is only practical for small Lambda*t
  /// (thesis, ch. 6) and this keeps runaway instances diagnosable.
  std::size_t max_nodes = 500'000'000;
  /// Worker threads for the per-level frontier expansion and the hybrid's
  /// depth-first continuation. 0 = the process default (CSRLMRM_THREADS or
  /// hardware concurrency).
  unsigned threads = 0;
};

/// Result of one until evaluation.
struct UntilUniformizationResult {
  /// The approximated probability P(s, Phi U_[0,r]^[0,t] Psi).
  double probability = 0.0;
  /// Error bound of eq. (4.6): total truncated-path mass that could still
  /// have satisfied the formula.
  double error_bound = 0.0;
  /// Number of stored path prefixes ending in a Psi-state.
  std::size_t paths_stored = 0;
  /// Number of branches cut by the truncation probability w (each
  /// contributes its discarded mass to error_bound).
  std::size_t paths_truncated = 0;
  /// Number of distinct signatures among stored paths.
  std::size_t signature_classes = 0;
  /// Nodes expanded.
  std::size_t nodes_expanded = 0;
  /// Deepest path length (number of transitions) reached.
  std::size_t max_depth = 0;
};

/// Layered signature-class DP engine for P2-class until formulas on one
/// transformed MRM. Construct once per formula; query per starting state
/// (or batch of starting states) and bound.
///
/// Result-field semantics, the unit of work being a frontier class, not a
/// path:
///   - probability / error_bound   per queried start (exact analogue);
///   - paths_stored                harvested (class, level) pairs;
///   - paths_truncated             per-slot pruning events;
///   - signature_classes           distinct harvested (k, canonical r')
///                                 groups (the Omega-evaluation granularity);
///   - nodes_expanded              frontier classes processed across levels;
///   - max_depth                   deepest level (epoch count) reached.
/// In a batch, the diagnostic counts are shared across all slots (every
/// returned element carries the same values); probability and error_bound
/// are per-slot.
class SignatureClassUntilEngine {
 public:
  /// `transformed` is M[!Phi v Psi] (taken by value: the engine keeps its
  /// own copy so callers may discard theirs), `psi` marks Sat(Psi), `dead`
  /// the states satisfying neither Phi nor Psi, from which the formula is
  /// unsatisfiable. Masks must match the state count.
  SignatureClassUntilEngine(core::Mrm transformed, std::vector<bool> psi,
                            std::vector<bool> dead);

  SignatureClassUntilEngine(const SignatureClassUntilEngine&) = delete;
  SignatureClassUntilEngine& operator=(const SignatureClassUntilEngine&) = delete;

  /// Evaluates Pr{ Y(t) <= r, X(t) |= Psi } from `start`; equivalent to a
  /// one-element compute_batch. Requires t >= 0 finite and r >= 0 finite;
  /// t = 0 short-circuits to the indicator of start |= Psi.
  UntilUniformizationResult compute(core::StateIndex start, double t, double r,
                                    const PathExplorerOptions& options = {}) const;

  /// Evaluates the formula from every element of `starts` in one frontier
  /// sweep. Duplicate starts are allowed (their slots share classes).
  /// Returns one result per element of `starts`, in order. max_nodes is a
  /// budget for the whole batch (frontier classes processed), so a batch may
  /// exhaust it where isolated runs would not.
  std::vector<UntilUniformizationResult> compute_batch(
      const std::vector<core::StateIndex>& starts, double t, double r,
      const PathExplorerOptions& options = {}) const;

  /// The distinct state rewards r_1 > ... > r_{K+1} of the transformed model.
  const std::vector<double>& distinct_state_rewards() const {
    return sig_.distinct_state_rewards;
  }
  /// The distinct impulse rewards i_1 > ... > i_J (always containing 0).
  const std::vector<double>& distinct_impulse_rewards() const {
    return sig_.distinct_impulse_rewards;
  }
  /// The uniformization rate Lambda.
  double lambda() const { return sig_.uniformized.lambda(); }

 private:
  SignatureModel sig_;
  /// sig_.adjacency with transitions into dead states dropped: a path into a
  /// dead state can never satisfy the formula (an exact cut, no error
  /// contribution), so the DP never generates its class.
  std::vector<std::vector<SignatureTransition>> live_adjacency_;
};

}  // namespace csrlmrm::numeric
