// Stored reference answers and the correctness gate.
//
// references/<workload>.json holds, per reference key (catalogue.hpp), an
// enclosure [lo, hi] of the true value at a set of states, computed offline
// at tighter accuracy than any workload uses (`perfbench --make-references`):
// class-DP at a much smaller w for P2 until, cross-checked against
// discretization where the model admits it; a tighter Fox-Glynn epsilon for
// time-bounded until, next and cumulative reward; a tighter solver tolerance
// for steady state and unbounded until. Models with more than
// kMaxReferenceStates states store evenly spaced states (state 0 included).
//
// An answer fails when a state's verdict contradicts the reference or its
// interval does not meet the reference enclosure (harness.hpp).
#pragma once

#include <cstddef>
#include <map>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "harness.hpp"

namespace perfbench {

inline constexpr std::size_t kMaxReferenceStates = 512;

/// The states a reference covers for an n-state model.
std::vector<std::size_t> reference_states(std::size_t num_states);

struct Reference {
  std::vector<std::size_t> states;
  std::vector<RefValue> values;  // aligned with states
  /// Absolute slack of the enclosure check: rounding for the rigorous
  /// truncating engines; solver residual for the iterative ones, whose
  /// answers are points.
  double tol = 0.0;
};

/// Slack for a formula: tight for bounded path formulas, looser for the
/// iterative solvers (steady state, unbounded until, expected reward).
double reference_tolerance(const FormulaSpec& formula);

/// One formula's answer as the benchmark sees it, from either the in-process
/// plan or a daemon reply.
struct FormulaAnswer {
  std::string verdicts;    // 'Y' / 'N' / '?' per state
  std::vector<double> lo;  // per-state value enclosure
  std::vector<double> hi;
};

class ReferenceSet {
 public:
  /// Loads references/<name>.json under `dir`; throws when missing/invalid.
  static ReferenceSet load(const std::string& dir, const std::string& name);

  /// nullptr when the key has no reference.
  const Reference* find(const std::string& key) const;

  void add(const std::string& key, Reference reference);
  /// Writes the set as JSON.
  void save(const std::string& path) const;

 private:
  std::map<std::string, Reference> entries_;
};

/// Checks one answer; returns an empty string when it passes, otherwise a
/// short description of the first disagreement.
std::string check_answer(const Reference& reference, const FormulaSpec& formula,
                         double threshold, const FormulaAnswer& answer);

}  // namespace perfbench
