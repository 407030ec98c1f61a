// Reference evaluator for the compiled plan: SatisfyStateFormula
// (Algorithm 4.1) as a direct, memoized bottom-up walk over one formula's
// AST, with no common-subformula sharing, no hoisted transforms and no
// method annotation.
//
// Each node's three-valued satisfaction (SAT / UNSAT / UNKNOWN per state)
// comes from the same checker/operator_eval.hpp functions the plan executor
// calls: Kleene connectives for the boolean nodes, the widened two-mask runs
// of evaluate_*_operator for the numeric S/P/R nodes, and
// compare_operator_bounds for their thresholds. The plan must reproduce this
// walker's verdicts, value enclosures and raw path probabilities bitwise
// (tests/test_plan_differential.cpp) — the check that CSE, transform
// hoisting and the shared caches never change a bit of output.
#pragma once

#include <stdexcept>
#include <unordered_map>
#include <utility>
#include <vector>

#include "checker/operator_eval.hpp"
#include "checker/options.hpp"
#include "checker/until.hpp"
#include "checker/verdict.hpp"
#include "core/mrm.hpp"
#include "logic/ast.hpp"

namespace csrlmrm::oracle {

/// AST-walking CSRL checker over one MRM. The model must outlive it.
class ReferenceChecker {
 public:
  explicit ReferenceChecker(const core::Mrm& model, checker::CheckerOptions options = {})
      : model_(&model), options_(std::move(options)) {}

  /// Per-state three-valued verdicts of the formula.
  std::vector<checker::Verdict> verdicts(const logic::FormulaPtr& formula) {
    const checker::SatSets& sets = evaluate(formula);
    std::vector<checker::Verdict> out(sets.sat.size(), checker::Verdict::kUnsat);
    for (std::size_t s = 0; s < out.size(); ++s) {
      if (sets.sat[s]) {
        out[s] = checker::Verdict::kSat;
      } else if (sets.unknown[s]) {
        out[s] = checker::Verdict::kUnknown;
      }
    }
    return out;
  }

  /// The widened per-state value enclosures of an S/P/R node: what its
  /// threshold comparison is made against.
  std::vector<checker::ProbabilityBound> value_bounds(const logic::FormulaPtr& formula) {
    return run_operator(formula).bounds;
  }

  /// The raw path probabilities of a P node (the pessimistic operator run).
  std::vector<checker::UntilValue> path_probabilities(const logic::FormulaPtr& formula) {
    if (formula->kind != logic::FormulaKind::kProbNext &&
        formula->kind != logic::FormulaKind::kProbUntil) {
      throw std::invalid_argument("ReferenceChecker: formula is not a P-operator node");
    }
    return run_operator(formula).probabilities;
  }

 private:
  struct OperatorRun {
    std::vector<checker::ProbabilityBound> bounds;
    std::vector<checker::UntilValue> probabilities;  // P nodes only
  };

  // References into the memo tables stay valid across inserts (unordered_map
  // rehashing moves buckets, not nodes), so nested evaluations may hold them.
  const OperatorRun& run_operator(const logic::FormulaPtr& formula) {
    const auto cached = runs_.find(formula.get());
    if (cached != runs_.end()) return cached->second;

    OperatorRun run;
    switch (formula->kind) {
      case logic::FormulaKind::kSteady: {
        const auto& node = static_cast<const logic::SteadyFormula&>(*formula);
        run.bounds =
            checker::evaluate_steady_operator(*model_, evaluate(node.operand), options_).bounds;
        break;
      }
      case logic::FormulaKind::kProbNext: {
        const auto& node = static_cast<const logic::ProbNextFormula&>(*formula);
        auto evaluation = checker::evaluate_next_operator(
            *model_, evaluate(node.operand), node.time_bound, node.reward_bound, options_);
        run.bounds = std::move(evaluation.bounds);
        for (const double p : evaluation.probabilities) {
          run.probabilities.push_back(checker::exact_until_value(p));
        }
        break;
      }
      case logic::FormulaKind::kProbUntil: {
        const auto& node = static_cast<const logic::ProbUntilFormula&>(*formula);
        const checker::SatSets& lhs = evaluate(node.lhs);
        const checker::SatSets& rhs = evaluate(node.rhs);
        auto evaluation = checker::evaluate_until_operator(*model_, lhs, rhs, node.time_bound,
                                                           node.reward_bound, options_);
        run.bounds = std::move(evaluation.bounds);
        run.probabilities = std::move(evaluation.values);
        break;
      }
      case logic::FormulaKind::kExpectedReward: {
        const auto& node = static_cast<const logic::ExpectedRewardFormula&>(*formula);
        const checker::SatSets* operand =
            node.query == logic::RewardQuery::kReachability ? &evaluate(node.operand) : nullptr;
        run.bounds = checker::evaluate_reward_operator(*model_, node, operand, options_).bounds;
        break;
      }
      default:
        throw std::invalid_argument("ReferenceChecker: formula is not an S/P/R-operator node");
    }
    retained_.push_back(formula);
    return runs_.emplace(formula.get(), std::move(run)).first->second;
  }

  /// Three-valued threshold comparison of an S/P/R node.
  template <typename Node>
  checker::SatSets compare(const logic::FormulaPtr& formula) {
    const auto& node = static_cast<const Node&>(*formula);
    return checker::compare_operator_bounds(run_operator(formula).bounds, node.op, node.bound);
  }

  const checker::SatSets& evaluate(const logic::FormulaPtr& formula) {
    const auto cached = sets_.find(formula.get());
    if (cached != sets_.end()) return cached->second;

    const std::size_t n = model_->num_states();
    checker::SatSets result;
    result.sat.assign(n, false);
    result.unknown.assign(n, false);
    switch (formula->kind) {
      case logic::FormulaKind::kTrue:
        result.sat.assign(n, true);
        break;
      case logic::FormulaKind::kFalse:
        break;
      case logic::FormulaKind::kAtomic:
        result.sat = model_->labels().states_with(
            static_cast<const logic::AtomicFormula&>(*formula).name);
        break;
      case logic::FormulaKind::kNot:
        result = checker::kleene_not(
            evaluate(static_cast<const logic::NotFormula&>(*formula).operand));
        break;
      case logic::FormulaKind::kOr: {
        const auto& node = static_cast<const logic::OrFormula&>(*formula);
        result = checker::kleene_or(evaluate(node.lhs), evaluate(node.rhs));
        break;
      }
      case logic::FormulaKind::kAnd: {
        const auto& node = static_cast<const logic::AndFormula&>(*formula);
        result = checker::kleene_and(evaluate(node.lhs), evaluate(node.rhs));
        break;
      }
      case logic::FormulaKind::kSteady:
        result = compare<logic::SteadyFormula>(formula);
        break;
      case logic::FormulaKind::kProbNext:
        result = compare<logic::ProbNextFormula>(formula);
        break;
      case logic::FormulaKind::kProbUntil:
        result = compare<logic::ProbUntilFormula>(formula);
        break;
      case logic::FormulaKind::kExpectedReward:
        result = compare<logic::ExpectedRewardFormula>(formula);
        break;
    }
    retained_.push_back(formula);
    return sets_.emplace(formula.get(), std::move(result)).first->second;
  }

  const core::Mrm* model_;
  checker::CheckerOptions options_;
  std::unordered_map<const logic::Formula*, checker::SatSets> sets_;
  std::unordered_map<const logic::Formula*, OperatorRun> runs_;
  // Keeps every evaluated node alive so the pointer keys stay unique.
  std::vector<logic::FormulaPtr> retained_;
};

}  // namespace csrlmrm::oracle
