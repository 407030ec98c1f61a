#include "plan/batch.hpp"

#include <exception>
#include <utility>

#include "logic/parser.hpp"
#include "plan/compiler.hpp"

namespace csrlmrm::plan {

std::vector<BatchEntry> parse_batch(const std::vector<std::string>& texts) {
  std::vector<BatchEntry> entries(texts.size());
  for (std::size_t i = 0; i < texts.size(); ++i) {
    try {
      entries[i].formula = logic::parse_formula(texts[i]);
    } catch (const std::exception& error) {
      entries[i].error = error.what();
    }
  }
  return entries;
}

BatchOutcome check_batch(const core::Mrm& model, const std::vector<std::string>& texts,
                         const checker::CheckerOptions& options,
                         std::shared_ptr<core::TransformCache> transforms) {
  BatchOutcome outcome;
  outcome.entries = parse_batch(texts);
  std::vector<BatchEntry*> runnable;
  std::vector<logic::FormulaPtr> formulas;
  for (BatchEntry& entry : outcome.entries) {
    if (!entry.formula) continue;
    runnable.push_back(&entry);
    formulas.push_back(entry.formula);
  }
  if (runnable.empty()) return outcome;

  try {
    PlanResult results = execute(compile(model, formulas, options, transforms), model);
    for (std::size_t k = 0; k < runnable.size(); ++k) {
      runnable[k]->result = std::move(results.formulas[k]);
    }
    return outcome;
  } catch (const std::exception& batch_failure) {
    outcome.batch_error = batch_failure.what();
  }
  if (runnable.size() == 1) {
    // The plan of one already ran: its error is the formula's own.
    runnable[0]->error = outcome.batch_error;
    return outcome;
  }
  for (BatchEntry* entry : runnable) {
    try {
      PlanResult single = execute(compile(model, {entry->formula}, options, transforms), model);
      entry->result = std::move(single.formulas[0]);
    } catch (const std::exception& error) {
      entry->error = error.what();
    }
  }
  return outcome;
}

}  // namespace csrlmrm::plan
