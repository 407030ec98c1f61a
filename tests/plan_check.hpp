// Test shorthand for the library's check path: one formula (parsed or as
// CSRL text) compiled and executed as a plan of one, which is what a
// positional mrmcheck run does.
#pragma once

#include <string>

#include "checker/options.hpp"
#include "core/mrm.hpp"
#include "logic/ast.hpp"
#include "logic/parser.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

namespace csrlmrm::test {

inline plan::FormulaResult check_one(const core::Mrm& model, const logic::FormulaPtr& formula,
                                     const checker::CheckerOptions& options = {}) {
  return plan::execute(plan::compile(model, {formula}, options), model).formulas[0];
}

inline plan::FormulaResult check_one(const core::Mrm& model, const std::string& text,
                                     const checker::CheckerOptions& options = {}) {
  return check_one(model, logic::parse_formula(text), options);
}

}  // namespace csrlmrm::test
