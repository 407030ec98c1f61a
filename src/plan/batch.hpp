// The batch policy shared by every front end (mrmcheck's positional formula
// and --formulas file, mrmcheckd's check requests): a list of formula texts
// in, one outcome per text out.
//
//   1. each text is parsed alone, so a malformed one fails only its entry;
//   2. the parsed formulas compile and execute as ONE plan (shared
//      subformulas, solves and transforms evaluated once);
//   3. when that shared execution throws (an unsupported bound shape
//      surfaces at solve time), each formula re-runs as a plan of one, so
//      only the offender fails. Plan results are bitwise-identical at every
//      batch composition, so the re-run answers equal the batched ones.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "checker/options.hpp"
#include "core/mrm.hpp"
#include "core/transform.hpp"
#include "logic/ast.hpp"
#include "plan/executor.hpp"

namespace csrlmrm::plan {

/// One formula text's outcome.
struct BatchEntry {
  /// The parsed formula; null when the text did not parse.
  logic::FormulaPtr formula;
  /// The parse or check error that failed this entry alone; empty on success.
  std::string error;
  /// The entry's results; meaningful only when `error` is empty.
  FormulaResult result;
};

struct BatchOutcome {
  /// One entry per input text, in input order.
  std::vector<BatchEntry> entries;
  /// The shared execution's error when it threw and the formulas re-ran one
  /// by one; empty otherwise.
  std::string batch_error;
};

/// Step 1 alone: parses each text, recording a parse error in its entry.
std::vector<BatchEntry> parse_batch(const std::vector<std::string>& texts);

/// The whole policy. `transforms` is forwarded to compile() (see there).
BatchOutcome check_batch(const core::Mrm& model, const std::vector<std::string>& texts,
                         const checker::CheckerOptions& options,
                         std::shared_ptr<core::TransformCache> transforms = nullptr);

}  // namespace csrlmrm::plan
