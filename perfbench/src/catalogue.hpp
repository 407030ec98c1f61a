// The fixed query catalogues of the three workloads, and the models they run
// on. A workload's seed only picks thresholds and orders the catalogue; the
// catalogue itself (and so the work per round) never changes with the seed.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/mrm.hpp"
#include "harness.hpp"

namespace perfbench {

/// One formula of a batch: `<op>(<cmp><threshold>)<body>`, with the root
/// threshold drawn per request from `thresholds`.
struct FormulaSpec {
  std::string op;    // "P", "S" or "R"
  std::string cmp;   // ">", ">=", "<" or "<="
  std::vector<double> thresholds;
  std::string body;  // everything after the root bound
  /// When set, the reference is computed for this body instead (same true
  /// value, cheaper or tighter to compute; see references.cpp).
  std::string reference_body;

  std::string text(double threshold) const;
};

/// One query: a formula batch against one model under one set of numeric
/// options, from send to verdicts.
struct QuerySpec {
  std::string id;
  std::string model;
  std::vector<FormulaSpec> formulas;
  double w = 1e-8;    // uniformization truncation probability
  double step = 0.0;  // > 0: P2 until by discretization with this step
};

/// The reference key of a formula: the model and the formula with its root
/// threshold removed (the threshold does not change the value).
std::string reference_key(const std::string& model, const FormulaSpec& formula);

/// A model of the catalogues. `source` forms:
///   file:<prefix>      io::load_mrm of <root>/<prefix>.{tra,lab,rewr,rewi}
///   gen:<family:k=v>   models::make_generated_mrm
///   tmr | nmr | nmr_var | cellphone | wavelan | mm1k:<K>   models::make_*
///   random:<seed>      models::make_random_mrm
struct ModelSpec {
  std::string name;
  std::string source;
};

/// Builds (or loads) a model; `root` is the repository checkout.
csrlmrm::core::Mrm build_model(const ModelSpec& spec, const std::string& root);
/// The layer a model source exercises: "io.load" or "models.build".
const char* model_layer(const ModelSpec& spec);

struct Catalogue {
  std::vector<ModelSpec> models;
  std::vector<QuerySpec> queries;
};

// paper_cold — the paper's chapter-5 queries as a CLI user runs them: one
// client, one query at a time, caches cleared before every query because
// every mrmcheck process starts cold. Class-DP/hybrid, Omega, Poisson and the
// compile-time cost model do nearly all the work; SpMV and parallel dispatch
// do almost none, so a series or SpMV change must show no move here.
Catalogue paper_cold_catalogue();

// large_sweep — bandwidth-bound sweeps over long vectors on generated
// 10^4-10^5-state models (grid, crowd, virus), plus P2 by discretization and
// one small cumulative-reward query. linalg, numeric/transient,
// numeric/discretization, parallel and models (set-up) do the work;
// class-DP/Omega do none. The mirror image of paper_cold. P1 queries sit on
// both sides of the 2048-state series-kernel split and the 4096-state P1
// path split.
Catalogue large_sweep_catalogue();

// daemon_mixed — the warm service under mixed reads and writes: the read
// batches on resident models (multi-formula batches sharing subformulas and
// differing only in thresholds). The write stream (seeded random models)
// is generated in daemon_mixed.cpp.
Catalogue daemon_read_catalogue();

/// Draws one threshold per formula of `query` from `rng`.
std::vector<double> draw_thresholds(const QuerySpec& query, Rng& rng);

/// The formula texts of `query` under `thresholds`.
std::vector<std::string> formula_texts(const QuerySpec& query,
                                       const std::vector<double>& thresholds);

}  // namespace perfbench
