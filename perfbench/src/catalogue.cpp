#include "catalogue.hpp"

#include <cstdio>
#include <stdexcept>

#include "io/model_files.hpp"
#include "models/cellphone.hpp"
#include "models/generator.hpp"
#include "models/mm1k.hpp"
#include "models/random_mrm.hpp"
#include "models/tmr.hpp"
#include "models/wavelan.hpp"

namespace perfbench {

namespace cm = csrlmrm::models;

std::string FormulaSpec::text(double threshold) const {
  char bound[64];
  std::snprintf(bound, sizeof(bound), "%.6g", threshold);
  return op + "(" + cmp + bound + ")" + body;
}

std::string reference_key(const std::string& model, const FormulaSpec& formula) {
  return model + "|" + formula.op + formula.body;
}

const char* model_layer(const ModelSpec& spec) {
  return spec.source.rfind("file:", 0) == 0 ? "io.load" : "models.build";
}

csrlmrm::core::Mrm build_model(const ModelSpec& spec, const std::string& root) {
  const std::string& source = spec.source;
  if (source.rfind("file:", 0) == 0) {
    const std::string prefix = root + "/" + source.substr(5);
    return csrlmrm::io::load_mrm(prefix + ".tra", prefix + ".lab", prefix + ".rewr",
                                 prefix + ".rewi");
  }
  if (source.rfind("gen:", 0) == 0) return cm::make_generated_mrm(source.substr(4));
  if (source == "tmr") return cm::make_tmr(cm::TmrConfig{});
  if (source == "nmr") return cm::make_tmr(cm::chapter5_nmr_config(false));
  if (source == "nmr_var") return cm::make_tmr(cm::chapter5_nmr_config(true));
  if (source == "cellphone") return cm::make_cellphone();
  if (source == "wavelan") return cm::make_wavelan();
  if (source.rfind("mm1k:", 0) == 0) {
    cm::Mm1kConfig config;
    config.capacity = static_cast<unsigned>(std::stoul(source.substr(5)));
    return cm::make_mm1k(config);
  }
  if (source.rfind("random:", 0) == 0) {
    cm::RandomMrmConfig config;
    config.num_states = 48;
    config.edge_probability = 0.12;
    return cm::make_random_mrm(static_cast<std::uint32_t>(std::stoul(source.substr(7))), config);
  }
  throw std::invalid_argument("unknown model source '" + source + "'");
}

std::vector<double> draw_thresholds(const QuerySpec& query, Rng& rng) {
  std::vector<double> drawn;
  for (const FormulaSpec& formula : query.formulas) {
    drawn.push_back(formula.thresholds[rng.below(formula.thresholds.size())]);
  }
  return drawn;
}

std::vector<std::string> formula_texts(const QuerySpec& query,
                                       const std::vector<double>& thresholds) {
  std::vector<std::string> texts;
  for (std::size_t i = 0; i < query.formulas.size(); ++i) {
    texts.push_back(query.formulas[i].text(thresholds[i]));
  }
  return texts;
}

namespace {

const std::vector<double> kProbabilities = {0.05, 0.1, 0.25, 0.5, 0.75, 0.9};

FormulaSpec prob(const std::string& cmp, const std::string& body,
                 const std::string& reference_body = "") {
  return {"P", cmp, kProbabilities, body, reference_body};
}

FormulaSpec steady(const std::string& cmp, const std::string& body) {
  return {"S", cmp, kProbabilities, body, ""};
}

std::string tmr_until(double t) {
  char body[96];
  std::snprintf(body, sizeof(body), "[Sup U[0,%g][0,3000] failed]", t);
  return body;
}

}  // namespace

// Every catalogue has an odd number of queries, and each round runs each
// query once: the pooled median is then the middle of one query's own
// cluster of latencies, not the gap between two clusters.
Catalogue paper_cold_catalogue() {
  Catalogue c;
  c.models = {{"tmr_file", "file:examples/models/tmr"},
              {"wavelan_file", "file:examples/models/wavelan"},
              {"cellphone_file", "file:examples/models/cellphone"},
              {"nmr", "nmr"},
              {"nmr_var", "nmr_var"}};

  // Tables 5.3/5.4: the TMR family, t = 50..500, at the Table 5.3 fixed
  // w = 1e-11 and with the Table 5.4 w schedule (w lowered per t until the
  // eq. (4.6) bound of the start state is below 1e-4).
  const double schedule[10] = {1e-6, 1e-7, 1e-7, 1e-8, 1e-8, 1e-9, 1e-10, 1e-11, 1e-12, 1e-13};
  for (int row = 0; row < 10; ++row) {
    const double t = 50.0 * (row + 1);
    const std::string id = "tmr_t" + std::to_string(static_cast<int>(t));
    QuerySpec fixed{id + "_5_3", "tmr_file", {prob(">", tmr_until(t))}};
    fixed.w = 1e-11;
    c.queries.push_back(fixed);
    QuerySpec scheduled{id + "_5_4", "tmr_file", {prob(">", tmr_until(t))}};
    scheduled.w = schedule[row];
    c.queries.push_back(scheduled);
  }
  // Tables 5.5/5.7: 11-module NMR, every start state, w = 1e-8.
  c.queries.push_back({"nmr_5_5", "nmr", {prob(">", "[tt U[0,100][0,2000] allUp]")}});
  c.queries.push_back({"nmr_5_7", "nmr_var", {prob(">", "[tt U[0,100][0,2000] allUp]")}});
  // Long horizons at the default w. Every live state of the transformed
  // model earns reward >= 8, so no path survives unabsorbed past
  // t* = 3000 / 8 = 375 with Y <= 3000: the true value equals the t* one,
  // which is what the reference is computed for.
  for (const double t : {1e3, 1e5, 3e5, 1e6}) {
    char id[32];
    std::snprintf(id, sizeof(id), "tmr_long_%g", t);
    c.queries.push_back({id, "tmr_file", {prob(">", tmr_until(t), tmr_until(375.0))}});
  }
  // Time-only P1, next, steady and unbounded until on the three small models.
  c.queries.push_back({"tmr_mixed",
                       "tmr_file",
                       {prob(">", "[Sup U[0,100] failed]"), prob("<", "[X[0,10] failed]"),
                        steady("<", "(failed)"), prob(">", "[!vdown U failed]")}});
  c.queries.push_back({"wavelan_mixed",
                       "wavelan_file",
                       {prob(">", "[!busy U[0,1] transmit]"), prob(">", "[X[0,1] busy]"),
                        steady(">", "(idle)"), prob(">", "[!off U transmit]")}});
  c.queries.push_back({"cellphone_mixed",
                       "cellphone_file",
                       {prob(">", "[(Call_Idle || Doze) U[0,24] Call_Initiated]"),
                        prob(">", "[X Call_Initiated]"), steady(">", "(Call_Initiated)"),
                        prob(">", "[!Off U Call_Initiated]")}});
  return c;
}

Catalogue large_sweep_catalogue() {
  Catalogue c;
  c.models = {{"grid_256", "gen:grid:width=256,height=256"},
              {"grid_128", "gen:grid:width=128,height=128"},
              {"grid_96", "gen:grid:width=96,height=96"},
              {"grid_24", "gen:grid:width=24,height=24"},
              {"grid_16", "gen:grid:width=16,height=16"},
              {"crowd_140", "gen:crowd:population=140"},
              {"virus_14", "gen:virus:hosts=14"},
              {"cellphone", "cellphone"},
              {"tmr", "tmr"},
              {"mm1k_8", "mm1k:8"},
              {"mm1k_16", "mm1k:16"},
              {"mm1k_32", "mm1k:32"}};
  // P1: backward series over blocked SpMV, both sides of 2048 and 4096.
  c.queries.push_back({"grid_256_p1", "grid_256", {prob(">", "[tt U[0,20] delivered]")}});
  c.queries.push_back({"grid_96_p1", "grid_96", {prob(">", "[tt U[0,20] delivered]")}});
  c.queries.push_back({"grid_128_p1", "grid_128", {prob(">", "[!edge U[0,10] delivered]")}});
  c.queries.push_back({"grid_24_p1", "grid_24", {prob(">", "[!edge U[0,20] delivered]")}});
  c.queries.push_back({"crowd_p1", "crowd_140", {prob(">", "[!outbreak U[0,20] extinct]")}});
  c.queries.push_back({"virus_p1", "virus_14", {prob(">", "[!epidemic U[0,5] clean]")}});
  // S: BSCC search plus Gauss-Seidel.
  c.queries.push_back({"grid_128_s", "grid_128", {steady(">", "(delivered)")}});
  // P2 by discretization: Table 5.1 cellphone, Table 5.8 TMR, an mm1k sweep.
  // On mm1k the derived step-error band is the trivial [0, 1], so those
  // answers are UNKNOWN (they still pay for the full sweep).
  QuerySpec cell{"cellphone_d32", "cellphone",
                 {prob(">", "[(Call_Idle || Doze) U[0,24][0,600] Call_Initiated]")}};
  cell.step = 1.0 / 32.0;
  c.queries.push_back(cell);
  QuerySpec tmr{"tmr_d025_t50", "tmr", {prob(">", tmr_until(50.0))}};
  tmr.step = 0.25;
  c.queries.push_back(tmr);
  for (const char* model : {"mm1k_8", "mm1k_16", "mm1k_32"}) {
    QuerySpec q{std::string(model) + "_d", model,
                {prob(">", "[busy U[0,5][0,20] empty]")}};
    q.step = 0.25;
    c.queries.push_back(q);
  }
  // One small cumulative-reward query (<= 256 states: each start state runs
  // its own forward series).
  c.queries.push_back(
      {"grid_16_r", "grid_16", {{"R", "<", {20.0, 40.0, 60.0}, "[C[0,50]]", ""}}});
  return c;
}

Catalogue daemon_read_catalogue() {
  Catalogue c;
  c.models = {{"tmr_file", "file:examples/models/tmr"},
              {"nmr", "nmr"},
              {"wavelan_file", "file:examples/models/wavelan"},
              {"cellphone_file", "file:examples/models/cellphone"},
              {"grid_64", "gen:grid:width=64,height=64"}};
  c.queries.push_back({"d_tmr",
                       "tmr_file",
                       {prob(">", tmr_until(100.0)), prob(">", tmr_until(100.0)),
                        steady("<", "(failed)")}});
  c.queries.push_back({"d_nmr",
                       "nmr",
                       {prob(">", "[tt U[0,35][0,700] allUp]"),
                        prob(">", "[tt U[0,35][0,700] allUp]")}});
  c.queries.push_back({"d_wavelan",
                       "wavelan_file",
                       {prob(">", "[!busy U[0,1] transmit]"), prob(">", "[X[0,1] busy]"),
                        steady(">", "(idle)")}});
  c.queries.push_back({"d_cellphone",
                       "cellphone_file",
                       {prob(">", "[(Call_Idle || Doze) U[0,48][0,1200] Call_Initiated]"),
                        prob(">", "[(Call_Idle || Doze) U[0,48][0,1200] Call_Initiated]"),
                        steady(">", "(Call_Initiated)")}});
  c.queries.push_back({"d_grid",
                       "grid_64",
                       {prob(">", "[tt U[0,40] delivered]"), prob(">", "[tt U[0,40] delivered]")}});
  return c;
}

}  // namespace perfbench
