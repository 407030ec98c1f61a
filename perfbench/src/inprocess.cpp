// paper_cold and large_sweep: the checker driven in-process through its
// public entry points (model build/load, logic::parse_formula,
// plan::compile, plan::execute), one query at a time. Also the offline
// reference generation, which shares this machinery.
#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <memory>

#include "logic/parser.hpp"
#include "numeric/conditional.hpp"
#include "obs/stats.hpp"
#include "plan/compiler.hpp"
#include "workload.hpp"

namespace perfbench {

namespace cc = csrlmrm::checker;
namespace obs = csrlmrm::obs;
namespace plan = csrlmrm::plan;
using csrlmrm::core::Mrm;

void WorkloadResult::record_failure(const std::string& what) {
  ++failed;
  if (failures.size() < 8) failures.push_back(what);
}

void WorkloadResult::record_answer(const FormulaAnswer& answer) {
  verdicts += answer.verdicts.size();
  unknown += static_cast<std::size_t>(
      std::count(answer.verdicts.begin(), answer.verdicts.end(), '?'));
  if (answer.lo.empty()) return;
  double sum = 0.0;
  for (std::size_t s = 0; s < answer.lo.size(); ++s) {
    sum += std::log10(std::max(answer.hi[s] - answer.lo[s], 1e-16));
  }
  log_width_sum += sum / static_cast<double>(answer.lo.size());
  ++width_answers;
}

const std::vector<std::pair<std::string, std::string>>& layer_metrics() {
  static const std::vector<std::pair<std::string, std::string>> metrics = {
      {"models.build_ms", "ms"},
      {"models.states", "count"},
      {"models.transitions", "count"},
      {"io.load_ms", "ms"},
      {"logic.parse_ms", "ms/query"},
      {"logic.formulas", "count/query"},
      {"plan.compile_ms", "ms/query"},
      {"plan.execute_ms", "ms/query"},
      {"plan.ops", "count/query"},
      {"plan.cse_hit_ratio", "ratio"},
      {"plan.transforms_hoisted", "count/query"},
      {"checker.until_ms", "ms/query"},
      {"checker.steady_ms", "ms/query"},
      {"checker.next_ms", "ms/query"},
      {"checker.expected_reward_ms", "ms/query"},
      {"checker.unknown_verdicts", "count/query"},
      {"engine.auto_choice.classdp", "count/query"},
      {"engine.auto_choice.dfpg", "count/query"},
      {"engine.auto_choice.discretization", "count/query"},
      {"numeric.classdp_ms", "ms/query"},
      {"classdp.levels", "count/query"},
      {"classdp.nodes_expanded", "count/query"},
      {"classdp.trivial_fold_ratio", "ratio"},
      {"omega.evaluations", "count/query"},
      {"omega.dp_cells", "count/query"},
      {"omega.cache_hit_ratio", "ratio"},
      {"fox_glynn.calls", "count/query"},
      {"numeric.transient_ms", "ms/query"},
      {"transient.series_terms", "count/query"},
      {"uniformization.terms_saved", "count/query"},
      {"numeric.discretization_ms", "ms/query"},
      {"discretization.time_steps", "count/query"},
      {"discretization.cells", "count/query"},
      {"linalg.spmv_rows", "count/query"},
      {"linalg.spmv_bytes_computed", "B/query"},
      {"linalg.solver_ms", "ms/query"},
      {"linalg.solver_iterations", "count/query"},
      {"graph.bsccs", "count/query"},
      {"core.transform_cache_hit_ratio", "ratio"},
      {"parallel.jobs", "count/query"},
      {"parallel.chunks", "count/query"},
      {"parallel.jobs_per_series_term", "ratio"},
      {"daemon.check_roundtrip_p50_ms", "ms"},
      {"daemon.check_roundtrip_tail_ms", "ms"},
      {"daemon.load_roundtrip_ms", "ms"},
      {"daemon.requests_per_batch", "ratio"},
      {"daemon.degraded", "count"},
      {"daemon.model_loads", "count"},
      {"daemon.model_cache_hits", "count"},
      {"daemon.models_evicted", "count"},
      {"obs.trace_overhead_frac", "ratio"},
      {"failed_frac", "ratio"},
      {"unknown_frac", "ratio"},
  };
  return metrics;
}

bool more_setups(const RunConfig& config, int done, std::int64_t start) {
  if (config.smoke) return done < 1;
  return done < 3 || (done < 1000 && seconds_since(start) < 1.5);
}

unsigned workload_threads(const std::string& workload, unsigned nproc) {
  return workload == "large_sweep" ? std::min(nproc, 2u) : 1;
}

double self_peak_rss_mib() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

FormulaAnswer answer_from_result(const plan::FormulaResult& result) {
  FormulaAnswer answer;
  for (const cc::Verdict verdict : result.verdicts) {
    answer.verdicts.push_back(verdict == cc::Verdict::kSat     ? 'Y'
                              : verdict == cc::Verdict::kUnsat ? 'N'
                                                               : '?');
  }
  if (result.has_bounds) {
    for (const auto& bound : result.bounds) {
      answer.lo.push_back(bound.lower);
      answer.hi.push_back(bound.upper);
    }
  } else if (result.has_probabilities) {
    for (const auto& value : result.probabilities) {
      answer.lo.push_back(value.bound.lower);
      answer.hi.push_back(value.bound.upper);
    }
  } else if (result.has_values) {
    answer.lo = result.values;
    answer.hi = result.values;
  }
  return answer;
}

cc::CheckerOptions query_options(const QuerySpec& query, unsigned threads) {
  cc::CheckerOptions options;
  options.threads = threads;
  options.uniformization.truncation_probability = query.w;
  if (query.step > 0.0) {
    options.until_method = cc::UntilMethod::kDiscretization;
    options.discretization.step = query.step;
  }
  return options;
}

namespace {

struct LoadedModel {
  ModelSpec spec;
  std::shared_ptr<const Mrm> model;
  double nnz_per_row = 0.0;
};

std::vector<LoadedModel> build_models(const Catalogue& catalogue, const std::string& root,
                                      Tracer& tracer) {
  std::vector<LoadedModel> models;
  const ScopedSpan setup(tracer, "setup", 0);
  for (const ModelSpec& spec : catalogue.models) {
    const ScopedSpan span(tracer, model_layer(spec), 0);
    auto model = std::make_shared<const Mrm>(build_model(spec, root));
    const double nnz = static_cast<double>(model->rates().matrix().non_zeros());
    models.push_back({spec, model, nnz / static_cast<double>(model->num_states())});
  }
  return models;
}

const LoadedModel& find_model(const std::vector<LoadedModel>& models, const std::string& name) {
  for (const LoadedModel& loaded : models) {
    if (loaded.spec.name == name) return loaded;
  }
  throw std::invalid_argument("catalogue names unknown model '" + name + "'");
}

Catalogue catalogue_for(const std::string& workload) {
  if (workload == "paper_cold") return paper_cold_catalogue();
  if (workload == "large_sweep") return large_sweep_catalogue();
  return daemon_read_catalogue();
}

/// One query from parse to verdicts.
plan::PlanResult run_query(const Mrm& model, const std::vector<std::string>& texts,
                           const cc::CheckerOptions& options, Tracer& tracer, std::uint64_t qid) {
  const ScopedSpan query(tracer, "query", qid);
  std::vector<csrlmrm::logic::FormulaPtr> formulas;
  {
    const ScopedSpan span(tracer, "logic.parse", qid);
    for (const std::string& text : texts) formulas.push_back(csrlmrm::logic::parse_formula(text));
  }
  plan::Plan compiled;
  {
    const ScopedSpan span(tracer, "plan.compile", qid);
    compiled = plan::compile(model, formulas, options);
  }
  plan::PlanResult result;
  {
    const ScopedSpan span(tracer, "plan.execute", qid);
    result = plan::execute(compiled, model);
  }
  return result;
}

/// Self time per obs trace-node name (node total minus its children's).
void accumulate_self(const obs::TraceNode& node, std::map<std::string, double>& self_ms) {
  std::uint64_t children = 0;
  for (const obs::TraceNode& child : node.children) {
    children += child.total_ns;
    accumulate_self(child, self_ms);
  }
  if (node.name != "root" && node.total_ns > children) {
    self_ms[node.name] += static_cast<double>(node.total_ns - children) * 1e-6;
  }
}

double ratio(double numerator, double denominator) {
  return denominator > 0.0 ? numerator / denominator : 0.0;
}

}  // namespace

double LayerTotals::counter(const std::string& name) const {
  const auto found = counters.find(name);
  return found == counters.end() ? 0.0 : found->second;
}

double LayerTotals::self_prefix(const std::string& prefix) const {
  double total = 0.0;
  for (const auto& [name, ms] : obs_self_ms) {
    if (name == prefix || name.rfind(prefix + ".", 0) == 0) total += ms;
  }
  return total;
}

void LayerTotals::absorb_query(double nnz_per_row) {
  const obs::StatsRegistry& registry = obs::StatsRegistry::global();
  const auto query_counters = registry.counters();
  for (const auto& [name, value] : query_counters) counters[name] += static_cast<double>(value);
  const auto gauges = registry.gauges();
  const auto steps = query_counters.find("discretization.time_steps");
  const auto levels = gauges.find("discretization.reward_levels");
  if (steps != query_counters.end() && levels != gauges.end()) {
    cells += static_cast<double>(steps->second) * levels->second;
  }
  double rows = 0.0;
  for (const char* name : {"spmv.rows", "spmv.blocked_rows"}) {
    if (const auto found = query_counters.find(name); found != query_counters.end()) {
      rows += static_cast<double>(found->second);
    }
  }
  spmv_bytes += spmv_bytes_computed(rows, nnz_per_row);
  accumulate_self(registry.trace(), obs_self_ms);
  ++queries;
}

double spmv_bytes_computed(double rows, double nnz_per_row) {
  // Computed, not measured: each row reads its row pointer and its nonzeros
  // (value, column, gathered x) and writes one y.
  return rows * (8.0 + 4.0 + nnz_per_row * (8.0 + 4.0 + 8.0));
}

void fill_layers(const LayerTotals& t, const std::map<std::string, double>& span_self,
                 int setups, WorkloadResult& result) {
  const double q = std::max(1.0, static_cast<double>(t.queries));
  auto span = [&](const char* name) {
    const auto found = span_self.find(name);
    return found == span_self.end() ? 0.0 : found->second;
  };
  auto& l = result.layers;
  l["models.build_ms"] = span("models.build") / setups;
  l["io.load_ms"] = span("io.load") / setups;
  l["logic.parse_ms"] = span("logic.parse") / q;
  l["logic.formulas"] = t.formulas / q;
  l["plan.compile_ms"] = span("plan.compile") / q;
  // The executor's own time: the obs plan.execute node minus the checker
  // and engine timers nested under it.
  l["plan.execute_ms"] = t.self_prefix("plan.execute") / q;
  l["plan.ops"] = t.counter("plan.ops") / q;
  l["plan.cse_hit_ratio"] =
      ratio(t.counter("plan.cse.hits"), t.counter("plan.cse.hits") + t.counter("plan.ops"));
  l["plan.transforms_hoisted"] = t.counter("plan.transforms.hoisted") / q;
  l["checker.until_ms"] = t.self_prefix("checker.until") / q;
  l["checker.steady_ms"] = t.self_prefix("checker.steady") / q;
  l["checker.next_ms"] = t.self_prefix("checker.next") / q;
  l["checker.expected_reward_ms"] = t.self_prefix("checker.expected_reward") / q;
  l["checker.unknown_verdicts"] = t.counter("checker.verdicts.unknown") / q;
  for (const char* engine : {"classdp", "dfpg", "discretization"}) {
    const std::string name = std::string("engine.auto_choice.") + engine;
    l[name] = t.counter(name) / q;
  }
  l["numeric.classdp_ms"] = t.self_prefix("classdp.until") / q;
  l["classdp.levels"] = t.counter("classdp.levels") / q;
  l["classdp.nodes_expanded"] = t.counter("classdp.nodes_expanded") / q;
  l["classdp.trivial_fold_ratio"] =
      ratio(t.counter("classdp.trivial_folds"),
            t.counter("classdp.trivial_folds") + t.counter("classdp.conditional_evals"));
  l["omega.evaluations"] = t.counter("omega.evaluations") / q;
  l["omega.dp_cells"] = t.counter("omega.dp_cells") / q;
  l["omega.cache_hit_ratio"] =
      ratio(t.counter("omega.shared_cache_hits"),
            t.counter("omega.shared_cache_hits") + t.counter("omega.shared_cache_misses"));
  l["fox_glynn.calls"] = t.counter("fox_glynn.calls") / q;
  l["numeric.transient_ms"] = t.self_prefix("transient") / q;
  l["transient.series_terms"] = t.counter("transient.series_terms") / q;
  l["uniformization.terms_saved"] = t.counter("uniformization.terms_saved") / q;
  l["numeric.discretization_ms"] = t.self_prefix("discretization.until") / q;
  l["discretization.time_steps"] = t.counter("discretization.time_steps") / q;
  l["discretization.cells"] = t.cells / q;
  l["linalg.spmv_rows"] = (t.counter("spmv.rows") + t.counter("spmv.blocked_rows")) / q;
  l["linalg.spmv_bytes_computed"] = t.spmv_bytes / q;
  l["linalg.solver_ms"] = t.self_prefix("solver") / q;
  l["linalg.solver_iterations"] = (t.counter("solver.gauss_seidel.iterations") +
                                   t.counter("solver.jacobi.iterations") +
                                   t.counter("solver.steady_state_gauss_seidel.iterations")) /
                                  q;
  l["graph.bsccs"] = t.counter("checker.steady.bsccs") / q;
  // Lookups are hits plus compile-time prewarms, each of which may miss:
  // exact for the cold per-query plans of paper_cold/large_sweep (every
  // prewarm misses), a lower bound for the daemon's warm per-model caches
  // (misses are not counted by the library).
  l["core.transform_cache_hit_ratio"] =
      ratio(t.counter("transform.cache_hits"),
            t.counter("transform.cache_hits") + t.counter("plan.transform_prewarms"));
  l["parallel.jobs"] = t.counter("thread_pool.jobs") / q;
  l["parallel.chunks"] = t.counter("thread_pool.chunks") / q;
  l["parallel.jobs_per_series_term"] =
      ratio(t.counter("thread_pool.jobs"), t.counter("transient.series_terms"));
}

WorkloadResult run_inprocess(const RunConfig& config, const Catalogue& catalogue) {
  WorkloadResult result;
  const bool cold = config.workload == "paper_cold";
  const ReferenceSet references = ReferenceSet::load(config.references, config.workload);
  obs::set_stats_enabled(false);
  Tracer untraced(false);
  Tracer traced(config.trace);

  // Set-up: build/load every model, repeatedly (more_setups), and once more
  // before every untimed-phase round, so the reported median samples the
  // whole run rather than its first fraction of a second. The latest copy
  // of the models serves the queries.
  std::vector<LoadedModel> models;
  const auto set_up = [&](Tracer& tracer) {
    models.clear();
    const std::int64_t start = now_ns();
    models = build_models(catalogue, config.root, tracer);
    result.setup_s.push_back(seconds_since(start));
  };
  int setups = 0;  // the traced set-ups, which the layer spans cover
  for (; setups < (config.smoke ? 1 : 3); ++setups) set_up(traced);
  for (const LoadedModel& loaded : models) {
    result.layers["models.states"] += static_cast<double>(loaded.model->num_states());
    result.layers["models.transitions"] +=
        static_cast<double>(loaded.model->rates().matrix().non_zeros());
  }

  Rng rng(derive_seed(config.seed, 1));
  LayerTotals totals;
  double round_s[2] = {0.0, 0.0};  // untraced, traced
  int rounds[2] = {0, 0};
  std::uint64_t next_query = 1;
  const std::int64_t start = now_ns();
  for (int round = 0;; ++round) {
    const bool done = config.smoke ? round >= (config.trace ? 2 : 1)
                                   : seconds_since(start) >= config.seconds;
    if (done) break;
    // Traced runs alternate untraced and traced rounds, so the tracing
    // overhead is measured on the same query mix.
    const bool tracing = config.trace && round % 2 == 1;
    if (!tracing && !config.smoke) set_up(untraced);
    obs::set_stats_enabled(tracing);
    Tracer& tracer = tracing ? traced : untraced;
    std::vector<std::size_t> order(catalogue.queries.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    rng.shuffle(order);
    const std::int64_t round_start = now_ns();
    for (const std::size_t index : order) {
      const QuerySpec& query = catalogue.queries[index];
      const LoadedModel& loaded = find_model(models, query.model);
      const std::vector<double> thresholds = draw_thresholds(query, rng);
      const std::vector<std::string> texts = formula_texts(query, thresholds);
      const cc::CheckerOptions options = query_options(query, config.threads);
      // Every mrmcheck process starts with empty caches. Only the shared
      // Omega cache has a public clear(); the process-wide Poisson tail
      // cache (an 8-mean LRU) stays warm across queries, so a query whose
      // mean is still resident skips that table build.
      if (cold) csrlmrm::numeric::SharedOmegaCache::global().clear();
      if (tracing) obs::StatsRegistry::global().reset();
      ++result.attempted;
      plan::PlanResult answer;
      const std::int64_t t0 = now_ns();
      try {
        answer = run_query(*loaded.model, texts, options, tracer, next_query++);
      } catch (const std::exception& error) {
        result.record_failure(query.id + ": " + error.what());
        continue;
      }
      const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
      if (tracing) {
        totals.absorb_query(loaded.nnz_per_row);
        totals.formulas += static_cast<double>(texts.size());
      } else {
        result.latencies_ms.push_back(ms);
      }
      std::string failure;
      for (std::size_t f = 0; f < query.formulas.size() && failure.empty(); ++f) {
        const FormulaSpec& spec = query.formulas[f];
        const FormulaAnswer formula_answer = answer_from_result(answer.formulas[f]);
        result.record_answer(formula_answer);
        const Reference* reference = references.find(reference_key(query.model, spec));
        failure = reference == nullptr
                      ? "no reference for " + reference_key(query.model, spec)
                      : check_answer(*reference, spec, thresholds[f], formula_answer);
      }
      if (!failure.empty()) result.record_failure(query.id + ": " + failure);
    }
    const double round_seconds = seconds_since(round_start);
    round_s[tracing ? 1 : 0] += round_seconds;
    if (!tracing) {
      result.slice_rates.push_back(static_cast<double>(order.size()) / round_seconds);
    }
    ++rounds[tracing ? 1 : 0];
  }
  result.timed_s = config.trace ? round_s[0] : seconds_since(start);
  obs::set_stats_enabled(false);
  result.peak_rss_mib = self_peak_rss_mib();

  if (config.trace) {
    fill_layers(totals, self_time_ms(traced.spans()), setups, result);
    result.layers["obs.trace_overhead_frac"] =
        rounds[0] > 0 && rounds[1] > 0
            ? (round_s[1] / rounds[1]) / (round_s[0] / rounds[0]) - 1.0
            : 0.0;
  }
  return result;
}

int make_references(const RunConfig& config) {
  int status = 0;
  for (const std::string workload : {"paper_cold", "large_sweep", "daemon_mixed"}) {
    const Catalogue catalogue = catalogue_for(workload);
    Tracer off(false);
    const std::vector<LoadedModel> models = build_models(catalogue, config.root, off);
    ReferenceSet set;
    std::map<std::string, bool> done;
    for (const QuerySpec& query : catalogue.queries) {
      const LoadedModel& loaded = find_model(models, query.model);
      for (const FormulaSpec& formula : query.formulas) {
        const std::string key = reference_key(query.model, formula);
        if (done[key]) continue;
        done[key] = true;
        FormulaSpec tight = formula;
        if (!formula.reference_body.empty()) tight.body = formula.reference_body;
        // Tighter than the workload on every error source: class-DP with
        // w / 1000 instead of discretization, and tighter Fox-Glynn and
        // solver tolerances.
        QuerySpec reference_query = query;
        reference_query.step = 0.0;
        reference_query.w = query.w * 1e-3;
        cc::CheckerOptions options = query_options(reference_query, config.threads);
        options.transient.epsilon = 1e-15;
        options.transient.steady_epsilon = 1e-15;
        options.solver.tolerance = 1e-15;
        options.solver.max_iterations = 10'000'000;
        const std::int64_t t0 = now_ns();
        const plan::PlanResult tight_result =
            run_query(*loaded.model, {tight.text(formula.thresholds[0])}, options, off, 0);
        const double ms = static_cast<double>(now_ns() - t0) * 1e-6;
        const FormulaAnswer answer = answer_from_result(tight_result.formulas[0]);
        Reference reference;
        reference.tol = reference_tolerance(formula);
        reference.states = reference_states(answer.lo.size());
        double widest = 0.0;
        for (const std::size_t s : reference.states) {
          reference.values.push_back({answer.lo[s], answer.hi[s]});
          widest = std::max(widest, answer.hi[s] - answer.lo[s]);
        }
        std::printf("%-12s %-62s %9.1f ms  widest %.3g\n", workload.c_str(), key.c_str(), ms,
                    widest);
        // Where the workload answers by discretization, cross-check that
        // answer against the class-DP reference.
        if (query.step > 0.0) {
          const plan::PlanResult disc =
              run_query(*loaded.model, {formula.text(formula.thresholds[0])},
                        query_options(query, config.threads), off, 0);
          const FormulaAnswer disc_answer = answer_from_result(disc.formulas[0]);
          double gap = 0.0;
          for (const std::size_t s : reference.states) {
            gap = std::max(gap, std::abs(0.5 * (disc_answer.lo[s] + disc_answer.hi[s]) -
                                         0.5 * (answer.lo[s] + answer.hi[s])));
          }
          const std::string verdict =
              check_answer(reference, formula, formula.thresholds[0], disc_answer);
          std::printf("    cross-check: discretization d=%g vs class-DP max |diff| %.3g, %s\n",
                      query.step, gap, verdict.empty() ? "enclosed" : verdict.c_str());
          if (!verdict.empty()) status = 1;
        }
        set.add(key, std::move(reference));
      }
    }
    set.save(config.references + "/" + workload + ".json");
  }
  return status;
}

}  // namespace perfbench
