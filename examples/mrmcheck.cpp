// mrmcheck — the command-line model checker of the thesis appendix:
//
//   mrmcheck <model.tra> <model.lab> <model.rewr> [model.rewi]
//            [u=<w> | d=<step>] [--threads N] [NP] "<CSRL formula>"
//   mrmcheck <model.spec> [u=<w> | d=<step>] [--threads N] [NP] "<CSRL formula>"
//
// Options may appear anywhere on the command line. Reads an MRM from the
// four file formats (or builds it from a guarded-command .spec file, see
// src/lang/spec.hpp), checks the formula,
// and prints the satisfying states (and, unless NP is given, the computed
// per-state probabilities for the outermost S/P/R operator). Defaults to
// uniformization with w = 1e-8, exactly like the original tool.
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <vector>

#include "checker/verdict.hpp"
#include "cli_numbers.hpp"
#include "io/model_files.hpp"
#include "models/generator.hpp"
#include "lang/builder.hpp"
#include "logic/printer.hpp"
#include "obs/stats.hpp"
#include "parallel/thread_pool.hpp"
#include "plan/batch.hpp"
#include "plan/compiler.hpp"
#include "plan/printer.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: mrmcheck <model.tra> <model.lab> <model.rewr> [model.rewi]\n"
               "                [u=<w> | d=<step>] [NP] \"<CSRL formula>\"\n"
               "       mrmcheck <model.spec> [u=<w> | d=<step>] [NP] \"<CSRL formula>\"\n"
               "       mrmcheck --model-gen=<family:k=v,...> [options] \"<CSRL formula>\"\n"
               "\n"
               "  --model-gen=<spec>  build the model from a streamed generator instead\n"
               "            of model files. Families:\n"
               "            grid  (mesh network:   width, height, hop, drift, energy, power)\n"
               "            crowd (epidemic:       population, contact, recovery,\n"
               "                                   treatment, outbreak)\n"
               "            virus (host infection: hosts, infect, recover, damage)\n"
               "            e.g. --model-gen=grid:width=256,height=256\n"
               "  --steady-detect[=eps]  let uniformization series stop early once the\n"
               "            iterate is steady within eps (default 1e-12); the cut's\n"
               "            error is accounted into the reported value intervals\n"
               "  u=<w>     until formulas by uniformization, truncation probability w\n"
               "            (default: u=1e-8)\n"
               "  d=<step>  until formulas by discretization with the given step\n"
               "  --threads N  worker threads (1..4096) for the numeric engines and\n"
               "            the per-state fan-out (default: CSRLMRM_THREADS env var,\n"
               "            else hardware concurrency; 1 = serial)\n"
               "  --stats[=file.json]  collect engine statistics (solver iterations,\n"
               "            Poisson truncation edges, path counts, per-operator timings)\n"
               "            and write them as JSON to the file (or stdout). The\n"
               "            CSRLMRM_STATS env var enables collection as well.\n"
               "  --strict  exit with status 3 when any state's verdict is UNKNOWN\n"
               "            (its value interval straddles a threshold); the default\n"
               "            only warns and lists the offending intervals\n"
               "  --fallback=<policy>  what to do when the uniformization engine\n"
               "            exhausts its node budget: 'discretize' (default: answer\n"
               "            every start state with one discretization sweep),\n"
               "            'widen-w' (re-run with coarser truncation, then\n"
               "            discretize), or 'throw' (fail)\n"
               "  --max-nodes=N  node budget for the uniformization engine (frontier\n"
               "            classes processed, default 500000000)\n"
               "  --formulas=<file>  check a batch of formulas (one per line; blank\n"
               "            lines and '#' comments skipped) through one compiled plan\n"
               "            that deduplicates shared subformulas, solves, and\n"
               "            absorbing transforms across the batch; replaces the\n"
               "            positional formula argument. A malformed or unsupported\n"
               "            formula fails alone (its error printed in its slot), the\n"
               "            rest of the batch still runs, and the exit status is 4\n"
               "  --explain  compile the formula (or --formulas batch) into a plan,\n"
               "            print it — ops, sharing, chosen until engines — and exit\n"
               "            without checking anything\n"
               "  NP        do not print per-state probabilities\n"
               "\n"
               "options may come before, between or after the model files and the formula\n"
               "\n"
               "formula syntax (appendix of the thesis, plus the R extension):\n"
               "  TT FF ! && || S(op p) f P(op p)[f U[t1,t2][r1,r2] f]\n"
               "  P(op p)[X[t1,t2][r1,r2] f] R(op x)[C[0,t]] R(op x)[F f] R(op x)[S]\n"
               "  with op in < <= > >=, ~ = infinity\n");
}

bool ends_with(const std::string& text, const char* suffix) {
  const std::string s(suffix);
  return text.size() >= s.size() && text.compare(text.size() - s.size(), s.size(), s) == 0;
}

csrlmrm::core::Mrm load_spec_model(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open '" + path + "'");
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto built = csrlmrm::lang::build_model_from_text(buffer.str());
  return std::move(*built.model);
}

/// Reads a --formulas file: one formula per line, blank lines and lines
/// starting with '#' skipped.
std::vector<std::string> load_formula_lines(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open formulas file '" + path + "'");
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) {
    const std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos || line[start] == '#') continue;
    const std::size_t end = line.find_last_not_of(" \t\r");
    lines.push_back(line.substr(start, end - start + 1));
  }
  if (lines.empty()) {
    throw std::runtime_error("formulas file '" + path + "' contains no formulas");
  }
  return lines;
}

/// Prints one formula's results (per-state values, satisfying states,
/// UNKNOWN warnings). Returns whether any state's verdict is UNKNOWN.
bool report_plan_formula(const csrlmrm::core::Mrm& model,
                         const csrlmrm::logic::FormulaPtr& formula,
                         const csrlmrm::plan::FormulaResult& result,
                         bool print_probabilities) {
  using namespace csrlmrm;
  std::printf("formula: %s\n", logic::to_string(formula).c_str());
  if (print_probabilities && result.has_probabilities) {
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      std::printf("  P(state %zu) = %.17g", s + 1, result.probabilities[s].probability);
      if (result.probabilities[s].bound.width() > 0.0) {
        std::printf("  (in %s)", result.probabilities[s].bound.to_string().c_str());
      }
      std::printf("\n");
    }
  }
  if (print_probabilities && result.has_values) {
    const char* name = formula->kind == logic::FormulaKind::kSteady ? "pi" : "E";
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      std::printf("  %s(state %zu) = %.17g\n", name, s + 1, result.values[s]);
    }
  }
  std::printf("satisfying states (1-based):");
  bool any = false;
  bool any_unknown = false;
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (result.verdicts[s] == checker::Verdict::kSat) {
      std::printf(" %zu", s + 1);
      any = true;
    } else if (result.verdicts[s] == checker::Verdict::kUnknown) {
      any_unknown = true;
    }
  }
  std::printf("%s\n", any ? "" : " (none)");
  if (any_unknown) {
    std::printf("UNKNOWN states (1-based):");
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (result.verdicts[s] == checker::Verdict::kUnknown) std::printf(" %zu", s + 1);
    }
    std::printf("\n");
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (result.verdicts[s] != checker::Verdict::kUnknown) continue;
      if (result.has_bounds) {
        std::fprintf(stderr,
                     "mrmcheck: warning: state %zu is UNKNOWN — value interval %s straddles "
                     "the threshold; tighten w/epsilon/d or use --strict to fail\n",
                     s + 1, result.bounds[s].to_string().c_str());
      } else {
        std::fprintf(stderr,
                     "mrmcheck: warning: state %zu is UNKNOWN — a sub-formula's value "
                     "interval straddles its threshold at the configured accuracy\n",
                     s + 1);
      }
    }
  }
  return any_unknown;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrlmrm;
  if (argc < 3) {
    usage();
    return 2;
  }

  try {
    const cli::NumberFlags numbers("mrmcheck");
    checker::CheckerOptions options;
    bool print_probabilities = true;
    bool strict = false;
    bool explain = false;
    bool stats_requested = obs::stats_enabled();  // CSRLMRM_STATS env var
    std::string stats_path;
    std::string formulas_path;
    std::string model_gen;
    std::vector<std::string> positional;  // the model files, then the formula
    for (int arg = 1; arg < argc; ++arg) {
      const std::string token = argv[arg];
      if (token.rfind("--model-gen=", 0) == 0) {
        model_gen = token.substr(12);
        if (model_gen.empty()) {
          std::fprintf(stderr, "mrmcheck: --model-gen= expects family:key=value,...\n");
          return 2;
        }
      } else if (token.rfind("u=", 0) == 0) {
        options.until_method = checker::UntilMethod::kUniformization;
        if (!numbers.positive_number("u=", token.substr(2),
                                     options.uniformization.truncation_probability)) {
          return 2;
        }
      } else if (token.rfind("d=", 0) == 0) {
        options.until_method = checker::UntilMethod::kDiscretization;
        if (!numbers.positive_number("d=", token.substr(2), options.discretization.step)) {
          return 2;
        }
      } else if (token == "--threads" || token.rfind("--threads=", 0) == 0) {
        std::string value;
        if (token == "--threads") {
          if (arg + 1 >= argc) {
            usage();
            return 2;
          }
          value = argv[++arg];
        } else {
          value = token.substr(10);
        }
        std::size_t threads = 0;
        if (!numbers.count("--threads", value, parallel::kMaxThreads, threads)) return 2;
        options.threads = static_cast<unsigned>(threads);
        parallel::set_default_thread_count(options.threads);
      } else if (token == "--stats" || token.rfind("--stats=", 0) == 0) {
        stats_requested = true;
        if (token.rfind("--stats=", 0) == 0) {
          stats_path = token.substr(8);
          if (stats_path.empty()) {
            std::fprintf(stderr, "mrmcheck: --stats= expects a file path\n");
            return 2;
          }
        }
      } else if (token == "--steady-detect" || token.rfind("--steady-detect=", 0) == 0) {
        options.transient.detect_steady_state = true;
        if (token.rfind("--steady-detect=", 0) == 0 &&
            !numbers.positive_number("--steady-detect=", token.substr(16),
                                     options.transient.steady_epsilon)) {
          return 2;
        }
      } else if (token == "--strict") {
        strict = true;
      } else if (token == "--explain") {
        explain = true;
      } else if (token.rfind("--formulas=", 0) == 0) {
        formulas_path = token.substr(11);
        if (formulas_path.empty()) {
          std::fprintf(stderr, "mrmcheck: --formulas= expects a file path\n");
          return 2;
        }
      } else if (token.rfind("--fallback=", 0) == 0) {
        const std::string policy = token.substr(11);
        if (policy == "throw") {
          options.on_budget_exhausted = checker::BudgetPolicy::kThrow;
        } else if (policy == "discretize") {
          options.on_budget_exhausted = checker::BudgetPolicy::kFallbackToDiscretization;
        } else if (policy == "widen-w") {
          options.on_budget_exhausted = checker::BudgetPolicy::kWidenW;
        } else {
          std::fprintf(stderr,
                       "mrmcheck: --fallback= expects 'throw', 'discretize' or 'widen-w', "
                       "got '%s'\n",
                       policy.c_str());
          return 2;
        }
      } else if (token.rfind("--max-nodes=", 0) == 0) {
        if (!numbers.count("--max-nodes=", token.substr(12),
                           std::numeric_limits<std::size_t>::max(),
                           options.uniformization.max_nodes)) {
          return 2;
        }
      } else if (token.rfind("--", 0) == 0) {
        std::fprintf(stderr, "mrmcheck: unknown option '%s'\n", token.c_str());
        usage();
        return 2;
      } else if (token == "NP") {
        print_probabilities = false;
      } else {
        positional.push_back(token);
      }
    }

    // Options may appear anywhere; among the positional arguments the model
    // comes first (nothing with --model-gen, one .spec file, or .tra .lab
    // .rewr [.rewi]), then the formula.
    std::size_t next = 0;
    std::string tra;
    std::string lab;
    std::string rewr;
    std::string rewi;
    std::string spec_path;
    if (model_gen.empty()) {
      if (!positional.empty() && ends_with(positional[0], ".spec")) {
        spec_path = positional[next++];
      } else {
        if (positional.size() < 3) {
          usage();
          return 2;
        }
        tra = positional[next++];
        lab = positional[next++];
        rewr = positional[next++];
        if (next < positional.size() && positional[next].find(".rewi") != std::string::npos) {
          rewi = positional[next++];
        }
      }
    }
    const bool have_formula = next < positional.size();
    const std::string formula_text = have_formula ? positional[next++] : std::string();
    if (next < positional.size()) {
      std::fprintf(stderr, "mrmcheck: unexpected argument '%s' (formula already given as '%s')\n",
                   positional[next].c_str(), formula_text.c_str());
      usage();
      return 2;
    }
    if (formulas_path.empty() ? (!have_formula || formula_text.empty()) : have_formula) {
      if (!formulas_path.empty()) {
        std::fprintf(stderr,
                     "mrmcheck: --formulas=%s replaces the positional formula argument\n",
                     formulas_path.c_str());
      }
      usage();
      return 2;
    }

    if (stats_requested) {
      obs::set_stats_enabled(true);
      if (!stats_path.empty()) {
        // Fail before any model checking runs: a long run that then cannot
        // record its stats is the worst outcome.
        std::ofstream probe(stats_path);
        if (!probe) {
          std::fprintf(stderr, "mrmcheck: cannot write stats file '%s'\n", stats_path.c_str());
          return 2;
        }
      }
    }

    const core::Mrm model = !model_gen.empty()   ? models::make_generated_mrm(model_gen)
                            : !spec_path.empty() ? load_spec_model(spec_path)
                                                 : io::load_mrm(tra, lab, rewr, rewi);
    std::printf("model: %zu states, %zu transitions, impulse rewards: %s\n",
                model.num_states(), model.rates().matrix().non_zeros(),
                model.has_impulse_rewards() ? "yes" : "no");

    // A positional formula is a batch of one: it runs through the same plan
    // as a --formulas file (see src/plan/batch.hpp), prints without the
    // "[i/n] " slot prefix, and its failure is the run's failure (exit 1).
    const bool positional_formula = formulas_path.empty();
    const std::vector<std::string> texts =
        positional_formula ? std::vector<std::string>{formula_text}
                           : load_formula_lines(formulas_path);

    if (explain) {
      std::vector<logic::FormulaPtr> good;
      const std::vector<plan::BatchEntry> entries = plan::parse_batch(texts);
      for (std::size_t i = 0; i < texts.size(); ++i) {
        if (entries[i].formula) {
          good.push_back(entries[i].formula);
        } else {
          std::fprintf(stderr, "mrmcheck: formula %zu '%s': %s\n", i + 1, texts[i].c_str(),
                       entries[i].error.c_str());
        }
      }
      if (!good.empty()) {
        std::printf("%s", plan::print_plan(plan::compile(model, good, options)).c_str());
      }
      return good.size() == texts.size() ? 0 : 4;
    }

    const plan::BatchOutcome outcome = plan::check_batch(model, texts, options);
    bool any_unknown = false;
    bool any_failed = false;
    for (std::size_t i = 0; i < texts.size(); ++i) {
      const plan::BatchEntry& entry = outcome.entries[i];
      if (positional_formula) {
        if (!entry.error.empty()) {
          if (entry.formula) {
            std::printf("formula: %s\n", logic::to_string(entry.formula).c_str());
          }
          std::fprintf(stderr, "mrmcheck: %s\n", entry.error.c_str());
          return 1;
        }
      } else {
        std::printf("[%zu/%zu] ", i + 1, texts.size());
      }
      if (entry.error.empty()) {
        const bool unknown =
            report_plan_formula(model, entry.formula, entry.result, print_probabilities);
        any_unknown = any_unknown || unknown;
      } else {
        std::printf("formula: %s\n  error: %s\n", texts[i].c_str(), entry.error.c_str());
        std::fprintf(stderr, "mrmcheck: formula %zu '%s': %s\n", i + 1, texts[i].c_str(),
                     entry.error.c_str());
        any_failed = true;
      }
    }
    if (stats_requested) {
      const std::string json = obs::StatsRegistry::global().to_json();
      if (stats_path.empty()) {
        std::printf("stats:\n%s", json.c_str());
      } else {
        std::ofstream out(stats_path);
        out << json;
        if (!out) {
          std::fprintf(stderr, "mrmcheck: failed writing stats file '%s'\n",
                       stats_path.c_str());
          return 1;
        }
        std::printf("stats: written to %s\n", stats_path.c_str());
      }
    }
    if (strict && any_unknown) {
      std::fprintf(stderr, "mrmcheck: --strict: UNKNOWN verdicts present\n");
      if (!any_failed) return 3;
    }
    if (any_failed) {
      std::fprintf(stderr, "mrmcheck: batch completed with per-formula failures\n");
      return 4;
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "mrmcheck: %s\n", error.what());
    return 1;
  }
}
