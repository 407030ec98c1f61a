// Workload runners and what they report.
#pragma once

#include <cstddef>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "catalogue.hpp"
#include "plan/executor.hpp"
#include "references.hpp"

namespace perfbench {

struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Smoke mode: one short round per phase, for the harness's own tests.
  bool smoke = false;
  unsigned threads = 1;       // checker threads (workload_threads)
  unsigned clients = 1;       // daemon_mixed client connections (= nproc)
  std::string root = ".";     // repository checkout (model files)
  std::string references;     // directory of references/<workload>.json
  std::string daemon;         // mrmcheckd binary
  std::string work_dir;       // scratch space inside the checkout
};

/// Everything one workload run measured.
struct WorkloadResult {
  std::vector<double> setup_s;        // one entry per set-up repetition
  std::vector<double> latencies_ms;   // one per completed query, timed phase
  double timed_s = 0.0;               // wall time of the timed phase
  /// Completed queries per second in each slice of the timed phase (a
  /// round of the catalogue, or a fixed time window for the daemon); the
  /// reported throughput is their median, so a burst of outside load on a
  /// shared host moves one slice, not the figure.
  std::vector<double> slice_rates;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  std::size_t verdicts = 0;
  std::size_t unknown = 0;
  double log_width_sum = 0.0;         // sum over answers of mean log10(width)
  std::size_t width_answers = 0;
  double peak_rss_mib = 0.0;
  std::vector<std::string> failures;  // first few failure descriptions
  /// Per-layer metrics (traced runs only), by their BENCHMARK.json names.
  std::map<std::string, double> layers;

  void record_failure(const std::string& what);
  /// Adds one checked answer's verdict and width statistics.
  void record_answer(const FormulaAnswer& answer);
};

/// Totals of the traced queries, turned into per-layer metrics at the end.
struct LayerTotals {
  std::map<std::string, double> counters;     // obs counters, summed
  std::map<std::string, double> obs_self_ms;  // obs trace self time by timer
  double cells = 0.0;                         // discretization steps x levels
  double spmv_bytes = 0.0;
  double formulas = 0.0;
  std::size_t queries = 0;

  double counter(const std::string& name) const;
  /// Summed self time of the obs timers named `prefix` or `prefix.*`.
  double self_prefix(const std::string& prefix) const;
  /// Reads the global obs registry after one query (stats on, registry
  /// reset before the query).
  void absorb_query(double nnz_per_row);
};

/// Bytes an SpMV sweep over `rows` rows moves, computed from the row count
/// and the nonzeros per row (not measured).
double spmv_bytes_computed(double rows, double nnz_per_row);

/// Sets every per-layer metric derivable from `totals` and the benchmark's
/// own span self times (`setups` = set-up repetitions the spans cover).
void fill_layers(const LayerTotals& totals, const std::map<std::string, double>& span_self,
                 int setups, WorkloadResult& result);

/// The per-layer metric names, in report order, with their units.
const std::vector<std::pair<std::string, std::string>>& layer_metrics();

/// paper_cold and large_sweep: in-process closed loop, one client.
WorkloadResult run_inprocess(const RunConfig& config, const Catalogue& catalogue);
/// daemon_mixed: the real mrmcheckd child and nproc client connections.
WorkloadResult run_daemon_mixed(const RunConfig& config);

/// One plan result as a FormulaAnswer (bounds when present, else the raw
/// probabilities/values as point enclosures).
FormulaAnswer answer_from_result(const csrlmrm::plan::FormulaResult& result);

/// CheckerOptions for a catalogue query.
csrlmrm::checker::CheckerOptions query_options(const QuerySpec& query, unsigned threads);

/// Computes references/<workload>.json for every workload catalogue (offline;
/// prints the discretization/class-DP cross-check).
int make_references(const RunConfig& config);

/// Whether to run another set-up repetition: at least three, and more
/// until a second and a half has gone by (so set-ups of a few milliseconds
/// still give a steady median); one in smoke mode.
bool more_setups(const RunConfig& config, int done, std::int64_t start);

/// Checker threads a workload runs with. large_sweep runs its long SpMV
/// sweeps on two workers, so the parallel layer does real work; the
/// millisecond-scale queries of paper_cold and daemon_mixed run
/// single-threaded. On a shared 4-vCPU host with steal time, nproc threads
/// made every workload's figures too unsteady to compare commits: a sweep
/// waits for its slowest worker, so each extra worker adds exposure to a
/// stolen vCPU (see CHANGES.md).
unsigned workload_threads(const std::string& workload, unsigned nproc);

/// Peak RSS of this process, MiB.
double self_peak_rss_mib();

}  // namespace perfbench
