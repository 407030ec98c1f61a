// perfbench — the csrl-mrm benchmark harness.
//
//   perfbench --workload <paper_cold|large_sweep|daemon_mixed> --seed N
//             --seconds S --trace <0|1> [--smoke]
//             [--root DIR] [--references DIR] [--daemon PATH]
//             [--work-dir DIR] [--commit SHA] [--out FILE]
//   perfbench --make-references --references DIR [--root DIR]
//
// One workload per process, so peak RSS belongs to that workload alone.
// Prints every metric by name and unit, then, as the last line, one JSON
// object {"correct", "attempted", "failed", "metrics"}: with --trace 0 the
// end-to-end metrics, with --trace 1 the per-layer ones. Exits 1 when any
// answer fails its reference check. perfbench/run.py builds and runs this.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>

#include "obs/json.hpp"
#include "parallel/thread_pool.hpp"
#include "workload.hpp"

namespace {

using csrlmrm::obs::JsonValue;
using namespace perfbench;

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_COMPILER
#define PERFBENCH_COMPILER "unknown"
#endif

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <paper_cold|large_sweep|daemon_mixed> --seed N\n"
               "                 --seconds S --trace <0|1> [--smoke]\n"
               "                 [--root DIR] [--references DIR] [--daemon PATH]\n"
               "                 [--work-dir DIR] [--commit SHA] [--out FILE]\n"
               "       perfbench --make-references --references DIR [--root DIR]\n");
  return 2;
}

JsonValue metric(double value, const std::string& unit) {
  JsonValue entry = JsonValue::object();
  entry.set("value", JsonValue(value));
  entry.set("unit", JsonValue(unit));
  return entry;
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  const unsigned nproc = std::max(1u, std::thread::hardware_concurrency());
  config.clients = nproc;
  config.references = "perfbench/references";
  config.work_dir = ".bench_build/perfbench-work";
  std::string commit = "unknown";
  std::string out_path;
  bool references_mode = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) throw std::invalid_argument(arg + " needs a value");
      return argv[++i];
    };
    try {
      if (arg == "--workload") {
        config.workload = value();
      } else if (arg == "--seed") {
        config.seed = std::stoull(value());
      } else if (arg == "--seconds") {
        config.seconds = std::stod(value());
      } else if (arg == "--trace") {
        config.trace = value() == "1";
      } else if (arg == "--smoke") {
        config.smoke = true;
      } else if (arg == "--root") {
        config.root = value();
      } else if (arg == "--references") {
        config.references = value();
      } else if (arg == "--daemon") {
        config.daemon = value();
      } else if (arg == "--work-dir") {
        config.work_dir = value();
      } else if (arg == "--commit") {
        commit = value();
      } else if (arg == "--out") {
        out_path = value();
      } else if (arg == "--make-references") {
        references_mode = true;
      } else {
        return usage();
      }
    } catch (const std::exception& error) {
      std::fprintf(stderr, "perfbench: bad argument %s: %s\n", arg.c_str(), error.what());
      return 2;
    }
  }
  // Reference generation only runs faster with every core.
  config.threads = references_mode ? nproc : workload_threads(config.workload, nproc);
  csrlmrm::parallel::set_default_thread_count(config.threads);

  try {
    if (references_mode) return make_references(config);

    WorkloadResult result;
    if (config.workload == "paper_cold") {
      result = run_inprocess(config, paper_cold_catalogue());
    } else if (config.workload == "large_sweep") {
      result = run_inprocess(config, large_sweep_catalogue());
    } else if (config.workload == "daemon_mixed") {
      result = run_daemon_mixed(config);
    } else {
      return usage();
    }

    const double setup_s = median(result.setup_s);
    const double p50 = median(result.latencies_ms);
    const Tail tail = tail_percentile(result.latencies_ms);
    const double qps = median(result.slice_rates);
    const double attempted = static_cast<double>(std::max<std::size_t>(1, result.attempted));
    const double failed_frac = static_cast<double>(result.failed) / attempted;
    const double unknown_frac =
        result.verdicts > 0
            ? static_cast<double>(result.unknown) / static_cast<double>(result.verdicts)
            : 0.0;
    const double width_geomean =
        result.width_answers > 0
            ? std::pow(10.0, result.log_width_sum / static_cast<double>(result.width_answers))
            : 0.0;
    const bool correct = result.failed == 0 && result.attempted > 0;

    std::printf("# perfbench workload=%s seed=%llu seconds=%g trace=%d smoke=%d\n",
                config.workload.c_str(), static_cast<unsigned long long>(config.seed),
                config.seconds, config.trace ? 1 : 0, config.smoke ? 1 : 0);
    std::printf("# nproc=%u threads=%u clients=%u compiler=\"%s\" build=%s commit=%s\n",
                nproc, config.threads, config.workload == "daemon_mixed" ? config.clients : 1,
                PERFBENCH_COMPILER, PERFBENCH_BUILD_TYPE, commit.c_str());
    std::printf("setup_s                 %12.6f s      (median of %zu set-ups)\n", setup_s,
                result.setup_s.size());
    std::printf("query_p50_ms            %12.4f ms     (%zu queries)\n", p50,
                result.latencies_ms.size());
    std::printf("query_tail_ms           %12.4f ms     (p%g, %zu samples beyond, of %zu)\n",
                tail.value, tail.percentile, tail.beyond, tail.samples);
    std::printf("queries_per_s           %12.4f 1/s    (median of %zu slices over %.2f s)\n",
                qps, result.slice_rates.size(), result.timed_s);
    std::printf("failed_frac             %12.6f ratio  (%zu failed / %zu attempted)\n",
                failed_frac, result.failed, result.attempted);
    std::printf("unknown_frac            %12.6f ratio  (%zu of %zu state verdicts)\n",
                unknown_frac, result.unknown, result.verdicts);
    std::printf("interval_width_geomean  %12.6g 1      (%zu answers)\n", width_geomean,
                result.width_answers);
    std::printf("peak_rss_mib            %12.2f MiB\n", result.peak_rss_mib);
    for (const std::string& failure : result.failures) {
      std::printf("FAILED %s\n", failure.c_str());
    }

    JsonValue metrics = JsonValue::object();
    if (config.trace) {
      result.layers["failed_frac"] = failed_frac;
      result.layers["unknown_frac"] = unknown_frac;
      for (const auto& [name, unit] : layer_metrics()) {
        const auto found = result.layers.find(name);
        const double value = found == result.layers.end() ? 0.0 : found->second;
        std::printf("  %-36s %16.6g %s\n", name.c_str(), value, unit.c_str());
        metrics.set(name, metric(value, unit));
      }
    } else {
      metrics.set("setup_s", metric(setup_s, "s"));
      metrics.set("query_p50_ms", metric(p50, "ms"));
      metrics.set("query_tail_ms", metric(tail.value, "ms"));
      metrics.set("queries_per_s", metric(qps, "1/s"));
      metrics.set("interval_width_geomean", metric(width_geomean, "1"));
      metrics.set("peak_rss_mib", metric(result.peak_rss_mib, "MiB"));
    }

    if (!out_path.empty()) {
      JsonValue record = JsonValue::object();
      record.set("schema", JsonValue(std::string("csrlmrm-perfbench-result-v1")));
      record.set("workload", JsonValue(config.workload));
      record.set("seed", JsonValue(static_cast<double>(config.seed)));
      record.set("seconds", JsonValue(config.seconds));
      record.set("trace", JsonValue(config.trace));
      record.set("nproc", JsonValue(static_cast<double>(nproc)));
      record.set("threads", JsonValue(static_cast<double>(config.threads)));
      record.set("compiler", JsonValue(std::string(PERFBENCH_COMPILER)));
      record.set("build_type", JsonValue(std::string(PERFBENCH_BUILD_TYPE)));
      record.set("commit", JsonValue(commit));
      record.set("tail_percentile", JsonValue(tail.percentile));
      record.set("tail_beyond", JsonValue(static_cast<double>(tail.beyond)));
      record.set("failed_frac", JsonValue(failed_frac));
      record.set("unknown_frac", JsonValue(unknown_frac));
      record.set("metrics", metrics);
      JsonValue failures = JsonValue::array();
      for (const std::string& failure : result.failures) failures.push_back(JsonValue(failure));
      record.set("failures", std::move(failures));
      std::ofstream(out_path) << csrlmrm::obs::write_json(record) << "\n";
    }

    JsonValue summary = JsonValue::object();
    summary.set("correct", JsonValue(correct));
    summary.set("attempted", JsonValue(static_cast<double>(result.attempted)));
    summary.set("failed", JsonValue(static_cast<double>(result.failed)));
    summary.set("metrics", std::move(metrics));
    std::printf("%s\n", csrlmrm::obs::write_json_compact(summary).c_str());
    return correct ? 0 : 1;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench: %s\n", error.what());
    return 1;
  }
}
