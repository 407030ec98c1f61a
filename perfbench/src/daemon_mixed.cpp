// daemon_mixed — the warm service under mixed reads and writes. The
// benchmark spawns the real mrmcheckd child (--threads from
// workload_threads) and keeps nproc client connections in a closed loop, one
// thread each, because mrmcheckc callers wait for each reply. Protocol/JSON, the dispatcher
// queue, cross-client batching and CSE, and the TransformCache/Omega/Poisson
// cache hits do the work, while numeric cost per request is small; the load
// stream exposes a change that speeds cache hits but slows inserts or
// evictions.
//
// Lifecycle guarantees: the socket lives in a fresh directory under the
// work dir; start-up is awaited with a timeout; every request runs under a
// watchdog that kills a stalled daemon, after which every remaining request
// counts as failed; shutdown uses the protocol's shutdown op and the child
// is always reaped (SIGKILL after a grace period).
#include "daemon_mixed.hpp"

#include <fcntl.h>
#include <signal.h>
#include <sys/resource.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <mutex>
#include <numeric>
#include <stdexcept>
#include <thread>

#include "daemon/client.hpp"
#include "daemon/protocol.hpp"
#include "io/model_files.hpp"
#include "logic/parser.hpp"
#include "obs/json.hpp"
#include "plan/compiler.hpp"
#include "workload.hpp"

namespace perfbench {

namespace cd = csrlmrm::daemon;
using csrlmrm::obs::JsonValue;

DaemonStream::DaemonStream(std::uint64_t seed, Catalogue reads)
    : seed_(seed), reads_(std::move(reads)) {}

std::string DaemonStream::random_source(std::size_t j) const {
  return "random:" + std::to_string(derive_seed(seed_, 100 + j) & 0xffffffffULL);
}

QuerySpec DaemonStream::random_query(std::size_t j) const {
  const std::vector<double> p = {0.05, 0.25, 0.5, 0.75};
  QuerySpec query{"d_random", "rnd" + std::to_string(j),
                  {{"P", ">", p, "[a U[0,2] b]", ""},
                   {"P", ">", p, "[a U[0,2] b]", ""},
                   {"S", ">", p, "(c)", ""},
                   {"P", ">", p, "[X[0,1] b]", ""}}};
  return query;
}

std::vector<double> DaemonStream::random_thresholds(std::size_t j) const {
  Rng rng(derive_seed(seed_, 200 + j));
  return draw_thresholds(random_query(j), rng);
}

DaemonRequest DaemonStream::at(std::size_t index) const {
  DaemonRequest request;
  if (index % kWriteEvery == kWriteEvery - 1) {
    request.write = true;
    request.random = (index / kWriteEvery) % kRandomPool;
    request.thresholds = random_thresholds(request.random);
    return request;
  }
  const std::size_t read = index - index / kWriteEvery;  // reads before this one
  const std::size_t models = reads_.queries.size();
  std::vector<std::size_t> order(models);
  for (std::size_t i = 0; i < models; ++i) order[i] = i;
  Rng round_rng(derive_seed(seed_, 1000 + read / models));
  round_rng.shuffle(order);
  request.query = order[read % models];
  Rng rng(derive_seed(seed_, 0x10000 + index));
  request.thresholds = draw_thresholds(reads_.queries[request.query], rng);
  return request;
}

QuerySpec DaemonStream::query(const DaemonRequest& request) const {
  return request.write ? random_query(request.random) : reads_.queries[request.query];
}

JsonValue DaemonStream::check_request(const DaemonRequest& request) const {
  const QuerySpec spec = query(request);
  cd::CheckRequest check;
  check.model = spec.model;
  check.formulas = formula_texts(spec, request.thresholds);
  JsonValue json = cd::check_request_to_json(check);
  json.set("op", JsonValue(std::string("check")));
  return json;
}

JsonValue DaemonStream::load_request(const DaemonRequest& request,
                                     const std::string& dir) const {
  const std::string name = query(request).model;
  const std::string prefix = dir + "/" + name;
  JsonValue json = JsonValue::object();
  json.set("op", JsonValue(std::string("load")));
  json.set("name", JsonValue(name));
  json.set("tra", JsonValue(prefix + ".tra"));
  json.set("lab", JsonValue(prefix + ".lab"));
  json.set("rewr", JsonValue(prefix + ".rewr"));
  json.set("rewi", JsonValue(prefix + ".rewi"));
  return json;
}

namespace {

constexpr double kRequestTimeoutS = 60.0;
constexpr double kStartTimeoutS = 60.0;

/// A spawned mrmcheckd. Always reaped: stop() on every path, and the
/// destructor kills and reaps a child that is still running.
class DaemonChild {
 public:
  DaemonChild(const RunConfig& config, const std::string& socket,
              const std::vector<std::string>& preloads, bool stats, const std::string& log) {
    std::vector<std::string> args = {config.daemon, "--socket=" + socket,
                                     "--threads=" + std::to_string(config.threads),
                                     "--models=" + std::to_string(kCapacity)};
    if (stats) args.push_back("--stats");
    for (const std::string& preload : preloads) {
      args.push_back("--preload");
      args.push_back(preload);
    }
    std::vector<char*> argv;
    for (std::string& arg : args) argv.push_back(arg.data());
    argv.push_back(nullptr);
    const int log_fd = ::open(log.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC, 0644);
    pid_ = ::fork();
    if (pid_ < 0) {
      if (log_fd >= 0) ::close(log_fd);
      throw std::runtime_error("cannot fork mrmcheckd");
    }
    if (pid_ == 0) {
      // Only async-signal-safe calls between fork and exec.
      if (log_fd >= 0) {
        ::dup2(log_fd, STDOUT_FILENO);
        ::dup2(log_fd, STDERR_FILENO);
      }
      ::execv(argv[0], argv.data());
      ::_exit(127);
    }
    if (log_fd >= 0) ::close(log_fd);
  }
  ~DaemonChild() {
    if (pid_ > 0 && !reaped_) {
      ::kill(pid_, SIGKILL);
      reap(5.0);
    }
  }
  DaemonChild(const DaemonChild&) = delete;
  DaemonChild& operator=(const DaemonChild&) = delete;

  /// Resident capacity: the five read models plus four slots the random
  /// models cycle through (the pool is larger, so loads evict).
  static constexpr std::size_t kCapacity = 9;

  pid_t pid() const { return pid_; }

  /// True once the child has exited (reaps it).
  bool exited() {
    if (reaped_) return true;
    int status = 0;
    rusage usage{};
    if (::wait4(pid_, &status, WNOHANG, &usage) == pid_) {
      reaped_ = true;
      usage_ = usage;
    }
    return reaped_;
  }

  /// Waits up to `timeout_s` for the child to exit; false on timeout.
  bool reap(double timeout_s) {
    const std::int64_t start = now_ns();
    while (!exited()) {
      if (seconds_since(start) > timeout_s) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  /// Shutdown op, then reap; SIGKILL when the daemon does not comply.
  void stop(const std::string& socket) {
    if (exited()) return;
    try {
      cd::Client client(socket);
      JsonValue request = JsonValue::object();
      request.set("op", JsonValue(std::string("shutdown")));
      std::thread killer([this] {
        if (!reap(10.0)) ::kill(pid_, SIGKILL);
      });
      try {
        client.roundtrip(request);
      } catch (const std::exception&) {
        // The daemon may close the connection as it exits.
      }
      killer.join();
    } catch (const std::exception&) {
      ::kill(pid_, SIGKILL);
    }
    if (!reap(10.0)) {
      ::kill(pid_, SIGKILL);
      reap(10.0);
    }
  }

  double peak_rss_mib() const { return static_cast<double>(usage_.ru_maxrss) / 1024.0; }

 private:
  pid_t pid_ = -1;
  bool reaped_ = false;
  rusage usage_{};
};

/// Pings until the daemon answers; false when it dies or the timeout passes.
bool wait_ready(DaemonChild& child, const std::string& socket) {
  const std::int64_t start = now_ns();
  JsonValue ping = JsonValue::object();
  ping.set("op", JsonValue(std::string("ping")));
  while (seconds_since(start) < kStartTimeoutS) {
    if (child.exited()) return false;
    try {
      cd::Client client(socket);
      const JsonValue reply = client.roundtrip(ping);
      if (const JsonValue* ok = reply.find("ok"); ok != nullptr && ok->as_bool()) return true;
    } catch (const std::exception&) {
      // Not listening yet.
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return false;
}

/// Kills the daemon when any client's request outlives kRequestTimeoutS:
/// the blocked reads then fail and the clients stop.
class Watchdog {
 public:
  Watchdog(pid_t pid, std::size_t slots) : pid_(pid), started_(slots) {
    for (auto& slot : started_) slot.store(0);
    thread_ = std::thread([this] { run(); });
  }
  ~Watchdog() {
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      done_ = true;
    }
    wake_.notify_all();
    thread_.join();
  }
  void begin(std::size_t slot) { started_[slot].store(now_ns()); }
  void end(std::size_t slot) { started_[slot].store(0); }
  bool fired() const { return fired_.load(); }

 private:
  void run() {
    std::unique_lock<std::mutex> lock(mutex_);
    while (!done_) {
      wake_.wait_for(lock, std::chrono::milliseconds(50));
      for (const auto& slot : started_) {
        const std::int64_t started = slot.load();
        if (started != 0 && seconds_since(started) > kRequestTimeoutS && !fired_.load()) {
          fired_.store(true);
          ::kill(pid_, SIGKILL);
        }
      }
    }
  }

  pid_t pid_;
  std::vector<std::atomic<std::int64_t>> started_;
  std::atomic<bool> fired_{false};
  std::mutex mutex_;
  std::condition_variable wake_;
  bool done_ = false;
  std::thread thread_;
};

/// A model the clients check; its files are <dir>/<name>.{tra,lab,rewr,rewi}
/// (DaemonStream::load_request).
struct ResidentFiles {
  std::string name;
  double nnz_per_row = 0.0;
};

FormulaAnswer answer_from_reply(const cd::FormulaReply& reply) {
  FormulaAnswer answer;
  answer.verdicts = reply.verdicts;
  if (reply.has_bounds) {
    answer.lo = reply.bound_lower;
    answer.hi = reply.bound_upper;
  } else if (reply.has_probabilities) {
    answer.lo = answer.hi = reply.probabilities;
  } else if (reply.has_values) {
    answer.lo = answer.hi = reply.values;
  }
  return answer;
}

/// Compares a daemon reply with the in-process plan result bit for bit.
std::string bitwise_mismatch(const cd::FormulaReply& reply,
                             const csrlmrm::plan::FormulaResult& expected) {
  const FormulaAnswer want = answer_from_result(expected);
  if (reply.verdicts != want.verdicts) return "verdicts differ from the in-process run";
  if (reply.has_probabilities != expected.has_probabilities ||
      reply.has_values != expected.has_values || reply.has_bounds != expected.has_bounds) {
    return "reply shape differs from the in-process run";
  }
  if (expected.has_probabilities) {
    for (std::size_t s = 0; s < expected.probabilities.size(); ++s) {
      if (reply.probabilities.at(s) != expected.probabilities[s].probability) {
        return "probability differs from the in-process run at state " + std::to_string(s);
      }
    }
  }
  if (expected.has_values && reply.values != expected.values) {
    return "values differ from the in-process run";
  }
  if (expected.has_bounds && (reply.bound_lower != want.lo || reply.bound_upper != want.hi)) {
    return "bounds differ from the in-process run";
  }
  return "";
}

/// Shared state of one timed phase.
struct Phase {
  const RunConfig* config = nullptr;
  const DaemonStream* stream = nullptr;
  const ReferenceSet* references = nullptr;
  const std::vector<ResidentFiles>* residents = nullptr;  // aligned with reads->queries
  const std::vector<ResidentFiles>* randoms = nullptr;    // the random pool's files
  const std::vector<csrlmrm::plan::PlanResult>* expected = nullptr;  // and answers
  Tracer* tracer = nullptr;
  std::string dir;  // the model files
  std::string socket;
  double seconds = 0.0;

  std::atomic<std::size_t> next{0};
  std::mutex mutex;  // guards everything below
  WorkloadResult* result = nullptr;
  std::vector<double> check_ms;
  std::vector<std::int64_t> check_done_ns;  // completion times
  std::vector<double> load_ms;
  double spmv_bytes = 0.0;
  double formulas = 0.0;
};

/// One round trip under the watchdog; throws on a dead connection.
JsonValue timed_roundtrip(cd::Client& client, const JsonValue& request, Watchdog& watchdog,
                          std::size_t slot, double& ms) {
  watchdog.begin(slot);
  const std::int64_t start = now_ns();
  try {
    JsonValue reply = client.roundtrip(request);
    ms = static_cast<double>(now_ns() - start) * 1e-6;
    watchdog.end(slot);
    return reply;
  } catch (...) {
    watchdog.end(slot);
    throw;
  }
}

bool not_resident(const cd::CheckReply& reply) {
  return !reply.ok && reply.error.find("not resident") != std::string::npos;
}

void client_loop(Phase& phase, std::size_t slot, Watchdog& watchdog, std::int64_t start) {
  std::unique_ptr<cd::Client> client;
  try {
    client = std::make_unique<cd::Client>(phase.socket);
  } catch (const std::exception& error) {
    const std::lock_guard<std::mutex> lock(phase.mutex);
    ++phase.result->attempted;
    phase.result->record_failure(std::string("connect: ") + error.what());
    return;
  }
  for (;;) {
    if (phase.config->smoke ? phase.next.load() >= 2 * DaemonStream::kWriteEvery
                            : seconds_since(start) >= phase.seconds) {
      // The daemon's connection threads record load/eviction counters but
      // flush them only when that same thread snapshots the registry: a
      // stats op on this connection makes them visible to the final read.
      if (phase.tracer->enabled()) {
        try {
          JsonValue stats = JsonValue::object();
          stats.set("op", JsonValue(std::string("stats")));
          double ms = 0.0;
          timed_roundtrip(*client, stats, watchdog, slot, ms);
        } catch (const std::exception&) {
          // A dead daemon already failed the phase.
        }
      }
      return;
    }
    const std::size_t index = phase.next.fetch_add(1);
    const DaemonRequest request = phase.stream->at(index);
    const QuerySpec query = phase.stream->query(request);
    const std::size_t formulas = query.formulas.size();
    const ResidentFiles& files = request.write ? phase.randoms->at(request.random)
                                               : phase.residents->at(request.query);
    const JsonValue check_json = phase.stream->check_request(request);

    std::string failure;
    double check_ms = 0.0;
    std::vector<double> loads;
    cd::CheckReply reply;
    try {
      const ScopedSpan span(*phase.tracer, "daemon.request", index + 1);
      // A write loads its model first; a check that finds its model evicted
      // re-loads it and retries once, as a real client would.
      for (int attempt = 0; attempt < 2; ++attempt) {
        if (request.write || attempt > 0) {
          const ScopedSpan load_span(*phase.tracer, "daemon.load", index + 1);
          double ms = 0.0;
          const JsonValue loaded = timed_roundtrip(
              *client, phase.stream->load_request(request, phase.dir), watchdog, slot, ms);
          loads.push_back(ms);
          const JsonValue* ok = loaded.find("ok");
          if (ok == nullptr || !ok->as_bool()) throw std::runtime_error("load refused");
        }
        const ScopedSpan check_span(*phase.tracer, "daemon.check", index + 1);
        reply = cd::check_reply_from_json(
            timed_roundtrip(*client, check_json, watchdog, slot, check_ms));
        if (!not_resident(reply)) break;
      }
      if (!reply.ok) {
        failure = "error: " + reply.error;
      } else if (reply.degraded) {
        failure = "degraded reply";
      } else if (reply.formulas.size() != formulas) {
        failure = "reply has the wrong number of formulas";
      }
    } catch (const std::exception& error) {
      failure = watchdog.fired() ? "daemon stalled and was killed" : error.what();
    }

    const std::lock_guard<std::mutex> lock(phase.mutex);
    WorkloadResult& result = *phase.result;
    ++result.attempted;
    for (const double ms : loads) phase.load_ms.push_back(ms);
    if (failure.empty()) {
      phase.check_ms.push_back(check_ms);
      phase.check_done_ns.push_back(now_ns());
      phase.formulas += static_cast<double>(formulas);
      for (std::size_t f = 0; f < formulas && failure.empty(); ++f) {
        const cd::FormulaReply& formula = reply.formulas[f];
        if (!formula.ok) {
          failure = "formula error: " + formula.error;
          break;
        }
        const FormulaAnswer answer = answer_from_reply(formula);
        result.record_answer(answer);
        if (request.write) {
          failure = bitwise_mismatch(formula, phase.expected->at(request.random).formulas[f]);
        } else {
          const Reference* reference =
              phase.references->find(reference_key(query.model, query.formulas[f]));
          failure = reference == nullptr ? "no reference"
                                         : check_answer(*reference, query.formulas[f],
                                                        request.thresholds[f], answer);
        }
      }
      // SpMV bytes of the serving batch, shared by its requests.
      const auto& counters = reply.stats_delta.counters;
      double rows = 0.0;
      for (const char* name : {"spmv.rows", "spmv.blocked_rows"}) {
        if (const auto found = counters.find(name); found != counters.end()) {
          rows += static_cast<double>(found->second);
        }
      }
      phase.spmv_bytes += spmv_bytes_computed(rows, files.nnz_per_row) /
                          static_cast<double>(std::max<std::size_t>(1, reply.batch_requests));
    }
    if (!failure.empty()) {
      result.record_failure(query.id + " #" + std::to_string(index) + ": " + failure);
      if (watchdog.fired()) return;
    }
  }
}

std::map<std::string, double> daemon_counters(const std::string& socket) {
  cd::Client client(socket);
  JsonValue request = JsonValue::object();
  request.set("op", JsonValue(std::string("stats")));
  const JsonValue reply = client.roundtrip(request);
  std::map<std::string, double> counters;
  for (const auto& [name, value] : reply.at("stats").at("counters").members()) {
    counters[name] = value.as_number();
  }
  return counters;
}

constexpr double kWindowS = 2.0;

struct PhaseOutcome {
  double seconds = 0.0;
  std::vector<double> window_rates;  // completed checks per second, per window
  std::vector<double> check_ms;
  std::vector<double> load_ms;
  double spmv_bytes = 0.0;
  double formulas = 0.0;
  std::map<std::string, double> counters;  // daemon stats delta over the phase
  double peak_rss_mib = 0.0;
};

}  // namespace

WorkloadResult run_daemon_mixed(const RunConfig& config) {
  WorkloadResult result;
  if (config.daemon.empty()) throw std::invalid_argument("daemon_mixed needs --daemon");
  const Catalogue reads = daemon_read_catalogue();
  const ReferenceSet references = ReferenceSet::load(config.references, "daemon_mixed");
  const DaemonStream stream(config.seed, reads);

  // A fresh directory for the socket and the model files.
  std::filesystem::create_directories(config.work_dir);
  std::string dir_template = config.work_dir + "/daemon-XXXXXX";
  if (::mkdtemp(dir_template.data()) == nullptr) {
    throw std::runtime_error("cannot create a temp dir under " + config.work_dir);
  }
  const std::string dir = dir_template;
  struct Cleanup {
    std::string dir;
    ~Cleanup() {
      std::error_code ignored;
      std::filesystem::remove_all(dir, ignored);
    }
  } cleanup{dir};

  // Model files for loads and re-loads, and the in-process answers the
  // random-model replies must match bit for bit (outside set-up timing).
  std::vector<ResidentFiles> residents;
  std::vector<std::string> preloads;
  for (const ModelSpec& spec : reads.models) {
    const csrlmrm::core::Mrm model = build_model(spec, config.root);
    const std::string prefix = dir + "/" + spec.name;
    csrlmrm::io::save_mrm(model, prefix);
    const double nnz = static_cast<double>(model.rates().matrix().non_zeros()) /
                       static_cast<double>(model.num_states());
    residents.push_back({spec.name, nnz});
    result.layers["models.states"] += static_cast<double>(model.num_states());
    result.layers["models.transitions"] +=
        static_cast<double>(model.rates().matrix().non_zeros());
    // Generated models are explored by the daemon itself; the rest load
    // from files (the daemon's io layer).
    preloads.push_back(spec.name + "=" +
                       (spec.source.rfind("gen:", 0) == 0 ? spec.source : prefix));
  }
  // Read requests index residents by read-catalogue query; align them.
  std::vector<ResidentFiles> by_query;
  for (const QuerySpec& query : reads.queries) {
    for (const ResidentFiles& files : residents) {
      if (files.name == query.model) by_query.push_back(files);
    }
  }
  std::vector<ResidentFiles> randoms;
  std::vector<csrlmrm::plan::PlanResult> expected;
  for (std::size_t j = 0; j < DaemonStream::kRandomPool; ++j) {
    const QuerySpec query = stream.random_query(j);
    const csrlmrm::core::Mrm model =
        build_model({query.model, stream.random_source(j)}, config.root);
    csrlmrm::io::save_mrm(model, dir + "/" + query.model);
    const double nnz = static_cast<double>(model.rates().matrix().non_zeros()) /
                       static_cast<double>(model.num_states());
    randoms.push_back({query.model, nnz});
    std::vector<csrlmrm::logic::FormulaPtr> formulas;
    for (const std::string& text : formula_texts(query, stream.random_thresholds(j))) {
      formulas.push_back(csrlmrm::logic::parse_formula(text));
    }
    csrlmrm::checker::CheckerOptions options;
    options.threads = config.threads;
    expected.push_back(
        csrlmrm::plan::execute(csrlmrm::plan::compile(model, formulas, options), model));
  }

  const std::string socket = dir + "/d.sock";
  Tracer untraced(false);
  Tracer traced(config.trace);

  // Set-up: daemon start plus preloads, from spawn to the first answered
  // ping, repeated (more_setups) before and after the timed phase; the last
  // daemon started before it serves the timed phase.
  auto start_daemon = [&](bool stats, Tracer& tracer) {
    // Only untraced starts count as set-up; the traced daemon runs --stats.
    const ScopedSpan span(tracer, "daemon.start", 0);
    const std::int64_t start = now_ns();
    auto child =
        std::make_unique<DaemonChild>(config, socket, preloads, stats, dir + "/daemon.log");
    if (!wait_ready(*child, socket)) {
      child->stop(socket);
      throw std::runtime_error("mrmcheckd did not start within the timeout");
    }
    if (!stats) result.setup_s.push_back(seconds_since(start));
    return child;
  };

  auto run_phase = [&](DaemonChild& child, Tracer& tracer, double seconds) {
    Phase phase;
    phase.config = &config;
    phase.stream = &stream;
    phase.references = &references;
    phase.residents = &by_query;
    phase.randoms = &randoms;
    phase.expected = &expected;
    phase.tracer = &tracer;
    phase.dir = dir;
    phase.socket = socket;
    phase.seconds = seconds;
    phase.result = &result;
    PhaseOutcome outcome;
    std::map<std::string, double> before;
    if (tracer.enabled()) before = daemon_counters(socket);
    {
      Watchdog watchdog(child.pid(), config.clients);
      const std::int64_t start = now_ns();
      std::vector<std::thread> clients;
      for (std::size_t slot = 0; slot < config.clients; ++slot) {
        clients.emplace_back([&, slot] { client_loop(phase, slot, watchdog, start); });
      }
      for (std::thread& client : clients) client.join();
      outcome.seconds = seconds_since(start);
      // Whole windows only; the tail end of the phase is dropped.
      std::vector<double> counts(static_cast<std::size_t>(outcome.seconds / kWindowS), 0.0);
      for (const std::int64_t done : phase.check_done_ns) {
        const double at_s = static_cast<double>(done - start) * 1e-9;
        const auto window = static_cast<std::size_t>(at_s / kWindowS);
        if (window < counts.size()) counts[window] += 1.0;
      }
      for (const double count : counts) outcome.window_rates.push_back(count / kWindowS);
      if (counts.empty() && outcome.seconds > 0.0) {
        outcome.window_rates.push_back(static_cast<double>(phase.check_ms.size()) /
                                       outcome.seconds);
      }
    }
    if (tracer.enabled() && !child.exited()) {
      for (const auto& [name, value] : daemon_counters(socket)) {
        outcome.counters[name] = value - (before.count(name) ? before[name] : 0.0);
      }
    }
    child.stop(socket);
    outcome.check_ms = std::move(phase.check_ms);
    outcome.load_ms = std::move(phase.load_ms);
    outcome.spmv_bytes = phase.spmv_bytes;
    outcome.formulas = phase.formulas;
    outcome.peak_rss_mib = child.peak_rss_mib();
    return outcome;
  };

  std::unique_ptr<DaemonChild> child;
  const std::int64_t setup_start = now_ns();
  for (int rep = 0; more_setups(config, rep, setup_start); ++rep) {
    if (child) child->stop(socket);
    child = start_daemon(false, untraced);
  }
  // Traced runs split the time: an untraced daemon, then one with --stats
  // and the benchmark's spans on, so the overhead compares like with like.
  const double untraced_seconds = config.trace ? config.seconds / 2 : config.seconds;
  const PhaseOutcome plain = run_phase(*child, untraced, untraced_seconds);
  result.latencies_ms = plain.check_ms;
  result.timed_s = plain.seconds;
  result.slice_rates = plain.window_rates;
  result.peak_rss_mib = plain.peak_rss_mib;
  // As many set-ups again after the timed phase, so the median spans the
  // whole run rather than its first second.
  const std::int64_t late_start = now_ns();
  for (int rep = 0; more_setups(config, rep, late_start); ++rep) {
    start_daemon(false, untraced)->stop(socket);
  }

  if (config.trace) {
    auto traced_child = start_daemon(true, traced);
    const PhaseOutcome tr = run_phase(*traced_child, traced, config.seconds - untraced_seconds);
    LayerTotals totals;
    totals.counters = tr.counters;
    totals.queries = tr.check_ms.size();
    totals.spmv_bytes = tr.spmv_bytes;
    totals.formulas = tr.formulas;
    fill_layers(totals, self_time_ms(traced.spans()), 1, result);
    auto& l = result.layers;
    const Tail tail = tail_percentile(tr.check_ms);
    l["daemon.check_roundtrip_p50_ms"] = median(tr.check_ms);
    l["daemon.check_roundtrip_tail_ms"] = tail.value;
    l["daemon.load_roundtrip_ms"] = median(tr.load_ms);
    const auto counter = [&](const char* name) {
      const auto found = tr.counters.find(name);
      return found == tr.counters.end() ? 0.0 : found->second;
    };
    l["daemon.requests_per_batch"] =
        counter("daemon.batches") > 0
            ? counter("daemon.requests_served") / counter("daemon.batches")
            : 0.0;
    l["daemon.degraded"] = counter("daemon.requests_degraded");
    l["daemon.model_loads"] = counter("daemon.model_loads");
    l["daemon.model_cache_hits"] = counter("daemon.model_cache_hits");
    l["daemon.models_evicted"] = counter("daemon.models_evicted");
    const auto mean = [](const std::vector<double>& values) {
      return values.empty() ? 0.0
                            : std::accumulate(values.begin(), values.end(), 0.0) /
                                  static_cast<double>(values.size());
    };
    const double plain_mean = mean(plain.check_ms);
    const double traced_mean = mean(tr.check_ms);
    l["obs.trace_overhead_frac"] = plain_mean > 0.0 ? traced_mean / plain_mean - 1.0 : 0.0;
  }
  return result;
}

}  // namespace perfbench
