// The .tra/.lab/.rewr/.rewi readers and writers (appendix file formats).
#include "io/model_files.hpp"

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#ifndef _WIN32
#include <sys/wait.h>
#include <unistd.h>
#endif

#include "models/wavelan.hpp"
#include "obs/json.hpp"

namespace csrlmrm::io {
namespace {

TEST(IoTra, ReadsAppendixFormat) {
  std::istringstream in(
      "STATES 3\n"
      "TRANSITIONS 2\n"
      "1 2 0.5\n"
      "2 3 1.25\n");
  const core::RateMatrix rates = read_tra(in);
  EXPECT_EQ(rates.num_states(), 3u);
  EXPECT_DOUBLE_EQ(rates.rate(0, 1), 0.5);  // 1-based file -> 0-based memory
  EXPECT_DOUBLE_EQ(rates.rate(1, 2), 1.25);
  EXPECT_TRUE(rates.is_absorbing(2));
}

TEST(IoTra, SkipsBlankAndCommentLines) {
  std::istringstream in(
      "STATES 2\n"
      "\n"
      "% a comment\n"
      "TRANSITIONS 1\n"
      "1 2 3.0\n");
  EXPECT_DOUBLE_EQ(read_tra(in).rate(0, 1), 3.0);
}

TEST(IoTra, RejectsWrongTransitionCount) {
  std::istringstream in(
      "STATES 2\nTRANSITIONS 2\n1 2 1.0\n");
  EXPECT_THROW(read_tra(in), ModelFileError);
}

TEST(IoTra, RejectsOutOfRangeState) {
  std::istringstream in("STATES 2\nTRANSITIONS 1\n1 5 1.0\n");
  try {
    read_tra(in);
    FAIL() << "expected ModelFileError";
  } catch (const ModelFileError& error) {
    EXPECT_EQ(error.line(), 3u);
  }
}

TEST(IoTra, RejectsMissingHeaders) {
  std::istringstream no_states("TRANSITIONS 0\n");
  EXPECT_THROW(read_tra(no_states), ModelFileError);
  std::istringstream garbage("STATES 2\nNOPE 1\n");
  EXPECT_THROW(read_tra(garbage), ModelFileError);
}

TEST(IoLab, ReadsDeclarationsAndAssignments) {
  std::istringstream in(
      "#DECLARATION\n"
      "up down busy\n"
      "#END\n"
      "1 up,busy\n"
      "2 down\n");
  const core::Labeling labels = read_lab(in, 2);
  EXPECT_TRUE(labels.has(0, "up"));
  EXPECT_TRUE(labels.has(0, "busy"));
  EXPECT_TRUE(labels.has(1, "down"));
  EXPECT_FALSE(labels.has(1, "up"));
  EXPECT_TRUE(labels.is_declared("busy"));
}

TEST(IoLab, AcceptsSpaceSeparatedPropositions) {
  std::istringstream in("#DECLARATION\na b\n#END\n1 a b\n");
  const core::Labeling labels = read_lab(in, 1);
  EXPECT_TRUE(labels.has(0, "a"));
  EXPECT_TRUE(labels.has(0, "b"));
}

TEST(IoLab, RejectsUndeclaredProposition) {
  std::istringstream in("#DECLARATION\na\n#END\n1 b\n");
  EXPECT_THROW(read_lab(in, 1), ModelFileError);
}

TEST(IoLab, RejectsMissingEnd) {
  std::istringstream in("#DECLARATION\na b\n1 a\n");
  EXPECT_THROW(read_lab(in, 1), ModelFileError);
}

TEST(IoRewr, ReadsRewardsAndDefaultsToZero) {
  std::istringstream in("2 80\n3 1319\n");
  const auto rewards = read_rewr(in, 4);
  EXPECT_DOUBLE_EQ(rewards[0], 0.0);
  EXPECT_DOUBLE_EQ(rewards[1], 80.0);
  EXPECT_DOUBLE_EQ(rewards[2], 1319.0);
  EXPECT_DOUBLE_EQ(rewards[3], 0.0);
}

TEST(IoRewi, ReadsImpulseMatrix) {
  std::istringstream in("TRANSITIONS 2\n1 2 0.02\n2 3 0.33\n");
  const auto impulses = read_rewi(in, 3);
  EXPECT_DOUBLE_EQ(impulses.at(0, 1), 0.02);
  EXPECT_DOUBLE_EQ(impulses.at(1, 2), 0.33);
  EXPECT_DOUBLE_EQ(impulses.at(2, 0), 0.0);
}

TEST(IoRewi, RejectsCountMismatch) {
  std::istringstream in("TRANSITIONS 3\n1 2 0.02\n");
  EXPECT_THROW(read_rewi(in, 2), ModelFileError);
}

class IoRoundTrip : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process and test case — see MrmcheckCli::SetUp below.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = std::filesystem::temp_directory_path() /
                 (std::string("csrlmrm_io_") + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(directory_);
    prefix_ = (directory_ / "model").string();
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  std::filesystem::path directory_;
  std::string prefix_;
};

TEST_F(IoRoundTrip, SaveThenLoadPreservesTheWavelanModel) {
  const core::Mrm original = models::make_wavelan();
  save_mrm(original, prefix_);
  const core::Mrm loaded =
      load_mrm(prefix_ + ".tra", prefix_ + ".lab", prefix_ + ".rewr", prefix_ + ".rewi");

  ASSERT_EQ(loaded.num_states(), original.num_states());
  for (core::StateIndex s = 0; s < original.num_states(); ++s) {
    EXPECT_DOUBLE_EQ(loaded.state_reward(s), original.state_reward(s));
    EXPECT_EQ(loaded.labels().labels_of(s), original.labels().labels_of(s));
    for (core::StateIndex s2 = 0; s2 < original.num_states(); ++s2) {
      EXPECT_DOUBLE_EQ(loaded.rates().rate(s, s2), original.rates().rate(s, s2));
      EXPECT_DOUBLE_EQ(loaded.impulse_reward(s, s2), original.impulse_reward(s, s2));
    }
  }
}

TEST_F(IoRoundTrip, LoadWithoutRewiGivesZeroImpulses) {
  const core::Mrm original = models::make_wavelan();
  save_mrm(original, prefix_);
  const core::Mrm loaded = load_mrm(prefix_ + ".tra", prefix_ + ".lab", prefix_ + ".rewr", "");
  EXPECT_FALSE(loaded.has_impulse_rewards());
}

TEST_F(IoRoundTrip, MissingFileThrows) {
  EXPECT_THROW(load_mrm("/nonexistent/x.tra", "/nonexistent/x.lab", "/nonexistent/x.rewr", ""),
               std::runtime_error);
}

#if defined(MRMCHECK_BINARY) && !defined(_WIN32)

// End-to-end tests of the mrmcheck command line: flag errors must exit with
// status 2 (usage) before any checking runs, and --stats must produce
// schema-valid JSON.
class MrmcheckCli : public ::testing::Test {
 protected:
  void SetUp() override {
    // Unique per process AND per test case: ctest runs each case as its own
    // process in parallel, and a shared directory would let one case's
    // remove_all race another case's writes.
    const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
    directory_ = std::filesystem::temp_directory_path() /
                 (std::string("csrlmrm_cli_") + std::to_string(::getpid()) + "_" + info->name());
    std::filesystem::create_directories(directory_);
    const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
    model_args_ = "'" + models + "/tmr.tra' '" + models + "/tmr.lab' '" + models +
                  "/tmr.rewr' '" + models + "/tmr.rewi'";
  }
  void TearDown() override { std::filesystem::remove_all(directory_); }

  /// Runs `binary` with the given arguments (stdout silenced, stderr into
  /// `stderr_text` when given) and returns its exit status, or -1 when the
  /// child did not exit normally.
  int run_binary(const char* binary, const std::string& arguments,
                 std::string* stderr_text = nullptr) const {
    const std::filesystem::path err = directory_ / "stderr.txt";
    const std::string command = std::string("'") + binary + "' " + arguments +
                                " >/dev/null 2>'" + err.string() + "'";
    const int status = std::system(command.c_str());
    if (stderr_text != nullptr) {
      std::ifstream in(err);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      *stderr_text = buffer.str();
    }
    if (status == -1 || !WIFEXITED(status)) return -1;
    return WEXITSTATUS(status);
  }

  /// Runs mrmcheck with the given arguments (output silenced) and returns
  /// its exit status, or -1 when the child did not exit normally.
  int run(const std::string& arguments, std::string* stderr_text = nullptr) const {
    return run_binary(MRMCHECK_BINARY, arguments, stderr_text);
  }

  /// Writes a three-state cycle (a -> a -> b -> a, unit rates, integer state
  /// rewards, no impulses unless `with_impulse`) into the temp directory and
  /// returns its quoted .tra/.lab/.rewr[/.rewi] argument string. Integer
  /// rewards keep the discretization fallback feasible; state 1's P2 value
  /// for "a U[0,1][0,10] b" is 1 - 2/e ~ 0.2584, so thresholds near 0.26 sit
  /// inside any coarse engine's error band. `with_impulse` adds an integral
  /// impulse of 1 on 1 -> 2.
  std::string write_cycle_model(bool with_impulse = false) const {
    const auto write = [&](const char* name, const char* text) {
      std::ofstream out(directory_ / name);
      out << text;
    };
    write("cycle.tra", "STATES 3\nTRANSITIONS 3\n1 2 1.0\n2 3 1.0\n3 1 1.0\n");
    write("cycle.lab", "#DECLARATION\na b\n#END\n1 a\n2 a\n3 b\n");
    write("cycle.rewr", "1 1.0\n2 2.0\n3 1.0\n");
    const std::string base = (directory_ / "cycle").string();
    std::string args = "'" + base + ".tra' '" + base + ".lab' '" + base + ".rewr'";
    if (with_impulse) {
      write("cycle.rewi", "TRANSITIONS 1\n1 2 1.0\n");
      args += " '" + base + ".rewi'";
    }
    return args;
  }

  std::filesystem::path directory_;
  std::string model_args_;
};

TEST_F(MrmcheckCli, ChecksAFormulaAndExitsZero) {
  EXPECT_EQ(run(model_args_ + " NP 'P(>0.1)[Sup U[0,50][0,3000] failed]'"), 0);
}

TEST_F(MrmcheckCli, RejectsUnknownOption) {
  EXPECT_EQ(run(model_args_ + " --bogus 'TT'"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedUniformizationWindow) {
  EXPECT_EQ(run(model_args_ + " u=abc 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " u= 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " u=-1e-8 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " d=0 'TT'"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedThreadCount) {
  EXPECT_EQ(run(model_args_ + " --threads 0 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --threads=x 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --threads 'TT'"), 2);  // value swallowed the formula
}

// --threads is parsed strictly and capped at parallel::kMaxThreads: every
// bad value exits 2 with a named diagnostic during argument parsing, before
// the model loads (the model path here does not even exist) and before any
// thread starts.
TEST_F(MrmcheckCli, ThreadCountIsStrictAndCapped) {
  const std::string absent = "'" + (directory_ / "absent.spec").string() + "'";
  for (const char* bad : {"5000", "4097", "-1", "+4", "4x", "0x10", " 4", "4294967297"}) {
    std::string error;
    EXPECT_EQ(run(absent + " --threads '" + bad + "' 'TT'", &error), 2) << bad;
    EXPECT_NE(error.find("--threads expects an integer in [1, 4096]"), std::string::npos)
        << bad << ": " << error;
  }
  // The cap itself is accepted: the run gets past parsing and fails on the
  // missing model instead (exit 1).
  EXPECT_EQ(run(absent + " --threads=4096 'TT'"), 1);
}

/// Runs `binary` with `arguments` and returns its stdout.
std::string capture_stdout(const char* binary, const std::string& arguments) {
  const std::string command = std::string("'") + binary + "' " + arguments + " 2>/dev/null";
  std::string output;
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) output.append(buffer, got);
  ::pclose(pipe);
  return output;
}

// A positional formula is a batch of one: one compiled plan, one until
// solve serving both the printed probabilities and the verdicts.
TEST_F(MrmcheckCli, PositionalFormulaSolvesOnce) {
  const std::string stats_file = (directory_ / "once.json").string();
  ASSERT_EQ(run(model_args_ + " --stats='" + stats_file +
                "' 'P(>0.1)[Sup U[0,200][0,3000] failed]'"),
            0);
  std::ifstream in(stats_file);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue stats = obs::parse_json(buffer.str());
  const obs::JsonValue& counters = stats.at("counters");
  EXPECT_EQ(counters.at("checker.until.calls").as_number(), 1.0);
  EXPECT_EQ(counters.at("classdp.calls").as_number(), 1.0);
  EXPECT_EQ(counters.at("plan.compile.calls").as_number(), 1.0);
  EXPECT_EQ(counters.at("plan.execute.calls").as_number(), 1.0);
}

// The positional output is the one-line --formulas output minus the "[1/1] "
// slot prefix, for every operator kind and with or without NP.
TEST_F(MrmcheckCli, PositionalOutputEqualsBatchOfOne) {
  const std::filesystem::path batch_file = directory_ / "one.csrl";
  for (const char* formula :
       {"P(>0.1)[Sup U[0,100][0,3000] failed]", "P(>0.9)[Sup U failed]",
        "P(>0.1)[Sup U[10,100] failed]", "P(>0.5)[X[0,10] failed]", "S(<0.9) allUp",
        "R(<=25)[C[0,10]]", "!(Sup && P(>0.1)[Sup U[0,100] failed])"}) {
    for (const char* np : {"", " NP"}) {
      SCOPED_TRACE(std::string(formula) + np);
      {
        std::ofstream out(batch_file);
        out << formula << "\n";
      }
      const std::string positional =
          capture_stdout(MRMCHECK_BINARY, model_args_ + np + " '" + formula + "'");
      std::string batched = capture_stdout(
          MRMCHECK_BINARY, model_args_ + np + " --formulas='" + batch_file.string() + "'");
      const std::size_t prefix = batched.find("[1/1] ");
      ASSERT_NE(prefix, std::string::npos) << batched;
      batched.erase(prefix, 6);
      EXPECT_NE(positional.find("formula: "), std::string::npos) << positional;
      EXPECT_EQ(positional, batched);
    }
  }
}

TEST_F(MrmcheckCli, RejectsSecondFormulaArgument) {
  EXPECT_EQ(run(model_args_ + " 'TT' 'FF'"), 2);
}

// Options are accepted before the model files too: with --stats=f.json
// first, the .rewi file must not be mistaken for a second formula.
TEST_F(MrmcheckCli, AcceptsOptionsBeforeTheModelFiles) {
  const std::string stats_file = (directory_ / "leading_stats.json").string();
  EXPECT_EQ(run("--stats='" + stats_file + "' --threads 2 u=1e-8 " + model_args_ +
                " NP 'P(>0.1)[Sup U[0,50] failed]'"),
            0);
  std::ifstream in(stats_file);
  EXPECT_TRUE(in.is_open());
  // Options between the model files and the formula, too.
  const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
  EXPECT_EQ(run("'" + models + "/tmr.tra' '" + models + "/tmr.lab' NP '" + models +
                "/tmr.rewr' --threads=1 '" + models + "/tmr.rewi' 'S(<0.9) allUp'"),
            0);
  EXPECT_EQ(run("--threads 1 '" + models + "/queue.spec' NP 'P(>0.5)[TT U[0,2] full]'"), 0);
  // A second formula is still rejected wherever the options sit.
  EXPECT_EQ(run("--threads 1 " + model_args_ + " 'TT' 'FF'"), 2);
}

TEST_F(MrmcheckCli, RejectsMissingFormula) {
  EXPECT_EQ(run(model_args_ + " NP"), 2);
}

TEST_F(MrmcheckCli, RejectsMalformedFallbackPolicyAndNodeBudget) {
  EXPECT_EQ(run(model_args_ + " --fallback=bogus 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=0 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=abc 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=12abc 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --max-nodes=-5 'TT'"), 2);
}

TEST_F(MrmcheckCli, RetiredUntilEngineFlagIsAnUnknownOption) {
  std::string error;
  EXPECT_EQ(run(model_args_ + " --until-engine=dfpg 'TT'", &error), 2);
  EXPECT_NE(error.find("unknown option"), std::string::npos) << error;
}

#if defined(MRMCHECKC_BINARY)
// The daemon client validates its own arguments before connecting: these
// runs name a socket that does not exist, so reaching the connect would
// exit 1, not 2.
TEST_F(MrmcheckCli, ClientRejectsUnknownOptionsBeforeConnecting) {
  const std::string socket = "--socket='" + (directory_ / "absent.sock").string() + "'";
  std::string error;
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY,
                       socket + " check m --bogus 'P(>0.1)[Sup U[0,100][0,3000] failed]'",
                       &error),
            2);
  EXPECT_NE(error.find("unknown option '--bogus'"), std::string::npos) << error;
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY, socket + " check m --until-engine=dfpg 'TT'"), 2);
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY, socket + " check m --max-nodes=12abc 'TT'"), 2);
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY, socket + " check m --max-nodes=-5 'TT'"), 2);
  // A well-formed request does try to connect, and fails on the socket.
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY, socket + " check m --max-nodes=5 'TT'"), 1);
}

// The client's real-valued check options are parsed whole: a half-parsed
// `w=1e-8x` or a non-number deadline exits 2 with a named diagnostic before
// connecting. The socket does not exist, so a value that slipped through
// would exit 1 on the connect instead.
TEST_F(MrmcheckCli, ClientNumberFlagsAreStrict) {
  const std::string socket = "--socket='" + (directory_ / "absent.sock").string() + "'";
  const struct {
    const char* argument;
    const char* diagnostic;
  } cases[] = {
      {"w=1e-8x", "w= expects a positive number, got '1e-8x'"},
      {"w=abc", "w= expects a positive number"},
      {"w=", "w= expects a positive number"},
      {"w=-1e-8", "w= expects a positive number"},
      {"w=0", "w= expects a positive number"},
      {"w=inf", "w= expects a positive number"},
      {"--deadline-ms=abc", "--deadline-ms= expects a finite number, got 'abc'"},
      {"--deadline-ms=250ms", "--deadline-ms= expects a finite number"},
      {"--deadline-ms=nan", "--deadline-ms= expects a finite number"},
      {"--deadline-ms=", "--deadline-ms= expects a finite number"},
  };
  for (const auto& bad : cases) {
    std::string error;
    EXPECT_EQ(run_binary(MRMCHECKC_BINARY,
                         socket + " check m " + bad.argument + " 'TT'", &error),
              2)
        << bad.argument;
    EXPECT_NE(error.find(bad.diagnostic), std::string::npos) << bad.argument << ": " << error;
  }
  EXPECT_EQ(run_binary(MRMCHECKC_BINARY, socket + " check m w=1e-8 --deadline-ms=250 'TT'"), 1);
}
#endif

#if defined(LARGE_MODELS_BINARY)
// large_models parses --max-states whole: a sign, a suffix, zero or an
// out-of-range value exits 2 with a named diagnostic before exploring. The
// generator family does not exist, so a value that slipped through would
// exit 1 on the model build instead.
TEST_F(MrmcheckCli, LargeModelsMaxStatesIsStrict) {
  for (const char* bad : {"-5", "10x", "+5", "0", " 5", "", "99999999999999999999999"}) {
    std::string error;
    EXPECT_EQ(run_binary(LARGE_MODELS_BINARY,
                         std::string("nosuchfamily:k=1 --max-states '") + bad + "'", &error),
              2)
        << bad;
    EXPECT_NE(error.find(std::string("--max-states expects a positive integer, got '") + bad +
                         "'"),
              std::string::npos)
        << bad << ": " << error;
  }
  EXPECT_EQ(run_binary(LARGE_MODELS_BINARY, "nosuchfamily:k=1 --max-states 10"), 1);
}
#endif

#if defined(MRMCHECKD_BINARY)
// The daemon parses --threads against the same cap, and its count flags
// reject signs and out-of-range values instead of wrapping or truncating
// them. Every bad value exits 2 during argument parsing, before the server
// starts. The socket path is too long to bind, so a daemon that wrongly got
// past parsing exits 1 at startup instead of listening forever.
TEST_F(MrmcheckCli, DaemonCountFlagsAreStrict) {
  const std::string socket =
      "--socket='" + (directory_ / (std::string(120, 's') + ".sock")).string() + "'";
  const struct {
    const char* argument;
    const char* flag;
  } cases[] = {
      {"--threads 5000", "--threads"},
      {"--threads=4294967297", "--threads"},
      {"--threads=-1", "--threads"},
      {"--max-queue=-5", "--max-queue="},
      {"--max-queue=+5", "--max-queue="},
      {"--max-queue=0", "--max-queue="},
      {"--max-queue=99999999999999999999999", "--max-queue="},
      {"--models=-5", "--models="},
      {"--models=3x", "--models="},
  };
  for (const auto& bad : cases) {
    std::string error;
    EXPECT_EQ(run_binary(MRMCHECKD_BINARY, socket + " " + bad.argument, &error), 2)
        << bad.argument;
    EXPECT_NE(error.find(std::string(bad.flag) + " expects an integer in [1, "),
              std::string::npos)
        << bad.argument << ": " << error;
  }
  // A valid value gets past parsing and fails on the unbindable socket.
  EXPECT_EQ(run_binary(MRMCHECKD_BINARY, socket + " --threads=4096 --models=3"), 1);
}
#endif

TEST_F(MrmcheckCli, StrictExitsThreeWhenTheIntervalStraddlesTheThreshold) {
  const std::string cycle = write_cycle_model();
  const std::string query = " NP 'P(>=0.26)[a U[0,1][0,10] b]'";
  // Coarse discretization: the O(d) band around ~0.2584 contains 0.26.
  EXPECT_EQ(run(cycle + " d=0.125 --strict" + query), 3);
  // Same verdict from the other engine: coarse truncation widens the
  // one-sided uniformization interval across the threshold. UNKNOWN must never
  // degenerate into an engine-dependent SAT/UNSAT flip.
  EXPECT_EQ(run(cycle + " u=0.2 --strict" + query), 3);
  // Without --strict the run warns but succeeds.
  EXPECT_EQ(run(cycle + " d=0.125" + query), 0);
  // A tight engine decides the formula and --strict passes.
  EXPECT_EQ(run(cycle + " u=1e-10 --strict" + query), 0);
}

TEST_F(MrmcheckCli, NodeBudgetExhaustionFallsBackInsteadOfFailing) {
  const std::string cycle = write_cycle_model();
  const std::string stats_file = (directory_ / "fallback_stats.json").string();
  // Budget of 5 nodes cannot explore the cycle: the class DP hits the
  // budget mid-flight, and the checker must fall back to discretization,
  // still exit 0, and record the degradation in the stats JSON — with and
  // without an impulse reward on the model.
  for (const bool with_impulse : {true, false}) {
    ASSERT_EQ(run(write_cycle_model(with_impulse) + " u=1e-12 --max-nodes=5 --stats='" +
                  stats_file + "' NP 'P(>=0.5)[a U[0,1][0,10] b]'"),
              0);
    std::ifstream in(stats_file);
    ASSERT_TRUE(in.is_open());
    std::ostringstream buffer;
    buffer << in.rdbuf();
    const obs::JsonValue stats = obs::parse_json(buffer.str());
    const obs::JsonValue* counters = stats.find("counters");
    ASSERT_NE(counters, nullptr);
    const obs::JsonValue* fallbacks = counters->find("uniformization.fallbacks");
    ASSERT_NE(fallbacks, nullptr) << "impulse: " << with_impulse;
    EXPECT_GE(fallbacks->as_number(), 1.0) << "impulse: " << with_impulse;
  }
  // With the throw policy the same starved run fails loudly instead — the
  // checker never degrades behind a kThrow user's back.
  EXPECT_EQ(run(cycle + " u=1e-12 --max-nodes=5 --fallback=throw NP "
                        "'P(>=0.5)[a U[0,1][0,10] b]'"),
            1);
}

TEST_F(MrmcheckCli, LongHorizonQueriesReturnAtOnce) {
  // No Lambda*t-linear work before a trivial answer: --explain compiles
  // without touching the Poisson distribution, the P2 queries are cut at
  // the class DP's level 0, and the P1 / R[C] series refuse a Poisson table
  // past its size limit before allocating it (exit 1, naming Lambda*t).
  const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
  const std::string cellphone = "'" + models + "/cellphone.tra' '" + models +
                                "/cellphone.lab' '" + models + "/cellphone.rewr' '" + models +
                                "/cellphone.rewi'";
  const auto timed = [&](const std::string& arguments, std::string* error = nullptr) {
    const auto start = std::chrono::steady_clock::now();
    const int status = run(arguments, error);
    EXPECT_LT(std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count(),
              1.0)
        << arguments;
    return status;
  };
  for (const char* t : {"1e9", "1e12"}) {
    const std::string formula = std::string(" 'P(>0.1)[Sup U[0,") + t + "][0,3000] failed]'";
    EXPECT_EQ(timed(model_args_ + " --explain" + formula), 0) << t;
    EXPECT_EQ(timed(model_args_ + " NP" + formula), 0) << t;
  }
  EXPECT_EQ(timed(cellphone + " NP 'P(>0.5)[(Call_Idle || Doze) U[0,6e8][0,1000] "
                              "Call_Initiated]'"),
            0);
  for (const char* formula : {" 'P(>0.1)[Sup U[0,1e12] failed]'", " 'R(<1e300)[C[0,1e12]]'"}) {
    std::string error;
    EXPECT_EQ(timed(model_args_ + " NP" + formula, &error), 1) << formula;
    EXPECT_NE(error.find("Lambda*t"), std::string::npos) << error;
  }
}

TEST_F(MrmcheckCli, FormulasBatchIsolatesPerFormulaFailures) {
  // A malformed formula in a --formulas batch fails alone: the remaining
  // formulas still run and the process exits 4 (batch completed with
  // per-formula failures) — not 1, and not 0.
  const auto write_batch = [&](const char* name, const char* text) {
    std::ofstream out(directory_ / name);
    out << text;
    return "'" + (directory_ / name).string() + "'";
  };
  const std::string mixed = write_batch("mixed.csrl",
                                        "P(>0.1)[Sup U[0,50][0,3000] failed]\n"
                                        "THIS IS (not a formula\n"
                                        "S(<0.9) allUp\n");
  EXPECT_EQ(run(model_args_ + " NP --formulas=" + mixed), 4);
  // --strict does not mask the failure exit: per-formula failures dominate
  // the UNKNOWN exit code.
  EXPECT_EQ(run(model_args_ + " NP --strict --formulas=" + mixed), 4);
  // A fully well-formed batch exits 0.
  const std::string clean = write_batch("clean.csrl",
                                        "P(>0.1)[Sup U[0,50][0,3000] failed]\n"
                                        "\n"
                                        "# comments and blanks are skipped\n"
                                        "S(<0.9) allUp\n");
  EXPECT_EQ(run(model_args_ + " NP --formulas=" + clean), 0);
  // --explain on a mixed batch also reports the failures via exit 4 while
  // still printing the plan of the good formulas.
  EXPECT_EQ(run(model_args_ + " NP --explain --formulas=" + mixed), 4);
}

// The discretization sweep answers every start state at once; its rows are
// written by one task each, so the printed 17-digit probabilities must not
// depend on the worker count.
TEST_F(MrmcheckCli, DiscretizationOutputIsByteIdenticalAcrossThreadCounts) {
  const std::string models = CSRLMRM_EXAMPLE_MODELS_DIR;
  std::string outputs[3];
  const unsigned thread_counts[] = {1, 2, 4};
  for (int i = 0; i < 3; ++i) {
    const std::filesystem::path out_file =
        directory_ / ("threads_" + std::to_string(thread_counts[i]) + ".txt");
    const std::string command = std::string("'") + MRMCHECK_BINARY + "' '" + models +
                                "/tmr.spec' d=0.5 --threads " +
                                std::to_string(thread_counts[i]) +
                                " 'P(>0.1)[Sup U[0,100][0,3000] failed]' >'" +
                                out_file.string() + "' 2>/dev/null";
    ASSERT_EQ(std::system(command.c_str()), 0) << command;
    std::ifstream in(out_file);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    outputs[i] = buffer.str();
  }
  EXPECT_NE(outputs[0].find("P(state 1)"), std::string::npos) << outputs[0];
  EXPECT_EQ(outputs[1], outputs[0]);
  EXPECT_EQ(outputs[2], outputs[0]);
}

TEST_F(MrmcheckCli, StatsToUnwritablePathFailsBeforeChecking) {
  EXPECT_EQ(run(model_args_ + " --stats=/nonexistent-dir/stats.json 'TT'"), 2);
  EXPECT_EQ(run(model_args_ + " --stats= 'TT'"), 2);
}

TEST_F(MrmcheckCli, StatsFileIsSchemaValidJson) {
  const std::string stats_file = (directory_ / "stats.json").string();
  ASSERT_EQ(run(model_args_ + " --stats='" + stats_file +
                "' NP 'P(>0.1)[Sup U[0,50][0,3000] failed]'"),
            0);
  std::ifstream in(stats_file);
  ASSERT_TRUE(in.is_open());
  std::ostringstream buffer;
  buffer << in.rdbuf();
  const obs::JsonValue stats = obs::parse_json(buffer.str());
  const obs::JsonValue* schema = stats.find("schema");
  ASSERT_NE(schema, nullptr);
  EXPECT_EQ(schema->as_string(), "csrlmrm-stats-v1");
  const obs::JsonValue* counters = stats.find("counters");
  ASSERT_NE(counters, nullptr);
  // The default until engine is the signature-class DP (classdp).
  EXPECT_NE(counters->find("classdp.calls"), nullptr);
  const obs::JsonValue* trace = stats.find("trace");
  ASSERT_NE(trace, nullptr);
  EXPECT_NE(trace->find("children"), nullptr);
}

#endif  // MRMCHECK_BINARY && !_WIN32

}  // namespace
}  // namespace csrlmrm::io
