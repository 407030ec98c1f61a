// Output goldens of the four demo examples: each binary's stdout must equal
// tests/golden_examples/<name>.out byte for byte. The examples are
// deterministic (fixed models, options and simulation seed), so any drift
// is a change in what the library computes or how the example reports it.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>

#ifndef _WIN32
#include <sys/wait.h>
#endif

namespace {

#if defined(QUICKSTART_BINARY) && defined(CSRLMRM_GOLDEN_EXAMPLES_DIR) && !defined(_WIN32)

struct Example {
  const char* name;
  const char* binary;
};

void PrintTo(const Example& example, std::ostream* out) { *out << example.name; }

class ExampleGolden : public ::testing::TestWithParam<Example> {};

TEST_P(ExampleGolden, StdoutMatchesGoldenByteForByte) {
  const Example& example = GetParam();
  const std::string command = std::string("'") + example.binary + "' 2>/dev/null";
  FILE* pipe = ::popen(command.c_str(), "r");
  ASSERT_NE(pipe, nullptr) << command;
  std::string output;
  char buffer[4096];
  std::size_t got = 0;
  while ((got = std::fread(buffer, 1, sizeof(buffer), pipe)) > 0) output.append(buffer, got);
  const int status = ::pclose(pipe);
  ASSERT_TRUE(WIFEXITED(status)) << example.name;
  EXPECT_EQ(WEXITSTATUS(status), 0) << example.name;

  const std::string golden_path =
      std::string(CSRLMRM_GOLDEN_EXAMPLES_DIR) + "/" + example.name + ".out";
  std::ifstream in(golden_path, std::ios::binary);
  ASSERT_TRUE(in.is_open()) << golden_path;
  std::ostringstream golden;
  golden << in.rdbuf();
  EXPECT_EQ(output, golden.str()) << example.name;
}

INSTANTIATE_TEST_SUITE_P(
    Examples, ExampleGolden,
    ::testing::Values(Example{"quickstart", QUICKSTART_BINARY},
                      Example{"wavelan_energy", WAVELAN_ENERGY_BINARY},
                      Example{"tmr_dependability", TMR_DEPENDABILITY_BINARY},
                      Example{"server_energy", SERVER_ENERGY_BINARY}),
    [](const ::testing::TestParamInfo<Example>& info) { return std::string(info.param.name); });

#endif

}  // namespace
