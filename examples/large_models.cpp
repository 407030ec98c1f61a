// large_models — explore the streamed model generators from the command
// line: print the resulting model's shape, or materialize it to the four
// model-file formats (the bridge between the streamed and file-based
// workflows; tests pin that both routes produce bitwise-identical models).
//
//   large_models <family:key=value,...> [--save <prefix>] [--max-states N]
//
//   large_models grid:width=256,height=256
//   large_models crowd:population=200 --save /tmp/crowd200
#include <cstdio>
#include <cstring>
#include <string>

#include "cli_numbers.hpp"
#include "io/model_files.hpp"
#include "models/generator.hpp"

namespace {

void usage() {
  std::fprintf(stderr,
               "usage: large_models <family:key=value,...> [--save <prefix>] [--max-states N]\n"
               "\n"
               "  families: crowd (epidemic spread), grid (mesh network),\n"
               "            virus (host infection); see src/models/*.hpp for keys\n"
               "  --save <prefix>  write <prefix>.tra/.lab/.rewr/.rewi\n"
               "  --max-states N   abort if exploration exceeds N states\n");
}

}  // namespace

int main(int argc, char** argv) {
  using namespace csrlmrm;
  if (argc < 2) {
    usage();
    return 2;
  }
  try {
    const cli::NumberFlags numbers("large_models");
    const std::string spec = argv[1];
    std::string save_prefix;
    models::ExploreOptions explore_options;
    for (int arg = 2; arg < argc; ++arg) {
      if (std::strcmp(argv[arg], "--save") == 0 && arg + 1 < argc) {
        save_prefix = argv[++arg];
      } else if (std::strcmp(argv[arg], "--max-states") == 0 && arg + 1 < argc) {
        if (!numbers.positive_count("--max-states", argv[++arg], explore_options.max_states)) {
          return 2;
        }
      } else {
        std::fprintf(stderr, "large_models: unknown argument '%s'\n", argv[arg]);
        usage();
        return 2;
      }
    }

    const core::Mrm model = models::make_generated_mrm(spec, explore_options);
    std::printf("model: %zu states, %zu transitions, %zu impulse entries\n",
                model.num_states(), model.rates().matrix().non_zeros(),
                model.impulse_rewards().non_zeros());
    std::printf("labels:");
    for (const auto& ap : model.labels().propositions()) {
      std::printf(" %s(%zu)", ap.c_str(), [&] {
        std::size_t count = 0;
        for (const bool b : model.labels().states_with(ap)) count += b ? 1 : 0;
        return count;
      }());
    }
    std::printf("\nmax exit rate: %.17g\n", model.rates().max_exit_rate());

    if (!save_prefix.empty()) {
      io::save_mrm(model, save_prefix);
      std::printf("written: %s.tra/.lab/.rewr/.rewi\n", save_prefix.c_str());
    }
    return 0;
  } catch (const std::exception& error) {
    std::fprintf(stderr, "large_models: %s\n", error.what());
    return 1;
  }
}
