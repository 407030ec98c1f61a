// Quickstart: build an MRM in code, parse CSRL formulas, and check them.
//
// The model is the WaveLAN modem of the thesis (Examples 2.4/3.1): five
// power modes with energy draws as state rewards and mode-switch energies as
// impulse rewards. We check the thesis's own example properties.
#include <cstdio>
#include <string>
#include <vector>

#include "logic/printer.hpp"
#include "models/wavelan.hpp"
#include "plan/batch.hpp"

int main() {
  using namespace csrlmrm;

  // 1. Build (or load, see the mrmcheck example) a Markov reward model.
  const core::Mrm model = models::make_wavelan();
  std::printf("WaveLAN modem MRM: %zu states, impulse rewards: %s\n\n", model.num_states(),
              model.has_impulse_rewards() ? "yes" : "no");

  // 2. Configure the checker. Uniformization is the default engine for
  //    time- and reward-bounded until; w is the path-truncation probability.
  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-14;

  // 3. Check a batch of CSRL formulas: each text is parsed alone, and the
  //    batch runs as one compiled plan sharing subformulas and solves.
  const std::vector<std::string> formulas = {
      // Steady state: the modem is busy (tx or rx) a non-trivial fraction of
      // the time, but certainly not most of it.
      "S(>0.01) busy",
      "S(>0.5) busy",
      // Example 3.6: from idle, reach a busy mode within 2 hours while
      // consuming at most 2000 units -> probability 0.158, so > 0.1 holds.
      "P(>0.1)[idle U[0,2][0,2000] busy]",
      // Example 3.3-style next property: one transition into sleep within 10
      // time units spending at most 50 units of energy.
      "P(>0.8)[X[0,10][0,50] sleep]",
      // Eventually busy, no bounds: certain in this irreducible chain.
      "P(>=0.99)[TT U busy]",
  };

  const plan::BatchOutcome outcome = plan::check_batch(model, formulas, options);

  for (const plan::BatchEntry& entry : outcome.entries) {
    if (!entry.error.empty()) {
      std::fprintf(stderr, "error: %s\n", entry.error.c_str());
      return 1;
    }
    std::printf("%s\n  Sat = {", logic::to_string(entry.formula).c_str());
    bool first = true;
    const char* const names[] = {"off", "sleep", "idle", "receive", "transmit"};
    for (core::StateIndex s = 0; s < model.num_states(); ++s) {
      if (!entry.result.sat[s]) continue;
      std::printf("%s%s", first ? "" : ", ", names[s]);
      first = false;
    }
    std::printf("}\n\n");
  }

  // 4. Numeric values (not just the boolean verdict) are available too:
  //    the raw path probabilities behind Example 3.6's P operator.
  const auto& values = outcome.entries[2].result.probabilities;
  std::printf("P(idle, idle U[0,2][0,2000] busy) = %.6f (error bound %.2e)\n",
              values[models::kWavelanIdle].probability,
              values[models::kWavelanIdle].error_bound);
  std::printf("(thesis Example 3.6 computes 0.15789 by hand)\n");
  return 0;
}
