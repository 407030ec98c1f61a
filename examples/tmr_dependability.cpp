// TMR dependability study: the chapter-5 experimental model driven through
// the full checker — steady-state availability, time/reward-bounded
// reachability of repair goals, and the effect of the repair-impulse costs.
#include <cstdio>
#include <string>
#include <vector>

#include "logic/parser.hpp"
#include "models/tmr.hpp"
#include "plan/compiler.hpp"
#include "plan/executor.hpp"

int main() {
  using namespace csrlmrm;

  models::TmrConfig config;  // 3 modules + voter, Table 5.2 rates
  const core::Mrm model = models::make_tmr(config);

  checker::CheckerOptions options;
  options.uniformization.truncation_probability = 1e-12;
  // Each query runs as a compiled plan of one formula.
  const auto check = [&](const std::string& text) {
    return plan::execute(plan::compile(model, {logic::parse_formula(text)}, options), model)
        .formulas[0];
  };

  std::printf("Triple-modular-redundant system (Table 5.2 rates)\n");
  std::printf("states: 0=3up 1=2up 2=1up 3=0up 4=vdown\n\n");

  // Long-run availability: the system is operational (Sup) almost always
  // (pi(Sup) ~ 0.9983 with the Table 5.2 rates).
  for (const char* text : {"S(>0.99) Sup", "S(>0.999) Sup", "S(<0.01) failed"}) {
    std::printf("%-22s -> state 3up %s\n", text,
                check(text).sat[0] ? "SATISFIED" : "not satisfied");
  }

  // Mission-time dependability: chance of hitting a failure state within a
  // mission of t hours while operating all along, with bounded resource use.
  std::printf("\nP(3up, Sup U[0,t][0,3000] failed):\n");
  for (const double t : {50.0, 200.0, 500.0}) {
    const auto values =
        check("P(>0.1)[Sup U[0," + std::to_string(t) + "][0,3000] failed]").probabilities;
    std::printf("  t = %-4.0f  P = %-12.8f  error <= %.2e\n", t, values[0].probability,
                values[0].error_bound);
  }

  // Repair-team perspective: from a degraded state, how likely is full
  // recovery within a shift, within a parts budget? Note the repair impulse
  // (2.5 per module, 5 for the voter) charged on every completed repair.
  std::printf("\nP(s, tt U[0,8][0,r] allUp) from degraded states:\n");
  std::printf("%-8s %-10s %-10s %-10s\n", "start", "r=100", "r=50", "r=25");
  std::vector<std::vector<checker::UntilValue>> by_budget;
  for (const double r : {100.0, 50.0, 25.0}) {
    by_budget.push_back(
        check("P(>0.5)[TT U[0,8][0," + std::to_string(r) + "] allUp]").probabilities);
  }
  const char* const starts[] = {"2up", "1up", "0up", "vdown"};
  const core::StateIndex start_states[] = {1, 2, 3, models::tmr_voter_down_state(3)};
  for (int i = 0; i < 4; ++i) {
    std::printf("%-8s", starts[i]);
    for (const auto& values : by_budget) {
      std::printf(" %-10.6f", values[start_states[i]].probability);
    }
    std::printf("\n");
  }
  std::printf(
      "\nNote how the rows collapse as r shrinks: deeper degradation burns resources\n"
      "faster (rho rises with failed modules) and every completed repair pays an\n"
      "impulse on top — the impulse-reward effect this thesis adds to CSRL model\n"
      "checking.\n");

  // A nested property: from every operational state, with high probability
  // the next transition keeps the system operational.
  const std::vector<bool> nested = check("P(>0.9)[X Sup]").sat;
  std::printf("\nP(>0.9)[X Sup]: ");
  for (core::StateIndex s = 0; s < model.num_states(); ++s) {
    if (nested[s]) std::printf("state%zu ", s);
  }
  std::printf("satisfy.\n");
  return 0;
}
