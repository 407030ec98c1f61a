#include "references.hpp"

#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "obs/json.hpp"

namespace perfbench {

using csrlmrm::obs::JsonValue;

std::vector<std::size_t> reference_states(std::size_t num_states) {
  std::vector<std::size_t> states;
  if (num_states <= kMaxReferenceStates) {
    for (std::size_t s = 0; s < num_states; ++s) states.push_back(s);
    return states;
  }
  for (std::size_t i = 0; i < kMaxReferenceStates; ++i) {
    states.push_back(i * num_states / kMaxReferenceStates);
  }
  return states;
}

double reference_tolerance(const FormulaSpec& formula) {
  const bool path_bounded = formula.op == "P" && formula.body.find("U[") != std::string::npos;
  return path_bounded ? 1e-10 : 1e-7;
}

ReferenceSet ReferenceSet::load(const std::string& dir, const std::string& name) {
  const std::string path = dir + "/" + name + ".json";
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open reference file '" + path + "'");
  std::ostringstream text;
  text << in.rdbuf();
  const JsonValue root = csrlmrm::obs::parse_json(text.str());
  ReferenceSet set;
  for (const auto& [key, entry] : root.at("references").members()) {
    Reference reference;
    reference.tol = entry.at("tol").as_number();
    const auto& states = entry.at("states").items();
    const auto& lo = entry.at("lo").items();
    const auto& hi = entry.at("hi").items();
    if (states.size() != lo.size() || states.size() != hi.size()) {
      throw std::runtime_error("reference '" + key + "' has ragged arrays");
    }
    for (std::size_t i = 0; i < states.size(); ++i) {
      reference.states.push_back(static_cast<std::size_t>(states[i].as_number()));
      reference.values.push_back({lo[i].as_number(), hi[i].as_number()});
    }
    set.entries_[key] = std::move(reference);
  }
  return set;
}

const Reference* ReferenceSet::find(const std::string& key) const {
  const auto found = entries_.find(key);
  return found == entries_.end() ? nullptr : &found->second;
}

void ReferenceSet::add(const std::string& key, Reference reference) {
  entries_[key] = std::move(reference);
}

void ReferenceSet::save(const std::string& path) const {
  JsonValue references = JsonValue::object();
  for (const auto& [key, reference] : entries_) {
    JsonValue states = JsonValue::array();
    JsonValue lo = JsonValue::array();
    JsonValue hi = JsonValue::array();
    for (std::size_t i = 0; i < reference.states.size(); ++i) {
      states.push_back(JsonValue(static_cast<double>(reference.states[i])));
      lo.push_back(JsonValue(reference.values[i].lo));
      hi.push_back(JsonValue(reference.values[i].hi));
    }
    JsonValue entry = JsonValue::object();
    entry.set("tol", JsonValue(reference.tol));
    entry.set("states", std::move(states));
    entry.set("lo", std::move(lo));
    entry.set("hi", std::move(hi));
    references.set(key, std::move(entry));
  }
  JsonValue root = JsonValue::object();
  root.set("schema", JsonValue(std::string("csrlmrm-perfbench-references-v1")));
  root.set("references", std::move(references));
  std::ofstream out(path);
  out << csrlmrm::obs::write_json(root) << "\n";
  if (!out) throw std::runtime_error("cannot write '" + path + "'");
}

std::string check_answer(const Reference& reference, const FormulaSpec& formula,
                         double threshold, const FormulaAnswer& answer) {
  const std::size_t n = answer.verdicts.size();
  if (answer.lo.size() != n || answer.hi.size() != n) return "answer arrays ragged";
  char detail[256];
  for (std::size_t i = 0; i < reference.states.size(); ++i) {
    const std::size_t s = reference.states[i];
    if (s >= n) return "answer has too few states";
    const RefValue& ref = reference.values[i];
    if (!encloses(answer.lo[s], answer.hi[s], ref, reference.tol)) {
      std::snprintf(detail, sizeof(detail),
                    "state %zu: interval [%.17g, %.17g] misses reference [%.17g, %.17g]", s,
                    answer.lo[s], answer.hi[s], ref.lo, ref.hi);
      return detail;
    }
    if (!verdict_consistent(answer.verdicts[s], formula.cmp, threshold, ref, reference.tol)) {
      std::snprintf(detail, sizeof(detail),
                    "state %zu: verdict '%c' for %s%.17g contradicts reference [%.17g, %.17g]",
                    s, answer.verdicts[s], formula.cmp.c_str(), threshold, ref.lo, ref.hi);
      return detail;
    }
  }
  return "";
}

}  // namespace perfbench
