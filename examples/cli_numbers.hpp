// Strict number parsing for the command-line tools (mrmcheck, mrmcheckd,
// mrmcheckc, large_models).
//
// A flag's value is accepted only when the whole token is the number: a
// count is decimal digits only (no sign, no whitespace, no suffix) and in
// range, a real is a finite decimal or scientific literal with nothing
// after it. So `-5` fails instead of wrapping, `12abc` or `1e-8x` fails
// instead of being half-parsed, and an oversized value fails instead of
// being truncated. On a bad value the parser prints
//
//   <program>: <flag> expects <what>, got '<text>'
//
// to stderr and returns false; the tools exit with status 2 (usage).
#pragma once

#include <charconv>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <limits>
#include <string>
#include <system_error>

namespace csrlmrm::cli {

class NumberFlags {
 public:
  explicit NumberFlags(const char* program) : program_(program) {}

  /// A count in [1, max]: "expects an integer in [1, <max>]".
  bool count(const char* flag, const std::string& text, std::size_t max,
             std::size_t& out) const {
    if (parse_digits(text, max, out)) return true;
    char what[64];
    std::snprintf(what, sizeof(what), "an integer in [1, %zu]", max);
    return reject(flag, what, text);
  }

  /// A count in [1, SIZE_MAX]: "expects a positive integer".
  bool positive_count(const char* flag, const std::string& text, std::size_t& out) const {
    if (parse_digits(text, std::numeric_limits<std::size_t>::max(), out)) return true;
    return reject(flag, "a positive integer", text);
  }

  /// A finite real > 0: "expects a positive number".
  bool positive_number(const char* flag, const std::string& text, double& out) const {
    double value = 0.0;
    if (!parse_real(text, value) || !(value > 0.0)) {
      return reject(flag, "a positive number", text);
    }
    out = value;
    return true;
  }

  /// Any finite real: "expects a finite number".
  bool finite_number(const char* flag, const std::string& text, double& out) const {
    double value = 0.0;
    if (!parse_real(text, value)) return reject(flag, "a finite number", text);
    out = value;
    return true;
  }

 private:
  // Writes `out` only on success.
  static bool parse_digits(const std::string& text, std::size_t max, std::size_t& out) {
    if (text.empty()) return false;
    std::size_t value = 0;
    for (const char c : text) {
      if (c < '0' || c > '9') return false;
      const auto digit = static_cast<std::size_t>(c - '0');
      if (digit > max || value > (max - digit) / 10) return false;  // value * 10 + digit > max
      value = value * 10 + digit;
    }
    if (value == 0) return false;
    out = value;
    return true;
  }

  static bool parse_real(const std::string& text, double& out) {
    const char* const end = text.data() + text.size();
    const auto [stop, error] = std::from_chars(text.data(), end, out);
    return error == std::errc() && stop == end && std::isfinite(out);
  }

  bool reject(const char* flag, const char* what, const std::string& text) const {
    std::fprintf(stderr, "%s: %s expects %s, got '%s'\n", program_, flag, what, text.c_str());
    return false;
  }

  const char* program_;
};

}  // namespace csrlmrm::cli
