#include "logic/lexer.hpp"

#include <cctype>
#include <stdexcept>

namespace csrlmrm::logic {

ParseError::ParseError(const std::string& message, std::size_t column)
    : std::runtime_error(message + " (column " + std::to_string(column) + ")"),
      column_(column) {}

std::vector<Token> tokenize(const std::string& input) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  const std::size_t n = input.size();

  const auto push = [&](TokenKind kind, std::size_t start, std::size_t length, double value = 0) {
    tokens.push_back({kind, input.substr(start, length), value, start + 1});
  };

  while (i < n) {
    const char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      ++i;
      continue;
    }
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      std::size_t start = i;
      while (i < n && (std::isalnum(static_cast<unsigned char>(input[i])) || input[i] == '_')) {
        ++i;
      }
      push(TokenKind::kIdentifier, start, i - start);
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && i + 1 < n && std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      std::size_t start = i;
      while (i < n && (std::isdigit(static_cast<unsigned char>(input[i])) || input[i] == '.')) {
        ++i;
      }
      // Optional exponent.
      if (i < n && (input[i] == 'e' || input[i] == 'E')) {
        std::size_t exp = i + 1;
        if (exp < n && (input[exp] == '+' || input[exp] == '-')) ++exp;
        if (exp < n && std::isdigit(static_cast<unsigned char>(input[exp]))) {
          i = exp;
          while (i < n && std::isdigit(static_cast<unsigned char>(input[i]))) ++i;
        }
      }
      const std::string text = input.substr(start, i - start);
      try {
        std::size_t used = 0;
        // lint:allow(banned-identifier) — the token was scanned above
        // (digits, dots, exponent) and stod must consume all of it, so a
        // second '.' fails instead of being dropped.
        const double value = std::stod(text, &used);
        if (used != text.size()) throw std::invalid_argument(text);
        push(TokenKind::kNumber, start, i - start, value);
      } catch (const std::exception&) {
        throw ParseError("malformed number '" + text + "'", start + 1);
      }
      continue;
    }
    switch (c) {
      case '(':
        push(TokenKind::kLParen, i, 1);
        ++i;
        break;
      case ')':
        push(TokenKind::kRParen, i, 1);
        ++i;
        break;
      case '[':
        push(TokenKind::kLBracket, i, 1);
        ++i;
        break;
      case ']':
        push(TokenKind::kRBracket, i, 1);
        ++i;
        break;
      case ',':
        push(TokenKind::kComma, i, 1);
        ++i;
        break;
      case '!':
        push(TokenKind::kBang, i, 1);
        ++i;
        break;
      case '~':
        push(TokenKind::kTilde, i, 1);
        ++i;
        break;
      case '&':
        if (i + 1 < n && input[i + 1] == '&') {
          push(TokenKind::kAndAnd, i, 2);
          i += 2;
        } else {
          throw ParseError("expected '&&'", i + 1);
        }
        break;
      case '|':
        if (i + 1 < n && input[i + 1] == '|') {
          push(TokenKind::kOrOr, i, 2);
          i += 2;
        } else {
          throw ParseError("expected '||'", i + 1);
        }
        break;
      case '<':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kLessEqual, i, 2);
          i += 2;
        } else {
          push(TokenKind::kLess, i, 1);
          ++i;
        }
        break;
      case '>':
        if (i + 1 < n && input[i + 1] == '=') {
          push(TokenKind::kGreaterEqual, i, 2);
          i += 2;
        } else {
          push(TokenKind::kGreater, i, 1);
          ++i;
        }
        break;
      default:
        throw ParseError(std::string("unexpected character '") + c + "'", i + 1);
    }
  }
  tokens.push_back({TokenKind::kEnd, "", 0.0, n + 1});
  return tokens;
}

}  // namespace csrlmrm::logic
