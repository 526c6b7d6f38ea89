#include "parser/lexer.h"

#include <cctype>
#include <charconv>
#include <system_error>

#include "util/string_util.h"

namespace dwc {

namespace {

bool IsIdentStart(char c) {
  return std::isalpha(static_cast<unsigned char>(c)) || c == '_';
}

bool IsIdentChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

}  // namespace

Result<std::vector<Token>> Tokenize(std::string_view input) {
  std::vector<Token> tokens;
  size_t line = 1;
  size_t column = 1;
  size_t i = 0;

  auto make = [&](TokenKind kind) {
    Token token;
    token.kind = kind;
    token.line = line;
    token.column = column;
    return token;
  };
  auto advance = [&](size_t n) {
    for (size_t k = 0; k < n; ++k) {
      if (i < input.size() && input[i] == '\n') {
        ++line;
        column = 1;
      } else {
        ++column;
      }
      ++i;
    }
  };

  while (i < input.size()) {
    char c = input[i];
    if (std::isspace(static_cast<unsigned char>(c))) {
      advance(1);
      continue;
    }
    if (c == '-' && i + 1 < input.size() && input[i + 1] == '-') {
      while (i < input.size() && input[i] != '\n') {
        advance(1);
      }
      continue;
    }
    if (IsIdentStart(c)) {
      Token token = make(TokenKind::kIdentifier);
      size_t start = i;
      while (i < input.size() && IsIdentChar(input[i])) {
        advance(1);
      }
      token.text = std::string(input.substr(start, i - start));
      tokens.push_back(std::move(token));
      continue;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '-' && i + 1 < input.size() &&
         std::isdigit(static_cast<unsigned char>(input[i + 1])))) {
      Token token = make(TokenKind::kInt);
      size_t start = i;
      if (c == '-') {
        advance(1);
      }
      bool is_double = false;
      while (i < input.size() &&
             (std::isdigit(static_cast<unsigned char>(input[i])) ||
              input[i] == '.')) {
        if (input[i] == '.') {
          if (is_double) {
            return Status::InvalidArgument(
                StrCat("malformed number at line ", line));
          }
          is_double = true;
        }
        advance(1);
      }
      // An exponent, e[+-]digits, makes a double; an 'e' without digits
      // after it is left for the next token.
      if (i < input.size() && (input[i] == 'e' || input[i] == 'E')) {
        size_t digits = i + 1;
        if (digits < input.size() &&
            (input[digits] == '+' || input[digits] == '-')) {
          ++digits;
        }
        if (digits < input.size() &&
            std::isdigit(static_cast<unsigned char>(input[digits]))) {
          advance(digits - i);
          while (i < input.size() &&
                 std::isdigit(static_cast<unsigned char>(input[i]))) {
            advance(1);
          }
          is_double = true;
        }
      }
      std::string text(input.substr(start, i - start));
      const char* first = text.data();
      const char* last = first + text.size();
      std::from_chars_result parsed;
      if (is_double) {
        token.kind = TokenKind::kDouble;
        parsed = std::from_chars(first, last, token.double_value);
      } else {
        parsed = std::from_chars(first, last, token.int_value);
      }
      if (parsed.ec != std::errc() || parsed.ptr != last) {
        return Status::InvalidArgument(
            StrCat(parsed.ec == std::errc::result_out_of_range
                       ? "numeric literal out of range"
                       : "malformed number",
                   " '", text, "' at line ", token.line, ", column ",
                   token.column));
      }
      token.text = std::move(text);
      tokens.push_back(std::move(token));
      continue;
    }
    if (c == '\'') {
      Token token = make(TokenKind::kString);
      advance(1);
      std::string text;
      bool closed = false;
      while (i < input.size()) {
        if (input[i] == '\'') {
          if (i + 1 < input.size() && input[i + 1] == '\'') {
            text += '\'';
            advance(2);
            continue;
          }
          advance(1);
          closed = true;
          break;
        }
        text += input[i];
        advance(1);
      }
      if (!closed) {
        return Status::InvalidArgument(
            StrCat("unterminated string literal at line ", token.line));
      }
      token.text = std::move(text);
      tokens.push_back(std::move(token));
      continue;
    }
    // Punctuation and operators.
    auto two = [&](char second) {
      return i + 1 < input.size() && input[i + 1] == second;
    };
    switch (c) {
      case '(':
        tokens.push_back(make(TokenKind::kLParen));
        advance(1);
        continue;
      case ')':
        tokens.push_back(make(TokenKind::kRParen));
        advance(1);
        continue;
      case '[':
        tokens.push_back(make(TokenKind::kLBracket));
        advance(1);
        continue;
      case ']':
        tokens.push_back(make(TokenKind::kRBracket));
        advance(1);
        continue;
      case ',':
        tokens.push_back(make(TokenKind::kComma));
        advance(1);
        continue;
      case ';':
        tokens.push_back(make(TokenKind::kSemicolon));
        advance(1);
        continue;
      case '-':
        if (two('>')) {
          tokens.push_back(make(TokenKind::kArrow));
          advance(2);
          continue;
        }
        return Status::InvalidArgument(
            StrCat("unexpected '-' at line ", line, ", column ", column));
      case '=':
        tokens.push_back(make(TokenKind::kEq));
        advance(1);
        continue;
      case '!':
        if (two('=')) {
          tokens.push_back(make(TokenKind::kNe));
          advance(2);
          continue;
        }
        return Status::InvalidArgument(
            StrCat("unexpected '!' at line ", line, ", column ", column));
      case '<':
        if (two('=')) {
          tokens.push_back(make(TokenKind::kLe));
          advance(2);
          continue;
        }
        if (two('>')) {
          tokens.push_back(make(TokenKind::kNe));
          advance(2);
          continue;
        }
        tokens.push_back(make(TokenKind::kLt));
        advance(1);
        continue;
      case '>':
        if (two('=')) {
          tokens.push_back(make(TokenKind::kGe));
          advance(2);
          continue;
        }
        tokens.push_back(make(TokenKind::kGt));
        advance(1);
        continue;
      default:
        return Status::InvalidArgument(StrCat("unexpected character '", c,
                                              "' at line ", line, ", column ",
                                              column));
    }
  }
  tokens.push_back(make(TokenKind::kEnd));
  return tokens;
}

}  // namespace dwc
