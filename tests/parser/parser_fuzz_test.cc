// Robustness: the lexer/parser/interpreter must never crash or accept
// garbage silently — every malformed input yields a clean Status. The
// "fuzz" is deterministic: random byte strings, random token shuffles of
// valid scripts, and truncations of valid scripts.

#include <gtest/gtest.h>

#include "parser/parser.h"
#include "parser/interpreter.h"
#include "testing/test_util.h"
#include "util/rng.h"
#include "util/string_util.h"

namespace dwc {
namespace {

constexpr char kValidScript[] =
    "CREATE TABLE R(a INT, b STRING, KEY(a));\n"
    "INCLUSION S(a) SUBSETOF R(a);\n"
    "VIEW V AS PROJECT[a](SELECT[b = 'x'](R));\n"
    "INSERT INTO R VALUES (1, 'x'), (2, 'y');\n"
    "QUERY R UNION R;\n";

TEST(ParserFuzzTest, RandomByteStringsNeverCrash) {
  Rng rng(90210);
  const char alphabet[] =
      "abcXYZ019 \t\n()[],;=<>!'-*/.\"\\_#$%&";
  for (int round = 0; round < 500; ++round) {
    std::string input;
    size_t n = rng.Below(120);
    for (size_t i = 0; i < n; ++i) {
      input += alphabet[rng.Below(sizeof(alphabet) - 1)];
    }
    // Must terminate with either success or a clean error, never crash.
    Result<std::vector<Statement>> parsed = ParseProgram(input);
    if (parsed.ok()) {
      // Valid programs may execute or fail cleanly.
      (void)RunScript(input);
    }
  }
}

TEST(ParserFuzzTest, TruncationsOfValidScriptFailCleanly) {
  std::string script = kValidScript;
  for (size_t cut = 0; cut < script.size(); ++cut) {
    std::string prefix = script.substr(0, cut);
    Result<std::vector<Statement>> parsed = ParseProgram(prefix);
    if (parsed.ok()) {
      (void)RunScript(prefix);
    } else {
      EXPECT_FALSE(parsed.status().message().empty());
    }
  }
}

TEST(ParserFuzzTest, TokenDeletionsFailCleanlyOrParse) {
  // Remove one whitespace-delimited token at a time.
  std::vector<std::string> tokens;
  {
    std::string current;
    for (char c : std::string(kValidScript)) {
      if (c == ' ' || c == '\n') {
        if (!current.empty()) {
          tokens.push_back(current);
          current.clear();
        }
      } else {
        current += c;
      }
    }
    if (!current.empty()) {
      tokens.push_back(current);
    }
  }
  for (size_t skip = 0; skip < tokens.size(); ++skip) {
    std::string input;
    for (size_t i = 0; i < tokens.size(); ++i) {
      if (i != skip) {
        input += tokens[i] + " ";
      }
    }
    Result<std::vector<Statement>> parsed = ParseProgram(input);
    if (parsed.ok()) {
      (void)RunScript(input);
    }
  }
}

// Numeric literals built from digits, signs, dots and exponents — out of
// range, malformed, or fine — lex and run to a Status, never an exception.
TEST(ParserFuzzTest, NumericLiteralsFailCleanly) {
  const char* seeds[] = {"99999999999999999999", "-99999999999999999999",
                         "1e999", "-1e999", "1e-999", "1e", "1e+", "2.5e-",
                         "1.", "0.000", "9223372036854775808"};
  for (const char* seed : seeds) {
    (void)RunScript(StrCat("CREATE TABLE R(a DOUBLE); INSERT INTO R VALUES (",
                           seed, ");"));
  }
  Rng rng(4711);
  const char alphabet[] = "0123456789.eE+-";
  for (int round = 0; round < 500; ++round) {
    std::string literal = "1";
    size_t n = rng.Below(40);
    for (size_t i = 0; i < n; ++i) {
      literal += alphabet[rng.Below(sizeof(alphabet) - 1)];
    }
    (void)RunScript(StrCat("CREATE TABLE R(a DOUBLE); INSERT INTO R VALUES (",
                           literal, ");"));
  }
}

TEST(ParserFuzzTest, ErrorsCarryPositions) {
  Result<std::vector<Statement>> parsed =
      ParseProgram("CREATE TABLE R(a INT);\nVIEW V AS ;;");
  ASSERT_FALSE(parsed.ok());
  // The message points at line 2.
  EXPECT_NE(parsed.status().message().find("line 2"), std::string::npos)
      << parsed.status().ToString();
}

TEST(ParserFuzzTest, DeeplyNestedExpressionsParse) {
  // Recursive descent must handle reasonable nesting without issue.
  std::string expr = "R";
  for (int i = 0; i < 200; ++i) {
    expr = "project[a](" + expr + ")";
  }
  Result<ExprRef> parsed = ParseExpr(expr);
  DWC_EXPECT_OK(parsed);
}

}  // namespace
}  // namespace dwc
