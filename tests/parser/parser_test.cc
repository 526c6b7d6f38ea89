#include "parser/parser.h"

#include <gtest/gtest.h>

#include <cstdint>

#include "parser/interpreter.h"
#include "parser/lexer.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

TEST(LexerTest, TokenKinds) {
  Result<std::vector<Token>> tokens =
      Tokenize("abc 42 -7 3.5 'it''s' ( ) [ ] , ; -> = != <> < <= > >=");
  DWC_ASSERT_OK(tokens);
  std::vector<TokenKind> kinds;
  for (const Token& token : *tokens) {
    kinds.push_back(token.kind);
  }
  EXPECT_EQ(kinds,
            (std::vector<TokenKind>{
                TokenKind::kIdentifier, TokenKind::kInt, TokenKind::kInt,
                TokenKind::kDouble, TokenKind::kString, TokenKind::kLParen,
                TokenKind::kRParen, TokenKind::kLBracket,
                TokenKind::kRBracket, TokenKind::kComma,
                TokenKind::kSemicolon, TokenKind::kArrow, TokenKind::kEq,
                TokenKind::kNe, TokenKind::kNe, TokenKind::kLt,
                TokenKind::kLe, TokenKind::kGt, TokenKind::kGe,
                TokenKind::kEnd}));
  EXPECT_EQ((*tokens)[1].int_value, 42);
  EXPECT_EQ((*tokens)[2].int_value, -7);
  EXPECT_EQ((*tokens)[3].double_value, 3.5);
  EXPECT_EQ((*tokens)[4].text, "it's");
}

TEST(LexerTest, CommentsAndPositions) {
  Result<std::vector<Token>> tokens =
      Tokenize("a -- comment\n  b");
  DWC_ASSERT_OK(tokens);
  ASSERT_EQ(tokens->size(), 3u);
  EXPECT_EQ((*tokens)[0].text, "a");
  EXPECT_EQ((*tokens)[1].text, "b");
  EXPECT_EQ((*tokens)[1].line, 2u);
  EXPECT_EQ((*tokens)[1].column, 3u);
}

TEST(LexerTest, Exponents) {
  Result<std::vector<Token>> tokens = Tokenize("1e5 2.5E-3 -1e+2 7e x");
  DWC_ASSERT_OK(tokens);
  ASSERT_EQ(tokens->size(), 7u);
  EXPECT_EQ((*tokens)[0].kind, TokenKind::kDouble);
  EXPECT_EQ((*tokens)[0].double_value, 1e5);
  EXPECT_EQ((*tokens)[1].kind, TokenKind::kDouble);
  EXPECT_EQ((*tokens)[1].double_value, 2.5e-3);
  EXPECT_EQ((*tokens)[2].kind, TokenKind::kDouble);
  EXPECT_EQ((*tokens)[2].double_value, -1e2);
  // An 'e' with no digits after it is not an exponent.
  EXPECT_EQ((*tokens)[3].kind, TokenKind::kInt);
  EXPECT_EQ((*tokens)[3].int_value, 7);
  EXPECT_EQ((*tokens)[4].text, "e");
}

// A literal that does not fit its type is an error with its position, not
// an exception.
TEST(LexerTest, OutOfRangeLiteralsAreErrors) {
  Result<std::vector<Token>> tokens = Tokenize("a\n  99999999999999999999");
  ASSERT_FALSE(tokens.ok());
  EXPECT_EQ(tokens.status().code(), StatusCode::kInvalidArgument);
  EXPECT_NE(tokens.status().message().find("line 2, column 3"),
            std::string::npos)
      << tokens.status().ToString();
  EXPECT_FALSE(Tokenize("-99999999999999999999").ok());
  EXPECT_FALSE(Tokenize("1e999").ok());
  Result<std::vector<Token>> lowest = Tokenize("-9223372036854775808");
  DWC_ASSERT_OK(lowest);
  EXPECT_EQ((*lowest)[0].int_value, INT64_MIN);
  Result<ScriptContext> run = RunScript(
      "CREATE TABLE R(a INT);\nINSERT INTO R VALUES (99999999999999999999);");
  ASSERT_FALSE(run.ok());
  EXPECT_EQ(run.status().code(), StatusCode::kInvalidArgument);
}

TEST(LexerTest, Errors) {
  EXPECT_FALSE(Tokenize("'unterminated").ok());
  EXPECT_FALSE(Tokenize("a ! b").ok());
  EXPECT_FALSE(Tokenize("a # b").ok());
  EXPECT_FALSE(Tokenize("1.2.3").ok());
}

TEST(ParseExprTest, Precedence) {
  // Binary operators are left-associative at one level.
  Result<ExprRef> e = ParseExpr("A join B union C minus D");
  DWC_ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(), "(((A join B) union C) minus D)");
  e = ParseExpr("A join (B union (C minus D))");
  DWC_ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(), "(A join (B union (C minus D)))");
}

TEST(ParseExprTest, AllTerms) {
  Result<ExprRef> e = ParseExpr(
      "project[a, b](select[a = 1 and b != 'x'](R JOIN S)) "
      "union rename[a -> c](empty[a INT])");
  DWC_ASSERT_OK(e);
  EXPECT_EQ((*e)->ToString(),
            "(project[a, b](select[(a = 1 and b != 'x')]((R join S))) union "
            "rename[a->c](empty[a]))");
}

TEST(ParseExprTest, PredicateGrammar) {
  Result<PredicateRef> p =
      ParsePredicate("not a = 1 and (b < 2.5 or c >= 'x') and true");
  DWC_ASSERT_OK(p);
  EXPECT_EQ((*p)->ToString(),
            "((not (a = 1) and (b < 2.5 or c >= 'x')) and true)");
}

TEST(ParseExprTest, Errors) {
  EXPECT_FALSE(ParseExpr("").ok());
  EXPECT_FALSE(ParseExpr("project[](R)").ok());
  EXPECT_FALSE(ParseExpr("select[a =](R)").ok());
  EXPECT_FALSE(ParseExpr("R join").ok());
  EXPECT_FALSE(ParseExpr("(R").ok());
  EXPECT_FALSE(ParseExpr("R S").ok());  // Trailing garbage.
  EXPECT_FALSE(ParseExpr("rename[a b](R)").ok());
}

TEST(ParseProgramTest, AllStatements) {
  Result<std::vector<Statement>> program = ParseProgram(R"(
-- a comment
CREATE TABLE R(a INT, b STRING, KEY(a));
INCLUSION S(a) SUBSETOF R(a);
VIEW V AS PROJECT[a](R);
INSERT INTO R VALUES (1, 'x'), (2, NULL);
DELETE FROM R VALUES (1, 'x');
QUERY R UNION R;
)");
  DWC_ASSERT_OK(program);
  ASSERT_EQ(program->size(), 6u);
  const auto* create = std::get_if<CreateTableStmt>(&(*program)[0]);
  ASSERT_NE(create, nullptr);
  EXPECT_EQ(create->name, "R");
  EXPECT_EQ(create->schema.ToString(), "(a INT, b STRING)");
  ASSERT_TRUE(create->key.has_value());
  EXPECT_EQ(*create->key, (AttrSet{"a"}));
  const auto* inclusion = std::get_if<InclusionStmt>(&(*program)[1]);
  ASSERT_NE(inclusion, nullptr);
  EXPECT_EQ(inclusion->ind.ToString(), "S(a) <= R(a)");
  const auto* insert = std::get_if<InsertStmt>(&(*program)[3]);
  ASSERT_NE(insert, nullptr);
  ASSERT_EQ(insert->tuples.size(), 2u);
  EXPECT_TRUE(insert->tuples[1].at(1).is_null());
}

TEST(ParseProgramTest, KeywordsCaseInsensitive) {
  Result<std::vector<Statement>> program =
      ParseProgram("create table R(a int); view v as r;");
  DWC_ASSERT_OK(program);
  // Identifiers keep their case.
  const auto* view = std::get_if<ViewStmt>(&(*program)[1]);
  ASSERT_NE(view, nullptr);
  EXPECT_EQ(view->expr->ToString(), "r");
}

TEST(ParseProgramTest, MissingSemicolonFails) {
  EXPECT_FALSE(ParseProgram("CREATE TABLE R(a INT)").ok());
}

TEST(InterpreterTest, RunScriptBuildsState) {
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE R(a INT, b INT, KEY(a));
INSERT INTO R VALUES (1, 10), (2, 20);
DELETE FROM R VALUES (2, 20);
VIEW V AS SELECT[b >= 5](R);
QUERY PROJECT[a](V);
)");
  EXPECT_EQ(context.db.FindRelation("R")->size(), 1u);
  ASSERT_EQ(context.views.size(), 1u);
  ASSERT_EQ(context.query_results.size(), 1u);
  EXPECT_EQ(context.query_results[0].size(), 1u);
  DWC_ASSERT_OK(context.db.ValidateConstraints());
}

TEST(InterpreterTest, Errors) {
  EXPECT_FALSE(RunScript("INSERT INTO R VALUES (1);").ok());
  EXPECT_FALSE(RunScript("CREATE TABLE R(a INT); INSERT INTO R VALUES (1, 2);")
                   .ok());
  EXPECT_FALSE(
      RunScript("CREATE TABLE R(a INT); INSERT INTO R VALUES ('x');").ok());
  EXPECT_FALSE(RunScript("CREATE TABLE R(a INT); VIEW R AS R;").ok());
  EXPECT_FALSE(RunScript("CREATE TABLE R(a INT); VIEW V AS PROJECT[z](R);")
                   .ok());
  EXPECT_FALSE(RunScript("CREATE TABLE R(a INT); CREATE TABLE R(b INT);")
                   .ok());
}

TEST(InterpreterTest, IntWidensToDouble) {
  ScriptContext context = testing::MustRun(R"(
CREATE TABLE R(a DOUBLE);
INSERT INTO R VALUES (1), (2.5);
)");
  EXPECT_EQ(context.db.FindRelation("R")->size(), 2u);
}

}  // namespace
}  // namespace dwc
