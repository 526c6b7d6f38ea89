#include "lint/linter.h"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "lint/diagnostic.h"
#include "parser/parser.h"
#include "testing/test_util.h"

namespace dwc {
namespace {

using ::dwc::testing::MustRun;

const Diagnostic* FindRule(const LintReport& report, std::string_view rule) {
  for (const Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) {
      return &d;
    }
  }
  return nullptr;
}

std::string Rules(const LintReport& report) {
  std::string out;
  for (const Diagnostic& d : report.diagnostics) {
    out += d.rule;
    out += ' ';
  }
  return out;
}

// One malformed (or merely suspicious) script and the diagnostic it must
// produce. `line`/`column` of 0 mean "don't check that coordinate".
struct LintCase {
  const char* name;
  const char* script;
  const char* rule;
  LintSeverity severity;
  size_t line;
  size_t column;
  // The exact text of that diagnostic.
  const char* message;
};

class LintTableTest : public ::testing::TestWithParam<LintCase> {};

TEST_P(LintTableTest, ReportsRuleWithLocation) {
  const LintCase& c = GetParam();
  LintReport report = LintScript(c.script);
  const Diagnostic* diag = FindRule(report, c.rule);
  ASSERT_NE(diag, nullptr)
      << c.name << ": expected " << c.rule << ", got: " << Rules(report);
  EXPECT_EQ(diag->severity, c.severity) << c.name;
  if (c.line > 0) {
    EXPECT_EQ(diag->loc.line, c.line) << c.name;
  }
  if (c.column > 0) {
    EXPECT_EQ(diag->loc.column, c.column) << c.name;
  }
  EXPECT_EQ(diag->message, c.message) << c.name;
}

const LintCase kLintCases[] = {
    {"parse_error", "CREATE TABLE R(a INT;", "DWC-E001", LintSeverity::kError,
     1, 0,
     "expected ')' at line 1, column 21 (near '')"},
    {"unknown_relation",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS R JOIN Missing;",
     "DWC-E002", LintSeverity::kError, 2, 18,
     "view 'V' references undeclared relation 'Missing'"},
    {"insert_into_unknown_relation", "INSERT INTO Nope VALUES (1);",
     "DWC-E002", LintSeverity::kError, 1, 1,
     "INSERT into undeclared relation 'Nope'"},
    {"unknown_projection_attribute",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS PROJECT[z](R);",
     "DWC-E003", LintSeverity::kError, 2, 19,
     "view 'V' projects attribute 'z' which no joined relation provides"},
    {"unknown_predicate_attribute",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS SELECT[z = 1](R);",
     "DWC-E003", LintSeverity::kError, 2, 18,
     "view 'V' selects on attribute 'z' which no joined relation provides"},
    {"unknown_key_attribute", "CREATE TABLE R(a INT, KEY(b));", "DWC-E003",
     LintSeverity::kError, 1, 1,
     "key of 'R' names attribute 'b' absent from its schema"},
    {"union_is_not_psj",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(a INT, KEY(a));\n"
     "VIEW V AS R UNION S;",
     "DWC-E004", LintSeverity::kError, 3, 13,
     "view 'V' uses operator 'union' which is outside the PSJ normal form"},
    {"difference_is_not_psj",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(a INT, KEY(a));\n"
     "VIEW V AS R MINUS S;",
     "DWC-E004", LintSeverity::kError, 3, 13,
     "view 'V' uses operator 'minus' which is outside the PSJ normal form"},
    {"self_join",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS R JOIN R;",
     "DWC-E005", LintSeverity::kError, 2, 18,
     "view 'V' joins base relation 'R' twice; the paper's construction "
     "excludes self-joins"},
    {"cyclic_inds",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(a INT, KEY(a));\n"
     "INCLUSION R(a) SUBSETOF S(a);\n"
     "INCLUSION S(a) SUBSETOF R(a);\n"
     "VIEW V AS R JOIN S;",
     "DWC-E006", LintSeverity::kError, 3, 1,
     "inclusion dependencies form a cycle among R, S; Theorem 2.2 requires an "
     "acyclic IND set"},
    {"self_referential_ind",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "INCLUSION R(b) SUBSETOF R(b);\n"
     "VIEW V AS R;",
     "DWC-E006", LintSeverity::kError, 2, 1,
     "inclusion dependencies form a cycle among R; Theorem 2.2 requires an "
     "acyclic IND set"},
    {"ind_arity_mismatch",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "CREATE TABLE S(a INT, KEY(a));\n"
     "INCLUSION R(a, b) SUBSETOF S(a);",
     "DWC-E007", LintSeverity::kError, 3, 1,
     "inclusion dependency R(a, b) <= S(a) needs nonempty attribute lists of "
     "equal length"},
    {"ind_type_mismatch",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(a STRING, KEY(a));\n"
     "INCLUSION R(a) SUBSETOF S(a);",
     "DWC-E007", LintSeverity::kError, 3, 1,
     "inclusion dependency compares 'a' (INT) with 'a' (STRING)"},
    {"duplicate_table",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE R(a INT, KEY(a));",
     "DWC-E008", LintSeverity::kError, 2, 1,
     "relation 'R' declared twice"},
    {"duplicate_view",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS R;\n"
     "VIEW V AS R;",
     "DWC-E008", LintSeverity::kError, 3, 1,
     "name 'V' already declared"},
    {"unsatisfiable_selection",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS SELECT[a > 5 AND a < 3](R);",
     "DWC-W001", LintSeverity::kWarning, 2, 18,
     "the combined selection of view 'V' is unsatisfiable; the view is "
     "provably empty and its complement stores the full base relations"},
    {"tautological_selection",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS SELECT[a = 1 OR a <> 1](R);",
     "DWC-W002", LintSeverity::kWarning, 2, 18,
     "in view 'V', selection predicate '(a = 1 or a != 1)' is always true; "
     "the selection is redundant"},
    {"key_projected_away",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW V AS PROJECT[b](R);",
     "DWC-W003", LintSeverity::kWarning, 1, 1,
     "no view exposes the key {a} of relation 'R'; cover enumeration finds no "
     "cover and the complement stores all of 'R'"},
    {"keyless_base",
     "CREATE TABLE R(a INT);\n"
     "VIEW V AS R;",
     "DWC-W004", LintSeverity::kWarning, 1, 1,
     "relation 'R' declares no key; cover-based complement reduction (Theorem "
     "2.2) is unavailable for it"},
    {"subsumed_view",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW Big AS R;\n"
     "VIEW Small AS PROJECT[a](SELECT[b > 5](R));",
     "DWC-W005", LintSeverity::kWarning, 3, 1,
     "view 'Small' is subsumed by view 'Big' (same bases, contained "
     "attributes, implied selection)"},
    {"noop_projection",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW V AS PROJECT[a, b](R);",
     "DWC-W006", LintSeverity::kWarning, 2, 19,
     "in view 'V', the projection keeps every attribute of the join and has "
     "no effect"},
    {"stacked_projections",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW V AS PROJECT[a](PROJECT[a, b](R));",
     "DWC-W006", LintSeverity::kWarning, 2, 30,
     "in view 'V', this projection is shadowed by an outer projection and has "
     "no effect"},
    {"multiline_projection_anchors_at_attr_list",
     // The diagnostic must point at the projection list on line 3, not at
     // the VIEW keyword on line 2 (regression: clause-level SourceMap
     // anchors for multi-line view definitions).
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW V AS\n"
     "  PROJECT[z](\n"
     "    R);",
     "DWC-E003", LintSeverity::kError, 3, 11,
     "view 'V' projects attribute 'z' which no joined relation provides"},
    {"multiline_predicate_anchors_at_predicate",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS\n"
     "  SELECT[a > 5 AND\n"
     "         a < 3](R);",
     "DWC-W001", LintSeverity::kWarning, 3, 10,
     "the combined selection of view 'V' is unsatisfiable; the view is "
     "provably empty and its complement stores the full base relations"},
    {"view_over_view",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "VIEW V AS R;\n"
     "VIEW W AS SELECT[a > 0](V);",
     "DWC-W007", LintSeverity::kWarning, 3, 25,
     "view 'W' references view 'V'; warehouse views must be PSJ expressions "
     "over base relations"},
    {"renaming_ind",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(b INT, KEY(b));\n"
     "INCLUSION R(a) SUBSETOF S(b);\n"
     "VIEW V AS R JOIN S;",
     "DWC-N001", LintSeverity::kNote, 3, 1,
     "inclusion dependency R(a) <= S(b) renames attributes; Theorem 2.2 cover "
     "candidates only arise from common-attribute INDs"},
    {"unreferenced_relation",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE Unused(x INT, KEY(x));\n"
     "VIEW V AS R;",
     "DWC-N002", LintSeverity::kNote, 2, 1,
     "relation 'Unused' is not referenced by any view; the warehouse "
     "complement must materialize it in full"},
    {"canonical_duplicate_commuted_join",
     "CREATE TABLE R(a INT, KEY(a));\n"
     "CREATE TABLE S(a INT, b INT, KEY(a));\n"
     "VIEW V AS R JOIN S;\n"
     "VIEW W AS S JOIN R;",
     "DWC-N003", LintSeverity::kNote, 4, 1,
     "view 'W' has the same canonicalized definition as view 'V'; the "
     "warehouse materializes it twice"},
    {"canonical_subexpression_of_other_view",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "CREATE TABLE S(a INT, c INT, KEY(a));\n"
     "VIEW Small AS SELECT[b > 0](R);\n"
     "VIEW Big AS SELECT[b > 0](R) JOIN S;",
     "DWC-N004", LintSeverity::kNote, 3, 1,
     "view 'Small's canonicalized definition appears inside view 'Big'; the "
     "subplan cache will recycle it, but the spec repeats the structure"},
    // Semantic pass (DWC-S*): verdicts from the src/analysis/ engines.
    {"lossy_claimed_complement",
     // C_Sale projects `price` away, so W = {CheapSales, C_Sale} cannot
     // reconstruct Sale: S002 with the missing-attribute witness.
     "CREATE TABLE Sale(item INT, clerk STRING, price INT, KEY(item));\n"
     "VIEW CheapSales AS SELECT[price < 100](Sale);\n"
     "VIEW C_Sale AS PROJECT[item, clerk](SELECT[price >= 100](Sale));",
     "DWC-S002", LintSeverity::kWarning, 3, 1,
     "base relation 'Sale' is not reconstructible: the claimed complement "
     "drops {price} (minimal missing-attribute witness)"},
    {"unverified_claimed_complement",
     // Full width, but the subtracted part is not the Equation (3)
     // construction: the residual store is unverified.
     "CREATE TABLE Sale(item INT, clerk STRING, price INT, KEY(item));\n"
     "VIEW CheapSales AS SELECT[price < 100](Sale);\n"
     "VIEW C_Sale AS SELECT[price >= 50](Sale);",
     "DWC-S003", LintSeverity::kWarning, 3, 1,
     "base relation 'Sale' has no verified residual store: C_Sale keeps the "
     "full width of Sale but does not match the constructed complement: it "
     "may omit tuples the views lose"},
    {"attributes_recoverable_only_through_complement",
     "CREATE TABLE R(a INT, b INT, KEY(a));\n"
     "VIEW V AS PROJECT[a](R);",
     "DWC-S004", LintSeverity::kNote, 2, 19,
     "no view exposes {b} of base relation 'R'; those attributes are "
     "recoverable only through the complement"},
    {"over_complement_for_selection_views",
     // A sigma-view is self-maintainable (Section 4 closing remark): its
     // complement is never read by any maintenance expression.
     "CREATE TABLE Emp(id INT, dept STRING, KEY(id));\n"
     "VIEW HighPaid AS SELECT[id >= 10](Emp);",
     "DWC-S006", LintSeverity::kNote, 1, 1,
     "complement relation 'C_Emp' is read by no view maintenance expression "
     "and no query; the views are maintainable without it"},
};

INSTANTIATE_TEST_SUITE_P(Cases, LintTableTest, ::testing::ValuesIn(kLintCases),
                         [](const ::testing::TestParamInfo<LintCase>& info) {
                           return std::string(info.param.name);
                         });

TEST(LintTest, CleanSpecHasNoFindings) {
  LintReport report = LintScript(
      "CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));\n"
      "CREATE TABLE Sale(item STRING, clerk STRING, KEY(item, clerk));\n"
      "INCLUSION Sale(clerk) SUBSETOF Emp(clerk);\n"
      "VIEW Sold AS Sale JOIN Emp;\n");
  EXPECT_TRUE(report.diagnostics.empty()) << Rules(report);
  EXPECT_EQ(report.errors, 0u);
  EXPECT_EQ(report.warnings, 0u);
  EXPECT_EQ(report.notes, 0u);
}

TEST(LintTest, CollectsAllFindingsInsteadOfAbortingOnFirst) {
  // One script, many independent problems: the analyzer must surface every
  // one of them, unlike the fail-fast AnalyzeAllPsj path.
  LintReport report = LintScript(
      "CREATE TABLE R(a INT, b INT, KEY(a));\n"
      "VIEW V1 AS R JOIN Missing;\n"
      "VIEW V2 AS R UNION R;\n"
      "VIEW V3 AS SELECT[a = 1 AND a = 2](R);\n"
      "VIEW V4 AS PROJECT[z](R);\n");
  for (const char* rule : {"DWC-E002", "DWC-E004", "DWC-W001", "DWC-E003"}) {
    EXPECT_NE(FindRule(report, rule), nullptr)
        << rule << " missing from: " << Rules(report);
  }
  EXPECT_GE(report.errors, 3u);
}

TEST(LintTest, DiagnosticsAreSortedBySourcePosition) {
  LintReport report = LintScript(
      "CREATE TABLE R(a INT);\n"
      "VIEW V1 AS R JOIN Missing;\n"
      "VIEW V2 AS R UNION R;\n");
  ASSERT_GE(report.diagnostics.size(), 2u);
  EXPECT_TRUE(std::is_sorted(report.diagnostics.begin(),
                             report.diagnostics.end()));
}

TEST(LintTest, ExampleScriptsAreErrorFree) {
  std::filesystem::path dir(DWC_EXAMPLE_SCRIPTS_DIR);
  size_t scripts = 0;
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().extension() != ".dwc") {
      continue;
    }
    ++scripts;
    std::ifstream in(entry.path());
    ASSERT_TRUE(in.good()) << entry.path();
    std::ostringstream buffer;
    buffer << in.rdbuf();
    LintReport report = LintScript(buffer.str());
    EXPECT_EQ(report.errors, 0u)
        << entry.path() << ": "
        << FormatDiagnosticsText(report.diagnostics,
                                 entry.path().filename().string());
  }
  EXPECT_GE(scripts, 4u) << "example corpus went missing in " << dir;
}

TEST(LintTest, LintWarehouseViewsWithoutSourcePositions) {
  ScriptContext context = MustRun("CREATE TABLE R(a INT, KEY(a));");
  std::vector<ViewDef> views = {
      {"V", Expr::Union(Expr::Base("R"), Expr::Base("R"))}};
  LintReport report = LintWarehouseViews(context.catalog, views);
  const Diagnostic* diag = FindRule(report, "DWC-E004");
  ASSERT_NE(diag, nullptr) << Rules(report);
  EXPECT_FALSE(diag->loc.valid());
}

// A name that is both a relation of the catalog and a view (possible only
// on this in-memory path: a parsed script rejects it with E008) resolves
// to the relation, as SpecifyWarehouse resolves it.
TEST(LintTest, LintWarehouseViewsReadsARelationNamedLikeAViewAsTheRelation) {
  ScriptContext context = MustRun("CREATE TABLE R(a INT, b INT, KEY(a));");
  std::vector<ViewDef> views = {
      {"R", Expr::Project({"a"}, Expr::Base("R"))},
      {"V", Expr::Project({"a", "b"}, Expr::Base("R"))}};
  LintReport report = LintWarehouseViews(context.catalog, views);
  // No W007 for either view: both are checked as PSJ views over R.
  EXPECT_EQ(Rules(report), "DWC-W005 DWC-W006 ");
  const Diagnostic* diag = FindRule(report, "DWC-W006");
  ASSERT_NE(diag, nullptr) << Rules(report);
  EXPECT_EQ(diag->subject, "V");
  EXPECT_EQ(diag->message,
            "in view 'V', the projection keeps every attribute of the join "
            "and has no effect");
}

TEST(LintTest, SpecifyWarehouseCheckedRejectsBadSpecWithRuleIds) {
  ScriptContext context = MustRun("CREATE TABLE R(a INT, KEY(a));");
  std::vector<ViewDef> views = {{"V", Expr::Base("Missing")}};
  LintReport report;
  Result<WarehouseSpec> spec =
      SpecifyWarehouseChecked(context.catalog, views, ComplementOptions(),
                              &report);
  ASSERT_FALSE(spec.ok());
  EXPECT_NE(spec.status().message().find("DWC-E002"), std::string::npos)
      << spec.status().message();
  EXPECT_TRUE(report.has_errors());
}

TEST(LintTest, SpecifyWarehouseCheckedAcceptsGoodSpec) {
  ScriptContext context = MustRun(
      "CREATE TABLE Emp(clerk STRING, age INT, KEY(clerk));\n"
      "CREATE TABLE Sale(item STRING, clerk STRING);\n"
      "INCLUSION Sale(clerk) SUBSETOF Emp(clerk);\n");
  std::vector<ViewDef> views = {
      {"Sold", Expr::Join(Expr::Base("Sale"), Expr::Base("Emp"))}};
  LintReport report;
  Result<WarehouseSpec> spec =
      SpecifyWarehouseChecked(context.catalog, views, ComplementOptions(),
                              &report);
  ASSERT_TRUE(spec.ok()) << spec.status().message();
  // Sale has no key: the analyzer warns (W004) but does not reject.
  EXPECT_FALSE(report.has_errors());
  EXPECT_NE(FindRule(report, "DWC-W004"), nullptr) << Rules(report);
}

TEST(LintTest, JsonOutputContainsRulesAndCounts) {
  LintReport report = LintScript(
      "CREATE TABLE R(a INT);\n"
      "VIEW V AS R JOIN Missing;\n");
  std::string json = FormatDiagnosticsJson(report.diagnostics, "spec.dwc");
  EXPECT_NE(json.find("\"file\": \"spec.dwc\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"rule\": \"DWC-E002\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"line\": 2"), std::string::npos) << json;
  EXPECT_NE(json.find("\"errors\": "), std::string::npos) << json;
}

TEST(LintTest, JsonEscapesQuotesInMessages) {
  LintReport report = LintScript("VIEW V AS Nope;");
  std::string json = FormatDiagnosticsJson(report.diagnostics, "a\"b.dwc");
  EXPECT_NE(json.find("a\\\"b.dwc"), std::string::npos) << json;
}

TEST(LintTest, RuleCatalogIsGroupedAndQueryable) {
  const std::vector<LintRule>& rules = LintRules();
  ASSERT_GE(rules.size(), 6u);
  // Grouped by severity, numbered within each group; IDs are unique and
  // every entry is findable by its own ID.
  EXPECT_TRUE(std::is_sorted(rules.begin(), rules.end(),
                             [](const LintRule& a, const LintRule& b) {
                               return a.severity < b.severity;
                             }));
  std::set<std::string_view> ids;
  for (const LintRule& r : rules) {
    EXPECT_TRUE(ids.insert(r.id).second) << "duplicate rule ID " << r.id;
    EXPECT_EQ(FindLintRule(r.id), &r);
  }
  const LintRule* rule = FindLintRule("DWC-E006");
  ASSERT_NE(rule, nullptr);
  EXPECT_EQ(rule->severity, LintSeverity::kError);
  EXPECT_NE(std::string_view(rule->paper_ref).find("Theorem 2.2"),
            std::string_view::npos);
  EXPECT_EQ(FindLintRule("DWC-X999"), nullptr);
}

TEST(LintTest, ParseErrorLocationRecovered) {
  LintReport report = LintScript("CREATE TABLE R(a INT, KEY(a));\nVIEW ;");
  const Diagnostic* diag = FindRule(report, "DWC-E001");
  ASSERT_NE(diag, nullptr) << Rules(report);
  EXPECT_EQ(report.diagnostics.size(), 1u);
  EXPECT_EQ(diag->loc.line, 2u);
}

}  // namespace
}  // namespace dwc
