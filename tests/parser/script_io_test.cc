// Round-trip tests for the DSL serializers: script -> objects -> script ->
// objects must reproduce catalogs, states, views and summaries exactly.

#include "parser/script_io.h"

#include <gtest/gtest.h>

#include <iterator>

#include "parser/parser.h"
#include "testing/property_util.h"
#include "testing/test_util.h"
#include "util/checksum.h"
#include "util/rng.h"
#include "warehouse/update.h"
#include "workload/random_db.h"
#include "workload/random_views.h"
#include "workload/star_schema.h"

namespace dwc {
namespace {

using ::dwc::testing::CatalogShape;
using ::dwc::testing::D;
using ::dwc::testing::MakeCatalog;
using ::dwc::testing::I;
using ::dwc::testing::MustRun;
using ::dwc::testing::S;
using ::dwc::testing::T;

TEST(ScriptIoTest, ExprRoundTrip) {
  const char* exprs[] = {
      "R",
      "(R join S)",
      "((R union S) minus T)",
      "project[a, b](select[(a = 1 and b != 'x')](R))",
      "rename[a -> z](R)",
      "empty[a INT, b STRING]",
      "select[not (a < 2.5) or true](R)",
  };
  for (const char* text : exprs) {
    Result<ExprRef> parsed = ParseExpr(text);
    DWC_ASSERT_OK(parsed);
    std::string script = ExprToScript(**parsed);
    Result<ExprRef> reparsed = ParseExpr(script);
    DWC_ASSERT_OK(reparsed);
    EXPECT_TRUE((*reparsed)->Equals(**parsed))
        << text << " -> " << script << " -> " << (*reparsed)->ToString();
  }
}

TEST(ScriptIoTest, RandomExprRoundTrip) {
  Rng rng(4040);
  std::shared_ptr<Catalog> catalog = MakeCatalog(CatalogShape::kChain);
  for (int i = 0; i < 50; ++i) {
    Result<ExprRef> expr = GenerateRandomQuery(*catalog, &rng);
    DWC_ASSERT_OK(expr);
    Result<ExprRef> reparsed = ParseExpr(ExprToScript(**expr));
    DWC_ASSERT_OK(reparsed);
    EXPECT_TRUE((*reparsed)->Equals(**expr)) << (*expr)->ToString();
  }
}

TEST(ScriptIoTest, CatalogAndDatabaseRoundTrip) {
  Result<StarSchema> star = BuildStarSchema({});
  DWC_ASSERT_OK(star);
  std::string script =
      CatalogToScript(*star->catalog) + DatabaseToScript(star->db);
  for (const ViewDef& view : star->views) {
    script += ViewToScript(view);
  }
  ScriptContext reloaded = MustRun(script);
  // Same relations, same constraints, same contents, same views.
  EXPECT_TRUE(reloaded.db.SameStateAs(star->db));
  EXPECT_EQ(reloaded.catalog->inclusions().size(),
            star->catalog->inclusions().size());
  ASSERT_EQ(reloaded.views.size(), star->views.size());
  for (size_t i = 0; i < star->views.size(); ++i) {
    EXPECT_EQ(reloaded.views[i].name, star->views[i].name);
    EXPECT_TRUE(reloaded.views[i].expr->Equals(*star->views[i].expr));
  }
  DWC_ASSERT_OK(reloaded.db.ValidateConstraints());
}

TEST(ScriptIoTest, RandomDatabaseRoundTrip) {
  Rng rng(4141);
  std::shared_ptr<Catalog> catalog = MakeCatalog(CatalogShape::kKeyedInds);
  Result<Database> db = GenerateRandomDatabase(catalog, &rng);
  DWC_ASSERT_OK(db);
  std::string script = CatalogToScript(*catalog) + DatabaseToScript(*db);
  ScriptContext reloaded = MustRun(script);
  EXPECT_TRUE(reloaded.db.SameStateAs(*db));
}

// The appending writer's bytes for INT and STRING data equal those of the
// stream-based writer it replaced (measured on the default star schema), so
// checkpoints and WAL records read back and compare as before.
TEST(ScriptIoTest, StarSchemaBytesArePinned) {
  Result<StarSchema> star = BuildStarSchema({});
  DWC_ASSERT_OK(star);
  const std::string rows = DatabaseToScript(star->db);
  EXPECT_EQ(rows.size(), 18976u);
  EXPECT_EQ(Crc32ToHex(Crc32(rows)), "2f285e04");
  std::string script = CatalogToScript(*star->catalog) + rows;
  for (const ViewDef& view : star->views) {
    script += ViewToScript(view);
  }
  EXPECT_EQ(script.size(), 20038u);
  EXPECT_EQ(Crc32ToHex(Crc32(script)), "96269be5");
}

TEST(ScriptIoTest, DeltaTextIsPinned) {
  Schema schema({{"a", ValueType::kInt}, {"b", ValueType::kString}});
  CanonicalDelta delta;
  delta.relation = "R";
  delta.source_id = "s1";
  delta.epoch = 3;
  delta.sequence = 42;
  delta.state_digest = 0x0123456789abcdefULL;
  delta.inserts = Relation(schema);
  delta.inserts.Insert(T({I(2), S("it's")}));
  delta.inserts.Insert(T({I(-9223372036854775807 - 1), S("")}));
  delta.inserts.Insert(T({I(10), S("a")}));
  delta.deletes = Relation(schema);
  delta.deletes.Insert(T({I(7), S("x, y")}));
  EXPECT_EQ(DeltaToScript(delta),
            "DELTA R SOURCE 's1' EPOCH 3 SEQ 42 STATE '0123456789abcdef' "
            "INSERT (-9223372036854775808, ''), (2, 'it''s'), (10, 'a') "
            "DELETE (7, 'x, y');\n");
}

// Doubles are written as the shortest text that reads back as the same
// DOUBLE: 1.0/3 keeps all its digits, 1234567.5 is not cut to 6 digits in
// exponent form, and 3.0 does not read back as an INT.
TEST(ScriptIoTest, DoublesRoundTripExactly) {
  const double doubles[] = {1.0 / 3, 1234567.5, 3.0,    1e-5,  -2.75,
                            -1.0 / 3, 1e300,    -1e-300, 0.1,  -0.0};
  Schema schema({{"k", ValueType::kInt}, {"x", ValueType::kDouble}});
  Database db;
  Relation rel(schema);
  for (size_t i = 0; i < std::size(doubles); ++i) {
    rel.Insert(T({I(static_cast<int64_t>(i)), D(doubles[i])}));
  }
  DWC_ASSERT_OK(db.AddRelation("M", rel));
  CanonicalDelta delta;
  delta.relation = "M";
  delta.source_id = "s1";
  delta.epoch = 1;
  delta.inserts = Relation(schema);
  delta.deletes = Relation(schema);
  delta.deletes.Insert(T({I(0), D(1.0 / 3)}));
  delta.inserts.Insert(T({I(0), D(1.0 / 7)}));
  const std::string script =
      "CREATE TABLE M(k INT, x DOUBLE);\n" + DatabaseToScript(db);
  ScriptContext reloaded = MustRun(script + DeltaToScript(delta));
  const Relation* out = reloaded.db.FindRelation("M");
  ASSERT_NE(out, nullptr);
  ASSERT_EQ(out->size(), std::size(doubles));
  for (const Tuple& tuple : out->tuples()) {
    const size_t k = static_cast<size_t>(tuple.at(0).AsInt());
    ASSERT_EQ(tuple.at(1).type(), ValueType::kDouble) << script;
    const double want = k == 0 ? 1.0 / 7 : doubles[k];
    EXPECT_EQ(tuple.at(1).AsDouble(), want) << script;
  }
}

TEST(ScriptIoTest, SummaryRoundTrip) {
  AggregateViewDef def;
  def.name = "Tot";
  def.source = Expr::Base("V");
  def.group_by = {"g", "h"};
  def.aggregates = {{AggFunc::kCount, "", "n"},
                    {AggFunc::kSum, "v", "s"},
                    {AggFunc::kMin, "v", "lo"},
                    {AggFunc::kMax, "v", "hi"}};
  std::string script = SummaryToScript(def);
  Result<std::vector<Statement>> parsed = ParseProgram(script);
  DWC_ASSERT_OK(parsed);
  ASSERT_EQ(parsed->size(), 1u);
  const auto* stmt = std::get_if<SummaryStmt>(&(*parsed)[0]);
  ASSERT_NE(stmt, nullptr);
  EXPECT_EQ(stmt->def.name, def.name);
  EXPECT_EQ(stmt->def.group_by, def.group_by);
  ASSERT_EQ(stmt->def.aggregates.size(), def.aggregates.size());
  for (size_t i = 0; i < def.aggregates.size(); ++i) {
    EXPECT_EQ(stmt->def.aggregates[i].func, def.aggregates[i].func);
    EXPECT_EQ(stmt->def.aggregates[i].attr, def.aggregates[i].attr);
    EXPECT_EQ(stmt->def.aggregates[i].out_name, def.aggregates[i].out_name);
  }
  EXPECT_TRUE(stmt->def.source->Equals(*def.source));
}

TEST(ScriptIoTest, SummaryParserValidation) {
  // Select items must match GROUP BY.
  EXPECT_FALSE(ParseProgram("SUMMARY S AS SELECT g, COUNT() AS n FROM V "
                            "GROUP BY h;")
                   .ok());
  // COUNT with attribute rejected at parse level (needs '()').
  EXPECT_FALSE(ParseProgram("SUMMARY S AS SELECT g, COUNT(v) AS n FROM V "
                            "GROUP BY g;")
                   .ok());
  // Interpreter validates against the source schema.
  EXPECT_FALSE(RunScript("CREATE TABLE R(g STRING, v STRING);\n"
                         "VIEW V AS R;\n"
                         "SUMMARY S AS SELECT g, SUM(v) AS s FROM V "
                         "GROUP BY g;\n")
                   .ok());
  ScriptContext ok = MustRun(
      "CREATE TABLE R(g STRING, v INT);\n"
      "VIEW V AS R;\n"
      "SUMMARY S AS SELECT g, SUM(v) AS s FROM V GROUP BY g;\n");
  ASSERT_EQ(ok.summaries.size(), 1u);
  EXPECT_EQ(ok.summaries[0].name, "S");
}

// Replaying DELTA records checks each record's post-state digest, also
// when plain INSERT/DELETE statements change the relation in between and
// when a record repeats an insert or deletes an absent tuple.
class DeltaReplayTest : public ::testing::Test {
 protected:
  // A DELTA record applying (inserts, deletes) to `truth_`, stamped with
  // the digest `truth_` has afterwards.
  std::string Delta(std::vector<Tuple> inserts, std::vector<Tuple> deletes) {
    CanonicalDelta delta;
    delta.relation = "R";
    delta.inserts = Relation(schema_);
    delta.deletes = Relation(schema_);
    for (Tuple& tuple : deletes) {
      truth_.Erase(tuple);
      delta.deletes.Insert(std::move(tuple));
    }
    for (Tuple& tuple : inserts) {
      truth_.Insert(tuple);
      delta.inserts.Insert(std::move(tuple));
    }
    delta.source_id = "s1";
    delta.epoch = 1;
    delta.sequence = ++sequence_;
    delta.state_digest = RelationDigest(truth_);
    return DeltaToScript(delta);
  }

  std::string Script() {
    std::string script =
        "CREATE TABLE R(a INT, b STRING);\n"
        "INSERT INTO R VALUES (1, 'x'), (2, 'y');\n";
    truth_.Insert(T({I(1), S("x")}));
    truth_.Insert(T({I(2), S("y")}));
    script += Delta({T({I(3), S("z")})}, {T({I(1), S("x")})});
    script += "DELETE FROM R VALUES (2, 'y');\n";
    truth_.Erase(T({I(2), S("y")}));
    script += Delta({T({I(4), S("w")}), T({I(3), S("z")})},
                    {T({I(9), S("absent")})});
    script += "INSERT INTO R VALUES (2, 'y'), (5, 'v');\n";
    truth_.Insert(T({I(2), S("y")}));
    truth_.Insert(T({I(5), S("v")}));
    script += Delta({}, {T({I(5), S("v")}), T({I(3), S("z")})});
    script += Delta({T({I(6), S("u")})}, {});
    return script;
  }

  Schema schema_{{{"a", ValueType::kInt}, {"b", ValueType::kString}}};
  Relation truth_{schema_};
  uint64_t sequence_ = 0;
};

TEST_F(DeltaReplayTest, MixedStatementsVerify) {
  Result<ScriptContext> context = RunScript(Script());
  DWC_ASSERT_OK(context);
  EXPECT_TRUE(
      testing::RelationsEqual(*context->db.FindRelation("R"), truth_));
}

TEST_F(DeltaReplayTest, TamperedDigestFails) {
  std::string script = Script();
  // Flip one hex digit of the last record's STATE digest.
  size_t at = script.rfind("STATE '") + 7;
  script[at] = script[at] == '0' ? '1' : '0';
  EXPECT_EQ(RunScript(script).status().code(),
            StatusCode::kFailedPrecondition);
}

}  // namespace
}  // namespace dwc
