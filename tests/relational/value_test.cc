#include "relational/value.h"

#include <gtest/gtest.h>

namespace dwc {
namespace {

TEST(ValueTest, TypesAndAccessors) {
  EXPECT_EQ(Value::Null().type(), ValueType::kNull);
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Int(5).AsInt(), 5);
  EXPECT_EQ(Value::Double(2.5).AsDouble(), 2.5);
  EXPECT_EQ(Value::String("hi").AsString(), "hi");
  EXPECT_EQ(Value("literal").AsString(), "literal");
}

TEST(ValueTest, EqualitySameType) {
  EXPECT_EQ(Value::Int(3), Value::Int(3));
  EXPECT_NE(Value::Int(3), Value::Int(4));
  EXPECT_EQ(Value::String("a"), Value::String("a"));
  EXPECT_NE(Value::String("a"), Value::String("b"));
  EXPECT_EQ(Value::Null(), Value::Null());
}

TEST(ValueTest, MixedNumericCompareNumerically) {
  EXPECT_EQ(Value::Int(3), Value::Double(3.0));
  EXPECT_NE(Value::Int(3), Value::Double(3.5));
  EXPECT_LT(Value::Int(3), Value::Double(3.5));
  EXPECT_GT(Value::Double(4.5), Value::Int(4));
}

TEST(ValueTest, CrossTypeNeverEqual) {
  EXPECT_NE(Value::Int(0), Value::String("0"));
  EXPECT_NE(Value::Null(), Value::Int(0));
  EXPECT_NE(Value::Null(), Value::String(""));
}

TEST(ValueTest, OrderingIsTotalAndConsistent) {
  std::vector<Value> values = {Value::Null(), Value::Int(1), Value::Int(2),
                               Value::Double(2.5), Value::String("a"),
                               Value::String("b")};
  for (size_t i = 0; i < values.size(); ++i) {
    EXPECT_FALSE(values[i] < values[i]);
    for (size_t j = i + 1; j < values.size(); ++j) {
      EXPECT_TRUE((values[i] < values[j]) != (values[j] < values[i]) ||
                  values[i] == values[j]);
    }
  }
}

TEST(ValueTest, HashConsistentWithEquality) {
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("x").Hash(), Value::String("x").Hash());
  EXPECT_NE(Value::String("x").Hash(), Value::String("y").Hash());
}

TEST(ValueTest, ToStringRoundTrippable) {
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::String("it's").ToString(), "'it''s'");
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  // A double prints as its shortest round-trip text, always in a form
  // that reads back as a DOUBLE.
  EXPECT_EQ(Value::Double(3.0).ToString(), "3.0");
  EXPECT_EQ(Value::Double(-2.5).ToString(), "-2.5");
  EXPECT_EQ(Value::Double(1.0 / 3).ToString(), "0.3333333333333333");
  EXPECT_EQ(Value::Double(1234567.5).ToString(), "1234567.5");
  EXPECT_EQ(Value::Double(1e-5).ToString(), "1e-05");
  EXPECT_EQ(Value::Double(1e20).ToString(), "1e+20");
  std::string appended = "x=";
  Value::String("a'b").AppendTo(&appended);
  EXPECT_EQ(appended, "x='a''b'");
}

TEST(ValueTypeTest, Names) {
  EXPECT_STREQ(ValueTypeName(ValueType::kInt), "INT");
  EXPECT_STREQ(ValueTypeName(ValueType::kString), "STRING");
  EXPECT_STREQ(ValueTypeName(ValueType::kDouble), "DOUBLE");
  EXPECT_STREQ(ValueTypeName(ValueType::kNull), "NULL");
}

}  // namespace
}  // namespace dwc
