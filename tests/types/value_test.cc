// Unit tests for the Value type: construction, comparison semantics,
// hashing, date arithmetic, and printing.

#include "types/value.h"

#include <gtest/gtest.h>

#include <limits>

namespace conquer {
namespace {

TEST(ValueTest, ConstructionAndAccessors) {
  EXPECT_TRUE(Value::Null().is_null());
  EXPECT_EQ(Value::Bool(true).bool_value(), true);
  EXPECT_EQ(Value::Int(42).int_value(), 42);
  EXPECT_DOUBLE_EQ(Value::Double(2.5).double_value(), 2.5);
  EXPECT_EQ(Value::String("abc").string_value(), "abc");
  EXPECT_EQ(Value::Date(100).date_value(), 100);
}

TEST(ValueTest, TypeTags) {
  EXPECT_EQ(Value::Null().type(), DataType::kNull);
  EXPECT_EQ(Value::Int(1).type(), DataType::kInt64);
  EXPECT_EQ(Value::Date(1).type(), DataType::kDate);
}

TEST(ValueTest, NumericCrossTypeComparison) {
  EXPECT_EQ(Value::Int(3).Compare(Value::Double(3.0)), 0);
  EXPECT_LT(Value::Int(3).Compare(Value::Double(3.5)), 0);
  EXPECT_GT(Value::Double(4.0).Compare(Value::Int(3)), 0);
}

TEST(ValueTest, StringComparisonIsLexicographic) {
  EXPECT_LT(Value::String("abc").Compare(Value::String("abd")), 0);
  EXPECT_EQ(Value::String("x").Compare(Value::String("x")), 0);
  EXPECT_GT(Value::String("b").Compare(Value::String("ab")), 0);
}

TEST(ValueTest, TotalCompareOrdersNullsFirst) {
  EXPECT_LT(Value::Null().TotalCompare(Value::Int(0)), 0);
  EXPECT_EQ(Value::Null().TotalCompare(Value::Null()), 0);
  EXPECT_GT(Value::String("a").TotalCompare(Value::Int(5)), 0);
}

TEST(ValueTest, HashConsistentWithEquality) {
  // 3 and 3.0 compare equal under TotalCompare, so they must collide.
  EXPECT_EQ(Value::Int(3).TotalCompare(Value::Double(3.0)), 0);
  EXPECT_EQ(Value::Int(3).Hash(), Value::Double(3.0).Hash());
  EXPECT_EQ(Value::String("xy").Hash(), Value::String("xy").Hash());
}

TEST(ValueTest, ToStringForms) {
  EXPECT_EQ(Value::Null().ToString(), "NULL");
  EXPECT_EQ(Value::Int(-7).ToString(), "-7");
  EXPECT_EQ(Value::String("hi").ToString(), "hi");
  EXPECT_EQ(Value::Bool(true).ToString(), "true");
}

TEST(ValueTest, SqlLiteralQuotingAndEscaping) {
  EXPECT_EQ(Value::Int(5).ToSqlLiteral(), "5");
  EXPECT_EQ(Value::String("it's").ToSqlLiteral(), "'it''s'");
  auto d = ParseDate("1995-03-15");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(Value::Date(*d).ToSqlLiteral(), "DATE '1995-03-15'");
}

TEST(DateTest, EpochAnchors) {
  EXPECT_EQ(CivilToDays(1970, 1, 1), 0);
  EXPECT_EQ(CivilToDays(1970, 1, 2), 1);
  EXPECT_EQ(CivilToDays(1969, 12, 31), -1);
  EXPECT_EQ(CivilToDays(2000, 3, 1), 11017);
}

TEST(DateTest, RoundTripThroughCivil) {
  for (int64_t days : {-10000, -1, 0, 1, 10000, 20000}) {
    int64_t y;
    int m, d;
    DaysToCivil(days, &y, &m, &d);
    EXPECT_EQ(CivilToDays(static_cast<int>(y), m, d), days);
  }
}

TEST(DateTest, FormatsEveryInt64DayCount) {
  EXPECT_EQ(FormatDate(std::numeric_limits<int64_t>::max()),
            "25252734927768524-07-27");
  EXPECT_EQ(FormatDate(std::numeric_limits<int64_t>::min()),
            "-25252734927764585-06-07");
  EXPECT_EQ(Value::Date(std::numeric_limits<int64_t>::max()).ToSqlLiteral(),
            "DATE '25252734927768524-07-27'");
}

TEST(DateTest, LeapYearHandling) {
  EXPECT_EQ(CivilToDays(2000, 2, 29) + 1, CivilToDays(2000, 3, 1));
  EXPECT_EQ(CivilToDays(1900, 2, 28) + 1, CivilToDays(1900, 3, 1));  // not leap
  EXPECT_EQ(CivilToDays(1996, 2, 29) + 1, CivilToDays(1996, 3, 1));
}

TEST(DateTest, ParseAndFormat) {
  auto d = ParseDate("1998-09-02");
  ASSERT_TRUE(d.ok());
  EXPECT_EQ(FormatDate(*d), "1998-09-02");
  EXPECT_FALSE(ParseDate("1998/09/02").ok());
  EXPECT_FALSE(ParseDate("not-a-date").ok());
  EXPECT_FALSE(ParseDate("1998-13-02").ok());
  EXPECT_FALSE(ParseDate("1998-09-32").ok());
  EXPECT_FALSE(ParseDate("1998-09-02x").ok());
}

TEST(DateTest, DateComparisonOrdersChronologically) {
  auto a = ParseDate("1995-03-14");
  auto b = ParseDate("1995-03-15");
  ASSERT_TRUE(a.ok() && b.ok());
  EXPECT_LT(Value::Date(*a).Compare(Value::Date(*b)), 0);
}

TEST(TypesComparableTest, Matrix) {
  EXPECT_TRUE(TypesComparable(DataType::kInt64, DataType::kDouble));
  EXPECT_TRUE(TypesComparable(DataType::kString, DataType::kString));
  EXPECT_TRUE(TypesComparable(DataType::kNull, DataType::kDate));
  EXPECT_FALSE(TypesComparable(DataType::kString, DataType::kInt64));
  EXPECT_FALSE(TypesComparable(DataType::kDate, DataType::kInt64));
  EXPECT_FALSE(TypesComparable(DataType::kBool, DataType::kInt64));
}

TEST(DataTypeTest, Names) {
  EXPECT_STREQ(DataTypeToString(DataType::kInt64), "INT64");
  EXPECT_STREQ(DataTypeToString(DataType::kString), "STRING");
  EXPECT_STREQ(DataTypeToString(DataType::kDate), "DATE");
}

TEST(ValueTest, AsDoubleWidening) {
  EXPECT_DOUBLE_EQ(Value::Int(7).AsDouble(), 7.0);
  EXPECT_DOUBLE_EQ(Value::Bool(true).AsDouble(), 1.0);
  EXPECT_DOUBLE_EQ(Value::Date(10).AsDouble(), 10.0);
}

}  // namespace
}  // namespace conquer
