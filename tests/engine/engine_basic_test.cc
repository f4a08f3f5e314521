#include "engine/database.h"

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "tests/engine/explain_text.h"
#include "types/value.h"

namespace conquer {
namespace {

class EngineBasicTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema customer("customer", {{"id", DataType::kString},
                                      {"name", DataType::kString},
                                      {"balance", DataType::kInt64},
                                      {"prob", DataType::kDouble}});
    ASSERT_TRUE(db_.CreateTable(customer).ok());
    Insert("customer", {Value::String("c1"), Value::String("John"),
                        Value::Int(20000), Value::Double(0.7)});
    Insert("customer", {Value::String("c1"), Value::String("John"),
                        Value::Int(30000), Value::Double(0.3)});
    Insert("customer", {Value::String("c2"), Value::String("Mary"),
                        Value::Int(27000), Value::Double(0.2)});
    Insert("customer", {Value::String("c2"), Value::String("Marion"),
                        Value::Int(5000), Value::Double(0.8)});

    TableSchema orders("orders", {{"id", DataType::kString},
                                  {"cidfk", DataType::kString},
                                  {"quantity", DataType::kInt64},
                                  {"prob", DataType::kDouble}});
    ASSERT_TRUE(db_.CreateTable(orders).ok());
    Insert("orders", {Value::String("o1"), Value::String("c1"), Value::Int(3),
                      Value::Double(1.0)});
    Insert("orders", {Value::String("o2"), Value::String("c1"), Value::Int(2),
                      Value::Double(0.5)});
    Insert("orders", {Value::String("o2"), Value::String("c2"), Value::Int(5),
                      Value::Double(0.5)});
  }

  void Insert(const std::string& table, Row row) {
    ASSERT_TRUE(db_.Insert(table, std::move(row)).ok());
  }

  ResultSet Query(const std::string& sql) {
    auto rs = db_.Query(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;
    if (!rs.ok()) return ResultSet{};
    return std::move(rs).value();
  }

  Database db_;
};

TEST_F(EngineBasicTest, SelectAllColumns) {
  ResultSet rs = Query("select * from customer");
  EXPECT_EQ(rs.num_rows(), 4u);
  EXPECT_EQ(rs.num_columns(), 4u);
  EXPECT_EQ(rs.column_names[0], "id");
  EXPECT_EQ(rs.column_names[2], "balance");
}

TEST_F(EngineBasicTest, SelectWithFilter) {
  ResultSet rs = Query("select name from customer where balance > 10000");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(EngineBasicTest, FilterWithAndOr) {
  ResultSet rs = Query(
      "select name from customer where balance > 10000 and name = 'John'");
  EXPECT_EQ(rs.num_rows(), 2u);
  rs = Query(
      "select name from customer where name = 'Mary' or name = 'Marion'");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(EngineBasicTest, InListDesugaring) {
  ResultSet rs =
      Query("select name from customer where name in ('Mary', 'Marion')");
  EXPECT_EQ(rs.num_rows(), 2u);
}

TEST_F(EngineBasicTest, BetweenDesugaring) {
  ResultSet rs = Query(
      "select name from customer where balance between 20000 and 30000");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(EngineBasicTest, LikePredicate) {
  ResultSet rs = Query("select name from customer where name like 'Mar%'");
  EXPECT_EQ(rs.num_rows(), 2u);
  rs = Query("select name from customer where name like '%ohn'");
  EXPECT_EQ(rs.num_rows(), 2u);
  rs = Query("select name from customer where name like 'M_ry'");
  EXPECT_EQ(rs.num_rows(), 1u);
}

TEST_F(EngineBasicTest, JoinTwoTables) {
  ResultSet rs = Query(
      "select o.id, c.id from orders o, customer c "
      "where o.cidfk = c.id and c.balance > 10000");
  // (o1,c1)x2 joins, (o2,c1)x2, (o2,c2)x1 -> 5 rows.
  EXPECT_EQ(rs.num_rows(), 5u);
}

TEST_F(EngineBasicTest, JoinWithGroupBySum) {
  ResultSet rs = Query(
      "select o.id, c.id, sum(o.prob * c.prob) from orders o, customer c "
      "where o.cidfk = c.id and c.balance > 10000 group by o.id, c.id");
  ASSERT_EQ(rs.num_rows(), 3u);
  // Probe expected probabilities from the paper's Example 6.
  double p_o1c1 = -1, p_o2c1 = -1, p_o2c2 = -1;
  for (const Row& r : rs.rows) {
    std::string key = r[0].string_value() + r[1].string_value();
    if (key == "o1c1") p_o1c1 = r[2].double_value();
    if (key == "o2c1") p_o2c1 = r[2].double_value();
    if (key == "o2c2") p_o2c2 = r[2].double_value();
  }
  EXPECT_NEAR(p_o1c1, 1.0, 1e-9);
  EXPECT_NEAR(p_o2c1, 0.5, 1e-9);
  EXPECT_NEAR(p_o2c2, 0.1, 1e-9);
}

TEST_F(EngineBasicTest, OrderByDesc) {
  ResultSet rs =
      Query("select name, balance from customer order by balance desc");
  ASSERT_EQ(rs.num_rows(), 4u);
  EXPECT_EQ(rs.rows[0][1].int_value(), 30000);
  EXPECT_EQ(rs.rows[3][1].int_value(), 5000);
}

TEST_F(EngineBasicTest, OrderByAlias) {
  ResultSet rs = Query(
      "select name, balance * 2 as doubled from customer order by doubled");
  ASSERT_EQ(rs.num_rows(), 4u);
  EXPECT_EQ(rs.rows[0][1].int_value(), 10000);
}

TEST_F(EngineBasicTest, OrderByHiddenColumn) {
  ResultSet rs = Query("select name from customer order by balance desc");
  ASSERT_EQ(rs.num_rows(), 4u);
  EXPECT_EQ(rs.num_columns(), 1u);  // hidden sort column stripped
  EXPECT_EQ(rs.rows[0][0].string_value(), "John");
  EXPECT_EQ(rs.rows[3][0].string_value(), "Marion");
}

TEST_F(EngineBasicTest, Distinct) {
  ResultSet rs = Query("select distinct name from customer");
  EXPECT_EQ(rs.num_rows(), 3u);
}

TEST_F(EngineBasicTest, Limit) {
  ResultSet rs = Query("select name from customer order by balance limit 2");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0].string_value(), "Marion");
}

TEST_F(EngineBasicTest, AggregatesWithoutGroupBy) {
  ResultSet rs = Query(
      "select count(*), sum(balance), min(balance), max(balance), "
      "avg(balance) from customer");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 4);
  EXPECT_EQ(rs.rows[0][1].int_value(), 82000);
  EXPECT_EQ(rs.rows[0][2].int_value(), 5000);
  EXPECT_EQ(rs.rows[0][3].int_value(), 30000);
  EXPECT_NEAR(rs.rows[0][4].double_value(), 20500.0, 1e-9);
}

TEST_F(EngineBasicTest, AggregateOnEmptyInput) {
  ResultSet rs = Query(
      "select count(*), sum(balance) from customer where balance > 99999999");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 0);
  EXPECT_TRUE(rs.rows[0][1].is_null());
}

TEST_F(EngineBasicTest, GroupByOnEmptyInputYieldsNoRows) {
  ResultSet rs = Query(
      "select name, count(*) from customer where balance > 99999999 "
      "group by name");
  EXPECT_EQ(rs.num_rows(), 0u);
}

TEST_F(EngineBasicTest, ArithmeticExpressions) {
  ResultSet rs = Query(
      "select balance * (1 + 1), balance / 2, balance - 1000 "
      "from customer where id = 'c2' and name = 'Mary'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].int_value(), 54000);
  EXPECT_NEAR(rs.rows[0][1].double_value(), 13500.0, 1e-9);
  EXPECT_EQ(rs.rows[0][2].int_value(), 26000);
}

TEST_F(EngineBasicTest, IndexScanEquivalentToSeqScan) {
  ASSERT_TRUE(db_.CreateIndex("customer", "id").ok());
  ResultSet rs = Query("select name from customer where id = 'c1'");
  EXPECT_EQ(rs.num_rows(), 2u);
  // Explain should mention the index scan.
  auto plan =
      ExplainText(db_, "explain select name from customer where id = 'c1'");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

TEST_F(EngineBasicTest, ThreeWayJoin) {
  TableSchema card("card", {{"cardid", DataType::kInt64},
                            {"custfk", DataType::kString}});
  ASSERT_TRUE(db_.CreateTable(card).ok());
  Insert("card", {Value::Int(111), Value::String("c1")});
  Insert("card", {Value::Int(222), Value::String("c2")});
  ResultSet rs = Query(
      "select k.cardid, o.id, c.name from card k, customer c, orders o "
      "where k.custfk = c.id and o.cidfk = c.id and o.quantity < 5");
  // orders with quantity<5: (o1,c1),(o2,c1); each joins 2 customer dups and
  // 1 card -> 4 rows.
  EXPECT_EQ(rs.num_rows(), 4u);
}

TEST_F(EngineBasicTest, ErrorUnknownTable) {
  auto rs = db_.Query("select * from nosuch");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineBasicTest, ErrorUnknownColumn) {
  auto rs = db_.Query("select nosuch from customer");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kNotFound);
}

TEST_F(EngineBasicTest, ErrorAmbiguousColumn) {
  auto rs = db_.Query(
      "select id from customer c, orders o where c.id = o.cidfk");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(EngineBasicTest, ErrorUngroupedColumn) {
  auto rs = db_.Query("select name, sum(balance) from customer");
  EXPECT_FALSE(rs.ok());
}

TEST_F(EngineBasicTest, ErrorTypeMismatch) {
  auto rs = db_.Query("select * from customer where name > 5");
  EXPECT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kTypeError);
}

TEST_F(EngineBasicTest, DateLiteralsAndComparison) {
  TableSchema t("events", {{"d", DataType::kDate}});
  ASSERT_TRUE(db_.CreateTable(t).ok());
  auto d1 = ParseDate("1995-03-10");
  auto d2 = ParseDate("1995-03-20");
  ASSERT_TRUE(d1.ok() && d2.ok());
  Insert("events", {Value::Date(*d1)});
  Insert("events", {Value::Date(*d2)});
  ResultSet rs = Query("select d from events where d < date '1995-03-15'");
  ASSERT_EQ(rs.num_rows(), 1u);
  EXPECT_EQ(rs.rows[0][0].ToString(), "1995-03-10");
}

TEST_F(EngineBasicTest, CrossProductWhenNoJoinEdge) {
  ResultSet rs = Query("select c.id, o.id from customer c, orders o");
  EXPECT_EQ(rs.num_rows(), 12u);
}

TEST_F(EngineBasicTest, NullHandlingInPredicates) {
  TableSchema t("nt", {{"a", DataType::kInt64}});
  ASSERT_TRUE(db_.CreateTable(t).ok());
  Insert("nt", {Value::Int(1)});
  Insert("nt", {Value::Null()});
  // NULL comparisons exclude the row.
  EXPECT_EQ(Query("select a from nt where a = 1").num_rows(), 1u);
  EXPECT_EQ(Query("select a from nt where a <> 1").num_rows(), 0u);
  EXPECT_EQ(Query("select a from nt where a is null").num_rows(), 1u);
  EXPECT_EQ(Query("select a from nt where a is not null").num_rows(), 1u);
  // NOT(NULL) is NULL -> excluded.
  EXPECT_EQ(Query("select a from nt where not (a = 1)").num_rows(), 0u);
}

// Group keys are fixed-width words chosen by each key's bound type; these
// pin the values the encoding must keep apart or bring together, end to
// end through SQL.
class GroupKeyTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(db_.CreateTable(TableSchema("k", {{"i", DataType::kInt64},
                                                  {"s", DataType::kString},
                                                  {"t", DataType::kString},
                                                  {"d", DataType::kDouble},
                                                  {"dt", DataType::kDate},
                                                  {"b", DataType::kBool}}))
                    .ok());
  }

  // Inserts one row of k; columns left out are NULL.
  void Insert(Value i, Value s, Value t = Value::Null(),
              Value d = Value::Null(), Value dt = Value::Null(),
              Value b = Value::Null()) {
    ASSERT_TRUE(db_.Insert("k", {std::move(i), std::move(s), std::move(t),
                                 std::move(d), std::move(dt), std::move(b)})
                    .ok());
  }

  ResultSet Query(const std::string& sql) {
    auto rs = db_.Query(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;
    if (!rs.ok()) return ResultSet{};
    return std::move(rs).value();
  }

  // Renders rows as "v|v|...;" (NULL as NULL) for compact comparisons.
  static std::string Render(const ResultSet& rs) {
    std::string out;
    for (const Row& row : rs.rows) {
      for (size_t c = 0; c < row.size(); ++c) {
        out += (c > 0 ? "|" : "") + row[c].ToString();
      }
      out += ";";
    }
    return out;
  }

  Database db_;
};

TEST_F(GroupKeyTest, NullZeroAndEmptyStringStayApartInEveryPosition) {
  const Value kNull = Value::Null();
  Insert(kNull, kNull, kNull, kNull);
  Insert(Value::Int(0), kNull, kNull, Value::Double(0.0));
  Insert(kNull, Value::String(""), kNull, kNull);
  Insert(Value::Int(0), Value::String(""), kNull, Value::Double(0.0));
  Insert(Value::Int(0), Value::String(""), kNull, Value::Double(0.0));
  Insert(kNull, kNull, kNull, Value::Double(0.0));
  EXPECT_EQ(Render(Query("select i, s, count(*) from k group by i, s")),
            "NULL|NULL|2;0|NULL|1;NULL||1;0||2;");
  EXPECT_EQ(Render(Query("select s, i, count(*) from k group by s, i")),
            "NULL|NULL|2;NULL|0|1;|NULL|1;|0|2;");
  EXPECT_EQ(Render(Query("select d, i, count(*) from k group by d, i")),
            "NULL|NULL|2;0|0|3;0|NULL|1;");
  EXPECT_EQ(Render(Query("select s, count(*) from k group by s")),
            "NULL|3;|3;");
}

TEST_F(GroupKeyTest, NegativeZeroJoinsPositiveZeroKeepingFirstSeenBits) {
  Insert(Value::Int(1), Value::Null(), Value::Null(), Value::Double(-0.0));
  Insert(Value::Int(1), Value::Null(), Value::Null(), Value::Double(0.0));
  Insert(Value::Int(2), Value::Null(), Value::Null(), Value::Double(0.0));
  Insert(Value::Int(2), Value::Null(), Value::Null(), Value::Double(-0.0));
  Insert(Value::Int(3), Value::Null(), Value::Null(), Value::Double(1.5));
  ResultSet rs = Query("select i, d, count(*) from k group by i, d");
  ASSERT_EQ(rs.num_rows(), 3u);
  EXPECT_TRUE(std::signbit(rs.rows[0][1].double_value()));   // -0.0 first
  EXPECT_FALSE(std::signbit(rs.rows[1][1].double_value()));  // +0.0 first
  EXPECT_EQ(rs.rows[0][2].int_value(), 2);
  EXPECT_EQ(rs.rows[1][2].int_value(), 2);
  rs = Query("select d, count(*) from k group by d");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_TRUE(std::signbit(rs.rows[0][0].double_value()));
  EXPECT_EQ(rs.rows[0][1].int_value(), 4);
}

TEST_F(GroupKeyTest, Int64KeysBeyondDoublePrecisionStayApart) {
  const int64_t two53 = int64_t{1} << 53;  // 2^53 + 1 has no double image
  Insert(Value::Int(two53), Value::Null());
  Insert(Value::Int(two53 + 1), Value::Null());
  Insert(Value::Int(two53), Value::Null());
  ResultSet rs = Query("select i, count(*) from k group by i");
  ASSERT_EQ(rs.num_rows(), 2u);
  EXPECT_EQ(rs.rows[0][0].int_value(), two53);
  EXPECT_EQ(rs.rows[0][1].int_value(), 2);
  EXPECT_EQ(rs.rows[1][0].int_value(), two53 + 1);
  EXPECT_EQ(rs.rows[1][1].int_value(), 1);
}

TEST_F(GroupKeyTest, DateAndBoolKeys) {
  auto day = ParseDate("1995-03-15");
  ASSERT_TRUE(day.ok());
  const Value kNull = Value::Null();
  Insert(kNull, kNull, kNull, kNull, Value::Date(*day), Value::Bool(true));
  Insert(kNull, kNull, kNull, kNull, Value::Date(*day + 1), Value::Bool(false));
  Insert(kNull, kNull, kNull, kNull, Value::Date(*day), kNull);
  Insert(kNull, kNull, kNull, kNull, kNull, Value::Bool(true));
  ResultSet rs = Query("select dt, count(*) from k group by dt");
  EXPECT_EQ(Render(rs), "1995-03-15|2;1995-03-16|1;NULL|1;");
  EXPECT_EQ(rs.rows[0][0].type(), DataType::kDate);
  rs = Query("select b, count(*) from k group by b");
  EXPECT_EQ(Render(rs), "true|2;false|1;NULL|1;");
  EXPECT_EQ(rs.rows[0][0].type(), DataType::kBool);
  EXPECT_EQ(Render(Query("select dt, b, count(*) from k group by dt, b")),
            "1995-03-15|true|1;1995-03-16|false|1;1995-03-15|NULL|1;"
            "NULL|true|1;");
}

TEST_F(GroupKeyTest, StringColumnsHoldingTheSameTexts) {
  // s and t intern in separate dictionaries; a self-join puts one
  // dictionary's strings in two key positions.
  Insert(Value::Int(1), Value::String("x"), Value::String("y"));
  Insert(Value::Int(2), Value::String("y"), Value::String("x"));
  Insert(Value::Int(3), Value::String("x"), Value::String("x"));
  Insert(Value::Int(4), Value::String("x"), Value::String("y"));
  EXPECT_EQ(Render(Query("select s, t, count(*) from k group by s, t")),
            "x|y|2;y|x|1;x|x|1;");
  EXPECT_EQ(Render(Query("select t, count(*) from k group by t")),
            "y|2;x|2;");
  EXPECT_EQ(Render(Query("select a.s, b.t, count(*) from k a, k b "
                         "where a.i = b.i group by a.s, b.t")),
            "x|y|2;y|x|1;x|x|1;");
  EXPECT_EQ(Render(Query("select a.s, b.s, count(*) from k a, k b "
                         "where a.s = b.t group by a.s, b.s")),
            "x|y|3;x|x|3;y|x|2;");
}

TEST_F(GroupKeyTest, LiteralStringAndComputedKeys) {
  Insert(Value::Int(1), Value::String("a"), Value::Null(), Value::Double(1.5));
  Insert(Value::Int(2), Value::String("b"), Value::Null(), Value::Double(0.75));
  Insert(Value::Int(3), Value::String("c"), Value::Null(), Value::Double(1.5));
  Insert(Value::Int(4), Value::String("d"), Value::Null(), Value::Null());
  EXPECT_EQ(Render(Query("select 'x', count(*) from k group by 'x'")),
            "x|4;");
  EXPECT_EQ(Render(Query("select k.d * 2, count(*) from k group by k.d * 2")),
            "3|2;1.5|1;NULL|1;");
  EXPECT_EQ(Render(Query("select i / 2, sum(i) from k group by i / 2")),
            "0.5|1;1|2;1.5|3;2|4;");
  EXPECT_EQ(Render(Query("select i - i, 'y', count(*) from k "
                         "group by i - i, 'y'")),
            "0|y|4;");
}

TEST_F(GroupKeyTest, AggregatesOverNullsAndStrings) {
  const Value kNull = Value::Null();
  Insert(Value::Int(1), Value::String("pear"), kNull, Value::Double(2.0));
  Insert(Value::Int(1), Value::String("apple"), kNull, kNull);
  Insert(Value::Int(1), kNull, kNull, Value::Double(4.0));
  Insert(Value::Int(2), kNull, kNull, kNull);
  Insert(Value::Int(2), Value::String("fig"), kNull, kNull);
  ResultSet rs = Query(
      "select i, min(s), max(s), avg(d), count(d), count(s), count(*), "
      "sum(d), sum(i) from k group by i");
  EXPECT_EQ(Render(rs),
            "1|apple|pear|3|2|2|3|6|3;2|fig|fig|NULL|0|1|2|NULL|4;");
  EXPECT_EQ(rs.rows[0][1].type(), DataType::kString);
  EXPECT_FALSE(rs.rows[0][1].is_interned());  // decoded at the boundary
}

TEST_F(GroupKeyTest, EmptyInputWithAndWithoutGroupBy) {
  ResultSet rs = Query("select count(*), sum(i), min(s), avg(d) from k");
  EXPECT_EQ(Render(rs), "0|NULL|NULL|NULL;");
  // The binder admits a column beside an aggregate; with no row to read
  // it is NULL.
  EXPECT_EQ(Render(Query("select i + count(*), count(*) from k")),
            "NULL|0;");
  EXPECT_EQ(Query("select s, count(*) from k group by s").num_rows(), 0u);
  Insert(Value::Int(1), Value::String("a"));
  EXPECT_EQ(Render(Query("select count(*), sum(i) from k where i > 1")),
            "0|NULL;");
  EXPECT_EQ(Query("select s, sum(i) from k where i > 1 group by s")
                .num_rows(),
            0u);
}

TEST_F(GroupKeyTest, IntegerOverflowIsOutOfRange) {
  const int64_t max = std::numeric_limits<int64_t>::max();
  Insert(Value::Int(max), Value::String("a"));
  Insert(Value::Int(1), Value::String("a"));
  auto sum = db_.Query("select sum(i) from k");
  ASSERT_FALSE(sum.ok());
  EXPECT_EQ(sum.status().code(), StatusCode::kOutOfRange)
      << sum.status().ToString();
  auto grouped = db_.Query("select s, sum(i) from k group by s");
  ASSERT_FALSE(grouped.ok());
  EXPECT_EQ(grouped.status().code(), StatusCode::kOutOfRange);
  auto product = db_.Query("select i * 4 from k where i > 1");
  ASSERT_FALSE(product.ok());
  EXPECT_EQ(product.status().code(), StatusCode::kOutOfRange)
      << product.status().ToString();
  // Sums that fit are unaffected.
  EXPECT_EQ(Render(Query("select sum(i) from k where i < 2")), "1;");
}

}  // namespace
}  // namespace conquer
