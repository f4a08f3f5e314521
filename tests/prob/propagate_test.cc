// Tests of identifier propagation (paper Section 2.1 / Section 5.3).

#include "prob/propagate.h"

#include <gtest/gtest.h>

namespace conquer {
namespace {

class PropagateTest : public ::testing::Test {
 protected:
  void SetUp() override {
    // Dirty customer table: record keys k1..k4, two clusters c1, c2.
    TableSchema customer("customer", {{"id", DataType::kString},
                                      {"custkey", DataType::kInt64},
                                      {"name", DataType::kString},
                                      {"prob", DataType::kDouble}});
    ASSERT_TRUE(db_.CreateTable(customer).ok());
    auto cust = [&](const char* id, int64_t key, const char* name) {
      ASSERT_TRUE(db_.Insert("customer",
                             {Value::String(id), Value::Int(key),
                              Value::String(name), Value::Double(0.5)})
                      .ok());
    };
    cust("c1", 101, "John");
    cust("c1", 102, "Jon");
    cust("c2", 201, "Mary");
    cust("c2", 202, "Marion");

    // Orders reference record keys; cid target column starts NULL.
    TableSchema orders("orders", {{"id", DataType::kString},
                                  {"custfk", DataType::kInt64},
                                  {"cidfk", DataType::kString},
                                  {"prob", DataType::kDouble}});
    ASSERT_TRUE(db_.CreateTable(orders).ok());
    auto ord = [&](const char* id, int64_t fk) {
      ASSERT_TRUE(db_.Insert("orders", {Value::String(id), Value::Int(fk),
                                        Value::Null(), Value::Double(1.0)})
                      .ok());
    };
    ord("o1", 101);
    ord("o2", 102);
    ord("o3", 202);
    ord("o4", 999);  // dangling

    ASSERT_TRUE(dirty_.AddTable({"customer", "id", "prob", {}}).ok());
    ASSERT_TRUE(
        dirty_.AddTable({"orders", "id", "prob", {{"cidfk", "customer"}}})
            .ok());
  }

  Database db_;
  DirtySchema dirty_;
};

TEST_F(PropagateTest, RewritesForeignKeysToClusterIdentifiers) {
  auto stats = PropagateIdentifiers(
      &db_, dirty_,
      {{"orders", "custfk", "cidfk", "customer", "custkey"}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 3u);
  EXPECT_EQ(stats->dangling_references, 1u);

  auto orders = db_.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ((*orders)->row(0)[2].string_value(), "c1");
  EXPECT_EQ((*orders)->row(1)[2].string_value(), "c1");
  EXPECT_EQ((*orders)->row(2)[2].string_value(), "c2");
  EXPECT_TRUE((*orders)->row(3)[2].is_null());
}

TEST_F(PropagateTest, PropagatedJoinsFindAllDuplicates) {
  ASSERT_TRUE(PropagateIdentifiers(
                  &db_, dirty_,
                  {{"orders", "custfk", "cidfk", "customer", "custkey"}})
                  .ok());
  // Joining on the propagated identifier reaches every duplicate of the
  // referenced entity; joining on the record key reaches only one.
  auto by_id = db_.Query(
      "select o.id, c.name from orders o, customer c where o.cidfk = c.id");
  ASSERT_TRUE(by_id.ok());
  EXPECT_EQ(by_id->num_rows(), 6u);  // o1,o2 x {John,Jon}; o3 x {Mary,Marion}
  auto by_key = db_.Query(
      "select o.id, c.name from orders o, customer c "
      "where o.custfk = c.custkey");
  ASSERT_TRUE(by_key.ok());
  EXPECT_EQ(by_key->num_rows(), 3u);
}

TEST_F(PropagateTest, UpdatedRecordResolvesToItsCurrentIdentifier) {
  // The UPDATE stamps customer 101's old version (cluster c1) dead and
  // appends its new image under c2; only the visible version may resolve.
  ASSERT_TRUE(
      db_.ExecuteWrite("update customer set id = 'c2' where custkey = 101")
          .ok());
  auto stats = PropagateIdentifiers(
      &db_, dirty_,
      {{"orders", "custfk", "cidfk", "customer", "custkey"}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  auto orders = db_.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_EQ((*orders)->ValueAt(0, 2).ToString(), "c2");
  EXPECT_EQ((*orders)->ValueAt(1, 2).ToString(), "c1");
}

TEST_F(PropagateTest, DeletedRecordCountsAsDangling) {
  ASSERT_TRUE(
      db_.ExecuteWrite("delete from customer where custkey = 202").ok());
  // A dead order version is not written: o2's old image keeps its NULL.
  ASSERT_TRUE(
      db_.ExecuteWrite("update orders set prob = 0.5 where id = 'o2'").ok());
  auto stats = PropagateIdentifiers(
      &db_, dirty_,
      {{"orders", "custfk", "cidfk", "customer", "custkey"}});
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_EQ(stats->rows_updated, 2u);         // o1 and o2's new version
  EXPECT_EQ(stats->dangling_references, 2u);  // o3 (deleted) and o4
  auto orders = db_.GetTable("orders");
  ASSERT_TRUE(orders.ok());
  EXPECT_TRUE((*orders)->ValueAt(2, 2).is_null());
  EXPECT_TRUE((*orders)->ValueAt(1, 2).is_null());  // superseded version
  EXPECT_EQ((*orders)->ValueAt(4, 2).ToString(), "c1");
}

TEST_F(PropagateTest, UnknownColumnsAreReported) {
  auto stats = PropagateIdentifiers(
      &db_, dirty_, {{"orders", "nosuch", "cidfk", "customer", "custkey"}});
  EXPECT_FALSE(stats.ok());
  EXPECT_EQ(stats.status().code(), StatusCode::kNotFound);
}

TEST_F(PropagateTest, EmptySpecListIsNoOp) {
  auto stats = PropagateIdentifiers(&db_, dirty_, {});
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->rows_updated, 0u);
}

}  // namespace
}  // namespace conquer
