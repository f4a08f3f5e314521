// Unit tests for the serving layer: QueryService, Session, plan cache,
// prepared statements and the admission gate.

#include "engine/service.h"

#include <gtest/gtest.h>

#include "engine/plan_cache.h"
#include "sql/parser.h"
#include "tests/engine/explain_text.h"
#include "types/value.h"

namespace conquer {
namespace {

class ServiceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema t("t", {{"id", DataType::kInt64},
                        {"name", DataType::kString},
                        {"amount", DataType::kDouble},
                        {"d", DataType::kDate}});
    ASSERT_TRUE(db_.CreateTable(t).ok());
    auto days = ParseDate("2024-06-01");
    ASSERT_TRUE(days.ok());
    const Value date = Value::Date(*days);
    ASSERT_TRUE(db_.InsertMany(
                       "t",
                       {
                           {Value::Int(1), Value::String("a"),
                            Value::Double(1.5), date},
                           {Value::Int(2), Value::String("b"),
                            Value::Double(2.5), date},
                           {Value::Int(3), Value::String("b"),
                            Value::Double(3.5), date},
                       })
                    .ok());
  }

  Database db_;
};

TEST_F(ServiceTest, RepeatedQueryHitsPlanCache) {
  QueryService service(&db_);
  ExecInfo info;
  auto rs1 = service.ExecuteSql("select id from t where name = 'b'", nullptr,
                                &info);
  ASSERT_TRUE(rs1.ok()) << rs1.status().ToString();
  EXPECT_FALSE(info.cache_hit);
  EXPECT_EQ(rs1->rows.size(), 2u);

  info = ExecInfo{};
  // Different whitespace and keyword case: same normalized key.
  auto rs2 = service.ExecuteSql("SELECT id  FROM t WHERE name='b'", nullptr,
                                &info);
  ASSERT_TRUE(rs2.ok());
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(rs2->rows.size(), 2u);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.plan_cache.hits, 1u);
  EXPECT_EQ(stats.plan_cache.misses, 1u);
  EXPECT_EQ(stats.queries_executed, 2u);
  EXPECT_EQ(stats.query_errors, 0u);
}

TEST_F(ServiceTest, DdlInvalidatesCachedPlans) {
  QueryService service(&db_);
  ExecInfo info;
  ASSERT_TRUE(service.ExecuteSql("select id from t", nullptr, &info).ok());
  EXPECT_FALSE(info.cache_hit);

  TableSchema u("u", {{"x", DataType::kInt64}});
  ASSERT_TRUE(db_.CreateTable(u).ok());

  info = ExecInfo{};
  ASSERT_TRUE(service.ExecuteSql("select id from t", nullptr, &info).ok());
  EXPECT_FALSE(info.cache_hit) << "epoch bump must invalidate the entry";
  EXPECT_EQ(service.stats().plan_cache.invalidated, 1u);

  // Stable catalog again: back to hitting.
  info = ExecInfo{};
  ASSERT_TRUE(service.ExecuteSql("select id from t", nullptr, &info).ok());
  EXPECT_TRUE(info.cache_hit);
}

TEST_F(ServiceTest, AnalyzeInvalidatesCachedPlans) {
  QueryService service(&db_);
  ASSERT_TRUE(service.ExecuteSql("select id from t").ok());
  ASSERT_TRUE(db_.Analyze("t").ok());
  ExecInfo info;
  ASSERT_TRUE(service.ExecuteSql("select id from t", nullptr, &info).ok());
  EXPECT_FALSE(info.cache_hit);
}

TEST_F(ServiceTest, CreateIndexInvalidatesCachedPlans) {
  QueryService service(&db_);
  ExecInfo info;
  ASSERT_TRUE(
      service.ExecuteSql("select id from t where id = 2", nullptr, &info)
          .ok());
  EXPECT_FALSE(info.cache_hit);
  info = ExecInfo{};
  ASSERT_TRUE(
      service.ExecuteSql("select id from t where id = 2", nullptr, &info)
          .ok());
  EXPECT_TRUE(info.cache_hit);

  ASSERT_TRUE(db_.CreateIndex("t", "id").ok());

  // A new index changes the chosen access path; serving the stale cached
  // entry would silently keep the pre-index plan.
  info = ExecInfo{};
  auto rs = service.ExecuteSql("select id from t where id = 2", nullptr,
                               &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(info.cache_hit) << "CREATE INDEX must bump the catalog epoch";
  ASSERT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(rs->rows[0][0].int_value(), 2);

  // And the replanned query must actually take the index.
  auto plan = ExplainText(db_, "explain select id from t where id = 2");
  ASSERT_TRUE(plan.ok());
  EXPECT_NE(plan->find("IndexScan"), std::string::npos) << *plan;
}

TEST_F(ServiceTest, ExplainBypassesTheCache) {
  QueryService service(&db_);
  auto rs = service.ExecuteSql("explain select id from t");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_FALSE(rs->rows.empty());
  EXPECT_EQ(service.stats().plan_cache.misses, 0u);
  EXPECT_EQ(service.stats().plan_cache.entries, 0u);
}

TEST_F(ServiceTest, WritesRouteExclusivelyRegardlessOfCase) {
  QueryService service(&db_);
  // The write words are soft keywords now, so normalization keeps their
  // original spelling; routing must detect the write prefix
  // case-insensitively or lowercase writes would be misrouted to the
  // shared read path (which rejects them).
  auto ins = service.ExecuteSql("insert into t values (4, 'c', 4.5, null)");
  ASSERT_TRUE(ins.ok()) << ins.status().ToString();
  EXPECT_EQ(ins->rows[0][0].int_value(), 1);
  auto upd = service.ExecuteSql("UpDaTe t set name = 'z' where id = 4");
  ASSERT_TRUE(upd.ok()) << upd.status().ToString();
  auto rs = service.ExecuteSql("select count(*) from t where name = 'z'");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows[0][0].int_value(), 1);
  // Writes still cannot be prepared, whatever their case.
  auto session = service.CreateSession();
  EXPECT_FALSE(session->Prepare("w", "delete from t where id = 4").ok());
}

TEST_F(ServiceTest, ErrorsAreCountedAndReported) {
  QueryService service(&db_);
  EXPECT_FALSE(service.ExecuteSql("select nope from t").ok());
  EXPECT_FALSE(service.ExecuteSql("not even sql #").ok());
  EXPECT_EQ(service.stats().query_errors, 2u);
}

TEST_F(ServiceTest, PreparedStatementBindsParams) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  ASSERT_TRUE(
      session->Prepare("q", "select id from t where amount > ? and name = ?")
          .ok());
  EXPECT_EQ(session->GetPrepared("q")->num_params, 2);

  auto rs = session->ExecutePrepared(
      "q", {Value::Double(2.0), Value::String("b")});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);

  // Same template, different values; second execution hits the cache.
  ExecInfo info;
  rs = session->ExecutePrepared("q", {Value::Double(3.0), Value::String("b")},
                                nullptr, &info);
  ASSERT_TRUE(rs.ok());
  EXPECT_TRUE(info.cache_hit);
  EXPECT_EQ(rs->rows.size(), 1u);
}

TEST_F(ServiceTest, ParamCoercions) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  // Int widens to the double the binder inferred.
  ASSERT_TRUE(session->Prepare("wide", "select id from t where amount > ?")
                  .ok());
  auto rs = session->ExecutePrepared("wide", {Value::Int(2)});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 2u);

  // A string binds to a DATE parameter by parsing.
  ASSERT_TRUE(session->Prepare("day", "select id from t where d = ?").ok());
  rs = session->ExecutePrepared("day", {Value::String("2024-06-01")});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 3u);

  // NULL binds anywhere (and matches nothing under SQL comparison).
  rs = session->ExecutePrepared("wide", {Value::Null()});
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->rows.size(), 0u);

  // Type mismatch is a TypeError, not a crash.
  EXPECT_FALSE(session->ExecutePrepared("wide", {Value::String("x")}).ok());
}

TEST_F(ServiceTest, PreparedStatementArityChecked) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  ASSERT_TRUE(session->Prepare("q", "select id from t where id = ?").ok());
  EXPECT_FALSE(session->ExecutePrepared("q", {}).ok());
  EXPECT_FALSE(
      session->ExecutePrepared("q", {Value::Int(1), Value::Int(2)}).ok());
}

TEST_F(ServiceTest, BothSidesPlaceholderIsATypeError) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  EXPECT_FALSE(session->Prepare("q", "select id from t where ? = ?").ok());
}

TEST_F(ServiceTest, PreparedSurvivesDdlViaReprepare) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  ASSERT_TRUE(session->Prepare("q", "select id from t where id = ?").ok());
  ASSERT_TRUE(session->ExecutePrepared("q", {Value::Int(1)}).ok());

  // Invalidate the cached template, then execute again: the session
  // re-binds transparently from the stored text.
  ASSERT_TRUE(db_.Analyze("t").ok());
  ExecInfo info;
  auto rs = session->ExecutePrepared("q", {Value::Int(2)}, nullptr, &info);
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_FALSE(info.cache_hit);
  EXPECT_TRUE(info.reprepared);
  EXPECT_EQ(rs->rows.size(), 1u);
  EXPECT_EQ(service.stats().reprepares, 1u);
}

TEST_F(ServiceTest, SessionBookkeeping) {
  QueryService service(&db_);
  auto s1 = service.CreateSession("alice");
  auto s2 = service.CreateSession();
  EXPECT_NE(s1->id(), s2->id());
  EXPECT_EQ(s1->name(), "alice");

  ASSERT_TRUE(s1->Prepare("q", "select id from t").ok());
  EXPECT_EQ(s1->PreparedNames().size(), 1u);
  // Prepared statements are per-session state.
  EXPECT_EQ(s2->GetPrepared("q"), nullptr);
  EXPECT_FALSE(s2->ExecutePrepared("q", {}).ok());

  ASSERT_TRUE(s1->DeallocatePrepared("q").ok());
  EXPECT_FALSE(s1->DeallocatePrepared("q").ok());
  EXPECT_EQ(service.stats().sessions_created, 2u);
}

// A read slot admits its own database only: a plan bound here cannot run
// under a slot taken on some other database's gate.
TEST_F(ServiceTest, ExecuteBoundRejectsAnotherDatabasesSlot) {
  auto stmt = Parser::Parse("select id from t");
  ASSERT_TRUE(stmt.ok());
  Binder binder(&db_.catalog());
  auto bound = binder.Bind(std::move(stmt).value());
  ASSERT_TRUE(bound.ok());
  Database other;
  const Database::ReadSlot foreign = other.AdmitRead();
  auto rs = db_.ExecuteBound(foreign, std::move(bound).value());
  ASSERT_FALSE(rs.ok());
  EXPECT_EQ(rs.status().code(), StatusCode::kInvalidArgument);
}

TEST_F(ServiceTest, UnboundParamsRejectedByDatabase) {
  auto rs = db_.Query("select id from t where id = ?");
  ASSERT_FALSE(rs.ok());
  EXPECT_NE(rs.status().ToString().find("prepare"), std::string::npos);
}

TEST_F(ServiceTest, CannotPrepareExplain) {
  QueryService service(&db_);
  auto session = service.CreateSession();
  EXPECT_FALSE(session->Prepare("q", "explain select id from t").ok());
}

TEST(PlanCacheTest, LruEvictionAndStats) {
  PlanCache cache(2);
  BoundQuery a, b, c;
  a.total_slots = 1;
  b.total_slots = 2;
  c.total_slots = 3;
  cache.Insert("a", 0, std::move(a));
  cache.Insert("b", 0, std::move(b));
  EXPECT_TRUE(cache.Lookup("a", 0).has_value());  // a is now MRU
  cache.Insert("c", 0, std::move(c));             // evicts b (LRU)
  EXPECT_FALSE(cache.Lookup("b", 0).has_value());
  ASSERT_TRUE(cache.Lookup("a", 0).has_value());
  EXPECT_EQ(cache.Lookup("c", 0)->total_slots, 3u);

  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.evicted, 1u);
  EXPECT_EQ(stats.entries, 2u);
  EXPECT_EQ(stats.hits, 3u);
  EXPECT_EQ(stats.misses, 1u);
}

TEST(PlanCacheTest, EpochMismatchInvalidates) {
  PlanCache cache(4);
  cache.Insert("k", 1, BoundQuery{});
  EXPECT_FALSE(cache.Lookup("k", 2).has_value());
  const PlanCacheStats stats = cache.stats();
  EXPECT_EQ(stats.invalidated, 1u);
  EXPECT_EQ(stats.entries, 0u);
}

TEST(PlanCacheTest, LookupReturnsAnIndependentClone) {
  PlanCache cache(4);
  BoundQuery master;
  master.stmt = std::make_unique<SelectStatement>();
  master.stmt->limit = 7;
  cache.Insert("k", 0, std::move(master));
  auto first = cache.Lookup("k", 0);
  ASSERT_TRUE(first.has_value());
  first->stmt->limit = 99;  // mutating the clone must not touch the master
  auto second = cache.Lookup("k", 0);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->stmt->limit, 7);
}

}  // namespace
}  // namespace conquer
