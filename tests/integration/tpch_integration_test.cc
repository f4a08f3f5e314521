// End-to-end integration tests: the thirteen paper queries over the
// generated dirty TPC-H database (paper Section 5.3 setup).

#include <gtest/gtest.h>

#include <set>
#include <string>

#include "core/clean_engine.h"
#include "gen/tpch_dirty.h"
#include "gen/tpch_queries.h"

namespace conquer {
namespace {

class TpchIntegrationTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    TpchDirtyConfig config;
    config.scale_factor = 0.002;  // ~300 customers, ~3000 orders
    config.inconsistency_factor = 3;
    config.seed = 11;
    auto gen = MakeTpchDirtyDatabase(config);
    ASSERT_TRUE(gen.ok()) << gen.status().ToString();
    dirty_db_ = new TpchDirtyDatabase(std::move(gen).value());
    ASSERT_TRUE(dirty_db_->BuildIndexesAndStats().ok());

    config.inconsistency_factor = 1;  // completely clean database
    auto clean = MakeTpchDirtyDatabase(config);
    ASSERT_TRUE(clean.ok());
    clean_db_ = new TpchDirtyDatabase(std::move(clean).value());
    ASSERT_TRUE(clean_db_->BuildIndexesAndStats().ok());
  }
  static void TearDownTestSuite() {
    delete dirty_db_;
    delete clean_db_;
    dirty_db_ = clean_db_ = nullptr;
  }

  static TpchDirtyDatabase* dirty_db_;
  static TpchDirtyDatabase* clean_db_;
};

TpchDirtyDatabase* TpchIntegrationTest::dirty_db_ = nullptr;
TpchDirtyDatabase* TpchIntegrationTest::clean_db_ = nullptr;

class TpchQueryTest : public TpchIntegrationTest,
                      public ::testing::WithParamInterface<int> {};

// Dfn 7: every paper query is in the rewritable class.
TEST_P(TpchQueryTest, IsRewritable) {
  const TpchQuery* q = FindTpchQuery(GetParam());
  ASSERT_NE(q, nullptr);
  CleanAnswerEngine engine(dirty_db_->db.get(), &dirty_db_->dirty);
  auto check = engine.Check(q->sql);
  ASSERT_TRUE(check.ok()) << check.status().ToString();
  EXPECT_TRUE(check->rewritable) << "Q" << q->number << ": " << check->reason;
}

// The rewritten query runs and produces probabilities in (0, 1].
TEST_P(TpchQueryTest, RewrittenQueryExecutes) {
  const TpchQuery* q = FindTpchQuery(GetParam());
  ASSERT_NE(q, nullptr);
  CleanAnswerEngine engine(dirty_db_->db.get(), &dirty_db_->dirty);
  auto answers = engine.Query(q->sql);
  ASSERT_TRUE(answers.ok()) << "Q" << q->number << ": "
                            << answers.status().ToString();
  for (const CleanAnswer& a : answers->answers) {
    ASSERT_GT(a.probability, 0.0) << "Q" << q->number;
    ASSERT_LE(a.probability, 1.0 + 1e-9) << "Q" << q->number;
  }
}

// The rewriting only regroups the join result: the set of answer tuples
// equals the distinct result of the original query on the dirty database.
TEST_P(TpchQueryTest, AnswerTuplesMatchOriginalDistinct) {
  const TpchQuery* q = FindTpchQuery(GetParam());
  ASSERT_NE(q, nullptr);
  CleanAnswerEngine engine(dirty_db_->db.get(), &dirty_db_->dirty);
  auto answers = engine.Query(q->sql);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  auto original = dirty_db_->db->Query(q->sql);
  ASSERT_TRUE(original.ok()) << original.status().ToString();

  auto row_key = [](const Row& row) {
    std::string key;
    for (const Value& v : row) {
      key += v.ToString();
      key += '\x1f';
    }
    return key;
  };
  std::set<std::string> original_rows;
  for (const Row& row : original->rows) original_rows.insert(row_key(row));
  std::set<std::string> answer_rows;
  for (const CleanAnswer& a : answers->answers) {
    answer_rows.insert(row_key(a.row));
  }
  EXPECT_EQ(answer_rows, original_rows) << "Q" << q->number;
}

// On a completely clean database (if = 1) every clean answer is certain.
TEST_P(TpchQueryTest, CleanDatabaseYieldsCertainAnswers) {
  const TpchQuery* q = FindTpchQuery(GetParam());
  ASSERT_NE(q, nullptr);
  CleanAnswerEngine engine(clean_db_->db.get(), &clean_db_->dirty);
  auto answers = engine.Query(q->sql);
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  for (const CleanAnswer& a : answers->answers) {
    ASSERT_NEAR(a.probability, 1.0, 1e-9) << "Q" << q->number;
  }
}

INSTANTIATE_TEST_SUITE_P(PaperQueries, TpchQueryTest,
                         ::testing::Values(1, 2, 3, 4, 6, 9, 10, 11, 12, 14,
                                           17, 18, 20),
                         [](const ::testing::TestParamInfo<int>& info) {
                           return "Q" + std::to_string(info.param);
                         });

// UIS semantics: sweeping if trades entities for duplicates at roughly
// constant total size — the dirty and clean databases are comparable in
// rows, but only the dirty one has multi-tuple clusters.
TEST_F(TpchIntegrationTest, IfSweepKeepsTotalSizeComparable) {
  double ratio = static_cast<double>(dirty_db_->TotalRows()) /
                 static_cast<double>(clean_db_->TotalRows());
  EXPECT_GT(ratio, 0.5);
  EXPECT_LT(ratio, 2.0);
  auto customer = dirty_db_->db->GetTable("customer");
  ASSERT_TRUE(customer.ok());
  std::set<std::string> ids;
  for (size_t i = 0; i < (*customer)->num_rows(); ++i) {
    ids.insert((*customer)->ValueAt(i, 0).string_value());
  }
  EXPECT_LT(ids.size(), (*customer)->num_rows());  // real duplication
}

TEST_F(TpchIntegrationTest, Query3WithAndWithoutOrderBySameAnswers) {
  CleanAnswerEngine engine(dirty_db_->db.get(), &dirty_db_->dirty);
  auto with = engine.Query(TpchQuery3(true));
  auto without = engine.Query(TpchQuery3(false));
  ASSERT_TRUE(with.ok() && without.ok());
  EXPECT_EQ(with->answers.size(), without->answers.size());
}

TEST_F(TpchIntegrationTest, OfflineCleaningLosesAnswers) {
  // On the dirty database, offline cleaning (max-prob tuple per cluster)
  // generally returns a subset of the entities the clean-answer semantics
  // surfaces (it may also add tuples whose kept duplicate satisfies the
  // query while others do not; we check the typical loss direction with the
  // high-recall clean-answer count).
  CleanAnswerEngine engine(dirty_db_->db.get(), &dirty_db_->dirty);
  OfflineCleaningBaseline baseline(dirty_db_->db.get(), &dirty_db_->dirty);
  const TpchQuery* q = FindTpchQuery(6);
  auto clean_answers = engine.Query(q->sql);
  auto offline = baseline.Query(q->sql);
  ASSERT_TRUE(clean_answers.ok() && offline.ok());
  EXPECT_GT(clean_answers->answers.size(), offline->num_rows());
}

}  // namespace
}  // namespace conquer
