// Edge-case tests for the candidate-enumeration oracle and the
// CleanAnswerSet utilities.

#include "core/naive_eval.h"

#include <gtest/gtest.h>

#include <limits>

#include "core/clean_engine.h"
#include "tests/core/paper_fixtures.h"

namespace conquer {
namespace {

class NaiveEvalTest : public ::testing::Test {
 protected:
  void SetUp() override { LoadFigure2(&db_, &dirty_); }
  Database db_;
  DirtySchema dirty_;
};

TEST_F(NaiveEvalTest, EmptyTableYieldsNoAnswers) {
  Database db;
  DirtySchema dirty;
  ASSERT_TRUE(db.CreateTable(TableSchema("e", {{"id", DataType::kString},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(dirty.AddTable({"e", "id", "prob", {}}).ok());
  NaiveCandidateEvaluator naive(&db, &dirty);
  auto answers = naive.Evaluate("select id from e");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  EXPECT_TRUE(answers->answers.empty());
  auto count = naive.CountCandidates("select id from e");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);  // the single empty candidate
}

TEST_F(NaiveEvalTest, ZeroProbabilityTuplesContributeNothing) {
  Database db;
  DirtySchema dirty;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"id", DataType::kString},
                                               {"x", DataType::kInt64},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(db.Insert("t", {Value::String("a"), Value::Int(1),
                              Value::Double(1.0)})
                  .ok());
  ASSERT_TRUE(db.Insert("t", {Value::String("a"), Value::Int(2),
                              Value::Double(0.0)})
                  .ok());
  ASSERT_TRUE(dirty.AddTable({"t", "id", "prob", {}}).ok());
  NaiveCandidateEvaluator naive(&db, &dirty);
  auto answers = naive.Evaluate("select id, x from t");
  ASSERT_TRUE(answers.ok());
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("a"), Value::Int(1)}),
              1.0, 1e-12);
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("a"), Value::Int(2)}),
              0.0, 1e-12);
}

TEST_F(NaiveEvalTest, CandidatesComeFromCommittedRows) {
  Database db;
  DirtySchema dirty;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"id", DataType::kString},
                                               {"x", DataType::kInt64},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  for (int x = 1; x <= 2; ++x) {
    ASSERT_TRUE(db.Insert("t", {Value::String("a"), Value::Int(x),
                                Value::Double(0.5)})
                    .ok());
  }
  ASSERT_TRUE(dirty.AddTable({"t", "id", "prob", {}}).ok());
  // The deleted version is part of no candidate database; the updated one
  // is replaced by its new image.
  ASSERT_TRUE(db.ExecuteWrite("delete from t where x = 2").ok());
  ASSERT_TRUE(db.ExecuteWrite("update t set prob = 1.0 where x = 1").ok());
  NaiveCandidateEvaluator naive(&db, &dirty);
  auto count = naive.CountCandidates("select id, x from t");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 1u);
  auto answers = naive.Evaluate("select id, x from t");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->ProbabilityOf({Value::String("a"), Value::Int(1)}), 1.0);
}

TEST_F(NaiveEvalTest, NullProbabilityReadsAsZeroInBothEvaluators) {
  // An INSERT with no maintenance hook leaves its tuple's probability NULL.
  // The rewriting's SUM over it is NULL, which reads as probability 0 (the
  // tuple contributes nothing, as SUM skips it), and the oracle agrees.
  Database db;
  DirtySchema dirty;
  ASSERT_TRUE(db.CreateTable(TableSchema("t", {{"id", DataType::kString},
                                               {"x", DataType::kInt64},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(dirty.AddTable({"t", "id", "prob", {}}).ok());
  ASSERT_TRUE(db.ExecuteWrite("insert into t values ('c1', 2, NULL)").ok());

  CleanAnswerEngine engine(&db, &dirty);
  auto clean = engine.Query("select id, x from t");
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  ASSERT_EQ(clean->answers.size(), 1u);
  EXPECT_EQ(clean->answers[0].row[0].string_value(), "c1");
  EXPECT_EQ(clean->answers[0].probability, 0.0);

  NaiveCandidateEvaluator naive(&db, &dirty);
  auto oracle = naive.Evaluate("select id, x from t");
  ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();
  ASSERT_EQ(oracle->answers.size(), 1u);
  EXPECT_EQ(oracle->ProbabilityOf(clean->answers[0].row), 0.0);

  // The offline baseline keeps the tuple as its cluster's only row.
  OfflineCleaningBaseline offline(&db, &dirty);
  auto cleaned = offline.Query("select id, x from t");
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  EXPECT_EQ(cleaned->num_rows(), 1u);
}

TEST_F(NaiveEvalTest, OrderByAndLimitAreIgnoredForSemantics) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto plain = naive.Evaluate("select id from customer c");
  auto ordered = naive.Evaluate(
      "select id from customer c order by balance desc limit 1");
  ASSERT_TRUE(plain.ok() && ordered.ok());
  EXPECT_EQ(plain->answers.size(), ordered->answers.size());
}

TEST_F(NaiveEvalTest, SetSemanticsCollapseDuplicateAnswerRows) {
  // Projecting only the name yields "John" once per candidate even though
  // both c1 duplicates are named John.
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate("select name from customer c");
  ASSERT_TRUE(answers.ok());
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("John")}), 1.0, 1e-12);
}

TEST_F(NaiveEvalTest, TableListedTwiceInFromCountsOnce) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto count = naive.CountCandidates(
      "select a.id from customer a, customer b where a.id = b.id");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 4u);  // customer's clusters enumerate once: 2 x 2
}

TEST_F(NaiveEvalTest, UnregisteredTableIsReported) {
  ASSERT_TRUE(
      db_.CreateTable(TableSchema("plain", {{"x", DataType::kInt64}})).ok());
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate("select x from plain p");
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kNotFound);
}

TEST_F(NaiveEvalTest, CandidateProbabilitiesHonorCap) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto probs = naive.CandidateProbabilities({"orders", "customer"}, 4);
  EXPECT_FALSE(probs.ok());
  EXPECT_EQ(probs.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NaiveEvalTest, EvaluateHonorsCap) {
  // customer has two clusters of two duplicates each (4 candidates), so a
  // cap of 3 must be a hard error, never a silent truncation.
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate("select id from customer c",
                                /*max_candidates=*/3);
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

// A table with 64 clusters of two duplicates induces 2^64 candidates —
// enough to wrap the uint64_t running product back to zero. Every capped
// entry point must report ResourceExhausted instead of wrapping (a wrapped
// product of 0 would sail under any cap and start enumerating).
class NaiveEvalOverflowTest : public ::testing::Test {
 protected:
  void SetUp() override {
    ASSERT_TRUE(
        db_.CreateTable(TableSchema("big", {{"id", DataType::kString},
                                            {"prob", DataType::kDouble}}))
            .ok());
    ASSERT_TRUE(dirty_.AddTable({"big", "id", "prob", {}}).ok());
    for (int e = 0; e < 64; ++e) {
      for (int j = 0; j < 2; ++j) {
        ASSERT_TRUE(db_.Insert("big", {Value::String("e" + std::to_string(e)),
                                       Value::Double(0.5)})
                        .ok());
      }
    }
  }
  Database db_;
  DirtySchema dirty_;
};

TEST_F(NaiveEvalOverflowTest, CountCandidatesReportsOverflow) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto count = naive.CountCandidates("select id from big");
  ASSERT_FALSE(count.ok());
  EXPECT_EQ(count.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NaiveEvalOverflowTest, EvaluateCapSurvivesProductOverflow) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate(
      "select id from big", std::numeric_limits<uint64_t>::max());
  ASSERT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

TEST_F(NaiveEvalOverflowTest, CandidateProbabilitiesCapSurvivesOverflow) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto probs = naive.CandidateProbabilities(
      {"big"}, std::numeric_limits<uint64_t>::max());
  ASSERT_FALSE(probs.ok());
  EXPECT_EQ(probs.status().code(), StatusCode::kResourceExhausted);
}

TEST(CleanAnswerSetTest, ToStringIncludesProbabilityColumn) {
  CleanAnswerSet set;
  set.column_names = {"id"};
  set.answers.push_back({{Value::String("a")}, 0.25});
  std::string text = set.ToString();
  EXPECT_NE(text.find("probability"), std::string::npos);
  EXPECT_NE(text.find("0.25"), std::string::npos);
}

TEST(CleanAnswerSetTest, ProbabilityOfMissingRowIsZero) {
  CleanAnswerSet set;
  set.column_names = {"id"};
  set.answers.push_back({{Value::String("a")}, 0.5});
  EXPECT_EQ(set.ProbabilityOf({Value::String("b")}), 0.0);
  EXPECT_EQ(set.ProbabilityOf({Value::String("a"), Value::Int(1)}), 0.0);
}

TEST(CleanAnswerSetTest, SortIsStableOnTies) {
  CleanAnswerSet set;
  set.column_names = {"id"};
  set.answers.push_back({{Value::String("first")}, 0.5});
  set.answers.push_back({{Value::String("second")}, 0.5});
  set.answers.push_back({{Value::String("top")}, 0.9});
  set.SortByProbabilityDesc();
  EXPECT_EQ(set.answers[0].row[0].string_value(), "top");
  EXPECT_EQ(set.answers[1].row[0].string_value(), "first");
  EXPECT_EQ(set.answers[2].row[0].string_value(), "second");
}

TEST(CleanAnswerSetTest, ConsistentAnswersUseEpsilon) {
  CleanAnswerSet set;
  set.column_names = {"id"};
  set.answers.push_back({{Value::String("a")}, 1.0 - 1e-12});
  set.answers.push_back({{Value::String("b")}, 0.999});
  EXPECT_EQ(set.ConsistentAnswers().size(), 1u);
  EXPECT_EQ(set.ConsistentAnswers(0.01).size(), 2u);
}

}  // namespace
}  // namespace conquer
