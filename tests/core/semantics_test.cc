// Tests of the clean-answer semantics (paper Section 2) via the naive
// candidate-enumeration oracle, pinned to the paper's worked examples.

#include <gtest/gtest.h>

#include <algorithm>

#include "core/clean_engine.h"
#include "core/naive_eval.h"
#include "tests/core/paper_fixtures.h"

namespace conquer {
namespace {

class Figure1Test : public ::testing::Test {
 protected:
  void SetUp() override { LoadFigure1(&db_, &dirty_); }
  Database db_;
  DirtySchema dirty_;
};

// Paper Section 1: "card 111 has 60% probability of being associated with a
// customer earning over $100K".
TEST_F(Figure1Test, IntroLoyaltyCardCleanAnswer) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate(
      "select l.cardid from loyaltycard l, customer c "
      "where l.custfk = c.custid and c.income > 100000");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0].row[0].int_value(), 111);
  EXPECT_NEAR(answers->answers[0].probability, 0.6, 1e-12);
}

// The paper's eight possible databases for Figure 1: 2 x 2 x 2.
TEST_F(Figure1Test, IntroCandidateCount) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto count = naive.CountCandidates(
      "select l.cardid from loyaltycard l, customer c "
      "where l.custfk = c.custid");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
}

// D1cd = {t1, s1, s3}: 0.4 * 0.9 * 0.4 = 0.144 (paper Section 1).
TEST_F(Figure1Test, IntroCandidateProbability) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto probs = naive.CandidateProbabilities({"loyaltycard", "customer"});
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs->size(), 8u);
  double total = 0.0;
  for (double p : *probs) total += p;
  EXPECT_NEAR(total, 1.0, 1e-12);
  EXPECT_NE(std::find_if(probs->begin(), probs->end(),
                         [](double p) { return std::abs(p - 0.144) < 1e-12; }),
            probs->end());
}

// Offline cleaning (keep the max-probability tuple per cluster) loses the
// answer entirely — the motivation for clean answers (paper Section 1).
TEST_F(Figure1Test, OfflineCleaningLosesTheAnswer) {
  OfflineCleaningBaseline baseline(&db_, &dirty_);
  auto rs = baseline.Query(
      "select l.cardid from loyaltycard l, customer c "
      "where l.custfk = c.custid and c.income > 100000");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs->num_rows(), 0u);
}

TEST_F(Figure1Test, OfflineCleaningKeepsMaxProbabilityTuples) {
  OfflineCleaningBaseline baseline(&db_, &dirty_);
  auto cleaned = baseline.BuildCleanedDatabase();
  ASSERT_TRUE(cleaned.ok());
  auto card = (*cleaned)->GetTable("loyaltycard");
  ASSERT_TRUE(card.ok());
  ASSERT_EQ((*card)->num_rows(), 1u);
  EXPECT_EQ((*card)->row(0)[1].string_value(), "c2");  // prob 0.6 wins
  auto cust = (*cleaned)->GetTable("customer");
  ASSERT_TRUE(cust.ok());
  EXPECT_EQ((*cust)->num_rows(), 2u);  // one per cluster
}

// Offline cleaning works on the committed state: a row that a write deleted
// or superseded must not come back as its cluster's representative.
TEST(OfflineCleaningBaselineTest, SkipsDeletedAndSupersededRows) {
  Database db;
  ASSERT_TRUE(db.CreateTable(TableSchema("c", {{"id", DataType::kString},
                                               {"name", DataType::kString},
                                               {"prob", DataType::kDouble}}))
                  .ok());
  ASSERT_TRUE(db.CreateTable(TableSchema("d", {{"k", DataType::kInt64}})).ok());
  ASSERT_TRUE(db.InsertMany("c", {{Value::String("a"), Value::String("x"),
                                   Value::Double(1.0)},
                                  {Value::String("b"), Value::String("y"),
                                   Value::Double(1.0)}})
                  .ok());
  ASSERT_TRUE(db.InsertMany("d", {{Value::Int(1)}, {Value::Int(2)}}).ok());
  DirtySchema dirty;
  ASSERT_TRUE(dirty.AddTable({"c", "id", "prob", {}}).ok());

  ASSERT_TRUE(db.ExecuteWrite("delete from c where id = 'b'").ok());
  ASSERT_TRUE(db.ExecuteWrite("update c set name = 'z' where id = 'a'").ok());
  ASSERT_TRUE(db.ExecuteWrite("delete from d where k = 1").ok());

  const std::string sql = "select id, name from c";
  auto live = db.Query(sql);
  ASSERT_TRUE(live.ok()) << live.status().ToString();
  ASSERT_EQ(live->num_rows(), 1u);

  OfflineCleaningBaseline baseline(&db, &dirty);
  auto cleaned = baseline.Query(sql);
  ASSERT_TRUE(cleaned.ok()) << cleaned.status().ToString();
  ASSERT_EQ(cleaned->num_rows(), 1u);
  EXPECT_EQ(cleaned->rows[0][0].string_value(), "a");
  EXPECT_EQ(cleaned->rows[0][1].string_value(), "z");

  auto plain = baseline.Query("select k from d");
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  ASSERT_EQ(plain->num_rows(), 1u);
  EXPECT_EQ(plain->rows[0][0].int_value(), 2);
}

// The rewriting agrees with the semantics on the intro example.
TEST_F(Figure1Test, RewritingMatchesIntroExample) {
  CleanAnswerEngine engine(&db_, &dirty_);
  auto answers = engine.Query(
      "select l.cardid from loyaltycard l, customer c "
      "where l.custfk = c.custid and c.income > 100000");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0].row[0].int_value(), 111);
  EXPECT_NEAR(answers->answers[0].probability, 0.6, 1e-12);
}

class Figure2Test : public ::testing::Test {
 protected:
  void SetUp() override { LoadFigure2(&db_, &dirty_); }
  Database db_;
  DirtySchema dirty_;
};

// Example 2: eight candidate databases.
TEST_F(Figure2Test, CandidateEnumerationCount) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto count = naive.CountCandidates("select o.id from orders o, customer c");
  ASSERT_TRUE(count.ok());
  EXPECT_EQ(*count, 8u);
}

// Example 3: candidate probabilities {0.07, 0.28, 0.03, 0.12} each twice.
TEST_F(Figure2Test, CandidateEnumerationProbabilities) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto probs = naive.CandidateProbabilities({"orders", "customer"});
  ASSERT_TRUE(probs.ok());
  ASSERT_EQ(probs->size(), 8u);
  std::vector<double> sorted = *probs;
  std::sort(sorted.begin(), sorted.end());
  const std::vector<double> expected = {0.03, 0.03, 0.07, 0.07,
                                        0.12, 0.12, 0.28, 0.28};
  for (size_t i = 0; i < expected.size(); ++i) {
    EXPECT_NEAR(sorted[i], expected[i], 1e-12) << "at " << i;
  }
}

// Example 4 (q1): customers with balance > $10K -> {(c1, 1), (c2, 0.2)}.
TEST_F(Figure2Test, Example4SingleTableSelection) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers =
      naive.Evaluate("select id from customer c where balance > 10000");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 2u);
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("c1")}), 1.0, 1e-12);
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("c2")}), 0.2, 1e-12);
}

// Example 6 (q2): orders and their customers with balance > $10K ->
// {(o1,c1,1), (o2,c1,0.5), (o2,c2,0.1)}.
TEST_F(Figure2Test, Example6ForeignKeyJoin) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate(
      "select o.id, c.id from orders o, customer c "
      "where o.cidfk = c.id and c.balance > 10000");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 3u);
  EXPECT_NEAR(
      answers->ProbabilityOf({Value::String("o1"), Value::String("c1")}), 1.0,
      1e-12);
  EXPECT_NEAR(
      answers->ProbabilityOf({Value::String("o2"), Value::String("c1")}), 0.5,
      1e-12);
  EXPECT_NEAR(
      answers->ProbabilityOf({Value::String("o2"), Value::String("c2")}), 0.1,
      1e-12);
}

// Example 7 (q3): the correct clean answers are {(c1, 0.3)}; c2 has
// probability zero.
TEST_F(Figure2Test, Example7CorrectSemantics) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate(
      "select c.id from orders o, customer c "
      "where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0].row[0].string_value(), "c1");
  EXPECT_NEAR(answers->answers[0].probability, 0.3, 1e-12);
  EXPECT_NEAR(answers->ProbabilityOf({Value::String("c2")}), 0.0, 1e-12);
}

// Example 7, second half: naive grouping+summing over-counts candidates
// D3cd/D4cd and reports 0.45 for c1 — which is why the query is outside the
// rewritable class. We reproduce the wrong value with a handwritten
// group-and-sum query.
TEST_F(Figure2Test, Example7GroupAndSumOvercounts) {
  auto rs = db_.Query(
      "select c.id, sum(o.prob * c.prob) from orders o, customer c "
      "where o.quantity < 5 and o.cidfk = c.id and c.balance > 25000 "
      "group by c.id");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  ASSERT_EQ(rs->num_rows(), 1u);
  EXPECT_EQ(rs->rows[0][0].string_value(), "c1");
  EXPECT_NEAR(rs->rows[0][1].double_value(), 0.45, 1e-12);  // wrong answer
}

// Clean answers with probability 1 are exactly the consistent answers.
TEST_F(Figure2Test, ConsistentAnswersAreProbabilityOne) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers =
      naive.Evaluate("select id from customer c where balance > 10000");
  ASSERT_TRUE(answers.ok());
  auto consistent = answers->ConsistentAnswers();
  ASSERT_EQ(consistent.size(), 1u);
  EXPECT_EQ(consistent[0][0].string_value(), "c1");
}

// The total probability mass of an answer can never exceed 1.
TEST_F(Figure2Test, AnswerProbabilitiesAreWithinUnitInterval) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate(
      "select o.id, c.id, o.quantity, c.balance from orders o, customer c "
      "where o.cidfk = c.id");
  ASSERT_TRUE(answers.ok());
  for (const CleanAnswer& a : answers->answers) {
    EXPECT_GE(a.probability, 0.0);
    EXPECT_LE(a.probability, 1.0 + 1e-12);
  }
}

TEST(ClampProbabilityTest, SnapsFloatingPointDriftToBounds) {
  EXPECT_EQ(ClampProbability(1.0000000000000002), 1.0);
  EXPECT_EQ(ClampProbability(1.0 - 1e-12), 1.0);
  EXPECT_EQ(ClampProbability(-1e-300), 0.0);
  EXPECT_EQ(ClampProbability(0.0), 0.0);
  EXPECT_EQ(ClampProbability(1.0), 1.0);
  EXPECT_DOUBLE_EQ(ClampProbability(0.6), 0.6);
  EXPECT_DOUBLE_EQ(ClampProbability(1e-8), 1e-8);  // outside epsilon: kept
}

// Regression: a full cluster whose tuple probabilities sum past 1.0 in
// floating point. 0.33 + 0.56 + 0.11 accumulated left-to-right in double is
// 1.0000000000000002; without the clamp the clean answer reported a
// probability > 1 and, depending on the consistency epsilon, arguably not a
// consistent answer. The insertion order matters — SeqScan feeds the
// rewriting's SUM in table order.
TEST(ProbabilityClampTest, OvershootingClusterSnapsToExactlyOne) {
  const double probs[] = {0.33, 0.56, 0.11};
  double sum = 0.0;
  for (double p : probs) sum += p;
  ASSERT_GT(sum, 1.0);  // the premise: this cluster overshoots in double

  Database db;
  DirtySchema dirty;
  TableSchema items("items", {{"id", DataType::kInt64},
                              {"name", DataType::kString},
                              {"prob", DataType::kDouble}});
  ASSERT_TRUE(db.CreateTable(items).ok());
  for (double p : probs) {
    ASSERT_TRUE(db.Insert("items", {Value::Int(7), Value::String("widget"),
                                    Value::Double(p)})
                    .ok());
  }
  ASSERT_TRUE(dirty.AddTable({"items", "id", "prob", {}}).ok());

  CleanAnswerEngine engine(&db, &dirty);
  auto answers = engine.Query("select i.id, i.name from items i");
  ASSERT_TRUE(answers.ok()) << answers.status().ToString();
  ASSERT_EQ(answers->answers.size(), 1u);
  EXPECT_EQ(answers->answers[0].probability, 1.0);  // exactly, post-clamp
  // A cluster that is certain to produce the answer is a consistent answer.
  auto consistent = answers->ConsistentAnswers();
  ASSERT_EQ(consistent.size(), 1u);
  EXPECT_EQ(consistent[0][1].string_value(), "widget");
}

// The candidate cap is honored.
TEST_F(Figure2Test, CandidateCapReportsResourceExhausted) {
  NaiveCandidateEvaluator naive(&db_, &dirty_);
  auto answers = naive.Evaluate("select id from customer c", /*max=*/3);
  EXPECT_FALSE(answers.ok());
  EXPECT_EQ(answers.status().code(), StatusCode::kResourceExhausted);
}

}  // namespace
}  // namespace conquer
