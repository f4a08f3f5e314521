// Reproduces the paper's Section 4 worked example: the Figure 6 dirty
// customer relation, its normalized matrix (Table 1), the cluster
// representatives (Table 2), and the probability calculation (Table 3).

#include <gtest/gtest.h>

#include "prob/assigner.h"

namespace conquer {
namespace {

class Figure6Test : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema schema("customer", {{"id", DataType::kString},
                                    {"name", DataType::kString},
                                    {"mktsegmt", DataType::kString},
                                    {"nation", DataType::kString},
                                    {"address", DataType::kString},
                                    {"prob", DataType::kDouble}});
    table_ = std::make_unique<Table>(schema);
    auto ins = [&](const char* cid, const char* name, const char* seg,
                   const char* nation, const char* addr) {
      ASSERT_TRUE(table_
                      ->Insert({Value::String(cid), Value::String(name),
                                Value::String(seg), Value::String(nation),
                                Value::String(addr), Value::Null()})
                      .ok());
    };
    ins("c1", "Mary", "building", "USA", "Jones Ave");    // t1
    ins("c1", "Mary", "banking", "USA", "Jones Ave");     // t2
    ins("c1", "Marion", "banking", "USA", "Jones ave");   // t3
    ins("c2", "John", "building", "America", "Arrow");    // t4
    ins("c2", "John S.", "building", "USA", "Arrow");     // t5
    ins("c3", "John", "banking", "Canada", "Baldwin");    // t6
    info_ = {"customer", "id", "prob", {}};
  }

  std::unique_ptr<Table> table_;
  DirtyTableInfo info_;
};

// Table 1: each tuple's distribution gives probability 1/m = 0.25 to each
// of its four attribute values.
TEST_F(Figure6Test, Table1NormalizedMatrix) {
  ValueSpace space;
  auto rep = BuildClusterRepresentative(*table_, {0}, {1, 2, 3, 4}, &space);
  ASSERT_TRUE(rep.ok());
  EXPECT_NEAR(rep->weight, 1.0, 1e-12);
  for (const auto& [v, p] : rep->dist.entries()) {
    EXPECT_NEAR(p, 0.25, 1e-12);
  }
  EXPECT_EQ(rep->dist.entries().size(), 4u);
}

// Table 2: the representative of c1 = {t1, t2, t3}. A value's index is
// looked up by interning a cell that holds it, which must find it already
// interned.
TEST_F(Figure6Test, Table2ClusterRepresentatives) {
  const std::vector<size_t> attrs = {1, 2, 3, 4};
  // Probability of attribute `a`'s value in row `row` (0-based: t1 is row
  // 0); attribute positions within the representative: 0=name,
  // 1=mktsegmt, 2=nation, 3=address.
  auto at = [&](const Dcf& rep, ValueSpace* space, size_t a, size_t row) {
    RowCursor cursor(table_.get());
    cursor.Touch(row);
    const auto [column, i, dict] = cursor.CellAt(row, attrs[a]);
    const size_t before = space->size();
    const uint32_t index = space->Intern(a, CellElement(column, i, dict));
    EXPECT_EQ(space->size(), before) << "attribute " << a << " row " << row;
    return rep.dist.At(index);
  };

  ValueSpace space;
  auto rep1 = BuildClusterRepresentative(*table_, {0, 1, 2}, attrs, &space);
  ASSERT_TRUE(rep1.ok());
  EXPECT_NEAR(rep1->weight, 3.0, 1e-12);
  EXPECT_NEAR(at(*rep1, &space, 0, 0), 2.0 / 12, 1e-12);  // Mary
  EXPECT_NEAR(at(*rep1, &space, 0, 2), 1.0 / 12, 1e-12);  // Marion
  EXPECT_NEAR(at(*rep1, &space, 1, 0), 1.0 / 12, 1e-12);  // building
  EXPECT_NEAR(at(*rep1, &space, 1, 1), 2.0 / 12, 1e-12);  // banking
  // USA "remains the same" (paper).
  EXPECT_NEAR(at(*rep1, &space, 2, 0), 3.0 / 12, 1e-12);
  EXPECT_NEAR(at(*rep1, &space, 3, 0), 2.0 / 12, 1e-12);  // Jones Ave
  EXPECT_NEAR(at(*rep1, &space, 3, 2), 1.0 / 12, 1e-12);  // Jones ave
  EXPECT_NEAR(rep1->dist.Mass(), 1.0, 1e-12);

  // rep2 reflects that both t4 and t5 contain "building" and "Arrow".
  ValueSpace space2;
  auto rep2 = BuildClusterRepresentative(*table_, {3, 4}, attrs, &space2);
  ASSERT_TRUE(rep2.ok());
  EXPECT_NEAR(at(*rep2, &space2, 1, 3), 0.25, 1e-12);   // building
  EXPECT_NEAR(at(*rep2, &space2, 3, 3), 0.25, 1e-12);   // Arrow
  EXPECT_NEAR(at(*rep2, &space2, 0, 3), 0.125, 1e-12);  // John
  EXPECT_NEAR(at(*rep2, &space2, 0, 4), 0.125, 1e-12);  // John S.
}

// Table 3: ordering and invariants of the assigned probabilities.
TEST_F(Figure6Test, Table3ProbabilityCalculation) {
  auto details = AssignProbabilities(table_.get(), info_);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  const auto& d = *details;
  ASSERT_EQ(d.size(), 6u);

  // "t2 is the most probable one to be in the clean database" (cluster c1).
  EXPECT_GT(d[1].probability, d[0].probability);
  EXPECT_GT(d[0].probability, d[2].probability);
  // Smaller distance <-> higher similarity <-> higher probability.
  EXPECT_LT(d[1].distance, d[0].distance);
  EXPECT_LT(d[0].distance, d[2].distance);
  EXPECT_GT(d[1].similarity, d[0].similarity);

  // c2: "two tuples, which are equally likely to be in the clean database".
  EXPECT_NEAR(d[3].probability, 0.5, 1e-12);
  EXPECT_NEAR(d[4].probability, 0.5, 1e-12);
  EXPECT_NEAR(d[3].distance, d[4].distance, 1e-12);

  // t6: "no uncertainty ... it constitutes a cluster summary of its own".
  EXPECT_NEAR(d[5].probability, 1.0, 1e-12);
  EXPECT_NEAR(d[5].distance, 0.0, 1e-12);

  // Per-cluster probabilities sum to 1 (Dfn 2).
  EXPECT_NEAR(d[0].probability + d[1].probability + d[2].probability, 1.0,
              1e-12);
  EXPECT_NEAR(d[3].probability + d[4].probability, 1.0, 1e-12);

  // Similarities are s_t = 1 - d_t / S(c_i); probabilities are
  // s_t / (|c|-1).
  double s_c1 = d[0].distance + d[1].distance + d[2].distance;
  for (int i : {0, 1, 2}) {
    EXPECT_NEAR(d[i].similarity, 1.0 - d[i].distance / s_c1, 1e-12);
    EXPECT_NEAR(d[i].probability, d[i].similarity / 2.0, 1e-12);
  }

  // The prob column was written in place.
  EXPECT_NEAR(table_->row(5)[5].double_value(), 1.0, 1e-12);
  EXPECT_NEAR(table_->row(1)[5].double_value(), d[1].probability, 1e-12);
}

TEST_F(Figure6Test, IdenticalDuplicatesGetUniformProbabilities) {
  TableSchema schema("dup", {{"id", DataType::kString},
                             {"a", DataType::kString},
                             {"prob", DataType::kDouble}});
  Table table(schema);
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(table
                    .Insert({Value::String("c1"), Value::String("same"),
                             Value::Null()})
                    .ok());
  }
  DirtyTableInfo info{"dup", "id", "prob", {}};
  auto details = AssignProbabilities(&table, info);
  ASSERT_TRUE(details.ok());
  for (const auto& t : *details) {
    EXPECT_NEAR(t.probability, 1.0 / 3, 1e-12);
  }
}

TEST_F(Figure6Test, ExplicitAttributeColumnSelection) {
  AssignerOptions options;
  options.attribute_columns = {"name", "mktsegmt"};
  auto details = AssignProbabilities(table_.get(), info_, options);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  // Probabilities still form a distribution per cluster.
  EXPECT_NEAR((*details)[0].probability + (*details)[1].probability +
                  (*details)[2].probability,
              1.0, 1e-12);
}

TEST_F(Figure6Test, MissingProbColumnIsAnError) {
  DirtyTableInfo no_prob{"customer", "id", "", {}};
  auto details = AssignProbabilities(table_.get(), no_prob);
  EXPECT_FALSE(details.ok());
  EXPECT_EQ(details.status().code(), StatusCode::kInvalidArgument);
}

// Numeric and date attributes participate through their categorical
// representation (the paper treats all values as categorical symbols).
TEST_F(Figure6Test, MixedTypeAttributes) {
  TableSchema schema("mixed", {{"id", DataType::kString},
                               {"amount", DataType::kInt64},
                               {"when", DataType::kDate},
                               {"prob", DataType::kDouble}});
  Table table(schema);
  auto day = ParseDate("2001-02-03");
  ASSERT_TRUE(day.ok());
  ASSERT_TRUE(table
                  .Insert({Value::String("c1"), Value::Int(10),
                           Value::Date(*day), Value::Null()})
                  .ok());
  ASSERT_TRUE(table
                  .Insert({Value::String("c1"), Value::Int(10),
                           Value::Date(*day + 1), Value::Null()})
                  .ok());
  ASSERT_TRUE(table
                  .Insert({Value::String("c1"), Value::Int(99),
                           Value::Date(*day), Value::Null()})
                  .ok());
  DirtyTableInfo info{"mixed", "id", "prob", {}};
  auto details = AssignProbabilities(&table, info);
  ASSERT_TRUE(details.ok()) << details.status().ToString();
  double sum = 0.0;
  for (const auto& t : *details) sum += t.probability;
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

}  // namespace
}  // namespace conquer
