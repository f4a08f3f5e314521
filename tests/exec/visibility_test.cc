// MVCC snapshot-visibility tests: a reader admitted before a write never
// sees its rows, a reader admitted after sees exactly them, and an UPDATE
// never exposes both versions of a row in one scan. The tests pin scan
// snapshots with ExecContext::snapshot_override, the same mechanism a
// concurrent reader uses implicitly when a write commits mid-session.

#include <gtest/gtest.h>

#include <string>
#include <utility>
#include <vector>

#include "engine/database.h"
#include "exec/exec_context.h"
#include "storage/table.h"
#include "tests/engine/explain_text.h"
#include "types/value.h"

namespace conquer {
namespace {

class VisibilityTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TableSchema items("items", {{"k", DataType::kInt64},
                                {"name", DataType::kString}});
    ASSERT_TRUE(db_.CreateTable(items).ok());
    std::vector<Row> rows;
    for (int i = 1; i <= 4; ++i) {
      rows.push_back(
          {Value::Int(i), Value::String("n" + std::to_string(i))});
    }
    ASSERT_TRUE(db_.InsertMany("items", std::move(rows)).ok());
    auto t = db_.GetTable("items");
    ASSERT_TRUE(t.ok());
    table_ = *t;
  }

  /// Runs `sql` with the scan snapshot pinned to `snapshot`, restoring the
  /// follow-latest default afterwards.
  ResultSet At(uint64_t snapshot, const std::string& sql) {
    db_.mutable_exec_context()->snapshot_override = snapshot;
    auto rs = db_.Query(sql);
    db_.mutable_exec_context()->snapshot_override =
        ExecContext::kSnapshotLatest;
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;
    return rs.ok() ? std::move(rs).value() : ResultSet{};
  }

  int64_t CountAt(uint64_t snapshot, const std::string& sql) {
    ResultSet rs = At(snapshot, sql);
    EXPECT_EQ(rs.rows.size(), 1u);
    return rs.rows.empty() ? -1 : rs.rows[0][0].int_value();
  }

  int64_t Write(const std::string& sql) {
    auto rs = db_.ExecuteWrite(sql);
    EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << sql;
    return rs.ok() ? rs->rows[0][0].int_value() : -1;
  }

  Database db_;
  Table* table_ = nullptr;
};

TEST_F(VisibilityTest, ReaderBeforeInsertNeverSeesItsRows) {
  const uint64_t before = table_->committed_version();
  EXPECT_EQ(Write("insert into items values (5, 'n5')"), 1);
  const uint64_t after = table_->committed_version();
  EXPECT_EQ(after, before + 1);

  // A reader whose snapshot predates the write sees the old world...
  EXPECT_EQ(CountAt(before, "select count(*) from items"), 4);
  EXPECT_EQ(At(before, "select name from items where k = 5").rows.size(), 0u);
  // ...a reader admitted after sees exactly the new row.
  EXPECT_EQ(CountAt(after, "select count(*) from items"), 5);
  ResultSet rs = At(after, "select name from items where k = 5");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].ToString(), "n5");
  // The follow-latest default matches the post-write snapshot.
  EXPECT_EQ(CountAt(ExecContext::kSnapshotLatest,
                    "select count(*) from items"),
            5);
}

TEST_F(VisibilityTest, DeleteHidesTheRowOnlyFromLaterSnapshots) {
  const uint64_t before = table_->committed_version();
  EXPECT_EQ(Write("delete from items where k = 2"), 1);
  const uint64_t after = table_->committed_version();

  EXPECT_EQ(CountAt(before, "select count(*) from items"), 4);
  EXPECT_EQ(At(before, "select name from items where k = 2").rows.size(), 1u);
  EXPECT_EQ(CountAt(after, "select count(*) from items"), 3);
  EXPECT_EQ(At(after, "select name from items where k = 2").rows.size(), 0u);
}

TEST_F(VisibilityTest, UpdateNeverYieldsBothVersions) {
  const uint64_t before = table_->committed_version();
  EXPECT_EQ(Write("update items set name = 'renamed' where k = 3"), 1);
  const uint64_t after = table_->committed_version();

  // Exactly one version of the row is visible at every snapshot: the old
  // one before the write, the new one after — never both, never neither.
  ResultSet old_rs = At(before, "select name from items where k = 3");
  ASSERT_EQ(old_rs.rows.size(), 1u);
  EXPECT_EQ(old_rs.rows[0][0].ToString(), "n3");
  ResultSet new_rs = At(after, "select name from items where k = 3");
  ASSERT_EQ(new_rs.rows.size(), 1u);
  EXPECT_EQ(new_rs.rows[0][0].ToString(), "renamed");
  // UPDATE rewrites in place logically: the table's cardinality is
  // unchanged at both snapshots even though storage holds two versions.
  EXPECT_EQ(CountAt(before, "select count(*) from items"), 4);
  EXPECT_EQ(CountAt(after, "select count(*) from items"), 4);
}

TEST_F(VisibilityTest, OldSnapshotStaysBitIdenticalAcrossManyWrites) {
  const std::string all = "select k, name from items order by k, name";
  const uint64_t pinned = table_->committed_version();
  ResultSet frozen = At(pinned, all);

  EXPECT_EQ(Write("insert into items values (6, 'n6')"), 1);
  EXPECT_EQ(Write("update items set name = 'x' where k = 1"), 1);
  EXPECT_EQ(Write("delete from items where k = 4"), 1);

  ResultSet replay = At(pinned, all);
  ASSERT_EQ(replay.rows.size(), frozen.rows.size());
  for (size_t r = 0; r < frozen.rows.size(); ++r) {
    for (size_t c = 0; c < frozen.rows[r].size(); ++c) {
      EXPECT_EQ(replay.rows[r][c].TotalCompare(frozen.rows[r][c]), 0);
    }
  }
}

TEST_F(VisibilityTest, IndexScansHonorSnapshotVisibility) {
  // The per-chunk index stores *every* stored version of a row; snapshot
  // visibility is applied to the candidate positions it returns, exactly
  // as the sequential scan applies it to every position.
  ASSERT_TRUE(db_.CreateIndex("items", "k").ok());
  auto plan = ExplainText(db_, "explain select name from items where k = 3");
  ASSERT_TRUE(plan.ok());
  ASSERT_NE(plan->find("IndexScan"), std::string::npos) << *plan;

  const uint64_t v_insert = table_->committed_version();
  EXPECT_EQ(Write("update items set name = 'renamed' where k = 3"), 1);
  const uint64_t v_update = table_->committed_version();
  EXPECT_EQ(Write("delete from items where k = 3"), 1);
  const uint64_t v_delete = table_->committed_version();
  EXPECT_EQ(Write("insert into items values (3, 'reborn')"), 1);
  const uint64_t v_reborn = table_->committed_version();

  const std::string q = "select name from items where k = 3";
  struct Expectation {
    uint64_t snapshot;
    std::vector<std::string> names;
  };
  const std::vector<Expectation> cases = {
      {v_insert, {"n3"}},
      {v_update, {"renamed"}},
      {v_delete, {}},
      {v_reborn, {"reborn"}},
  };
  for (const Expectation& c : cases) {
    ResultSet via_index = At(c.snapshot, q);
    ASSERT_EQ(via_index.rows.size(), c.names.size())
        << "at snapshot " << c.snapshot;
    for (size_t i = 0; i < c.names.size(); ++i) {
      EXPECT_EQ(via_index.rows[i][0].ToString(), c.names[i]);
    }
    // Bit-identity with the sequential scan at the same snapshot.
    db_.mutable_exec_context()->enable_index_scan = false;
    ResultSet via_scan = At(c.snapshot, q);
    db_.mutable_exec_context()->enable_index_scan = true;
    ASSERT_EQ(via_scan.rows.size(), via_index.rows.size());
    for (size_t r = 0; r < via_scan.rows.size(); ++r) {
      EXPECT_EQ(via_scan.rows[r][0].TotalCompare(via_index.rows[r][0]), 0);
    }
  }
}

TEST_F(VisibilityTest, WritesAreRejectedOutsideTheWritePath) {
  // Query() must refuse write statements: they bypass exclusive admission.
  EXPECT_FALSE(db_.Query("insert into items values (9, 'n9')").ok());
  EXPECT_FALSE(db_.Query("delete from items where k = 1").ok());
  // And the write path refuses reads.
  EXPECT_FALSE(db_.ExecuteWrite("select count(*) from items").ok());
}

TEST_F(VisibilityTest, AbortedInsertRowsAreNeverPublished) {
  // The hook fails after both rows were stamped at the write's version; the
  // statement must roll back, and the next successful write — which reuses
  // the aborted version number — must not publish the phantom rows.
  WriteMaintenanceHook failing;
  failing.after_write = [](Table*, const std::vector<Value>&,
                           uint64_t) -> Status {
    return Status::Internal("maintenance rejected the write");
  };
  db_.SetWriteHook("items", failing);
  EXPECT_FALSE(
      db_.ExecuteWrite("insert into items values (7, 'n7'), (8, 'n8')").ok());
  db_.SetWriteHook("items", WriteMaintenanceHook{});

  EXPECT_EQ(CountAt(ExecContext::kSnapshotLatest,
                    "select count(*) from items"),
            4);
  EXPECT_EQ(Write("insert into items values (9, 'n9')"), 1);
  EXPECT_EQ(CountAt(ExecContext::kSnapshotLatest,
                    "select count(*) from items"),
            5);
  EXPECT_EQ(At(ExecContext::kSnapshotLatest,
               "select name from items where k = 7")
                .rows.size(),
            0u);
  EXPECT_EQ(At(ExecContext::kSnapshotLatest,
               "select name from items where k = 8")
                .rows.size(),
            0u);
}

TEST_F(VisibilityTest, FailingHookAbortsDeleteAndUpdateCleanly) {
  WriteMaintenanceHook failing;
  failing.after_write = [](Table*, const std::vector<Value>&,
                           uint64_t) -> Status {
    return Status::Internal("maintenance rejected the write");
  };
  db_.SetWriteHook("items", failing);

  // The executor stamped rows dead (DELETE) and appended a new version
  // (UPDATE) before the hook ran; both writes must roll back fully.
  EXPECT_FALSE(db_.ExecuteWrite("delete from items where k = 2").ok());
  EXPECT_FALSE(
      db_.ExecuteWrite("update items set name = 'renamed' where k = 3").ok());

  db_.SetWriteHook("items", WriteMaintenanceHook{});
  // A later commit reuses the aborted version number: the deleted row must
  // stay visible and only the old version of the updated row may appear.
  EXPECT_EQ(Write("insert into items values (10, 'n10')"), 1);
  EXPECT_EQ(CountAt(ExecContext::kSnapshotLatest,
                    "select count(*) from items"),
            5);
  EXPECT_EQ(At(ExecContext::kSnapshotLatest,
               "select name from items where k = 2")
                .rows.size(),
            1u);
  ResultSet rs =
      At(ExecContext::kSnapshotLatest, "select name from items where k = 3");
  ASSERT_EQ(rs.rows.size(), 1u);
  EXPECT_EQ(rs.rows[0][0].ToString(), "n3");
}

TEST_F(VisibilityTest, UpdateMatchingNothingCommitsAnEmptyVersion) {
  const uint64_t before = table_->committed_version();
  EXPECT_EQ(Write("update items set name = 'ghost' where k = 99"), 0);
  EXPECT_EQ(CountAt(table_->committed_version(),
                    "select count(*) from items"),
            4);
  EXPECT_GE(table_->committed_version(), before);
}

}  // namespace
}  // namespace conquer
