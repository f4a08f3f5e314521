// Multi-session stress tests: N client threads over one QueryService /
// Database, mixed ad-hoc and prepared statements, answers checked
// bit-identically against a single-threaded oracle. Runs in the tier-1
// suite and, via the `concurrency` label, under TSan.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "common/str_util.h"
#include "core/clean_engine.h"
#include "engine/service.h"
#include "sql/parser.h"
#include "tests/engine/explain_text.h"
#include "types/value.h"

namespace conquer {
namespace {

constexpr int kClients = 8;
constexpr int kItersPerClient = 24;

/// Exact (bit-level for doubles, modulo NaN) result equality. The engine's
/// execution is deterministic — partial aggregates combine in slot order
/// regardless of thread timing — so concurrent clients must see answers
/// identical to the single-threaded oracle, including SUM(prob) doubles.
bool SameResults(const ResultSet& a, const ResultSet& b) {
  if (a.rows.size() != b.rows.size()) return false;
  for (size_t r = 0; r < a.rows.size(); ++r) {
    if (a.rows[r].size() != b.rows[r].size()) return false;
    for (size_t c = 0; c < a.rows[r].size(); ++c) {
      if (a.rows[r][c].TotalCompare(b.rows[r][c]) != 0) return false;
    }
  }
  return true;
}

class ServiceStressTest : public ::testing::Test {
 protected:
  /// Seeds `db` with the shared fact table (deterministic, so a second
  /// Database built here is bit-identical to the fixture's).
  static void PopulateFact(Database* db) {
    TableSchema fact("fact", {{"g", DataType::kInt64},
                              {"name", DataType::kString},
                              {"val", DataType::kDouble},
                              {"prob", DataType::kDouble}});
    ASSERT_TRUE(db->CreateTable(fact).ok());
    Rng rng(42);
    std::vector<Row> rows;
    rows.reserve(2000);
    for (int i = 0; i < 2000; ++i) {
      rows.push_back({Value::Int(static_cast<int64_t>(rng.Next() % 16)),
                      Value::String("n" + std::to_string(rng.Next() % 32)),
                      Value::Double(rng.NextDouble()),
                      Value::Double(rng.NextDouble())});
    }
    ASSERT_TRUE(db->InsertMany("fact", std::move(rows)).ok());
    ASSERT_TRUE(db->Analyze("fact").ok());
  }

  void SetUp() override {
    PopulateFact(&db_);
    // All stress queries ORDER BY, so row order is part of the contract.
    queries_ = {
        "select g, sum(prob) from fact group by g order by g",
        "select g, sum(prob), count(*) from fact where val > 0.25 "
        "group by g order by g",
        "select name, sum(prob) from fact where g < 8 "
        "group by name order by name",
        "select g, min(val), max(val) from fact where prob > 0.5 "
        "group by g order by g",
        "select count(*) from fact where name = 'n7'",
        "select g, val, prob from fact where val > 0.97 order by val, g",
    };
  }

  /// Single-threaded reference answers, computed through the same service
  /// path the clients use (and priming the plan cache on the way).
  std::vector<ResultSet> Oracle(QueryService* service) {
    std::vector<ResultSet> oracle;
    for (const std::string& q : queries_) {
      auto rs = service->ExecuteSql(q);
      EXPECT_TRUE(rs.ok()) << rs.status().ToString() << " for: " << q;
      oracle.push_back(rs.ok() ? std::move(rs).value() : ResultSet{});
    }
    return oracle;
  }

  /// The parameterized variant of the mixed workload: queries_[1] with the
  /// val threshold as a placeholder (bound to 0.25 to match the oracle).
  static constexpr const char* kPreparedSql =
      "select g, sum(prob), count(*) from fact where val > ? "
      "group by g order by g";

  Database db_;
  std::vector<std::string> queries_;
};

TEST_F(ServiceStressTest, MixedWorkloadMatchesOracleBitIdentically) {
  db_.SetThreads(3);  // shared morsel pool under all clients
  db_.mutable_exec_context()->morsel_size = 128;  // force parallel splits
  QueryService service(&db_);

  const std::vector<ResultSet> oracle = Oracle(&service);
  std::atomic<int> mismatches{0};
  std::atomic<int> failures{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < kClients; ++tid) {
    clients.emplace_back([&, tid] {
      auto session = service.CreateSession("client-" + std::to_string(tid));
      if (!session->Prepare("mix", kPreparedSql).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kItersPerClient; ++i) {
        const size_t q = (tid + i) % queries_.size();
        Result<ResultSet> rs = (i % 3 == 2)
                                   ? session->ExecutePrepared(
                                         "mix", {Value::Double(0.25)})
                                   : session->Execute(queries_[q]);
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        const ResultSet& expect = (i % 3 == 2) ? oracle[1] : oracle[q];
        if (!SameResults(*rs, expect)) mismatches.fetch_add(1);
      }
    });
  }
  for (auto& t : clients) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(mismatches.load(), 0);

  const ServiceStats stats = service.stats();
  EXPECT_EQ(stats.query_errors, 0u);
  EXPECT_LE(stats.admission.peak_active, db_.max_concurrent_queries());
  // Every distinct statement missed once (plus possibly a duplicated
  // insert race); everything else must hit.
  EXPECT_GT(stats.plan_cache.hit_rate(), 0.9)
      << "hits=" << stats.plan_cache.hits
      << " misses=" << stats.plan_cache.misses;
  db_.SetThreads(1);
}

TEST_F(ServiceStressTest, DdlAndAnalyzeInterleavedWithQueries) {
  db_.SetThreads(2);
  QueryService service(&db_);
  const std::vector<ResultSet> oracle = Oracle(&service);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < 4; ++tid) {
    clients.emplace_back([&, tid] {
      auto session = service.CreateSession();
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = (tid + i++) % queries_.size();
        auto rs = session->Execute(queries_[q]);
        if (!rs.ok() || !SameResults(*rs, oracle[q])) bad.fetch_add(1);
      }
    });
  }
  // DDL churn while clients query: epoch bumps force invalidation and
  // re-binds, but never wrong answers or crashes.
  for (int i = 0; i < 8; ++i) {
    TableSchema scratch("scratch" + std::to_string(i),
                        {{"x", DataType::kInt64}});
    ASSERT_TRUE(db_.CreateTable(scratch).ok());
    ASSERT_TRUE(db_.Analyze("fact").ok());
    ASSERT_TRUE(db_.DropTable(scratch.table_name()).ok());
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  EXPECT_EQ(service.stats().query_errors, 0u);
  db_.SetThreads(1);
}

// Regression for the SetThreads race: resizing the pool while queries are
// in flight used to swap the TaskPool out from under their ExecContext.
// Now the swap takes the exclusive admission slot, so it waits for
// in-flight queries to drain.
TEST_F(ServiceStressTest, SetThreadsUnderLoadIsSafe) {
  db_.SetThreads(2);
  db_.mutable_exec_context()->morsel_size = 128;
  QueryService service(&db_);
  const std::vector<ResultSet> oracle = Oracle(&service);

  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < 4; ++tid) {
    clients.emplace_back([&, tid] {
      auto session = service.CreateSession();
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = (tid + i++) % queries_.size();
        auto rs = session->Execute(queries_[q]);
        if (!rs.ok() || !SameResults(*rs, oracle[q])) bad.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 12; ++round) {
    db_.SetThreads(1 + round % 3);
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  db_.SetThreads(1);
}

// A writer session mutating the table while kClients readers hammer it
// with a snapshot probe. Writes run serialized behind exclusive admission,
// so every concurrent read must observe the database state after some
// prefix of the write script — never a torn intermediate — and the final
// table contents must match a single-threaded replay of the same script.
TEST_F(ServiceStressTest, WriterUnderQueryLoadMatchesSerializedReplay) {
  // The write script targets a dedicated g = 999 stripe: 24 inserts with a
  // delete after every fourth, so cardinality moves both ways.
  std::vector<std::string> script;
  for (int i = 0; i < 24; ++i) {
    script.push_back("insert into fact values (999, 'w" + std::to_string(i) +
                     "', " + std::to_string(i) + ".125, 0.5)");
    if (i % 4 == 3) {
      script.push_back("delete from fact where g = 999 and name = 'w" +
                       std::to_string(i - 2) + "'");
    }
  }
  const std::string probe =
      "select count(*), sum(val) from fact where g = 999";
  const std::string stripe =
      "select g, name, val, prob from fact where g = 999 "
      "order by name, val, prob";

  // Serial oracle: replay the script on an identical database, recording
  // the probe answer after every prefix (including the empty one).
  Database oracle_db;
  PopulateFact(&oracle_db);
  std::vector<ResultSet> states;
  {
    auto rs = oracle_db.Query(probe);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    states.push_back(std::move(rs).value());
  }
  for (const std::string& w : script) {
    ASSERT_TRUE(oracle_db.ExecuteWrite(w).ok()) << w;
    auto rs = oracle_db.Query(probe);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    states.push_back(std::move(rs).value());
  }

  db_.SetThreads(3);
  db_.mutable_exec_context()->morsel_size = 128;
  QueryService service(&db_);

  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> torn_reads{0};
  std::vector<std::thread> readers;
  for (int tid = 0; tid < kClients; ++tid) {
    readers.emplace_back([&] {
      auto session = service.CreateSession();
      while (!done.load(std::memory_order_relaxed)) {
        auto rs = session->Execute(probe);
        if (!rs.ok()) {
          failures.fetch_add(1);
          continue;
        }
        bool matched = false;
        for (const ResultSet& s : states) {
          if (SameResults(*rs, s)) {
            matched = true;
            break;
          }
        }
        if (!matched) torn_reads.fetch_add(1);
      }
    });
  }
  {
    auto writer = service.CreateSession("writer");
    for (const std::string& w : script) {
      auto rs = writer->Execute(w);  // service routes writes exclusively
      if (!rs.ok()) failures.fetch_add(1);
    }
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(torn_reads.load(), 0);
  EXPECT_EQ(service.stats().query_errors, 0u);

  // Final state: the concurrent run left exactly the serial replay's rows.
  auto got = service.ExecuteSql(stripe);
  auto want = oracle_db.Query(stripe);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  ASSERT_TRUE(want.ok()) << want.status().ToString();
  EXPECT_TRUE(SameResults(*got, *want));
  auto final_probe = service.ExecuteSql(probe);
  ASSERT_TRUE(final_probe.ok());
  EXPECT_TRUE(SameResults(*final_probe, states.back()));
  db_.SetThreads(1);
}

// The same race at the Database layer, without a service in front:
// concurrent Query + SetThreads on the raw Database must also be safe,
// because the Database admits SetThreads exclusively itself.
TEST_F(ServiceStressTest, DatabaseSetThreadsConcurrentWithQueries) {
  db_.mutable_exec_context()->morsel_size = 128;
  std::atomic<bool> stop{false};
  std::atomic<int> bad{0};
  std::vector<std::thread> clients;
  for (int tid = 0; tid < 3; ++tid) {
    clients.emplace_back([&, tid] {
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const size_t q = (tid + i++) % queries_.size();
        if (!db_.Query(queries_[q]).ok()) bad.fetch_add(1);
      }
    });
  }
  for (int round = 0; round < 10; ++round) {
    db_.SetThreads(1 + round % 4);
  }
  stop.store(true);
  for (auto& t : clients) t.join();
  EXPECT_EQ(bad.load(), 0);
  db_.SetThreads(1);
}

// One step of the embedded writer's script.
struct EmbeddedOp {
  enum Kind { kWrite, kIndex, kAnalyze, kThreads } kind;
  std::string text;  ///< write SQL or indexed column
  size_t threads = 1;
};

/// A seeded script of single-statement writes (inserts of a `w<i>` stripe,
/// updates and deletes over it and over the seeded rows) mixed with index
/// builds, statistics refreshes and pool resizes.
std::vector<EmbeddedOp> EmbeddedScript() {
  Rng rng(20061);
  std::vector<EmbeddedOp> ops;
  int inserted = 0;
  for (int i = 0; i < 36; ++i) {
    // Exact binary fractions, so the SQL literals round-trip bit for bit.
    const int g = static_cast<int>(rng.Next() % 16);
    const double val = static_cast<double>(rng.Next() % 128) / 128;
    const double prob = static_cast<double>(rng.Next() % 8) / 8;
    const int pick = static_cast<int>(rng.Next() % 32);
    std::string sql;
    if (i % 4 < 2) {
      sql = StringPrintf("insert into fact values (%d, 'w%d', %.7f, %.3f)", g,
                         inserted++, val, prob);
    } else if (i % 4 == 2) {
      sql = StringPrintf("update fact set prob = %.3f where g = %d", prob, g);
    } else if (i % 8 == 3) {
      sql = StringPrintf("delete from fact where name = 'w%d'",
                         pick % inserted);
    } else {
      sql = StringPrintf("delete from fact where g = %d and name = 'n%d'", g,
                         pick);
    }
    ops.push_back({EmbeddedOp::kWrite, std::move(sql)});
    if (i == 8) ops.push_back({EmbeddedOp::kIndex, "name"});
    if (i == 20) ops.push_back({EmbeddedOp::kIndex, "g"});
    if (i % 6 == 5) ops.push_back({EmbeddedOp::kAnalyze, ""});
    if (i % 5 == 2) {
      ops.push_back(
          {EmbeddedOp::kThreads, "", static_cast<size_t>(1 + i % 3)});
    }
  }
  return ops;
}

Status ApplyEmbeddedOp(Database* db, const EmbeddedOp& op) {
  switch (op.kind) {
    case EmbeddedOp::kWrite:
      return db->ExecuteWrite(op.text).status();
    case EmbeddedOp::kIndex:
      return db->CreateIndex("fact", op.text);
    case EmbeddedOp::kAnalyze:
      return db->Analyze("fact");
    case EmbeddedOp::kThreads:
      db->SetThreads(op.threads);
      return Status::OK();
  }
  return Status::Internal("unknown op");
}

/// Clean answers as a result set (probability last), sorted: the
/// aggregate's group order is not part of the contract, its sums are.
ResultSet CleanRows(const CleanAnswerSet& answers) {
  ResultSet rs;
  for (const CleanAnswer& a : answers.answers) {
    Row row = a.row;
    row.push_back(Value::Double(a.probability));
    rs.rows.push_back(std::move(row));
  }
  std::sort(rs.rows.begin(), rs.rows.end(), [](const Row& x, const Row& y) {
    for (size_t c = 0; c < x.size(); ++c) {
      const int cmp = x[c].TotalCompare(y[c]);
      if (cmp != 0) return cmp < 0;
    }
    return false;
  });
  return rs;
}

// The embedded contract, with no service in front: readers call every
// admitted read entry of a raw Database (Query, including EXPLAIN,
// Execute and a CleanAnswerEngine over it) while one thread runs a seeded
// write script mixed with CreateIndex, Analyze and SetThreads. The Database
// admits every call itself, so each read must equal, bit for bit and
// SUM(prob) included, what a serialized replay answers after some prefix of
// the script, and the prefixes a reader observes never go backwards.
TEST_F(ServiceStressTest, EmbeddedCallsMatchSerializedReplay) {
  const std::string grouped =
      "select g, sum(prob), count(*) from fact group by g order by g";
  const std::string stripe =
      "select name, val, prob from fact where val > 0.9 "
      "order by name, val, prob";
  const std::string lookup =
      "select g, count(*) from fact where name = 'n7' group by g";
  const std::string clean = "select f.g, f.name from fact f where f.val > 0.5";
  DirtySchema dirty;
  ASSERT_TRUE(dirty.AddTable({"fact", "g", "prob", {}}).ok());
  const std::vector<EmbeddedOp> script = EmbeddedScript();

  // What each read kind answers after every prefix of the script.
  struct State {
    ResultSet grouped, stripe, clean;
    std::string plan;
  };
  auto observe = [&](Database* db) {
    State st;
    auto a = db->Query(grouped);
    auto b = db->Query(stripe);
    auto c = CleanAnswerEngine(db, &dirty).Query(clean);
    auto d = ExplainText(*db, "explain " + lookup);
    EXPECT_TRUE(a.ok() && b.ok() && c.ok() && d.ok());
    if (a.ok()) st.grouped = std::move(a).value();
    if (b.ok()) st.stripe = std::move(b).value();
    if (c.ok()) st.clean = CleanRows(*c);
    if (d.ok()) st.plan = std::move(d).value();
    return st;
  };
  std::vector<State> states;
  {
    Database replay;
    PopulateFact(&replay);
    replay.mutable_exec_context()->morsel_size = 128;
    states.push_back(observe(&replay));
    for (const EmbeddedOp& op : script) {
      ASSERT_TRUE(ApplyEmbeddedOp(&replay, op).ok()) << op.text;
      states.push_back(observe(&replay));
    }
    replay.SetThreads(1);
  }

  db_.mutable_exec_context()->morsel_size = 128;
  const CleanAnswerEngine engine(&db_, &dirty);
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::atomic<int> unmatched{0};
  std::atomic<int> reads{0};
  std::vector<std::thread> readers;
  for (int tid = 0; tid < 4; ++tid) {
    readers.emplace_back([&, tid] {
      // Earliest script prefix each read kind may still observe.
      size_t earliest[4] = {0, 0, 0, 0};
      auto match = [&](int kind, auto&& same) {
        for (size_t k = earliest[kind]; k < states.size(); ++k) {
          if (same(states[k])) {
            earliest[kind] = k;
            return;
          }
        }
        unmatched.fetch_add(1);
      };
      for (int i = tid; !done.load(std::memory_order_relaxed); ++i) {
        reads.fetch_add(1);
        switch (i % 4) {
          case 0: {
            auto rs = db_.Query(grouped);
            if (!rs.ok()) break;
            match(0, [&](const State& st) {
              return SameResults(*rs, st.grouped);
            });
            continue;
          }
          case 1: {
            auto stmt = Parser::Parse(stripe);
            if (!stmt.ok()) break;
            auto rs = db_.Execute(std::move(stmt).value());
            if (!rs.ok()) break;
            match(1, [&](const State& st) {
              return SameResults(*rs, st.stripe);
            });
            continue;
          }
          case 2: {
            auto answers = engine.Query(clean);
            if (!answers.ok()) break;
            const ResultSet rows = CleanRows(*answers);
            match(2, [&](const State& st) {
              return SameResults(rows, st.clean);
            });
            continue;
          }
          default: {
            auto plan = ExplainText(db_, "explain " + lookup);
            if (!plan.ok()) break;
            match(3, [&](const State& st) { return *plan == st.plan; });
            continue;
          }
        }
        failures.fetch_add(1);
      }
    });
  }
  for (const EmbeddedOp& op : script) {
    Status s = ApplyEmbeddedOp(&db_, op);
    EXPECT_TRUE(s.ok()) << op.text << ": " << s.ToString();
  }
  done.store(true);
  for (auto& t : readers) t.join();

  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(unmatched.load(), 0);
  EXPECT_GT(reads.load(), 0);
  const State final_state = observe(&db_);
  EXPECT_TRUE(SameResults(final_state.grouped, states.back().grouped));
  EXPECT_TRUE(SameResults(final_state.stripe, states.back().stripe));
  EXPECT_TRUE(SameResults(final_state.clean, states.back().clean));
  EXPECT_EQ(final_state.plan, states.back().plan);
  db_.SetThreads(1);
}

}  // namespace
}  // namespace conquer
