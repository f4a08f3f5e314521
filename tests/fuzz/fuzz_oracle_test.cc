// The oracle battery and the shrinker, mutation-tested end to end: a clean
// engine passes, every deliberately injected bug is caught by some oracle,
// and the resulting failure shrinks to a tiny reproducer that survives a
// corpus-format round trip.

#include "fuzz/oracles.h"

#include <gtest/gtest.h>

#include "common/str_util.h"
#include "fuzz/corpus.h"
#include "fuzz/fuzzer.h"
#include "fuzz/generator.h"
#include "fuzz/shrinker.h"

namespace conquer {
namespace fuzz {
namespace {

OracleOptions FastOracleOptions() {
  OracleOptions opts;
  opts.batch_sizes = {1, 1024};
  opts.chunk_capacities = {1, 65536};
  return opts;
}

// A seed whose generated case returns a non-empty answer set, so the
// injected bugs have something to corrupt.
uint64_t NonEmptySeed() {
  static const uint64_t cached = [] {
    FuzzConfig cfg;
    cfg.mutant_rate = 0.0;
    OracleOptions opts = FastOracleOptions();
    for (uint64_t seed = 1; seed < 64; ++seed) {
      auto report = RunOracles(GenerateCase(seed, cfg), opts);
      if (report.ok() && report->ok() && report->num_answers > 0 &&
          report->naive_checked) {
        return seed;
      }
    }
    return uint64_t{0};
  }();
  if (cached == 0) {
    ADD_FAILURE() << "no seed in [1, 64) yields a non-empty clean case";
    return 1;
  }
  return cached;
}

TEST(FuzzOracleTest, CleanEnginePassesManySeeds) {
  FuzzConfig cfg;
  OracleOptions opts = FastOracleOptions();
  for (uint64_t seed = 0; seed < 40; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "seed " << seed << ": [" << ViolationKindToString(report->kind)
        << "] " << report->violation << "\nsql: " << c.query.Sql();
  }
}

TEST(FuzzOracleTest, EveryInjectedBugIsCaught) {
  const uint64_t seed = NonEmptySeed();
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  FuzzCase c = GenerateCase(seed, cfg);
  for (BugInjection inject : {BugInjection::kProbBias,
                              BugInjection::kDropAnswer,
                              BugInjection::kParallelSkew}) {
    OracleOptions opts = FastOracleOptions();
    opts.inject = inject;
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_FALSE(report->ok())
        << "injection " << static_cast<int>(inject) << " went undetected";
  }
}

// The headline acceptance property: an injected probability bug shrinks to a
// reproducer of at most 2 tables and at most 10 rows.
TEST(FuzzOracleTest, InjectedProbBugShrinksToTinyCase) {
  const uint64_t seed = NonEmptySeed();
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  FuzzCase c = GenerateCase(seed, cfg);

  OracleOptions opts = FastOracleOptions();
  opts.inject = BugInjection::kProbBias;
  auto probe = [&](const FuzzCase& cand) {
    auto report = RunOracles(cand, opts);
    return report.ok() ? report->kind : ViolationKind::kNone;
  };
  ASSERT_NE(probe(c), ViolationKind::kNone);

  ShrinkStats stats;
  FuzzCase shrunk = ShrinkCase(c, probe, &stats);
  EXPECT_LE(shrunk.tables.size(), 2u);
  EXPECT_LE(shrunk.TotalRows(), 10u);
  EXPECT_GT(stats.attempts, 0u);
  // The shrunk case still fails, and with the same oracle family.
  EXPECT_NE(probe(shrunk), ViolationKind::kNone);
  // And passes once the bug is gone.
  OracleOptions clean = FastOracleOptions();
  auto report = RunOracles(shrunk, clean);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->violation;
}

TEST(FuzzOracleTest, ShrunkCaseSurvivesCorpusRoundTrip) {
  const uint64_t seed = NonEmptySeed();
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  OracleOptions opts = FastOracleOptions();
  opts.inject = BugInjection::kProbBias;
  auto probe = [&](const FuzzCase& cand) {
    auto report = RunOracles(cand, opts);
    return report.ok() ? report->kind : ViolationKind::kNone;
  };
  FuzzCase shrunk = ShrinkCase(GenerateCase(seed, cfg), probe, nullptr);

  std::string text = SerializeCase(shrunk, "round-trip test");
  auto parsed = ParseCaseText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  // Serialize -> parse -> serialize is a fixed point.
  std::string text2 = SerializeCase(*parsed);
  auto parsed2 = ParseCaseText(text2);
  ASSERT_TRUE(parsed2.ok()) << parsed2.status().ToString();
  EXPECT_EQ(SerializeCase(*parsed2), text2);
  // The reloaded case still trips the injected bug and passes without it.
  EXPECT_NE(probe(*parsed), ViolationKind::kNone);
  auto report = RunOracles(*parsed, FastOracleOptions());
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_TRUE(report->ok()) << report->violation;
}

// The index dimension end to end: with the index knobs maxed every case
// carries CREATE INDEX ops (plus slice-invalidating SetValues and selective
// predicate templates), the oracle battery — which now sweeps index access
// on vs off — stays clean, and the ops survive a corpus round trip.
TEST(FuzzOracleTest, IndexedCasesPassOraclesAndRoundTrip) {
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  cfg.index_rate = 1.0;
  cfg.selective_pred_rate = 1.0;
  cfg.index_setvalue_rate = 1.0;
  OracleOptions opts = FastOracleOptions();
  size_t indexed = 0;
  size_t invalidated = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    for (const FuzzOp& op : c.ops) {
      if (op.kind == FuzzOp::Kind::kCreateIndex) ++indexed;
      if (op.kind == FuzzOp::Kind::kSetValue) ++invalidated;
    }
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "seed " << seed << ": [" << ViolationKindToString(report->kind)
        << "] " << report->violation << "\nsql: " << c.query.Sql();

    std::string text = SerializeCase(c, "indexed round-trip test");
    auto parsed = ParseCaseText(text);
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
    ASSERT_EQ(parsed->ops.size(), c.ops.size());
    for (size_t i = 0; i < c.ops.size(); ++i) {
      EXPECT_EQ(static_cast<int>(parsed->ops[i].kind),
                static_cast<int>(c.ops[i].kind));
      EXPECT_EQ(parsed->ops[i].column, c.ops[i].column);
    }
  }
  // index_rate = 1.0: every table of every case got an index.
  EXPECT_GE(indexed, 20u);
  EXPECT_GT(invalidated, 0u) << "no case exercised slice invalidation";
}

TEST(FuzzOracleTest, MutantsExerciseRejectPath) {
  FuzzConfig cfg;
  cfg.mutant_rate = 1.0;
  OracleOptions opts = FastOracleOptions();
  size_t mutants = 0;
  for (uint64_t seed = 0; seed < 30; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    if (c.query.expect_rewritable) continue;
    ++mutants;
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "mutant '" << c.query.mutation << "' violated: "
        << report->violation << "\nsql: " << c.query.Sql();
  }
  EXPECT_GT(mutants, 0u);
}

// The mutation-stage acceptance property: an injected renormalization bug
// (incremental maintenance skips the first touched cluster) is caught by
// the maintenance oracle and shrinks to a reproducer of at most 6 write
// steps that passes once the bug is gone.
TEST(FuzzOracleTest, RenormSkipIsCaughtAndShrinksToFewWrites) {
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  cfg.write_rate = 1.0;  // every rewritable case carries writes
  OracleOptions opts = FastOracleOptions();
  opts.inject = BugInjection::kRenormSkip;

  FuzzCase failing;
  bool found = false;
  for (uint64_t seed = 1; seed < 64 && !found; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    if (c.writes.empty()) continue;
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (!report->ok()) {
      EXPECT_EQ(report->kind, ViolationKind::kMaintenance)
          << report->violation;
      failing = std::move(c);
      found = true;
    }
  }
  ASSERT_TRUE(found) << "no seed in [1, 64) trips the injected renorm bug";

  auto probe = [&](const FuzzCase& cand) {
    auto report = RunOracles(cand, opts);
    return report.ok() ? report->kind : ViolationKind::kNone;
  };
  ShrinkStats stats;
  FuzzCase shrunk = ShrinkCase(failing, probe, &stats);
  EXPECT_LE(shrunk.writes.size(), 6u);
  EXPECT_LE(shrunk.tables.size(), 2u);
  EXPECT_GT(stats.attempts, 0u);
  EXPECT_NE(probe(shrunk), ViolationKind::kNone);

  // The shrunk case survives a corpus round trip with its write steps.
  std::string text = SerializeCase(shrunk, "renorm_skip shrink test");
  auto parsed = ParseCaseText(text);
  ASSERT_TRUE(parsed.ok()) << parsed.status().ToString() << "\n" << text;
  ASSERT_EQ(parsed->writes.size(), shrunk.writes.size());
  EXPECT_NE(probe(*parsed), ViolationKind::kNone);

  // A clean engine passes the same case, writes included.
  auto clean = RunOracles(shrunk, FastOracleOptions());
  ASSERT_TRUE(clean.ok()) << clean.status().ToString();
  EXPECT_TRUE(clean->ok()) << clean->violation;
}

TEST(FuzzOracleTest, MutationStageRunsCleanOnManySeeds) {
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  cfg.write_rate = 1.0;
  OracleOptions opts = FastOracleOptions();
  size_t with_writes = 0;
  for (uint64_t seed = 0; seed < 20; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    if (!c.writes.empty()) ++with_writes;
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    EXPECT_TRUE(report->ok())
        << "seed " << seed << ": [" << ViolationKindToString(report->kind)
        << "] " << report->violation;
  }
  EXPECT_GT(with_writes, 0u);
}

// NULL-identifier matching is fuzzed: generated writes insert NULL-id rows,
// and an injected matching bug (every such row founds a fresh cluster) is
// caught by the maintenance oracle while the clean engine passes.
TEST(FuzzOracleTest, MatchSkipIsCaught) {
  FuzzConfig cfg;
  cfg.mutant_rate = 0.0;
  cfg.write_rate = 1.0;
  OracleOptions opts = FastOracleOptions();
  opts.inject = BugInjection::kMatchSkip;
  bool found = false;
  for (uint64_t seed = 1; seed < 64 && !found; ++seed) {
    FuzzCase c = GenerateCase(seed, cfg);
    if (c.writes.empty()) continue;
    auto report = RunOracles(c, opts);
    ASSERT_TRUE(report.ok()) << report.status().ToString();
    if (report->ok()) continue;
    EXPECT_EQ(report->kind, ViolationKind::kMaintenance) << report->violation;
    EXPECT_NE(report->violation.find("NULL-id row"), std::string::npos)
        << report->violation;
    auto clean = RunOracles(c, FastOracleOptions());
    ASSERT_TRUE(clean.ok()) << clean.status().ToString();
    EXPECT_TRUE(clean->ok()) << clean->violation;
    found = true;
  }
  EXPECT_TRUE(found) << "no seed in [1, 64) trips the injected match bug";
}

TEST(FuzzOracleTest, ParseBugInjectionNames) {
  EXPECT_TRUE(ParseBugInjection("none").ok());
  EXPECT_TRUE(ParseBugInjection("prob_bias").ok());
  EXPECT_TRUE(ParseBugInjection("drop_answer").ok());
  EXPECT_TRUE(ParseBugInjection("parallel_skew").ok());
  EXPECT_TRUE(ParseBugInjection("renorm_skip").ok());
  EXPECT_TRUE(ParseBugInjection("match_skip").ok());
  EXPECT_FALSE(ParseBugInjection("nonsense").ok());
}

TEST(FuzzOracleTest, RunFuzzSmokeIsClean) {
  FuzzOptions options;
  options.seed = 1234;
  options.iterations = 15;
  options.oracle = FastOracleOptions();
  auto summary = RunFuzz(options);
  ASSERT_TRUE(summary.ok()) << summary.status().ToString();
  EXPECT_EQ(summary->violations, 0u)
      << Join(summary->violation_messages, "\n");
  EXPECT_EQ(summary->cases, 15u);
  EXPECT_GT(summary->naive_checked, 0u);
}

}  // namespace
}  // namespace fuzz
}  // namespace conquer
