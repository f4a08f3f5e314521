// Interactive shell over a saved (or generated) dirty database.
//
// Run:  ./build/examples/conquer_shell [dir]
//   dir: a directory written by SaveDatabase; when omitted, a small dirty
//        TPC-H database is generated in memory.
//
// Commands:
//   <select ...>;          ordinary SQL over the dirty data
//                          (EXPLAIN / EXPLAIN ANALYZE prefixes work here)
//   .clean <select ...>;   clean answers (probability per answer)
//   .rewrite <select ...>; show the RewriteClean SQL
//   .check <select ...>;   rewritability verdict (Dfn 7)
//   .explain <select ...>; physical plan
//   .prepare <name> <select ...>;  prepare a statement ('?' placeholders)
//   .exec <name> [v1, v2, ...];    execute it with bound parameters
//   .stats                 toggle per-query timing/operator stats
//   .sessions              serving-layer stats (plan cache, admission)
//   .threads <n>           worker threads for parallel execution (1 = off)
//   .tables                list tables
//   .save <dir>            persist the database
//   .quit
// A dot-command's argument may end in ';', as statements do.
//
// Plain SQL runs through a QueryService session, so repeated statements hit
// the plan cache (visible in .sessions / .stats output).

#include <cctype>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>
#include <string_view>
#include <vector>

#include "common/str_util.h"
#include "core/clean_engine.h"
#include "engine/persist.h"
#include "engine/service.h"
#include "gen/tpch_dirty.h"
#include "prob/incremental.h"

using namespace conquer;

namespace {

void PrintStatus(const Status& s) {
  std::printf("error: %s\n", s.ToString().c_str());
}

/// Parses a comma-separated parameter list: integers, doubles, 'strings'
/// (with '' escaping) and NULL.
Result<std::vector<Value>> ParseParams(const std::string& text) {
  std::vector<Value> params;
  size_t pos = 0;
  auto skip_ws = [&] {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos]))) {
      ++pos;
    }
  };
  skip_ws();
  while (pos < text.size()) {
    if (text[pos] == '\'') {
      std::string s;
      ++pos;
      while (true) {
        if (pos >= text.size()) {
          return Status::InvalidArgument("unterminated string parameter");
        }
        if (text[pos] == '\'') {
          if (pos + 1 < text.size() && text[pos + 1] == '\'') {
            s += '\'';
            pos += 2;
            continue;
          }
          ++pos;
          break;
        }
        s += text[pos++];
      }
      params.push_back(Value::String(std::move(s)));
    } else {
      size_t start = pos;
      while (pos < text.size() && text[pos] != ',') ++pos;
      std::string tok = text.substr(start, pos - start);
      while (!tok.empty() &&
             std::isspace(static_cast<unsigned char>(tok.back()))) {
        tok.pop_back();
      }
      if (tok.empty()) {
        return Status::InvalidArgument("empty parameter in list");
      }
      if (EqualsIgnoreCase(tok, "null")) {
        params.push_back(Value::Null());
      } else if (tok.find_first_of(".eE") != std::string::npos) {
        params.push_back(Value::Double(std::atof(tok.c_str())));
      } else {
        params.push_back(Value::Int(std::atoll(tok.c_str())));
      }
    }
    skip_ws();
    if (pos < text.size()) {
      if (text[pos] != ',') {
        return Status::InvalidArgument("expected ',' between parameters");
      }
      ++pos;
      skip_ws();
    }
  }
  return params;
}

/// The argument of a dot-command: the text after `prefix_len` characters,
/// without surrounding whitespace and without one trailing ';' (the shell
/// ends statements with ';', so users type one after dot-commands too).
std::string DotArgument(const std::string& buffer, size_t prefix_len) {
  std::string_view arg = Trim(std::string_view(buffer).substr(prefix_len));
  if (!arg.empty() && arg.back() == ';') {
    arg = Trim(arg.substr(0, arg.size() - 1));
  }
  return std::string(arg);
}

}  // namespace

int main(int argc, char** argv) {
  std::unique_ptr<Database> owned_db;
  DirtySchema dirty;
  std::unique_ptr<TpchDirtyDatabase> generated;
  Database* db = nullptr;

  if (argc > 1) {
    auto loaded = LoadDatabase(argv[1], &dirty);
    if (!loaded.ok()) {
      PrintStatus(loaded.status());
      return 1;
    }
    owned_db = std::move(loaded).value();
    db = owned_db.get();
    std::printf("Loaded database from %s\n", argv[1]);
  } else {
    TpchDirtyConfig config;
    config.scale_factor = 0.002;
    config.inconsistency_factor = 3;
    auto gen = MakeTpchDirtyDatabase(config);
    if (!gen.ok()) {
      PrintStatus(gen.status());
      return 1;
    }
    generated = std::make_unique<TpchDirtyDatabase>(std::move(gen).value());
    if (Status s = generated->BuildIndexesAndStats(); !s.ok()) {
      PrintStatus(s);
      return 1;
    }
    dirty = generated->dirty;
    db = generated->db.get();
    std::printf("Generated dirty TPC-H (sf=0.002, if=3), %zu tuples.\n",
                generated->TotalRows());
  }

  // Writes through the session (INSERT/UPDATE/DELETE) renormalize the
  // touched dirty clusters, so .clean stays meaningful after edits.
  if (Status s = InstallIncrementalMaintenance(db, &dirty); !s.ok()) {
    PrintStatus(s);
    return 1;
  }

  CleanAnswerEngine engine(db, &dirty);
  QueryService service(db);
  std::unique_ptr<Session> session = service.CreateSession("shell");
  std::printf("Type .help for commands; statements end with ';'.\n");

  bool show_stats = false;
  std::string buffer;
  std::string line;
  while (std::printf("conquer> "), std::fflush(stdout),
         std::getline(std::cin, line)) {
    buffer += line;
    if (buffer.empty()) continue;
    // Dot-commands without arguments execute immediately.
    if (buffer == ".quit" || buffer == ".exit") break;
    if (buffer == ".help") {
      std::printf(
          "  select ...;            ordinary SQL\n"
          "  .clean select ...;     clean answers with probabilities\n"
          "  .rewrite select ...;   show RewriteClean output\n"
          "  .check select ...;     rewritability verdict\n"
          "  .explain select ...;   physical plan\n"
          "  .prepare <name> select ...;  prepare ('?' placeholders allowed)\n"
          "  .exec <name> v1, v2, ...;    run a prepared statement\n"
          "  .stats                 toggle per-query stats (phases + operators)\n"
          "  .sessions              serving-layer stats (plan cache, admission)\n"
          "  .threads <n>           worker threads for parallel execution\n"
          "  .memory_budget <size>  cap resident chunk bytes (64m, 2g,\n"
          "                         unlimited); excess spills to disk\n"
          "  .tables                list tables\n"
          "  .save <dir>            persist database (binary segments)\n"
          "  .quit\n");
      buffer.clear();
      continue;
    }
    if (buffer == ".stats") {
      show_stats = !show_stats;
      std::printf("per-query stats %s\n", show_stats ? "on" : "off");
      buffer.clear();
      continue;
    }
    if (buffer == ".sessions") {
      const ServiceStats ss = service.stats();
      std::printf(
          "sessions created:    %llu\n"
          "queries executed:    %llu  (%llu errors, %llu prepared)\n"
          "plan cache:          %llu hits / %llu misses (%.1f%% hit rate), "
          "%zu entries\n"
          "  invalidated:       %llu  evicted: %llu  reprepares: %llu\n"
          "admission:           %llu admitted, %llu waited, peak %zu "
          "concurrent (max %zu)\n",
          static_cast<unsigned long long>(ss.sessions_created),
          static_cast<unsigned long long>(ss.queries_executed),
          static_cast<unsigned long long>(ss.query_errors),
          static_cast<unsigned long long>(ss.prepared_executions),
          static_cast<unsigned long long>(ss.plan_cache.hits),
          static_cast<unsigned long long>(ss.plan_cache.misses),
          100.0 * ss.plan_cache.hit_rate(), ss.plan_cache.entries,
          static_cast<unsigned long long>(ss.plan_cache.invalidated),
          static_cast<unsigned long long>(ss.plan_cache.evicted),
          static_cast<unsigned long long>(ss.reprepares),
          static_cast<unsigned long long>(ss.admission.admitted),
          static_cast<unsigned long long>(ss.admission.waited),
          ss.admission.peak_active, db->max_concurrent_queries());
      for (const std::string& name : session->PreparedNames()) {
        const PreparedStatement* ps = session->GetPrepared(name);
        std::printf("  prepared %-10s (%d params): %s\n", name.c_str(),
                    ps->num_params, ps->sql.c_str());
      }
      buffer.clear();
      continue;
    }
    if (buffer == ".tables") {
      for (const std::string& name : db->catalog().TableNames()) {
        auto t = db->GetTable(name);
        std::printf("  %-12s %zu rows%s\n", name.c_str(),
                    t.ok() ? (*t)->num_rows() : 0,
                    dirty.Find(name) != nullptr ? "  [dirty]" : "");
      }
      buffer.clear();
      continue;
    }
    if (buffer.rfind(".threads ", 0) == 0) {
      int n = std::atoi(DotArgument(buffer, 9).c_str());
      if (n < 1) {
        std::printf("usage: .threads <n>  (n >= 1)\n");
      } else {
        db->SetThreads(static_cast<size_t>(n));
        std::printf("worker threads: %zu%s\n", db->num_threads(),
                    db->num_threads() == 1 ? " (sequential)" : "");
      }
      buffer.clear();
      continue;
    }
    if (buffer.rfind(".memory_budget ", 0) == 0) {
      const std::string arg = DotArgument(buffer, 15);
      uint64_t bytes = 0;
      if (!ParseByteSize(arg, &bytes)) {
        std::printf("usage: .memory_budget <bytes|Nk|Nm|Ng|unlimited>\n");
      } else {
        db->SetMemoryBudget(bytes);
        const BufferPool::Stats ps = db->buffer_pool()->stats();
        if (bytes == 0) {
          std::printf("memory budget: unlimited (resident %.1f MB)\n",
                      static_cast<double>(ps.resident_bytes) / (1024.0 * 1024.0));
        } else {
          std::printf("memory budget: %.1f MB (resident %.1f MB, "
                      "%llu chunks evicted so far)\n",
                      static_cast<double>(bytes) / (1024.0 * 1024.0),
                      static_cast<double>(ps.resident_bytes) / (1024.0 * 1024.0),
                      static_cast<unsigned long long>(ps.chunks_evicted));
        }
      }
      buffer.clear();
      continue;
    }
    if (buffer.rfind(".save ", 0) == 0) {
      const std::string dir = DotArgument(buffer, 6);
      if (dir.empty()) {
        std::printf("usage: .save <dir>\n");
      } else if (Status s = SaveDatabase(*db, dir, &dirty); !s.ok()) {
        PrintStatus(s);
      } else {
        std::printf("saved to %s\n", dir.c_str());
      }
      buffer.clear();
      continue;
    }
    // Statements wait for a terminating ';'.
    if (buffer.back() != ';') {
      buffer += ' ';
      continue;
    }
    std::string stmt = buffer.substr(0, buffer.size() - 1);
    buffer.clear();

    auto run = [&](const std::string& cmd, const std::string& sql) {
      if (cmd == "clean") {
        QueryStats stats;
        auto answers = engine.Query(sql, show_stats ? &stats : nullptr);
        if (!answers.ok()) return PrintStatus(answers.status());
        answers->SortByProbabilityDesc();
        std::printf("%s", answers->ToString(25).c_str());
        if (show_stats) std::printf("%s", stats.ToString().c_str());
      } else if (cmd == "rewrite") {
        auto rewritten = engine.RewrittenSql(sql);
        if (!rewritten.ok()) return PrintStatus(rewritten.status());
        std::printf("%s\n", rewritten->c_str());
      } else if (cmd == "check") {
        auto check = engine.Check(sql);
        if (!check.ok()) return PrintStatus(check.status());
        if (check->rewritable) {
          std::printf("rewritable (root: FROM entry %d)\n",
                      check->root_from_index);
        } else {
          std::printf("NOT rewritable: %s\n", check->reason.c_str());
        }
      } else if (cmd == "explain") {
        auto plan = db->Query("EXPLAIN " + sql);
        if (!plan.ok()) return PrintStatus(plan.status());
        for (const Row& line : plan->rows) {
          std::printf("%s\n", line[0].string_value().c_str());
        }
      } else if (cmd == "prepare") {
        // sql here is "<name> <select ...>".
        size_t space = sql.find(' ');
        if (space == std::string::npos) {
          std::printf("usage: .prepare <name> <select ...>;\n");
          return;
        }
        std::string name = sql.substr(0, space);
        Status s = session->Prepare(name, sql.substr(space + 1));
        if (!s.ok()) return PrintStatus(s);
        std::printf("prepared '%s' (%d params)\n", name.c_str(),
                    session->GetPrepared(name)->num_params);
      } else if (cmd == "exec") {
        // sql here is "<name> [v1, v2, ...]".
        size_t space = sql.find(' ');
        std::string name = sql.substr(0, space);
        auto params = ParseParams(
            space == std::string::npos ? "" : sql.substr(space + 1));
        if (!params.ok()) return PrintStatus(params.status());
        QueryStats stats;
        ExecInfo info;
        auto rs = session->ExecutePrepared(name, *params,
                                           show_stats ? &stats : nullptr,
                                           &info);
        if (!rs.ok()) return PrintStatus(rs.status());
        std::printf("%s", rs->ToString(50).c_str());
        if (show_stats) {
          std::printf("plan cache: %s%s\n%s", info.cache_hit ? "hit" : "miss",
                      info.reprepared ? " (reprepared)" : "",
                      stats.ToString().c_str());
        }
      } else {
        // Plain SQL, including EXPLAIN / EXPLAIN ANALYZE prefixes. Runs
        // through the session so repeated statements hit the plan cache.
        QueryStats stats;
        ExecInfo info;
        auto rs = session->Execute(sql, show_stats ? &stats : nullptr, &info);
        if (!rs.ok()) return PrintStatus(rs.status());
        std::printf("%s", rs->ToString(50).c_str());
        if (show_stats) {
          std::printf("plan cache: %s\n%s", info.cache_hit ? "hit" : "miss",
                      stats.ToString().c_str());
        }
      }
    };

    if (stmt.rfind(".clean ", 0) == 0) run("clean", stmt.substr(7));
    else if (stmt.rfind(".rewrite ", 0) == 0) run("rewrite", stmt.substr(9));
    else if (stmt.rfind(".check ", 0) == 0) run("check", stmt.substr(7));
    else if (stmt.rfind(".explain ", 0) == 0) run("explain", stmt.substr(9));
    else if (stmt.rfind(".prepare ", 0) == 0) run("prepare", stmt.substr(9));
    else if (stmt.rfind(".exec ", 0) == 0) run("exec", stmt.substr(6));
    else run("sql", stmt);
  }
  return 0;
}
