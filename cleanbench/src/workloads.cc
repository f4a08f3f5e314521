#include "workloads.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>
#include <unordered_map>

#include "common/rng.h"
#include "core/clean_engine.h"
#include "engine/persist.h"
#include "engine/service.h"
#include "gen/tpch_dirty.h"
#include "gen/tpch_queries.h"
#include "prob/assigner.h"
#include "prob/incremental.h"
#include "sql/parser.h"

namespace cleanbench {
namespace {

using conquer::CleanAnswerEngine;
using conquer::Database;
using conquer::DirtySchema;
using conquer::DirtyTableInfo;
using conquer::QueryStats;
using conquer::ResultSet;
using conquer::Rng;
using conquer::Row;
using conquer::Status;
using conquer::TpchDirtyConfig;
using conquer::TpchDirtyDatabase;
using conquer::Value;

// Workload sizes. The in-memory workloads use sf 0.01 (~87k rows); the
// out-of-core one sf 0.1 with a buffer pool of a tenth of its segments.
constexpr double kMemSf = 0.01;
constexpr double kColdSf = 0.1;
constexpr int kIf = 3;
constexpr int kColdBudgetPct = 10;
// Set-ups per run; setup_s is their median.
constexpr int kSetupReps = 3;
constexpr int kColdSetupReps = 3;
// The fast Figure-8 queries the served mix repeats.
constexpr int kServedQueries[] = {2, 6, 11, 14, 17, 20};
constexpr int kServedClients = 2;
// dirty_writes: writes per pass and clean reads after each write.
constexpr int kWritesPerPass = 300;
// cold_scan: lookup keys drawn per run, and lookups between two scans.
constexpr int kColdLookupKeys = 64;
constexpr int kColdLookupsPerScan = 8;

/// Seed of one operation stream, derived from --seed and the stream's
/// number, so one --seed fixes every client's operations.
uint64_t OpSeed(uint64_t seed, uint64_t stream) {
  return seed * 0x9E3779B97F4A7C15ULL + 0x632BE59BD9B4E019ULL * (stream + 1);
}

size_t Below(Rng* rng, size_t n) {
  return static_cast<size_t>(rng->Uniform(0, static_cast<int64_t>(n) - 1));
}

// ----------------------------------------------------------- stored digests

class Digests {
 public:
  Digests(const RunOptions& o, RunResult* r) : o_(o), r_(r) {
    std::ifstream in(o.digests_path);
    std::string line;
    // Lines: <data seed> <operation seed, or * when the answer depends on
    // the data alone> <workload> <key> <hex digest>.
    while (std::getline(in, line)) {
      std::istringstream ls(line);
      std::string data_seed, seed, workload, key, hex;
      if (!(ls >> data_seed >> seed >> workload >> key >> hex)) continue;
      if (data_seed == std::to_string(o.data_seed) &&
          (seed == "*" || seed == std::to_string(o.seed)) &&
          workload == o.workload) {
        stored_[key] = hex;
      }
    }
  }

  /// Checks (or, when recording, prints) the digest stored under `key`.
  /// `data_only` digests hold for every operation seed; the others only
  /// for the operation seed they were recorded with. Seeds without stored
  /// digests pass.
  void Check(const std::string& key, uint64_t digest, bool data_only) {
    if (o_.record_digests) {
      std::printf("digest %llu %s %s %s %s\n",
                  static_cast<unsigned long long>(o_.data_seed),
                  data_only ? "*" : std::to_string(o_.seed).c_str(),
                  o_.workload.c_str(), key.c_str(), HexDigest(digest).c_str());
      return;
    }
    auto it = stored_.find(key);
    if (it == stored_.end()) return;
    ++checked_;
    if (it->second != HexDigest(digest)) {
      r_->correct = false;
      r_->problems.push_back("digest of " + key + " is " + HexDigest(digest) +
                             ", stored " + it->second);
    }
  }

  size_t checked() const { return checked_; }

 private:
  const RunOptions& o_;
  RunResult* r_;
  std::map<std::string, std::string> stored_;
  size_t checked_ = 0;
};

// ------------------------------------------------------------ layer counters

/// Counts the traced run takes from QueryStats and hooks, beside its spans.
struct LayerCounters {
  uint64_t ops = 0;
  uint64_t result_rows = 0;
  uint64_t node_rows = 0;
  double hashagg_input_rows = 0;
  double q1_hashagg_self_s = 0;
  double q1_exec_s = 0;
  double skew_sum = 0;
  uint64_t skew_nodes = 0;
  uint64_t scan_queries = 0;
  uint64_t scan_chunks = 0;
  uint64_t lookups = 0;
  uint64_t lookup_chunks = 0;
  double backlog_sum = 0;
  uint64_t backlog_samples = 0;
  uint64_t writes = 0;
  uint64_t clusters = 0;

  void Merge(const LayerCounters& o) {
    ops += o.ops;
    result_rows += o.result_rows;
    node_rows += o.node_rows;
    hashagg_input_rows += o.hashagg_input_rows;
    q1_hashagg_self_s += o.q1_hashagg_self_s;
    q1_exec_s += o.q1_exec_s;
    skew_sum += o.skew_sum;
    skew_nodes += o.skew_nodes;
    scan_queries += o.scan_queries;
    scan_chunks += o.scan_chunks;
    lookups += o.lookups;
    lookup_chunks += o.lookup_chunks;
    backlog_sum += o.backlog_sum;
    backlog_samples += o.backlog_samples;
    writes += o.writes;
    clusters += o.clusters;
  }
};

enum class QueryKind { kScan, kLookup };

void ObserveNode(const conquer::PlanNodeStats& n, LayerCounters* c,
                 uint64_t* chunks) {
  c->node_rows += n.metrics.rows_produced;
  *chunks += n.metrics.chunks_loaded;
  if (n.description.rfind("HashAggregate", 0) == 0) {
    for (const auto& child : n.children) {
      c->hashagg_input_rows += static_cast<double>(child.metrics.rows_produced);
    }
  }
  const auto& w = n.metrics.worker_rows;
  if (n.metrics.parallel_degree > 1 && !w.empty()) {
    uint64_t sum = 0;
    uint64_t max = 0;
    for (uint64_t x : w) {
      sum += x;
      max = std::max(max, x);
    }
    if (sum > 0) {
      c->skew_sum += static_cast<double>(max) * static_cast<double>(w.size()) /
                     static_cast<double>(sum);
      ++c->skew_nodes;
    }
  }
  for (const auto& child : n.children) ObserveNode(child, c, chunks);
}

void Observe(const QueryStats& st, QueryKind kind, bool clean_q1,
             LayerCounters* c) {
  c->result_rows += st.rows_returned;
  uint64_t chunks = 0;
  ObserveNode(st.plan, c, &chunks);
  if (kind == QueryKind::kLookup) {
    ++c->lookups;
    c->lookup_chunks += chunks;
  } else {
    ++c->scan_queries;
    c->scan_chunks += chunks;
  }
  if (clean_q1) {
    c->q1_hashagg_self_s += st.OperatorSelfSeconds("HashAggregate");
    c->q1_exec_s += st.exec_seconds;
  }
}

/// Service- and storage-level numbers a workload adds to its layer report.
struct LayerExtras {
  int setups = 0;
  double plan_cache_hit_rate = 0;
  double plan_cache_invalidated = 0;
  double admission_wait_share = 0;
  double versions_per_live_row = 1;
  double chunks_evicted = 0;
  double pool_peak_mb = 0;
  double clean_overhead = 0;
  double overhead_share = 0;
};

std::vector<Metric> LayerMetrics(const std::vector<Span>& spans,
                                 const LayerCounters& c,
                                 const LayerExtras& x) {
  const std::map<std::string, double> self = SelfTimeByName(spans);
  auto self_ms = [&](const std::string& name) {
    auto it = self.find(name);
    return it == self.end() ? 0.0 : it->second;
  };
  double exec_total_ms = 0;
  double op_total_ms = 0;
  double op_self_ms = 0;
  const std::vector<double> selfs = SelfTimes(spans);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double d = spans[i].end_ms - spans[i].start_ms;
    if (spans[i].name == "exec") exec_total_ms += d;
    if (spans[i].name == "op") {
      op_total_ms += d;
      op_self_ms += selfs[i];
    }
  }
  const double ops = std::max<double>(1, static_cast<double>(c.ops));
  const double writes = std::max<double>(1, static_cast<double>(c.writes));
  const double setups = std::max(1, x.setups);
  auto per_op = [&](const std::string& name) { return self_ms(name) / ops; };
  auto per_setup = [&](const std::string& name) {
    return self_ms(name) / 1e3 / setups;
  };
  auto ratio = [](double a, double b) { return b > 0 ? a / b : 0.0; };
  const double hashagg = self_ms("exec.HashAggregate");

  return {
      {"gen.generate_s", per_setup("gen.generate"), "s"},
      {"prob.propagate_s", per_setup("prob.propagate"), "s"},
      {"prob.assign_s", per_setup("prob.assign"), "s"},
      {"engine.index_stats_s", per_setup("engine.index_stats"), "s"},
      {"engine.save_s", per_setup("engine.save"), "s"},
      {"engine.load_s", per_setup("engine.load"), "s"},
      {"sql.parse_ms", per_op("sql.parse"), "ms"},
      {"core.rewrite_ms", per_op("core.rewrite"), "ms"},
      {"core.decode_ms", per_op("core.query"), "ms"},
      {"plan.bind_ms", per_op("plan.bind"), "ms"},
      {"plan.plan_ms", per_op("plan.plan"), "ms"},
      {"exec.exec_ms", exec_total_ms / ops, "ms"},
      {"exec.hashagg_self_ms", hashagg / ops, "ms"},
      {"exec.hashagg_share", ratio(hashagg, exec_total_ms), "ratio"},
      {"exec.q1_hashagg_share", ratio(c.q1_hashagg_self_s, c.q1_exec_s),
       "ratio"},
      {"exec.hashagg_ns_per_input_row",
       ratio(hashagg * 1e6, c.hashagg_input_rows), "ns/row"},
      {"exec.seqscan_self_ms", per_op("exec.SeqScan"), "ms"},
      {"exec.hashjoin_self_ms",
       (self_ms("exec.HashJoin") + self_ms("exec.CrossJoin")) / ops, "ms"},
      {"exec.indexscan_self_ms", per_op("exec.IndexScan"), "ms"},
      {"exec.inlj_self_ms", per_op("exec.IndexNestedLoopJoin"), "ms"},
      {"exec.sort_self_ms", per_op("exec.Sort"), "ms"},
      {"exec.rows_examined_per_result_row",
       ratio(static_cast<double>(c.node_rows),
             static_cast<double>(c.result_rows)),
       "ratio"},
      {"exec.worker_skew",
       ratio(c.skew_sum, static_cast<double>(c.skew_nodes)), "ratio"},
      {"common.scheduler_backlog",
       ratio(c.backlog_sum, static_cast<double>(c.backlog_samples)), "count"},
      {"engine.plan_cache_hit_rate", x.plan_cache_hit_rate, "ratio"},
      {"engine.plan_cache_invalidated", x.plan_cache_invalidated, "count"},
      {"engine.service_overhead_ms", per_op("engine.session"), "ms"},
      {"engine.admission_wait_share", x.admission_wait_share, "ratio"},
      {"engine.write_self_ms", self_ms("engine.write") / writes, "ms"},
      {"prob.maintenance_ms", self_ms("prob.maintenance") / writes, "ms"},
      {"prob.clusters_per_write",
       static_cast<double>(c.clusters) / writes, "count"},
      {"storage.versions_per_live_row", x.versions_per_live_row, "ratio"},
      {"storage.chunks_loaded_per_query",
       ratio(static_cast<double>(c.scan_chunks),
             static_cast<double>(c.scan_queries)),
       "count"},
      {"storage.chunks_faulted_per_lookup",
       ratio(static_cast<double>(c.lookup_chunks),
             static_cast<double>(c.lookups)),
       "count"},
      {"storage.chunks_evicted", x.chunks_evicted, "count"},
      {"storage.io_read_ms", per_op("storage.io_read"), "ms"},
      {"storage.pool_peak_mb", x.pool_peak_mb, "MB"},
      {"core.clean_overhead", x.clean_overhead, "ratio"},
      {"trace.unattributed_share", ratio(op_self_ms, op_total_ms), "ratio"},
      {"trace.overhead_share", x.overhead_share, "ratio"},
  };
}

// ------------------------------------------------------------------- set-up

double SecondsSince(Clock::time_point t0) {
  return Ms(t0, Clock::now()) / 1e3;
}

/// Runs `fn` inside a set-up span named `name`.
template <typename Fn>
Status Step(Tracer* tr, int parent, const char* name, Fn&& fn) {
  const int s = tr->Open(name, 0, parent);
  Status st = fn();
  tr->Close(s);
  return st;
}

/// Generates the in-memory workloads' database: the generator's dirty data
/// without probabilities, identifier propagation, the Figure-5 assignment
/// on every dirty table, then indexes and statistics.
conquer::Result<std::unique_ptr<TpchDirtyDatabase>> BuildInMemory(
    uint64_t seed, Tracer* tr) {
  const int root = tr->Open("setup", 0, -1);
  auto tdb = std::make_unique<TpchDirtyDatabase>();
  Status s = Step(tr, root, "gen.generate", [&]() -> Status {
    TpchDirtyConfig cfg;
    cfg.scale_factor = kMemSf;
    cfg.inconsistency_factor = kIf;
    cfg.seed = seed;
    cfg.fill_probabilities = false;
    cfg.propagate_identifiers = false;
    auto gen = conquer::MakeTpchDirtyDatabase(cfg);
    if (!gen.ok()) return gen.status();
    *tdb = std::move(gen).value();
    tdb->db->SetMemoryBudget(0);
    return Status::OK();
  });
  if (s.ok()) {
    s = Step(tr, root, "prob.propagate",
             [&]() { return tdb->Propagate().status(); });
  }
  if (s.ok()) {
    s = Step(tr, root, "prob.assign", [&]() -> Status {
      for (const DirtyTableInfo& info : tdb->dirty.tables()) {
        if (info.prob_column.empty()) continue;
        auto table = tdb->db->GetTable(info.table_name);
        if (!table.ok()) return table.status();
        auto assigned = conquer::AssignProbabilities(*table, info);
        if (!assigned.ok()) return assigned.status();
      }
      return Status::OK();
    });
  }
  if (s.ok()) {
    s = Step(tr, root, "engine.index_stats",
             [&]() { return tdb->BuildIndexesAndStats(); });
  }
  tr->Close(root);
  if (!s.ok()) return s;
  return tdb;
}

/// Builds the in-memory database `reps` times, appending each set-up's
/// seconds to `setup_s`, and keeps the last one.
conquer::Result<std::unique_ptr<TpchDirtyDatabase>> SetUpInMemory(
    uint64_t data_seed, int reps, Tracer* tr, std::vector<double>* setup_s) {
  std::unique_ptr<TpchDirtyDatabase> tdb;
  for (int rep = 0; rep < reps; ++rep) {
    tdb.reset();
    const Clock::time_point t0 = Clock::now();
    auto built = BuildInMemory(data_seed, tr);
    if (!built.ok()) return built.status();
    setup_s->push_back(SecondsSince(t0));
    tdb = std::move(built).value();
  }
  return tdb;
}

RunResult SetupFailure(RunResult r, const std::string& what,
                       const Status& s) {
  r.correct = false;
  r.problems.push_back(what + ": " + s.ToString());
  return r;
}

// --------------------------------------------------------- result assembly

void AddHeader(const RunOptions& o, double sf, int db_threads, int clients,
               RunResult* r) {
  r->header.emplace_back("workload", JsonString(o.workload));
  r->header.emplace_back("seed", std::to_string(o.seed));
  r->header.emplace_back("data_seed", std::to_string(o.data_seed));
  r->header.emplace_back("seconds", FormatNumber(o.seconds));
  r->header.emplace_back("trace", o.trace ? "true" : "false");
  r->header.emplace_back("sf", FormatNumber(sf));
  r->header.emplace_back("if", std::to_string(kIf));
  r->header.emplace_back("db_threads", std::to_string(db_threads));
  r->header.emplace_back("clients", std::to_string(clients));
}

Clock::time_point Deadline(double seconds) {
  return Clock::now() + std::chrono::duration_cast<Clock::duration>(
                            std::chrono::duration<double>(seconds));
}

/// Plan-cache and admission numbers of the traced phase, from the service's
/// counters before and after it.
void AddServiceExtras(const conquer::ServiceStats& before,
                      const conquer::ServiceStats& after, LayerExtras* x) {
  const auto delta = [](uint64_t a, uint64_t b) {
    return static_cast<double>(b - a);
  };
  const double hits = delta(before.plan_cache.hits, after.plan_cache.hits);
  const double lookups =
      hits + delta(before.plan_cache.misses, after.plan_cache.misses);
  x->plan_cache_hit_rate = lookups > 0 ? hits / lookups : 0;
  x->plan_cache_invalidated =
      delta(before.plan_cache.invalidated, after.plan_cache.invalidated);
  const double admitted =
      delta(before.admission.admitted, after.admission.admitted);
  x->admission_wait_share =
      admitted > 0
          ? delta(before.admission.waited, after.admission.waited) / admitted
          : 0;
}

/// The end-to-end metrics every workload reports, in BENCHMARK.json order.
/// Each class's sample count, minimum, quartile, median and tail (tail rule)
/// and the run's throughput go to the notes.
std::vector<Metric> EndToEnd(const std::vector<double>& setup_s,
                             double peak_rss_mb, const Recorder& rec,
                             const std::vector<OpClass>& classes,
                             double measured_s, RunResult* r) {
  for (size_t c = 0; c < classes.size(); ++c) {
    const std::vector<double>& l = rec.latencies(c);
    const Tail tail = TailPercentile(l);
    char buf[200];
    std::snprintf(buf, sizeof(buf),
                  "class %-16s n=%-6zu min_ms=%-10.4f p25_ms=%-10.4f "
                  "median_ms=%-10.4f p%g_ms=%.4f",
                  classes[c].name.c_str(), l.size(),
                  l.empty() ? 0.0 : *std::min_element(l.begin(), l.end()),
                  LowerQuartile(l), Median(l), tail.percentile, tail.value);
    r->notes.push_back(buf);
  }
  const double completed = static_cast<double>(rec.attempted() - rec.failed());
  r->notes.push_back("ops_per_s=" +
                     FormatNumber(measured_s > 0 ? completed / measured_s : 0));
  return {
      {"setup_s", Median(setup_s), "s"},
      {"peak_rss_mb", peak_rss_mb, "MB"},
      {"clean_min_ms", rec.FamilyGeoMean(classes, Family::kClean), "ms"},
      {"second_min_ms", rec.FamilyGeoMean(classes, Family::kSecond), "ms"},
  };
}

/// Traced runs measure half their time untraced and half traced; the
/// traced half's clean geomean over the untraced half's is the overhead.
double OverheadShare(const Recorder& untraced, const Recorder& traced,
                     const std::vector<OpClass>& classes) {
  const double u = untraced.FamilyGeoMean(classes, Family::kClean);
  const double t = traced.FamilyGeoMean(classes, Family::kClean);
  return u > 0 ? t / u - 1 : 0;
}

void WriteTrace(const RunOptions& o, const Tracer& tr, RunResult* r) {
  const std::string path = o.data_dir + "/trace-" + o.workload + "-" +
                           std::to_string(o.seed) + ".jsonl";
  if (WriteSpans(tr.spans(), path)) {
    r->header.emplace_back("trace_file", JsonString(path));
    r->header.emplace_back("spans", std::to_string(tr.spans().size()));
  } else {
    r->notes.push_back("could not write spans to " + path);
  }
}

void Finish(Recorder rec, RunResult* r) {
  r->attempted = rec.attempted();
  r->failed = rec.failed();
  if (r->failed > 0) r->correct = false;
}

// ------------------------------------------------------- one clean query

/// Runs CleanAnswerEngine::Query as one operation and returns its latency
/// in `*ms`. Traced, the engine stays a black box: the parse and rewrite it
/// performs inside Query are timed by repeating them just before the call
/// and laid out at the start of its span, Database::Execute's phases follow,
/// and the rest of the span is answer decoding (core.decode_ms).
conquer::Result<conquer::CleanAnswerSet> CleanQuery(
    const CleanAnswerEngine& engine, const std::string& sql, Tracer* t,
    uint64_t op, QueryStats* st, double* ms) {
  double parse_ms = 0;
  double rewrite_ms = 0;
  if (t->enabled()) {
    const Clock::time_point a = Clock::now();
    auto stmt = conquer::Parser::Parse(sql);
    const Clock::time_point b = Clock::now();
    if (stmt.ok()) (void)engine.rewriter().RewriteClean(**stmt);
    parse_ms = Ms(a, b);
    rewrite_ms = Ms(b, Clock::now());
  }
  const int root = t->Open("op", op, -1);
  const int call = t->Open("core.query", op, root);
  const Clock::time_point t0 = Clock::now();
  auto ans = engine.Query(sql, t->enabled() ? st : nullptr);
  *ms = Ms(t0, Clock::now());
  t->Close(call);
  t->Close(root);
  if (t->enabled() && ans.ok()) {
    const double s = t->spans()[static_cast<size_t>(call)].start_ms;
    const double e = t->spans()[static_cast<size_t>(call)].end_ms;
    const double p_end = std::min(e, s + parse_ms);
    t->Add("sql.parse", s, p_end, call, op);
    const double r_end = std::min(e, p_end + rewrite_ms);
    t->Add("core.rewrite", p_end, r_end, call, op);
    const int ex =
        t->Add("engine.execute", r_end,
               std::min(e, r_end + st->total_seconds() * 1e3), call, op);
    t->AddQueryStats(*st, ex, op);
  }
  return ans;
}

/// One served clean read: CleanRewriter rewrites the client's text, then
/// Session::Execute runs it. Traced, the rewrite is split into its parse
/// and rewrite calls (RewriteCleanSql is exactly Parse, RewriteClean and
/// ToString) and the execute span gets the QueryStats children.
conquer::Result<ResultSet> ServedQuery(const conquer::CleanRewriter& rewriter,
                                       conquer::Session* session,
                                       const std::string& sql, Tracer* t,
                                       uint64_t op, int root, QueryStats* st) {
  if (!t->enabled()) {
    auto text = rewriter.RewriteCleanSql(sql);
    if (!text.ok()) return text.status();
    return session->Execute(*text);
  }
  const int ps = t->Open("sql.parse", op, root);
  auto stmt = conquer::Parser::Parse(sql);
  t->Close(ps);
  if (!stmt.ok()) return stmt.status();
  const int rw = t->Open("core.rewrite", op, root);
  auto rewritten = rewriter.RewriteClean(**stmt);
  std::string text;
  if (rewritten.ok()) text = (*rewritten)->ToString();
  t->Close(rw);
  if (!rewritten.ok()) return rewritten.status();
  const int ex = t->Open("engine.session", op, root);
  auto rs = session->Execute(text, st);
  t->Close(ex);
  if (rs.ok()) t->AddQueryStats(*st, ex, op);
  return rs;
}

// -------------------------------------------------------------- fig8_clean

RunResult RunFig8Clean(const RunOptions& o) {
  RunResult r;
  AddHeader(o, kMemSf, 1, 1, &r);
  r.header.emplace_back("memory_budget_mb", "0");

  Tracer tr(o.trace, Clock::now());
  std::vector<double> setup_s;
  auto built = SetUpInMemory(o.data_seed, kSetupReps, &tr, &setup_s);
  if (!built.ok()) return SetupFailure(r, "set-up", built.status());
  std::unique_ptr<TpchDirtyDatabase> tdb = std::move(built).value();
  Database* db = tdb->db.get();
  CleanAnswerEngine engine(db, &tdb->dirty);

  // Classes 2q (clean) and 2q+1 (original) for the q-th query.
  const auto& queries = conquer::TpchQueries();
  std::vector<OpClass> classes;
  for (const auto& q : queries) {
    classes.push_back({"clean_Q" + std::to_string(q.number), Family::kClean});
    classes.push_back({"orig_Q" + std::to_string(q.number), Family::kSecond});
  }

  // References through other entry points: Database::Query on the
  // rewritten text for the clean answers, Database::Execute on the parsed
  // statement for the originals.
  // Each round repeats a query until its pair takes about kPairTargetMs by
  // the reference's time, so fast queries collect as many samples as the
  // slow ones spend time.
  constexpr double kPairTargetMs = 20;
  constexpr int kMaxReps = 16;
  Digests stored(o, &r);
  std::vector<uint64_t> ref_clean(queries.size());
  std::vector<uint64_t> ref_orig(queries.size());
  std::vector<int> reps(queries.size());
  for (size_t i = 0; i < queries.size(); ++i) {
    const std::string key = "Q" + std::to_string(queries[i].number);
    auto text = engine.RewrittenSql(queries[i].sql);
    const Clock::time_point t0 = Clock::now();
    auto rs = text.ok() ? db->Query(*text) : conquer::Result<ResultSet>(
                                                 text.status());
    const double ref_ms = Ms(t0, Clock::now());
    if (!rs.ok()) return SetupFailure(r, "reference clean " + key, rs.status());
    reps[i] = static_cast<int>(std::clamp(
        std::ceil(kPairTargetMs / std::max(ref_ms, 1e-3)), 1.0,
        static_cast<double>(kMaxReps)));
    ref_clean[i] = DigestRewrittenResult(*rs);
    auto stmt = conquer::Parser::Parse(queries[i].sql);
    if (!stmt.ok()) return SetupFailure(r, "parse " + key, stmt.status());
    auto orig = db->Execute(std::move(stmt).value());
    if (!orig.ok()) return SetupFailure(r, "reference " + key, orig.status());
    ref_orig[i] = DigestResult(*orig);
    stored.Check("clean_" + key, ref_clean[i], true);
    stored.Check("orig_" + key, ref_orig[i], true);
  }

  Rng rng(OpSeed(o.seed, 0));
  uint64_t next_op = 1;
  LayerCounters lc;
  auto phase = [&](double seconds, Tracer* t, Recorder* rec) {
    const Clock::time_point end = Deadline(seconds);
    std::vector<size_t> order(queries.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    for (uint64_t round = 0; Clock::now() < end; ++round) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[Below(&rng, i)]);
      }
      for (size_t k = 0; k < order.size() && Clock::now() < end; ++k) {
        const size_t qi = order[k];
        const std::string& sql = queries[qi].sql;
        const bool is_q1 = queries[qi].number == 1;
        for (int side = 0; side < 2 * reps[qi]; ++side) {
          const bool clean = (side % 2 == 0) == (round % 2 == 0);
          const uint64_t op = next_op++;
          QueryStats st;
          if (clean) {
            double ms = 0;
            auto ans = CleanQuery(engine, sql, t, op, &st, &ms);
            const bool ok = ans.ok() && DigestAnswers(*ans) == ref_clean[qi];
            rec->Record(2 * qi, ms, ok);
            if (t->enabled() && ans.ok()) {
              Observe(st, QueryKind::kScan, is_q1, &lc);
              ++lc.ops;
            }
          } else {
            const int root = t->Open("op", op, -1);
            const int call = t->Open("engine.query", op, root);
            const Clock::time_point t0 = Clock::now();
            auto rs = db->Query(sql, t->enabled() ? &st : nullptr);
            const Clock::time_point t1 = Clock::now();
            t->Close(call);
            t->Close(root);
            const bool ok = rs.ok() && DigestResult(*rs) == ref_orig[qi];
            rec->Record(2 * qi + 1, Ms(t0, t1), ok);
            if (t->enabled() && rs.ok()) {
              t->AddQueryStats(st, call, op);
              Observe(st, QueryKind::kScan, false, &lc);
              ++lc.ops;
            }
          }
        }
      }
    }
  };

  Tracer off(false, Clock::now());
  ResetPeakRss();
  Recorder rec(classes.size());
  const Clock::time_point m0 = Clock::now();
  if (!o.trace) {
    phase(o.seconds, &off, &rec);
    r.metrics = EndToEnd(setup_s, PeakRssMb(), rec, classes, SecondsSince(m0),
                         &r);
  } else {
    Recorder traced(classes.size());
    phase(o.seconds / 2, &off, &rec);
    phase(o.seconds / 2, &tr, &traced);
    LayerExtras x;
    x.setups = kSetupReps;
    x.overhead_share = OverheadShare(rec, traced, classes);
    const double orig = traced.FamilyGeoMean(classes, Family::kSecond);
    x.clean_overhead =
        orig > 0 ? traced.FamilyGeoMean(classes, Family::kClean) / orig : 0;
    r.metrics = LayerMetrics(tr.spans(), lc, x);
    WriteTrace(o, tr, &r);
    rec.Merge(traced);
  }
  r.header.emplace_back("stored_digests_checked",
                        std::to_string(stored.checked()));
  Finish(std::move(rec), &r);
  return r;
}

// -------------------------------------------------------------- served_mix

std::string CustomerLookupSql(const std::string& cluster) {
  return "select c.id, c.c_name, c.c_acctbal, c.c_mktsegment "
         "from customer c where c.id = '" +
         cluster + "'";
}

/// Distinct values of one string column, sorted.
conquer::Result<std::vector<std::string>> DistinctStrings(
    const Database& db, const std::string& sql) {
  auto rs = db.Query(sql);
  if (!rs.ok()) return rs.status();
  std::vector<std::string> out;
  out.reserve(rs->rows.size());
  for (const Row& row : rs->rows) {
    if (!row.empty() && !row[0].is_null()) out.push_back(row[0].ToString());
  }
  std::sort(out.begin(), out.end());
  out.erase(std::unique(out.begin(), out.end()), out.end());
  return out;
}

RunResult RunServedMix(const RunOptions& o) {
  RunResult r;
  AddHeader(o, kMemSf, kServedClients, kServedClients, &r);
  r.header.emplace_back("memory_budget_mb", "0");

  Tracer tr(o.trace, Clock::now());
  std::vector<double> setup_s;
  auto built = SetUpInMemory(o.data_seed, kSetupReps, &tr, &setup_s);
  if (!built.ok()) return SetupFailure(r, "set-up", built.status());
  std::unique_ptr<TpchDirtyDatabase> tdb = std::move(built).value();
  Database* db = tdb->db.get();
  const conquer::CleanRewriter rewriter(&db->catalog(), &tdb->dirty);

  // Class i < 6: the i-th repeated Figure-8 query; class 6: lookups.
  std::vector<OpClass> classes;
  std::vector<std::string> mix;
  for (int n : kServedQueries) {
    classes.push_back({"clean_Q" + std::to_string(n), Family::kClean});
    mix.push_back(conquer::FindTpchQuery(n)->sql);
  }
  const size_t lookup_class = classes.size();
  classes.push_back({"lookup_customer", Family::kSecond});

  auto keys = DistinctStrings(*db, "select id from customer");
  if (!keys.ok() || keys->empty()) {
    return SetupFailure(r, "customer keys",
                        keys.ok() ? Status::Internal("no customers")
                                  : keys.status());
  }
  r.header.emplace_back("lookup_keys", std::to_string(keys->size()));

  // References: Database::Query on the rewritten text, keyed by the
  // original text each client sends.
  Digests stored(o, &r);
  std::unordered_map<std::string, uint64_t> ref;
  uint64_t lookup_digest = 0;
  auto add_ref = [&](const std::string& sql) -> Status {
    auto text = rewriter.RewriteCleanSql(sql);
    if (!text.ok()) return text.status();
    auto rs = db->Query(*text);
    if (!rs.ok()) return rs.status();
    ref[sql] = DigestRewrittenResult(*rs);
    return Status::OK();
  };
  for (size_t i = 0; i < mix.size(); ++i) {
    Status s = add_ref(mix[i]);
    if (!s.ok()) return SetupFailure(r, "reference " + classes[i].name, s);
    stored.Check(classes[i].name, ref[mix[i]], true);
  }
  for (const std::string& k : *keys) {
    const std::string sql = CustomerLookupSql(k);
    Status s = add_ref(sql);
    if (!s.ok()) return SetupFailure(r, "reference lookup " + k, s);
    lookup_digest = lookup_digest * 1099511628211ULL + ref[sql];
  }
  stored.Check("lookups", lookup_digest, true);

  db->SetThreads(kServedClients);
  conquer::QueryService service(db);

  struct Client {
    std::unique_ptr<conquer::Session> session;
    Rng rng;
    Recorder rec;
    Tracer tracer;
    LayerCounters lc;
  };
  uint64_t next_base = 0;
  auto phase = [&](double seconds, bool traced, Recorder* out,
                   LayerCounters* lc_out, Tracer* tr_out) {
    const Clock::time_point end = Deadline(seconds);
    std::vector<std::unique_ptr<Client>> clients;
    for (int c = 0; c < kServedClients; ++c) {
      clients.push_back(std::unique_ptr<Client>(new Client{
          service.CreateSession("client-" + std::to_string(c)),
          Rng(OpSeed(o.seed, 1 + static_cast<uint64_t>(c) + next_base)),
          Recorder(classes.size()), Tracer(traced, tr.epoch()),
          LayerCounters{}}));
    }
    next_base += kServedClients;
    std::vector<std::thread> threads;
    for (int c = 0; c < kServedClients; ++c) {
      threads.emplace_back([&, c] {
        Client& cl = *clients[static_cast<size_t>(c)];
        Tracer* t = &cl.tracer;
        // Op ids are unique across clients: client c uses c, c+n, ...
        uint64_t op = static_cast<uint64_t>(c) + 1;
        while (Clock::now() < end) {
          const bool lookup = cl.rng.Chance(0.5);
          const size_t cls = lookup ? lookup_class : Below(&cl.rng, mix.size());
          const std::string sql =
              lookup ? CustomerLookupSql((*keys)[Below(&cl.rng, keys->size())])
                     : mix[cls];
          QueryStats st;
          const int root = t->Open("op", op, -1);
          const Clock::time_point t0 = Clock::now();
          auto rs = ServedQuery(rewriter, cl.session.get(), sql, t, op, root,
                                &st);
          const Clock::time_point t1 = Clock::now();
          t->Close(root);
          const bool ok = rs.ok() && DigestRewrittenResult(*rs) == ref.at(sql);
          cl.rec.Record(cls, Ms(t0, t1), ok);
          if (t->enabled() && rs.ok()) {
            Observe(st, lookup ? QueryKind::kLookup : QueryKind::kScan, false,
                    &cl.lc);
            ++cl.lc.ops;
            cl.lc.backlog_sum += static_cast<double>(db->scheduler_backlog());
            ++cl.lc.backlog_samples;
          }
          op += kServedClients;
        }
      });
    }
    for (auto& th : threads) th.join();
    for (auto& cl : clients) {
      out->Merge(cl->rec);
      lc_out->Merge(cl->lc);
      tr_out->Merge(cl->tracer);
    }
  };

  // Warm the plan cache with the repeated mix, as a serving process would
  // be after its first requests; lookups still miss on first sight.
  for (const std::string& sql : mix) {
    auto text = rewriter.RewriteCleanSql(sql);
    if (text.ok()) (void)service.ExecuteSql(*text);
  }

  ResetPeakRss();
  Recorder rec(classes.size());
  LayerCounters lc;
  const Clock::time_point m0 = Clock::now();
  if (!o.trace) {
    phase(o.seconds, false, &rec, &lc, &tr);
    const double measured = SecondsSince(m0);
    r.metrics = EndToEnd(setup_s, PeakRssMb(), rec, classes, measured, &r);
  } else {
    phase(o.seconds / 2, false, &rec, &lc, &tr);
    const conquer::ServiceStats before = service.stats();
    Recorder traced(classes.size());
    phase(o.seconds / 2, true, &traced, &lc, &tr);
    const conquer::ServiceStats after = service.stats();
    LayerExtras x;
    x.setups = kSetupReps;
    AddServiceExtras(before, after, &x);
    x.overhead_share = OverheadShare(rec, traced, classes);
    r.metrics = LayerMetrics(tr.spans(), lc, x);
    WriteTrace(o, tr, &r);
    rec.Merge(traced);
  }
  db->SetThreads(1);
  r.header.emplace_back("stored_digests_checked",
                        std::to_string(stored.checked()));
  Finish(std::move(rec), &r);
  return r;
}

// ------------------------------------------------------------ dirty_writes

/// One write of the seeded stream (each touches exactly one row) and the
/// customer cluster whose clean answers the following reads ask for.
struct WriteOp {
  size_t cls = 0;
  std::string sql;
  std::string cluster;
};

/// Rows of a table as the stream generator sees them: alive record keys
/// and each row's values, for perturbed duplicates.
struct TableImage {
  std::vector<Row> rows;         // every row at set-up, schema order
  std::vector<size_t> alive;     // indexes into `rows` not yet deleted
  int64_t next_key = 0;          // fresh record keys for inserts
};

conquer::Result<TableImage> Image(const Database& db, const std::string& table,
                                  size_t key_col) {
  auto rs = db.Query("select * from " + table);
  if (!rs.ok()) return rs.status();
  TableImage img;
  img.rows = std::move(rs->rows);
  for (size_t i = 0; i < img.rows.size(); ++i) {
    img.alive.push_back(i);
    img.next_key = std::max(img.next_key, img.rows[i][key_col].int_value() + 1);
  }
  return img;
}

std::string ValuesSql(const Row& row) {
  std::string out = "(";
  for (size_t i = 0; i < row.size(); ++i) {
    if (i > 0) out += ", ";
    out += row[i].is_null() ? "null" : row[i].ToSqlLiteral();
  }
  return out + ")";
}

// Write classes of dirty_writes: reads come first in the class list, then
// update, insert and delete on customer, then the same on orders. Each
// table gets its own classes because maintenance cost grows with the
// table's cluster count, and the seed changes the tables' shares.
enum WriteClass { kUpdate = 3, kInsert = 4, kDelete = 5 };
constexpr size_t kOrdersClassOffset = 3;

/// The fixed write stream of one run: kWritesPerPass writes on customer
/// and orders drawn from the operation seed. Updates and deletes pick an
/// alive record key; inserts add a perturbed duplicate of an alive row with
/// a NULL cluster id and NULL probability for maintenance to fill in.
std::vector<WriteOp> MakeWriteStream(uint64_t seed, TableImage cust,
                                     TableImage ord) {
  // customer: id 0, c_custkey 1, c_acctbal 7, prob 10.
  // orders: id 0, o_orderkey 1, o_cust_id 3, o_totalprice 5, prob 11.
  Rng rng(OpSeed(seed, 100));
  std::vector<WriteOp> out;
  for (int w = 0; w < kWritesPerPass; ++w) {
    const bool on_customer = rng.Chance(0.5);
    TableImage& img = on_customer ? cust : ord;
    const std::string table = on_customer ? "customer" : "orders";
    const char* key_col = on_customer ? "c_custkey" : "o_orderkey";
    const size_t money = on_customer ? 7 : 5;
    const size_t pick = Below(&rng, img.alive.size());
    const Row& src = img.rows[img.alive[pick]];
    WriteOp op;
    op.cluster = on_customer ? src[0].ToString() : src[3].ToString();
    const std::string key = std::to_string(src[1].int_value());
    const double roll = rng.NextDouble();
    if (roll < 0.4) {
      op.cls = kUpdate;
      char buf[64];
      std::snprintf(buf, sizeof(buf), "%.2f",
                    src[money].AsDouble() + rng.Uniform(-500, 500));
      op.sql = "update " + table + " set " +
               (on_customer ? "c_acctbal" : "o_totalprice") + " = " + buf +
               " where " + key_col + " = " + key;
    } else if (roll < 0.75) {
      op.cls = kInsert;
      Row dup = src;
      dup[0] = Value::Null();
      dup[1] = Value::Int(img.next_key);
      dup[money] = Value::Double(src[money].AsDouble() +
                                 static_cast<double>(rng.Uniform(1, 99)));
      dup.back() = Value::Null();
      img.rows.push_back(dup);
      img.alive.push_back(img.rows.size() - 1);
      ++img.next_key;
      op.sql = "insert into " + table + " values " + ValuesSql(dup);
    } else {
      op.cls = kDelete;
      op.sql = "delete from " + table + " where " + key_col + " = " + key;
      img.alive[pick] = img.alive.back();
      img.alive.pop_back();
    }
    if (!on_customer) op.cls += kOrdersClassOffset;
    out.push_back(std::move(op));
  }
  return out;
}

std::vector<std::string> ReadsAfter(const WriteOp& w) {
  return {
      "select c.id, c.c_name, c.c_acctbal from customer c where c.id = '" +
          w.cluster + "'",
      "select o.id, c.id, o.o_totalprice, o.o_orderdate "
      "from customer c, orders o where o.o_cust_id = c.id and c.id = '" +
          w.cluster + "'",
      "select c.id, c.c_acctbal, c.c_mktsegment from customer c "
      "where c.c_mktsegment = 'BUILDING' and c.c_acctbal > 5000",
  };
}

/// Every dirty cluster of `table` sums to 1 over its visible rows.
Status CheckClusterSums(const Database& db, const std::string& table) {
  auto rs = db.Query("select id, prob from " + table);
  if (!rs.ok()) return rs.status();
  std::unordered_map<std::string, double> sums;
  for (const Row& row : rs->rows) {
    if (row[0].is_null() || row[1].is_null()) {
      return Status::Internal(table + " has a row without id or prob");
    }
    sums[row[0].ToString()] += row[1].AsDouble();
  }
  for (const auto& [id, sum] : sums) {
    if (std::fabs(sum - 1.0) > 1e-9) {
      return Status::Internal(table + " cluster " + id + " sums to " +
                              FormatNumber(sum));
    }
  }
  return Status::OK();
}

conquer::Result<uint64_t> FinalStateDigest(const Database& db) {
  uint64_t h = 0;
  for (const char* t : {"customer", "orders"}) {
    auto rs = db.Query(std::string("select * from ") + t);
    if (!rs.ok()) return rs.status();
    h = h * 1099511628211ULL + DigestResult(*rs);
  }
  return h;
}

RunResult RunDirtyWrites(const RunOptions& o) {
  RunResult r;
  AddHeader(o, kMemSf, 1, 1, &r);
  r.header.emplace_back("memory_budget_mb", "0");
  r.header.emplace_back("writes_per_pass", std::to_string(kWritesPerPass));

  const std::vector<OpClass> classes = {
      {"read_lookup", Family::kClean},  {"read_join", Family::kClean},
      {"read_scan", Family::kClean},
      {"update_customer", Family::kSecond},
      {"insert_customer", Family::kSecond},
      {"delete_customer", Family::kSecond},
      {"update_orders", Family::kSecond},
      {"insert_orders", Family::kSecond},
      {"delete_orders", Family::kSecond},
  };
  Tracer tr(o.trace, Clock::now());
  Digests stored(o, &r);
  std::vector<double> setup_s;
  // Peak RSS of the first pass: later passes start with the heap the
  // earlier ones freed, so their peaks depend on how many passes ran.
  double first_peak_mb = 0;
  Recorder untraced(classes.size());
  Recorder traced(classes.size());
  LayerCounters lc;
  LayerExtras x;
  std::vector<WriteOp> stream;
  uint64_t first_digest = 0;
  double measured_s = 0;
  uint64_t next_op = 1;

  // A pass is one set-up plus the whole fixed stream, so every pass ends in
  // the same state. Untraced runs repeat passes until --seconds of stream
  // time is spent; traced runs make one untraced and one traced pass.
  for (int pass = 0;; ++pass) {
    const bool trace_pass = o.trace && pass == 1;
    if (o.trace ? pass == 2 : (pass >= 1 && measured_s >= o.seconds)) break;
    auto built = SetUpInMemory(o.data_seed, 1, &tr, &setup_s);
    if (!built.ok()) return SetupFailure(r, "set-up", built.status());
    std::unique_ptr<TpchDirtyDatabase> tdb = std::move(built).value();
    Database* db = tdb->db.get();
    if (stream.empty()) {
      auto cust = Image(*db, "customer", 1);
      auto ord = Image(*db, "orders", 1);
      if (!cust.ok() || !ord.ok()) {
        return SetupFailure(r, "table images",
                            cust.ok() ? ord.status() : cust.status());
      }
      stream = MakeWriteStream(o.seed, std::move(cust).value(),
                               std::move(ord).value());
    }

    // The traced pass wraps the same ReassignClusters call that
    // InstallIncrementalMaintenance registers, to time it per write.
    struct HookContext {
      Tracer* tracer = nullptr;
      int parent = -1;
      uint64_t op = 0;
      uint64_t clusters = 0;
    } hook_ctx;
    hook_ctx.tracer = &tr;
    if (!trace_pass) {
      Status s = conquer::InstallIncrementalMaintenance(db, &tdb->dirty);
      if (!s.ok()) return SetupFailure(r, "maintenance", s);
    } else {
      for (const DirtyTableInfo& info : tdb->dirty.tables()) {
        if (info.prob_column.empty()) continue;
        conquer::WriteMaintenanceHook hook;
        hook.id_column = info.id_column;
        HookContext* ctx = &hook_ctx;
        hook.after_write = [&info, ctx](conquer::Table* table,
                                        const std::vector<Value>& touched,
                                        uint64_t version) -> Status {
          const int s =
              ctx->tracer->Open("prob.maintenance", ctx->op, ctx->parent);
          auto n = conquer::ReassignClusters(table, info, touched, version,
                                             conquer::IncrementalOptions{});
          ctx->tracer->Close(s);
          if (n.ok()) ctx->clusters += *n;
          return n.status();
        };
        db->SetWriteHook(info.table_name, std::move(hook));
      }
    }

    conquer::QueryService service(db);
    auto session = service.CreateSession("writer");
    const conquer::CleanRewriter rewriter(&db->catalog(), &tdb->dirty);
    Tracer off(false, Clock::now());
    Tracer* t = trace_pass ? &tr : &off;
    Recorder& rec = trace_pass ? traced : untraced;
    const conquer::ServiceStats before = service.stats();

    ResetPeakRss();
    const Clock::time_point m0 = Clock::now();
    for (const WriteOp& w : stream) {
      {
        const uint64_t op = next_op++;
        const int root = t->Open("op", op, -1);
        const int call = t->Open("engine.write", op, root);
        hook_ctx.parent = call;
        hook_ctx.op = op;
        const Clock::time_point a = Clock::now();
        auto rs = session->Execute(w.sql);
        const Clock::time_point b = Clock::now();
        t->Close(call);
        t->Close(root);
        const bool ok = rs.ok() && rs->rows.size() == 1 &&
                        rs->rows[0][0].int_value() == 1;
        rec.Record(w.cls, Ms(a, b), ok);
        if (!rs.ok()) r.problems.push_back(w.sql + ": " + rs.status().ToString());
        if (trace_pass) {
          ++lc.ops;
          ++lc.writes;
        }
      }
      const std::vector<std::string> reads = ReadsAfter(w);
      for (size_t i = 0; i < reads.size(); ++i) {
        const uint64_t op = next_op++;
        QueryStats st;
        const int root = t->Open("op", op, -1);
        const Clock::time_point a = Clock::now();
        auto rs = ServedQuery(rewriter, session.get(), reads[i], t, op, root,
                              &st);
        const Clock::time_point b = Clock::now();
        t->Close(root);
        // Clean answers of a changing database have no fixed reference;
        // each must still carry a probability in [0, 1].
        bool ok = rs.ok();
        if (ok) {
          for (const Row& row : rs->rows) {
            const double p = row.back().AsDouble();
            ok = ok && p >= 0 && p <= 1 + 1e-9;
          }
        }
        rec.Record(i, Ms(a, b), ok);
        if (trace_pass && rs.ok()) {
          Observe(st, i == 2 ? QueryKind::kScan : QueryKind::kLookup, false,
                  &lc);
          ++lc.ops;
        }
      }
    }
    measured_s += SecondsSince(m0);
    if (pass == 0) first_peak_mb = PeakRssMb();

    if (trace_pass) {
      AddServiceExtras(before, service.stats(), &x);
      lc.clusters = hook_ctx.clusters;
      double physical = 0;
      double live = 0;
      for (const char* name : {"customer", "orders"}) {
        auto table = db->GetTable(name);
        if (!table.ok()) continue;
        physical += static_cast<double>((*table)->num_rows());
        live += static_cast<double>(
            (*table)->VisibleRowPositions((*table)->committed_version())
                .size());
      }
      x.versions_per_live_row = live > 0 ? physical / live : 0;
    }

    // End-of-pass checks: normalized clusters and the final-state digest,
    // which every pass must reproduce.
    for (const char* name : {"customer", "orders"}) {
      Status s = CheckClusterSums(*db, name);
      if (!s.ok()) {
        r.correct = false;
        r.problems.push_back(s.ToString());
      }
    }
    auto digest = FinalStateDigest(*db);
    if (!digest.ok()) return SetupFailure(r, "final state", digest.status());
    if (pass == 0) {
      first_digest = *digest;
      stored.Check("final_state", first_digest, false);
    } else if (*digest != first_digest) {
      r.correct = false;
      r.problems.push_back("pass " + std::to_string(pass) +
                           " ended in another state");
    }
  }
  r.header.emplace_back("passes", std::to_string(setup_s.size()));

  if (!o.trace) {
    r.metrics =
        EndToEnd(setup_s, first_peak_mb, untraced, classes, measured_s, &r);
  } else {
    x.setups = static_cast<int>(setup_s.size());
    x.overhead_share = OverheadShare(untraced, traced, classes);
    r.metrics = LayerMetrics(tr.spans(), lc, x);
    WriteTrace(o, tr, &r);
    untraced.Merge(traced);
  }
  r.header.emplace_back("stored_digests_checked",
                        std::to_string(stored.checked()));
  Finish(std::move(untraced), &r);
  return r;
}

// --------------------------------------------------------------- cold_scan

std::string LineitemLookupSql(const std::string& cluster) {
  return "select l.id, l.l_orderkey, l.l_quantity, l.l_extendedprice "
         "from lineitem l where l.id = '" +
         cluster + "'";
}

double DirBytes(const std::string& dir) {
  namespace fs = std::filesystem;
  std::error_code ec;
  double bytes = 0;
  for (const auto& e : fs::directory_iterator(dir, ec)) {
    if (e.is_regular_file(ec)) bytes += static_cast<double>(e.file_size(ec));
  }
  return bytes;
}

RunResult RunColdScan(const RunOptions& o) {
  RunResult r;
  AddHeader(o, kColdSf, 1, 1, &r);

  const std::vector<int> scans = {1, 6};
  // A lookup whose chunk happens to be resident (the pool holds ~10% of the
  // data) takes microseconds instead of a fault; those form their own
  // class so the gated one measures the faulting path. Faulting lookups
  // cost what their key's chunk costs to decode, so they report a median.
  const std::vector<OpClass> classes = {
      {"clean_Q1", Family::kClean},
      {"clean_Q6", Family::kClean},
      {"lookup_faulted", Family::kSecond, true},
      {"lookup_resident", Family::kNotesOnly}};
  const std::string dir = o.data_dir + "/cold-" + std::to_string(o.data_seed) +
                          "-" + std::to_string(o.seed);

  Tracer tr(o.trace, Clock::now());
  Digests stored(o, &r);
  std::vector<double> setup_s;
  std::unique_ptr<Database> db;
  DirtySchema dirty;
  std::vector<uint64_t> ref_scan(scans.size());
  std::vector<std::string> lookup_sql;
  std::vector<uint64_t> ref_lookup;
  uint64_t budget = 0;
  double data_bytes = 0;
  for (int rep = 0; rep < kColdSetupReps; ++rep) {
    db.reset();
    dirty = DirtySchema();
    std::filesystem::remove_all(dir);
    double excluded_s = 0;
    const Clock::time_point t0 = Clock::now();
    const int root = tr.Open("setup", 0, -1);
    TpchDirtyDatabase mem;
    Status s = Step(&tr, root, "gen.generate", [&]() -> Status {
      TpchDirtyConfig cfg;
      cfg.scale_factor = kColdSf;
      cfg.inconsistency_factor = kIf;
      cfg.seed = o.data_seed;
      auto gen = conquer::MakeTpchDirtyDatabase(cfg);
      if (!gen.ok()) return gen.status();
      mem = std::move(gen).value();
      mem.db->SetMemoryBudget(0);
      return Status::OK();
    });
    if (s.ok() && rep == 0) {
      // References on the in-memory database, before the save; not part
      // of set-up time.
      const Clock::time_point e0 = Clock::now();
      CleanAnswerEngine engine(mem.db.get(), &mem.dirty);
      for (size_t i = 0; i < scans.size() && s.ok(); ++i) {
        auto ans = engine.Query(conquer::FindTpchQuery(scans[i])->sql);
        if (!ans.ok()) {
          s = ans.status();
          break;
        }
        ref_scan[i] = DigestAnswers(*ans);
        stored.Check(classes[i].name, ref_scan[i], true);
      }
      auto keys = DistinctStrings(*mem.db, "select id from lineitem");
      if (s.ok() && !keys.ok()) s = keys.status();
      if (s.ok()) {
        Rng rng(OpSeed(o.seed, 200));
        uint64_t combined = 0;
        for (int k = 0; k < kColdLookupKeys && s.ok(); ++k) {
          lookup_sql.push_back(
              LineitemLookupSql((*keys)[Below(&rng, keys->size())]));
          auto ans = engine.Query(lookup_sql.back());
          if (!ans.ok()) {
            s = ans.status();
            break;
          }
          ref_lookup.push_back(DigestAnswers(*ans));
          combined = combined * 1099511628211ULL + ref_lookup.back();
        }
        if (s.ok()) stored.Check("lookups", combined, false);
      }
      excluded_s = SecondsSince(e0);
    }
    if (s.ok()) {
      s = Step(&tr, root, "engine.save", [&]() {
        return conquer::SaveDatabase(*mem.db, dir, &mem.dirty);
      });
    }
    mem.db.reset();
    if (s.ok()) {
      s = Step(&tr, root, "engine.load", [&]() -> Status {
        auto loaded = conquer::LoadDatabase(dir, &dirty);
        if (!loaded.ok()) return loaded.status();
        db = std::move(loaded).value();
        data_bytes = DirBytes(dir);
        budget = static_cast<uint64_t>(data_bytes) * kColdBudgetPct / 100;
        db->SetMemoryBudget(budget);
        return Status::OK();
      });
    }
    if (s.ok()) {
      s = Step(&tr, root, "engine.index_stats",
               [&]() { return db->CreateIndex("lineitem", "id"); });
    }
    tr.Close(root);
    if (!s.ok()) {
      std::filesystem::remove_all(dir);
      return SetupFailure(r, "set-up", s);
    }
    setup_s.push_back(SecondsSince(t0) - excluded_s);
  }
  r.header.emplace_back("data_mb", FormatNumber(data_bytes / (1 << 20)));
  r.header.emplace_back("memory_budget_mb",
                        FormatNumber(static_cast<double>(budget) / (1 << 20)));

  CleanAnswerEngine engine(db.get(), &dirty);
  Rng rng(OpSeed(o.seed, 0));
  uint64_t next_op = 1;
  LayerCounters lc;
  auto phase = [&](double seconds, Tracer* t, Recorder* rec) {
    const Clock::time_point end = Deadline(seconds);
    // Q1, kColdLookupsPerScan lookups, Q6, lookups, Q1, ...
    constexpr uint64_t kCycle = kColdLookupsPerScan + 1;
    for (uint64_t k = 0; Clock::now() < end; ++k) {
      const bool lookup = k % kCycle != 0;
      const size_t scan = (k / kCycle) % scans.size();
      const size_t key = lookup ? Below(&rng, lookup_sql.size()) : 0;
      const std::string& sql =
          lookup ? lookup_sql[key] : conquer::FindTpchQuery(scans[scan])->sql;
      const uint64_t op = next_op++;
      QueryStats st;
      double ms = 0;
      const uint64_t loaded = db->buffer_pool()->stats().chunks_loaded;
      auto ans = CleanQuery(engine, sql, t, op, &st, &ms);
      const bool faulted = db->buffer_pool()->stats().chunks_loaded > loaded;
      const uint64_t want = lookup ? ref_lookup[key] : ref_scan[scan];
      const bool ok = ans.ok() && DigestAnswers(*ans) == want;
      rec->Record(lookup ? (faulted ? 2 : 3) : scan, ms, ok);
      if (t->enabled() && ans.ok()) {
        Observe(st, lookup ? QueryKind::kLookup : QueryKind::kScan,
                !lookup && scans[scan] == 1, &lc);
        ++lc.ops;
      }
    }
  };

  Tracer off(false, Clock::now());
  ResetPeakRss();
  Recorder rec(classes.size());
  const Clock::time_point m0 = Clock::now();
  if (!o.trace) {
    phase(o.seconds, &off, &rec);
    r.metrics = EndToEnd(setup_s, PeakRssMb(), rec, classes, SecondsSince(m0),
                         &r);
  } else {
    phase(o.seconds / 2, &off, &rec);
    const conquer::BufferPool::Stats before = db->buffer_pool()->stats();
    Recorder traced(classes.size());
    phase(o.seconds / 2, &tr, &traced);
    const conquer::BufferPool::Stats after = db->buffer_pool()->stats();
    LayerExtras x;
    x.setups = kColdSetupReps;
    x.chunks_evicted =
        static_cast<double>(after.chunks_evicted - before.chunks_evicted);
    x.pool_peak_mb =
        static_cast<double>(after.peak_resident_bytes) / (1 << 20);
    x.overhead_share = OverheadShare(rec, traced, classes);
    r.metrics = LayerMetrics(tr.spans(), lc, x);
    WriteTrace(o, tr, &r);
    rec.Merge(traced);
  }
  db.reset();
  std::filesystem::remove_all(dir);
  r.header.emplace_back("stored_digests_checked",
                        std::to_string(stored.checked()));
  Finish(std::move(rec), &r);
  return r;
}

}  // namespace

const std::vector<std::string>& WorkloadNames() {
  static const std::vector<std::string> names = {"fig8_clean", "served_mix",
                                                 "dirty_writes", "cold_scan"};
  return names;
}

RunResult RunWorkload(const RunOptions& options) {
  if (options.workload == "fig8_clean") return RunFig8Clean(options);
  if (options.workload == "served_mix") return RunServedMix(options);
  if (options.workload == "dirty_writes") return RunDirtyWrites(options);
  if (options.workload == "cold_scan") return RunColdScan(options);
  RunResult r;
  r.correct = false;
  r.problems.push_back("unknown workload " + options.workload);
  return r;
}

}  // namespace cleanbench
