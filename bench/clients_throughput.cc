// Serving-layer client sweep: N concurrent client sessions issuing the
// Figure-8 rewritten-query mix against one QueryService, measuring
// throughput (QPS) and latency percentiles per client count.
//
// This is the benchmark behind the concurrent-serving claim: with a shared
// TaskPool, admission control and the plan cache, adding clients should
// scale throughput until the worker pool saturates, with a plan-cache hit
// rate >90% on a repeated query mix (each distinct statement binds once).
// Numbers depend on the machine's core count — the JSON records
// hardware_threads so a 1-core container's flat curve is interpretable.
//
// Usage:
//   clients_throughput [--clients=1,2,4,8] [--threads=8] [--seconds=2]
//                      [--sf-milli=10] [--json=PATH]
//
//   --clients   comma-separated client counts to sweep
//   --threads   Database worker threads (the shared morsel pool)
//   --seconds   measured duration per client count
//   --sf-milli  TPC-H scale factor in thousandths (if=3 throughout)
//   --json      also write results as JSON (e.g. BENCH_clients.json)

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "core/clean_engine.h"
#include "engine/service.h"
#include "gen/tpch_queries.h"

namespace conquer {
namespace {

using Clock = std::chrono::steady_clock;

// The fast rewritable Figure-8 queries: the serving mix wants statements
// that complete in single-digit milliseconds so a sweep finishes quickly
// while still exercising joins, grouping and the probability arithmetic.
constexpr int kMixQueryNumbers[] = {2, 6, 11, 14, 17, 20};

struct SweepPoint {
  int clients = 0;
  double qps = 0;
  double p50_ms = 0;
  double p95_ms = 0;
  double p99_ms = 0;
  double cache_hit_rate = 0;
  uint64_t queries = 0;
  uint64_t errors = 0;
};

double Percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0;
  const size_t idx = std::min(
      sorted.size() - 1,
      static_cast<size_t>(std::ceil(p * static_cast<double>(sorted.size()))) -
          1);
  return sorted[idx];
}

SweepPoint RunPoint(Database* db, const std::vector<std::string>& mix,
                    int clients, double seconds) {
  QueryService service(db);
  // Prime the plan cache so every client starts on the hit path (each
  // distinct statement still counts one miss in the hit-rate below).
  for (const std::string& sql : mix) {
    auto rs = service.ExecuteSql(sql);
    if (!rs.ok()) {
      std::fprintf(stderr, "prime failed: %s\n", rs.status().ToString().c_str());
      std::exit(1);
    }
  }

  std::atomic<bool> stop{false};
  std::vector<std::vector<double>> latencies(clients);
  std::vector<std::thread> threads;
  const Clock::time_point start = Clock::now();
  for (int tid = 0; tid < clients; ++tid) {
    threads.emplace_back([&, tid] {
      auto session = service.CreateSession("bench-" + std::to_string(tid));
      std::vector<double>& lat = latencies[tid];
      lat.reserve(4096);
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const std::string& sql = mix[(tid + i++) % mix.size()];
        const Clock::time_point t0 = Clock::now();
        auto rs = session->Execute(sql);
        const Clock::time_point t1 = Clock::now();
        if (rs.ok()) {
          lat.push_back(std::chrono::duration<double, std::milli>(t1 - t0)
                            .count());
        }
      }
    });
  }
  std::this_thread::sleep_for(std::chrono::duration<double>(seconds));
  stop.store(true);
  for (auto& t : threads) t.join();
  const double elapsed = std::chrono::duration<double>(Clock::now() - start)
                             .count();

  std::vector<double> all;
  for (const auto& lat : latencies) all.insert(all.end(), lat.begin(),
                                               lat.end());
  std::sort(all.begin(), all.end());

  const ServiceStats stats = service.stats();
  SweepPoint point;
  point.clients = clients;
  point.queries = static_cast<uint64_t>(all.size());
  point.errors = stats.query_errors;
  point.qps = elapsed > 0 ? static_cast<double>(all.size()) / elapsed : 0;
  point.p50_ms = Percentile(all, 0.50);
  point.p95_ms = Percentile(all, 0.95);
  point.p99_ms = Percentile(all, 0.99);
  point.cache_hit_rate = stats.plan_cache.hit_rate();
  return point;
}

std::string ParseFlag(int* argc, char** argv, const std::string& name) {
  std::string value;
  const std::string prefix = "--" + name + "=";
  int w = 1;
  for (int r = 1; r < *argc; ++r) {
    std::string_view arg = argv[r];
    if (arg.rfind(prefix, 0) == 0) {
      value.assign(arg.substr(prefix.size()));
    } else {
      argv[w++] = argv[r];
    }
  }
  *argc = w;
  return value;
}

std::vector<int> ParseIntList(const std::string& csv,
                              std::vector<int> fallback) {
  if (csv.empty()) return fallback;
  std::vector<int> out;
  size_t pos = 0;
  while (pos < csv.size()) {
    size_t comma = csv.find(',', pos);
    if (comma == std::string::npos) comma = csv.size();
    const int v = std::atoi(csv.substr(pos, comma - pos).c_str());
    if (v >= 1) out.push_back(v);
    pos = comma + 1;
  }
  return out.empty() ? fallback : out;
}

}  // namespace
}  // namespace conquer

int main(int argc, char** argv) {
  using namespace conquer;

  const std::string json_path = ParseFlag(&argc, argv, "json");
  const std::vector<int> clients =
      ParseIntList(ParseFlag(&argc, argv, "clients"), {1, 2, 4, 8});
  const std::string threads_flag = ParseFlag(&argc, argv, "threads");
  const std::string seconds_flag = ParseFlag(&argc, argv, "seconds");
  const std::string sf_flag = ParseFlag(&argc, argv, "sf-milli");
  const int db_threads = threads_flag.empty() ? 8 : std::atoi(threads_flag.c_str());
  const double seconds = seconds_flag.empty() ? 2.0 : std::atof(seconds_flag.c_str());
  const int sf_milli = sf_flag.empty() ? 10 : std::atoi(sf_flag.c_str());

  TpchDirtyDatabase& dirty_db = bench::GetCachedDb(sf_milli, 3);
  Database* db = dirty_db.db.get();
  CleanAnswerEngine engine(db, &dirty_db.dirty);

  // The mix is the REWRITTEN text of the fast Figure-8 queries: what a
  // clean-answer client actually sends to the engine, repeated — the
  // plan cache's best case and the paper's steady-state workload.
  std::vector<std::string> mix;
  std::vector<int> mix_numbers;
  for (int number : kMixQueryNumbers) {
    const TpchQuery* q = FindTpchQuery(number);
    if (q == nullptr) continue;
    auto rewritten = engine.RewrittenSql(q->sql);
    if (!rewritten.ok()) {
      std::fprintf(stderr, "Q%d not rewritable: %s\n", number,
                   rewritten.status().ToString().c_str());
      continue;
    }
    mix.push_back(std::move(rewritten).value());
    mix_numbers.push_back(number);
  }
  if (mix.empty()) {
    std::fprintf(stderr, "no rewritable queries in the mix\n");
    return 1;
  }

  db->SetThreads(static_cast<size_t>(std::max(1, db_threads)));

  std::printf("serving sweep: %zu queries in mix, db threads=%d, "
              "%.1fs per point, hardware threads=%u\n",
              mix.size(), db_threads, seconds,
              std::thread::hardware_concurrency());
  std::printf("%8s %10s %9s %9s %9s %9s %8s\n", "clients", "qps", "p50 ms",
              "p95 ms", "p99 ms", "hit rate", "errors");

  std::vector<SweepPoint> points;
  for (int c : clients) {
    SweepPoint point = RunPoint(db, mix, c, seconds);
    std::printf("%8d %10.1f %9.3f %9.3f %9.3f %8.1f%% %8llu\n", point.clients,
                point.qps, point.p50_ms, point.p95_ms, point.p99_ms,
                100.0 * point.cache_hit_rate,
                static_cast<unsigned long long>(point.errors));
    points.push_back(point);
  }
  db->SetThreads(1);

  if (!points.empty() && points.front().clients == 1) {
    const double base = points.front().qps;
    for (const SweepPoint& p : points) {
      if (p.clients != 1 && base > 0) {
        std::printf("speedup at %d clients: %.2fx\n", p.clients, p.qps / base);
      }
    }
  }

  if (!json_path.empty()) {
    std::string out = "{\n";
    out += "  \"git_sha\": \"" + bench::GitShortSha() + "\",\n";
    out += "  \"hardware_threads\": " +
           std::to_string(std::thread::hardware_concurrency()) + ",\n";
    out += "  \"db_threads\": " + std::to_string(db_threads) + ",\n";
    out += "  \"sf_milli\": " + std::to_string(sf_milli) + ",\n";
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.2f", seconds);
    out += "  \"seconds_per_point\": " + std::string(buf) + ",\n";
    out += "  \"mix\": [";
    for (size_t i = 0; i < mix_numbers.size(); ++i) {
      out += "\"Q" + std::to_string(mix_numbers[i]) + "\"";
      if (i + 1 < mix_numbers.size()) out += ", ";
    }
    out += "],\n  \"results\": [\n";
    for (size_t i = 0; i < points.size(); ++i) {
      const SweepPoint& p = points[i];
      char line[256];
      std::snprintf(line, sizeof(line),
                    "    {\"clients\": %d, \"qps\": %.1f, \"p50_ms\": %.3f, "
                    "\"p95_ms\": %.3f, \"p99_ms\": %.3f, "
                    "\"cache_hit_rate\": %.4f, \"queries\": %llu, "
                    "\"errors\": %llu}%s\n",
                    p.clients, p.qps, p.p50_ms, p.p95_ms, p.p99_ms,
                    p.cache_hit_rate,
                    static_cast<unsigned long long>(p.queries),
                    static_cast<unsigned long long>(p.errors),
                    i + 1 < points.size() ? "," : "");
      out += line;
    }
    out += "  ]\n}\n";
    std::FILE* f = std::fopen(json_path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot write %s\n", json_path.c_str());
      return 1;
    }
    std::fwrite(out.data(), 1, out.size(), f);
    std::fclose(f);
    std::printf("wrote %s\n", json_path.c_str());
  }
  return 0;
}
