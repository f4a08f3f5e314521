// Self-tests of the benchmark harness: the statistics it reports, the span
// self-time arithmetic of the traced run, and the answer checks that feed
// the failure count. Run with `ctest --test-dir <build dir>` or directly;
// exits non-zero on the first failed check.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "harness.h"

namespace {

using namespace cleanbench;
using conquer::Value;

int g_failures = 0;

void Check(bool cond, const char* what, int line) {
  if (!cond) {
    std::fprintf(stderr, "selftest line %d: %s\n", line, what);
    ++g_failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) <= 1e-9; }

void TestGeoMean() {
  CHECK(GeoMean({}) == 0);
  CHECK(Near(GeoMean({4}), 4));
  CHECK(Near(GeoMean({1, 100}), 10));
  // A 0.3 ms query weighs as much as a 300 ms one.
  CHECK(Near(GeoMean({0.3, 300}), std::sqrt(0.3 * 300)));
  CHECK(Near(Median({3, 1, 2}), 2));
  CHECK(Near(Median({4, 1, 3, 2}), 2.5));
  CHECK(LowerQuartile({}) == 0);
  CHECK(LowerQuartile({7}) == 7);
  CHECK(LowerQuartile({8, 6, 5, 7}) == 5);     // rank ceil(4/4) = 1
  CHECK(LowerQuartile({9, 1, 5, 3, 7}) == 3);  // rank ceil(5/4) = 2

  std::vector<OpClass> classes = {{"a", Family::kClean},
                                  {"b", Family::kClean},
                                  {"c", Family::kSecond}};
  Recorder rec(classes.size());
  for (double x : {3.0, 2.0, 1.5, 4.0}) rec.Record(0, x, true);  // min 1.5
  for (double x : {9.0, 6.0}) rec.Record(1, x, true);            // min 6
  rec.Record(2, 5, true);
  rec.Record(2, 0.5, false);  // a failed operation leaves no sample
  CHECK(Near(rec.FamilyGeoMean(classes, Family::kClean), std::sqrt(1.5 * 6)));
  CHECK(Near(rec.FamilyGeoMean(classes, Family::kSecond), 5));

  // A by-median class contributes its median; notes-only classes nothing.
  std::vector<OpClass> mixed = {{"m", Family::kClean, true},
                                {"n", Family::kNotesOnly}};
  Recorder rec2(mixed.size());
  for (double x : {1.0, 7.0, 3.0}) rec2.Record(0, x, true);
  rec2.Record(1, 100, true);
  CHECK(Near(rec2.FamilyGeoMean(mixed, Family::kClean), 3));
  CHECK(rec2.FamilyGeoMean(mixed, Family::kSecond) == 0);
}

void TestTailRule() {
  // 1000 samples 1..1000: p99 is rank 990, ten samples beyond it.
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  Tail t = TailPercentile(v);
  CHECK(t.percentile == 99.0 && t.value == 990);
  // 10000 samples: p99.9 is rank 9990, ten beyond.
  v.clear();
  for (int i = 1; i <= 10000; ++i) v.push_back(i);
  t = TailPercentile(v);
  CHECK(t.percentile == 99.9 && t.value == 9990);
  // 999 samples: p99 would have nine beyond (rank 990), so p95 (rank 950).
  v.clear();
  for (int i = 999; i >= 1; --i) v.push_back(i);  // order must not matter
  t = TailPercentile(v);
  CHECK(t.percentile == 95.0 && t.value == 950);
  // 100 samples: p90 is rank 90, ten beyond.
  v.clear();
  for (int i = 1; i <= 100; ++i) v.push_back(i);
  t = TailPercentile(v);
  CHECK(t.percentile == 90.0 && t.value == 90);
  // Too few samples for any tail: the median.
  t = TailPercentile({5, 1, 3});
  CHECK(t.percentile == 50.0 && t.value == 3);
}

void TestSelfTime() {
  // op [0,10] -> a [1,5], b [4,8] (overlap 4..5), c [9,12] clipped to 10.
  std::vector<Span> s = {{"op", 0, 10, -1, 1},
                         {"a", 1, 5, 0, 1},
                         {"b", 4, 8, 0, 1},
                         {"c", 9, 12, 0, 1},
                         {"a.child", 2, 3, 1, 1}};
  std::vector<double> self = SelfTimes(s);
  CHECK(Near(self[0], 10 - (7 + 1)));  // covered: [1,8] and [9,10]
  CHECK(Near(self[1], 4 - 1));
  CHECK(Near(self[2], 4));
  CHECK(Near(self[3], 3));
  auto by_name = SelfTimeByName(s);
  CHECK(Near(by_name["a"], 3));

  // QueryStats -> spans: phases back to back, then the operator tree; each
  // operator's self time equals PlanNodeStats::self_seconds.
  conquer::QueryStats st;
  st.bind_seconds = 0.001;
  st.plan_seconds = 0.001;
  st.exec_seconds = 0.006;
  st.plan.description = "HashAggregate(keys=1)";
  st.plan.metrics.next_seconds = 0.005;
  st.plan.self_seconds = 0.002;
  conquer::PlanNodeStats scan;
  scan.description = "SeqScan(lineitem)";
  scan.metrics.next_seconds = 0.003;
  scan.metrics.io_read_seconds = 0.001;
  scan.self_seconds = 0.003;
  st.plan.children.push_back(scan);
  Tracer tr(true, Clock::now());
  const int root = tr.Add("op", 100, 110, -1, 7);
  tr.AddQueryStats(st, root, 7);
  auto names = SelfTimeByName(tr.spans());
  CHECK(Near(names["op"], 2));  // 10 ms minus 8 ms of phases
  CHECK(Near(names["plan.bind"], 1));
  CHECK(Near(names["plan.plan"], 1));
  CHECK(Near(names["exec"], 1));  // 6 ms phase, 5 ms root operator
  CHECK(Near(names["exec.HashAggregate"], st.plan.self_seconds * 1e3));
  CHECK(Near(names["exec.SeqScan"] + names["storage.io_read"],
             scan.self_seconds * 1e3));
  CHECK(Near(names["storage.io_read"], 1));
  for (const Span& sp : tr.spans()) CHECK(sp.op == 7);

  // A disabled tracer records nothing.
  Tracer off(false, Clock::now());
  CHECK(off.Open("x", 1, -1) == -1);
  off.AddQueryStats(st, -1, 1);
  CHECK(off.spans().empty());
}

conquer::CleanAnswerSet Answers() {
  conquer::CleanAnswerSet a;
  a.column_names = {"id", "v"};
  a.answers.push_back({{Value::String("C1"), Value::Int(5)}, 1.0});
  a.answers.push_back({{Value::String("C2"), Value::Double(0.5)}, 0.25});
  a.answers.push_back({{Value::String("C3"), Value::Null()}, 0.75});
  return a;
}

void TestAnswerChecks() {
  const conquer::CleanAnswerSet ref = Answers();
  const uint64_t want = DigestAnswers(ref);

  // Order does not matter.
  conquer::CleanAnswerSet shuffled = ref;
  std::swap(shuffled.answers[0], shuffled.answers[2]);
  CHECK(DigestAnswers(shuffled) == want);

  // The raw rewritten result digests the same, after clamping a SUM that
  // drifted one ulp past 1.
  conquer::ResultSet raw;
  for (const auto& a : ref.answers) {
    conquer::Row row = a.row;
    double p = a.probability;
    if (p == 1.0) p = std::nextafter(1.0, 2.0);
    row.push_back(Value::Double(p));
    raw.rows.push_back(row);
  }
  CHECK(DigestRewrittenResult(raw) == want);

  // Injected wrong answers: one probability bit, one value, one lost row,
  // one duplicated row. Each must be recorded as a failed operation.
  std::vector<conquer::CleanAnswerSet> wrong(4, ref);
  wrong[0].answers[1].probability = std::nextafter(0.25, 1.0);
  wrong[1].answers[0].row[1] = Value::Int(6);
  wrong[2].answers.pop_back();
  wrong[3].answers.push_back(ref.answers[0]);
  Recorder rec(1);
  rec.Record(0, 1.0, DigestAnswers(ref) == want);
  for (const auto& w : wrong) rec.Record(0, 1.0, DigestAnswers(w) == want);
  CHECK(rec.attempted() == 5);
  CHECK(rec.failed() == 4);
  CHECK(rec.latencies(0).size() == 1);

  // Plain results: a changed double bit changes the digest.
  conquer::ResultSet a;
  a.rows.push_back({Value::Double(0.1)});
  conquer::ResultSet b;
  b.rows.push_back({Value::Double(std::nextafter(0.1, 1.0))});
  CHECK(DigestResult(a) != DigestResult(b));
}

void TestJson() {
  const std::string line =
      ResultJson(true, 3, 0, {{"latency_ms", 1.25, "ms"}, {"n", 2, "count"}});
  CHECK(line ==
        "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": "
        "{\"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \"n\": "
        "{\"value\": 2, \"unit\": \"count\"}}}");
  CHECK(FormatNumber(0.1) == "0.1");
  CHECK(JsonString("a\"b") == "\"a\\\"b\"");
}

}  // namespace

int main() {
  TestGeoMean();
  TestTailRule();
  TestSelfTime();
  TestAnswerChecks();
  TestJson();
  if (g_failures > 0) {
    std::fprintf(stderr, "selftest: %d check(s) failed\n", g_failures);
    return 1;
  }
  std::printf("selftest: all checks passed\n");
  return 0;
}
