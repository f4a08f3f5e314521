#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

namespace cleanbench {

using conquer::DataType;
using conquer::Row;
using conquer::Value;

// ---------------------------------------------------------------- statistics

double Median(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t mid = v.size() / 2;
  std::nth_element(v.begin(), v.begin() + mid, v.end());
  const double hi = v[mid];
  if (v.size() % 2 == 1) return hi;
  const double lo = *std::max_element(v.begin(), v.begin() + mid);
  return (lo + hi) / 2;
}

double LowerQuartile(std::vector<double> v) {
  if (v.empty()) return 0;
  const size_t rank = (v.size() + 3) / 4;  // ceil(n / 4), at least 1
  std::nth_element(v.begin(), v.begin() + (rank - 1), v.end());
  return v[rank - 1];
}

double GeoMean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double log_sum = 0;
  for (double x : v) log_sum += std::log(x);
  return std::exp(log_sum / static_cast<double>(v.size()));
}

Tail TailPercentile(std::vector<double> v) {
  Tail tail;
  if (v.empty()) return tail;
  std::sort(v.begin(), v.end());
  const double n = static_cast<double>(v.size());
  for (double p : {99.9, 99.0, 95.0, 90.0, 75.0, 50.0}) {
    // 1-based nearest rank; the small epsilon keeps p*n/100 that is an exact
    // integer in decimal from rounding up through binary representation.
    const size_t rank =
        std::max<size_t>(1, static_cast<size_t>(std::ceil(p * n / 100 - 1e-9)));
    if (v.size() - rank >= 10 || p == 50.0) {
      tail.percentile = p;
      tail.value = v[rank - 1];
      return tail;
    }
  }
  return tail;
}

// ------------------------------------------------------------- op recording

void Recorder::Merge(const Recorder& other) {
  for (size_t c = 0; c < latencies_.size() && c < other.latencies_.size();
       ++c) {
    latencies_[c].insert(latencies_[c].end(), other.latencies_[c].begin(),
                         other.latencies_[c].end());
  }
  attempted_ += other.attempted_;
  failed_ += other.failed_;
}

double Recorder::FamilyGeoMean(const std::vector<OpClass>& classes,
                               Family family) const {
  std::vector<double> per_class;
  for (size_t c = 0; c < classes.size() && c < latencies_.size(); ++c) {
    const std::vector<double>& l = latencies_[c];
    if (classes[c].family == family && !l.empty()) {
      per_class.push_back(classes[c].by_median
                           ? Median(l)
                           : *std::min_element(l.begin(), l.end()));
    }
  }
  return GeoMean(per_class);
}

// ------------------------------------------------------------ answer digests

namespace {

constexpr uint64_t kFnvOffset = 1469598103934665603ULL;
constexpr uint64_t kFnvPrime = 1099511628211ULL;

uint64_t Fnv(uint64_t h, const void* data, size_t n) {
  const auto* p = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    h ^= p[i];
    h *= kFnvPrime;
  }
  return h;
}

uint64_t FnvU64(uint64_t h, uint64_t x) { return Fnv(h, &x, sizeof(x)); }

uint64_t DoubleBits(double d) {
  uint64_t bits = 0;
  std::memcpy(&bits, &d, sizeof(bits));
  return bits;
}

uint64_t HashValue(uint64_t h, const Value& v) {
  h = FnvU64(h, static_cast<uint64_t>(v.type()));
  switch (v.type()) {
    case DataType::kNull:
      return h;
    case DataType::kBool:
      return FnvU64(h, v.bool_value() ? 1 : 0);
    case DataType::kInt64:
      return FnvU64(h, static_cast<uint64_t>(v.int_value()));
    case DataType::kDate:
      return FnvU64(h, static_cast<uint64_t>(v.date_value()));
    case DataType::kDouble:
      return FnvU64(h, DoubleBits(v.double_value()));
    case DataType::kString: {
      const std::string& s = v.string_value();
      h = FnvU64(h, s.size());
      return Fnv(h, s.data(), s.size());
    }
  }
  return h;
}

class RowDigest {
 public:
  /// Adds one row; when `prob_bits` is non-null its 64 bits are mixed into
  /// the row's hash as a trailing value.
  void AddRow(const Row& row, const uint64_t* prob_bits = nullptr) {
    uint64_t h = kFnvOffset;
    for (const Value& v : row) h = HashValue(h, v);
    if (prob_bits != nullptr) h = FnvU64(h, *prob_bits);
    row_hashes_.push_back(h);
  }

  uint64_t Finish() {
    std::sort(row_hashes_.begin(), row_hashes_.end());
    uint64_t h = FnvU64(kFnvOffset, row_hashes_.size());
    for (uint64_t x : row_hashes_) h = FnvU64(h, x);
    return h;
  }

 private:
  std::vector<uint64_t> row_hashes_;
};

}  // namespace

uint64_t DigestAnswers(const conquer::CleanAnswerSet& answers) {
  RowDigest d;
  for (const conquer::CleanAnswer& a : answers.answers) {
    const uint64_t bits = DoubleBits(a.probability);
    d.AddRow(a.row, &bits);
  }
  return d.Finish();
}

uint64_t DigestRewrittenResult(const conquer::ResultSet& rs) {
  RowDigest d;
  Row head;
  for (const Row& row : rs.rows) {
    if (row.empty()) {
      d.AddRow(row);
      continue;
    }
    head.assign(row.begin(), row.end() - 1);
    const uint64_t bits =
        DoubleBits(conquer::ClampProbability(row.back().AsDouble()));
    d.AddRow(head, &bits);
  }
  return d.Finish();
}

uint64_t DigestResult(const conquer::ResultSet& rs) {
  RowDigest d;
  for (const Row& row : rs.rows) d.AddRow(row);
  return d.Finish();
}

std::string HexDigest(uint64_t d) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(d));
  return buf;
}

// -------------------------------------------------------------------- tracing

int Tracer::Open(std::string name, uint64_t op, int parent) {
  if (!enabled_) return -1;
  const double now = NowMs();
  return Add(std::move(name), now, now, parent, op);
}

void Tracer::Close(int id) {
  if (!enabled_ || id < 0) return;
  spans_[static_cast<size_t>(id)].end_ms = NowMs();
}

int Tracer::Add(std::string name, double start_ms, double end_ms, int parent,
                uint64_t op) {
  if (!enabled_) return -1;
  spans_.push_back(Span{std::move(name), start_ms, end_ms, parent, op});
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::AddPlanNode(const conquer::PlanNodeStats& node, double start,
                           double limit, int parent, uint64_t op) {
  const std::string& desc = node.description;
  const size_t cut = desc.find_first_of("( ");
  const std::string op_name =
      "exec." + (cut == std::string::npos ? desc : desc.substr(0, cut));
  const double end =
      std::min(limit, start + node.metrics.total_seconds() * 1e3);
  const int id = Add(op_name, start, end, parent, op);
  double t = start;
  if (node.metrics.io_read_seconds > 0) {
    const double io_end =
        std::min(end, t + node.metrics.io_read_seconds * 1e3);
    Add("storage.io_read", t, io_end, id, op);
    t = io_end;
  }
  for (const conquer::PlanNodeStats& child : node.children) {
    t = AddPlanNode(child, t, end, id, op);
  }
  return end;
}

void Tracer::AddQueryStats(const conquer::QueryStats& stats, int parent,
                           uint64_t op) {
  if (!enabled_ || parent < 0) return;
  const Span& p = spans_[static_cast<size_t>(parent)];
  const double limit = p.end_ms;
  double t = p.start_ms;
  auto phase = [&](const char* name, double seconds) {
    if (seconds <= 0) return -1;
    const double end = std::min(limit, t + seconds * 1e3);
    const int id = Add(name, t, end, parent, op);
    t = end;
    return id;
  };
  phase("sql.parse", stats.parse_seconds);
  phase("plan.bind", stats.bind_seconds);
  phase("plan.plan", stats.plan_seconds);
  const double exec_start = t;
  const int exec = phase("exec", stats.exec_seconds);
  if (exec >= 0 && !stats.plan.description.empty()) {
    AddPlanNode(stats.plan, exec_start, t, exec, op);
  }
}

void Tracer::Merge(const Tracer& other) {
  const int base = static_cast<int>(spans_.size());
  for (Span s : other.spans_) {
    if (s.parent >= 0) s.parent += base;
    spans_.push_back(std::move(s));
  }
}

std::vector<double> SelfTimes(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0 && static_cast<size_t>(s.parent) < spans.size()) {
      kids[static_cast<size_t>(s.parent)].emplace_back(s.start_ms, s.end_ms);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start_ms;
    const double hi = spans[i].end_ms;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0;
    double cur_lo = 0;
    double cur_hi = -1;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
      } else {
        if (open) covered += cur_hi - cur_lo;
        cur_lo = a;
        cur_hi = b;
        open = true;
      }
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = std::max(0.0, (hi - lo) - covered);
  }
  return self;
}

std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans) {
  const std::vector<double> self = SelfTimes(spans);
  std::map<std::string, double> by_name;
  for (size_t i = 0; i < spans.size(); ++i) by_name[spans[i].name] += self[i];
  return by_name;
}

bool WriteSpans(const std::vector<Span>& spans, const std::string& path) {
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    out << "{\"id\": " << i << ", \"op\": " << s.op
        << ", \"parent\": " << s.parent << ", \"name\": " << JsonString(s.name)
        << ", \"start_ms\": " << FormatNumber(s.start_ms)
        << ", \"end_ms\": " << FormatNumber(s.end_ms) << "}\n";
  }
  out.close();
  return static_cast<bool>(out);
}

// --------------------------------------------------------------------- output

std::string FormatNumber(double v) {
  if (!std::isfinite(v)) return "0";
  char buf[64];
  auto res = std::to_chars(buf, buf + sizeof(buf), v);
  return std::string(buf, res.ptr);
}

std::string JsonString(std::string_view s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char hex[8];
      std::snprintf(hex, sizeof(hex), "\\u%04x", c);
      out += hex;
    } else {
      out += c;
    }
  }
  out += '"';
  return out;
}

std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics) {
  std::string out = "{\"correct\": ";
  out += correct ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(attempted);
  out += ", \"failed\": " + std::to_string(failed);
  out += ", \"metrics\": {";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ", ";
    out += JsonString(metrics[i].name) +
           ": {\"value\": " + FormatNumber(metrics[i].value) +
           ", \"unit\": " + JsonString(metrics[i].unit) + "}";
  }
  out += "}}";
  return out;
}

// --------------------------------------------------------------------- memory

double PeakRssMb() {
  std::ifstream in("/proc/self/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::atof(line.c_str() + 6) / 1024.0;
    }
  }
  return -1;
}

bool ResetPeakRss() {
  std::ofstream out("/proc/self/clear_refs");
  if (!out) return false;
  out << "5";
  out.close();
  return static_cast<bool>(out);
}

}  // namespace cleanbench
