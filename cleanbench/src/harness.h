// Measurement harness of the clean-answer benchmark: latency recording and
// summary statistics, answer digests, and the in-memory span tracer used by
// the traced run. Nothing here reaches into the engine's internals; the
// workloads call the engine's public API and hand the results to these
// helpers.

#ifndef CLEANBENCH_HARNESS_H_
#define CLEANBENCH_HARNESS_H_

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "core/clean_answer.h"
#include "exec/query_stats.h"
#include "exec/result_set.h"

namespace cleanbench {

using Clock = std::chrono::steady_clock;

/// Milliseconds elapsed between two clock readings.
inline double Ms(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

// ---------------------------------------------------------------- statistics

/// Median of `v` (mean of the two middle values for even sizes); 0 if empty.
double Median(std::vector<double> v);

/// 25th percentile of `v` by nearest rank (the sample at 1-based rank
/// ceil(n/4)); 0 if empty.
double LowerQuartile(std::vector<double> v);

/// Geometric mean of strictly positive values; 0 if empty.
double GeoMean(const std::vector<double>& v);

/// A latency percentile chosen by the tail rule.
struct Tail {
  double percentile = 0;  ///< e.g. 99 for p99; 0 when there are no samples
  double value = 0;       ///< the sample at that percentile
};

/// The tail rule: the highest percentile of {99.9, 99, 95, 90, 75, 50} that
/// has at least ten samples strictly beyond it (nearest-rank definition:
/// percentile p is the sample at 1-based rank ceil(p/100 * n), and the
/// samples beyond it are the n - rank larger-ranked ones). Falls back to the
/// median when even p50 has fewer than ten samples beyond it.
Tail TailPercentile(std::vector<double> v);

// ------------------------------------------------------------- op recording

/// Statement families. Every workload reports, per family, the geometric
/// mean of its classes' minimum latencies (see README.md for what each
/// family holds on each workload and why the minimum). kNotesOnly classes
/// are printed in the notes and enter no metric.
enum class Family { kClean, kSecond, kNotesOnly };

struct OpClass {
  std::string name;
  Family family = Family::kClean;
  /// The family geomean takes this class's median instead of its minimum:
  /// for classes whose samples differ by input (which key, which chunk)
  /// rather than by host noise, the minimum would pick one input.
  bool by_median = false;
};

/// Latencies and failures of one closed-loop client, per statement class.
/// Not thread-safe: each client owns one and the workload merges them.
class Recorder {
 public:
  explicit Recorder(size_t num_classes) : latencies_(num_classes) {}

  /// Counts one attempted operation. A failed or wrong operation counts as
  /// failed and contributes no latency sample.
  void Record(size_t cls, double ms, bool ok) {
    ++attempted_;
    if (ok) {
      latencies_[cls].push_back(ms);
    } else {
      ++failed_;
    }
  }

  void Merge(const Recorder& other);

  uint64_t attempted() const { return attempted_; }
  uint64_t failed() const { return failed_; }
  const std::vector<double>& latencies(size_t cls) const {
    return latencies_[cls];
  }

  /// Geometric mean over the classes of `family` that have samples of each
  /// class's minimum latency; 0 when none has samples.
  double FamilyGeoMean(const std::vector<OpClass>& classes,
                       Family family) const;

 private:
  std::vector<std::vector<double>> latencies_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ------------------------------------------------------------ answer digests

// Digests are order-insensitive 64-bit hashes of a set of rows. Each row
// hashes its values by type and exact bit pattern; the row hashes are sorted
// and hashed again, so a digest does not depend on row order but does count
// duplicate rows.

/// Digest of clean answers: each answer row plus the bits of its (already
/// clamped) probability.
uint64_t DigestAnswers(const conquer::CleanAnswerSet& answers);

/// Digest of a rewritten query's raw result: the last column is the
/// unclamped `clean_prob` SUM, which is clamped exactly as
/// CleanAnswerEngine does before hashing. Equal to DigestAnswers of the
/// same answers.
uint64_t DigestRewrittenResult(const conquer::ResultSet& rs);

/// Digest of an ordinary result (no probability column).
uint64_t DigestResult(const conquer::ResultSet& rs);

/// Hex form used in digests.txt.
std::string HexDigest(uint64_t d);

// -------------------------------------------------------------------- tracing

/// One traced interval. Spans of one operation share `op`; `parent` is the
/// index of the enclosing span in the same tracer, or -1 for a root.
struct Span {
  std::string name;
  double start_ms = 0;
  double end_ms = 0;
  int parent = -1;
  uint64_t op = 0;
};

/// In-memory span recorder. Spans are kept until the run ends and then
/// written out. One tracer per client thread; a disabled tracer records
/// nothing and costs one branch per call.
class Tracer {
 public:
  Tracer(bool enabled, Clock::time_point epoch)
      : enabled_(enabled), epoch_(epoch) {}

  bool enabled() const { return enabled_; }

  /// Opens a span at the current time; returns its index (-1 when off).
  int Open(std::string name, uint64_t op, int parent);
  /// Closes a span opened by Open at the current time.
  void Close(int id);
  /// Adds a closed span with explicit bounds (milliseconds since epoch).
  int Add(std::string name, double start_ms, double end_ms, int parent,
          uint64_t op);

  /// Converts the phase and operator trees of one engine call into child
  /// spans of `parent`, laid out back to back from the parent's start:
  /// `sql.parse`, `plan.bind`, `plan.plan` and `exec`, the latter holding
  /// one `exec.<Operator>` span per plan node (children back to back inside
  /// their parent) and a `storage.io_read` span for each node's chunk reads.
  void AddQueryStats(const conquer::QueryStats& stats, int parent,
                     uint64_t op);

  double NowMs() const { return Ms(epoch_, Clock::now()); }
  Clock::time_point epoch() const { return epoch_; }
  const std::vector<Span>& spans() const { return spans_; }
  /// Appends another tracer's spans, re-basing their parent indices.
  void Merge(const Tracer& other);

 private:
  double AddPlanNode(const conquer::PlanNodeStats& node, double start,
                     double limit, int parent, uint64_t op);

  bool enabled_;
  Clock::time_point epoch_;
  std::vector<Span> spans_;
};

/// Self time of every span: its duration minus the part of its interval
/// that the union of its children's intervals covers (children clipped to
/// the parent). Indexed like `spans`.
std::vector<double> SelfTimes(const std::vector<Span>& spans);

/// Sum of self time by span name.
std::map<std::string, double> SelfTimeByName(const std::vector<Span>& spans);

/// Writes spans as JSON lines (one object per span) to `path`.
bool WriteSpans(const std::vector<Span>& spans, const std::string& path);

// --------------------------------------------------------------------- output

/// One reported metric.
struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// Shortest round-trip decimal form of a double (all its digits).
std::string FormatNumber(double v);

/// The benchmark's result line: {"correct", "attempted", "failed",
/// "metrics": {name: {"value", "unit"}}}.
std::string ResultJson(bool correct, uint64_t attempted, uint64_t failed,
                       const std::vector<Metric>& metrics);

/// Quotes and escapes a string for JSON.
std::string JsonString(std::string_view s);

// --------------------------------------------------------------------- memory

/// VmHWM of this process in MiB (-1 if unavailable).
double PeakRssMb();
/// Resets VmHWM to the current RSS; false when the kernel refuses.
bool ResetPeakRss();

}  // namespace cleanbench

#endif  // CLEANBENCH_HARNESS_H_
