// The benchmark's four workloads. Each runs closed-loop clients against the
// engine's public API, checks every answer, and reports the end-to-end
// metrics (untraced run) or the per-layer metrics (traced run).

#ifndef CLEANBENCH_WORKLOADS_H_
#define CLEANBENCH_WORKLOADS_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "harness.h"

namespace cleanbench {

/// Default of both seeds; digests.txt holds the answers for it.
inline constexpr uint64_t kDefaultSeed = 20060402;

struct RunOptions {
  std::string workload;
  /// Seeds every operation stream: query order, lookup keys, client mixes,
  /// the write stream.
  uint64_t seed = kDefaultSeed;
  /// Seeds the generated database. Fixed unless --data-seed is given: at
  /// these scale factors the data seed alone moves query costs and peak
  /// RSS by more than the benchmark's bounds.
  uint64_t data_seed = kDefaultSeed;
  double seconds = 10;
  bool trace = false;
  /// Scratch directory inside the checkout (segment files, span dumps).
  std::string data_dir;
  /// `digests.txt`: answer digests recorded for kDefaultSeed.
  std::string digests_path;
  /// Print the digests of this run instead of checking the stored ones.
  bool record_digests = false;
};

struct RunResult {
  bool correct = true;
  /// Why `correct` is false (printed to stderr).
  std::vector<std::string> problems;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  /// The metrics of the result line: end-to-end when untraced, per-layer
  /// when traced.
  std::vector<Metric> metrics;
  /// Run configuration for the header line (key, JSON value).
  std::vector<std::pair<std::string, std::string>> header;
  /// Extra human-readable lines (per-class latencies, tail percentile).
  std::vector<std::string> notes;
};

/// Names accepted by RunWorkload.
const std::vector<std::string>& WorkloadNames();

/// Runs one workload. A set-up failure comes back with `correct` false, the
/// reason in `problems` and no metrics.
RunResult RunWorkload(const RunOptions& options);

}  // namespace cleanbench

#endif  // CLEANBENCH_WORKLOADS_H_
