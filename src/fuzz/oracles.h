#ifndef CONQUER_FUZZ_ORACLES_H_
#define CONQUER_FUZZ_ORACLES_H_

#include <cstdint>
#include <string>
#include <vector>

#include "fuzz/fuzz_case.h"

namespace conquer {
namespace fuzz {

/// \brief Deliberate bugs injectable into the checked engine results, for
/// mutation-testing the harness itself: each must be caught by an oracle.
enum class BugInjection {
  kNone = 0,
  /// Scales every engine probability by (1 + 2^-10): caught by the naive
  /// comparison and by the [0, 1] range oracle on certain answers.
  kProbBias,
  /// Drops the last answer from every engine run: caught by the naive
  /// answer-count comparison.
  kDropAnswer,
  /// Adds 2^-30 to probabilities only in parallel runs: caught by the
  /// bit-identity oracle across thread counts.
  kParallelSkew,
  /// Injects an off-by-one cluster skip into the incremental maintenance
  /// path (the first touched cluster is left stale after a write): caught
  /// by the mutation stage's cluster-sum and naive-snapshot oracles.
  kRenormSkip,
  /// Skips NULL-identifier matching in incremental maintenance (every
  /// NULL-id insert founds a fresh cluster): caught by the mutation stage's
  /// NULL-id matching oracle.
  kMatchSkip,
};

/// Parses "none", "prob_bias", "drop_answer", "parallel_skew",
/// "renorm_skip" or "match_skip".
Result<BugInjection> ParseBugInjection(std::string_view name);

/// \brief The failure category of a violated oracle. The shrinker uses the
/// kind to refuse shrinks that merely flip a case into an
/// expectation-mismatch failure (e.g. disconnecting the join tree).
enum class ViolationKind {
  kNone = 0,
  kExpectation,     ///< rewritable/reject expectation not met
  kInputIntegrity,  ///< generated cluster probabilities do not sum to ~1
  kEngineError,     ///< engine returned an unexpected error
  kRange,           ///< probability outside [0, 1]
  kNaiveMismatch,   ///< engine disagrees with the enumeration oracle
  kConfigMismatch,  ///< engine disagrees with itself across configurations
  kMaintenance,     ///< incremental probability maintenance left bad state
};

const char* ViolationKindToString(ViolationKind kind);

/// \brief Sweep configuration + oracle tolerances.
struct OracleOptions {
  uint64_t max_candidates = 1 << 12;
  std::vector<size_t> thread_counts = {1, 3};
  std::vector<size_t> batch_sizes = {1, 7, 1024};
  std::vector<size_t> chunk_capacities = {1, 7, 65536};
  /// Also run with zone-map pruning, runtime Bloom filters and secondary
  /// index access disabled (individually and together).
  bool sweep_pruning_flags = true;
  double naive_tolerance = 1e-9;
  BugInjection inject = BugInjection::kNone;
};

/// \brief Outcome of one oracle run.
struct OracleReport {
  ViolationKind kind = ViolationKind::kNone;
  std::string violation;  ///< first violation, human-readable; empty when ok
  /// False when the candidate cap made the enumeration oracle bail
  /// (ResourceExhausted); the configuration sweeps still ran.
  bool naive_checked = false;
  size_t num_answers = 0;

  bool ok() const { return kind == ViolationKind::kNone; }
};

/// Runs every oracle over the case: expectation check (rewritable vs
/// reject), input cluster-probability integrity, naive candidate-enumeration
/// comparison, probability range, and bit-identity of the answer set across
/// thread counts, batch sizes, chunk capacities, pruning flags and index
/// access (on vs off).
///
/// Cases with writes then enter the mutation stage: each write replays
/// through the engine's write path, after which (a) every visible dirty
/// cluster's probabilities must sum to ~1, (b) clusters the write touched
/// must match an independent recomputation of the Figure-5 assignment over
/// the visible rows, (c) untouched clusters must be bitwise unchanged, and
/// (d) the live query must stay bit-identical across thread counts and
/// agree with the naive oracle evaluated on the extracted visible snapshot.
/// Checked before (a)-(c), (e) every row the write added with a NULL
/// identifier must hold the identifier of the nearest cluster within the
/// merge threshold (naive information-loss distances, ties within 1e-9),
/// or a fresh one when none is within it; the cluster it joined counts as
/// touched in (b) and (c).
/// Status errors are infrastructure failures (the case itself could not be
/// built); semantic failures come back inside the report.
Result<OracleReport> RunOracles(const FuzzCase& c, const OracleOptions& opts);

}  // namespace fuzz
}  // namespace conquer

#endif  // CONQUER_FUZZ_ORACLES_H_
