#ifndef CONQUER_EXEC_RUNTIME_FILTER_H_
#define CONQUER_EXEC_RUNTIME_FILTER_H_

#include <atomic>
#include <memory>
#include <vector>

#include "common/bloom.h"
#include "types/value.h"

namespace conquer {

/// \brief What a hash join's build side hands to a base-table scan in its
/// probe subtree.
///
/// The planner creates one per (join, key column), shared between the
/// producing HashJoinOp and the consuming scan. The join fills it from the
/// distinct build-side key values after its build phase and flips `ready`;
/// the scan — which a join always opens *after* its build is drained, for
/// every nesting of joins — reads it from then on. It carries one of:
///
/// - kBloom: a Bloom filter over the keys. A SeqScanOp drops probe rows
///   whose key cannot be in the build table before wide materialization.
/// - kKeys: the distinct non-NULL keys themselves. The join's probe child,
///   an IndexScanOp, resolves them into index probes when it opens and
///   seeds its chunks with their candidates.
///
/// Safety: either way the scan only ever *drops* rows, and only rows whose
/// join key is provably absent from the build side (Bloom filters have no
/// false negatives; index candidates are a superset of the key matches) or
/// NULL (which an inner equi-join drops anyway). False positives merely
/// pass a row the join will reject. Surviving rows keep their scan order,
/// so downstream results — including floating-point SUM(prob) accumulation
/// order — are bit-identical with or without the filter.
struct RuntimeFilter {
  enum class Kind { kBloom, kKeys };

  explicit RuntimeFilter(Kind k = Kind::kBloom) : kind(k) {}

  const Kind kind;
  BlockedBloomFilter bloom;  ///< kBloom
  std::vector<Value> keys;   ///< kKeys
  std::atomic<bool> ready{false};
};

using RuntimeFilterPtr = std::shared_ptr<RuntimeFilter>;

}  // namespace conquer

#endif  // CONQUER_EXEC_RUNTIME_FILTER_H_
