#include "prob/incremental.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "engine/database.h"
#include "prob/assigner.h"
#include "prob/dcf.h"

namespace conquer {

namespace {

IncrementalFault g_fault = IncrementalFault::kNone;

/// Slack under which a lower bound may exceed the best distance before the
/// exact distance is skipped: it absorbs the rounding of the computed
/// distance, so a pruned cluster is one `d <= best` would have rejected.
constexpr double kPruneSlack = 1e-9;

/// One cluster's visible rows (ascending, joined NULL-id rows appended)
/// and, during NULL-id matching, their interned attribute values: m per
/// row, row-major.
struct ClusterRows {
  std::vector<size_t> rows;
  std::vector<uint32_t> values;
};

using ClusterMembers = std::unordered_map<Value, ClusterRows, ValueHash>;

/// The touched identifiers in the id column's stored form (dictionary code
/// or int64 payload), so the id walk compares raw payloads instead of
/// building a Value per row. A DOUBLE column, or an identifier whose type
/// is not the column's, falls back to Value equality.
class TouchedIds {
 public:
  TouchedIds(const Table& table, size_t id_col,
             const std::vector<Value>& touched)
      : touched_(touched), dict_(table.dictionary(id_col)) {
    const DataType type = table.schema().column(id_col).type;
    raw_ = type != DataType::kDouble;
    for (const Value& id : touched) {
      if (!raw_ || id.type() != type) {
        raw_ = false;
        break;
      }
      keys_.push_back(type == DataType::kString ? dict_->Find(id.string_value())
                      : type == DataType::kBool ? (id.bool_value() ? 1 : 0)
                                                : id.int_value());
    }
  }

  /// Index into `touched` of the non-NULL identifier at row `i`, or -1.
  int Find(const ColumnVector& ids, uint32_t i) const {
    if (!raw_) {
      const Value id = ids.GetValue(i, dict_);
      for (size_t k = 0; k < touched_.size(); ++k) {
        if (id == touched_[k]) return static_cast<int>(k);
      }
      return -1;
    }
    const int64_t key = ids.type() == DataType::kString
                            ? static_cast<int64_t>(ids.code_data()[i])
                            : ids.fixed_data()[i];
    for (size_t k = 0; k < keys_.size(); ++k) {
      if (keys_[k] == key) return static_cast<int>(k);
    }
    return -1;
  }

 private:
  const std::vector<Value>& touched_;
  const StringDictionary* dict_;
  bool raw_ = true;
  std::vector<int64_t> keys_;
};

/// Lower bound on the distance from a tuple (interned values `tuple`) to
/// the representative of `cluster` (k members), the matcher's pure
/// information-loss distance. With m attributes, pi1 = 1/(k+1) and
/// pi2 = k/(k+1), a value on one side only adds pi * p * log2(1/pi) to the
/// Jensen-Shannon sum and a shared value adds >= 0 (log-sum inequality):
/// the u tuple values no member has carry p = 1/m each, and the members'
/// values outside the tuple carry 1 - s/(k*m), s being the number of
/// (member, tuple value) matches.
double DistanceLowerBound(const std::vector<uint32_t>& tuple,
                          const ClusterRows& cluster) {
  const size_t m = tuple.size();
  const size_t k = cluster.rows.size();
  if (m == 0) return 0.0;
  size_t s = 0;
  size_t u = 0;
  for (size_t a = 0; a < m; ++a) {
    size_t hits = 0;
    for (size_t r = 0; r < k; ++r) {
      if (cluster.values[r * m + a] == tuple[a]) ++hits;
    }
    s += hits;
    if (hits == 0) ++u;
  }
  const double kd = static_cast<double>(k);
  const double md = static_cast<double>(m);
  const double pi1 = 1.0 / (kd + 1.0);
  const double pi2 = kd / (kd + 1.0);
  return pi1 * (static_cast<double>(u) / md) * std::log2(1.0 / pi1) +
         pi2 * (1.0 - static_cast<double>(s) / (kd * md)) *
             std::log2(1.0 / pi2);
}

/// The cluster representative BuildClusterRepresentative would build, from
/// the cached value indices: the members' tuple DCFs merged in row order.
Dcf Representative(const ClusterRows& cluster, size_t m) {
  std::vector<Dcf> tuples;
  tuples.reserve(cluster.rows.size());
  for (size_t r = 0; r < cluster.rows.size(); ++r) {
    const auto first = cluster.values.begin() + static_cast<ptrdiff_t>(r * m);
    tuples.push_back(Dcf::ForTuple(std::vector<uint32_t>(first, first + m)));
  }
  return Dcf::MergeAll(tuples);
}

/// Fresh cluster identifier for an unmatched NULL-id insert: "m<N>" for
/// string identifiers, max+1 for integer ones. Identifiers are user data,
/// so every candidate is probed against the membership map (which already
/// includes earlier fresh assignments) until one is unused — otherwise the
/// new singleton would silently join an unrelated existing cluster.
/// `max_id` caches the largest visible identifier, taken from `members`
/// at the first integer request, before any fresh identifier joined it.
Value FreshIdentifier(const Table& table, size_t id_col, size_t num_visible,
                      const ClusterMembers& members, size_t* counter,
                      std::optional<int64_t>* max_id) {
  if (table.schema().column(id_col).type == DataType::kString) {
    while (true) {
      Value cand =
          Value::String("m" + std::to_string(num_visible + (*counter)++));
      if (members.find(cand) == members.end()) return cand;
    }
  }
  if (!max_id->has_value()) {
    int64_t max = 0;
    for (const auto& [id, cluster] : members) {
      max = std::max(max, id.int_value());
    }
    *max_id = max;
  }
  while (true) {
    Value cand =
        Value::Int(**max_id + 1 + static_cast<int64_t>((*counter)++));
    if (members.find(cand) == members.end()) return cand;
  }
}

}  // namespace

void SetIncrementalFaultInjection(IncrementalFault fault) { g_fault = fault; }

IncrementalFault GetIncrementalFaultInjection() { return g_fault; }

Result<size_t> ReassignClusters(Table* table, const DirtyTableInfo& info,
                                const std::vector<Value>& touched_ids,
                                uint64_t snapshot,
                                const IncrementalOptions& options) {
  if (info.prob_column.empty()) {
    return Status::InvalidArgument("table '" + info.table_name +
                                   "' has no probability column to maintain");
  }
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table->schema().GetColumnIndex(info.id_column));
  CONQUER_ASSIGN_OR_RETURN(size_t prob_col,
                           table->schema().GetColumnIndex(info.prob_column));
  CONQUER_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                           ResolveAttributeColumns(*table, info));

  // Distinct touched identifiers, in first-touch order.
  std::vector<Value> touched;
  std::unordered_set<Value, ValueHash> touched_set;
  bool touched_null = false;
  for (const Value& id : touched_ids) {
    if (id.is_null()) {
      touched_null = true;
      continue;
    }
    if (touched_set.insert(id).second) touched.push_back(id);
  }

  // One walk over the id column of the visible rows: their count (the
  // total weight), the NULL-id rows, and cluster membership. A NULL-id row
  // is matched against every cluster, so a write that touched a NULL
  // identifier collects them all; otherwise only the touched clusters are
  // collected. Members are ascending in both cases.
  const TouchedIds touched_keys(*table, id_col, touched);
  const StringDictionary* id_dict = table->dictionary(id_col);
  size_t num_visible = 0;
  ClusterMembers members;
  std::vector<size_t> null_rows;
  const ColumnSet id_cols = {static_cast<uint32_t>(id_col)};
  for (size_t c = 0; c < table->num_chunks(); ++c) {
    const Chunk& chunk = table->chunk(c);
    const size_t base = c * table->chunk_capacity();
    ChunkPin pin;  // taken at the first visible row: stamps are resident
    const ColumnVector* ids = nullptr;
    for (uint32_t i = 0; i < chunk.num_rows(); ++i) {
      if (!chunk.RowVisible(i, snapshot)) continue;
      if (!pin) {
        pin = table->PinChunk(c, id_cols);
        ids = &chunk.column(id_col);
      }
      ++num_visible;
      if (ids->is_null(i)) {
        null_rows.push_back(base + i);
      } else if (touched_null) {
        members[ids->GetValue(i, id_dict)].rows.push_back(base + i);
      } else if (const int k = touched_keys.Find(*ids, i); k >= 0) {
        members[touched[static_cast<size_t>(k)]].rows.push_back(base + i);
      }
    }
  }
  const double total_weight = static_cast<double>(num_visible);

  ValueSpace space;
  // Every in-place write is staged and applied only once the whole pass has
  // succeeded: a failure on the Nth touched cluster must not leave the
  // first N-1 already renormalized (the write aborts, but SetValue mutates
  // committed-visible rows that no rollback could restore).
  std::vector<StagedWrite> staged;

  // Match rows inserted without a cluster identifier against the existing
  // cluster representatives; join the nearest within the threshold, else
  // start a new singleton cluster under a fresh identifier. Values are
  // interned once per call in the order a per-row rebuild would first meet
  // them: the first NULL row, then every cluster's rows in map order, then
  // each later NULL row in its turn. A cluster's representative and exact
  // distance are built only when its lower bound cannot rule it out; the
  // map is re-iterated live per row (a fresh singleton may rehash it), and
  // the last cluster at the smallest distance wins.
  if (touched_null && !null_rows.empty()) {
    const size_t m = attrs.size();
    RowCursor cursor(table);
    size_t fresh_counter = 0;
    std::optional<int64_t> max_id;
    for (size_t n = 0; n < null_rows.size(); ++n) {
      const size_t pos = null_rows[n];
      std::vector<uint32_t> values;
      InternRow(&cursor, pos, attrs, &space, &values);
      if (n == 0) {
        for (auto& [id, cluster] : members) {
          cluster.values.reserve(cluster.rows.size() * m);
          for (size_t r : cluster.rows) {
            InternRow(&cursor, r, attrs, &space, &cluster.values);
          }
        }
      }
      const Dcf tuple = Dcf::ForTuple(values);
      const Value* best_id = nullptr;
      double best_dist = options.merge_threshold;
      for (const auto& [id, cluster] : members) {
        if (DistanceLowerBound(values, cluster) > best_dist + kPruneSlack) {
          continue;
        }
        const Dcf rep = Representative(cluster, m);
        // Passing the summed weights as the total makes the n/N prefactor 1,
        // the same pure-information-loss distance the matcher thresholds.
        const double d =
            InformationLossDistance(tuple, rep, tuple.weight + rep.weight);
        if (d <= best_dist) {
          best_dist = d;
          best_id = &id;
        }
      }
      if (g_fault == IncrementalFault::kSkipMatch) {
        best_id = nullptr;  // injected: every NULL-id row founds a cluster
      }
      Value assigned = best_id != nullptr
                           ? *best_id
                           : FreshIdentifier(*table, id_col, num_visible,
                                             members, &fresh_counter, &max_id);
      staged.push_back({pos, id_col, assigned});
      ClusterRows& joined = members[assigned];
      joined.rows.push_back(pos);
      joined.values.insert(joined.values.end(), values.begin(), values.end());
      if (touched_set.insert(assigned).second) touched.push_back(assigned);
    }
  }

  size_t first = 0;
  if (g_fault == IncrementalFault::kSkipFirstCluster && !touched.empty()) {
    first = 1;  // injected off-by-one: first touched cluster left stale
  }
  size_t renormalized = 0;
  for (size_t i = first; i < touched.size(); ++i) {
    auto it = members.find(touched[i]);
    if (it == members.end()) continue;  // cluster fully deleted
    for (const TupleProbability& t : InformationLossProbabilities(
             *table, it->second.rows, attrs, total_weight, &space)) {
      staged.push_back({t.row, prob_col, Value::Double(t.probability)});
    }
    ++renormalized;
  }
  ApplyStagedWrites(table, staged);
  return renormalized;
}

Status InstallIncrementalMaintenance(Database* db, const DirtySchema* dirty,
                                     const IncrementalOptions& options) {
  for (const DirtyTableInfo& info : dirty->tables()) {
    if (info.prob_column.empty()) continue;  // clean relation
    WriteMaintenanceHook hook;
    hook.id_column = info.id_column;
    hook.after_write = [info, options](Table* table,
                                       const std::vector<Value>& touched,
                                       uint64_t version) -> Status {
      return ReassignClusters(table, info, touched, version, options)
          .status();
    };
    db->SetWriteHook(info.table_name, std::move(hook));
  }
  return Status::OK();
}

}  // namespace conquer
