#include "prob/incremental.h"

#include <algorithm>
#include <cmath>
#include <optional>
#include <span>
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
/// and, once NULL-identifier matching has needed them, the first-meet
/// positions of their attribute values (FirstMeetPositions): m per row,
/// row-major, complete or empty.
struct ClusterRows {
  std::vector<size_t> rows;
  std::vector<uint64_t> positions;
};

/// Identifier -> index of the cluster's rows. The map's visit order decides
/// ties between equidistant clusters and the sequence S of
/// FirstMeetPositions, so it is filled in first-visible-row order and never
/// reserved.
using ClusterMembers = std::unordered_map<Value, uint32_t, ValueHash>;

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

/// Lower bound on the distance from a tuple of m attribute values to the
/// representative of a cluster of k members, the matcher's pure
/// information-loss distance. With pi1 = 1/(k+1) and pi2 = k/(k+1), a value
/// on one side only adds pi * p * log2(1/pi) to the Jensen-Shannon sum and
/// a shared value adds >= 0 (log-sum inequality): the u tuple values no
/// member has carry p = 1/m each, and the members' values outside the tuple
/// carry 1 - s/(k*m), s being the number of (member, tuple value) matches.
double DistanceLowerBound(size_t m, size_t k, size_t s, size_t u) {
  if (m == 0) return 0.0;
  const double kd = static_cast<double>(k);
  const double md = static_cast<double>(m);
  const double pi1 = 1.0 / (kd + 1.0);
  const double pi2 = kd / (kd + 1.0);
  return pi1 * (static_cast<double>(u) / md) * std::log2(1.0 / pi1) +
         pi2 * (1.0 - static_cast<double>(s) / (kd * md)) *
             std::log2(1.0 / pi2);
}

/// Dense ranks of `positions` in sorted order: equal positions share a
/// rank, so the ranks order and equate values exactly as the positions do.
std::vector<uint32_t> DenseRanks(const std::vector<uint64_t>& positions) {
  std::vector<uint64_t> sorted = positions;
  std::sort(sorted.begin(), sorted.end());
  sorted.erase(std::unique(sorted.begin(), sorted.end()), sorted.end());
  std::vector<uint32_t> out;
  out.reserve(positions.size());
  for (uint64_t p : positions) {
    out.push_back(static_cast<uint32_t>(
        std::lower_bound(sorted.begin(), sorted.end(), p) - sorted.begin()));
  }
  return out;
}

/// NULL-identifier matching's value order, without a value space.
///
/// A per-row rebuild of every representative interns rows in a fixed
/// sequence S: the first NULL-id row, every cluster's rows in the
/// membership map's visit order, then each later NULL-id row in its turn.
/// An element's index in V is then the rank of its first occurrence in S.
/// With seq(r) the place of row r in S and m attributes, the element's
/// *first-meet position* m*seq(r) + a, r the first row of S holding it at
/// attribute a, orders elements exactly as those indices do, and equal
/// positions are equal elements. A distance's bits depend on nothing else
/// (SparseDist sorts its entries by index; Mix and the distance only
/// compare indices), so positions relabelled densely per distance
/// (DenseRanks; 64-bit, so m*seq cannot wrap) leave the rebuild's bits.
///
/// A position costs one typed pass over the attribute's raw column
/// (CellElement, V's identity rule) that marks the rows of S
/// holding the element; each pass pins one column of one chunk at a time.
class FirstMeetPositions {
 public:
  /// A NULL-id row's elements: their positions and, per attribute, the
  /// rows of S holding the same element (ascending).
  struct Tuple {
    std::vector<uint64_t> positions;
    std::vector<std::vector<size_t>> holders;
  };

  /// Places the walk's rows in S.
  FirstMeetPositions(const Table& table, const std::vector<size_t>& attrs,
                     const ClusterMembers& members,
                     const std::vector<ClusterRows>& clusters,
                     const std::vector<size_t>& null_rows)
      : table_(table),
        attrs_(attrs),
        m_(attrs.size()),
        seq_(table.num_rows(), kNotInS),
        cluster_of_(table.num_rows(), kNoCluster) {
    uint64_t next = 0;
    seq_[null_rows[0]] = next++;
    for (const auto& [id, c] : members) {
      for (size_t r : clusters[c].rows) {
        seq_[r] = next++;
        cluster_of_[r] = c;
      }
    }
    for (size_t n = 1; n < null_rows.size(); ++n) seq_[null_rows[n]] = next++;
    for (size_t a = 0; a < m_; ++a) {
      columns_.push_back({static_cast<uint32_t>(attrs[a])});
    }
    GrowCounts(clusters.size());
  }

  /// The NULL-id row `row`'s positions and holders, one pass per attribute.
  /// The holders that are cluster members also give each cluster the lower
  /// bound's inputs: s, its (member, tuple value) matches, and the number
  /// of attributes at which some member matches (m - u).
  void MatchTuple(size_t row, Tuple* t) {
    t->positions.resize(m_);
    t->holders.resize(m_);
    for (size_t a = 0; a < m_; ++a) {
      const CellElement e = ElementAt(a, row);
      std::vector<size_t>& holders = t->holders[a];
      holders.clear();
      uint64_t first = kNotInS;
      ForEachHolder(a, {&e, 1}, [&](size_t, size_t r) {
        holders.push_back(r);
        first = std::min(first, seq_[r]);
        const uint32_t c = cluster_of_[r];
        if (c == kNoCluster) return;
        if (matches_[c]++ == 0) counted_.push_back(c);
        if (last_attr_[c] != a + 1) {
          last_attr_[c] = a + 1;
          ++matched_attrs_[c];
        }
      });
      t->positions[a] = m_ * first + a;
    }
  }

  /// Cluster `c`'s s and u from the last MatchTuple.
  size_t matches(uint32_t c) const { return matches_[c]; }
  size_t unmatched(uint32_t c) const { return m_ - matched_attrs_[c]; }

  /// Zeroes the counts the last MatchTuple left.
  void ClearCounts() {
    for (uint32_t c : counted_) {
      matches_[c] = 0;
      matched_attrs_[c] = 0;
      last_attr_[c] = 0;
    }
    counted_.clear();
  }

  /// The exact distance from the tuple to the cluster's representative,
  /// as the rebuild computed it.
  double Distance(const Tuple& t, ClusterRows* cluster) {
    EnsurePositions(cluster, &t);
    std::vector<uint64_t> positions = t.positions;
    positions.insert(positions.end(), cluster->positions.begin(),
                     cluster->positions.end());
    const std::vector<uint32_t> ranks = DenseRanks(positions);
    const auto split = ranks.begin() + static_cast<ptrdiff_t>(m_);
    const Dcf tuple =
        Dcf::ForTuple(std::vector<uint32_t>(ranks.begin(), split));
    const Dcf rep = Dcf::MergeAll(TupleDcfs(
        std::vector<uint32_t>(split, ranks.end()), cluster->rows.size()));
    // Passing the summed weights as the total makes the n/N prefactor 1,
    // the same pure-information-loss distance the matcher thresholds.
    return InformationLossDistance(tuple, rep, tuple.weight + rep.weight);
  }

  /// Appends NULL-id row `row`, described by `t`, to cluster `c`; its
  /// positions extend the cluster's when those are complete.
  void Join(size_t row, const Tuple& t, uint32_t c, ClusterRows* cluster) {
    if (cluster->positions.size() == cluster->rows.size() * m_) {
      cluster->positions.insert(cluster->positions.end(), t.positions.begin(),
                                t.positions.end());
    }
    cluster->rows.push_back(row);
    cluster_of_[row] = c;
    GrowCounts(c + 1);
  }

  /// The cluster's value indices for renormalization: its positions,
  /// relabelled densely (none for a singleton, which needs no values).
  std::vector<uint32_t> Indices(ClusterRows* cluster) {
    if (cluster->rows.size() <= 1) return {};
    EnsurePositions(cluster, nullptr);
    return DenseRanks(cluster->positions);
  }

 private:
  static constexpr uint64_t kNotInS = UINT64_MAX;
  static constexpr uint32_t kNoCluster = UINT32_MAX;

  /// The element at attribute `a` of `row`, read under a pin of its block.
  CellElement ElementAt(size_t a, size_t row) const {
    const size_t c = row / table_.chunk_capacity();
    const uint32_t local = static_cast<uint32_t>(row % table_.chunk_capacity());
    const ChunkPin pin = table_.PinChunk(c, columns_[a], RowSpan(&local, 1));
    return CellElement(table_.chunk(c).column(attrs_[a]), local,
                       table_.dictionary(attrs_[a]));
  }

  /// Calls `fn(k, r)` for every row r of S whose attribute `a` holds
  /// `elements[k]`: one pass over the column, chunk by chunk.
  template <typename Fn>
  void ForEachHolder(size_t a, std::span<const CellElement> elements,
                     Fn&& fn) const {
    for (size_t c = 0; c < table_.num_chunks(); ++c) {
      const ChunkPin pin = table_.PinChunk(c, columns_[a]);
      const Chunk& chunk = table_.chunk(c);
      const ColumnVector& column = chunk.column(attrs_[a]);
      const size_t base = c * table_.chunk_capacity();
      for (size_t k = 0; k < elements.size(); ++k) {
        elements[k].ForEachMatch(column, 0, chunk.num_rows(), [&](size_t i) {
          if (seq_[base + i] != kNotInS) fn(k, base + i);
        });
      }
    }
  }

  /// Fills the cluster's positions unless they are complete. A member
  /// value equal to the tuple's at its attribute (a holder of `t`, when
  /// given) takes the tuple's position; the other distinct elements of an
  /// attribute share one pass over its column.
  void EnsurePositions(ClusterRows* cluster, const Tuple* t) {
    const size_t k = cluster->rows.size();
    if (cluster->positions.size() == k * m_) return;
    cluster->positions.assign(k * m_, 0);
    std::vector<CellElement> pending;
    std::vector<size_t> slot(k);
    for (size_t a = 0; a < m_; ++a) {
      pending.clear();
      for (size_t j = 0; j < k; ++j) {
        const size_t r = cluster->rows[j];
        if (t != nullptr && std::binary_search(t->holders[a].begin(),
                                               t->holders[a].end(), r)) {
          cluster->positions[j * m_ + a] = t->positions[a];
          slot[j] = SIZE_MAX;
          continue;
        }
        const CellElement e = ElementAt(a, r);
        slot[j] = static_cast<size_t>(
            std::find(pending.begin(), pending.end(), e) - pending.begin());
        if (slot[j] == pending.size()) pending.push_back(e);
      }
      if (pending.empty()) continue;
      std::vector<uint64_t> first(pending.size(), kNotInS);
      ForEachHolder(a, pending, [&](size_t p, size_t r) {
        first[p] = std::min(first[p], seq_[r]);
      });
      for (size_t j = 0; j < k; ++j) {
        if (slot[j] != SIZE_MAX) {
          cluster->positions[j * m_ + a] = m_ * first[slot[j]] + a;
        }
      }
    }
  }

  /// Sizes the per-cluster counts for `n` clusters.
  void GrowCounts(size_t n) {
    if (matches_.size() >= n) return;
    matches_.resize(n);
    matched_attrs_.resize(n);
    last_attr_.resize(n);
  }

  const Table& table_;
  const std::vector<size_t>& attrs_;
  const size_t m_;
  std::vector<ColumnSet> columns_;  ///< one-column pin sets, by attribute
  std::vector<uint64_t> seq_;       ///< by row position; kNotInS outside S
  std::vector<uint32_t> cluster_of_;  ///< by row position, or kNoCluster
  // Lower-bound inputs of the last MatchTuple, by cluster index.
  std::vector<uint32_t> matches_;
  std::vector<uint32_t> matched_attrs_;
  std::vector<size_t> last_attr_;  ///< last attribute counted, plus one
  std::vector<uint32_t> counted_;  ///< clusters with nonzero counts
};

/// Fresh-identifier state of one call: the candidates tried so far and the
/// largest visible numeric identifier, taken from the membership map at
/// the first numeric request, before any fresh identifier joined it.
struct FreshIds {
  size_t counter = 0;
  std::optional<int64_t> max_int;
  std::optional<double> max_double;
};

/// Fresh cluster identifier for an unmatched NULL-id insert: "m<N>" for
/// string identifiers, the largest identifier + 1 for INT64, DATE and
/// DOUBLE ones, and for BOOL the value no cluster holds. Identifiers are
/// user data, so every candidate is probed against the membership map
/// (which already includes earlier fresh assignments) until one is unused —
/// otherwise the new singleton would silently join an unrelated existing
/// cluster. Fails when no unused identifier exists: both BOOL values are
/// taken, or the next numeric candidate is not representable above the
/// largest identifier.
Result<Value> FreshIdentifier(const Table& table, size_t id_col,
                              size_t num_visible,
                              const ClusterMembers& members, FreshIds* fresh) {
  auto unused = [&](const Value& v) {
    return members.find(v) == members.end();
  };
  auto exhausted = [&](const std::string& why) {
    return Status::ResourceExhausted(
        "no unused identifier for a new cluster of '" + table.name() +
        "': " + why);
  };
  const DataType type = table.schema().column(id_col).type;
  if (type == DataType::kString) {
    while (true) {
      Value cand =
          Value::String("m" + std::to_string(num_visible + fresh->counter++));
      if (unused(cand)) return cand;
    }
  }
  if (type == DataType::kBool) {
    for (bool b : {false, true}) {
      if (unused(Value::Bool(b))) return Value::Bool(b);
    }
    return exhausted("both BOOL values are taken");
  }
  if (type == DataType::kDouble) {
    if (!fresh->max_double.has_value()) {
      double max = 0.0;
      for (const auto& [id, c] : members) {
        max = std::max(max, id.double_value());
      }
      fresh->max_double = max;
    }
    const double max = *fresh->max_double;
    while (true) {
      const double cand = max + 1.0 + static_cast<double>(fresh->counter++);
      if (!(cand > max)) {
        return exhausted("no DOUBLE above " + Value::Double(max).ToString());
      }
      if (unused(Value::Double(cand))) return Value::Double(cand);
    }
  }
  if (!fresh->max_int.has_value()) {
    int64_t max = 0;
    for (const auto& [id, c] : members) max = std::max(max, id.int_value());
    fresh->max_int = max;
  }
  while (true) {
    Value cand = Value::Int(*fresh->max_int + 1 +
                            static_cast<int64_t>(fresh->counter++));
    if (unused(cand)) return cand;
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
  std::vector<ClusterRows> clusters;
  auto cluster = [&](Value id) -> ClusterRows& {
    const auto [it, inserted] = members.try_emplace(
        std::move(id), static_cast<uint32_t>(clusters.size()));
    if (inserted) clusters.emplace_back();
    return clusters[it->second];
  };
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
        cluster(ids->GetValue(i, id_dict)).rows.push_back(base + i);
      } else if (const int k = touched_keys.Find(*ids, i); k >= 0) {
        cluster(touched[static_cast<size_t>(k)]).rows.push_back(base + i);
      }
    }
  }
  const double total_weight = static_cast<double>(num_visible);

  // Every in-place write is staged and applied only once the whole pass has
  // succeeded: a failure on the Nth touched cluster must not leave the
  // first N-1 already renormalized (the write aborts, but SetValue mutates
  // committed-visible rows that no rollback could restore).
  std::vector<StagedWrite> staged;

  // Match rows inserted without a cluster identifier against the existing
  // cluster representatives; join the nearest within the threshold, else
  // start a new singleton cluster under a fresh identifier. Values are
  // ordered by their first-meet positions, as a per-row rebuild of every
  // representative interned them. A cluster's positions and exact distance
  // are built only when its lower bound cannot rule it out; the map is
  // re-iterated live per row (a fresh singleton may rehash it), and the
  // last cluster at the smallest distance wins.
  std::optional<FirstMeetPositions> first_meet;
  if (touched_null && !null_rows.empty()) {
    first_meet.emplace(*table, attrs, members, clusters, null_rows);
    const size_t m = attrs.size();
    FreshIds fresh;
    FirstMeetPositions::Tuple tuple;
    for (size_t pos : null_rows) {
      first_meet->MatchTuple(pos, &tuple);
      const Value* best_id = nullptr;
      uint32_t best = 0;
      double best_dist = options.merge_threshold;
      for (const auto& [id, c] : members) {
        if (DistanceLowerBound(m, clusters[c].rows.size(),
                               first_meet->matches(c),
                               first_meet->unmatched(c)) >
            best_dist + kPruneSlack) {
          continue;
        }
        const double d = first_meet->Distance(tuple, &clusters[c]);
        if (d <= best_dist) {
          best_dist = d;
          best_id = &id;
          best = c;
        }
      }
      first_meet->ClearCounts();
      if (g_fault == IncrementalFault::kSkipMatch) {
        best_id = nullptr;  // injected: every NULL-id row founds a cluster
      }
      Value assigned;
      if (best_id != nullptr) {
        assigned = *best_id;
      } else {
        CONQUER_ASSIGN_OR_RETURN(
            assigned,
            FreshIdentifier(*table, id_col, num_visible, members, &fresh));
        best = static_cast<uint32_t>(clusters.size());
        cluster(assigned);
      }
      staged.push_back({pos, id_col, assigned});
      first_meet->Join(pos, tuple, best, &clusters[best]);
      if (touched_set.insert(assigned).second) touched.push_back(assigned);
    }
  }

  // Renormalization: on the NULL path from the first-meet positions,
  // otherwise interning the touched clusters, in touched order, into one
  // space.
  std::optional<ValueSpace> space;
  if (!first_meet) space.emplace();
  size_t first = 0;
  if (g_fault == IncrementalFault::kSkipFirstCluster && !touched.empty()) {
    first = 1;  // injected off-by-one: first touched cluster left stale
  }
  size_t renormalized = 0;
  for (size_t i = first; i < touched.size(); ++i) {
    auto it = members.find(touched[i]);
    if (it == members.end()) continue;  // cluster fully deleted
    ClusterRows& rows = clusters[it->second];
    for (const TupleProbability& t :
         first_meet ? InformationLossProbabilities(
                          rows.rows, first_meet->Indices(&rows), total_weight)
                    : InformationLossProbabilities(*table, rows.rows, attrs,
                                                   total_weight, &*space)) {
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
