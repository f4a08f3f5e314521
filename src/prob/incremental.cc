#include "prob/incremental.h"

#include <algorithm>
#include <string>
#include <unordered_map>
#include <unordered_set>

#include "engine/database.h"
#include "prob/assigner.h"
#include "prob/dcf.h"

namespace conquer {

namespace {

IncrementalFault g_fault = IncrementalFault::kNone;

using ClusterMembers =
    std::unordered_map<Value, std::vector<size_t>, ValueHash>;

/// Fresh cluster identifier for an unmatched NULL-id insert: "m<N>" for
/// string identifiers, max+1 for integer ones. Identifiers are user data,
/// so every candidate is probed against the membership map (which already
/// includes earlier fresh assignments) until one is unused — otherwise the
/// new singleton would silently join an unrelated existing cluster.
Value FreshIdentifier(const Table& table, size_t id_col,
                      const std::vector<size_t>& visible,
                      const ClusterMembers& members, size_t* counter) {
  if (table.schema().column(id_col).type == DataType::kString) {
    while (true) {
      Value cand =
          Value::String("m" + std::to_string(visible.size() + (*counter)++));
      if (members.find(cand) == members.end()) return cand;
    }
  }
  int64_t max_id = 0;
  RowCursor cursor(&table);
  for (size_t pos : visible) {
    cursor.Touch(pos);
    Value v = table.ValueAt(pos, id_col);
    if (!v.is_null()) max_id = std::max(max_id, v.int_value());
  }
  while (true) {
    Value cand = Value::Int(max_id + 1 + static_cast<int64_t>((*counter)++));
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

  const std::vector<size_t> visible = table->VisibleRowPositions(snapshot);
  const double total_weight = static_cast<double>(visible.size());

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

  // Visible membership of every cluster (needed both for renormalization
  // and for matching NULL-id inserts against all representatives).
  ClusterMembers members;
  std::vector<size_t> null_rows;
  RowCursor cursor(table);
  for (size_t pos : visible) {
    cursor.Touch(pos);
    Value id = table->ValueAt(pos, id_col);
    if (id.is_null()) {
      null_rows.push_back(pos);
    } else {
      members[std::move(id)].push_back(pos);
    }
  }

  ValueSpace space;
  // Every in-place write is staged and applied only once the whole pass has
  // succeeded: a failure on the Nth touched cluster must not leave the
  // first N-1 already renormalized (the write aborts, but SetValue mutates
  // committed-visible rows that no rollback could restore).
  std::vector<StagedWrite> staged;

  // Match rows inserted without a cluster identifier against the existing
  // cluster representatives; join the nearest within the threshold, else
  // start a new singleton cluster under a fresh identifier.
  if (touched_null && !null_rows.empty()) {
    size_t fresh_counter = 0;
    for (size_t pos : null_rows) {
      cursor.Touch(pos);
      Dcf tuple = TupleDcf(*table, pos, attrs, &space);
      const Value* best_id = nullptr;
      double best_dist = options.merge_threshold;
      for (const auto& [id, rows] : members) {
        CONQUER_ASSIGN_OR_RETURN(
            Dcf rep, BuildClusterRepresentative(*table, rows, attrs, &space));
        // Passing the summed weights as the total makes the n/N prefactor 1,
        // the same pure-information-loss distance the matcher thresholds.
        double d =
            InformationLossDistance(tuple, rep, tuple.weight + rep.weight);
        if (d <= best_dist) {
          best_dist = d;
          best_id = &id;
        }
      }
      Value assigned = best_id != nullptr
                           ? *best_id
                           : FreshIdentifier(*table, id_col, visible, members,
                                             &fresh_counter);
      staged.push_back({pos, id_col, assigned});
      members[assigned].push_back(pos);
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
             *table, it->second, attrs, total_weight, &space)) {
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
