#include "prob/assigner.h"

#include <algorithm>

#if defined(__GLIBC__)
#include <malloc.h>
#endif

namespace conquer {

namespace {
constexpr double kZeroDistanceEpsilon = 1e-12;
}  // namespace

Result<std::vector<size_t>> ResolveAttributeColumns(
    const Table& table, const DirtyTableInfo& info,
    const AssignerOptions& options) {
  std::vector<size_t> cols;
  if (!options.attribute_columns.empty()) {
    for (const std::string& name : options.attribute_columns) {
      CONQUER_ASSIGN_OR_RETURN(size_t idx,
                               table.schema().GetColumnIndex(name));
      cols.push_back(idx);
    }
    return cols;
  }
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table.schema().GetColumnIndex(info.id_column));
  int prob_col = -1;
  if (!info.prob_column.empty()) {
    CONQUER_ASSIGN_OR_RETURN(size_t idx,
                             table.schema().GetColumnIndex(info.prob_column));
    prob_col = static_cast<int>(idx);
  }
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    if (c == id_col || static_cast<int>(c) == prob_col) continue;
    cols.push_back(c);
  }
  return cols;
}

Result<Dcf> BuildClusterRepresentative(const Table& table,
                                       const std::vector<size_t>& rows,
                                       const std::vector<size_t>& attr_columns,
                                       ValueSpace* space) {
  if (rows.empty()) {
    return Status::InvalidArgument("cluster has no rows");
  }
  RowCursor cursor(&table);
  std::vector<Dcf> tuples;
  tuples.reserve(rows.size());
  for (size_t r : rows) {
    tuples.push_back(TupleDcf(&cursor, r, attr_columns, space));
  }
  return Dcf::MergeAll(tuples);
}

void NormalizeCluster(std::vector<TupleProbability>* cluster) {
  const double n = static_cast<double>(cluster->size());
  double total = 0.0;
  for (const TupleProbability& t : *cluster) total += t.distance;
  const bool uniform = cluster->size() == 1 || total <= kZeroDistanceEpsilon;
  for (TupleProbability& t : *cluster) {
    t.similarity = uniform ? 1.0 : 1.0 - t.distance / total;
    t.probability = uniform ? 1.0 / n : t.similarity / (n - 1.0);
  }
}

namespace {

/// Fig. 5 steps 1-3 from the members' tuple DCFs, in member order (none
/// for a singleton): each serves both the representative merge and the
/// member's distance, measured against `total_weight` tuples.
std::vector<TupleProbability> ClusterProbabilities(
    const std::vector<size_t>& members, const std::vector<Dcf>& tuples,
    double total_weight) {
  std::vector<TupleProbability> out(members.size());
  for (size_t i = 0; i < members.size(); ++i) out[i].row = members[i];
  if (members.size() > 1) {
    const Dcf rep = Dcf::MergeAll(tuples);
    for (size_t i = 0; i < tuples.size(); ++i) {
      out[i].distance = InformationLossDistance(tuples[i], rep, total_weight);
    }
  }
  NormalizeCluster(&out);
  return out;
}

}  // namespace

std::vector<TupleProbability> InformationLossProbabilities(
    const std::vector<size_t>& members, const std::vector<uint32_t>& indices,
    double total_weight) {
  return ClusterProbabilities(
      members,
      members.size() > 1 ? TupleDcfs(indices, members.size())
                         : std::vector<Dcf>{},
      total_weight);
}

std::vector<TupleProbability> InformationLossProbabilities(
    const Table& table, const std::vector<size_t>& members,
    const std::vector<size_t>& attr_columns, double total_weight,
    ValueSpace* space) {
  std::vector<Dcf> tuples;
  if (members.size() > 1) {
    tuples.reserve(members.size());
    RowCursor cursor(&table);
    for (size_t r : members) {
      tuples.push_back(TupleDcf(&cursor, r, attr_columns, space));
    }
  }
  return ClusterProbabilities(members, tuples, total_weight);
}

void ApplyStagedWrites(Table* table, const std::vector<StagedWrite>& writes) {
  RowCursor cursor(table);
  for (const StagedWrite& w : writes) {
    cursor.Touch(w.row);
    cursor.SetValue(w.row, w.col, w.value);
  }
}

Result<std::vector<TupleProbability>> AssignClusterProbabilities(
    Table* table, const DirtyTableInfo& info,
    const ClusterProbabilityFn& per_cluster) {
  if (info.prob_column.empty()) {
    return Status::InvalidArgument(
        "table '" + info.table_name +
        "' has no probability column to assign into");
  }
  CONQUER_ASSIGN_OR_RETURN(size_t prob_col,
                           table->schema().GetColumnIndex(info.prob_column));
  CONQUER_ASSIGN_OR_RETURN(
      VisibleClusters clusters,
      CollectVisibleClusters(*table, info, table->committed_version()));
  std::vector<TupleProbability> out;
  out.reserve(clusters.num_rows);
  for (const std::vector<size_t>& members : clusters.members) {
    const std::vector<TupleProbability> cluster =
        per_cluster(members, clusters.num_rows);
    out.insert(out.end(), cluster.begin(), cluster.end());
  }
  std::sort(out.begin(), out.end(),
            [](const TupleProbability& a, const TupleProbability& b) {
              return a.row < b.row;
            });
  std::vector<StagedWrite> staged;
  staged.reserve(out.size());
  for (const TupleProbability& t : out) {
    staged.push_back({t.row, prob_col, Value::Double(t.probability)});
  }
  ApplyStagedWrites(table, staged);
  return out;
}

Result<std::vector<TupleProbability>> AssignProbabilities(
    Table* table, const DirtyTableInfo& info, const AssignerOptions& options) {
  CONQUER_ASSIGN_OR_RETURN(std::vector<size_t> attrs,
                           ResolveAttributeColumns(*table, info, options));
  Result<std::vector<TupleProbability>> out = [&] {
    ValueSpace space;
    return AssignClusterProbabilities(
        table, info, [&](const std::vector<size_t>& members, size_t num_rows) {
          return InformationLossProbabilities(
              *table, members, attrs, static_cast<double>(num_rows), &space);
        });
  }();
  // The pass's value space and per-cluster DCFs are freed by now, but the
  // allocator keeps that heap (one large free top chunk on a big table)
  // resident; hand it back so the process footprint after set-up is its
  // live data, not this pass's transient peak.
#if defined(__GLIBC__)
  malloc_trim(0);
#endif
  return out;
}

}  // namespace conquer
