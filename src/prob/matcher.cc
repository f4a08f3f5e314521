#include "prob/matcher.h"

#include "common/str_util.h"
#include "prob/dcf.h"

namespace conquer {

namespace {

Result<std::vector<size_t>> ResolveColumns(const Table& table,
                                           const MatcherOptions& options) {
  std::vector<size_t> cols;
  if (!options.attribute_columns.empty()) {
    for (const std::string& name : options.attribute_columns) {
      CONQUER_ASSIGN_OR_RETURN(size_t idx,
                               table.schema().GetColumnIndex(name));
      cols.push_back(idx);
    }
    return cols;
  }
  for (size_t c = 0; c < table.schema().num_columns(); ++c) {
    bool excluded = false;
    for (const std::string& name : options.exclude_columns) {
      excluded = excluded || EqualsIgnoreCase(table.schema().column(c).name,
                                              name);
    }
    if (!excluded) cols.push_back(c);
  }
  if (cols.empty()) {
    return Status::InvalidArgument("no attribute columns left for matching");
  }
  return cols;
}

}  // namespace

Result<MatchResult> MatchTuples(const Table& table,
                                const MatcherOptions& options) {
  if (options.merge_threshold < 0.0 || options.merge_threshold > 1.0) {
    return Status::InvalidArgument("merge_threshold must be in [0, 1]");
  }
  CONQUER_ASSIGN_OR_RETURN(std::vector<size_t> cols,
                           ResolveColumns(table, options));

  MatchResult result;
  result.cluster_of_row.resize(table.num_rows());
  ValueSpace space;
  std::vector<Dcf> clusters;

  RowCursor cursor(&table);
  for (size_t r = 0; r < table.num_rows(); ++r) {
    Dcf tuple = TupleDcf(&cursor, r, cols, &space);

    // Nearest representative by (pure) Jensen-Shannon divergence: pass the
    // summed weight as the ensemble size so the n/N prefactor is 1.
    double best = options.merge_threshold;
    int best_cluster = -1;
    for (size_t c = 0; c < clusters.size(); ++c) {
      double d = InformationLossDistance(tuple, clusters[c],
                                         tuple.weight + clusters[c].weight);
      if (d <= best) {
        best = d;
        best_cluster = static_cast<int>(c);
      }
    }
    if (best_cluster < 0) {
      result.cluster_of_row[r] = clusters.size();
      clusters.push_back(std::move(tuple));
    } else {
      result.cluster_of_row[r] = static_cast<size_t>(best_cluster);
      clusters[best_cluster] = Dcf::Merge(clusters[best_cluster], tuple);
    }
  }
  result.num_clusters = clusters.size();
  return result;
}

Result<MatchResult> AssignClusterIdentifiers(Table* table,
                                             std::string_view id_column,
                                             const MatcherOptions& options,
                                             std::string_view prefix) {
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table->schema().GetColumnIndex(id_column));
  // Never match on the identifier column itself.
  MatcherOptions effective = options;
  if (effective.attribute_columns.empty()) {
    effective.exclude_columns.push_back(std::string(id_column));
  }
  CONQUER_ASSIGN_OR_RETURN(MatchResult result, MatchTuples(*table, effective));
  RowCursor cursor(table);
  for (size_t r = 0; r < table->num_rows(); ++r) {
    cursor.Touch(r);
    // SetValue re-interns the string through the column dictionary, so the
    // rewritten identifiers stay on the interned-compare fast path.
    cursor.SetValue(r, id_col,
                    Value::String(std::string(prefix) +
                                  std::to_string(result.cluster_of_row[r])));
  }
  return result;
}

}  // namespace conquer
