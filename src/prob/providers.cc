#include "prob/providers.h"

#include <vector>

#include "prob/assigner.h"

namespace conquer {

Status AssignUniformProbabilities(Table* table, const DirtyTableInfo& info) {
  // Every member at distance 0 from its representative: Fig. 5 step 3 then
  // gives each one 1/|cluster|.
  return AssignClusterProbabilities(
             table, info,
             [](const std::vector<size_t>& members, size_t) {
               std::vector<TupleProbability> out(members.size());
               for (size_t i = 0; i < members.size(); ++i) {
                 out[i].row = members[i];
               }
               NormalizeCluster(&out);
               return out;
             })
      .status();
}

Status AssignSourceReliabilityProbabilities(
    Table* table, const DirtyTableInfo& info, std::string_view source_column,
    const std::unordered_map<std::string, double>& reliability,
    double default_reliability) {
  if (default_reliability < 0.0) {
    return Status::InvalidArgument("default reliability must be >= 0");
  }
  for (const auto& [source, weight] : reliability) {
    if (weight < 0.0) {
      return Status::InvalidArgument("negative reliability for source '" +
                                     source + "'");
    }
  }
  CONQUER_ASSIGN_OR_RETURN(size_t source_col,
                           table->schema().GetColumnIndex(source_column));
  RowCursor cursor(table);
  auto weight_of = [&](size_t row) {
    cursor.Touch(row);
    Value v = cursor.ValueAt(row, source_col);
    if (v.is_null()) return default_reliability;
    auto it = reliability.find(v.ToString());
    return it == reliability.end() ? default_reliability : it->second;
  };
  return AssignClusterProbabilities(
             table, info,
             [&](const std::vector<size_t>& members, size_t) {
               std::vector<double> weight(members.size());
               double total = 0.0;
               for (size_t i = 0; i < members.size(); ++i) {
                 weight[i] = weight_of(members[i]);
                 total += weight[i];
               }
               std::vector<TupleProbability> out(members.size());
               for (size_t i = 0; i < members.size(); ++i) {
                 out[i].row = members[i];
                 out[i].probability =
                     total > 0.0 ? weight[i] / total
                                 : 1.0 / static_cast<double>(members.size());
               }
               return out;
             })
      .status();
}

}  // namespace conquer
