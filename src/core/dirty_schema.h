#ifndef CONQUER_CORE_DIRTY_SCHEMA_H_
#define CONQUER_CORE_DIRTY_SCHEMA_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"

namespace conquer {

class Table;

/// \brief Dirty-table annotations for one relation (paper Dfn 2).
///
/// A dirty relation carries a cluster-identifier attribute (tuples sharing
/// an identifier are duplicates of one real-world entity) and a probability
/// attribute (probabilities within each cluster sum to 1). A relation with
/// an empty `prob_column` is *clean*: every tuple is its own cluster with
/// probability 1 (its identifier is then simply its key).
struct DirtyTableInfo {
  /// Reference from a foreign-identifier column to the identified table,
  /// produced by identifier propagation (e.g. order.cidfk -> customer.id).
  struct ForeignId {
    std::string column;
    std::string referenced_table;
  };

  std::string table_name;
  std::string id_column;            ///< cluster identifier attribute
  std::string prob_column;          ///< empty for clean relations
  std::vector<ForeignId> foreign_ids;
};

/// \brief The set of dirty-table annotations for a database.
class DirtySchema {
 public:
  /// Registers annotations for one table; AlreadyExists on duplicates.
  Status AddTable(DirtyTableInfo info);

  /// Annotations for the named table, or nullptr if unregistered.
  const DirtyTableInfo* Find(std::string_view table_name) const;

  /// Annotations for the named table, or NotFound.
  Result<const DirtyTableInfo*> Get(std::string_view table_name) const;

  const std::vector<DirtyTableInfo>& tables() const { return tables_; }

 private:
  std::vector<DirtyTableInfo> tables_;
};

/// \brief A dirty table's clusters as visible at one snapshot.
struct VisibleClusters {
  /// Row positions of each cluster, ascending; clusters come in the order
  /// of their first visible row.
  std::vector<std::vector<size_t>> members;
  /// Visible rows over all clusters (Fig. 5's total weight).
  size_t num_rows = 0;
};

/// \brief The one cluster walk of every per-cluster pass: groups the rows
/// of `table` visible at `snapshot` by `info.id_column` (equal identifier
/// values form one cluster, Dfn 2). Deleted and superseded row versions are
/// not part of any cluster. Reads each visible row's identifier once, in
/// position order, under one RowCursor.
Result<VisibleClusters> CollectVisibleClusters(const Table& table,
                                               const DirtyTableInfo& info,
                                               uint64_t snapshot);

}  // namespace conquer

#endif  // CONQUER_CORE_DIRTY_SCHEMA_H_
