#include "core/dirty_schema.h"

#include <unordered_map>

#include "common/str_util.h"
#include "storage/table.h"

namespace conquer {

Status DirtySchema::AddTable(DirtyTableInfo info) {
  if (Find(info.table_name) != nullptr) {
    return Status::AlreadyExists("dirty annotations for table '" +
                                 info.table_name + "' already registered");
  }
  if (info.id_column.empty()) {
    return Status::InvalidArgument("dirty table '" + info.table_name +
                                   "' must name an identifier column");
  }
  tables_.push_back(std::move(info));
  return Status::OK();
}

const DirtyTableInfo* DirtySchema::Find(std::string_view table_name) const {
  for (const auto& t : tables_) {
    if (EqualsIgnoreCase(t.table_name, table_name)) return &t;
  }
  return nullptr;
}

Result<const DirtyTableInfo*> DirtySchema::Get(
    std::string_view table_name) const {
  const DirtyTableInfo* info = Find(table_name);
  if (info == nullptr) {
    return Status::NotFound("table '" + std::string(table_name) +
                            "' is not registered in the dirty schema");
  }
  return info;
}

Result<VisibleClusters> CollectVisibleClusters(const Table& table,
                                               const DirtyTableInfo& info,
                                               uint64_t snapshot) {
  CONQUER_ASSIGN_OR_RETURN(size_t id_col,
                           table.schema().GetColumnIndex(info.id_column));
  VisibleClusters out;
  std::unordered_map<Value, size_t, ValueHash> cluster_of;
  RowCursor cursor(&table);
  for (size_t pos = 0; pos < table.num_rows(); ++pos) {
    if (!table.RowVisibleAt(pos, snapshot)) continue;
    cursor.Touch(pos);
    auto [it, inserted] =
        cluster_of.try_emplace(cursor.ValueAt(pos, id_col), out.members.size());
    if (inserted) out.members.emplace_back();
    out.members[it->second].push_back(pos);
    ++out.num_rows;
  }
  return out;
}

}  // namespace conquer
