#include "engine/persist.h"

#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "storage/segment.h"

namespace conquer {

namespace {

Result<DataType> TypeFromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "INT64")) return DataType::kInt64;
  if (EqualsIgnoreCase(name, "DOUBLE")) return DataType::kDouble;
  if (EqualsIgnoreCase(name, "STRING")) return DataType::kString;
  if (EqualsIgnoreCase(name, "DATE")) return DataType::kDate;
  if (EqualsIgnoreCase(name, "BOOL")) return DataType::kBool;
  return Status::InvalidArgument("unknown column type '" + std::string(name) +
                                 "' in manifest");
}

}  // namespace

Status SaveDatabase(const Database& db, const std::string& dir,
                    const DirtySchema* dirty) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory '" + dir +
                                   "': " + ec.message());
  }

  std::ostringstream manifest;
  // Writers wait until the walk is done; concurrent queries may continue.
  const Database::ReadSlot slot = db.AdmitRead();
  for (const std::string& name : db.catalog().TableNames()) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
    CONQUER_RETURN_NOT_OK(WriteTableSegment(table, dir + "/" + name + ".seg"));
    manifest << name;
    for (const ColumnDef& col : table->schema().columns()) {
      manifest << '|' << col.name << ':' << DataTypeToString(col.type);
    }
    manifest << '\n';
  }
  // Written only once every segment is durable, so a save failing above
  // leaves the previous manifest whole.
  CONQUER_RETURN_NOT_OK(
      WriteFileAtomically(dir + "/manifest.txt", manifest.str()));

  if (dirty != nullptr) {
    std::ostringstream out;
    for (const DirtyTableInfo& info : dirty->tables()) {
      out << info.table_name << '|' << info.id_column << '|'
          << info.prob_column << '|';
      for (size_t i = 0; i < info.foreign_ids.size(); ++i) {
        if (i > 0) out << ',';
        out << info.foreign_ids[i].column << ':'
            << info.foreign_ids[i].referenced_table;
      }
      out << '\n';
    }
    CONQUER_RETURN_NOT_OK(
        WriteFileAtomically(dir + "/dirty_schema.txt", out.str()));
  }
  return Status::OK();
}

Result<std::unique_ptr<Database>> LoadDatabase(const std::string& dir,
                                               DirtySchema* dirty) {
  std::ifstream manifest(dir + "/manifest.txt");
  if (!manifest) {
    return Status::NotFound("no manifest.txt in '" + dir + "'");
  }
  auto db = std::make_unique<Database>();

  std::string line;
  while (std::getline(manifest, line)) {
    if (Trim(line).empty()) continue;
    std::vector<std::string> parts = Split(line, '|');
    if (parts.size() < 2) {
      return Status::InvalidArgument("malformed manifest line: " + line);
    }
    TableSchema schema(parts[0], {});
    for (size_t i = 1; i < parts.size(); ++i) {
      std::vector<std::string> col = Split(parts[i], ':');
      if (col.size() != 2) {
        return Status::InvalidArgument("malformed column spec: " + parts[i]);
      }
      CONQUER_ASSIGN_OR_RETURN(DataType type, TypeFromName(col[1]));
      CONQUER_RETURN_NOT_OK(schema.AddColumn({col[0], type}));
    }
    CONQUER_RETURN_NOT_OK(db->CreateTable(schema));
    CONQUER_ASSIGN_OR_RETURN(Table * table, db->GetTable(parts[0]));
    CONQUER_RETURN_NOT_OK(
        LoadTableSegment(table, dir + "/" + parts[0] + ".seg"));
  }

  if (dirty != nullptr) {
    std::ifstream in(dir + "/dirty_schema.txt");
    if (in) {
      while (std::getline(in, line)) {
        if (Trim(line).empty()) continue;
        std::vector<std::string> parts = Split(line, '|');
        if (parts.size() != 4) {
          return Status::InvalidArgument("malformed dirty schema line: " +
                                         line);
        }
        DirtyTableInfo info;
        info.table_name = parts[0];
        info.id_column = parts[1];
        info.prob_column = parts[2];
        if (!parts[3].empty()) {
          for (const std::string& fk : Split(parts[3], ',')) {
            std::vector<std::string> pair = Split(fk, ':');
            if (pair.size() != 2) {
              return Status::InvalidArgument("malformed foreign id: " + fk);
            }
            info.foreign_ids.push_back({pair[0], pair[1]});
          }
        }
        CONQUER_RETURN_NOT_OK(dirty->AddTable(std::move(info)));
      }
    }
  }
  return db;
}

}  // namespace conquer
