#include "engine/persist.h"

#include <filesystem>
#include <fstream>

#include "common/str_util.h"
#include "engine/csv.h"
#include "storage/segment.h"

namespace conquer {

namespace {

constexpr const char* kNullSpelling = "\\N";

Result<DataType> TypeFromName(std::string_view name) {
  if (EqualsIgnoreCase(name, "INT64")) return DataType::kInt64;
  if (EqualsIgnoreCase(name, "DOUBLE")) return DataType::kDouble;
  if (EqualsIgnoreCase(name, "STRING")) return DataType::kString;
  if (EqualsIgnoreCase(name, "DATE")) return DataType::kDate;
  if (EqualsIgnoreCase(name, "BOOL")) return DataType::kBool;
  return Status::InvalidArgument("unknown column type '" + std::string(name) +
                                 "' in manifest");
}

CsvOptions PersistCsvOptions() {
  CsvOptions options;
  options.null_literal = kNullSpelling;
  return options;
}

/// Value::ToString prints doubles with %.6g — fine for display, lossy on
/// disk. The CSV export uses %.17g, the shortest precision guaranteed to
/// round-trip every finite double through decimal.
std::string CsvField(const Value& v, const CsvOptions& csv) {
  if (v.is_null()) return csv.null_literal;
  if (v.type() == DataType::kDouble) {
    return StringPrintf("%.17g", v.double_value());
  }
  return v.ToString();
}

Status SaveTableCsv(const Table& table, const std::string& path,
                    const CsvOptions& csv) {
  std::ofstream data(path);
  if (!data) {
    return Status::InvalidArgument("cannot write table file '" + path + "'");
  }
  std::vector<std::string> header;
  for (const ColumnDef& col : table.schema().columns()) {
    header.push_back(col.name);
  }
  data << FormatCsvLine(header, csv) << '\n';
  std::vector<std::string> fields(header.size());
  Row row;
  // Export only the rows visible at the latest committed version: dead row
  // versions must not be resurrected by a save/load cycle, and rows of
  // uncommitted writes must not leak out.
  RowCursor cursor(&table);
  for (size_t r : table.VisibleRowPositions(table.committed_version())) {
    // Materialize one row at a time: chunked tables have no contiguous
    // row vector to iterate, and a full copy would double peak memory.
    cursor.Touch(r);
    table.GetRowInto(r, &row);
    for (size_t c = 0; c < row.size(); ++c) {
      fields[c] = CsvField(row[c], csv);
    }
    data << FormatCsvLine(fields, csv) << '\n';
  }
  return Status::OK();
}

}  // namespace

Status SaveDatabase(const Database& db, const std::string& dir,
                    const DirtySchema* dirty, SaveFormat format) {
  std::error_code ec;
  std::filesystem::create_directories(dir, ec);
  if (ec) {
    return Status::InvalidArgument("cannot create directory '" + dir +
                                   "': " + ec.message());
  }

  std::ofstream manifest(dir + "/manifest.txt");
  if (!manifest) {
    return Status::InvalidArgument("cannot write manifest in '" + dir + "'");
  }
  CsvOptions csv = PersistCsvOptions();
  // Writers wait until the walk is done; concurrent queries may continue.
  const Database::ReadSlot slot = db.AdmitRead();
  for (const std::string& name : db.catalog().TableNames()) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db.GetTable(name));
    manifest << name;
    for (const ColumnDef& col : table->schema().columns()) {
      manifest << '|' << col.name << ':' << DataTypeToString(col.type);
    }
    manifest << '\n';

    if (format == SaveFormat::kBinary) {
      CONQUER_RETURN_NOT_OK(
          WriteTableSegment(table, dir + "/" + name + ".seg"));
    } else {
      CONQUER_RETURN_NOT_OK(
          SaveTableCsv(*table, dir + "/" + name + ".csv", csv));
    }
  }

  if (dirty != nullptr) {
    std::ofstream out(dir + "/dirty_schema.txt");
    if (!out) {
      return Status::InvalidArgument("cannot write dirty schema file");
    }
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
  CsvOptions csv = PersistCsvOptions();

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

    const std::string seg_path = dir + "/" + parts[0] + ".seg";
    if (std::filesystem::exists(seg_path)) {
      CONQUER_ASSIGN_OR_RETURN(Table * table, db->GetTable(parts[0]));
      CONQUER_RETURN_NOT_OK(LoadTableSegment(table, seg_path));
      continue;
    }
    std::ifstream data(dir + "/" + parts[0] + ".csv");
    if (!data) {
      return Status::NotFound("missing table file for '" + parts[0] + "'");
    }
    CONQUER_RETURN_NOT_OK(LoadCsv(db.get(), parts[0], &data, csv).status());
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
