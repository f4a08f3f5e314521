#include "fuzz/corpus.h"

#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "common/str_util.h"
#include "engine/csv.h"

namespace conquer {
namespace fuzz {
namespace {

CsvOptions CorpusCsvOptions() {
  CsvOptions options;
  options.null_literal = kCorpusNull;
  return options;
}

const char* DataTypeName(DataType t) {
  switch (t) {
    case DataType::kString:
      return "string";
    case DataType::kInt64:
      return "int64";
    case DataType::kDouble:
      return "double";
    case DataType::kDate:
      return "date";
    case DataType::kBool:
      return "bool";
    case DataType::kNull:
      break;
  }
  return "string";
}

Result<DataType> DataTypeFromName(std::string_view name) {
  std::string lower = ToLower(name);
  if (lower == "string") return DataType::kString;
  if (lower == "int64") return DataType::kInt64;
  if (lower == "double") return DataType::kDouble;
  if (lower == "date") return DataType::kDate;
  if (lower == "bool") return DataType::kBool;
  return Status::InvalidArgument("unknown column type '" + lower + "'");
}

std::string EncodeField(const Value& v) {
  switch (v.type()) {
    case DataType::kNull:
      return kCorpusNull;
    case DataType::kBool:
      return v.bool_value() ? "true" : "false";
    case DataType::kInt64:
      return std::to_string(v.int_value());
    case DataType::kDouble:
      return StringPrintf("%.17g", v.double_value());
    case DataType::kString:
      return v.string_value();
    case DataType::kDate:
      return FormatDate(v.date_value());
  }
  return kCorpusNull;
}

Result<Value> DecodeField(const std::string& field, DataType type) {
  if (field == kCorpusNull) return Value::Null();
  switch (type) {
    case DataType::kString:
      return Value::String(field);
    case DataType::kInt64: {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(field.c_str(), &end, 10);
      if (errno != 0 || end == field.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad int64 field '" + field + "'");
      }
      return Value::Int(v);
    }
    case DataType::kDouble: {
      errno = 0;
      char* end = nullptr;
      double v = std::strtod(field.c_str(), &end);
      if (errno != 0 || end == field.c_str() || *end != '\0') {
        return Status::InvalidArgument("bad double field '" + field + "'");
      }
      return Value::Double(v);
    }
    case DataType::kDate: {
      CONQUER_ASSIGN_OR_RETURN(int64_t days, ParseDate(field));
      return Value::Date(days);
    }
    case DataType::kBool:
      if (EqualsIgnoreCase(field, "true")) return Value::Bool(true);
      if (EqualsIgnoreCase(field, "false")) return Value::Bool(false);
      return Status::InvalidArgument("bad bool field '" + field + "'");
    case DataType::kNull:
      break;
  }
  return Status::InvalidArgument("field with unsupported type");
}

size_t CountLines(const std::string& text) {
  size_t n = 0;
  for (char ch : text) {
    if (ch == '\n') ++n;
  }
  return n;
}

std::string TableCsv(const FuzzTable& t) {
  CsvOptions options = CorpusCsvOptions();
  std::vector<std::string> header;
  for (const FuzzColumn& col : t.columns) header.push_back(col.name);
  std::string csv = FormatCsvLine(header, options) + "\n";
  std::vector<std::string> fields(t.columns.size());
  for (const Row& row : t.rows) {
    for (size_t i = 0; i < row.size() && i < fields.size(); ++i) {
      fields[i] = EncodeField(row[i]);
    }
    csv += FormatCsvLine(fields, options) + "\n";
  }
  return csv;
}

/// Loads the CSV payload through the engine's strict RFC 4180 reader, so
/// corpus replays keep exercising the multi-line quoted-record path.
Result<std::vector<Row>> RowsFromCsv(const FuzzTable& t,
                                     const std::string& csv) {
  Database staging;
  CONQUER_RETURN_NOT_OK(staging.CreateTable(t.Schema()));
  auto loaded = LoadCsvString(&staging, t.name, csv, CorpusCsvOptions());
  if (!loaded.ok()) {
    return Status::InvalidArgument("table '" + t.name + "' csv payload: " +
                                   loaded.status().ToString());
  }
  CONQUER_ASSIGN_OR_RETURN(Table * table, staging.GetTable(t.name));
  std::vector<Row> rows;
  RowCursor cursor(table);
  for (size_t r : table->VisibleRowPositions(table->committed_version())) {
    cursor.Touch(r);
    rows.emplace_back();
    cursor.GetRowInto(r, &rows.back());
    DecodeRowInPlace(&rows.back());
  }
  return rows;
}

std::vector<std::string> Tokens(const std::string& line) {
  std::vector<std::string> out;
  std::istringstream in(line);
  std::string token;
  while (in >> token) out.push_back(token);
  return out;
}

}  // namespace

std::string SerializeCase(const FuzzCase& c, const std::string& note) {
  std::string out;
  for (const std::string& line : Split(note, '\n')) {
    if (!line.empty()) out += "# " + line + "\n";
  }
  out += std::string(kCorpusHeader) + "\n";
  out += "seed " + std::to_string(c.seed) + "\n";
  if (c.memory_budget > 0) {
    out += "budget " + std::to_string(c.memory_budget) + "\n";
  }
  if (c.save_load_roundtrip) out += "roundtrip\n";
  if (!c.query.mutation.empty()) {
    out += "# mutation: " + c.query.mutation + "\n";
  }
  for (const FuzzTable& t : c.tables) {
    out += "table " + t.name + "\n";
    for (const FuzzColumn& col : t.columns) {
      out += "column " + col.name + " " + DataTypeName(col.type) + "\n";
    }
    out += "dirty " + t.id_column + " " +
           (t.prob_column.empty() ? "-" : t.prob_column) + "\n";
    for (const auto& fk : t.foreign_ids) {
      out += "fk " + fk.column + " " + fk.referenced_table + "\n";
    }
    if (t.chunk_capacity > 0) {
      out += "chunk " + std::to_string(t.chunk_capacity) + "\n";
    }
    std::string csv = TableCsv(t);
    out += "csv " + std::to_string(CountLines(csv)) + "\n";
    out += csv;
    out += "endtable\n";
  }
  CsvOptions options = CorpusCsvOptions();
  for (const FuzzOp& op : c.ops) {
    if (op.kind == FuzzOp::Kind::kRechunk) {
      out += "op rechunk " + op.table + " " + std::to_string(op.capacity) +
             "\n";
    } else if (op.kind == FuzzOp::Kind::kCreateIndex) {
      out += "op create_index " + op.table + " " + op.column + "\n";
    } else {
      out += "op setvalue " + op.table + " " + std::to_string(op.row) + " " +
             op.column + " " + FormatCsvLine({EncodeField(op.value)}, options) +
             "\n";
    }
  }
  for (const FuzzWrite& w : c.writes) {
    out += "write " + w.table + " " + w.sql + "\n";
  }
  out += "query " + c.query.Sql() + "\n";
  out += std::string("expect ") +
         (c.query.expect_rewritable ? "rewritable" : "reject") + "\n";
  return out;
}

Result<FuzzCase> ParseCaseText(const std::string& text) {
  std::vector<std::string> lines = Split(text, '\n');
  for (std::string& line : lines) {
    if (!line.empty() && line.back() == '\r') line.pop_back();
  }

  FuzzCase c;
  bool saw_header = false;
  bool saw_query = false;
  FuzzTable* open_table = nullptr;
  std::string open_csv;

  size_t i = 0;
  auto fail = [&](const std::string& msg) {
    return Status::InvalidArgument(
        StringPrintf("corpus line %zu: %s", i + 1, msg.c_str()));
  };

  for (; i < lines.size(); ++i) {
    const std::string& line = lines[i];
    std::string_view trimmed = Trim(line);
    if (trimmed.empty() || trimmed[0] == '#') continue;
    if (!saw_header) {
      if (trimmed != kCorpusHeader) {
        return fail("expected header '" + std::string(kCorpusHeader) + "'");
      }
      saw_header = true;
      continue;
    }
    std::vector<std::string> tokens = Tokens(line);
    const std::string& cmd = tokens[0];
    if (cmd == "seed" && tokens.size() == 2) {
      c.seed = std::strtoull(tokens[1].c_str(), nullptr, 10);
    } else if (cmd == "budget" && tokens.size() == 2) {
      c.memory_budget = std::strtoull(tokens[1].c_str(), nullptr, 10);
    } else if (cmd == "roundtrip" && tokens.size() == 1) {
      c.save_load_roundtrip = true;
    } else if (cmd == "table" && tokens.size() == 2) {
      if (open_table != nullptr) return fail("previous table not closed");
      c.tables.emplace_back();
      open_table = &c.tables.back();
      open_table->name = tokens[1];
      open_table->prob_column.clear();
      open_csv.clear();
    } else if (cmd == "column" && tokens.size() == 3) {
      if (open_table == nullptr) return fail("'column' outside a table block");
      CONQUER_ASSIGN_OR_RETURN(DataType type, DataTypeFromName(tokens[2]));
      open_table->columns.push_back({tokens[1], type});
    } else if (cmd == "dirty" && tokens.size() == 3) {
      if (open_table == nullptr) return fail("'dirty' outside a table block");
      open_table->id_column = tokens[1];
      open_table->prob_column = tokens[2] == "-" ? "" : tokens[2];
    } else if (cmd == "fk" && tokens.size() == 3) {
      if (open_table == nullptr) return fail("'fk' outside a table block");
      open_table->foreign_ids.push_back({tokens[1], tokens[2]});
    } else if (cmd == "chunk" && tokens.size() == 2) {
      if (open_table == nullptr) return fail("'chunk' outside a table block");
      open_table->chunk_capacity = std::strtoull(tokens[1].c_str(), nullptr,
                                                 10);
    } else if (cmd == "csv" && tokens.size() == 2) {
      if (open_table == nullptr) return fail("'csv' outside a table block");
      size_t n = std::strtoull(tokens[1].c_str(), nullptr, 10);
      if (i + n >= lines.size()) return fail("csv block truncated");
      open_csv.clear();
      for (size_t k = 1; k <= n; ++k) open_csv += lines[i + k] + "\n";
      i += n;
    } else if (cmd == "endtable") {
      if (open_table == nullptr) return fail("'endtable' without 'table'");
      CONQUER_ASSIGN_OR_RETURN(open_table->rows,
                               RowsFromCsv(*open_table, open_csv));
      open_table = nullptr;
    } else if (cmd == "op" && tokens.size() >= 4 && tokens[1] == "rechunk") {
      c.ops.push_back({FuzzOp::Kind::kRechunk, tokens[2],
                       std::strtoull(tokens[3].c_str(), nullptr, 10), 0, "",
                       Value::Null()});
    } else if (cmd == "op" && tokens.size() >= 4 &&
               tokens[1] == "create_index") {
      const FuzzTable* t = c.FindTable(tokens[2]);
      if (t == nullptr) {
        return fail("create_index on unknown table " + tokens[2]);
      }
      if (!t->FindColumn(tokens[3]).has_value()) {
        return fail("create_index on unknown column " + tokens[3]);
      }
      c.ops.push_back({FuzzOp::Kind::kCreateIndex, tokens[2], 0, 0, tokens[3],
                       Value::Null()});
    } else if (cmd == "op" && tokens.size() >= 6 && tokens[1] == "setvalue") {
      const FuzzTable* t = c.FindTable(tokens[2]);
      if (t == nullptr) return fail("setvalue on unknown table " + tokens[2]);
      auto col = t->FindColumn(tokens[4]);
      if (!col.has_value()) return fail("setvalue on unknown column");
      // The value is everything after the column name, CSV-decoded.
      size_t pos = line.find(tokens[4]);
      pos = line.find_first_not_of(" \t", pos + tokens[4].size());
      if (pos == std::string::npos) return fail("setvalue missing value");
      CONQUER_ASSIGN_OR_RETURN(
          std::vector<std::string> fields,
          ParseCsvLine(line.substr(pos), CorpusCsvOptions()));
      if (fields.size() != 1) return fail("setvalue expects one CSV field");
      CONQUER_ASSIGN_OR_RETURN(
          Value v, DecodeField(fields[0], t->columns[*col].type));
      c.ops.push_back({FuzzOp::Kind::kSetValue, tokens[2], 0,
                       std::strtoull(tokens[3].c_str(), nullptr, 10),
                       tokens[4], std::move(v)});
    } else if (cmd == "write" && tokens.size() >= 3) {
      // Everything after the table name is the verbatim SQL statement.
      std::string_view rest = Trim(line);
      rest.remove_prefix(std::strlen("write "));
      size_t sep = rest.find(' ');
      if (sep == std::string_view::npos) return fail("write missing sql");
      c.writes.push_back({std::string(rest.substr(0, sep)),
                          std::string(Trim(rest.substr(sep + 1)))});
    } else if (cmd == "query" && tokens.size() >= 2) {
      std::string_view rest = Trim(line);
      c.query.raw_sql = std::string(rest.substr(std::strlen("query ")));
      saw_query = true;
    } else if (cmd == "expect" && tokens.size() == 2) {
      if (tokens[1] == "rewritable") {
        c.query.expect_rewritable = true;
      } else if (tokens[1] == "reject") {
        c.query.expect_rewritable = false;
      } else {
        return fail("expect must be 'rewritable' or 'reject'");
      }
    } else {
      return fail("unrecognized directive '" + line + "'");
    }
  }
  if (open_table != nullptr) {
    return Status::InvalidArgument("corpus: unterminated table block");
  }
  if (!saw_header) return Status::InvalidArgument("corpus: missing header");
  if (!saw_query) return Status::InvalidArgument("corpus: missing query");
  return c;
}

Result<FuzzCase> LoadCaseFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("cannot open corpus file " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  auto parsed = ParseCaseText(buffer.str());
  if (!parsed.ok()) {
    return Status::InvalidArgument(path + ": " + parsed.status().ToString());
  }
  return parsed;
}

Status SaveCaseFile(const FuzzCase& c, const std::string& path,
                    const std::string& note) {
  std::error_code ec;
  std::filesystem::path p(path);
  if (p.has_parent_path()) {
    std::filesystem::create_directories(p.parent_path(), ec);
  }
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  if (!out) return Status::InvalidArgument("cannot write corpus file " + path);
  out << SerializeCase(c, note);
  out.close();
  if (!out) return Status::InvalidArgument("short write to " + path);
  return Status::OK();
}

std::vector<std::string> ListCaseFiles(const std::string& dir) {
  std::vector<std::string> out;
  std::error_code ec;
  std::filesystem::directory_iterator it(dir, ec);
  if (ec) return out;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    if (entry.is_regular_file() && entry.path().extension() == ".case") {
      out.push_back(entry.path().string());
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

}  // namespace fuzz
}  // namespace conquer
