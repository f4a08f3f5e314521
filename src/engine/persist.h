#ifndef CONQUER_ENGINE_PERSIST_H_
#define CONQUER_ENGINE_PERSIST_H_

#include <string>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "engine/database.h"

namespace conquer {

/// How SaveDatabase lays table data on disk.
enum class SaveFormat {
  /// One self-contained binary segment per table (`<table>.seg`, see
  /// storage/segment.h). Bit-exact: doubles round-trip by bit pattern,
  /// NULL and empty string stay distinct, and MVCC version stamps are
  /// preserved verbatim — a reloaded database answers every snapshot
  /// exactly like the saved one. Reloaded chunks stay on disk and fault
  /// in through the database's buffer pool, so loading respects the
  /// memory budget.
  kBinary,
  /// Plain-text CSV export (`<table>.csv`, NULLs spelled \N, doubles
  /// printed with %.17g so finite values survive a round-trip). Exports
  /// only the rows visible at the latest committed version — dead row
  /// versions are not resurrected — which also means per-version history
  /// is flattened. Meant for diffing and external tools.
  kCsv,
};

/// \brief On-disk layout written by SaveDatabase:
///
///   <dir>/manifest.txt       one line per table: name|col:TYPE|col:TYPE|...
///   <dir>/<table>.seg        binary segment (SaveFormat::kBinary)
///   <dir>/<table>.csv        CSV export (SaveFormat::kCsv)
///   <dir>/dirty_schema.txt   (optional) one line per dirty table:
///                            table|id_col|prob_col|fk:ref,fk:ref,...
///
/// LoadDatabase prefers `<table>.seg` and falls back to `<table>.csv`, so
/// either format (or a directory holding a mix) loads.
/// \{

/// Saves every table of `db` (and the dirty annotations if supplied) under
/// `dir`, creating the directory. Holds a read slot for the whole walk, so
/// the saved state is one committed snapshot: writers wait, queries run.
Status SaveDatabase(const Database& db, const std::string& dir,
                    const DirtySchema* dirty = nullptr,
                    SaveFormat format = SaveFormat::kBinary);

/// Loads a database previously written by SaveDatabase. When `dirty` is
/// non-null and <dir>/dirty_schema.txt exists, the annotations are loaded
/// into it. The returned database's memory budget comes from
/// CONQUER_MEMORY_BUDGET (see Database::SetMemoryBudget); binary tables
/// load lazily under it.
Result<std::unique_ptr<Database>> LoadDatabase(const std::string& dir,
                                               DirtySchema* dirty = nullptr);

/// \}

}  // namespace conquer

#endif  // CONQUER_ENGINE_PERSIST_H_
