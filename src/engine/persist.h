#ifndef CONQUER_ENGINE_PERSIST_H_
#define CONQUER_ENGINE_PERSIST_H_

#include <string>

#include "common/result.h"
#include "core/dirty_schema.h"
#include "engine/database.h"

namespace conquer {

/// \brief On-disk layout written by SaveDatabase:
///
///   <dir>/manifest.txt       one line per table: name|col:TYPE|col:TYPE|...
///   <dir>/<table>.seg        binary segment (storage/segment.h): doubles
///                            round-trip by bit pattern, NULL and empty
///                            string stay distinct, MVCC stamps verbatim
///   <dir>/dirty_schema.txt   (optional) one line per dirty table:
///                            table|id_col|prob_col|fk:ref,fk:ref,...
///
/// Every file is replaced atomically (temp file, fsync, rename), and the
/// manifest and dirty schema only after every segment has been written.
/// \{

/// Saves every table of `db` (and the dirty annotations if supplied) under
/// `dir`, creating the directory. Holds a read slot for the whole walk, so
/// the saved state is one committed snapshot: writers wait, queries run.
///
/// Atomic per file, not per directory: when a segment fails, the call
/// returns its error and leaves the previous manifest, which still names
/// every table it saved, but segments written before the failure already
/// hold the new state. Each segment is self-consistent either way.
Status SaveDatabase(const Database& db, const std::string& dir,
                    const DirtySchema* dirty = nullptr);

/// Loads a database previously written by SaveDatabase. When `dirty` is
/// non-null and <dir>/dirty_schema.txt exists, the annotations are loaded
/// into it. The returned database's memory budget comes from
/// CONQUER_MEMORY_BUDGET (see Database::SetMemoryBudget); tables load
/// lazily under it: column payloads stay in their segments until scanned.
Result<std::unique_ptr<Database>> LoadDatabase(const std::string& dir,
                                               DirtySchema* dirty = nullptr);

/// \}

}  // namespace conquer

#endif  // CONQUER_ENGINE_PERSIST_H_
