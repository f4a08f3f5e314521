// The text of an EXPLAIN [ANALYZE] statement run through Database::Query.

#ifndef CONQUER_TESTS_ENGINE_EXPLAIN_TEXT_H_
#define CONQUER_TESTS_ENGINE_EXPLAIN_TEXT_H_

#include <string>
#include <string_view>

#include "engine/database.h"

namespace conquer {

/// Runs `statement` ("explain select ..." or "explain analyze select ...")
/// and joins its one-column result, one line per row. Fills `stats` when
/// non-null.
inline Result<std::string> ExplainText(const Database& db,
                                       std::string_view statement,
                                       QueryStats* stats = nullptr) {
  CONQUER_ASSIGN_OR_RETURN(ResultSet rs, db.Query(statement, stats));
  std::string text;
  for (const Row& row : rs.rows) {
    text += row[0].string_value();
    text += '\n';
  }
  return text;
}

}  // namespace conquer

#endif  // CONQUER_TESTS_ENGINE_EXPLAIN_TEXT_H_
