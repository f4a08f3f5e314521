#ifndef CONQUER_CORE_CLEAN_ENGINE_H_
#define CONQUER_CORE_CLEAN_ENGINE_H_

#include <memory>
#include <string>

#include "core/clean_answer.h"
#include "core/dirty_schema.h"
#include "core/rewrite.h"
#include "engine/database.h"

namespace conquer {

/// \brief The top-level ConQuer API: clean answers over a dirty database.
///
/// Wraps a Database annotated with a DirtySchema. Queries are rewritten via
/// RewriteClean and executed on the dirty data directly; each answer comes
/// back with its probability of holding over the clean database. Every
/// method reads the catalog under one of the database's read slots, so the
/// engine is as safe to share between threads as the Database itself.
///
/// \code
///   CleanAnswerEngine engine(&db, &dirty);
///   auto answers = engine.Query(
///       "select c.id from customer c where c.balance > 10000");
///   for (const CleanAnswer& a : answers->answers)
///     std::cout << a.row[0].ToString() << " p=" << a.probability << "\n";
/// \endcode
class CleanAnswerEngine {
 public:
  /// Both pointers must outlive the engine.
  CleanAnswerEngine(const Database* db, const DirtySchema* dirty)
      : db_(db), dirty_(dirty), rewriter_(&db->catalog(), dirty) {}

  /// Clean answers for a rewritable SPJ query. NotRewritable (with the
  /// violated Dfn 7 condition) when outside the rewritable class.
  ///
  /// When `stats` is non-null it receives the QueryStats of the *rewritten*
  /// query as executed — including per-operator metrics for the
  /// HashAggregate the rewriting adds — so callers can attribute the
  /// clean-answer overhead to specific operators.
  Result<CleanAnswerSet> Query(std::string_view sql,
                               QueryStats* stats = nullptr) const;

  /// The rewritten SQL that Query executes (for inspection / logging).
  Result<std::string> RewrittenSql(std::string_view sql) const;

  /// Rewritability diagnosis without executing.
  Result<RewritabilityCheck> Check(std::string_view sql) const;

  const CleanRewriter& rewriter() const { return rewriter_; }

 private:
  const Database* db_;
  const DirtySchema* dirty_;
  CleanRewriter rewriter_;
};

/// \brief The offline-cleaning strawman from the paper's introduction:
/// keep only the highest-probability tuple of every cluster, then answer
/// queries over that single "cleaned" database.
///
/// The paper's Section 1 example shows this loses answers that the
/// clean-answer semantics preserves (card 111 disappears entirely); tests
/// and examples use this class to reproduce that comparison.
class OfflineCleaningBaseline {
 public:
  OfflineCleaningBaseline(const Database* db, const DirtySchema* dirty)
      : db_(db), dirty_(dirty) {}

  /// Builds the cleaned database: for each cluster, the max-probability
  /// tuple (first wins on ties). Unregistered tables are copied verbatim.
  /// The walk holds a read slot, so no write interleaves with it.
  Result<std::unique_ptr<Database>> BuildCleanedDatabase() const;

  /// Answers `sql` over the cleaned database (ordinary certain semantics).
  Result<ResultSet> Query(std::string_view sql) const;

 private:
  const Database* db_;
  const DirtySchema* dirty_;
};

}  // namespace conquer

#endif  // CONQUER_CORE_CLEAN_ENGINE_H_
