#include "core/clean_engine.h"

#include "sql/parser.h"

namespace conquer {

Result<CleanAnswerSet> CleanAnswerEngine::Query(std::string_view sql,
                                                QueryStats* stats) const {
  CONQUER_ASSIGN_OR_RETURN(auto stmt, Parser::Parse(sql));
  ResultSet rs;
  {
    // The rewrite binds against the catalog: admit it with the execution.
    const Database::ReadSlot slot = db_->AdmitRead();
    CONQUER_ASSIGN_OR_RETURN(auto rewritten, rewriter_.RewriteClean(*stmt));
    CONQUER_ASSIGN_OR_RETURN(rs,
                             db_->Execute(slot, std::move(rewritten), stats));
  }

  CleanAnswerSet out;
  // The last column is the SUM(prob product) appended by the rewriting.
  if (rs.column_names.empty()) {
    return Status::Internal("rewritten query produced no columns");
  }
  out.column_names.assign(rs.column_names.begin(),
                          rs.column_names.end() - 1);
  out.answers.reserve(rs.rows.size());
  for (Row& row : rs.rows) {
    CleanAnswer a;
    // SUM over a cluster's tuple probabilities can drift past 1.0 by a few
    // ulps; clamp so consistency checks on probability == 1.0 stay exact.
    a.probability = ClampProbability(ProbabilityValue(row.back()));
    row.pop_back();
    a.row = std::move(row);
    out.answers.push_back(std::move(a));
  }
  return out;
}

Result<std::string> CleanAnswerEngine::RewrittenSql(
    std::string_view sql) const {
  const Database::ReadSlot slot = db_->AdmitRead();
  return rewriter_.RewriteCleanSql(sql);
}

Result<RewritabilityCheck> CleanAnswerEngine::Check(
    std::string_view sql) const {
  CONQUER_ASSIGN_OR_RETURN(auto stmt, Parser::Parse(sql));
  const Database::ReadSlot slot = db_->AdmitRead();
  return rewriter_.CheckRewritable(*stmt);
}

Result<std::unique_ptr<Database>>
OfflineCleaningBaseline::BuildCleanedDatabase() const {
  auto cleaned = std::make_unique<Database>();
  const Database::ReadSlot slot = db_->AdmitRead();
  Row row;
  for (const std::string& name : db_->catalog().TableNames()) {
    CONQUER_ASSIGN_OR_RETURN(Table * src, db_->GetTable(name));
    CONQUER_RETURN_NOT_OK(cleaned->CreateTable(src->schema()));
    CONQUER_ASSIGN_OR_RETURN(Table * dst, cleaned->GetTable(name));
    // Clean the committed state only: rows a write deleted or superseded
    // are not part of it.
    const uint64_t snapshot = src->committed_version();
    RowCursor cursor(src);

    const DirtyTableInfo* info = dirty_->Find(name);
    if (info == nullptr || info->prob_column.empty()) {
      for (size_t r : src->VisibleRowPositions(snapshot)) {
        cursor.Touch(r);
        cursor.GetRowInto(r, &row);
        dst->InsertUnchecked(row);
      }
      continue;
    }
    CONQUER_ASSIGN_OR_RETURN(size_t prob_col,
                             src->schema().GetColumnIndex(info->prob_column));
    CONQUER_ASSIGN_OR_RETURN(VisibleClusters clusters,
                             CollectVisibleClusters(*src, *info, snapshot));
    // Best row per cluster, first wins on ties.
    for (const std::vector<size_t>& members : clusters.members) {
      size_t best = members[0];
      cursor.Touch(best);
      double best_prob = ProbabilityValue(cursor.ValueAt(best, prob_col));
      for (size_t i = 1; i < members.size(); ++i) {
        cursor.Touch(members[i]);
        const double prob =
            ProbabilityValue(cursor.ValueAt(members[i], prob_col));
        if (prob > best_prob) {
          best = members[i];
          best_prob = prob;
        }
      }
      cursor.Touch(best);
      cursor.GetRowInto(best, &row);
      dst->InsertUnchecked(row);
    }
  }
  return cleaned;
}

Result<ResultSet> OfflineCleaningBaseline::Query(std::string_view sql) const {
  CONQUER_ASSIGN_OR_RETURN(auto cleaned, BuildCleanedDatabase());
  return cleaned->Query(sql);
}

}  // namespace conquer
