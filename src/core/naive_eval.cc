#include "core/naive_eval.h"

#include <map>
#include <unordered_map>

#include "common/str_util.h"
#include "sql/parser.h"

namespace conquer {

namespace {

/// Odometer over per-cluster choices; returns false after the last one.
bool NextAssignment(std::vector<size_t>* choice,
                    const std::vector<size_t>& sizes) {
  for (size_t i = 0; i < choice->size(); ++i) {
    if (++(*choice)[i] < sizes[i]) return true;
    (*choice)[i] = 0;
  }
  return false;
}

struct RowKeyHash {
  size_t operator()(const Row& r) const {
    size_t h = 0x811c9dc5u;
    for (const Value& v : r) {
      h ^= v.Hash();
      h *= 0x01000193u;
    }
    return h;
  }
};
struct RowKeyEq {
  bool operator()(const Row& a, const Row& b) const {
    if (a.size() != b.size()) return false;
    for (size_t i = 0; i < a.size(); ++i) {
      if (a[i].TotalCompare(b[i]) != 0) return false;
    }
    return true;
  }
};

std::vector<std::string> DistinctFromTables(const SelectStatement& stmt) {
  std::vector<std::string> out;
  for (const TableRef& ref : stmt.from) {
    bool seen = false;
    for (const auto& t : out) seen = seen || EqualsIgnoreCase(t, ref.table_name);
    if (!seen) out.push_back(ref.table_name);
  }
  return out;
}

}  // namespace

Result<std::vector<NaiveCandidateEvaluator::Cluster>>
NaiveCandidateEvaluator::ClustersOf(
    const std::vector<std::string>& tables) const {
  std::vector<Cluster> clusters;
  for (const std::string& name : tables) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(name));
    CONQUER_ASSIGN_OR_RETURN(const DirtyTableInfo* info, dirty_->Get(name));
    CONQUER_ASSIGN_OR_RETURN(
        VisibleClusters visible,
        CollectVisibleClusters(*table, *info, table->committed_version()));
    for (std::vector<size_t>& members : visible.members) {
      clusters.push_back({name, std::move(members)});
    }
  }
  return clusters;
}

Result<uint64_t> NaiveCandidateEvaluator::CountCandidates(
    std::string_view sql) const {
  CONQUER_ASSIGN_OR_RETURN(auto stmt, Parser::Parse(sql));
  CONQUER_ASSIGN_OR_RETURN(auto clusters,
                           ClustersOf(DistinctFromTables(*stmt)));
  uint64_t total = 1;
  for (const Cluster& c : clusters) {
    if (total > (1ull << 62) / c.members.size()) {
      return Status::ResourceExhausted("candidate count overflows");
    }
    total *= c.members.size();
  }
  return total;
}

Result<std::vector<double>> NaiveCandidateEvaluator::CandidateProbabilities(
    const std::vector<std::string>& tables, uint64_t max_candidates) const {
  CONQUER_ASSIGN_OR_RETURN(auto clusters, ClustersOf(tables));

  // Per-cluster member probabilities.
  std::vector<std::vector<double>> probs(clusters.size());
  uint64_t total = 1;
  for (size_t i = 0; i < clusters.size(); ++i) {
    CONQUER_ASSIGN_OR_RETURN(Table * table, db_->GetTable(clusters[i].table));
    CONQUER_ASSIGN_OR_RETURN(const DirtyTableInfo* info,
                             dirty_->Get(clusters[i].table));
    int prob_col = -1;
    if (!info->prob_column.empty()) {
      CONQUER_ASSIGN_OR_RETURN(
          size_t idx, table->schema().GetColumnIndex(info->prob_column));
      prob_col = static_cast<int>(idx);
    }
    RowCursor cursor(table);
    for (size_t m : clusters[i].members) {
      cursor.Touch(m);
      double p = prob_col < 0
                     ? 1.0
                     : ProbabilityValue(
                           cursor.ValueAt(m, static_cast<size_t>(prob_col)));
      probs[i].push_back(p);
    }
    // Divide-before-multiply so the running product cannot wrap uint64_t.
    if (total > max_candidates / clusters[i].members.size()) {
      return Status::ResourceExhausted(StringPrintf(
          "candidate databases exceed the cap (%llu)",
          static_cast<unsigned long long>(max_candidates)));
    }
    total *= clusters[i].members.size();
  }

  std::vector<double> out;
  out.reserve(total);
  std::vector<size_t> sizes;
  for (const Cluster& c : clusters) sizes.push_back(c.members.size());
  std::vector<size_t> choice(clusters.size(), 0);
  do {
    double p = 1.0;
    for (size_t i = 0; i < clusters.size(); ++i) p *= probs[i][choice[i]];
    out.push_back(p);
  } while (NextAssignment(&choice, sizes));
  return out;
}

Result<CleanAnswerSet> NaiveCandidateEvaluator::Evaluate(
    std::string_view sql, uint64_t max_candidates) const {
  CONQUER_ASSIGN_OR_RETURN(auto stmt, Parser::Parse(sql));
  // ORDER BY / LIMIT do not affect the (set-valued) answer semantics.
  stmt->order_by.clear();
  stmt->limit = -1;

  std::vector<std::string> table_names = DistinctFromTables(*stmt);
  CONQUER_ASSIGN_OR_RETURN(auto clusters, ClustersOf(table_names));

  uint64_t total = 1;
  for (const Cluster& c : clusters) {
    // Divide-before-multiply so the running product cannot wrap uint64_t.
    if (total > max_candidates / c.members.size()) {
      return Status::ResourceExhausted(StringPrintf(
          "candidate databases exceed the cap (%llu)",
          static_cast<unsigned long long>(max_candidates)));
    }
    total *= c.members.size();
  }

  // The candidate database: same schemas, contents swapped per assignment.
  Database cand;
  std::vector<Table*> src_tables(table_names.size());
  std::vector<Table*> cand_tables(table_names.size());
  std::vector<int> prob_cols(table_names.size(), -1);
  for (size_t t = 0; t < table_names.size(); ++t) {
    CONQUER_ASSIGN_OR_RETURN(src_tables[t], db_->GetTable(table_names[t]));
    CONQUER_RETURN_NOT_OK(cand.CreateTable(src_tables[t]->schema()));
    CONQUER_ASSIGN_OR_RETURN(cand_tables[t],
                             cand.GetTable(table_names[t]));
    CONQUER_ASSIGN_OR_RETURN(const DirtyTableInfo* info,
                             dirty_->Get(table_names[t]));
    if (!info->prob_column.empty()) {
      CONQUER_ASSIGN_OR_RETURN(size_t idx, src_tables[t]->schema()
                                               .GetColumnIndex(
                                                   info->prob_column));
      prob_cols[t] = static_cast<int>(idx);
    }
  }
  // Map cluster -> table position.
  std::vector<size_t> cluster_table(clusters.size());
  for (size_t i = 0; i < clusters.size(); ++i) {
    for (size_t t = 0; t < table_names.size(); ++t) {
      if (EqualsIgnoreCase(table_names[t], clusters[i].table)) {
        cluster_table[i] = t;
      }
    }
  }

  std::vector<size_t> sizes;
  for (const Cluster& c : clusters) sizes.push_back(c.members.size());
  std::vector<size_t> choice(clusters.size(), 0);

  std::unordered_map<Row, double, RowKeyHash, RowKeyEq> accum;
  std::vector<Row> answer_order;
  CleanAnswerSet result;

  do {
    // Materialize this candidate.
    for (Table* t : cand_tables) t->Clear();
    double cand_prob = 1.0;
    for (size_t i = 0; i < clusters.size(); ++i) {
      size_t t = cluster_table[i];
      size_t row_pos = clusters[i].members[choice[i]];
      const Row& row = src_tables[t]->row(row_pos);
      cand_tables[t]->InsertUnchecked(row);
      if (prob_cols[t] >= 0) cand_prob *= ProbabilityValue(row[prob_cols[t]]);
    }
    // Answers over this candidate (set semantics).
    CONQUER_ASSIGN_OR_RETURN(ResultSet rs, cand.Execute(stmt->Clone()));
    if (result.column_names.empty()) result.column_names = rs.column_names;
    std::unordered_map<Row, bool, RowKeyHash, RowKeyEq> distinct;
    for (Row& row : rs.rows) {
      auto [it, inserted] = distinct.try_emplace(std::move(row), true);
      if (!inserted) continue;
      auto [ait, fresh] = accum.try_emplace(it->first, 0.0);
      if (fresh) answer_order.push_back(it->first);
      ait->second += cand_prob;
    }
  } while (NextAssignment(&choice, sizes));

  for (const Row& row : answer_order) {
    result.answers.push_back({row, accum.at(row)});
  }
  return result;
}

}  // namespace conquer
