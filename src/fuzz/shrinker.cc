#include "fuzz/shrinker.h"

#include <algorithm>
#include <map>

#include "common/str_util.h"

namespace conquer {
namespace fuzz {
namespace {

/// Accepts a shrink candidate when the failure persists without flipping
/// into an expectation mismatch the original run did not have.
class Shrinker {
 public:
  Shrinker(const OracleProbe& probe, ViolationKind original, ShrinkStats* stats)
      : probe_(probe), original_kind_(original), stats_(stats) {}

  bool StillFails(const FuzzCase& candidate) {
    if (stats_ != nullptr) stats_->attempts += 1;
    ViolationKind kind = probe_(candidate);
    if (kind == ViolationKind::kNone) return false;
    if (kind == ViolationKind::kExpectation &&
        original_kind_ != ViolationKind::kExpectation) {
      return false;
    }
    if (stats_ != nullptr) stats_->accepted += 1;
    return true;
  }

 private:
  const OracleProbe& probe_;
  ViolationKind original_kind_;
  ShrinkStats* stats_;
};

bool StartsWithTableRef(const std::string& qualified,
                        const std::string& table) {
  return qualified.size() > table.size() + 1 &&
         EqualsIgnoreCase(std::string_view(qualified).substr(0, table.size()),
                          table) &&
         qualified[table.size()] == '.';
}

/// True when no join uses `table` as the referencing (parent) side, i.e. the
/// table is a leaf of the join tree and removable without disconnecting it.
bool IsLeafTable(const FuzzCase& c, const std::string& table) {
  for (const FuzzJoin& j : c.query.joins) {
    if (EqualsIgnoreCase(j.left_table, table)) return false;
  }
  return true;
}

FuzzCase WithoutTable(const FuzzCase& c, size_t table_index) {
  const std::string name = c.tables[table_index].name;
  FuzzCase out = c;
  out.tables.erase(out.tables.begin() + static_cast<ptrdiff_t>(table_index));
  for (FuzzTable& t : out.tables) {
    t.foreign_ids.erase(
        std::remove_if(t.foreign_ids.begin(), t.foreign_ids.end(),
                       [&](const DirtyTableInfo::ForeignId& fk) {
                         return EqualsIgnoreCase(fk.referenced_table, name);
                       }),
        t.foreign_ids.end());
  }
  out.ops.erase(std::remove_if(out.ops.begin(), out.ops.end(),
                               [&](const FuzzOp& op) {
                                 return EqualsIgnoreCase(op.table, name);
                               }),
                out.ops.end());
  out.writes.erase(std::remove_if(out.writes.begin(), out.writes.end(),
                                  [&](const FuzzWrite& w) {
                                    return EqualsIgnoreCase(w.table, name);
                                  }),
                   out.writes.end());
  FuzzQuery& q = out.query;
  q.from.erase(std::remove_if(q.from.begin(), q.from.end(),
                              [&](const std::string& f) {
                                return EqualsIgnoreCase(f, name);
                              }),
               q.from.end());
  q.joins.erase(std::remove_if(q.joins.begin(), q.joins.end(),
                               [&](const FuzzJoin& j) {
                                 return EqualsIgnoreCase(j.left_table, name) ||
                                        EqualsIgnoreCase(j.right_table, name);
                               }),
                q.joins.end());
  q.filters.erase(std::remove_if(q.filters.begin(), q.filters.end(),
                                 [&](const FuzzPredicate& p) {
                                   return EqualsIgnoreCase(p.table, name);
                                 }),
                  q.filters.end());
  q.select.erase(std::remove_if(q.select.begin(), q.select.end(),
                                [&](const std::string& s) {
                                  return StartsWithTableRef(s, name);
                                }),
                 q.select.end());
  return out;
}

/// Rescales the cluster's remaining probabilities so they sum to ~1 again
/// after a member row was dropped.
void RescaleClusterProbs(FuzzTable* t, const std::string& id_value) {
  auto id_col = t->FindColumn(t->id_column);
  auto prob_col = t->FindColumn(t->prob_column);
  if (!id_col.has_value() || !prob_col.has_value()) return;
  double sum = 0;
  for (const Row& row : t->rows) {
    if (!row[*id_col].is_null() && row[*id_col].ToString() == id_value &&
        !row[*prob_col].is_null()) {
      sum += row[*prob_col].AsDouble();
    }
  }
  if (sum <= 0) return;
  for (Row& row : t->rows) {
    if (!row[*id_col].is_null() && row[*id_col].ToString() == id_value &&
        !row[*prob_col].is_null()) {
      row[*prob_col] = Value::Double(row[*prob_col].AsDouble() / sum);
    }
  }
}

/// Groups the table's row indices by identifier value, in first-row order.
std::vector<std::pair<std::string, std::vector<size_t>>> Clusters(
    const FuzzTable& t) {
  std::vector<std::pair<std::string, std::vector<size_t>>> out;
  auto id_col = t.FindColumn(t.id_column);
  if (!id_col.has_value()) return out;
  std::map<std::string, size_t> index;
  for (size_t i = 0; i < t.rows.size(); ++i) {
    const Value& id = t.rows[i][*id_col];
    std::string key = id.is_null() ? "<null>" : id.ToString();
    auto [it, inserted] = index.try_emplace(key, out.size());
    if (inserted) out.push_back({key, {}});
    out[it->second].second.push_back(i);
  }
  return out;
}

bool ShrinkTables(Shrinker* s, FuzzCase* c) {
  bool progress = false;
  // Never remove the root (the first FROM entry): the rewritable class
  // requires its identifier in SELECT.
  for (size_t i = c->tables.size(); i-- > 0;) {
    if (c->query.from.empty() ||
        EqualsIgnoreCase(c->tables[i].name, c->query.from[0])) {
      continue;
    }
    if (!IsLeafTable(*c, c->tables[i].name)) continue;
    FuzzCase candidate = WithoutTable(*c, i);
    if (s->StillFails(candidate)) {
      *c = std::move(candidate);
      progress = true;
    }
  }
  return progress;
}

bool ShrinkRows(Shrinker* s, FuzzCase* c) {
  bool progress = false;
  for (size_t ti = 0; ti < c->tables.size(); ++ti) {
    // Whole clusters first: the biggest cut that keeps sums consistent.
    bool removed = true;
    while (removed) {
      removed = false;
      for (const auto& [id, rows] : Clusters(c->tables[ti])) {
        FuzzCase candidate = *c;
        FuzzTable& t = candidate.tables[ti];
        std::vector<size_t> sorted = rows;
        std::sort(sorted.rbegin(), sorted.rend());
        for (size_t r : sorted) {
          t.rows.erase(t.rows.begin() + static_cast<ptrdiff_t>(r));
        }
        if (!candidate.ops.empty()) candidate.ops.clear();
        if (s->StillFails(candidate)) {
          *c = std::move(candidate);
          progress = removed = true;
          break;
        }
      }
    }
    // Then single rows, renormalizing the surviving cluster members.
    removed = true;
    while (removed) {
      removed = false;
      for (const auto& [id, rows] : Clusters(c->tables[ti])) {
        if (rows.size() < 2) continue;
        for (size_t r : rows) {
          FuzzCase candidate = *c;
          FuzzTable& t = candidate.tables[ti];
          t.rows.erase(t.rows.begin() + static_cast<ptrdiff_t>(r));
          RescaleClusterProbs(&t, id);
          if (!candidate.ops.empty()) candidate.ops.clear();
          if (s->StillFails(candidate)) {
            *c = std::move(candidate);
            progress = removed = true;
            break;
          }
        }
        if (removed) break;
      }
    }
  }
  return progress;
}

/// Drops mutation-stage write steps one at a time (suffix first, so a
/// failing step keeps its prefix of preceding writes).
bool ShrinkWrites(Shrinker* s, FuzzCase* c) {
  bool progress = false;
  for (size_t i = c->writes.size(); i-- > 0;) {
    FuzzCase candidate = *c;
    candidate.writes.erase(candidate.writes.begin() +
                           static_cast<ptrdiff_t>(i));
    if (s->StillFails(candidate)) {
      *c = std::move(candidate);
      progress = true;
    }
  }
  return progress;
}

bool ShrinkPredicates(Shrinker* s, FuzzCase* c) {
  bool progress = false;
  for (size_t i = c->query.filters.size(); i-- > 0;) {
    FuzzCase candidate = *c;
    candidate.query.filters.erase(candidate.query.filters.begin() +
                                  static_cast<ptrdiff_t>(i));
    if (s->StillFails(candidate)) {
      *c = std::move(candidate);
      progress = true;
    }
  }
  return progress;
}

bool ShrinkSelect(Shrinker* s, FuzzCase* c) {
  bool progress = false;
  if (c->query.from.empty()) return false;
  const std::string root_id =
      c->query.from[0] + "." +
      (c->FindTable(c->query.from[0]) != nullptr
           ? c->FindTable(c->query.from[0])->id_column
           : "id");
  for (size_t i = c->query.select.size(); i-- > 0;) {
    if (EqualsIgnoreCase(c->query.select[i], root_id)) continue;
    FuzzCase candidate = *c;
    candidate.query.select.erase(candidate.query.select.begin() +
                                 static_cast<ptrdiff_t>(i));
    if (s->StillFails(candidate)) {
      *c = std::move(candidate);
      progress = true;
    }
  }
  return progress;
}

}  // namespace

FuzzCase ShrinkCase(const FuzzCase& failing, const OracleProbe& probe,
                    ShrinkStats* stats) {
  if (!failing.query.raw_sql.empty()) return failing;  // corpus case: opaque
  ViolationKind original = probe(failing);
  if (original == ViolationKind::kNone) return failing;

  Shrinker shrinker(probe, original, stats);
  FuzzCase c = failing;
  const size_t kMaxPasses = 8;
  for (size_t pass = 0; pass < kMaxPasses; ++pass) {
    if (stats != nullptr) stats->passes += 1;
    bool progress = false;
    progress |= ShrinkWrites(&shrinker, &c);
    progress |= ShrinkTables(&shrinker, &c);
    progress |= ShrinkRows(&shrinker, &c);
    progress |= ShrinkPredicates(&shrinker, &c);
    progress |= ShrinkSelect(&shrinker, &c);
    if (!progress) break;
  }
  return c;
}

}  // namespace fuzz
}  // namespace conquer
