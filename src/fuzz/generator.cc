#include "fuzz/generator.h"

#include <algorithm>
#include <cstdlib>

#include "common/rng.h"
#include "common/str_util.h"
#include "gen/perturb.h"

namespace conquer {
namespace fuzz {
namespace {

/// Column layout of a generated table: id, attrs, fks, prob.
struct TablePlan {
  std::vector<DataType> attr_types;
  std::vector<int> children;  ///< table indices whose fk columns we carry
  std::vector<std::vector<double>> cluster_probs;  ///< one per entity
};

std::vector<double> MakeClusterProbs(Rng* rng, const FuzzConfig& cfg) {
  if (rng->Chance(cfg.exact_dyadic_rate)) {
    switch (rng->Uniform(0, 2)) {
      case 0:
        return {1.0};
      case 1:
        return {0.5, 0.5};
      default:
        return {0.25, 0.25, 0.25, 0.25};
    }
  }
  int k = 1;
  while (k < cfg.max_cluster_size && rng->Chance(cfg.cluster_skew)) ++k;
  std::vector<double> probs(k);
  double sum = 0;
  for (double& p : probs) {
    p = 0.05 + rng->NextDouble();
    sum += p;
  }
  for (double& p : probs) p /= sum;
  return probs;
}

std::string Word(int i) { return StringPrintf("w%02d", i); }

std::string EntityId(int table, size_t entity) {
  return StringPrintf("t%d_e%zu", table, entity);
}

Value RandomAttrValue(Rng* rng, DataType type, const FuzzConfig& cfg) {
  if (rng->Chance(cfg.null_density)) return Value::Null();
  if (type == DataType::kString) {
    return Value::String(Word(static_cast<int>(
        rng->Uniform(0, cfg.dict_cardinality - 1))));
  }
  return Value::Int(rng->Uniform(0, cfg.int_domain - 1));
}

/// A duplicate's attribute: NULL, a typo/jitter of the base, or a fresh draw.
Value DuplicateAttrValue(Rng* rng, DataType type, const Value& base,
                         const FuzzConfig& cfg) {
  if (rng->Chance(cfg.null_density)) return Value::Null();
  if (!base.is_null() && rng->Chance(cfg.perturb_rate)) {
    if (type == DataType::kString) {
      return Value::String(PerturbString(base.string_value(), rng, 1));
    }
    return Value::Int(base.int_value() + rng->Uniform(-1, 1));
  }
  if (base.is_null()) return RandomAttrValue(rng, type, cfg);
  return rng->Chance(0.5) ? base : RandomAttrValue(rng, type, cfg);
}

/// Applies one of the five Dfn 7 violations, picked uniformly among the
/// mutations applicable to this case. Returns the mutation label.
std::string ApplyMutation(Rng* rng, const FuzzCase& c, FuzzQuery* q) {
  struct AttrRef {
    std::string table, column;
    DataType type;
  };
  std::vector<AttrRef> attrs;
  for (const FuzzTable& t : c.tables) {
    for (const FuzzColumn& col : t.columns) {
      if (EqualsIgnoreCase(col.name, t.id_column) ||
          EqualsIgnoreCase(col.name, t.prob_column)) {
        continue;
      }
      bool is_fk = false;
      for (const auto& fk : t.foreign_ids) {
        if (EqualsIgnoreCase(fk.column, col.name)) is_fk = true;
      }
      if (!is_fk) attrs.push_back({t.name, col.name, col.type});
    }
  }
  // A cross-table attribute pair of equal type, if one exists.
  const AttrRef* pair_a = nullptr;
  const AttrRef* pair_b = nullptr;
  for (const AttrRef& a : attrs) {
    for (const AttrRef& b : attrs) {
      if (a.table != b.table && a.type == b.type) {
        pair_a = &a;
        pair_b = &b;
        break;
      }
    }
    if (pair_a != nullptr) break;
  }

  std::vector<std::string> applicable = {"self_join", "no_root_id"};
  if (pair_a != nullptr) applicable.push_back("attr_attr_join");
  if (c.tables.size() >= 2) applicable.push_back("id_id_unify");
  if (!q->joins.empty()) applicable.push_back("dup_join_arc");

  const std::string& pick = applicable[static_cast<size_t>(
      rng->Uniform(0, static_cast<int64_t>(applicable.size()) - 1))];
  if (pick == "attr_attr_join") {
    q->joins.push_back(
        {pair_a->table, pair_a->column, pair_b->table, pair_b->column});
  } else if (pick == "id_id_unify") {
    size_t a = static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(c.tables.size()) - 1));
    size_t b = (a + 1) % c.tables.size();
    q->joins.push_back({c.tables[a].name, c.tables[a].id_column,
                        c.tables[b].name, c.tables[b].id_column});
  } else if (pick == "dup_join_arc") {
    q->joins.push_back(q->joins[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(q->joins.size()) - 1))]);
  } else if (pick == "self_join") {
    q->from.push_back(q->from[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(q->from.size()) - 1))]);
  } else {  // no_root_id
    const std::string root_id = c.tables[0].name + "." + c.tables[0].id_column;
    q->select.erase(std::remove(q->select.begin(), q->select.end(), root_id),
                    q->select.end());
    if (q->select.empty()) {
      q->select.push_back(c.tables[0].name + "." + c.tables[0].columns[1].name);
    }
  }
  return pick;
}

/// One random mutation-stage write against table `ti`. The write targets
/// existing entities so UPDATE/DELETE predicates are satisfiable, and
/// INSERTs carry probability 0.5 — any value that breaks the cluster sum
/// unless incremental maintenance renormalizes it away. Some INSERTs leave
/// the identifier (and probability) NULL, one to three rows at a time, for
/// maintenance to match against the existing clusters: most copy a stored
/// row with duplicate-style noise, so they have a cluster to join.
FuzzWrite MakeWrite(Rng* rng, const FuzzCase& c, size_t ti,
                    const std::vector<DataType>& attr_types, size_t entities,
                    int write_index, const FuzzConfig& cfg) {
  const FuzzTable& t = c.tables[ti];
  auto entity = [&] {
    return EntityId(static_cast<int>(ti),
                    static_cast<size_t>(rng->Uniform(
                        0, static_cast<int64_t>(entities) - 1)));
  };
  // One VALUES tuple; `base` (a stored row) seeds the attributes.
  auto tuple = [&](const std::string& id_literal,
                   const std::string& prob_literal, const Row* base) {
    std::vector<std::string> values;
    for (size_t ci = 0; ci < t.columns.size(); ++ci) {
      const FuzzColumn& col = t.columns[ci];
      if (EqualsIgnoreCase(col.name, t.id_column)) {
        values.push_back(id_literal);
      } else if (EqualsIgnoreCase(col.name, t.prob_column)) {
        values.push_back(prob_literal);
      } else if (base != nullptr && col.name.rfind("fk", 0) == 0) {
        values.push_back((*base)[ci].ToSqlLiteral());
      } else if (base != nullptr) {
        values.push_back(
            DuplicateAttrValue(rng, col.type, (*base)[ci], cfg).ToSqlLiteral());
      } else if (col.name.rfind("fk", 0) == 0) {
        // Point the foreign key at some entity of the referenced table.
        int child = std::atoi(col.name.c_str() + 2);
        const FuzzTable* ct = c.FindTable(StringPrintf("t%d", child));
        size_t n = ct != nullptr && !ct->rows.empty()
                       ? static_cast<size_t>(rng->Uniform(
                             0, static_cast<int64_t>(ct->rows.size()) - 1))
                       : 0;
        values.push_back(
            ct != nullptr && !ct->rows.empty()
                ? ct->rows[n][0].ToSqlLiteral()
                : Value::String(EntityId(child, 0)).ToSqlLiteral());
      } else {
        Value v = RandomAttrValue(rng, col.type, cfg);
        values.push_back(v.ToSqlLiteral());
      }
    }
    return "(" + Join(values, ", ") + ")";
  };
  FuzzWrite w;
  w.table = t.name;
  switch (rng->Uniform(0, 2)) {
    case 0: {  // INSERT: a new duplicate of an existing entity, or a fresh one
      if (rng->Chance(0.35)) {
        const int num_rows =
            rng->Chance(0.5) ? 1 : static_cast<int>(rng->Uniform(2, 3));
        std::vector<std::string> tuples;
        for (int i = 0; i < num_rows; ++i) {
          const Row* base = nullptr;
          if (!t.rows.empty() && rng->Chance(0.75)) {
            base = &t.rows[static_cast<size_t>(rng->Uniform(
                0, static_cast<int64_t>(t.rows.size()) - 1))];
          }
          tuples.push_back(tuple("null", "null", base));
        }
        w.sql = "insert into " + t.name + " values " + Join(tuples, ", ");
        break;
      }
      std::string id = rng->Chance(0.7)
                           ? entity()
                           : StringPrintf("t%zu_new%d", ti, write_index);
      w.sql = "insert into " + t.name + " values " +
              tuple(Value::String(id).ToSqlLiteral(), "0.5", nullptr);
      break;
    }
    case 1: {  // UPDATE: rewrite one attribute (rarely the identifier)
      std::string target = entity();
      if (!attr_types.empty() && !rng->Chance(0.15)) {
        size_t a = static_cast<size_t>(rng->Uniform(
            0, static_cast<int64_t>(attr_types.size()) - 1));
        Value v = RandomAttrValue(rng, attr_types[a], cfg);
        w.sql = "update " + t.name + " set " +
                StringPrintf("a%zu_%zu", ti, a) + " = " + v.ToSqlLiteral() +
                " where " + t.id_column + " = " +
                Value::String(target).ToSqlLiteral();
      } else {
        // Identifier rewrite: merges the source cluster into the target.
        w.sql = "update " + t.name + " set " + t.id_column + " = " +
                Value::String(entity()).ToSqlLiteral() + " where " +
                t.id_column + " = " + Value::String(target).ToSqlLiteral();
      }
      break;
    }
    default: {  // DELETE: a whole cluster, or members matching an attribute
      std::string target = entity();
      w.sql = "delete from " + t.name + " where " + t.id_column + " = " +
              Value::String(target).ToSqlLiteral();
      if (!attr_types.empty() && rng->Chance(0.4)) {
        // Narrow to part of the cluster with an attribute conjunct sampled
        // from its rows, so the survivors must be renormalized.
        size_t a = static_cast<size_t>(rng->Uniform(
            0, static_cast<int64_t>(attr_types.size()) - 1));
        const size_t col = 1 + a;
        std::vector<const Value*> present;
        for (const Row& row : t.rows) {
          if (!row[0].is_null() && row[0].string_value() == target &&
              !row[col].is_null()) {
            present.push_back(&row[col]);
          }
        }
        if (!present.empty()) {
          const Value* pick = present[static_cast<size_t>(rng->Uniform(
              0, static_cast<int64_t>(present.size()) - 1))];
          w.sql += " and " + StringPrintf("a%zu_%zu", ti, a) + " = " +
                   pick->ToSqlLiteral();
        }
      }
      break;
    }
  }
  return w;
}

}  // namespace

FuzzCase GenerateCase(uint64_t seed, const FuzzConfig& cfg) {
  Rng rng(seed ^ 0xc0ffee5eedULL);
  FuzzCase c;
  c.seed = seed;

  int n = static_cast<int>(rng.Uniform(cfg.min_tables, cfg.max_tables));
  std::vector<int> parent_of(n, -1);
  for (int t = 1; t < n; ++t) {
    parent_of[t] = static_cast<int>(rng.Uniform(0, t - 1));
  }

  // Decide shapes and cluster distributions up front so the candidate count
  // can be capped before any row exists.
  std::vector<TablePlan> plans(n);
  uint64_t product = 1;
  for (int t = 0; t < n; ++t) {
    int num_attrs = static_cast<int>(rng.Uniform(1, cfg.max_attrs));
    for (int a = 0; a < num_attrs; ++a) {
      plans[t].attr_types.push_back(rng.Chance(cfg.string_attr_rate)
                                        ? DataType::kString
                                        : DataType::kInt64);
    }
    for (int child = 1; child < n; ++child) {
      if (parent_of[child] == t) plans[t].children.push_back(child);
    }
    int entities =
        static_cast<int>(rng.Uniform(cfg.min_entities, cfg.max_entities));
    for (int e = 0; e < entities; ++e) {
      plans[t].cluster_probs.push_back(MakeClusterProbs(&rng, cfg));
      product *= plans[t].cluster_probs.back().size();
    }
  }
  for (TablePlan& plan : plans) {
    for (std::vector<double>& probs : plan.cluster_probs) {
      if (probs.size() > 1 && product > cfg.max_candidate_product) {
        product /= probs.size();
        probs = {1.0};
      }
    }
  }

  // Materialize tables and rows.
  for (int t = 0; t < n; ++t) {
    const TablePlan& plan = plans[t];
    FuzzTable table;
    table.name = StringPrintf("t%d", t);
    table.columns.push_back({"id", DataType::kString});
    std::vector<std::string> attr_names;
    for (size_t a = 0; a < plan.attr_types.size(); ++a) {
      attr_names.push_back(StringPrintf("a%d_%zu", t, a));
      table.columns.push_back({attr_names.back(), plan.attr_types[a]});
    }
    for (int child : plan.children) {
      std::string fk = StringPrintf("fk%d", child);
      table.columns.push_back({fk, DataType::kString});
      table.foreign_ids.push_back({fk, StringPrintf("t%d", child)});
    }
    table.columns.push_back({"prob", DataType::kDouble});

    for (size_t e = 0; e < plan.cluster_probs.size(); ++e) {
      const std::vector<double>& probs = plan.cluster_probs[e];
      // Cluster base values; duplicates perturb or redraw them.
      std::vector<Value> base_attrs;
      for (DataType type : plan.attr_types) {
        base_attrs.push_back(RandomAttrValue(&rng, type, cfg));
      }
      std::vector<size_t> base_fk_targets;
      for (int child : plan.children) {
        base_fk_targets.push_back(static_cast<size_t>(rng.Uniform(
            0,
            static_cast<int64_t>(plans[child].cluster_probs.size()) - 1)));
      }
      for (size_t j = 0; j < probs.size(); ++j) {
        Row row;
        row.push_back(Value::String(EntityId(t, e)));
        for (size_t a = 0; a < plan.attr_types.size(); ++a) {
          row.push_back(j == 0 ? base_attrs[a]
                               : DuplicateAttrValue(&rng, plan.attr_types[a],
                                                    base_attrs[a], cfg));
        }
        for (size_t ci = 0; ci < plan.children.size(); ++ci) {
          size_t target = base_fk_targets[ci];
          if (j > 0 && rng.Chance(cfg.fk_error_rate)) {
            target = static_cast<size_t>(rng.Uniform(
                0, static_cast<int64_t>(
                       plans[plan.children[ci]].cluster_probs.size()) -
                       1));
          }
          row.push_back(Value::String(EntityId(plan.children[ci], target)));
        }
        row.push_back(Value::Double(probs[j]));
        table.rows.push_back(std::move(row));
      }
    }
    c.tables.push_back(std::move(table));
  }

  // The query: the join tree, random projections, random selections.
  FuzzQuery q;
  q.select.push_back("t0.id");
  for (int t = 0; t < n; ++t) {
    q.from.push_back(c.tables[t].name);
    if (t > 0 && rng.Chance(cfg.select_id_rate)) {
      q.select.push_back(c.tables[t].name + ".id");
    }
    for (size_t a = 0; a < plans[t].attr_types.size(); ++a) {
      if (rng.Chance(cfg.select_attr_rate)) {
        q.select.push_back(c.tables[t].name + "." +
                           StringPrintf("a%d_%zu", t, a));
      }
    }
  }
  for (int t = 1; t < n; ++t) {
    q.joins.push_back({StringPrintf("t%d", parent_of[t]),
                       StringPrintf("fk%d", t), StringPrintf("t%d", t), "id"});
  }
  static const char* kIntOps[] = {"=", "<>", "<", "<=", ">", ">="};
  static const char* kBroadIntOps[] = {"<>", "<=", ">="};
  // Literal choice is deliberately biased toward *satisfiable* predicates:
  // sampled from rows the join can actually reach (parent-referenced
  // entities), mostly with broad operators, at most one predicate per table.
  // Blind conjunctions over the tiny domains empty nearly every result set,
  // and all-empty answers are invisible to the probability oracles.
  const double kBlindLiteralRate = 0.1;
  const size_t kMaxFilters = 3;
  for (int t = 0; t < n && q.filters.size() < kMaxFilters; ++t) {
    // Identifiers of this table the join can reach: every entity for the
    // root, the parent's foreign-key targets otherwise.
    std::vector<std::string> reachable_ids;
    if (t > 0) {
      const FuzzTable& parent = c.tables[static_cast<size_t>(parent_of[t])];
      auto fk_col = parent.FindColumn(StringPrintf("fk%d", t));
      if (fk_col.has_value()) {
        for (const Row& row : parent.rows) {
          if (!row[*fk_col].is_null()) {
            reachable_ids.push_back(row[*fk_col].string_value());
          }
        }
      }
    }
    auto reachable = [&](const Row& row) {
      if (t == 0) return true;
      if (row[0].is_null()) return false;
      const std::string& id = row[0].string_value();
      return std::find(reachable_ids.begin(), reachable_ids.end(), id) !=
             reachable_ids.end();
    };

    bool table_filtered = false;
    for (size_t a = 0; a < plans[t].attr_types.size() && !table_filtered;
         ++a) {
      if (!rng.Chance(cfg.pred_rate)) continue;
      FuzzPredicate pred;
      pred.table = c.tables[t].name;
      pred.column = StringPrintf("a%d_%zu", t, a);
      const size_t col = 1 + a;  // id column precedes the attributes
      std::vector<Value> present;
      for (const Row& row : c.tables[t].rows) {
        if (!row[col].is_null() && reachable(row)) present.push_back(row[col]);
      }
      Value sample;
      if (present.empty() || rng.Chance(kBlindLiteralRate)) {
        sample = RandomAttrValue(&rng, plans[t].attr_types[a], cfg);
        if (sample.is_null()) continue;
      } else {
        sample = present[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(present.size()) - 1))];
      }
      if (plans[t].attr_types[a] == DataType::kString) {
        const std::string& word = sample.string_value();
        if (rng.Chance(cfg.like_rate)) {
          pred.op = "like";
          pred.literal = Value::String(
              word.substr(0, static_cast<size_t>(rng.Uniform(1, 2))) + "%");
        } else {
          pred.op = rng.Chance(0.5) ? "=" : "<>";
          pred.literal = std::move(sample);
        }
      } else {
        pred.op = rng.Chance(0.25) ? kIntOps[rng.Uniform(0, 5)]
                                   : kBroadIntOps[rng.Uniform(0, 2)];
        pred.literal = std::move(sample);
      }
      q.filters.push_back(std::move(pred));
      table_filtered = true;
    }
    if (!table_filtered && rng.Chance(cfg.id_pred_rate)) {
      // A point predicate on an unreferenced entity empties the join no
      // matter what the rest of the query does, hence reachable ids only.
      std::string id_literal;
      if (t == 0) {
        id_literal = EntityId(0, static_cast<size_t>(rng.Uniform(
                                  0, static_cast<int64_t>(
                                         plans[0].cluster_probs.size()) -
                                         1)));
      } else {
        if (reachable_ids.empty()) continue;
        id_literal = reachable_ids[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(reachable_ids.size()) - 1))];
      }
      q.filters.push_back(
          {c.tables[t].name, "id", "=", Value::String(id_literal)});
    }
  }

  if (rng.Chance(cfg.mutant_rate)) {
    q.expect_rewritable = false;
    q.mutation = ApplyMutation(&rng, c, &q);
  }
  c.query = std::move(q);

  // Mutation-stage writes ride along on rewritable cases only: the reject
  // path never executes, so writes would be dead weight there.
  if (c.query.expect_rewritable && cfg.max_writes > 0 &&
      rng.Chance(cfg.write_rate)) {
    int num_writes = static_cast<int>(rng.Uniform(1, cfg.max_writes));
    for (int wi = 0; wi < num_writes; ++wi) {
      size_t ti = static_cast<size_t>(rng.Uniform(0, n - 1));
      c.writes.push_back(MakeWrite(&rng, c, ti, plans[ti].attr_types,
                                   plans[ti].cluster_probs.size(), wi, cfg));
    }
  }

  // Out-of-core dimensions: a quarter of the cases run under a starvation
  // budget (constant evict/reload through every oracle stage) and a quarter
  // take a binary save/load round-trip before the ops replay.
  if (rng.Chance(0.25)) {
    c.memory_budget = static_cast<uint64_t>(rng.Uniform(1, 4096));
  }
  if (rng.Chance(0.25)) c.save_load_roundtrip = true;

  // Secondary indexes. Emitted last so index decisions never perturb the
  // data or query draws above: the same seed with index_rate zeroed yields
  // the identical case minus the index dimension. Each indexed table may
  // also pick up a selective predicate template (point or narrow range, so
  // plans flow through IndexScan point lookups and index-seeded join
  // probes) and an in-place SetValue that invalidates one chunk's index
  // slice after the build — the query path must lazily rebuild exactly
  // that slice.
  for (int t = 0; t < n; ++t) {
    if (!rng.Chance(cfg.index_rate)) continue;
    const FuzzTable& table = c.tables[static_cast<size_t>(t)];
    const size_t num_attrs = plans[t].attr_types.size();
    const bool on_id = num_attrs == 0 || rng.Chance(0.5);
    const size_t col =
        on_id ? 0
              : 1 + static_cast<size_t>(rng.Uniform(
                        0, static_cast<int64_t>(num_attrs) - 1));
    c.ops.push_back({FuzzOp::Kind::kCreateIndex, table.name, 0, 0,
                     table.columns[col].name, Value::Null()});
    if (!on_id && c.query.expect_rewritable &&
        rng.Chance(cfg.selective_pred_rate)) {
      // Literals sampled from stored rows keep the template satisfiable.
      std::vector<const Value*> present;
      for (const Row& row : table.rows) {
        if (!row[col].is_null()) present.push_back(&row[col]);
      }
      if (!present.empty()) {
        const Value& sample = *present[static_cast<size_t>(rng.Uniform(
            0, static_cast<int64_t>(present.size()) - 1))];
        const std::string& name = table.columns[col].name;
        if (table.columns[col].type == DataType::kInt64 && rng.Chance(0.5)) {
          c.query.filters.push_back(
              {table.name, name, ">=", Value::Int(sample.int_value() - 1)});
          c.query.filters.push_back(
              {table.name, name, "<=", Value::Int(sample.int_value() + 1)});
        } else {
          c.query.filters.push_back({table.name, name, "=", sample});
        }
      }
    }
    if (!on_id && !table.rows.empty() &&
        rng.Chance(cfg.index_setvalue_rate)) {
      const size_t row = static_cast<size_t>(rng.Uniform(
          0, static_cast<int64_t>(table.rows.size()) - 1));
      Value v = RandomAttrValue(&rng, plans[t].attr_types[col - 1], cfg);
      c.ops.push_back({FuzzOp::Kind::kSetValue, table.name, 0, row,
                       table.columns[col].name, std::move(v)});
    }
  }
  return c;
}

}  // namespace fuzz
}  // namespace conquer
