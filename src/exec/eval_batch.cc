#include "exec/eval_batch.h"

#include <algorithm>

#include "common/str_util.h"
#include "exec/eval.h"

namespace conquer {

namespace {

bool IsOrderedComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq:
    case BinaryOp::kNe:
    case BinaryOp::kLt:
    case BinaryOp::kLe:
    case BinaryOp::kGt:
    case BinaryOp::kGe:
      return true;
    default:
      return false;
  }
}

bool CmpMatches(BinaryOp op, int c) {
  switch (op) {
    case BinaryOp::kEq:
      return c == 0;
    case BinaryOp::kNe:
      return c != 0;
    case BinaryOp::kLt:
      return c < 0;
    case BinaryOp::kLe:
      return c <= 0;
    case BinaryOp::kGt:
      return c > 0;
    case BinaryOp::kGe:
      return c >= 0;
    default:
      return false;
  }
}

/// `lit op col` rewritten as `col op' lit`.
BinaryOp FlipComparison(BinaryOp op) {
  switch (op) {
    case BinaryOp::kLt:
      return BinaryOp::kGt;
    case BinaryOp::kLe:
      return BinaryOp::kGe;
    case BinaryOp::kGt:
      return BinaryOp::kLt;
    case BinaryOp::kGe:
      return BinaryOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

/// Normalizes a comparison node to column-on-the-left. Returns false when
/// the node is not a column-vs-literal comparison (col/lit untouched).
bool NormalizeColLit(const Expr& e, const Expr** col, const Expr** lit,
                     BinaryOp* op) {
  const Expr& l = *e.left;
  const Expr& r = *e.right;
  *op = e.bop;
  if (l.kind == Expr::Kind::kColumnRef && r.kind == Expr::Kind::kLiteral) {
    *col = &l;
    *lit = &r;
    return true;
  }
  if (l.kind == Expr::Kind::kLiteral && r.kind == Expr::Kind::kColumnRef &&
      e.bop != BinaryOp::kLike) {
    *col = &r;
    *lit = &l;
    *op = FlipComparison(e.bop);
    return true;
  }
  return false;
}

// ---------------------------------------------------------- chunk filtering

/// Scalar fallback over a chunk: reads the predicate's columns of each
/// candidate row through the caller's pin into a table-local scratch row
/// (matching the rebased predicate's slots; the other slots stay NULL) and
/// evaluates.
Status ChunkFilterScalar(const Expr& e, const Table& table, size_t chunk_index,
                         SelVector* sel) {
  const Chunk& chunk = table.chunk(chunk_index);
  ColumnSet cols;
  AddExprColumns(e, chunk.num_columns(), &cols);
  Row scratch(chunk.num_columns());
  size_t out = 0;
  for (uint32_t i : *sel) {
    for (uint32_t c : cols) {
      scratch[c] = chunk.column(c).GetValue(i, table.dictionary(c));
    }
    CONQUER_ASSIGN_OR_RETURN(bool pass, EvalPredicate(e, scratch));
    if (pass) (*sel)[out++] = i;
  }
  sel->resize(out);
  return Status::OK();
}

/// Comparison of an int64-backed column (INT64/DATE/BOOL) against a raw
/// int64 constant.
void ChunkFilterFixed(BinaryOp op, const ColumnVector& cv, int64_t lit,
                      bool stop_after_match, SelVector* sel) {
  const int64_t* data = cv.fixed_data();
  const uint8_t* nulls = cv.null_data();
  size_t out = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    const uint32_t i = (*sel)[k];
    if (nulls[i]) continue;
    const int64_t v = data[i];
    if (CmpMatches(op, (v > lit) - (v < lit))) {
      (*sel)[out++] = i;
      if (stop_after_match) break;  // all-distinct chunk: no second match
    }
  }
  sel->resize(out);
}

/// Comparison of a double column (or an int column against a double
/// literal) using double semantics, mirroring Value::Compare.
template <typename T>
void ChunkFilterAsDouble(BinaryOp op, const T* data, const uint8_t* nulls,
                         double lit, SelVector* sel) {
  size_t out = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    const uint32_t i = (*sel)[k];
    if (nulls[i]) continue;
    const double v = static_cast<double>(data[i]);
    if (CmpMatches(op, (v > lit) - (v < lit))) (*sel)[out++] = i;
  }
  sel->resize(out);
}

/// String (in)equality as a dictionary-code compare. `code` may be
/// kInvalidCode (literal absent from the dictionary: nothing can be equal).
void ChunkFilterCodeEquality(BinaryOp op, const ColumnVector& cv,
                             uint32_t code, bool stop_after_match,
                             SelVector* sel, uint64_t* dict_hits) {
  const bool want_equal = op == BinaryOp::kEq;
  const uint32_t* codes = cv.code_data();
  const uint8_t* nulls = cv.null_data();
  uint64_t hits = 0;
  size_t out = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    const uint32_t i = (*sel)[k];
    if (nulls[i]) continue;
    ++hits;
    if ((codes[i] == code) == want_equal) {
      (*sel)[out++] = i;
      if (want_equal && stop_after_match) break;
    }
  }
  sel->resize(out);
  *dict_hits += hits;
}

/// Ordered string comparison / LIKE: decodes through the dictionary (no
/// copies) and compares bytes.
Status ChunkFilterStringScan(BinaryOp op, const ColumnVector& cv,
                             const StringDictionary& dict,
                             const std::string& text, SelVector* sel) {
  const uint32_t* codes = cv.code_data();
  const uint8_t* nulls = cv.null_data();
  size_t out = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    const uint32_t i = (*sel)[k];
    if (nulls[i]) continue;
    const std::string& s = *dict.StringAt(codes[i]);
    bool pass;
    if (op == BinaryOp::kLike) {
      pass = LikeMatch(s, text);
    } else {
      const int c = s.compare(text);
      pass = CmpMatches(op, (c > 0) - (c < 0));
    }
    if (pass) (*sel)[out++] = i;
  }
  sel->resize(out);
  return Status::OK();
}

/// Generic column-vs-literal loop (odd type pairings): builds each stored
/// value and defers to Value::Compare, as EvalPredicate compares them.
void ChunkFilterGenericConst(BinaryOp op, const ColumnVector& cv,
                             const StringDictionary* dict, const Value& lit,
                             SelVector* sel) {
  size_t out = 0;
  for (size_t k = 0; k < sel->size(); ++k) {
    const uint32_t i = (*sel)[k];
    if (cv.is_null(i)) continue;
    if (CmpMatches(op, cv.GetValue(i, dict).Compare(lit))) (*sel)[out++] = i;
  }
  sel->resize(out);
}

/// Dispatches a comparison over chunk columns to its typed loop.
Status ChunkFilterComparison(const Expr& e, const Table& table,
                             size_t chunk_index, SelVector* sel,
                             uint64_t* dict_hits) {
  const Chunk& chunk = table.chunk(chunk_index);
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  BinaryOp op = e.bop;
  if (!NormalizeColLit(e, &col, &lit, &op)) {
    if (e.left->kind == Expr::Kind::kColumnRef &&
        e.right->kind == Expr::Kind::kColumnRef &&
        IsOrderedComparison(e.bop)) {
      // Column vs column within one table: generic value loop.
      const ColumnVector& lc = chunk.column(e.left->slot);
      const ColumnVector& rc = chunk.column(e.right->slot);
      const StringDictionary* ld = table.dictionary(e.left->slot);
      const StringDictionary* rd = table.dictionary(e.right->slot);
      size_t out = 0;
      for (size_t k = 0; k < sel->size(); ++k) {
        const uint32_t i = (*sel)[k];
        if (lc.is_null(i) || rc.is_null(i)) continue;
        if (CmpMatches(e.bop, lc.GetValue(i, ld).Compare(rc.GetValue(i, rd)))) {
          (*sel)[out++] = i;
        }
      }
      sel->resize(out);
      return Status::OK();
    }
    return ChunkFilterScalar(e, table, chunk_index, sel);
  }
  if (lit->literal.is_null()) {
    // A comparison with NULL is never TRUE.
    sel->clear();
    return Status::OK();
  }
  if (col->slot < 0 ||
      static_cast<size_t>(col->slot) >= chunk.num_columns()) {
    return ChunkFilterScalar(e, table, chunk_index, sel);
  }
  const ColumnVector& cv = chunk.column(col->slot);
  const Value& c = lit->literal;
  const bool all_distinct = chunk.zone(col->slot).all_distinct;

  if (op == BinaryOp::kLike) {
    if (c.type() != DataType::kString) {
      return ChunkFilterScalar(e, table, chunk_index, sel);  // raises TypeError
    }
    if (cv.type() != DataType::kString) {
      return Status::TypeError(
          std::string("LIKE requires string operands, got ") +
          DataTypeToString(cv.type()) + " and STRING");
    }
    return ChunkFilterStringScan(op, cv, *table.dictionary(col->slot),
                                 c.string_value(), sel);
  }

  switch (cv.type()) {
    case DataType::kInt64:
    case DataType::kDate:
      if (c.type() == cv.type()) {
        ChunkFilterFixed(op, cv, c.int_value(),
                         all_distinct && op == BinaryOp::kEq, sel);
        return Status::OK();
      }
      if (cv.type() == DataType::kInt64 && c.type() == DataType::kDouble) {
        ChunkFilterAsDouble(op, cv.fixed_data(), cv.null_data(),
                            c.double_value(), sel);
        return Status::OK();
      }
      break;
    case DataType::kDouble:
      if (c.type() == DataType::kDouble || c.type() == DataType::kInt64) {
        ChunkFilterAsDouble(op, cv.double_data(), cv.null_data(), c.AsDouble(),
                            sel);
        return Status::OK();
      }
      break;
    case DataType::kBool:
      if (c.type() == DataType::kBool) {
        ChunkFilterFixed(op, cv, c.bool_value() ? 1 : 0, false, sel);
        return Status::OK();
      }
      break;
    case DataType::kString:
      if (c.type() == DataType::kString) {
        const StringDictionary& dict = *table.dictionary(col->slot);
        if (op == BinaryOp::kEq || op == BinaryOp::kNe) {
          ChunkFilterCodeEquality(op, cv, dict.Find(c.string_value()),
                                  all_distinct, sel, dict_hits);
          return Status::OK();
        }
        return ChunkFilterStringScan(op, cv, dict, c.string_value(), sel);
      }
      break;
    default:
      break;
  }
  // Mixed/odd type pairing: same semantics as the row-wise constant loop.
  ChunkFilterGenericConst(op, cv, table.dictionary(col->slot), c, sel);
  return Status::OK();
}

/// Mirror of TotalCompare's type classes, restricted to pairs Value::Compare
/// handles without error (zone pruning refuses everything else).
bool ZoneComparable(DataType lit, DataType col) {
  auto numeric = [](DataType t) {
    return t == DataType::kInt64 || t == DataType::kDouble;
  };
  if (numeric(lit) && numeric(col)) return true;
  return lit == col;
}

}  // namespace

void AddExprColumns(const Expr& e, size_t num_columns, ColumnSet* cols) {
  if (e.kind == Expr::Kind::kColumnRef && e.slot >= 0 &&
      static_cast<size_t>(e.slot) < num_columns) {
    AddColumn(static_cast<uint32_t>(e.slot), cols);
  }
  if (e.left) AddExprColumns(*e.left, num_columns, cols);
  if (e.right) AddExprColumns(*e.right, num_columns, cols);
}

void KeepVisible(const Chunk& chunk, uint64_t snapshot, SelVector* sel) {
  if (!chunk.has_versions()) return;
  size_t out = 0;
  for (uint32_t i : *sel) {
    if (chunk.RowVisible(i, snapshot)) (*sel)[out++] = i;
  }
  sel->resize(out);
}

bool ZoneMapCanSkip(const Expr& e, const Table& table, const Chunk& chunk) {
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      // A constant FALSE/NULL predicate rejects every row; other literal
      // types would raise in evaluation, so they never prune.
      return e.literal.is_null() ||
             (e.literal.type() == DataType::kBool && !e.literal.bool_value());
    case Expr::Kind::kBinary:
      break;
    default:
      return false;
  }
  if (e.bop == BinaryOp::kAnd) {
    return ZoneMapCanSkip(*e.left, table, chunk) ||
           ZoneMapCanSkip(*e.right, table, chunk);
  }
  if (e.bop == BinaryOp::kOr) {
    return ZoneMapCanSkip(*e.left, table, chunk) &&
           ZoneMapCanSkip(*e.right, table, chunk);
  }
  if (!IsOrderedComparison(e.bop)) return false;
  const Expr* col = nullptr;
  const Expr* lit = nullptr;
  BinaryOp op = e.bop;
  if (!NormalizeColLit(e, &col, &lit, &op)) return false;
  if (col->slot < 0 || static_cast<size_t>(col->slot) >= chunk.num_columns()) {
    return false;
  }
  if (lit->literal.is_null()) return true;  // never TRUE for any row
  const ZoneMap& z = chunk.zone(col->slot);
  // All rows NULL (or the chunk is empty): no row satisfies a comparison.
  if (!z.has_values()) return true;
  if (!ZoneComparable(lit->literal.type(), z.min.type())) return false;
  const int cmin = z.min.Compare(lit->literal);
  const int cmax = z.max.Compare(lit->literal);
  switch (op) {
    case BinaryOp::kEq:
      return cmin > 0 || cmax < 0;  // lit outside [min, max]
    case BinaryOp::kNe:
      return cmin == 0 && cmax == 0;  // every value equals lit
    case BinaryOp::kLt:
      return cmin >= 0;  // min >= lit: nothing below lit
    case BinaryOp::kLe:
      return cmin > 0;
    case BinaryOp::kGt:
      return cmax <= 0;  // max <= lit: nothing above lit
    case BinaryOp::kGe:
      return cmax < 0;
    default:
      return false;
  }
}

Status FilterChunkSelection(const Expr& e, const Table& table,
                            size_t chunk_index, SelVector* sel,
                            uint64_t* dict_hits) {
  if (sel->empty()) return Status::OK();
  switch (e.kind) {
    case Expr::Kind::kLiteral:
      if (e.literal.is_null() || !e.literal.bool_value()) sel->clear();
      return Status::OK();
    case Expr::Kind::kBinary:
      if (e.bop == BinaryOp::kAnd) {
        CONQUER_RETURN_NOT_OK(
            FilterChunkSelection(*e.left, table, chunk_index, sel, dict_hits));
        return FilterChunkSelection(*e.right, table, chunk_index, sel,
                                    dict_hits);
      }
      if (e.bop == BinaryOp::kOr) {
        SelVector left = *sel;
        CONQUER_RETURN_NOT_OK(FilterChunkSelection(*e.left, table, chunk_index,
                                                   &left, dict_hits));
        SelVector right;
        right.reserve(sel->size() - left.size());
        std::set_difference(sel->begin(), sel->end(), left.begin(), left.end(),
                            std::back_inserter(right));
        CONQUER_RETURN_NOT_OK(FilterChunkSelection(*e.right, table, chunk_index,
                                                   &right, dict_hits));
        sel->clear();
        std::merge(left.begin(), left.end(), right.begin(), right.end(),
                   std::back_inserter(*sel));
        return Status::OK();
      }
      if (IsOrderedComparison(e.bop) || e.bop == BinaryOp::kLike) {
        return ChunkFilterComparison(e, table, chunk_index, sel, dict_hits);
      }
      return ChunkFilterScalar(e, table, chunk_index, sel);
    default:
      return ChunkFilterScalar(e, table, chunk_index, sel);
  }
}

}  // namespace conquer
