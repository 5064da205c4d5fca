#include "relational/column_batch.h"

#include <algorithm>

#include "base/check.h"

namespace gsopt {

void GatherColumnInto(const Relation& r, int col, int64_t begin, int64_t end,
                      Column* out) {
  GSOPT_DCHECK(begin >= 0 && begin <= end && end <= r.NumRows());
  out->Clear();
  int64_t n = end - begin;
  out->nulls.assign(static_cast<size_t>(n), 0);
  size_t col_idx = static_cast<size_t>(col);

  // Fast path: single optimistic pass assuming the dominant case, a pure
  // int64 (or all-NULL) range. Each value is inspected exactly once; on the
  // first double/string value the partial fill is discarded and the general
  // two-pass gather below runs instead, so mixed ranges pay one extra
  // prefix scan and pure-int ranges pay half the variant inspections.
  out->i64.assign(static_cast<size_t>(n), 0);
  bool int_ok = true;
  for (int64_t i = 0; i < n; ++i) {
    const Value& v = r.row(begin + i).values[col_idx];
    ValueType t = v.type();
    if (t == ValueType::kInt) {
      out->i64[static_cast<size_t>(i)] = v.AsInt();
    } else if (t == ValueType::kNull) {
      out->nulls[static_cast<size_t>(i)] = 1;
      out->has_nulls = true;
    } else {
      int_ok = false;
      break;
    }
  }
  if (int_ok) {
    out->kind = ColumnKind::kInt64;
    return;
  }
  out->i64.clear();
  out->has_nulls = false;
  std::fill(out->nulls.begin(), out->nulls.end(), 0);

  // Pass 1: decide the batch-local kind from the values actually present.
  // A column that is pure int64 (or pure double / pure string) in this row
  // range gets a tight typed array even if other ranges of the relation mix
  // types; all-NULL ranges default to kInt64 with every null bit set.
  size_t c = static_cast<size_t>(col);
  bool any = false, all_int = true, all_dbl = true, all_str = true;
  for (int64_t i = begin; i < end; ++i) {
    const Value& v = r.row(i).values[c];
    switch (v.type()) {
      case ValueType::kNull:
        continue;
      case ValueType::kInt:
        all_dbl = all_str = false;
        break;
      case ValueType::kDouble:
        all_int = all_str = false;
        break;
      case ValueType::kString:
        all_int = all_dbl = false;
        break;
    }
    any = true;
    if (!all_int && !all_dbl && !all_str) break;
  }
  if (!any) all_int = true;  // all-NULL: empty typed int64 column
  out->kind = all_int   ? ColumnKind::kInt64
              : all_dbl ? ColumnKind::kDouble
              : all_str ? ColumnKind::kString
                        : ColumnKind::kMixed;

  // Pass 2: fill the typed array. NULL slots hold a zero / null pointer and
  // are only ever read through the null mask.
  switch (out->kind) {
    case ColumnKind::kInt64:
      out->i64.assign(static_cast<size_t>(n), 0);
      for (int64_t i = 0; i < n; ++i) {
        const Value& v = r.row(begin + i).values[c];
        if (v.is_null()) {
          out->nulls[static_cast<size_t>(i)] = 1;
          out->has_nulls = true;
        } else {
          out->i64[static_cast<size_t>(i)] = v.AsInt();
        }
      }
      break;
    case ColumnKind::kDouble:
      out->f64.assign(static_cast<size_t>(n), 0.0);
      for (int64_t i = 0; i < n; ++i) {
        const Value& v = r.row(begin + i).values[c];
        if (v.is_null()) {
          out->nulls[static_cast<size_t>(i)] = 1;
          out->has_nulls = true;
        } else {
          out->f64[static_cast<size_t>(i)] = v.AsDouble();
        }
      }
      break;
    case ColumnKind::kString:
      out->str.assign(static_cast<size_t>(n), nullptr);
      for (int64_t i = 0; i < n; ++i) {
        const Value& v = r.row(begin + i).values[c];
        if (v.is_null()) {
          out->nulls[static_cast<size_t>(i)] = 1;
          out->has_nulls = true;
        } else {
          out->str[static_cast<size_t>(i)] = &v.AsString();
        }
      }
      break;
    case ColumnKind::kMixed:
      out->vals.assign(static_cast<size_t>(n), nullptr);
      for (int64_t i = 0; i < n; ++i) {
        const Value& v = r.row(begin + i).values[c];
        out->vals[static_cast<size_t>(i)] = &v;
        if (v.is_null()) {
          out->nulls[static_cast<size_t>(i)] = 1;
          out->has_nulls = true;
        }
      }
      break;
  }
}

void GatherColumnsInto(const Relation& r, const std::vector<int>& cols,
                       int64_t begin, int64_t end, std::vector<Column>* out) {
  out->resize(cols.size());
  size_t ncols = cols.size();
  int64_t n = end - begin;

  // Fused fast path: one pass over the rows filling every requested column
  // at once, assuming the dominant all-int64 (or NULL) case. Each row is
  // touched exactly once, which matters now that tuples carry their
  // payloads inline (fat row stride); the per-column path would re-walk
  // the row array once per column. Any non-int value aborts into the
  // general per-column gather for all columns.
  if (ncols > 1) {
    for (size_t k = 0; k < ncols; ++k) {
      Column& c = (*out)[k];
      c.Clear();
      c.kind = ColumnKind::kInt64;
      c.nulls.assign(static_cast<size_t>(n), 0);
      c.i64.assign(static_cast<size_t>(n), 0);
    }
    bool int_ok = true;
    for (int64_t i = 0; i < n && int_ok; ++i) {
      const Tuple& t = r.row(begin + i);
      for (size_t k = 0; k < ncols; ++k) {
        const Value& v = t.values[static_cast<size_t>(cols[k])];
        ValueType ty = v.type();
        if (ty == ValueType::kInt) {
          (*out)[k].i64[static_cast<size_t>(i)] = v.AsInt();
        } else if (ty == ValueType::kNull) {
          (*out)[k].nulls[static_cast<size_t>(i)] = 1;
          (*out)[k].has_nulls = true;
        } else {
          int_ok = false;
          break;
        }
      }
    }
    if (int_ok) return;
  }

  for (size_t k = 0; k < ncols; ++k) {
    GatherColumnInto(r, cols[k], begin, end, &(*out)[k]);
  }
}

void GatherVidsInto(const Relation& r, const std::vector<int>& vid_idx,
                    int64_t begin, int64_t end,
                    std::vector<std::vector<RowId>>* out) {
  int64_t n = end - begin;
  out->resize(vid_idx.size());
  for (size_t k = 0; k < vid_idx.size(); ++k) {
    std::vector<RowId>& v = (*out)[k];
    v.resize(static_cast<size_t>(n));
    size_t vi = static_cast<size_t>(vid_idx[k]);
    for (int64_t i = 0; i < n; ++i) {
      v[static_cast<size_t>(i)] = r.row(begin + i).vids[vi];
    }
  }
}

}  // namespace gsopt
