#include "exec/columnar.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "exec/lane_control.h"

namespace gsopt::exec::internal {

namespace {

using CAtom = CompiledFilter::CAtom;

int SlotFor(std::vector<int>* cols, int c) {
  for (size_t k = 0; k < cols->size(); ++k) {
    if ((*cols)[k] == c) return static_cast<int>(k);
  }
  cols->push_back(c);
  return static_cast<int>(cols->size() - 1);
}

// `k <op> col` rewritten as `col <mirror(op)> k`.
CmpOp MirrorOp(CmpOp op) {
  switch (op) {
    case CmpOp::kLt:
      return CmpOp::kGt;
    case CmpOp::kLe:
      return CmpOp::kGe;
    case CmpOp::kGt:
      return CmpOp::kLt;
    case CmpOp::kGe:
      return CmpOp::kLe;
    default:
      return op;  // kEq / kNe are symmetric
  }
}

// Refines the selection vector by `keep`. The first refining atom runs
// "dense" over [0, n) and materializes the vector; later atoms compact it
// in place.
template <typename Keep>
void RefineSel(bool* dense, int64_t n, std::vector<int32_t>* sel, Keep keep) {
  // Branchless compaction: always store the candidate offset, advance the
  // write cursor by the predicate's 0/1. At mid selectivities a branchy
  // `if (keep) push_back` mispredicts on essentially every row.
  if (*dense) {
    sel->resize(static_cast<size_t>(n));
    int32_t* out = sel->data();
    size_t w = 0;
    for (int64_t i = 0; i < n; ++i) {
      out[w] = static_cast<int32_t>(i);
      w += keep(i) ? 1u : 0u;
    }
    sel->resize(w);
    *dense = false;
  } else {
    int32_t* out = sel->data();
    size_t w = 0;
    for (int32_t i : *sel) {
      out[w] = i;
      w += keep(static_cast<int64_t>(i)) ? 1u : 0u;
    }
    sel->resize(w);
  }
}

// Exact three-way comparisons of numeric cells when at least one side is
// a double (the branchless paths handle int64 against int64), by
// Value::Compare's rule: an int64 against a double goes through
// CompareIntDouble, never a rounding cast, so the batch filter keeps the
// row path's equality partition. Row i of `a` against row i of `b`:
int CompareNumCells(const Column& a, const Column& b, int64_t i) {
  size_t x = static_cast<size_t>(i);
  if (a.kind == ColumnKind::kInt64) {
    return CompareIntDouble(a.i64[x], b.f64[x]);
  }
  if (b.kind == ColumnKind::kInt64) {
    return -CompareIntDouble(b.i64[x], a.f64[x]);
  }
  return CompareDoubles(a.f64[x], b.f64[x]);
}

// ...and row i of `c` against the numeric constant `k`.
int CompareNumCell(const Column& c, int64_t i, const Value& k) {
  size_t x = static_cast<size_t>(i);
  if (c.kind == ColumnKind::kInt64) {
    return CompareIntDouble(c.i64[x], k.AsDouble());
  }
  if (k.type() == ValueType::kInt) {
    return -CompareIntDouble(k.AsInt(), c.f64[x]);
  }
  return CompareDoubles(c.f64[x], k.AsDouble());
}

// Hoists the operator dispatch out of the row loop: one tight loop per
// (shape, op) pair, with only the null test and the three-way compare
// inside. `cmp3` is only called on non-null rows.
template <typename NullF, typename Cmp3>
void RefineCompare(CmpOp op, bool* dense, int64_t n, std::vector<int32_t>* sel,
                   NullF is_null, Cmp3 cmp3) {
  switch (op) {
    case CmpOp::kEq:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) == 0; });
      break;
    case CmpOp::kNe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) != 0; });
      break;
    case CmpOp::kLt:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) < 0; });
      break;
    case CmpOp::kLe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) <= 0; });
      break;
    case CmpOp::kGt:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) > 0; });
      break;
    case CmpOp::kGe:
      RefineSel(dense, n, sel,
                [&](int64_t i) { return !is_null(i) && cmp3(i) >= 0; });
      break;
  }
}

bool IsNumericKind(ColumnKind k) {
  return k == ColumnKind::kInt64 || k == ColumnKind::kDouble;
}

void ApplyColCol(const CAtom& ca, const std::vector<Column>& cols, bool* dense,
                 int64_t n, std::vector<int32_t>* sel) {
  const Column& a = cols[static_cast<size_t>(ca.lhs_slot)];
  const Column& b = cols[static_cast<size_t>(ca.rhs_slot)];
  auto is_null = [&](int64_t i) {
    return (a.nulls[static_cast<size_t>(i)] |
            b.nulls[static_cast<size_t>(i)]) != 0;
  };
  if (a.kind == ColumnKind::kInt64 && b.kind == ColumnKind::kInt64) {
    // Fully branchless int64 row test: non-short-circuit & lets the
    // compiler if-convert (and vectorize) the null mask and the compare
    // in one pass. NULL slots hold zeros, so the compare is safe to
    // evaluate unconditionally.
    const int64_t* xa = a.i64.data();
    const int64_t* xb = b.i64.data();
    const uint8_t* na = a.nulls.data();
    const uint8_t* nb = b.nulls.data();
    auto nn = [&](int64_t i) {
      return static_cast<unsigned>((na[i] | nb[i]) == 0);
    };
    switch (ca.op) {
      case CmpOp::kEq:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] == xb[i]); });
        break;
      case CmpOp::kNe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] != xb[i]); });
        break;
      case CmpOp::kLt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] < xb[i]); });
        break;
      case CmpOp::kLe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] <= xb[i]); });
        break;
      case CmpOp::kGt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] > xb[i]); });
        break;
      case CmpOp::kGe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (xa[i] >= xb[i]); });
        break;
    }
  } else if (IsNumericKind(a.kind) && IsNumericKind(b.kind)) {
    RefineCompare(ca.op, dense, n, sel, is_null,
                  [&](int64_t i) { return CompareNumCells(a, b, i); });
  } else if (a.kind == ColumnKind::kString && b.kind == ColumnKind::kString) {
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      int c = a.str[static_cast<size_t>(i)]->compare(
          *b.str[static_cast<size_t>(i)]);
      return c < 0 ? -1 : (c > 0 ? 1 : 0);
    });
  } else if (a.kind != ColumnKind::kMixed && b.kind != ColumnKind::kMixed) {
    // Typed but incomparable in every row (string vs numeric): the
    // comparison is UNKNOWN batch-wide, so nothing survives.
    sel->clear();
    *dense = false;
  } else {
    RefineSel(dense, n, sel, [&](int64_t i) {
      return EvalCmp(ca.op, ColumnValueAt(a, i), ColumnValueAt(b, i)) ==
             Tri::kTrue;
    });
  }
}

void ApplyColConst(const CAtom& ca, const std::vector<Column>& cols,
                   bool* dense, int64_t n, std::vector<int32_t>* sel) {
  const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
  const Value& k = ca.constant;  // never NULL (compiled to kNever instead)
  auto is_null = [&](int64_t i) {
    return c.nulls[static_cast<size_t>(i)] != 0;
  };
  if (c.kind == ColumnKind::kInt64 && k.type() == ValueType::kInt) {
    // Branchless int64-vs-constant row test; see ApplyColCol.
    const int64_t* x = c.i64.data();
    const uint8_t* nc = c.nulls.data();
    int64_t kv = k.AsInt();
    auto nn = [&](int64_t i) { return static_cast<unsigned>(nc[i] == 0); };
    switch (ca.op) {
      case CmpOp::kEq:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] == kv); });
        break;
      case CmpOp::kNe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] != kv); });
        break;
      case CmpOp::kLt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] < kv); });
        break;
      case CmpOp::kLe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] <= kv); });
        break;
      case CmpOp::kGt:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] > kv); });
        break;
      case CmpOp::kGe:
        RefineSel(dense, n, sel,
                  [&](int64_t i) { return nn(i) & (x[i] >= kv); });
        break;
    }
  } else if (IsNumericKind(c.kind) && k.IsNumeric()) {
    RefineCompare(ca.op, dense, n, sel, is_null,
                  [&](int64_t i) { return CompareNumCell(c, i, k); });
  } else if (c.kind == ColumnKind::kString && k.type() == ValueType::kString) {
    const std::string& ks = k.AsString();
    RefineCompare(ca.op, dense, n, sel, is_null, [&](int64_t i) {
      int r = c.str[static_cast<size_t>(i)]->compare(ks);
      return r < 0 ? -1 : (r > 0 ? 1 : 0);
    });
  } else if (c.kind != ColumnKind::kMixed) {
    sel->clear();
    *dense = false;
  } else {
    RefineSel(dense, n, sel, [&](int64_t i) {
      return EvalCmp(ca.op, *c.vals[static_cast<size_t>(i)], k) == Tri::kTrue;
    });
  }
}

}  // namespace

CompiledFilter CompileFilter(const Predicate& p, const Schema& s) {
  CompiledFilter f;
  for (const Atom& atom : p.atoms()) {
    CAtom ca;
    ca.atom = &atom;
    // Classify one side: a resolvable plain column becomes a slot; a
    // constant (or an unsubstituted parameter, which evaluates to NULL, or
    // an UNresolvable column, which Scalar::Eval also maps to NULL) becomes
    // a captured Value; arithmetic terms punt to the row fallback.
    enum class Side { kCol, kConst, kOther };
    auto classify = [&](const ScalarPtr& sc, int* col, Value* cv) {
      if (sc == nullptr) return Side::kOther;
      switch (sc->kind()) {
        case Scalar::Kind::kColumn:
          *col = s.Find(sc->rel(), sc->name());
          if (*col >= 0) return Side::kCol;
          *cv = Value::Null();
          return Side::kConst;
        case Scalar::Kind::kConst:
          *cv = sc->constant();
          return Side::kConst;
        case Scalar::Kind::kParam:
          *cv = Value::Null();
          return Side::kConst;
        case Scalar::Kind::kArith:
          return Side::kOther;
      }
      return Side::kOther;
    };

    if (atom.kind != Atom::Kind::kCompare) {
      int col = -1;
      Value cv;
      Side side = classify(atom.lhs, &col, &cv);
      if (side == Side::kCol) {
        ca.kind = atom.kind == Atom::Kind::kIsNull ? CAtom::Kind::kIsNull
                                                   : CAtom::Kind::kIsNotNull;
        ca.lhs_slot = SlotFor(&f.cols, col);
        f.atoms.push_back(ca);
      } else if (side == Side::kConst) {
        // Statically decidable: `k IS NULL` is TRUE iff k is NULL.
        bool truth = atom.kind == Atom::Kind::kIsNull ? cv.is_null()
                                                      : !cv.is_null();
        if (!truth) {
          ca.kind = CAtom::Kind::kNever;
          f.atoms.push_back(ca);
        }  // statically TRUE atoms drop out of the conjunction
      } else {
        ca.kind = CAtom::Kind::kFallback;
        f.has_fallback = true;
        f.atoms.push_back(ca);
      }
      continue;
    }

    int lcol = -1, rcol = -1;
    Value lval, rval;
    Side ls = classify(atom.lhs, &lcol, &lval);
    Side rs = classify(atom.rhs, &rcol, &rval);
    if (ls == Side::kOther || rs == Side::kOther) {
      ca.kind = CAtom::Kind::kFallback;
      f.has_fallback = true;
    } else if (ls == Side::kCol && rs == Side::kCol) {
      ca.kind = CAtom::Kind::kCmpColCol;
      ca.op = atom.op;
      ca.lhs_slot = SlotFor(&f.cols, lcol);
      ca.rhs_slot = SlotFor(&f.cols, rcol);
    } else if (ls == Side::kCol) {  // col <op> const
      if (rval.is_null()) {
        ca.kind = CAtom::Kind::kNever;  // cmp with NULL is never TRUE
      } else {
        ca.kind = CAtom::Kind::kCmpColConst;
        ca.op = atom.op;
        ca.lhs_slot = SlotFor(&f.cols, lcol);
        ca.constant = std::move(rval);
      }
    } else if (rs == Side::kCol) {  // const <op> col, mirrored
      if (lval.is_null()) {
        ca.kind = CAtom::Kind::kNever;
      } else {
        ca.kind = CAtom::Kind::kCmpColConst;
        ca.op = MirrorOp(atom.op);
        ca.lhs_slot = SlotFor(&f.cols, rcol);
        ca.constant = std::move(lval);
      }
    } else {  // const <op> const: decide now
      if (EvalCmp(atom.op, lval, rval) == Tri::kTrue) continue;  // drop
      ca.kind = CAtom::Kind::kNever;
    }
    f.atoms.push_back(ca);
  }
  return f;
}

void ApplyFilter(const CompiledFilter& f, const Relation& r, int64_t begin,
                 int64_t n, const std::vector<Column>& cols,
                 std::vector<int32_t>* sel) {
  // Selection offsets are batch-relative int32_t: callers pass one batch
  // (kBatchRows) or one morsel at a time, never a whole relation.
  assert(n <= std::numeric_limits<int32_t>::max());
  bool dense = true;
  sel->clear();
  for (const CAtom& ca : f.atoms) {
    if (!dense && sel->empty()) return;
    switch (ca.kind) {
      case CAtom::Kind::kNever:
        sel->clear();
        return;
      case CAtom::Kind::kIsNull: {
        const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
        RefineSel(&dense, n, sel, [&](int64_t i) { return c.IsNull(i); });
        break;
      }
      case CAtom::Kind::kIsNotNull: {
        const Column& c = cols[static_cast<size_t>(ca.lhs_slot)];
        RefineSel(&dense, n, sel, [&](int64_t i) { return !c.IsNull(i); });
        break;
      }
      case CAtom::Kind::kCmpColCol:
        ApplyColCol(ca, cols, &dense, n, sel);
        break;
      case CAtom::Kind::kCmpColConst:
        ApplyColConst(ca, cols, &dense, n, sel);
        break;
      case CAtom::Kind::kFallback: {
        const Atom* atom = ca.atom;
        const Schema& s = r.schema();
        RefineSel(&dense, n, sel, [&](int64_t i) {
          return atom->Eval(r.row(begin + i), s) == Tri::kTrue;
        });
        break;
      }
    }
  }
  if (dense) {
    // Every atom folded to statically TRUE (or the predicate is empty).
    sel->resize(static_cast<size_t>(n));
    for (int64_t i = 0; i < n; ++i) (*sel)[static_cast<size_t>(i)] =
        static_cast<int32_t>(i);
  }
}

StatusOr<Relation> ColumnarSelect(const Relation& r, const Predicate& p,
                                  const ExecContext& ctx) {
  const int lanes = LanesFor(ctx, r.NumRows());
  GSOPT_RETURN_IF_ERROR(CheckDispatch(ctx, lanes, "parallel-select"));
  const size_t nlanes = static_cast<size_t>(lanes);
  // Compiled once, shared read-only by every lane.
  CompiledFilter f = CompileFilter(p, r.schema());
  Relation out(r.schema(), r.vschema());
  LaneOutputs outs(&out, lanes);
  // One pass: gather + filter + copy per batch, while the batch's tuples
  // are still cache-hot. Each lane's output is reserved once at its share
  // of the input (the tight upper bound): vector<Tuple> regrowth relocates
  // fat inline-payload tuples element-wise, and a deferred second copy
  // pass would re-stream the input from DRAM. Untouched reserve slack is
  // virtual address space only, the same worst case as push_back growth.
  for (int l = 0; l < lanes; ++l) {
    outs[l].Reserve(r.NumRows() / lanes + 1);
  }
  std::vector<OperatorStats> lane_stats(nlanes);
  std::vector<std::vector<Column>> lane_cols(nlanes);
  std::vector<std::vector<int32_t>> lane_sel(nlanes);
  LaneControl control(lanes);
  ForRanges(ctx, lanes, r.NumRows(), [&](int lane, int64_t begin,
                                         int64_t end) {
    if (control.cancelled()) return;
    const size_t l = static_cast<size_t>(lane);
    Status s = ctx.Tick("select");
    if (!s.ok()) return control.Fail(lane, std::move(s));
    std::vector<int32_t>& sel = lane_sel[l];
    GatherColumnsInto(r, f.cols, begin, end, &lane_cols[l]);
    ApplyFilter(f, r, begin, end - begin, lane_cols[l], &sel);
    ++lane_stats[l].batches;
    // The reference loop evaluates the predicate once per input row.
    lane_stats[l].residual_evals += static_cast<uint64_t>(end - begin);
    Relation& o = outs[lane];
    for (int32_t i : sel) o.Add(r.row(begin + i));
    if (!sel.empty()) {
      s = ctx.ChargeRows(static_cast<uint64_t>(sel.size()), "select");
      if (!s.ok()) return control.Fail(lane, std::move(s));
    }
  });
  GSOPT_RETURN_IF_ERROR(control.First());
  outs.Splice();
  if (ctx.stats != nullptr) {
    MergeLaneStats(lane_stats, ctx.stats);
    ctx.stats->columnar = true;
    ctx.stats->rows_in += static_cast<uint64_t>(r.NumRows());
    ctx.stats->rows_out += static_cast<uint64_t>(out.NumRows());
  }
  return out;
}

}  // namespace gsopt::exec::internal
