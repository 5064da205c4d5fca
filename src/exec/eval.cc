#include "exec/eval.h"

#include <algorithm>
#include <optional>
#include <unordered_set>

#include "base/check.h"
#include "exec/bind.h"
#include "exec/join_internal.h"
#include "exec/keys.h"

namespace gsopt::exec {

// Shared join/GS machinery lives in join_internal.h, the join cores in
// hash_join.cc.
using internal::BoundPredicate;
using internal::ForBatches;
using internal::GroupIndex;
using internal::GroupPartAllNull;
using internal::HashJoinCore;
using internal::IndexGroup;
using internal::JoinCoreResult;
using internal::NestedLoopJoinCore;
using internal::RowRef;

HashPlan SplitJoinPredicate(const Predicate& p, const Schema& a,
                            const Schema& b) {
  auto in = [](const Schema& schema, const Scalar& s) {
    return s.Validate(schema).ok();
  };
  HashPlan plan;
  for (const Atom& atom : p.atoms()) {
    if (atom.kind == Atom::Kind::kCompare && atom.op == CmpOp::kEq) {
      bool l_in_a = in(a, *atom.lhs);
      bool r_in_b = in(b, *atom.rhs);
      bool l_in_b = in(b, *atom.lhs);
      bool r_in_a = in(a, *atom.rhs);
      if (l_in_a && r_in_b && !(l_in_b && r_in_a)) {
        plan.a_keys.push_back(atom.lhs);
        plan.b_keys.push_back(atom.rhs);
        continue;
      }
      if (l_in_b && r_in_a) {
        plan.a_keys.push_back(atom.rhs);
        plan.b_keys.push_back(atom.lhs);
        continue;
      }
    }
    plan.residual.push_back(atom);
  }
  return plan;
}

namespace {

StatusOr<JoinCoreResult> JoinCore(const Relation& a, const Relation& b,
                                  const Predicate& p, const ExecContext& ctx) {
  // The hash core for any separable equi-conjunct; nested loops for
  // everything else and for the reference evaluator (BatchMode::kOff).
  HashPlan plan = SplitJoinPredicate(p, a.schema(), b.schema());
  StatusOr<JoinCoreResult> res =
      plan.usable() && !ctx.Reference() ? HashJoinCore(a, b, plan, ctx)
                                        : NestedLoopJoinCore(a, b, p, ctx);
  if (res.ok() && ctx.stats != nullptr) {
    ctx.stats->rows_in += static_cast<uint64_t>(a.NumRows()) +
                          static_cast<uint64_t>(b.NumRows());
  }
  return res;
}

// Stats helpers: no-ops (one pointer test) when collection is disabled.
void RecordIn(const ExecContext& ctx, uint64_t n) {
  if (ctx.stats != nullptr) ctx.stats->rows_in += n;
}
void RecordOut(const ExecContext& ctx, const Relation& out) {
  if (ctx.stats != nullptr) {
    ctx.stats->rows_out += static_cast<uint64_t>(out.NumRows());
  }
}

// Outer-join padding: appends every row of `side` whose matched flag is
// clear, padded with NULLs and null row ids to out's width (side on the
// left when side_is_left).
Status PadUnmatched(const Relation& side, const std::vector<char>& matched,
                    bool side_is_left, const ExecContext& ctx,
                    const char* stage, Relation* out) {
  for (int64_t i = 0; i < side.NumRows(); ++i) {
    if (matched[static_cast<size_t>(i)]) continue;
    out->AddPadded(side.row(i), side_is_left);
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, stage));
  }
  return Status::OK();
}

// Semi / anti join output: the rows of `a` whose matched flag is `keep`.
StatusOr<Relation> KeepRows(const Relation& a,
                            const std::vector<char>& matched, bool keep,
                            const ExecContext& ctx, const char* stage) {
  Relation out(a.schema(), a.vschema());
  for (int64_t i = 0; i < a.NumRows(); ++i) {
    if ((matched[static_cast<size_t>(i)] != 0) != keep) continue;
    out.Add(a.row(i));
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, stage));
  }
  RecordOut(ctx, out);
  return out;
}

// The per-group difference of Definition 2.1: appends to `out` one
// null-padded resurrection tuple per distinct group key of `src` that none
// of out's first `kept` rows (the operator's selected or matched rows)
// carries. `src_gi` locates the group's columns and row ids in src,
// `out_gi` their slots in out, pairwise in schema order. The first src row
// of each missing key is collected before any tuple is appended (the
// surviving keys are read from `out` itself), so each missing key
// resurrects exactly one tuple.
Status Resurrect(const Relation& src, const GroupIndex& src_gi,
                 const GroupIndex& out_gi, int64_t kept, Relation* out,
                 const ExecContext& ctx) {
  std::unordered_set<std::string> surviving;
  for (int64_t i = 0; i < kept; ++i) {
    surviving.insert(
        EncodeTupleKey(out->row(i), out_gi.value_idx, out_gi.vid_idx));
  }
  std::vector<int64_t> missing;
  std::unordered_set<std::string> added;
  std::string key;
  for (int64_t i = 0; i < src.NumRows(); ++i) {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("generalized-selection"));
    const Tuple t = src.row(i);
    if (GroupPartAllNull(t, src_gi)) continue;
    EncodeTupleKeyInto(t, src_gi.value_idx, src_gi.vid_idx, &key);
    if (surviving.count(key) || !added.insert(key).second) continue;
    missing.push_back(i);
  }
  for (int64_t i : missing) {
    const Tuple s = src.row(i);
    const MutableTuple t = out->AddNullRow();
    for (size_t k = 0; k < out_gi.value_idx.size(); ++k) {
      t.values[out_gi.value_idx[k]] = s.values[src_gi.value_idx[k]];
    }
    for (size_t k = 0; k < out_gi.vid_idx.size(); ++k) {
      t.vids[out_gi.vid_idx[k]] = s.vids[src_gi.vid_idx[k]];
    }
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "generalized-selection"));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Relation> Product(const Relation& a, const Relation& b,
                           const ExecContext& ctx) {
  Relation out(Schema::Concat(a.schema(), b.schema()),
               VirtualSchema::Concat(a.vschema(), b.vschema()));
  // The exact cross-product cardinality as int*int is signed-overflow UB
  // past ~46k x 46k, and even a correct full-size reservation would commit
  // the whole product's memory before the row cap or deadline can fire.
  // Compute in 64 bits and clamp: past the cap the vector grows normally.
  constexpr uint64_t kMaxReserve = 1u << 20;
  uint64_t total = static_cast<uint64_t>(a.NumRows()) *
                   static_cast<uint64_t>(b.NumRows());
  out.Reserve(static_cast<int64_t>(std::min(total + 1, kMaxReserve)));
  RecordIn(ctx, static_cast<uint64_t>(a.NumRows()) +
                    static_cast<uint64_t>(b.NumRows()));
  for (const Tuple& ta : a.rows()) {
    for (const Tuple& tb : b.rows()) {
      GSOPT_RETURN_IF_ERROR(ctx.Tick("product"));
      out.AddConcat(ta, tb);
      GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "product"));
    }
  }
  RecordOut(ctx, out);
  return out;
}

StatusOr<Relation> Select(const Relation& r, const Predicate& p,
                          const ExecContext& ctx) {
  Relation out(r.schema(), r.vschema());
  RecordIn(ctx, static_cast<uint64_t>(r.NumRows()));
  if (ctx.Reference()) {
    for (const Tuple& t : r.rows()) {
      GSOPT_RETURN_IF_ERROR(ctx.Tick("select"));
      if (ctx.stats != nullptr) ++ctx.stats->residual_evals;
      if (p.Satisfied(t, r.schema())) {
        out.Add(t);
        GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "select"));
      }
    }
    RecordOut(ctx, out);
    return out;
  }
  // Batches over the bound predicate; the output is exactly the
  // reference's, order included, so the order-aware pass can forward an
  // order through a selection. The output is reserved at the input's size
  // (the tight upper bound), so it never regrows. Untouched reserve slack
  // is virtual address space only, the same worst case as push_back
  // growth.
  const BoundPredicate bound(p, r.schema());
  out.Reserve(r.NumRows());
  OperatorStats st;
  GSOPT_RETURN_IF_ERROR(ForBatches(r.NumRows(), [&](int64_t begin,
                                                    int64_t end) -> Status {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("select"));
    const int64_t before = out.NumRows();
    for (int64_t i = begin; i < end; ++i) {
      const Tuple t = r.row(i);
      if (bound.Test(RowRef(t))) out.Add(t);
    }
    ++st.batches;
    st.residual_evals += static_cast<uint64_t>(end - begin);
    if (out.NumRows() == before) return Status::OK();
    return ctx.ChargeRows(static_cast<uint64_t>(out.NumRows() - before),
                          "select");
  }));
  if (ctx.stats != nullptr) ctx.stats->MergeCountersFrom(st);
  RecordOut(ctx, out);
  return out;
}

StatusOr<Relation> Project(const Relation& r,
                           const std::vector<Attribute>& src,
                           const std::vector<Attribute>& out,
                           const ExecContext& ctx) {
  if (src.size() != out.size()) {
    return Status::InvalidArgument(
        "project: source and output column counts differ");
  }
  Schema schema;
  std::vector<int> src_idx;
  for (size_t i = 0; i < src.size(); ++i) {
    int j = r.schema().Find(src[i].rel, src[i].name);
    if (j < 0) {
      return Status::InvalidArgument("project: missing attribute " +
                                     src[i].Qualified());
    }
    schema.Append(out[i]);
    src_idx.push_back(j);
  }
  // Without a rename, keep the row ids of every base relation that keeps
  // at least one column (provenance is per relation, not per column). A
  // rename drops them all: renamed outputs no longer name base-relation
  // provenance.
  VirtualSchema vschema;
  std::vector<int> vid_idx;
  if (src == out) {
    std::set<std::string> kept_rels;
    for (const Attribute& a : src) kept_rels.insert(a.rel);
    for (int i = 0; i < r.vschema().size(); ++i) {
      if (kept_rels.count(r.vschema().rel(i))) {
        vschema.Append(r.vschema().rel(i));
        vid_idx.push_back(i);
      }
    }
  }
  Relation result(schema, vschema);
  result.Reserve(r.NumRows());
  RecordIn(ctx, r.NumRows());
  for (const Tuple& t : r.rows()) {
    const MutableTuple nt = result.AddNullRow();
    for (size_t k = 0; k < src_idx.size(); ++k) {
      nt.values[k] = t.values[src_idx[k]];
    }
    for (size_t k = 0; k < vid_idx.size(); ++k) nt.vids[k] = t.vids[vid_idx[k]];
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "project"));
  }
  RecordOut(ctx, result);
  return result;
}

bool IsIdentityProjection(const Relation& r,
                          const std::vector<Attribute>& src,
                          const std::vector<Attribute>& out) {
  if (src != out || static_cast<int>(src.size()) != r.schema().size()) {
    return false;
  }
  for (size_t i = 0; i < src.size(); ++i) {
    if (r.schema().Find(src[i].rel, src[i].name) != static_cast<int>(i)) {
      return false;
    }
  }
  for (const std::string& rel : r.vschema().rels()) {
    if (std::none_of(src.begin(), src.end(),
                     [&rel](const Attribute& a) { return a.rel == rel; })) {
      return false;
    }
  }
  return true;
}

StatusOr<Relation> InnerJoin(const Relation& a, const Relation& b,
                             const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  RecordOut(ctx, core.out);
  return std::move(core.out);
}

StatusOr<Relation> LeftOuterJoin(const Relation& a, const Relation& b,
                                 const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  GSOPT_RETURN_IF_ERROR(
      PadUnmatched(a, core.a_matched, true, ctx, "left-outer-join",
                   &core.out));
  RecordOut(ctx, core.out);
  return std::move(core.out);
}

StatusOr<Relation> RightOuterJoin(const Relation& a, const Relation& b,
                                  const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  GSOPT_RETURN_IF_ERROR(
      PadUnmatched(b, core.b_matched, false, ctx, "right-outer-join",
                   &core.out));
  RecordOut(ctx, core.out);
  return std::move(core.out);
}

StatusOr<Relation> FullOuterJoin(const Relation& a, const Relation& b,
                                 const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  GSOPT_RETURN_IF_ERROR(
      PadUnmatched(a, core.a_matched, true, ctx, "full-outer-join",
                   &core.out));
  GSOPT_RETURN_IF_ERROR(
      PadUnmatched(b, core.b_matched, false, ctx, "full-outer-join",
                   &core.out));
  RecordOut(ctx, core.out);
  return std::move(core.out);
}

StatusOr<Relation> AntiJoin(const Relation& a, const Relation& b,
                            const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  return KeepRows(a, core.a_matched, false, ctx, "anti-join");
}

StatusOr<Relation> SemiJoin(const Relation& a, const Relation& b,
                            const Predicate& p, const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  return KeepRows(a, core.a_matched, true, ctx, "semi-join");
}

StatusOr<Relation> OuterUnion(const Relation& a, const Relation& b,
                              const ExecContext& ctx) {
  Schema schema = a.schema();
  std::vector<int> b_value_map(b.schema().size(), -1);
  for (int i = 0; i < b.schema().size(); ++i) {
    const Attribute& attr = b.schema().attr(i);
    int j = schema.Find(attr.rel, attr.name);
    if (j < 0) {
      schema.Append(attr);
      j = schema.size() - 1;
    }
    b_value_map[i] = j;
  }
  VirtualSchema vschema = a.vschema();
  std::vector<int> b_vid_map(b.vschema().size(), -1);
  for (int i = 0; i < b.vschema().size(); ++i) {
    int j = vschema.Find(b.vschema().rel(i));
    if (j < 0) {
      vschema.Append(b.vschema().rel(i));
      j = vschema.size() - 1;
    }
    b_vid_map[i] = j;
  }
  Relation out(schema, vschema);
  out.Reserve(a.NumRows() + b.NumRows());
  RecordIn(ctx, static_cast<uint64_t>(a.NumRows()) +
                    static_cast<uint64_t>(b.NumRows()));
  for (const Tuple& t : a.rows()) {
    out.AddPadded(t, true);
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "outer-union"));
  }
  for (const Tuple& t : b.rows()) {
    const MutableTuple nt = out.AddNullRow();
    for (size_t i = 0; i < t.values.size(); ++i) {
      nt.values[b_value_map[i]] = t.values[i];
    }
    for (size_t i = 0; i < t.vids.size(); ++i) {
      nt.vids[b_vid_map[i]] = t.vids[i];
    }
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "outer-union"));
  }
  RecordOut(ctx, out);
  return out;
}

StatusOr<Relation> GeneralizedSelection(
    const Relation& r, const Predicate& p,
    const std::vector<PreservedGroup>& groups, const ExecContext& ctx) {
  // Definition 2.1 states pairwise-disjoint preserved relations, but the
  // resurrection pass below handles every group independently, so
  // overlapping groups execute fine -- and the Theorem-1 ride-along
  // extension legitimately produces them (a relation joined above an edge
  // by an always-evaluable predicate rides with both sides).

  // The internal selection pass shares the budget and policy but not the
  // stats node: GS accounts for its own input/output exactly once and
  // counts the pass's predicate evaluations itself.
  ExecContext select_ctx = ctx;
  select_ctx.stats = nullptr;
  GSOPT_ASSIGN_OR_RETURN(Relation out, Select(r, p, select_ctx));
  RecordIn(ctx, static_cast<uint64_t>(r.NumRows()));
  if (ctx.stats != nullptr) {
    ctx.stats->residual_evals += static_cast<uint64_t>(r.NumRows());
  }
  const int64_t selected = out.NumRows();
  for (const PreservedGroup& group : groups) {
    GroupIndex gi = IndexGroup(group, r.schema(), r.vschema());
    GSOPT_RETURN_IF_ERROR(Resurrect(r, gi, gi, selected, &out, ctx));
  }
  RecordOut(ctx, out);
  return out;
}

StatusOr<Relation> Mgoj(const Relation& a, const Relation& b,
                        const Predicate& p,
                        const std::vector<PreservedGroup>& groups,
                        const ExecContext& ctx) {
  GSOPT_ASSIGN_OR_RETURN(JoinCoreResult core, JoinCore(a, b, p, ctx));
  Relation out = std::move(core.out);
  const int64_t matched = out.NumRows();
  std::optional<Relation> product;
  for (const PreservedGroup& group : groups) {
    GroupIndex gout = IndexGroup(group, out.schema(), out.vschema());
    GroupIndex ga = IndexGroup(group, a.schema(), a.vschema());
    GroupIndex gb = IndexGroup(group, b.schema(), b.vschema());
    bool in_a = !ga.value_idx.empty() || !ga.vid_idx.empty();
    bool in_b = !gb.value_idx.empty() || !gb.vid_idx.empty();
    if (!in_a && !in_b) continue;
    // A group inside one operand resurrects from that operand: pi_G(a x b)
    // is pi_G of it. Unlike a literal sigma*[G](a x b), this preserves
    // G-tuples even when the other operand is empty (matching
    // left-outer-join semantics). A group split across both operands (only
    // hand-built trees have one) resurrects from the product itself.
    const bool split = in_a && in_b;
    if (split && !product) {
      ExecContext product_ctx = ctx;
      product_ctx.stats = nullptr;
      GSOPT_ASSIGN_OR_RETURN(product, Product(a, b, product_ctx));
    }
    const Relation& src = split ? *product : in_a ? a : b;
    const GroupIndex& src_gi = split ? gout : in_a ? ga : gb;
    GSOPT_RETURN_IF_ERROR(Resurrect(src, src_gi, gout, matched, &out, ctx));
  }
  RecordOut(ctx, out);
  return out;
}

}  // namespace gsopt::exec
