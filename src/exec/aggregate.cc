#include "exec/aggregate.h"

#include <limits>
#include <unordered_map>
#include <unordered_set>
#include <utility>

#include "base/check.h"
#include "exec/bind.h"
#include "exec/join_internal.h"
#include "exec/keys.h"
#include "exec/spill.h"

namespace gsopt::exec {

std::string AggFuncName(AggFunc f) {
  switch (f) {
    case AggFunc::kCountStar:
      return "COUNT(*)";
    case AggFunc::kCount:
      return "COUNT";
    case AggFunc::kSum:
      return "SUM";
    case AggFunc::kMin:
      return "MIN";
    case AggFunc::kMax:
      return "MAX";
    case AggFunc::kAvg:
      return "AVG";
    case AggFunc::kCountPresence:
      return "COUNT_PRESENT";
    case AggFunc::kGroupFlag:
      return "PRESENT";
  }
  return "?";
}

bool IsDuplicateInsensitive(AggFunc f, bool distinct) {
  if (f == AggFunc::kMin || f == AggFunc::kMax) return true;
  if (f == AggFunc::kGroupFlag) return true;
  return distinct;
}

std::string AggSpec::ToString() const {
  std::string s = out_rel + "." + out_name + "=";
  if (func == AggFunc::kCountStar) return s + "COUNT(*)";
  if (func == AggFunc::kCountPresence) {
    return s + "COUNT_PRESENT(" + presence_rel + ")";
  }
  if (func == AggFunc::kGroupFlag) return s + "PRESENT()";
  s += AggFuncName(func) + "(";
  if (distinct) s += "DISTINCT ";
  s += input ? input->ToString() : "*";
  return s + ")";
}

bool GroupBySpec::IsDuplicateInsensitive() const {
  for (const AggSpec& a : aggs) {
    if (!gsopt::exec::IsDuplicateInsensitive(a.func, a.distinct)) return false;
  }
  return true;
}

std::string GroupBySpec::ToString() const {
  std::string s = "GROUPBY[";
  for (size_t i = 0; i < group_cols.size(); ++i) {
    if (i) s += ", ";
    s += group_cols[i].Qualified();
  }
  for (const std::string& r : group_vid_rels) s += ", V(" + r + ")";
  s += "; ";
  for (size_t i = 0; i < aggs.size(); ++i) {
    if (i) s += ", ";
    s += aggs[i].ToString();
  }
  return s + "]";
}

namespace {

struct Accumulator {
  int64_t count = 0;        // non-null inputs (or rows for COUNT(*))
  double sum = 0.0;
  bool sum_all_int = true;
  int64_t isum = 0;
  Value min_v, max_v;       // NULL until first non-null input
  std::unordered_set<std::string> distinct_keys;

  // Returns the bytes newly retained by this feed (a DISTINCT key entering
  // the dedup set), so the caller can charge them against the memory cap.
  uint64_t Feed(const Value& v, const AggSpec& spec) {
    if (spec.func == AggFunc::kCountStar) {
      ++count;
      return 0;
    }
    if (v.is_null()) return 0;
    uint64_t retained = 0;
    if (spec.distinct) {
      std::string key;
      AppendValueKey(v, &key);
      size_t key_size = key.size();
      if (!distinct_keys.insert(std::move(key)).second) return 0;
      retained = key_size + 48;
    }
    ++count;
    switch (spec.func) {
      case AggFunc::kSum:
      case AggFunc::kAvg:
        if (v.type() == ValueType::kInt) {
          isum += v.AsInt();
        } else {
          sum_all_int = false;
        }
        sum += v.AsDouble();
        break;
      case AggFunc::kMin:
        if (min_v.is_null() || Value::IdentityLess(v, min_v)) min_v = v;
        break;
      case AggFunc::kMax:
        if (max_v.is_null() || Value::IdentityLess(max_v, v)) max_v = v;
        break;
      default:
        break;
    }
    return retained;
  }

  Value Result(const AggSpec& spec) const {
    switch (spec.func) {
      case AggFunc::kCountStar:
      case AggFunc::kCount:
      case AggFunc::kCountPresence:
        return Value::Int(count);
      case AggFunc::kGroupFlag:
        return Value::Int(1);
      case AggFunc::kSum:
        if (count == 0) return Value::Null();
        return sum_all_int ? Value::Int(isum) : Value::Double(sum);
      case AggFunc::kAvg:
        if (count == 0) return Value::Null();
        return Value::Double(sum / static_cast<double>(count));
      case AggFunc::kMin:
        return min_v;
      case AggFunc::kMax:
        return max_v;
    }
    return Value::Null();
  }
};

// A group's representative views its first row in the aggregated input,
// which outlives the group map.
struct Group {
  Tuple representative;
  std::vector<Accumulator> accs;
};

struct GroupMap {
  std::unordered_map<std::string, Group> groups;
  std::vector<std::string> order;  // first-seen order, for determinism
};

// Everything GeneralizedProjection resolves once from (r, spec). Spilled
// partitions of r share its schemas, so one resolution serves the
// in-memory path and every out-of-core partition.
struct ResolvedGP {
  const GroupBySpec* spec = nullptr;
  std::vector<int> gcol_idx;
  std::vector<int> gvid_idx;
  std::vector<int> presence_idx;
  Schema out_schema;
  VirtualSchema out_vschema;
  bool synthetic_vid = false;
};

// Feeds row t into g's accumulators; returns bytes newly retained
// (DISTINCT dedup-set growth) for the caller to charge. COUNT(*) and
// PRESENT count every row, COUNT_PRESENT the rows where its relation is
// present; the rest consume their input term, which `input(k, scratch)`
// evaluates over t.
template <typename Input>
uint64_t FeedRow(const ResolvedGP& rs, Tuple t, Group* g,
                 const Input& input) {
  static const Value kOne = Value::Int(1);
  static const Value kNull;
  uint64_t retained = 0;
  Value scratch;
  for (size_t k = 0; k < rs.spec->aggs.size(); ++k) {
    const AggSpec& a = rs.spec->aggs[k];
    const Value* v = &kOne;
    if (a.func == AggFunc::kCountPresence) {
      if (t.vids[rs.presence_idx[k]] == kNullRowId) v = &kNull;
    } else if (a.func != AggFunc::kCountStar &&
               a.func != AggFunc::kGroupFlag) {
      v = &input(k, &scratch);
    }
    retained += g->accs[k].Feed(*v, a);
  }
  return retained;
}

// Bytes charged when a group is created.
uint64_t GroupBytes(const ResolvedGP& rs, const std::string& key, Tuple t) {
  return key.size() + internal::ApproxTupleBytes(t) +
         rs.spec->aggs.size() * sizeof(Accumulator) + 96;
}

// Row-at-a-time grouping with memory-cap accounting: the reference
// evaluator's feed (BatchMode::kOff) and the per-partition feed of the
// out-of-core path. On failure *mem_trip tells the caller whether the
// failure was a memory charge (survivable by spilling) or something else
// (deadline, row cap, injected transient).
Status FeedRows(const Relation& r, const ResolvedGP& rs,
                const ExecContext& ctx, exec::OpMemory* mem, GroupMap* gm,
                bool* mem_trip) {
  const GroupBySpec& spec = *rs.spec;
  for (const Tuple& t : r.rows()) {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("group-by"));
    std::string key = EncodeTupleKey(t, rs.gcol_idx, rs.gvid_idx);
    auto it = gm->groups.find(key);
    if (it == gm->groups.end()) {
      Status cs = mem->Charge(GroupBytes(rs, key, t), "group-by");
      if (!cs.ok()) {
        if (mem_trip != nullptr) *mem_trip = true;
        return cs;
      }
      Group g;
      g.representative = t;
      g.accs.resize(spec.aggs.size());
      it = gm->groups.emplace(key, std::move(g)).first;
      gm->order.push_back(std::move(key));
    }
    uint64_t retained =
        FeedRow(rs, t, &it->second,
                [&](size_t k, Value* scratch) -> const Value& {
                  return *scratch = spec.aggs[k].input->Eval(t, r.schema());
                });
    if (retained > 0) {
      Status cs = mem->Charge(retained, "group-by");
      if (!cs.ok()) {
        if (mem_trip != nullptr) *mem_trip = true;
        return cs;
      }
    }
  }
  return Status::OK();
}

// Emits one output row per group in first-seen order. `ordinal` threads
// the synthetic group row id across calls, so spilled partitions emit
// globally unique ids exactly like a single in-memory map would.
Status EmitGroups(const ResolvedGP& rs, const GroupMap& gm,
                  const ExecContext& ctx, RowId* ordinal, Relation* out) {
  const GroupBySpec& spec = *rs.spec;
  for (const std::string& key : gm.order) {
    const Group& g = gm.groups.at(key);
    const MutableTuple t = out->AddNullRow();
    size_t c = 0;
    for (int i : rs.gcol_idx) t.values[c++] = g.representative.values[i];
    for (size_t k = 0; k < spec.aggs.size(); ++k) {
      t.values[c++] = g.accs[k].Result(spec.aggs[k]);
    }
    c = 0;
    for (int i : rs.gvid_idx) t.vids[c++] = g.representative.vids[i];
    if (rs.synthetic_vid) t.vids[c] = (*ordinal)++;
    GSOPT_RETURN_IF_ERROR(ctx.ChargeRows(1, "group-by"));
  }
  return Status::OK();
}

// The hash grouping feed: kBatchRows batches with one budget tick and one
// stats update per batch. Each row's group key is encoded straight from
// the row (EncodeTupleKeyInto, as FeedRows does); aggregate inputs are
// read per row through their bound terms (exec/bind.h). Groups are
// discovered in row order, so representatives, emit order and synthetic
// ordinals match the reference feed. Group state is charged to *mem, which
// the caller keeps alive until the groups are emitted.
Status HashFeed(const Relation& r, const ResolvedGP& rs,
                const ExecContext& ctx, OpMemory* mem, GroupMap* gm,
                bool* mem_trip) {
  const GroupBySpec& spec = *rs.spec;
  // Aggregate input terms, bound once (exec/bind.h); unused slots stay
  // the constant NULL.
  std::vector<internal::BoundScalar> inputs(spec.aggs.size());
  for (size_t k = 0; k < spec.aggs.size(); ++k) {
    if (spec.aggs[k].input != nullptr) {
      inputs[k] = internal::BoundScalar(*spec.aggs[k].input, r.schema());
    }
  }
  auto charge = [&](uint64_t bytes) {
    Status s = mem->Charge(bytes, "group-by");
    if (!s.ok()) *mem_trip = true;
    return s;
  };
  OperatorStats st;
  std::string key;
  GSOPT_RETURN_IF_ERROR(internal::ForBatches(
      r.NumRows(), [&](int64_t begin, int64_t end) -> Status {
        GSOPT_RETURN_IF_ERROR(ctx.Tick("group-by"));
        ++st.batches;
        for (int64_t i = begin; i < end; ++i) {
          const Tuple t = r.row(i);
          EncodeTupleKeyInto(t, rs.gcol_idx, rs.gvid_idx, &key);
          auto it = gm->groups.find(key);
          if (it == gm->groups.end()) {
            GSOPT_RETURN_IF_ERROR(charge(GroupBytes(rs, key, t)));
            Group g;
            g.representative = t;
            g.accs.resize(spec.aggs.size());
            it = gm->groups.emplace(key, std::move(g)).first;
            gm->order.push_back(key);
          }
          const internal::RowRef row(t);
          uint64_t retained =
              FeedRow(rs, t, &it->second,
                      [&](size_t k, Value* scratch) -> const Value& {
                        return inputs[k].Ref(row, scratch);
                      });
          if (retained > 0) GSOPT_RETURN_IF_ERROR(charge(retained));
        }
        return Status::OK();
      }));
  if (ctx.stats != nullptr) ctx.stats->MergeCountersFrom(st);
  return Status::OK();
}

// Out-of-core aggregation: partition input rows by group-key hash into
// spilled runs (each group lands wholly in one partition, so partition
// group maps are disjoint), aggregate each partition in memory, recurse on
// partitions whose maps still overflow. A partition irreducible at
// kSpillMaxDepth (a single group with an over-budget DISTINCT dedup set)
// keeps the memory-cap error: unlike the join there is no chunked
// fallback that preserves DISTINCT semantics with O(1) state.
Status SpillAggPartition(const Relation& r, const ResolvedGP& rs,
                         const ExecContext& ctx, int depth, RowId* ordinal,
                         Relation* out) {
  OperatorStats* st = ctx.stats;
  std::vector<internal::SpillRun> runs;
  GSOPT_RETURN_IF_ERROR(internal::CreatePartitionRuns(ctx, {&runs}));
  auto key_of = [&](int64_t i, std::string* key) -> StatusOr<bool> {
    GSOPT_RETURN_IF_ERROR(ctx.Tick("group-by-spill"));
    EncodeTupleKeyInto(r.row(i), rs.gcol_idx, rs.gvid_idx, key);
    return true;
  };
  GSOPT_RETURN_IF_ERROR(
      internal::PartitionRows(r, nullptr, depth, key_of, &runs));
  for (internal::SpillRun& run : runs) {
    if (run.size() == 0) continue;
    if (st != nullptr) ++st->spill_partitions;
    Relation part(r.schema(), r.vschema());
    GSOPT_RETURN_IF_ERROR(run.Load(&part, nullptr));
    run.Discard();

    GroupMap gm;
    exec::OpMemory mem(ctx);
    bool trip = false;
    Status s = FeedRows(part, rs, ctx, &mem, &gm, &trip);
    if (s.ok()) {
      GSOPT_RETURN_IF_ERROR(EmitGroups(rs, gm, ctx, ordinal, out));
      continue;
    }
    if (!trip || depth >= internal::kSpillMaxDepth) return s;
    mem.Release();
    gm = GroupMap();
    if (st != nullptr) ++st->spill_recursions;
    GSOPT_RETURN_IF_ERROR(
        SpillAggPartition(part, rs, ctx, depth + 1, ordinal, out));
  }
  return Status::OK();
}

}  // namespace

StatusOr<Relation> GeneralizedProjection(const Relation& r,
                                         const GroupBySpec& spec,
                                         const ExecContext& ctx) {
  // Resolve group columns and grouping virtual attributes. A spec naming
  // attributes the input does not carry is reachable from hand-built plans
  // and malformed SQL, so it is an input error, not an invariant.
  std::vector<int> gcol_idx;
  for (const Attribute& a : spec.group_cols) {
    int i = r.schema().Find(a.rel, a.name);
    if (i < 0) {
      return Status::InvalidArgument("group-by: missing attribute " +
                                     a.Qualified());
    }
    gcol_idx.push_back(i);
  }
  std::vector<int> gvid_idx;
  for (const std::string& rel : spec.group_vid_rels) {
    int i = r.vschema().Find(rel);
    if (i < 0) {
      return Status::InvalidArgument("group-by: no virtual attribute for " +
                                     rel);
    }
    gvid_idx.push_back(i);
  }
  // Validate COUNT_PRESENT targets up front, before the grouping loop.
  for (const AggSpec& a : spec.aggs) {
    if (a.func == AggFunc::kCountPresence &&
        r.vschema().Find(a.presence_rel) < 0) {
      return Status::InvalidArgument("COUNT_PRESENT: unknown relation " +
                                     a.presence_rel);
    }
  }

  Schema out_schema;
  for (const Attribute& a : spec.group_cols) out_schema.Append(a);
  for (const AggSpec& a : spec.aggs) {
    out_schema.Append(Attribute{a.out_rel, a.out_name});
  }
  VirtualSchema out_vschema(spec.group_vid_rels);
  // Synthetic virtual attribute (one row id per group) under the first
  // aggregate's qualifier: generalized selections above can then tell a
  // REAL group row that happens to be all-NULL on its values apart from
  // outer-join padding (padding has a null row id).
  bool synthetic_vid = false;
  if (spec.synthetic_vid && !spec.aggs.empty() &&
      out_vschema.Find(spec.aggs[0].out_rel) < 0) {
    out_vschema.Append(spec.aggs[0].out_rel);
    synthetic_vid = true;
  }

  ResolvedGP rs;
  rs.spec = &spec;
  rs.gcol_idx = std::move(gcol_idx);
  rs.gvid_idx = std::move(gvid_idx);
  rs.out_schema = out_schema;
  rs.out_vschema = out_vschema;
  rs.synthetic_vid = synthetic_vid;
  // Resolve COUNT_PRESENT vid indices once (validated above).
  rs.presence_idx.assign(spec.aggs.size(), -1);
  for (size_t k = 0; k < spec.aggs.size(); ++k) {
    if (spec.aggs[k].func == AggFunc::kCountPresence) {
      rs.presence_idx[k] = r.vschema().Find(spec.aggs[k].presence_rel);
    }
  }
  if (ctx.stats != nullptr) {
    ctx.stats->rows_in += static_cast<uint64_t>(r.NumRows());
  }

  Relation out(out_schema, out_vschema);
  RowId ordinal = 0;

  auto spill_all = [&]() -> Status {
    if (ctx.stats != nullptr) ctx.stats->spilled = true;
    return SpillAggPartition(r, rs, ctx, 0, &ordinal, &out);
  };

  // Hash grouping: the reference evaluator's row feed under kOff, the
  // batch hash feed otherwise. Both discover groups in row order, so
  // representatives, emit order and synthetic ordinals agree. A memory
  // trip degrades to the same out-of-core path either way (spill_all
  // re-aggregates from scratch).
  GroupMap gm;
  OpMemory mem(ctx);
  bool trip = false;
  Status s = ctx.Reference() ? FeedRows(r, rs, ctx, &mem, &gm, &trip)
                             : HashFeed(r, rs, ctx, &mem, &gm, &trip);
  if (s.ok()) {
    GSOPT_RETURN_IF_ERROR(EmitGroups(rs, gm, ctx, &ordinal, &out));
  } else if (trip && ctx.spill != nullptr) {
    mem.Release();
    gm = GroupMap();
    GSOPT_RETURN_IF_ERROR(spill_all());
  } else {
    return s;
  }

  if (ctx.stats != nullptr) {
    ctx.stats->rows_out += static_cast<uint64_t>(out.NumRows());
  }
  return out;
}

}  // namespace gsopt::exec
