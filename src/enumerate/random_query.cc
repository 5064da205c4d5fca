#include "enumerate/random_query.h"

#include <string>
#include <utility>
#include <vector>

#include "base/check.h"

namespace gsopt {

namespace {

std::string ColName(int c) { return std::string(1, static_cast<char>('a' + c)); }

CmpOp RandomCmpOp(Rng* rng) {
  // Equality-heavy so hash paths and meaningful match rates dominate.
  CmpOp ops[] = {CmpOp::kEq, CmpOp::kEq, CmpOp::kEq, CmpOp::kLe, CmpOp::kNe};
  return ops[rng->Uniform(0, 4)];
}

struct Builder {
  const RandomQueryOptions& opt;
  Rng* rng;
  RandomQueryFeatures* features;  // may be null

  std::string RandomRel(const std::vector<int>& rels) const {
    int i = static_cast<int>(rng->Uniform(0, rels.size() - 1));
    return "r" + std::to_string(rels[i]);
  }

  std::string RandomCol() const {
    return ColName(static_cast<int>(rng->Uniform(0, opt.num_cols - 1)));
  }

  Atom RandomAtom(const std::vector<int>& left,
                  const std::vector<int>& right) const {
    return MakeAtom(RandomRel(left), RandomCol(), RandomCmpOp(rng),
                    RandomRel(right), RandomCol());
  }

  Predicate RandomPredicate(const std::vector<int>& left,
                            const std::vector<int>& right) const {
    Atom first = RandomAtom(left, right);
    Predicate pred(first);
    if (rng->Bernoulli(opt.extra_atom_prob)) {
      if (rng->Bernoulli(opt.dup_pair_prob)) {
        // Reuse the first atom's column pair with a fresh comparison; the
        // same operator may be drawn again, yielding an exact `p AND p`
        // duplicate conjunct.
        Atom dup = first;
        dup.op = RandomCmpOp(rng);
        pred.AddAtom(std::move(dup));
        if (features != nullptr) features->has_dup_pair = true;
      } else {
        pred.AddAtom(RandomAtom(left, right));
      }
    }
    if (features != nullptr && pred.IsComplex()) {
      features->has_complex_pred = true;
    }
    return pred;
  }

  NodePtr Build(std::vector<int> rels) const {
    if (rels.size() == 1) {
      return Node::Leaf("r" + std::to_string(rels[0]));
    }
    // Random split.
    size_t k = 1 + static_cast<size_t>(rng->Uniform(0, rels.size() - 2));
    // Shuffle.
    for (size_t i = rels.size(); i > 1; --i) {
      size_t j = static_cast<size_t>(rng->Uniform(0, i - 1));
      std::swap(rels[i - 1], rels[j]);
    }
    std::vector<int> left(rels.begin(), rels.begin() + static_cast<long>(k));
    std::vector<int> right(rels.begin() + static_cast<long>(k), rels.end());
    NodePtr l = Build(left);
    NodePtr r = Build(right);

    Predicate pred = RandomPredicate(left, right);

    double roll = rng->NextDouble();
    if (roll < opt.foj_prob) {
      if (features != nullptr) features->has_outer_join = true;
      return Node::FullOuterJoin(l, r, pred);
    }
    if (roll < opt.foj_prob + opt.loj_prob) {
      if (features != nullptr) features->has_outer_join = true;
      // Randomly orient as LOJ or ROJ.
      if (rng->Bernoulli(0.5)) return Node::LeftOuterJoin(l, r, pred);
      return Node::RightOuterJoin(l, r, pred);
    }
    return Node::Join(l, r, pred);
  }
};

// One column the text of a predicate may reference, with the scalar term
// that reaches it in the algebra (group columns keep their base-relation
// qualifiers through a GROUP BY; aggregate outputs are view-qualified).
struct VisibleCol {
  Attribute attr;
  bool is_agg = false;
};

// With probability options.order_by_prob, wraps `root` in a root ORDER BY
// over one or two distinct columns drawn from `candidates`, each with an
// independently drawn direction. The enforcer goes at the very top so the
// generated tree matches the binder's shape for an outermost ORDER BY.
NodePtr MaybeOrderBy(NodePtr root, const std::vector<Attribute>& candidates,
                     const RandomQueryOptions& options, Rng* rng,
                     RandomQueryFeatures* features) {
  if (candidates.empty() || !rng->Bernoulli(options.order_by_prob)) {
    return root;
  }
  exec::SortSpec spec;
  const size_t want = rng->Bernoulli(0.35) ? 2 : 1;
  for (size_t k = 0; k < want; ++k) {
    exec::SortKey key;
    key.attr = candidates[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(candidates.size()) - 1))];
    key.desc = rng->Bernoulli(0.4);
    bool dup = false;
    for (const exec::SortKey& prev : spec) {
      if (prev.attr == key.attr) dup = true;
    }
    if (dup) continue;  // a repeated key adds nothing to the order
    if (features != nullptr && key.desc) features->has_desc_key = true;
    spec.push_back(std::move(key));
  }
  if (features != nullptr) features->has_order_by = true;
  return Node::Sort(std::move(root), std::move(spec));
}

// With probability options.where_prob, wraps `root` in a WHERE selection
// of one or two conjuncts over `candidates`: column vs constant (drawn
// from the fuzz data domain), IS [NOT] NULL, or column vs a column of
// another relation. The selection goes directly above the join tree, which
// is the binder's shape for a WHERE clause over a JOIN chain.
NodePtr MaybeWhere(NodePtr root, const std::vector<Attribute>& candidates,
                   const RandomQueryOptions& options, Rng* rng,
                   RandomQueryFeatures* features) {
  if (options.where_prob <= 0.0 || candidates.empty() ||
      !rng->Bernoulli(options.where_prob)) {
    return root;
  }
  auto pick = [&](const std::vector<Attribute>& from) -> const Attribute& {
    return from[static_cast<size_t>(
        rng->Uniform(0, static_cast<int64_t>(from.size()) - 1))];
  };
  Predicate pred;
  const int want = rng->Bernoulli(0.4) ? 2 : 1;
  for (int k = 0; k < want; ++k) {
    const Attribute& col = pick(candidates);
    double kind = rng->NextDouble();
    if (kind < 0.25) {
      pred.AddAtom(MakeIsNullAtom(col.rel, col.name, rng->Bernoulli(0.5)));
      continue;
    }
    if (kind < 0.5) {
      std::vector<Attribute> others;
      for (const Attribute& a : candidates) {
        if (a.rel != col.rel) others.push_back(a);
      }
      if (!others.empty()) {
        const Attribute& other = pick(others);
        pred.AddAtom(MakeAtom(col.rel, col.name, RandomCmpOp(rng), other.rel,
                              other.name));
        continue;
      }
    }
    CmpOp ops[] = {CmpOp::kEq, CmpOp::kLe, CmpOp::kLt, CmpOp::kGe, CmpOp::kNe};
    CmpOp op = ops[rng->Uniform(0, 4)];
    pred.AddAtom(
        MakeConstAtom(col.rel, col.name, op, Value::Int(rng->Uniform(0, 5))));
  }
  if (features != nullptr) features->has_where = true;
  return Node::Select(std::move(root), std::move(pred));
}

}  // namespace

NodePtr MakeRandomQuery(const RandomQueryOptions& options, Rng* rng,
                        RandomQueryFeatures* features) {
  GSOPT_CHECK(options.num_rels >= 1);
  if (features != nullptr) {
    *features = RandomQueryFeatures{};
    features->num_rels = options.num_rels;
  }
  std::vector<int> rels;
  for (int i = 1; i <= options.num_rels; ++i) rels.push_back(i);
  Builder b{options, rng, features};
  NodePtr root = b.Build(std::move(rels));
  std::vector<Attribute> candidates;
  for (int i = 1; i <= options.num_rels; ++i) {
    for (int c = 0; c < options.num_cols; ++c) {
      candidates.push_back(Attribute{"r" + std::to_string(i), ColName(c)});
    }
  }
  root = MaybeWhere(std::move(root), candidates, options, rng, features);
  return MaybeOrderBy(std::move(root), candidates, options, rng, features);
}

NodePtr MakeGeneralRandomQuery(const RandomQueryOptions& options, Rng* rng,
                               RandomQueryFeatures* features) {
  GSOPT_CHECK(options.num_rels >= 1);
  RandomQueryFeatures local;
  if (features == nullptr) features = &local;
  if (options.num_rels < 2 || !rng->Bernoulli(options.view_prob)) {
    return MakeRandomQuery(options, rng, features);
  }
  *features = RandomQueryFeatures{};
  features->num_rels = options.num_rels;
  features->has_view = true;

  // The view aggregates a join/outer-join tree over r1..r<view_rels>; at
  // least one relation stays outside so aggregated-column predicates are
  // possible. FOJ is kept out of the view body (mirroring the existing
  // full-pipeline property suite) so the aggregation stays pullable.
  int view_rels = static_cast<int>(rng->Uniform(1, options.num_rels - 1));
  RandomQueryOptions view_opt = options;
  view_opt.num_rels = view_rels;
  view_opt.foj_prob = 0.0;
  Builder vb{view_opt, rng, features};
  std::vector<int> vrels;
  for (int i = 1; i <= view_rels; ++i) vrels.push_back(i);
  NodePtr view_base = vb.Build(std::move(vrels));

  exec::GroupBySpec spec;
  spec.group_cols.push_back(Attribute{"r1", "b"});
  if (view_rels >= 2 && rng->Bernoulli(0.5)) {
    spec.group_cols.push_back(Attribute{"r2", "b"});
  }
  exec::AggSpec agg;
  exec::AggFunc funcs[] = {exec::AggFunc::kCountStar, exec::AggFunc::kCount,
                           exec::AggFunc::kSum,       exec::AggFunc::kMin,
                           exec::AggFunc::kMax,       exec::AggFunc::kAvg};
  agg.func = funcs[rng->Uniform(0, 5)];
  if (agg.func != exec::AggFunc::kCountStar) {
    agg.input = Scalar::Column(
        "r" + std::to_string(rng->Uniform(1, view_rels)),
        ColName(static_cast<int>(rng->Uniform(0, options.num_cols - 1))));
    if (rng->Bernoulli(options.distinct_prob)) {
      agg.distinct = true;
      features->has_distinct = true;
    }
  }
  agg.out_rel = "v";
  agg.out_name = "agg";
  spec.aggs.push_back(agg);

  NodePtr acc = Node::GroupBy(view_base, spec);
  std::vector<VisibleCol> visible;
  for (const Attribute& g : spec.group_cols) {
    visible.push_back(VisibleCol{g, false});
  }
  const size_t agg_index = visible.size();
  visible.push_back(VisibleCol{Attribute{"v", "agg"}, true});

  Builder ob{options, rng, features};

  // One side of an attach predicate: a column of the accumulated tree,
  // which is the aggregate output with probability agg_pred_prob.
  auto acc_scalar = [&]() -> ScalarPtr {
    size_t pick =
        rng->Bernoulli(options.agg_pred_prob)
            ? agg_index
            : static_cast<size_t>(rng->Uniform(
                  0, static_cast<int64_t>(visible.size()) - 1));
    const VisibleCol& vc = visible[pick];
    ScalarPtr s = Scalar::Column(vc.attr.rel, vc.attr.name);
    if (vc.is_agg) {
      features->has_agg_pred = true;
      if (rng->Bernoulli(options.agg_arith_prob)) {
        s = Scalar::Arith(ArithOp::kMul,
                          Scalar::Const(Value::Int(rng->Uniform(2, 3))), s);
      }
    }
    return s;
  };

  auto attach_atom = [&](const std::string& rel) {
    Atom a;
    a.lhs = Scalar::Column(rel, ob.RandomCol());
    a.op = RandomCmpOp(rng);
    a.rhs = acc_scalar();
    return a;
  };

  for (int i = view_rels + 1; i <= options.num_rels; ++i) {
    std::string rel = "r" + std::to_string(i);
    Atom first = attach_atom(rel);
    Predicate pred(first);
    if (rng->Bernoulli(options.extra_atom_prob)) {
      if (rng->Bernoulli(options.dup_pair_prob)) {
        Atom dup = first;
        dup.op = RandomCmpOp(rng);
        pred.AddAtom(std::move(dup));
        features->has_dup_pair = true;
      } else {
        pred.AddAtom(attach_atom(rel));
      }
    }
    if (pred.IsComplex()) features->has_complex_pred = true;

    NodePtr leaf = Node::Leaf(rel);
    double roll = rng->NextDouble();
    if (roll < options.foj_prob) {
      features->has_outer_join = true;
      acc = Node::FullOuterJoin(acc, leaf, pred);
    } else if (roll < options.foj_prob + options.loj_prob) {
      features->has_outer_join = true;
      if (rng->Bernoulli(0.5)) {
        acc = Node::LeftOuterJoin(acc, leaf, pred);
      } else {
        acc = Node::RightOuterJoin(leaf, acc, pred);
      }
    } else {
      acc = Node::Join(acc, leaf, pred);
    }
    for (int c = 0; c < options.num_cols; ++c) {
      visible.push_back(VisibleCol{Attribute{rel, ColName(c)}, false});
    }
  }
  std::vector<Attribute> candidates;
  for (const VisibleCol& vc : visible) candidates.push_back(vc.attr);
  acc = MaybeWhere(std::move(acc), candidates, options, rng, features);
  return MaybeOrderBy(std::move(acc), candidates, options, rng, features);
}

}  // namespace gsopt
