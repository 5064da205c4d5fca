#include "testing/minimize.h"

#include <algorithm>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

namespace gsopt::testing {

namespace {

// Drops every atom whose relations are not fully contained in `vis`.
Predicate FilterPredicate(const Predicate& p, const std::set<std::string>& vis) {
  Predicate out;
  for (const Atom& a : p.atoms()) {
    bool ok = true;
    for (const std::string& rel : a.RelNames()) {
      if (vis.count(rel) == 0) ok = false;
    }
    if (ok) out.AddAtom(a);
  }
  return out;
}

// Drops every relation of each group that is not in `vis`, and every group
// left empty.
std::vector<exec::PreservedGroup> FilterGroups(
    const std::vector<exec::PreservedGroup>& groups,
    const std::set<std::string>& vis) {
  std::vector<exec::PreservedGroup> out;
  for (const exec::PreservedGroup& g : groups) {
    exec::PreservedGroup kept;
    for (const std::string& rel : g) {
      if (vis.count(rel)) kept.insert(rel);
    }
    if (!kept.empty()) out.push_back(std::move(kept));
  }
  return out;
}

// Rebuilds `n` keeping only base relations in `keep`. Predicates, GROUP BY
// specs, preserved groups and projections are filtered down to columns that
// remain visible; operators left with nothing to do dissolve into their
// child. `vis` reports the relation qualifiers (including view aliases)
// visible above the returned node. Returns null when nothing survives.
NodePtr PruneToRels(const NodePtr& n, const std::set<std::string>& keep,
                    std::set<std::string>* vis) {
  switch (n->kind()) {
    case OpKind::kLeaf:
      if (keep.count(n->table()) == 0) return nullptr;
      vis->insert(n->table());
      return n;
    case OpKind::kSelect:
    case OpKind::kGeneralizedSelection: {
      NodePtr child = PruneToRels(n->left(), keep, vis);
      if (child == nullptr) return nullptr;
      Predicate p = FilterPredicate(n->pred(), *vis);
      if (p.IsTrue()) return child;
      if (n->kind() == OpKind::kSelect) {
        return Node::WithPred(Node::WithChildren(n, child, nullptr), p);
      }
      return Node::GeneralizedSelection(child, p,
                                        FilterGroups(n->groups(), *vis));
    }
    case OpKind::kProject: {
      NodePtr child = PruneToRels(n->left(), keep, vis);
      if (child == nullptr) return nullptr;
      std::vector<Attribute> src, dst;
      const std::vector<Attribute>& s = n->projection();
      const std::vector<Attribute>& d = n->projection_out();
      for (size_t i = 0; i < s.size(); ++i) {
        if (vis->count(s[i].rel)) {
          src.push_back(s[i]);
          dst.push_back(d[i]);
        }
      }
      if (src.empty()) return child;
      std::set<std::string> out_vis;
      for (const Attribute& a : dst) out_vis.insert(a.rel);
      *vis = std::move(out_vis);
      return Node::ProjectAs(child, std::move(src), std::move(dst));
    }
    case OpKind::kSort: {
      NodePtr child = PruneToRels(n->left(), keep, vis);
      if (child == nullptr) return nullptr;
      exec::SortSpec spec;
      for (const exec::SortKey& k : n->sort_spec()) {
        if (vis->count(k.attr.rel)) spec.push_back(k);
      }
      if (spec.empty()) return child;
      return Node::Sort(child, std::move(spec));
    }
    case OpKind::kGroupBy: {
      NodePtr child = PruneToRels(n->left(), keep, vis);
      if (child == nullptr) return nullptr;
      exec::GroupBySpec spec;
      spec.synthetic_vid = n->groupby().synthetic_vid;
      for (const Attribute& g : n->groupby().group_cols) {
        if (vis->count(g.rel)) spec.group_cols.push_back(g);
      }
      for (const std::string& rel : n->groupby().group_vid_rels) {
        if (vis->count(rel)) spec.group_vid_rels.push_back(rel);
      }
      for (const exec::AggSpec& agg : n->groupby().aggs) {
        bool ok = true;
        if (agg.input != nullptr) {
          std::vector<Attribute> cols;
          agg.input->CollectColumns(&cols);
          for (const Attribute& c : cols) {
            if (vis->count(c.rel) == 0) ok = false;
          }
        }
        if (agg.func == exec::AggFunc::kCountPresence &&
            vis->count(agg.presence_rel) == 0) {
          ok = false;
        }
        if (ok) spec.aggs.push_back(agg);
      }
      if (spec.group_cols.empty() && spec.aggs.empty()) return child;
      for (const exec::AggSpec& agg : spec.aggs) vis->insert(agg.out_rel);
      return Node::GroupBy(child, spec);
    }
    default: {  // binary operators
      std::set<std::string> lvis, rvis;
      NodePtr l = PruneToRels(n->left(), keep, &lvis);
      NodePtr r = PruneToRels(n->right(), keep, &rvis);
      if (l == nullptr && r == nullptr) return nullptr;
      if (l == nullptr || r == nullptr) {
        const NodePtr& survivor = l == nullptr ? r : l;
        vis->insert(l == nullptr ? rvis.begin() : lvis.begin(),
                    l == nullptr ? rvis.end() : lvis.end());
        return survivor;
      }
      vis->insert(lvis.begin(), lvis.end());
      vis->insert(rvis.begin(), rvis.end());
      Predicate p = FilterPredicate(n->pred(), *vis);
      if (n->kind() == OpKind::kMgoj) {
        return Node::Mgoj(l, r, p, FilterGroups(n->groups(), *vis));
      }
      return Node::WithPred(Node::WithChildren(n, l, r), p);
    }
  }
}

// Operators that carry a predicate: selections, GS and every binary one.
bool HasPredicate(OpKind k) {
  return k != OpKind::kLeaf && k != OpKind::kProject &&
         k != OpKind::kGroupBy && k != OpKind::kSort;
}

// Applies `edit` to the predicate of the `target`-th predicate-bearing
// node in preorder; every other node is kept.
NodePtr EditPredicateAt(const NodePtr& n, int target, int* counter,
                        const std::function<Predicate(const Predicate&)>& edit) {
  bool here = HasPredicate(n->kind()) && (*counter)++ == target;
  NodePtr l = n->left() ? EditPredicateAt(n->left(), target, counter, edit)
                        : nullptr;
  NodePtr r = n->right() ? EditPredicateAt(n->right(), target, counter, edit)
                         : nullptr;
  NodePtr out = Node::WithChildren(n, l, r);
  return here ? Node::WithPred(out, edit(n->pred())) : out;
}

int CountPredicateNodes(const NodePtr& n) {
  if (n == nullptr) return 0;
  return (HasPredicate(n->kind()) ? 1 : 0) + CountPredicateNodes(n->left()) +
         CountPredicateNodes(n->right());
}

Predicate PredicateOfNode(const NodePtr& n, int target) {
  Predicate result;
  int counter = 0;
  EditPredicateAt(n, target, &counter, [&](const Predicate& p) {
    result = p;
    return p;
  });
  return result;
}

// Rebuilds the catalog with only the tables in `keep` (copies; base-table
// row ids survive).
Catalog CatalogForRels(const Catalog& catalog, const std::set<std::string>& keep) {
  Catalog out;
  for (const std::string& name : catalog.TableNames()) {
    if (keep.count(name) == 0) continue;
    const Relation* rel = catalog.Find(name);
    GSOPT_CHECK(rel != nullptr);
    GSOPT_CHECK(out.Register(name, *rel).ok());
  }
  return out;
}

// The catalog with `table` replaced by the subset of its rows for which
// keep_row is true.
Catalog CatalogWithRows(const Catalog& catalog, const std::string& table,
                        const std::vector<bool>& keep_row) {
  Catalog out;
  for (const std::string& name : catalog.TableNames()) {
    const Relation* rel = catalog.Find(name);
    GSOPT_CHECK(rel != nullptr);
    if (name != table) {
      GSOPT_CHECK(out.Register(name, *rel).ok());
      continue;
    }
    Relation reduced(rel->schema(), rel->vschema());
    for (int64_t i = 0; i < rel->NumRows(); ++i) {
      if (keep_row[static_cast<size_t>(i)]) reduced.Add(rel->row(i));
    }
    GSOPT_CHECK(out.Register(name, std::move(reduced)).ok());
  }
  return out;
}

class Minimizer {
 public:
  Minimizer(const OracleFailure& original, const MinimizeOptions& options)
      : original_(original) {
    // Probe with only the failing oracle enabled: reductions must keep the
    // same class of failure alive, and probing is much cheaper.
    probe_opt_ = options.oracle;
    probe_opt_.run_plan_space = original.kind == OracleKind::kPlanSpace;
    probe_opt_.run_degradation = original.kind == OracleKind::kDegradation;
    probe_opt_.run_tlp = original.kind == OracleKind::kTlp;
    probe_opt_.run_round_trip = original.kind == OracleKind::kRoundTrip;
  }

  // Does the same oracle kind still fail on this candidate? The TLP oracle
  // draws a random column, so it gets several probe seeds; the others are
  // RNG-independent.
  bool Probe(const NodePtr& query, const Catalog& catalog,
             OracleFailure* failure) {
    int attempts = original_.kind == OracleKind::kTlp ? 4 : 1;
    for (int i = 0; i < attempts; ++i) {
      Rng rng(0x5eed0000 + static_cast<uint64_t>(i));
      auto outcome = CheckQuery(query, catalog, probe_opt_, &rng);
      if (!outcome.ok()) continue;  // broken candidate: not a reproducer
      if (outcome->failed && outcome->failure.kind == original_.kind) {
        if (failure != nullptr) *failure = outcome->failure;
        return true;
      }
    }
    return false;
  }

 private:
  OracleFailure original_;
  OracleOptions probe_opt_;
};

}  // namespace

StatusOr<MinimizedCase> Minimize(const NodePtr& query, const Catalog& catalog,
                                 const OracleFailure& original,
                                 const MinimizeOptions& options) {
  if (query == nullptr) return Status::InvalidArgument("null query");
  Minimizer minimizer(original, options);

  MinimizedCase best;
  best.query = query;
  best.catalog = CatalogForRels(catalog, query->BaseRels());
  best.failure = original;
  if (!minimizer.Probe(best.query, best.catalog, &best.failure)) {
    return best;  // reproduced=false: hand back the original unreduced
  }
  best.reproduced = true;

  for (int round = 0; round < options.max_rounds; ++round) {
    int before = best.reductions;

    // 1. Drop one base relation at a time.
    bool shrunk = true;
    while (shrunk) {
      shrunk = false;
      std::set<std::string> rels = best.query->BaseRels();
      if (rels.size() <= 1) break;
      for (const std::string& victim : rels) {
        std::set<std::string> keep = rels;
        keep.erase(victim);
        std::set<std::string> vis;
        NodePtr candidate = PruneToRels(best.query, keep, &vis);
        if (candidate == nullptr) continue;
        Catalog reduced = CatalogForRels(best.catalog, candidate->BaseRels());
        OracleFailure failure;
        if (minimizer.Probe(candidate, reduced, &failure)) {
          best.query = candidate;
          best.catalog = std::move(reduced);
          best.failure = failure;
          ++best.reductions;
          shrunk = true;
          break;
        }
      }
    }

    // 2. Strip root wrappers (projection / selection / sort / group-by).
    while (best.query->kind() == OpKind::kProject ||
           best.query->kind() == OpKind::kSelect ||
           best.query->kind() == OpKind::kSort ||
           best.query->kind() == OpKind::kGroupBy ||
           best.query->kind() == OpKind::kGeneralizedSelection) {
      NodePtr candidate = best.query->left();
      OracleFailure failure;
      if (!minimizer.Probe(candidate, best.catalog, &failure)) break;
      best.query = candidate;
      best.failure = failure;
      ++best.reductions;
    }

    // 3. Drop predicate conjuncts one at a time.
    shrunk = true;
    while (shrunk) {
      shrunk = false;
      int num_nodes = CountPredicateNodes(best.query);
      for (int node = 0; node < num_nodes && !shrunk; ++node) {
        int atoms = PredicateOfNode(best.query, node).NumAtoms();
        for (int drop = 0; drop < atoms; ++drop) {
          int counter = 0;
          NodePtr candidate =
              EditPredicateAt(best.query, node, &counter,
                              [drop](const Predicate& p) {
                                Predicate out;
                                for (int i = 0; i < p.NumAtoms(); ++i) {
                                  if (i != drop) out.AddAtom(p.atom(i));
                                }
                                return out;
                              });
          OracleFailure failure;
          if (minimizer.Probe(candidate, best.catalog, &failure)) {
            best.query = candidate;
            best.failure = failure;
            ++best.reductions;
            shrunk = true;
            break;
          }
        }
      }
    }

    // 4. ddmin over each table's rows: remove chunks, halving sizes.
    for (const std::string& table : best.query->BaseRels()) {
      const Relation* rel = best.catalog.Find(table);
      if (rel == nullptr) continue;
      int64_t n = rel->NumRows();
      for (int64_t chunk = n / 2; chunk >= 1; chunk /= 2) {
        int64_t i = 0;
        while (i < best.catalog.Find(table)->NumRows()) {
          int64_t rows = best.catalog.Find(table)->NumRows();
          std::vector<bool> keep(static_cast<size_t>(rows), true);
          for (int64_t j = i; j < std::min(rows, i + chunk); ++j) {
            keep[static_cast<size_t>(j)] = false;
          }
          Catalog candidate = CatalogWithRows(best.catalog, table, keep);
          OracleFailure failure;
          if (minimizer.Probe(best.query, candidate, &failure)) {
            best.catalog = std::move(candidate);
            best.failure = failure;
            ++best.reductions;
          } else {
            i += chunk;
          }
        }
      }
    }

    if (best.reductions == before) break;  // fixpoint
  }
  return best;
}

}  // namespace gsopt::testing
