#include "core/plan_cache.h"

#include <functional>
#include <utility>

#include "base/check.h"
#include "relational/expr.h"

namespace gsopt {

namespace {

// Maps `fn` over every scalar in the tree in the deterministic order the
// ParameterizedQuery contract promises (a node's own scalars before its
// left subtree before its right subtree; within a node, predicate atoms
// left-to-right with lhs before rhs, then aggregate inputs). Unchanged
// subtrees are shared, not copied, so substituting into a cached plan
// template costs only the spine that actually holds parameters.
using ScalarFn = std::function<ScalarPtr(const ScalarPtr&)>;

ScalarPtr RewriteScalar(const ScalarPtr& s, const ScalarFn& fn,
                        bool* changed) {
  if (s == nullptr) return s;
  if (s->kind() == Scalar::Kind::kArith) {
    bool c = false;
    ScalarPtr l = RewriteScalar(s->lhs(), fn, &c);
    ScalarPtr r = RewriteScalar(s->rhs(), fn, &c);
    if (!c) return s;
    *changed = true;
    return Scalar::Arith(s->arith_op(), std::move(l), std::move(r));
  }
  ScalarPtr out = fn(s);
  if (out != s) *changed = true;
  return out;
}

Predicate RewritePredicate(const Predicate& p, const ScalarFn& fn,
                           bool* changed) {
  bool c = false;
  std::vector<Atom> atoms = p.atoms();
  for (Atom& a : atoms) {
    a.lhs = RewriteScalar(a.lhs, fn, &c);
    a.rhs = RewriteScalar(a.rhs, fn, &c);
  }
  if (!c) return p;
  *changed = true;
  return Predicate(std::move(atoms));
}

exec::GroupBySpec RewriteGroupBy(const exec::GroupBySpec& spec,
                                 const ScalarFn& fn, bool* changed) {
  bool c = false;
  exec::GroupBySpec out = spec;
  for (exec::AggSpec& a : out.aggs) {
    a.input = RewriteScalar(a.input, fn, &c);
  }
  if (!c) return spec;
  *changed = true;
  return out;
}

NodePtr RewriteNode(const NodePtr& n, const ScalarFn& fn) {
  if (n == nullptr) return n;
  // Own scalars first (traversal-order contract), then children.
  bool pred_changed = false;
  bool spec_changed = false;
  Predicate pred = RewritePredicate(n->pred(), fn, &pred_changed);
  exec::GroupBySpec spec = n->kind() == OpKind::kGroupBy
                               ? RewriteGroupBy(n->groupby(), fn, &spec_changed)
                               : exec::GroupBySpec{};
  // The copy keeps every other field (output names, preserved groups,
  // sort specs), so a cache hit re-instantiates the plan that was cached.
  NodePtr out = Node::WithChildren(n, RewriteNode(n->left(), fn),
                                   RewriteNode(n->right(), fn));
  if (pred_changed) out = Node::WithPred(out, std::move(pred));
  if (spec_changed) out = Node::WithGroupBy(out, std::move(spec));
  return out;
}

// Highest explicit parameter slot in the tree, as 1 + slot (0 if none).
void MaxExplicitSlot(const ScalarPtr& s, int* num) {
  if (s == nullptr) return;
  if (s->kind() == Scalar::Kind::kParam && s->param_slot() + 1 > *num) {
    *num = s->param_slot() + 1;
  }
  MaxExplicitSlot(s->lhs(), num);
  MaxExplicitSlot(s->rhs(), num);
}

}  // namespace

ParameterizedQuery ParameterizeQuery(const NodePtr& tree) {
  ParameterizedQuery q;
  int num_explicit = 0;
  RewriteNode(tree, [&num_explicit](const ScalarPtr& s) {
    MaxExplicitSlot(s, &num_explicit);
    return s;
  });
  q.num_explicit = num_explicit;
  q.tree = RewriteNode(tree, [&q, num_explicit](const ScalarPtr& s) {
    if (s->kind() != Scalar::Kind::kConst) return s;
    int slot = num_explicit + static_cast<int>(q.lifted.size());
    q.lifted.push_back(s->constant());
    return Scalar::Param(slot);
  });
  q.total_slots = num_explicit + static_cast<int>(q.lifted.size());
  q.canonical = q.tree ? q.tree->ToString() : "";
  q.fingerprint = Fnv1a64(q.canonical);
  return q;
}

StatusOr<NodePtr> SubstituteParams(const NodePtr& tree,
                                   const std::vector<Value>& values) {
  Status bad = Status::OK();
  NodePtr out = RewriteNode(tree, [&values, &bad](const ScalarPtr& s) {
    if (s->kind() != Scalar::Kind::kParam) return s;
    size_t slot = static_cast<size_t>(s->param_slot());
    if (slot >= values.size()) {
      if (bad.ok()) {
        bad = Status::InvalidArgument(
            "unbound parameter $" + std::to_string(slot + 1) + " (" +
            std::to_string(values.size()) + " value(s) bound)");
      }
      return s;
    }
    return Scalar::Const(values[slot]);
  });
  if (!bad.ok()) return bad;
  return out;
}

std::string PlanCacheStats::ToString() const {
  return "entries=" + std::to_string(entries) +
         " hits=" + std::to_string(hits) +
         " misses=" + std::to_string(misses) +
         " inserts=" + std::to_string(inserts) +
         " evictions=" + std::to_string(evictions) +
         " invalidations=" + std::to_string(invalidations);
}

PlanCache::PlanCache(size_t capacity, size_t num_shards) {
  size_t shards = 1;
  while (shards * 2 <= num_shards) shards *= 2;
  // Never shard below one entry per shard; a tiny cache degrades to fewer
  // shards rather than to zero capacity.
  while (shards > 1 && capacity / shards == 0) shards /= 2;
  per_shard_capacity_ = capacity < shards ? 1 : capacity / shards;
  shards_ = std::vector<Shard>(shards);
}

std::shared_ptr<const CachedPlan> PlanCache::Lookup(
    uint64_t fingerprint, const std::string& canonical, uint64_t epoch,
    bool* invalidated) {
  if (invalidated != nullptr) *invalidated = false;
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it == shard.index.end()) {
    ++shard.misses;
    return nullptr;
  }
  if (it->second->epoch != epoch) {
    // Statistics moved under this entry: drop it lazily.
    shard.lru.erase(it->second);
    shard.index.erase(it);
    ++shard.invalidations;
    ++shard.misses;
    if (invalidated != nullptr) *invalidated = true;
    return nullptr;
  }
  if (it->second->plan->canonical != canonical) {
    // FNV collision: treat as a miss, keep the resident entry.
    ++shard.misses;
    return nullptr;
  }
  shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
  ++shard.hits;
  return it->second->plan;
}

size_t PlanCache::Insert(uint64_t fingerprint, uint64_t epoch,
                         std::shared_ptr<const CachedPlan> plan) {
  GSOPT_CHECK(plan != nullptr);
  Shard& shard = ShardFor(fingerprint);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.index.find(fingerprint);
  if (it != shard.index.end()) {
    it->second->epoch = epoch;
    it->second->plan = std::move(plan);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    ++shard.inserts;
    return 0;
  }
  shard.lru.push_front(Entry{fingerprint, epoch, std::move(plan)});
  shard.index.emplace(fingerprint, shard.lru.begin());
  ++shard.inserts;
  size_t evicted = 0;
  while (shard.lru.size() > per_shard_capacity_) {
    shard.index.erase(shard.lru.back().fingerprint);
    shard.lru.pop_back();
    ++shard.evictions;
    ++evicted;
  }
  return evicted;
}

PlanCacheStats PlanCache::Stats() const {
  PlanCacheStats s;
  for (const Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    s.hits += shard.hits;
    s.misses += shard.misses;
    s.evictions += shard.evictions;
    s.invalidations += shard.invalidations;
    s.inserts += shard.inserts;
    s.entries += shard.lru.size();
  }
  return s;
}

void PlanCache::Clear() {
  for (Shard& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard.mu);
    shard.lru.clear();
    shard.index.clear();
  }
}

}  // namespace gsopt
