// Sharded LRU plan cache + query parameterization for the Session serving
// layer (core/session.h).
//
// The paper's whole analysis pipeline -- pres(h)/conf computation,
// association-tree enumeration, GS/MGOJ compensation assignment (PAPER.md
// paragraphs 3-4) -- depends only on the *shape* of the bound tree, never on
// the constant literals inside its predicates. ParameterizeQuery exploits
// that: every literal constant in a bound tree is lifted to a parameter
// slot ($n), producing a canonical parameterized tree whose serialization
// is fingerprinted with 64-bit FNV-1a (the same hash the executor's
// allocation-free join keys use, exec/keys.h). One optimization of the
// parameterized tree then serves every literal instantiation: executing is
// SubstituteParams + Execute, no lexer/parser/binder/normalize/enumerate.
//
// Cache structure: N independent shards (fingerprint-addressed), each a
// mutex-guarded LRU list + hash index, so concurrent serving threads only
// contend when they hash to the same shard. Entries are
// shared_ptr<const CachedPlan>: a lookup pins the entry for the duration
// of the caller's execution, so eviction under a concurrent hit can never
// free a plan mid-flight. Every entry carries the stats epoch it was
// optimized under; a lookup with a newer epoch drops the entry lazily
// (counted as an invalidation) instead of requiring a stop-the-world
// flush when statistics move.
//
// Collision safety: the full canonical serialization is stored in the
// entry and compared on every hit, so an FNV collision degrades to a miss
// rather than serving the wrong plan.
#ifndef GSOPT_CORE_PLAN_CACHE_H_
#define GSOPT_CORE_PLAN_CACHE_H_

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

#include "algebra/node.h"
#include "base/status.h"
#include "core/optimizer.h"
#include "exec/hash_table.h"
#include "relational/value.h"

namespace gsopt {

// FNV-1a 64-bit, the executor's key hash (offset basis seedable so
// callers can chain segments).
inline uint64_t Fnv1a64(const std::string& s, uint64_t h = exec::KeyHash{}.h) {
  exec::KeyHash k{h};
  k.Bytes(s.data(), s.size());
  return k.h;
}

// A bound tree with its literal constants lifted to parameter slots.
// Explicit $n parameters (already present from a PREPARE) keep their
// slots [0, num_explicit); lifted literals are appended after them, in
// deterministic traversal order (a node's own scalars -- predicate atoms
// left-to-right, lhs before rhs, then aggregate inputs -- before its left
// subtree, before its right subtree). Two bound trees that differ only in
// literal values therefore produce identical `tree`/`canonical`/
// `fingerprint` and aligned `lifted` vectors, which is exactly what makes
// a cache hit across literals sound.
struct ParameterizedQuery {
  NodePtr tree;                // constants replaced by parameter slots
  std::vector<Value> lifted;   // lifted literals; slot num_explicit + i
  int num_explicit = 0;        // 1 + highest $n slot in the input (0 if none)
  int total_slots = 0;         // num_explicit + lifted.size()
  std::string canonical;       // normalized serialization of `tree`
  uint64_t fingerprint = 0;    // FNV-1a over `canonical`
};

ParameterizedQuery ParameterizeQuery(const NodePtr& tree);

// Replaces every parameter slot in `tree` with values[slot]. Fails with
// kInvalidArgument if any slot is >= values.size() (an unbound parameter).
StatusOr<NodePtr> SubstituteParams(const NodePtr& tree,
                                   const std::vector<Value>& values);

// One cached optimization result: the optimized plan still carries its
// parameter slots, so it is a template serving every literal binding.
struct CachedPlan {
  NodePtr plan;                // optimized, parameterized
  double cost = 0.0;
  int num_explicit = 0;
  int total_slots = 0;
  DegradationReport degradation;  // from the producing optimization
  OptimizerCounters counters;     // search work of the producing optimization
  std::string canonical;          // fingerprint preimage (collision guard)
};

struct PlanCacheStats {
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint64_t evictions = 0;       // LRU capacity evictions
  uint64_t invalidations = 0;   // stale-epoch entries dropped on lookup
  uint64_t inserts = 0;
  size_t entries = 0;           // currently resident

  std::string ToString() const;
};

class PlanCache {
 public:
  // `capacity` is the total entry budget, split evenly across
  // `num_shards` power-of-two-rounded shards (>= 1 entry each).
  explicit PlanCache(size_t capacity = 256, size_t num_shards = 8);

  PlanCache(const PlanCache&) = delete;
  PlanCache& operator=(const PlanCache&) = delete;

  // Returns the pinned entry on a fresh-epoch hit, null on miss. A stale
  // entry (older epoch) is erased and counted as an invalidation (also
  // reported through `invalidated` when non-null, so callers can attribute
  // it to this lookup); a fingerprint collision (canonical mismatch) is a
  // plain miss.
  std::shared_ptr<const CachedPlan> Lookup(uint64_t fingerprint,
                                           const std::string& canonical,
                                           uint64_t epoch,
                                           bool* invalidated = nullptr);

  // Inserts (or replaces) the entry for `fingerprint`, evicting the
  // shard's LRU tail beyond capacity. In-flight executions holding the
  // evicted shared_ptr keep it alive until they finish. Returns the number
  // of entries evicted.
  size_t Insert(uint64_t fingerprint, uint64_t epoch,
                std::shared_ptr<const CachedPlan> plan);

  PlanCacheStats Stats() const;
  void Clear();

  size_t capacity() const { return shards_.size() * per_shard_capacity_; }
  size_t num_shards() const { return shards_.size(); }

 private:
  struct Entry {
    uint64_t fingerprint = 0;
    uint64_t epoch = 0;
    std::shared_ptr<const CachedPlan> plan;
  };
  using LruList = std::list<Entry>;
  struct Shard {
    mutable std::mutex mu;
    LruList lru;  // front = most recently used
    std::unordered_map<uint64_t, LruList::iterator> index;
    uint64_t hits = 0, misses = 0, evictions = 0, invalidations = 0,
             inserts = 0;
  };

  Shard& ShardFor(uint64_t fingerprint) {
    // Shard count is a power of two; mix the high bits in so shard choice
    // is independent of the bits the per-shard hash map uses.
    return shards_[(fingerprint ^ (fingerprint >> 17)) &
                   (shards_.size() - 1)];
  }

  size_t per_shard_capacity_;
  std::vector<Shard> shards_;
};

}  // namespace gsopt

#endif  // GSOPT_CORE_PLAN_CACHE_H_
