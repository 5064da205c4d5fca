// Tuples carry real attribute values plus one (nullable) row id per base
// relation in the owning relation's virtual schema.
#ifndef GSOPT_RELATIONAL_TUPLE_H_
#define GSOPT_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <vector>

#include "relational/inline_vec.h"
#include "relational/value.h"

namespace gsopt {

using RowId = int64_t;
inline constexpr RowId kNullRowId = -1;

struct Tuple {
  // Inline capacities cover rows up to ten columns over four base
  // relations -- base rows and the padded outer-join rows of the paper's
  // three-relation shapes (Example 2.1 is nine columns wide) -- so the hot
  // output paths (join concat, outer-join padding, select copy) allocate
  // nothing per tuple. Wider tuples fall back to the heap inside InlineVec.
  static constexpr size_t kInlineValues = 10;
  static constexpr size_t kInlineVids = 4;

  InlineVec<Value, kInlineValues> values;
  InlineVec<RowId, kInlineVids> vids;

  Tuple() = default;
  Tuple(std::vector<Value> v, std::vector<RowId> ids)
      : values(std::move(v)), vids(std::move(ids)) {}

  // Concatenation of two tuples (cartesian product row).
  static Tuple Concat(const Tuple& a, const Tuple& b) {
    Tuple t;
    t.values.reserve(a.values.size() + b.values.size());
    t.values.insert(t.values.end(), a.values.begin(), a.values.end());
    t.values.insert(t.values.end(), b.values.begin(), b.values.end());
    t.vids.reserve(a.vids.size() + b.vids.size());
    t.vids.insert(t.vids.end(), a.vids.begin(), a.vids.end());
    t.vids.insert(t.vids.end(), b.vids.begin(), b.vids.end());
    return t;
  }
};

// A bound, not an exact size: a std::vector<Tuple> moves whole Tuples when
// it grows, so inline capacity is paid for on every row, filled or not.
static_assert(sizeof(Tuple) <= 224, "Tuple inline capacity outgrew its bound");

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_TUPLE_H_
