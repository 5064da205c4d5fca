// Tuples carry real attribute values plus one (nullable) row id per base
// relation in the owning relation's virtual schema.
//
// A Tuple is a non-owning view: two spans into storage someone else owns
// -- normally one row of a Relation's strided buffers (relational/
// relation.h), valid until that relation next grows. Code that builds a
// row of its own (padding templates, spill reload, test fixtures) holds an
// OwnedTuple and passes its view.
#ifndef GSOPT_RELATIONAL_TUPLE_H_
#define GSOPT_RELATIONAL_TUPLE_H_

#include <cstdint>
#include <span>
#include <vector>

#include "relational/value.h"

namespace gsopt {

using RowId = int64_t;
inline constexpr RowId kNullRowId = -1;

struct Tuple {
  std::span<const Value> values;
  std::span<const RowId> vids;

  Tuple() = default;
  Tuple(std::span<const Value> v, std::span<const RowId> ids)
      : values(v), vids(ids) {}
};

// A row that owns its payload; converts to the Tuple viewing it. Only an
// lvalue converts: a view of a temporary would dangle.
struct OwnedTuple {
  std::vector<Value> values;
  std::vector<RowId> vids;

  operator Tuple() const& { return Tuple(values, vids); }
  operator Tuple() const&& = delete;

  // Makes this the concatenation of `a` and `b`, reusing the buffers.
  void AssignConcat(Tuple a, Tuple b) {
    values.assign(a.values.begin(), a.values.end());
    values.insert(values.end(), b.values.begin(), b.values.end());
    vids.assign(a.vids.begin(), a.vids.end());
    vids.insert(vids.end(), b.vids.begin(), b.vids.end());
  }
};

// A writable view of one freshly appended row (Relation::AddNullRow).
struct MutableTuple {
  std::span<Value> values;
  std::span<RowId> vids;
};

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_TUPLE_H_
