// Materialized relation r = <R, V, E>: real schema, virtual schema and a
// bag of tuples. All executor kernels consume and produce Relations.
#ifndef GSOPT_RELATIONAL_RELATION_H_
#define GSOPT_RELATIONAL_RELATION_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace gsopt {

class Relation {
 public:
  Relation() = default;
  Relation(Schema schema, VirtualSchema vschema)
      : schema_(std::move(schema)), vschema_(std::move(vschema)) {}

  const Schema& schema() const { return schema_; }
  const VirtualSchema& vschema() const { return vschema_; }

  // 64-bit row count: intermediate results (products, skewed joins) can
  // legitimately exceed 2^31 rows, and cost/budget arithmetic must not see
  // a negative count.
  int64_t NumRows() const { return static_cast<int64_t>(rows_.size()); }
  const Tuple& row(int64_t i) const {
    return rows_[static_cast<size_t>(i)];
  }
  const std::vector<Tuple>& rows() const { return rows_; }

  void Add(const Tuple& t);
  void Add(Tuple&& t);

  // Appends the concatenation of `a` and `b` constructed in place -- the
  // join probe's hot append, done without an intermediate Tuple move.
  void AddConcat(const Tuple& a, const Tuple& b);

  // Appends a row of real values, assigning the given row id to every
  // virtual attribute (for single-base-relation relations).
  void AddBaseRow(std::vector<Value> values, RowId id);

  // A tuple of all-NULL values / all-null row ids shaped like this relation.
  Tuple NullTuple() const;

  void Reserve(int64_t n) {
    if (n > 0) rows_.reserve(static_cast<size_t>(n));
  }

  // Gives back reserved row capacity beyond an eighth of the row count,
  // for a result that outlives the operator which sized it for its inputs.
  void TrimReserve();

  // Multiset equality over real attributes, matching columns by qualified
  // name (column order independent). Virtual attributes are ignored: two
  // plans are equivalent iff their visible extensions match.
  static bool BagEquals(const Relation& a, const Relation& b);

  // Human-readable table (used by examples and failure messages).
  std::string ToString(int max_rows = 50) const;

  // Canonical multiset fingerprint (sorted rows over name-sorted columns).
  std::string CanonicalString() const;

 private:
  Schema schema_;
  VirtualSchema vschema_;
  std::vector<Tuple> rows_;
};

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_RELATION_H_
