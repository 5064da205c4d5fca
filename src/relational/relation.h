// Materialized relation r = <R, V, E>: real schema, virtual schema and a
// bag of tuples. All executor kernels consume and produce Relations.
//
// Storage is flat: one std::vector<Value> strided by the schema's width
// and one std::vector<RowId> strided by the virtual schema's width, plus
// an explicit row count (a relation may have rows and no columns: a
// zero-column base table joined in adds only a row id, and a relation with
// neither columns nor row ids still counts its rows). row(i) and rows()
// hand out Tuple views into those buffers. Appending a row may reallocate
// them, which invalidates every view into THIS relation; views into other
// relations are unaffected. Add, AddConcat and AddPadded accept a view of
// one of this relation's own rows anyway (they copy it out before growing),
// so "re-append my row i" is safe.
#ifndef GSOPT_RELATIONAL_RELATION_H_
#define GSOPT_RELATIONAL_RELATION_H_

#include <cstddef>
#include <cstdint>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "relational/schema.h"
#include "relational/tuple.h"

namespace gsopt {

class Relation {
 public:
  // Forward range over the rows, yielding Tuple views by value;
  // `for (const Tuple& t : r.rows())` binds each to the loop variable.
  class RowRange {
   public:
    class iterator {
     public:
      iterator(const Relation* r, int64_t i) : r_(r), i_(i) {}
      Tuple operator*() const { return r_->row(i_); }
      iterator& operator++() {
        ++i_;
        return *this;
      }
      bool operator==(const iterator& o) const { return i_ == o.i_; }
      bool operator!=(const iterator& o) const { return i_ != o.i_; }

     private:
      const Relation* r_;
      int64_t i_;
    };

    explicit RowRange(const Relation* r) : r_(r) {}
    iterator begin() const { return iterator(r_, 0); }
    iterator end() const { return iterator(r_, r_->NumRows()); }
    size_t size() const { return static_cast<size_t>(r_->NumRows()); }
    bool empty() const { return r_->NumRows() == 0; }

   private:
    const Relation* r_;
  };

  Relation() = default;
  Relation(Schema schema, VirtualSchema vschema)
      : schema_(std::move(schema)),
        vschema_(std::move(vschema)),
        width_(static_cast<size_t>(schema_.size())),
        vwidth_(static_cast<size_t>(vschema_.size())) {}
  Relation(const Relation&) = default;
  Relation& operator=(const Relation&) = default;
  // A moved-from relation is empty, row count included.
  Relation(Relation&& o) noexcept
      : schema_(std::move(o.schema_)),
        vschema_(std::move(o.vschema_)),
        width_(std::exchange(o.width_, 0)),
        vwidth_(std::exchange(o.vwidth_, 0)),
        num_rows_(std::exchange(o.num_rows_, 0)),
        values_(std::move(o.values_)),
        vids_(std::move(o.vids_)) {}
  Relation& operator=(Relation&& o) noexcept {
    if (this == &o) return *this;
    schema_ = std::move(o.schema_);
    vschema_ = std::move(o.vschema_);
    width_ = std::exchange(o.width_, 0);
    vwidth_ = std::exchange(o.vwidth_, 0);
    num_rows_ = std::exchange(o.num_rows_, 0);
    values_ = std::move(o.values_);
    vids_ = std::move(o.vids_);
    return *this;
  }

  const Schema& schema() const { return schema_; }
  const VirtualSchema& vschema() const { return vschema_; }

  // 64-bit row count: intermediate results (products, skewed joins) can
  // legitimately exceed 2^31 rows, and cost/budget arithmetic must not see
  // a negative count.
  int64_t NumRows() const { return num_rows_; }
  Tuple row(int64_t i) const {
    const size_t r = static_cast<size_t>(i);
    return Tuple({values_.data() + r * width_, width_},
                 {vids_.data() + r * vwidth_, vwidth_});
  }
  RowRange rows() const { return RowRange(this); }
  // Every row's values, row after row.
  std::span<const Value> values() const { return values_; }

  // Appends a copy of `t`, which must be shaped like this relation.
  void Add(Tuple t);
  // Appends `t`, moving its values.
  void Add(OwnedTuple&& t);

  // Appends the concatenation of `a` and `b` -- the join probe's hot
  // append: two contiguous range copies per buffer.
  void AddConcat(Tuple a, Tuple b);

  // Outer-join padding: appends `t` followed (t_first) or preceded by a
  // run of NULL values and kNullRowId ids filling the rest of the row.
  void AddPadded(Tuple t, bool t_first);

  // Appends an all-NULL row (kNullRowId ids) and returns a writable view
  // of it, for kernels that fill a row slot by slot. The view is valid
  // until the next append.
  MutableTuple AddNullRow();

  // Appends a row of real values, assigning the given row id to every
  // virtual attribute (for single-base-relation relations).
  void AddBaseRow(std::vector<Value> values, RowId id);

  void Reserve(int64_t n) {
    if (n <= 0) return;
    values_.reserve(static_cast<size_t>(n) * width_);
    vids_.reserve(static_cast<size_t>(n) * vwidth_);
  }

  // Multiset equality over real attributes, matching columns by qualified
  // name (column order independent). Virtual attributes are ignored: two
  // plans are equivalent iff their visible extensions match.
  static bool BagEquals(const Relation& a, const Relation& b);

  // Human-readable table (used by examples and failure messages).
  std::string ToString(int max_rows = 50) const;

  // Canonical multiset fingerprint (sorted rows over name-sorted columns).
  std::string CanonicalString() const;

 private:
  // True when `t` views storage inside this relation's own buffers.
  bool Holds(Tuple t) const;

  Schema schema_;
  VirtualSchema vschema_;
  size_t width_ = 0;   // schema_.size(): values per row
  size_t vwidth_ = 0;  // vschema_.size(): row ids per row
  int64_t num_rows_ = 0;
  std::vector<Value> values_;  // num_rows_ * width_, row-major
  std::vector<RowId> vids_;    // num_rows_ * vwidth_, row-major
};

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_RELATION_H_
