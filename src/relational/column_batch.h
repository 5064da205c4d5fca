// Column-oriented gathers over row-store Relations: the key columns of
// the hash-join core and the group-key columns of the hash grouping feed.
//
// Those kernels process their inputs in row ranges (kBatchRows-row batches
// serially, morsels in parallel) and gather each key column of a range
// into a typed array plus a null bitmap, which the binary key encoders
// (exec/keys.h) then read without interpreting Value variants. A Column
// is a *gather* of one schema column over a row range: the kind is decided
// per range from the values actually present, so a column that is int64
// in this range gets a tight int64 array even if another range of the same
// relation mixes types (outer-join padding, outer unions). Predicates and
// other scalar terms are not gathered: the kernels evaluate them per row
// through the expression binder (exec/bind.h).
//
// Gathers borrow from their source Relation (string and mixed-value slots
// hold pointers into the source tuples), so a gather must not outlive the
// relation it was taken from, and the relation must not be mutated while
// gathers over it are live. In exchange, gathering is one pass of
// trivially-copyable stores per column -- cheap enough to do per operator.
//
// Kernels never materialize rows from a gather: gathered columns only feed
// keys, and outputs copy or concatenate the source tuples themselves, so
// row ids and original row indices pass through unchanged.
#ifndef GSOPT_RELATIONAL_COLUMN_BATCH_H_
#define GSOPT_RELATIONAL_COLUMN_BATCH_H_

#include <cstdint>
#include <string>
#include <vector>

#include "relational/relation.h"

namespace gsopt {

// Rows per serial batch: large enough to amortize per-batch dispatch (one
// budget tick, one stats update per batch), small enough that gathered
// columns for a handful of key columns stay cache-resident.
inline constexpr int64_t kBatchRows = 2048;

enum class ColumnKind : uint8_t {
  kInt64,   // every non-null value is INT64
  kDouble,  // every non-null value is DOUBLE
  kString,  // every non-null value is STRING (borrowed pointers)
  kMixed,   // anything else; per-row Value pointers (borrowed)
};

// One schema column gathered over a row range. Exactly one of the typed
// arrays is populated (per `kind`); `nulls` always has one byte per row.
struct Column {
  ColumnKind kind = ColumnKind::kInt64;
  bool has_nulls = false;
  std::vector<uint8_t> nulls;           // 1 = NULL
  std::vector<int64_t> i64;             // kInt64
  std::vector<double> f64;              // kDouble
  std::vector<const std::string*> str;  // kString; nullptr in NULL slots
  std::vector<const Value*> vals;       // kMixed

  int64_t size() const { return static_cast<int64_t>(nulls.size()); }
  bool IsNull(int64_t i) const {
    return nulls[static_cast<size_t>(i)] != 0;
  }
  void Clear() {
    kind = ColumnKind::kInt64;
    has_nulls = false;
    nulls.clear();
    i64.clear();
    f64.clear();
    str.clear();
    vals.clear();
  }
};

// Gathers column `col` of rows [begin, end). The output borrows string /
// mixed-value storage from `r`; reuses `out`'s buffers across batches.
void GatherColumnInto(const Relation& r, int col, int64_t begin, int64_t end,
                      Column* out);

inline Column GatherColumn(const Relation& r, int col, int64_t begin,
                           int64_t end) {
  Column c;
  GatherColumnInto(r, col, begin, end, &c);
  return c;
}

// Gathers several columns at once (reusing `out`'s slots across batches).
void GatherColumnsInto(const Relation& r, const std::vector<int>& cols,
                       int64_t begin, int64_t end, std::vector<Column>* out);

// Gathers the selected virtual row-id columns: out[k][i] is the vid of
// vschema entry vid_idx[k] for batch row i.
void GatherVidsInto(const Relation& r, const std::vector<int>& vid_idx,
                    int64_t begin, int64_t end,
                    std::vector<std::vector<RowId>>* out);

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_COLUMN_BATCH_H_
