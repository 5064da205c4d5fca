// Columnar (batch-at-a-time) selection.
//
// The reference Select in eval.cc resolves every column BY NAME per row
// (Scalar::Eval does a linear qualified-name scan of the schema for each
// column reference). The compiled filter here instead binds the predicate
// ONCE against the schema, gathers the referenced columns of each
// kBatchRows-row batch into typed arrays (relational/column_batch.h), and
// runs tight per-kind filter loops that refine a selection vector:
// contiguous same-typed operands, data-dependent branches confined to the
// selection-vector append. The hash-join core gathers its keys the same
// way (hash_join.cc).
//
// Semantics contract: ColumnarSelect returns exactly the reference
// Select's rows in the reference order (it filters in input order), with
// the same NULL handling and 3VL.
//
// Atoms a batch loop cannot evaluate natively (arithmetic terms,
// unresolved columns) compile to a per-row fallback on the source tuples,
// so every predicate is columnar-eligible -- the fallback only runs for
// rows still selected when its turn comes.
#ifndef GSOPT_EXEC_COLUMNAR_H_
#define GSOPT_EXEC_COLUMNAR_H_

#include <cstdint>
#include <vector>

#include "exec/eval.h"
#include "relational/column_batch.h"
#include "relational/expr.h"

namespace gsopt::exec::internal {

// A predicate compiled once against a schema. Atom operands referencing
// columns become slots into a gathered column array; constants are
// captured by value. Compilation never fails: unsupported shapes become
// kFallback atoms.
struct CompiledFilter {
  struct CAtom {
    enum class Kind : uint8_t {
      kCmpColCol,    // column <op> column
      kCmpColConst,  // column <op> constant (constant always on the rhs)
      kIsNull,       // column IS NULL
      kIsNotNull,    // column IS NOT NULL
      kNever,        // statically never TRUE (e.g. const cmp NULL)
      kFallback,     // Atom::Eval per selected row
    };
    Kind kind = Kind::kFallback;
    CmpOp op = CmpOp::kEq;
    int lhs_slot = -1;           // slot into the gathered columns
    int rhs_slot = -1;           // kCmpColCol only
    Value constant;              // kCmpColConst only
    const Atom* atom = nullptr;  // kFallback: borrowed from the Predicate
  };
  std::vector<CAtom> atoms;   // statically-TRUE atoms are dropped
  std::vector<int> cols;      // schema column index per slot
  bool has_fallback = false;
};

// Compiles `p` against `s`. The returned filter borrows `p`'s atoms;
// `p` must outlive it.
CompiledFilter CompileFilter(const Predicate& p, const Schema& s);

// Applies `f` to rows [begin, begin+n) of `r`, whose gathered filter
// columns are `cols` (one per f.cols slot, gathered over the same range).
// Fills `sel` with the batch-relative offsets of rows where every atom is
// TRUE, in ascending order.
void ApplyFilter(const CompiledFilter& f, const Relation& r, int64_t begin,
                 int64_t n, const std::vector<Column>& cols,
                 std::vector<int32_t>* sel);

// Batch-at-a-time selection, serial or morsel-parallel (LanesFor). Serial,
// the output is exactly the reference Select's, order included; parallel,
// lane outputs are spliced in lane order (bag-equal).
StatusOr<Relation> ColumnarSelect(const Relation& r, const Predicate& p,
                                  const ExecContext& ctx);

}  // namespace gsopt::exec::internal

#endif  // GSOPT_EXEC_COLUMNAR_H_
