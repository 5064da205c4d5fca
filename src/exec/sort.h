// External merge sort and the sorted-output contract.
//
// Sort() is the enforcer operator behind ORDER BY. The in-memory path
// stable-sorts the staged rows; when the operator state trips the
// ResourceBudget memory cap and the ExecContext carries a SpillConfig, rows
// degrade to sorted SpillRuns (exec/spill.h) merged with a bounded fan-in
// (multi-pass when the run count exceeds kMergeFanIn), so ENOSPC /
// short-write faults inject at the existing spill sites and
// SpillFile::LiveCount() returns to zero on every path.
//
// Ordering contract (documented here, asserted by CheckSorted and the
// order-correctness oracle):
//   * NULL is the LOWEST value: NULLs first under ASC, last under DESC.
//   * Numerics order by exact value with int/double unified (1 < 1.5 < 2
//     across types, Value::Compare); NaN equals NaN and is greater than
//     every non-NaN number (the CompareDoubles rule).
//   * Strings order bytewise; every number orders before every string.
//   * The sort is stable: rows equal on every key keep their input order.
#ifndef GSOPT_EXEC_SORT_H_
#define GSOPT_EXEC_SORT_H_

#include <string>
#include <vector>

#include "base/status.h"
#include "exec/eval.h"
#include "relational/relation.h"
#include "relational/schema.h"

namespace gsopt::exec {

struct SortKey {
  Attribute attr;
  bool desc = false;

  std::string ToString() const {
    return attr.Qualified() + (desc ? " DESC" : " ASC");
  }
  friend bool operator==(const SortKey& a, const SortKey& b) {
    return a.attr == b.attr && a.desc == b.desc;
  }
};

using SortSpec = std::vector<SortKey>;

std::string SortSpecToString(const SortSpec& spec);

// Total order over values per the ordering contract above: <0, 0, >0.
// Sort, CheckSorted and Statistics' sortedness scan order by it; join-key
// equality is the key bytes' (exec/keys.h), not this comparison's.
int CompareValuesTotal(const Value& a, const Value& b);

// Stable external merge sort of `r` by `spec`. Fallible: a key naming an
// attribute the input does not carry returns kInvalidArgument; a memory
// trip without spilling enabled returns kResourceExhausted.
StatusOr<Relation> Sort(const Relation& r, const SortSpec& spec,
                        const ExecContext& ctx = {});

// Verifies `r` is ordered by `spec` under the contract above; kInternal
// naming the first offending row pair otherwise. The order-correctness
// oracle and sort tests run every checked output through this.
Status CheckSorted(const Relation& r, const SortSpec& spec);

}  // namespace gsopt::exec

#endif  // GSOPT_EXEC_SORT_H_
