// Answer checking. Every workload compares what the program answered with
// a reference computed without the optimizer or the plan cache:
// gsopt::Execute of the as-written bound tree (serve_warm, mutate_mix) or
// of EmitSql's reference tree (plan_cold). The first answer for each
// distinct key is compared with Relation::BagEquals; later answers for the
// same key are compared by AnswerDigest, a cheap order-independent hash of
// the same bag.
#ifndef PERFBENCH_ANSWERS_H_
#define PERFBENCH_ANSWERS_H_

#include <cstdint>

#include "relational/relation.h"
#include "server/protocol.h"

namespace perfbench {

// Row count plus an order-independent hash of the rows, with columns
// matched by qualified name (as Relation::BagEquals matches them).
struct AnswerDigest {
  int64_t rows = -1;
  uint64_t hash = 0;

  bool operator==(const AnswerDigest& o) const {
    return rows == o.rows && hash == o.hash;
  }
  bool operator!=(const AnswerDigest& o) const { return !(*this == o); }
};

AnswerDigest DigestOf(const gsopt::Relation& relation);
AnswerDigest DigestOf(const gsopt::server::WireResult& wire);

// Rebuilds a relation from a decoded ROWS frame so it can be compared with
// Relation::BagEquals.
gsopt::Relation RelationOf(const gsopt::server::WireResult& wire);

// `relation` minus its last row: the deliberately corrupted answer the
// self-test feeds to the checker.
gsopt::Relation DropLastRow(const gsopt::Relation& relation);

}  // namespace perfbench

#endif  // PERFBENCH_ANSWERS_H_
