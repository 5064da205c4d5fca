// Catalog of named base relations. Base tables own monotonically assigned
// row ids (the paper's virtual attributes).
#ifndef GSOPT_RELATIONAL_CATALOG_H_
#define GSOPT_RELATIONAL_CATALOG_H_

#include <map>
#include <string>
#include <vector>

#include "base/status.h"
#include "relational/relation.h"

namespace gsopt {

class Catalog {
 public:
  Catalog() = default;

  // Creates table `name` with the given column names (qualified as
  // name.column). Fails if the table exists.
  Status CreateTable(const std::string& name,
                     const std::vector<std::string>& columns);

  // Appends a row; assigns the next row id.
  Status Insert(const std::string& name, std::vector<Value> values);

  // Registers an externally built relation as a table (it must be
  // single-base: vschema == {name}).
  Status Register(const std::string& name, Relation relation);

  bool Has(const std::string& name) const { return tables_.count(name) > 0; }
  // The table named `name`, read in place; null when absent. The pointer
  // stays valid, and the rows unchanged, until the next write to the
  // catalog.
  const Relation* Find(const std::string& name) const;
  // Find, with kNotFound ("no table <name>") when absent.
  StatusOr<const Relation*> Table(const std::string& name) const;
  // A copy of the table: every row is duplicated. Execution reads tables
  // in place through Find / Table instead.
  StatusOr<Relation> Get(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  // Monotonic data version, bumped by every successful mutation
  // (CreateTable / Insert / Register). Statistics collected at version v
  // are stale once version() != v: the Session serving layer compares this
  // against the version its stats were collected at and bumps its plan-
  // cache epoch, lazily invalidating cached plans (see core/session.h).
  // Mutation is not synchronized with concurrent readers. A query reads
  // the base tables it scans in place for its whole execution, so a write
  // must wait until no query is in flight (external synchronization against
  // serving threads), not only until no table is being copied.
  uint64_t version() const { return version_; }

 private:
  std::map<std::string, Relation> tables_;
  std::map<std::string, RowId> next_row_id_;
  uint64_t version_ = 0;
};

}  // namespace gsopt

#endif  // GSOPT_RELATIONAL_CATALOG_H_
