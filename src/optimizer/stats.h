// Statistics and cardinality estimation. Base-table statistics (row counts,
// per-column distinct counts) are computed exactly from the catalog (this
// library operates on materialized relations); derived cardinalities use
// textbook System-R style selectivity rules.
#ifndef GSOPT_OPTIMIZER_STATS_H_
#define GSOPT_OPTIMIZER_STATS_H_

#include <map>
#include <string>

#include "algebra/node.h"
#include "base/status.h"
#include "relational/catalog.h"

namespace gsopt {

struct ColumnStats {
  double distinct = 1.0;
  double null_fraction = 0.0;
  // The whole table is non-decreasing by this column alone under the
  // ordering contract of exec/sort.h (NULL lowest). Detected by scanning
  // at stats-build time, so it is always true of the data the statistics
  // were collected from; the order-aware pass (optimizer/order.h) drops an
  // ORDER BY enforcer over a scan of the table on it.
  bool sorted_asc = false;
};

struct TableStats {
  double rows = 0.0;
  std::map<std::string, ColumnStats> columns;  // by column name
};

class Statistics {
 public:
  // Scans every catalog table once and records exact statistics.
  static Statistics Collect(const Catalog& catalog);

  const TableStats* Table(const std::string& name) const;

  // Distinct-count estimate for a qualified column; 1 if unknown.
  double Distinct(const std::string& rel, const std::string& column) const;

  // True when the table's rows are known to be non-decreasing by this
  // column (see ColumnStats::sorted_asc); false if unknown.
  bool SortedAsc(const std::string& rel, const std::string& column) const;

  double Rows(const std::string& rel) const;

 private:
  std::map<std::string, TableStats> tables_;
};

}  // namespace gsopt

#endif  // GSOPT_OPTIMIZER_STATS_H_
