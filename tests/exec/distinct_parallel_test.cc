// DISTINCT aggregates with the parallel executor selected through
// ExecuteOptions: per-lane distinct sets cannot be merged, so the kernel
// must fall back to the serial path -- with results identical to a serial
// run and OperatorStats still collected and merged for the whole plan.
#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "base/rng.h"
#include "exec/aggregate.h"
#include "exec/executor.h"
#include "relational/datagen.h"
#include "sql/binder.h"

namespace gsopt {
namespace {

// Thresholds forced low so test-sized inputs would take the parallel
// paths anywhere they exist.
exec::Executor* TestExecutor() {
  static exec::Executor* ex = [] {
    auto* e = new exec::Executor(4);
    e->set_min_parallel_rows(1);
    e->set_morsel_rows(7);
    return e;
  }();
  return ex;
}

Catalog MakeCatalog(uint64_t seed) {
  Catalog cat;
  Rng rng(seed);
  RandomRelationOptions opt;
  opt.num_rows = 150;
  opt.domain = 5;
  opt.null_fraction = 0.25;
  AddRandomTables(2, opt, &rng, &cat);
  return cat;
}

// A GROUP BY view with a DISTINCT aggregate, joined above so the plan
// also contains operators that DO parallelize.
NodePtr DistinctViewQuery(exec::AggFunc func) {
  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "b"}};
  exec::AggSpec agg;
  agg.func = func;
  agg.distinct = true;
  agg.input = Scalar::Column("r1", "a");
  agg.out_rel = "v";
  agg.out_name = "agg";
  spec.aggs = {std::move(agg)};
  NodePtr view = Node::GroupBy(Node::Leaf("r1"), spec);
  return Node::Join(view, Node::Leaf("r2"),
                    Predicate(MakeAtom("v", "agg", CmpOp::kEq, "r2", "b")));
}

TEST(DistinctParallelTest, DistinctAggFallsBackSerialWithIdenticalResults) {
  for (exec::AggFunc func :
       {exec::AggFunc::kCount, exec::AggFunc::kSum, exec::AggFunc::kAvg}) {
    for (uint64_t seed = 1; seed <= 4; ++seed) {
      Catalog cat = MakeCatalog(seed);
      NodePtr q = DistinctViewQuery(func);

      auto serial = Execute(q, cat);
      ASSERT_TRUE(serial.ok()) << serial.status().ToString();

      ExecuteOptions popt;
      popt.executor = TestExecutor();
      auto parallel = Execute(q, cat, popt);
      ASSERT_TRUE(parallel.ok()) << parallel.status().ToString();

      EXPECT_TRUE(Relation::BagEquals(*serial, *parallel))
          << exec::AggFuncName(func) << " seed " << seed;
    }
  }
}

TEST(DistinctParallelTest, StatsAreMergedUnderParallelExecutor) {
  Catalog cat = MakeCatalog(7);
  NodePtr q = DistinctViewQuery(exec::AggFunc::kCount);

  exec::OperatorStats serial_stats;
  ExecuteOptions sopt;
  sopt.stats = &serial_stats;
  auto serial = Execute(q, cat, sopt);
  ASSERT_TRUE(serial.ok());

  exec::OperatorStats par_stats;
  ExecuteOptions popt;
  popt.stats = &par_stats;
  popt.executor = TestExecutor();
  auto parallel = Execute(q, cat, popt);
  ASSERT_TRUE(parallel.ok());

  // The stats tree shape is the plan shape, independent of executor; the
  // count-exact totals must agree between the serial run and the merged
  // per-lane counters of the parallel run.
  ASSERT_EQ(serial_stats.children.size(), par_stats.children.size());
  EXPECT_EQ(serial_stats.rows_in, par_stats.rows_in);
  EXPECT_EQ(serial_stats.rows_out, par_stats.rows_out);
  EXPECT_EQ(serial_stats.rows_out,
            static_cast<uint64_t>(parallel->NumRows()));

  // The DISTINCT group-by child ran (rows flowed through it) on both.
  bool found_groupby = false;
  for (const auto& child : serial_stats.children) {
    if (child->op == "GP") found_groupby = true;
  }
  for (const auto& child : par_stats.children) {
    if (child->op == "GP") {
      EXPECT_GT(child->rows_in, 0u);
    }
  }
  EXPECT_TRUE(found_groupby);
}

}  // namespace
}  // namespace gsopt
