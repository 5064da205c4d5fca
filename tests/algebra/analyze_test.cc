// EXPLAIN ANALYZE and the stats tree on the paper's Example 2.1 query
// T1 = (r1 LOJ_p12 r2) LOJ_{p13 ^ p23} r3: the interpreter mirrors the
// plan with an OperatorStats tree (labels, wall time, actual rows), the
// cost model's estimates are joined in, and the rendering reports
// est/rows/q per operator plus a q-error summary.
#include <chrono>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "algebra/execute.h"
#include "algebra/explain.h"
#include "core/optimizer.h"
#include "exec/stats.h"

namespace gsopt {
namespace {

Value I(int64_t v) { return Value::Int(v); }

// Example 2.1 schema: r1(a,b,c,f), r2(c,d,e), r3(e,f).
Catalog Example21Catalog() {
  Catalog cat;
  EXPECT_TRUE(cat.CreateTable("r1", {"a", "b", "c", "f"}).ok());
  EXPECT_TRUE(cat.CreateTable("r2", {"c", "d", "e"}).ok());
  EXPECT_TRUE(cat.CreateTable("r3", {"e", "f"}).ok());
  EXPECT_TRUE(cat.Insert("r1", {I(1), I(2), I(10), I(50)}).ok());
  EXPECT_TRUE(cat.Insert("r1", {I(3), I(4), I(11), I(51)}).ok());
  EXPECT_TRUE(cat.Insert("r1", {I(5), I(6), I(12), I(52)}).ok());
  EXPECT_TRUE(cat.Insert("r2", {I(10), I(7), I(20)}).ok());
  EXPECT_TRUE(cat.Insert("r2", {I(11), I(8), I(21)}).ok());
  EXPECT_TRUE(cat.Insert("r3", {I(20), I(50)}).ok());
  EXPECT_TRUE(cat.Insert("r3", {I(21), I(99)}).ok());
  return cat;
}

NodePtr Example21Query() {
  Predicate p12(MakeAtom("r1", "c", CmpOp::kEq, "r2", "c"));
  Predicate p13(MakeAtom("r1", "f", CmpOp::kEq, "r3", "f"));
  Predicate p23(MakeAtom("r2", "e", CmpOp::kEq, "r3", "e"));
  NodePtr inner = Node::LeftOuterJoin(Node::Leaf("r1"), Node::Leaf("r2"),
                                      p12);
  return Node::LeftOuterJoin(inner, Node::Leaf("r3"),
                             Predicate::And(p13, p23));
}

TEST(ExecuteStatsTest, InterpreterMirrorsPlanTree) {
  Catalog cat = Example21Catalog();
  NodePtr q = Example21Query();
  exec::OperatorStats stats;
  ExecuteOptions xo;
  xo.stats = &stats;
  auto rel = Execute(q, cat, xo);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();

  // Tree shape mirrors the plan: LOJ(LOJ(scan r1, scan r2), scan r3).
  EXPECT_EQ(stats.op, "LOJ");
  ASSERT_EQ(stats.children.size(), 2u);
  const exec::OperatorStats& inner = *stats.children[0];
  const exec::OperatorStats& r3 = *stats.children[1];
  EXPECT_EQ(inner.op, "LOJ");
  EXPECT_EQ(r3.op, "scan r3");
  ASSERT_EQ(inner.children.size(), 2u);
  EXPECT_EQ(inner.children[0]->op, "scan r1");
  EXPECT_EQ(inner.children[1]->op, "scan r2");

  // Leaf actuals are the table cardinalities; the root produced the query
  // answer (left join preserves all 3 r1 rows).
  EXPECT_EQ(inner.children[0]->rows_out, 3u);
  EXPECT_EQ(inner.children[1]->rows_out, 2u);
  EXPECT_EQ(r3.rows_out, 2u);
  EXPECT_EQ(stats.rows_out, static_cast<uint64_t>(rel->NumRows()));

  // The joins consumed both sides and went down the hash path.
  EXPECT_EQ(inner.rows_in, 5u);
  EXPECT_TRUE(inner.hash_path);
  EXPECT_EQ(inner.build_rows, 2u);
  EXPECT_EQ(inner.probe_rows, 3u);

  // The interpreter timed every operator; children nest within parents.
  EXPECT_GT(stats.wall.count(), 0);
  EXPECT_GE(stats.wall, inner.wall);
  EXPECT_GE(stats.SelfWall().count(), 0);
}

TEST(ExecuteStatsTest, QErrorClampsAndSignalsMissingEstimate) {
  exec::OperatorStats s;
  EXPECT_EQ(s.QError(), 0.0);  // no estimate joined in
  s.est_rows = 10.0;
  s.rows_out = 5;
  EXPECT_DOUBLE_EQ(s.QError(), 2.0);
  s.rows_out = 40;
  EXPECT_DOUBLE_EQ(s.QError(), 4.0);
  s.rows_out = 0;  // empty actual stays finite (clamped to 1)
  EXPECT_DOUBLE_EQ(s.QError(), 10.0);
}

TEST(ExplainAnalyzeTest, Example21ShowsActualsEstimatesAndQError) {
  Catalog cat = Example21Catalog();
  NodePtr q = Example21Query();
  QueryOptimizer opt(cat);
  auto analyzed = ExplainAnalyze(q, cat, opt.cost_model());
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  // The answer rides along (3 preserved r1 rows).
  EXPECT_EQ(analyzed->result.NumRows(), 3);
  ASSERT_NE(analyzed->stats, nullptr);

  // Every operator line carries est / actual rows / q / time, the joins
  // expose their hash counters, and a q-error summary closes the report.
  const std::string& text = analyzed->text;
  EXPECT_NE(text.find("LOJ"), std::string::npos) << text;
  EXPECT_NE(text.find("scan r1"), std::string::npos) << text;
  EXPECT_NE(text.find("est="), std::string::npos) << text;
  EXPECT_NE(text.find("rows="), std::string::npos) << text;
  EXPECT_NE(text.find("q="), std::string::npos) << text;
  EXPECT_NE(text.find("time="), std::string::npos) << text;
  EXPECT_NE(text.find("hash{"), std::string::npos) << text;
  EXPECT_NE(text.find("q-error over"), std::string::npos) << text;

  // Estimates were joined into the tree: every operator got one, so
  // CollectQErrors sees all 5 nodes with finite q >= 1.
  std::vector<double> qs;
  exec::CollectQErrors(*analyzed->stats, &qs);
  EXPECT_EQ(qs.size(), 5u);
  for (double qe : qs) EXPECT_GE(qe, 1.0);
}

// Preorder walk pairing each ANALYZE line with its stats node.
void ExpectLinesEndWithCounters(const exec::OperatorStats& stats,
                                const std::vector<std::string>& lines,
                                size_t* next) {
  ASSERT_LT(*next, lines.size());
  const std::string& line = lines[(*next)++];
  const std::string counters = stats.CountersString();
  ASSERT_GE(line.size(), counters.size()) << line;
  EXPECT_EQ(line.substr(line.size() - counters.size()), counters) << line;
  for (const auto& c : stats.children) {
    ExpectLinesEndWithCounters(*c, lines, next);
  }
}

TEST(ExplainAnalyzeTest, SpilledSortAndHashLinesCarryTheirCounters) {
  // A sort over a hash join, both under a memory cap with spilling on: the
  // ANALYZE text shows every counter block the stats tree's own rendering
  // shows, node by node.
  Catalog cat;
  for (const char* t : {"t1", "t2"}) {
    ASSERT_TRUE(cat.CreateTable(t, {"k", "v"}).ok());
    for (int64_t i = 0; i < 300; ++i) {
      ASSERT_TRUE(cat.Insert(t, {I(i % 97), I(i)}).ok());
    }
  }
  NodePtr hash = Node::Join(
      Node::Leaf("t1"), Node::Leaf("t2"),
      Predicate(MakeAtom("t1", "k", CmpOp::kEq, "t2", "k")));
  NodePtr q =
      Node::Sort(hash, exec::SortSpec{{Attribute{"t1", "v"}, /*desc=*/false}});
  ResourceBudget budget;
  budget.WithMaxMemory(4 * 1024);
  exec::SpillConfig spill;
  ExecuteOptions xo;
  xo.budget = &budget;
  xo.spill = &spill;
  xo.bloom = exec::BloomMode::kForce;
  QueryOptimizer opt(cat);
  auto analyzed = ExplainAnalyze(q, cat, opt.cost_model(), xo);
  ASSERT_TRUE(analyzed.ok()) << analyzed.status().ToString();

  const std::string& text = analyzed->text;
  for (const char* block : {"hash{", "bloom{", "sort{", "spill{"}) {
    EXPECT_NE(text.find(block), std::string::npos) << block << "\n" << text;
  }
  std::vector<std::string> lines;
  size_t start = 0;
  for (size_t nl; (nl = text.find('\n', start)) != std::string::npos;
       start = nl + 1) {
    lines.push_back(text.substr(start, nl - start));
  }
  size_t next = 0;
  ExpectLinesEndWithCounters(*analyzed->stats, lines, &next);
  EXPECT_EQ(next, 4u);
}

TEST(ExplainAnalyzeTest, HonorsExecuteBudget) {
  Catalog cat = Example21Catalog();
  NodePtr q = Example21Query();
  QueryOptimizer opt(cat);
  ResourceBudget budget;
  budget.WithMaxRows(1);
  ExecuteOptions xo;
  xo.budget = &budget;
  auto analyzed = ExplainAnalyze(q, cat, opt.cost_model(), xo);
  ASSERT_FALSE(analyzed.ok());
  EXPECT_EQ(analyzed.status().code(), StatusCode::kResourceExhausted);
}

TEST(OptimizerCountersTest, OptimizeReportsSearchWork) {
  Catalog cat = Example21Catalog();
  NodePtr q = Example21Query();
  QueryOptimizer opt(cat);
  auto result = opt.Optimize(q);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_GT(result->counters.subplans_enumerated, 0u);
  EXPECT_GT(result->counters.dp_cells, 0u);
  EXPECT_GT(result->counters.plans_considered, 0u);
  EXPECT_EQ(result->counters.deadline_slack_us, -1);  // no budget set

  const std::string s = result->counters.ToString();
  EXPECT_NE(s.find("subplans="), std::string::npos) << s;
  EXPECT_NE(s.find("dp_cells="), std::string::npos) << s;
  EXPECT_NE(s.find("plans_considered="), std::string::npos) << s;
}

TEST(OptimizerCountersTest, DeadlineSlackReportedUnderBudget) {
  Catalog cat = Example21Catalog();
  NodePtr q = Example21Query();
  QueryOptimizer opt(cat);
  ResourceBudget budget;
  budget.WithDeadlineAfter(std::chrono::seconds(30));
  OptimizeOptions oo;
  oo.budget = &budget;
  auto result = opt.Optimize(q, oo);
  ASSERT_TRUE(result.ok());
  EXPECT_GE(result->counters.deadline_slack_us, 0);
  EXPECT_NE(result->counters.ToString().find("deadline_slack_us="),
            std::string::npos);
}

}  // namespace
}  // namespace gsopt
