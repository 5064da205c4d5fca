// SQL frontend: lexer, parser, binder, and end-to-end optimize+execute of
// the paper's SQL-level scenarios.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>

#include "algebra/execute.h"
#include "base/rng.h"
#include "core/optimizer.h"
#include "exec/sort.h"
#include "relational/datagen.h"
#include "sql/binder.h"
#include "sql/lexer.h"
#include "sql/parser.h"

namespace gsopt {
namespace {

using sql::Lex;
using sql::Parse;
using sql::ParseAndBind;

Value I(int64_t v) { return Value::Int(v); }

Catalog MakeCatalog() {
  Catalog cat;
  Rng rng(77);
  RandomRelationOptions opt;
  opt.num_rows = 12;
  opt.domain = 4;
  opt.null_fraction = 0.1;
  AddRandomTables(4, opt, &rng, &cat);
  return cat;
}

TEST(LexerTest, TokenizesKeywordsIdentsAndOperators) {
  auto toks = Lex("SELECT r1.a FROM r1 WHERE r1.a <= 3 AND r1.b <> 'x'");
  ASSERT_TRUE(toks.ok());
  EXPECT_EQ((*toks)[0].kind, sql::TokenKind::kKeyword);
  EXPECT_EQ((*toks)[0].text, "SELECT");
  EXPECT_EQ((*toks)[1].kind, sql::TokenKind::kIdent);
  bool saw_le = false, saw_ne = false, saw_str = false;
  for (const auto& t : *toks) {
    if (t.kind == sql::TokenKind::kPunct && t.text == "<=") saw_le = true;
    if (t.kind == sql::TokenKind::kPunct && t.text == "<>") saw_ne = true;
    if (t.kind == sql::TokenKind::kString && t.text == "x") saw_str = true;
  }
  EXPECT_TRUE(saw_le);
  EXPECT_TRUE(saw_ne);
  EXPECT_TRUE(saw_str);
}

TEST(LexerTest, NumbersIntegerAndDecimal) {
  auto toks = Lex("12 3.5");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].is_integer);
  EXPECT_FALSE((*toks)[1].is_integer);
  EXPECT_DOUBLE_EQ((*toks)[1].number, 3.5);
}

TEST(LexerTest, IntegersAreExactUpToInt64Max) {
  auto toks = Lex("9223372036854775807 9007199254740993 9223372036854775808");
  ASSERT_TRUE(toks.ok());
  EXPECT_TRUE((*toks)[0].is_integer);
  EXPECT_EQ((*toks)[0].integer, std::numeric_limits<int64_t>::max());
  EXPECT_TRUE((*toks)[1].is_integer);
  EXPECT_EQ((*toks)[1].integer, 9007199254740993);  // 2^53 + 1, not rounded
  EXPECT_FALSE((*toks)[2].is_integer);  // past int64: a double literal
  EXPECT_DOUBLE_EQ((*toks)[2].number, 9223372036854775808.0);
  EXPECT_FALSE(Parse("SELECT r1.a FROM r1 WHERE r1.a = $99999999999").ok());
  // Past the double range: inf, not an exception.
  const std::string huge = "1" + std::string(400, '0');
  auto inf = Lex(huge);
  ASSERT_TRUE(inf.ok());
  EXPECT_FALSE((*inf)[0].is_integer);
  EXPECT_TRUE(std::isinf((*inf)[0].number));
  EXPECT_FALSE(Parse("SELECT r1.a FROM r1 WHERE r1.a = $" + huge).ok());
}

TEST(LexerTest, RejectsBadCharacters) {
  EXPECT_FALSE(Lex("SELECT ;").ok());
  EXPECT_FALSE(Lex("SELECT 'oops").ok());
}

TEST(ParserTest, SimpleSelect) {
  auto q = Parse("SELECT r1.a, r1.b FROM r1 WHERE r1.a = 3");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->select.size(), 2u);
  EXPECT_EQ(q->where.size(), 1u);
}

TEST(ParserTest, JoinChainWithOuterJoins) {
  auto q = Parse(
      "SELECT * FROM r1 LEFT OUTER JOIN r2 ON r1.a = r2.a "
      "FULL JOIN r3 ON r2.b = r3.b AND r1.c = r3.c");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->from.size(), 1u);
  EXPECT_EQ(q->from[0]->kind, sql::SqlTableRef::Kind::kJoin);
  EXPECT_EQ(q->from[0]->join_kind, sql::SqlTableRef::JoinKind::kFull);
  EXPECT_EQ(q->from[0]->on.size(), 2u);
}

TEST(ParserTest, GroupByHavingAggregates) {
  auto q = Parse(
      "SELECT r1.a, COUNT(r1.b) AS c, SUM(r1.c) AS s FROM r1 "
      "GROUP BY r1.a HAVING COUNT(r1.b) > 2");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->group_by.size(), 1u);
  EXPECT_EQ(q->having.size(), 1u);
}

TEST(ParserTest, SubqueryWithAlias) {
  auto q = Parse(
      "SELECT v.c FROM (SELECT r1.a, COUNT(r1.b) AS c FROM r1 "
      "GROUP BY r1.a) AS v");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  EXPECT_EQ(q->from[0]->kind, sql::SqlTableRef::Kind::kSubquery);
  EXPECT_EQ(q->from[0]->alias, "v");
}

TEST(ParserTest, ErrorsOnMalformedInput) {
  EXPECT_FALSE(Parse("FROM r1").ok());
  EXPECT_FALSE(Parse("SELECT a FROM").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r1 WHERE").ok());
  EXPECT_FALSE(Parse("SELECT a FROM r1 extra").ok());
  EXPECT_FALSE(Parse("SELECT a FROM (SELECT b FROM r2)").ok());  // no alias
}

TEST(BinderTest, SimpleScanFilterProject) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind("SELECT r1.a, r1.b FROM r1 WHERE r1.a >= 1", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().size(), 2);
  for (const Tuple& t : rel->rows()) {
    EXPECT_FALSE(t.values[0].is_null());
    EXPECT_GE(t.values[0].AsInt(), 1);
  }
}

TEST(BinderTest, UnqualifiedColumnsResolveWhenUnique) {
  Catalog cat;
  GSOPT_CHECK(cat.CreateTable("t", {"x", "y"}).ok());
  GSOPT_CHECK(cat.Insert("t", {I(1), I(2)}).ok());
  auto tree = ParseAndBind("SELECT x FROM t WHERE y = 2", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->NumRows(), 1);
}

TEST(BinderTest, AmbiguousAndUnknownColumnsRejected) {
  Catalog cat = MakeCatalog();
  EXPECT_FALSE(
      ParseAndBind("SELECT a FROM r1 JOIN r2 ON r1.a = r2.a", cat).ok());
  EXPECT_FALSE(ParseAndBind("SELECT r1.zzz FROM r1", cat).ok());
  EXPECT_FALSE(ParseAndBind("SELECT r1.a FROM nosuch", cat).ok());
}

TEST(BinderTest, CommaJoinDistributesWherePredicates) {
  Catalog cat = MakeCatalog();
  auto t1 = ParseAndBind(
      "SELECT r1.a, r2.b FROM r1, r2 WHERE r1.a = r2.a AND r1.b >= 1", cat);
  ASSERT_TRUE(t1.ok()) << t1.status().ToString();
  auto t2 = ParseAndBind(
      "SELECT r1.a, r2.b FROM r1 JOIN r2 ON r1.a = r2.a WHERE r1.b >= 1",
      cat);
  ASSERT_TRUE(t2.ok());
  auto r1 = Execute(*t1, cat);
  auto r2 = Execute(*t2, cat);
  ASSERT_TRUE(r1.ok());
  ASSERT_TRUE(r2.ok());
  EXPECT_TRUE(Relation::BagEquals(*r1, *r2));
}

TEST(BinderTest, GroupByCountMatchesManualAlgebra) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind(
      "SELECT r1.a, COUNT(r1.b) AS c FROM r1 GROUP BY r1.a", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok());

  exec::GroupBySpec spec;
  spec.group_cols = {Attribute{"r1", "a"}};
  exec::AggSpec cnt;
  cnt.func = exec::AggFunc::kCount;
  cnt.input = Scalar::Column("r1", "b");
  cnt.out_rel = "q";
  cnt.out_name = "c";
  spec.aggs = {cnt};
  auto manual = Execute(Node::GroupBy(Node::Leaf("r1"), spec), cat);
  ASSERT_TRUE(manual.ok());
  EXPECT_EQ(rel->NumRows(), manual->NumRows());
}

TEST(BinderTest, HavingFiltersGroups) {
  Catalog cat;
  GSOPT_CHECK(cat.CreateTable("t", {"k", "v"}).ok());
  for (int i = 0; i < 5; ++i) {
    GSOPT_CHECK(cat.Insert("t", {I(i < 3 ? 1 : 2), I(i)}).ok());
  }
  auto tree = ParseAndBind(
      "SELECT t.k, COUNT(t.v) AS c FROM t GROUP BY t.k HAVING "
      "COUNT(t.v) >= 3",
      cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok());
  ASSERT_EQ(rel->NumRows(), 1);
  EXPECT_EQ(rel->row(0).values[0].AsInt(), 1);
  EXPECT_EQ(rel->row(0).values[1].AsInt(), 3);
}

TEST(BinderTest, ViewMergesAndOuterPredicateOnAggregate) {
  // The Example 1.1 pattern written in SQL: an aggregation view on the
  // null-supplying side of a LOJ with an ON predicate over the COUNT.
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind(
      "SELECT r1.a, r1.b FROM r1 LEFT JOIN "
      "(SELECT r2.a, COUNT(r2.b) AS cnt FROM r2 GROUP BY r2.a) AS v "
      "ON r1.a = v.a AND r1.b < 2 * v.cnt",
      cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto ref = Execute(*tree, cat);
  ASSERT_TRUE(ref.ok());

  // And it must be optimizable with all plans equivalent.
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(*tree, oo);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_GE(space->plans.size(), 1u);
  for (const PlanInfo& p : space->plans) {
    auto got = Execute(p.expr, cat);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *got)) << p.expr->ToString();
  }
}

TEST(BinderTest, FullSqlQueryOptimizesEquivalently) {
  Catalog cat = MakeCatalog();
  const char* kSql =
      "SELECT r1.a, r2.b, r3.c FROM "
      "r1 LEFT JOIN r2 ON r1.a = r2.a "
      "LEFT JOIN r3 ON r2.b = r3.b AND r1.c = r3.c "
      "JOIN r4 ON r4.a = r1.a";
  auto tree = ParseAndBind(kSql, cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto ref = Execute(*tree, cat);
  ASSERT_TRUE(ref.ok());
  QueryOptimizer opt(cat);
  OptimizeOptions oo;
  oo.prune = false;
  auto space = opt.EnumeratePlanSpace(*tree, oo);
  ASSERT_TRUE(space.ok()) << space.status().ToString();
  EXPECT_GT(space->plans.size(), 3u);
  for (const PlanInfo& p : space->plans) {
    auto got = Execute(p.expr, cat);
    ASSERT_TRUE(got.ok());
    EXPECT_TRUE(Relation::BagEquals(*ref, *got)) << p.expr->ToString();
  }
}

// An arithmetic join key that overflows int64 evaluates to the double
// result on every path: the reference evaluator and the optimized hash
// join's key terms agree, and a wrapped int64 (INT64_MIN) never matches.
TEST(BinderTest, OverflowingArithmeticJoinKeyMatchesReference) {
  constexpr int64_t kMax = std::numeric_limits<int64_t>::max();
  constexpr int64_t kMin = std::numeric_limits<int64_t>::min();
  Catalog cat;
  const Value two63 = Value::Double(9223372036854775808.0);
  ASSERT_TRUE(cat.Register("r1", MakeRelation("r1", {"a", "b"},
                                              {{I(1), I(0)},
                                               {I(-1), I(1)},
                                               {I(kMax), I(2)},
                                               {I(0), I(3)}}))
                  .ok());
  ASSERT_TRUE(cat.Register("r2", MakeRelation("r2", {"k"},
                                              {{two63},
                                               {I(kMin)},
                                               {I(kMax - 1)},
                                               {I(kMax)},
                                               {I(-2)}}))
                  .ok());
  ExecuteOptions reference;
  reference.batch = exec::BatchMode::kOff;
  for (const char* kind : {"JOIN", "LEFT JOIN"}) {
    const std::string sql = std::string("SELECT r1.b, r2.k FROM r1 ") + kind +
                            " r2 ON r1.a + 9223372036854775807 = r2.k";
    auto tree = ParseAndBind(sql, cat);
    ASSERT_TRUE(tree.ok()) << tree.status().ToString();
    auto ref = Execute(*tree, cat, reference);
    auto got = Execute(*tree, cat);
    ASSERT_TRUE(ref.ok() && got.ok()) << sql;
    EXPECT_TRUE(Relation::BagEquals(*ref, *got)) << sql;
    // b = 0 (2^63 as a double), 1 (INT64_MAX - 1) and 3 (INT64_MAX) match;
    // b = 2 overflows to 2^64 and matches nothing.
    int matched = 0;
    for (const Tuple& t : got->rows()) {
      matched += t.values[1].is_null() ? 0 : 1;
    }
    EXPECT_EQ(matched, 3) << sql;
    EXPECT_EQ(got->NumRows(), std::string(kind) == "JOIN" ? 3 : 4) << sql;
  }
}

TEST(ParserTest, OrderByDirectionsAndErrors) {
  auto q = Parse("SELECT r1.a FROM r1 ORDER BY r1.a DESC, r1.b ASC, r1.c");
  ASSERT_TRUE(q.ok()) << q.status().ToString();
  ASSERT_EQ(q->order_by.size(), 3u);
  EXPECT_TRUE(q->order_by[0].desc);
  EXPECT_FALSE(q->order_by[1].desc);
  EXPECT_FALSE(q->order_by[2].desc);
  // Only plain (optionally qualified) column keys are supported.
  EXPECT_FALSE(Parse("SELECT r1.a FROM r1 ORDER BY 1").ok());
  EXPECT_FALSE(Parse("SELECT r1.a FROM r1 ORDER BY r1.a + 1").ok());
}

TEST(BinderTest, OrderByMultiKeyExecutesSorted) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind(
      "SELECT r1.a, r1.b FROM r1 JOIN r2 ON r1.a = r2.a "
      "ORDER BY r1.a DESC, r1.b",
      cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  exec::SortSpec spec{{Attribute{"r1", "a"}, /*desc=*/true},
                      {Attribute{"r1", "b"}, /*desc=*/false}};
  EXPECT_TRUE(exec::CheckSorted(*rel, spec).ok());

  // Same bag as the unordered query: ORDER BY is an enforcer, not a filter.
  auto unordered = Execute(
      *ParseAndBind("SELECT r1.a, r1.b FROM r1 JOIN r2 ON r1.a = r2.a", cat),
      cat);
  ASSERT_TRUE(unordered.ok());
  EXPECT_TRUE(Relation::BagEquals(*unordered, *rel));
}

TEST(BinderTest, OrderByResolvesSelectAlias) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind("SELECT r1.a AS x FROM r1 ORDER BY x DESC", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  exec::SortSpec spec{{Attribute{"q", "x"}, /*desc=*/true}};
  EXPECT_TRUE(exec::CheckSorted(*rel, spec).ok());
}

TEST(BinderTest, OrderByAggregateAliasSortsGroups) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind(
      "SELECT r2.a, COUNT(r2.b) AS cnt FROM r2 GROUP BY r2.a "
      "ORDER BY cnt DESC, a",
      cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok()) << rel.status().ToString();
  exec::SortSpec spec{{Attribute{"q", "cnt"}, /*desc=*/true},
                      {Attribute{"q", "a"}, /*desc=*/false}};
  EXPECT_TRUE(exec::CheckSorted(*rel, spec).ok());
}

TEST(BinderTest, OrderByUnselectedColumnSortsBelowProjection) {
  // The sort key need not appear in the select list for non-aggregate
  // queries: the enforcer sits below the final projection.
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind("SELECT r1.b FROM r1 ORDER BY r1.a", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  EXPECT_TRUE(Execute(*tree, cat).ok());
}

TEST(BinderTest, OrderByRejectedInsideSubquery) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind(
      "SELECT v.a FROM (SELECT r1.a FROM r1 ORDER BY r1.a) AS v", cat);
  ASSERT_FALSE(tree.ok());
  EXPECT_NE(tree.status().message().find("outermost"), std::string::npos);
}

TEST(BinderTest, StarSelect) {
  Catalog cat = MakeCatalog();
  auto tree = ParseAndBind("SELECT * FROM r1 JOIN r2 ON r1.a = r2.a", cat);
  ASSERT_TRUE(tree.ok()) << tree.status().ToString();
  auto rel = Execute(*tree, cat);
  ASSERT_TRUE(rel.ok());
  EXPECT_EQ(rel->schema().size(), 6);
}

}  // namespace
}  // namespace gsopt
