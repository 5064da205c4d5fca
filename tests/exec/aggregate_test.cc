#include "exec/aggregate.h"

#include <gtest/gtest.h>

#include "exec/eval.h"
#include "relational/datagen.h"

namespace gsopt {
namespace {

using exec::AggFunc;
using exec::AggSpec;
using exec::GeneralizedProjection;
using exec::GroupBySpec;

Value I(int64_t v) { return Value::Int(v); }
Value N() { return Value::Null(); }

Relation Sales() {
  return MakeRelation("s", {"k", "v"},
                      {{I(1), I(10)},
                       {I(1), I(20)},
                       {I(2), I(5)},
                       {I(2), N()},
                       {I(3), N()}});
}

AggSpec Agg(AggFunc f, bool distinct = false) {
  AggSpec a;
  a.func = f;
  a.distinct = distinct;
  if (f != AggFunc::kCountStar) a.input = Scalar::Column("s", "v");
  a.out_rel = "q";
  a.out_name = "agg";
  return a;
}

GroupBySpec ByK(AggSpec agg) {
  GroupBySpec spec;
  spec.group_cols = {Attribute{"s", "k"}};
  spec.aggs = {std::move(agg)};
  return spec;
}

int64_t GroupValue(const Relation& r, int64_t k) {
  for (const Tuple& t : r.rows()) {
    if (!t.values[0].is_null() && t.values[0].AsInt() == k) {
      return t.values[1].is_null() ? -999 : t.values[1].AsInt();
    }
  }
  return -1000;
}

TEST(GeneralizedProjectionTest, CountStarCountsRows) {
  Relation g = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kCountStar)));
  EXPECT_EQ(g.NumRows(), 3);
  EXPECT_EQ(GroupValue(g, 1), 2);
  EXPECT_EQ(GroupValue(g, 2), 2);
  EXPECT_EQ(GroupValue(g, 3), 1);
}

TEST(GeneralizedProjectionTest, CountColumnSkipsNulls) {
  Relation g = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kCount)));
  EXPECT_EQ(GroupValue(g, 1), 2);
  EXPECT_EQ(GroupValue(g, 2), 1);
  EXPECT_EQ(GroupValue(g, 3), 0);  // all inputs NULL -> COUNT = 0
}

TEST(GeneralizedProjectionTest, SumSkipsNullsAndEmptyIsNull) {
  Relation g = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kSum)));
  EXPECT_EQ(GroupValue(g, 1), 30);
  EXPECT_EQ(GroupValue(g, 2), 5);
  EXPECT_EQ(GroupValue(g, 3), -999);  // SUM over all-NULL group is NULL
}

TEST(GeneralizedProjectionTest, MinMax) {
  Relation gmin = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kMin)));
  Relation gmax = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kMax)));
  EXPECT_EQ(GroupValue(gmin, 1), 10);
  EXPECT_EQ(GroupValue(gmax, 1), 20);
  EXPECT_EQ(GroupValue(gmin, 3), -999);  // NULL
}

TEST(GeneralizedProjectionTest, Avg) {
  Relation g = *GeneralizedProjection(Sales(), ByK(Agg(AggFunc::kAvg)));
  for (const Tuple& t : g.rows()) {
    if (t.values[0].AsInt() == 1) {
      EXPECT_DOUBLE_EQ(t.values[1].AsDouble(), 15.0);
    }
  }
}

TEST(GeneralizedProjectionTest, CountDistinct) {
  Relation r = MakeRelation("s", {"k", "v"},
                            {{I(1), I(7)}, {I(1), I(7)}, {I(1), I(8)}});
  Relation g =
      *GeneralizedProjection(r, ByK(Agg(AggFunc::kCount, /*distinct=*/true)));
  EXPECT_EQ(GroupValue(g, 1), 2);
}

TEST(GeneralizedProjectionTest, SumDistinct) {
  Relation r = MakeRelation("s", {"k", "v"},
                            {{I(1), I(7)}, {I(1), I(7)}, {I(1), I(8)}});
  Relation g =
      *GeneralizedProjection(r, ByK(Agg(AggFunc::kSum, /*distinct=*/true)));
  EXPECT_EQ(GroupValue(g, 1), 15);
}

TEST(GeneralizedProjectionTest, NullGroupKeysFormOneGroup) {
  // SQL GROUP BY treats NULLs as equal.
  Relation r = MakeRelation("s", {"k", "v"}, {{N(), I(1)}, {N(), I(2)}});
  Relation g = *GeneralizedProjection(r, ByK(Agg(AggFunc::kCountStar)));
  EXPECT_EQ(g.NumRows(), 1);
  EXPECT_EQ(g.row(0).values[1].AsInt(), 2);
}

TEST(GeneralizedProjectionTest, ExactlyEqualIntAndDoubleFormOneGroup) {
  // int 2^54 and double 2^54 are equal (IdentityEquals), so they group
  // together on both the optimized and the reference feed; int 2^53+1
  // stays apart from the double 2^53 it would round to.
  const int64_t two53 = int64_t{1} << 53;
  Relation r = MakeRelation(
      "s", {"k", "v"},
      {{I(2 * two53), I(1)},
       {Value::Double(static_cast<double>(2 * two53)), I(2)},
       {I(two53 + 1), I(3)},
       {Value::Double(static_cast<double>(two53)), I(4)}});
  exec::ExecContext reference;
  reference.batch = exec::BatchMode::kOff;
  for (const exec::ExecContext& ctx : {exec::ExecContext{}, reference}) {
    Relation g = *GeneralizedProjection(r, ByK(Agg(AggFunc::kCountStar)), ctx);
    EXPECT_EQ(g.NumRows(), 3);
    for (const Tuple& t : g.rows()) {
      int64_t want = Value::IdentityEquals(t.values[0], I(2 * two53)) ? 2 : 1;
      EXPECT_EQ(t.values[1].AsInt(), want) << t.values[0].ToString();
    }
  }
}

TEST(GeneralizedProjectionTest, NoAggregatesIsSelectDistinct) {
  Relation r = MakeRelation("s", {"k", "v"},
                            {{I(1), I(9)}, {I(1), I(8)}, {I(2), I(7)}});
  GroupBySpec spec;
  spec.group_cols = {Attribute{"s", "k"}};
  Relation g = *GeneralizedProjection(r, spec);
  EXPECT_EQ(g.NumRows(), 2);
  EXPECT_EQ(g.schema().size(), 1);
}

TEST(GeneralizedProjectionTest, GroupOnVirtualAttributeKeepsBaseRows) {
  // Example 3.1 style: grouping on V(r3) (plus r3's columns) keeps one
  // output row per r3 base row even when real attribute values collide.
  Relation r3 = MakeRelation("r3", {"e"}, {{I(1)}, {I(1)}});
  GroupBySpec spec;
  spec.group_cols = {Attribute{"r3", "e"}};
  spec.group_vid_rels = {"r3"};
  AggSpec cnt;
  cnt.func = AggFunc::kCountStar;
  cnt.out_rel = "q";
  cnt.out_name = "c";
  spec.aggs = {cnt};
  Relation g = *GeneralizedProjection(r3, spec);
  EXPECT_EQ(g.NumRows(), 2);  // virtual attr separates the duplicates
  // r3's grouping vid plus the synthetic per-group vid under "q".
  EXPECT_EQ(g.vschema().size(), 2);
  EXPECT_EQ(g.vschema().rel(0), "r3");
  EXPECT_EQ(g.vschema().rel(1), "q");
  EXPECT_EQ(g.row(0).vids[1], 0);
  EXPECT_EQ(g.row(1).vids[1], 1);
}

TEST(GeneralizedProjectionTest, CountOverOuterJoinPaddingIsZero) {
  // The pattern unnesting relies on (paper §1.1): LOJ then COUNT(key of the
  // null-supplying side) yields 0 for unmatched preserved tuples, exactly
  // the COUNT-bug-safe behaviour.
  Relation a = MakeRelation("a", {"k"}, {{I(1)}, {I(2)}});
  Relation b = MakeRelation("b", {"k"}, {{I(1)}, {I(1)}});
  Predicate p(MakeAtom("a", "k", CmpOp::kEq, "b", "k"));
  Relation loj = *exec::LeftOuterJoin(a, b, p);
  GroupBySpec spec;
  spec.group_cols = {Attribute{"a", "k"}};
  AggSpec cnt;
  cnt.func = AggFunc::kCount;
  cnt.input = Scalar::Column("b", "k");
  cnt.out_rel = "q";
  cnt.out_name = "c";
  spec.aggs = {cnt};
  Relation g = *GeneralizedProjection(loj, spec);
  EXPECT_EQ(g.NumRows(), 2);
  for (const Tuple& t : g.rows()) {
    int64_t k = t.values[0].AsInt();
    int64_t c = t.values[1].AsInt();
    EXPECT_EQ(c, k == 1 ? 2 : 0);
  }
}

TEST(GeneralizedProjectionTest, MultipleAggregates) {
  GroupBySpec spec;
  spec.group_cols = {Attribute{"s", "k"}};
  AggSpec c1 = Agg(AggFunc::kCount);
  c1.out_name = "cnt";
  AggSpec c2 = Agg(AggFunc::kSum);
  c2.out_name = "total";
  spec.aggs = {c1, c2};
  Relation g = *GeneralizedProjection(Sales(), spec);
  EXPECT_EQ(g.schema().size(), 3);
  EXPECT_EQ(g.NumRows(), 3);
}

TEST(DuplicateInsensitivityTest, Classification) {
  // delta vs pi in the paper's terminology.
  EXPECT_TRUE(exec::IsDuplicateInsensitive(AggFunc::kMin, false));
  EXPECT_TRUE(exec::IsDuplicateInsensitive(AggFunc::kMax, false));
  EXPECT_TRUE(exec::IsDuplicateInsensitive(AggFunc::kCount, true));
  EXPECT_TRUE(exec::IsDuplicateInsensitive(AggFunc::kSum, true));
  EXPECT_FALSE(exec::IsDuplicateInsensitive(AggFunc::kCount, false));
  EXPECT_FALSE(exec::IsDuplicateInsensitive(AggFunc::kSum, false));
  EXPECT_FALSE(exec::IsDuplicateInsensitive(AggFunc::kCountStar, false));
}

TEST(GroupBySpecTest, ToStringMentionsPieces) {
  GroupBySpec spec = ByK(Agg(AggFunc::kCount));
  std::string s = spec.ToString();
  EXPECT_NE(s.find("s.k"), std::string::npos);
  EXPECT_NE(s.find("COUNT"), std::string::npos);
}

}  // namespace
}  // namespace gsopt
