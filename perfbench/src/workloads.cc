#include "workloads.h"

#include <unordered_set>
#include <utility>

#include "algebra/execute.h"
#include "base/budget.h"
#include "base/check.h"
#include "core/plan_cache.h"
#include "enumerate/random_query.h"
#include "relational/datagen.h"
#include "sql/binder.h"
#include "testing/sql_emit.h"

namespace perfbench {

using gsopt::Catalog;
using gsopt::Rng;
using gsopt::Value;

namespace {

// serve_warm data: about 2400 rows per fact table, join keys uniform over
// a domain of a third of that, as in the Example 2.1 plan-cache benchmark.
constexpr int64_t kWarmRows = 2400;
constexpr int64_t kWarmDomain = kWarmRows / 3 + 2;
constexpr int64_t kSuppliers = 800;
constexpr int64_t kParts = 6;
constexpr int64_t kMaxQty = 30;
constexpr int64_t kRatings = 5;

// A table whose column i holds uniform integers in [0, domains[i]).
void AddTable(const std::string& name, const std::vector<std::string>& cols,
              const std::vector<int64_t>& domains, int64_t rows, Rng* rng,
              Catalog* catalog) {
  std::vector<std::vector<Value>> data(static_cast<size_t>(rows));
  for (std::vector<Value>& row : data) {
    for (int64_t domain : domains) {
      row.push_back(Value::Int(rng->Uniform(0, domain - 1)));
    }
  }
  GSOPT_CHECK(
      catalog->Register(name, gsopt::MakeRelation(name, cols, data)).ok());
}

std::vector<int64_t> Repeat(int64_t domain, size_t n) {
  return std::vector<int64_t>(n, domain);
}

}  // namespace

const std::vector<WarmStatement>& WarmStatements() {
  // $1 is drawn from fixed sets so that every seed sees the same spread of
  // filter selectivities; the seed picks the order of the draws.
  static const std::vector<WarmStatement> kStatements = {
      {"example21",
       "SELECT * FROM r1 LEFT JOIN r2 ON r1.c = r2.c "
       "LEFT JOIN r3 ON r1.f = r3.f AND r2.e = r3.e "
       "WHERE r1.a <= $1",
       {50, 150, 250, 350, 450, 550, 650, 750}},
      {"q4",
       "SELECT * FROM t1 LEFT JOIN (t2 LEFT JOIN "
       "((t4 JOIN t5 ON t4.c = t5.c) JOIN t3 ON t5.a = t3.a) "
       "ON t2.a = t4.a AND t2.b = t5.b) ON t1.a = t2.a "
       "WHERE t1.b <= $1",
       {50, 150, 250, 350, 450, 550, 650, 750}},
      {"example11",
       "SELECT agg94.supkey, agg94.partkey, agg94.qty, v.cnt "
       "FROM agg94 JOIN sup ON agg94.supkey = sup.supkey "
       "LEFT JOIN (SELECT detail95.supkey, detail95.partkey, "
       "COUNT(detail95.qty) AS cnt FROM detail95 "
       "GROUP BY detail95.supkey, detail95.partkey) AS v "
       "ON agg94.supkey = v.supkey AND agg94.partkey = v.partkey "
       "AND agg94.qty < 2 * v.cnt "
       "WHERE sup.rating = $1",
       {0, 1, 2, 3, 4}},
  };
  return kStatements;
}

Catalog MakeWarmCatalog(uint64_t seed) {
  Catalog catalog;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 11);
  // Example 2.1: p12 = r1.c=r2.c, p13 = r1.f=r3.f, p23 = r2.e=r3.e.
  AddTable("r1", {"a", "b", "c", "f"}, Repeat(kWarmDomain, 4), kWarmRows,
           &rng, &catalog);
  AddTable("r2", {"c", "d", "e"}, Repeat(kWarmDomain, 3), kWarmRows / 2 + 1,
           &rng, &catalog);
  AddTable("r3", {"e", "f"}, Repeat(kWarmDomain, 2), kWarmRows / 2 + 1, &rng,
           &catalog);
  // Q4 = t1 ->p12 (t2 ->p24^p25 ((t4 JOIN_p45 t5) JOIN_p35 t3)).
  for (int t = 1; t <= 5; ++t) {
    std::string name = "t";
    name += std::to_string(t);
    AddTable(name, {"a", "b", "c"}, Repeat(kWarmDomain, 3),
             t <= 2 ? kWarmRows : kWarmRows / 2, &rng, &catalog);
  }
  // Example 1.1: 94AGG, 95DETAIL and SUP_DETAIL.
  AddTable("agg94", {"supkey", "partkey", "qty"}, {kSuppliers, kParts, kMaxQty},
           kWarmRows, &rng, &catalog);
  AddTable("detail95", {"supkey", "partkey", "qty"},
           {kSuppliers, kParts, kMaxQty}, kWarmRows, &rng, &catalog);
  AddTable("sup", {"supkey", "rating"}, {kSuppliers, kRatings}, kSuppliers,
           &rng, &catalog);
  return catalog;
}

gsopt::Status InsertWarmRow(uint64_t n, Rng* rng, Catalog* catalog) {
  auto u = [rng](int64_t domain) {
    return Value::Int(rng->Uniform(0, domain - 1));
  };
  const int64_t d = kWarmDomain;
  switch (n % 3) {
    case 0:
      return catalog->Insert("r1", {u(d), u(d), u(d), u(d)});
    case 1:
      return catalog->Insert("t1", {u(d), u(d), u(d)});
    default:
      return catalog->Insert("agg94", {u(kSuppliers), u(kParts), u(kMaxQty)});
  }
}

// --- plan_cold -------------------------------------------------------------

namespace {

constexpr int kColdTables = 7;
constexpr int64_t kColdRows = 6;
constexpr int64_t kColdDomain = 6;
constexpr double kColdNullFraction = 0.1;

// General-class generation: 5-7 relations, LOJ/FOJ, complex predicates,
// GROUP BY views whose aggregate feeds ON predicates. The pool is
// stratified so every seed gets the same mix: the k-th kept text has
// 5 + k % 3 relations, and every other triple asks for a view.
gsopt::RandomQueryOptions ColdQueryOptions(size_t kept) {
  gsopt::RandomQueryOptions q;
  q.num_rels = 5 + static_cast<int>(kept % 3);
  q.loj_prob = 0.35;
  q.foj_prob = 0.08;
  q.extra_atom_prob = 0.5;
  q.dup_pair_prob = 0.15;
  q.view_prob = (kept / 3) % 2 == 0 ? 1.0 : 0.0;
  q.agg_pred_prob = 0.65;
  q.distinct_prob = 0.3;
  q.agg_arith_prob = 0.3;
  q.order_by_prob = 0.0;
  return q;
}

}  // namespace

Catalog MakeColdCatalog(uint64_t seed) {
  Catalog catalog;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 23);
  gsopt::RandomRelationOptions opt;
  opt.num_rows = kColdRows;
  opt.domain = kColdDomain;
  opt.null_fraction = kColdNullFraction;
  gsopt::AddRandomTables(kColdTables, opt, &rng, &catalog);
  return catalog;
}

ColdPool MakeColdPool(uint64_t seed, const Catalog& catalog, size_t size) {
  ColdPool pool;
  Rng rng(seed * 0x9E3779B97F4A7C15ull + 37);
  std::unordered_set<uint64_t> shapes;
  // A generous attempt cap keeps a pathological seed from looping forever.
  while (pool.texts.size() < size && pool.generated < 8 * size) {
    ++pool.generated;
    gsopt::RandomQueryOptions q = ColdQueryOptions(pool.texts.size());
    gsopt::NodePtr tree = gsopt::MakeGeneralRandomQuery(q, &rng);
    auto emitted = gsopt::testing::EmitSql(tree, catalog);
    if (!emitted.ok()) {
      ++pool.dropped_unemittable;
      continue;
    }
    auto bound = gsopt::sql::ParseAndBind(emitted->sql, catalog);
    if (!bound.ok()) {
      ++pool.dropped_unemittable;
      continue;
    }
    if (!shapes.insert(gsopt::ParameterizeQuery(*bound).fingerprint).second) {
      ++pool.dropped_duplicate;
      continue;
    }
    gsopt::ResourceBudget budget;
    budget.WithMaxRows(kColdMaxReferenceRows);
    auto reference = gsopt::Execute(
        emitted->reference, catalog,
        gsopt::ExecuteOptions{}.WithBudget(&budget));
    if (!reference.ok() || reference->NumRows() > kColdMaxAnswerRows) {
      ++pool.dropped_row_bound;
      continue;
    }
    ColdText text;
    text.sql = std::move(emitted->sql);
    text.digest = DigestOf(*reference);
    text.reference = std::move(reference).value();
    pool.texts.push_back(std::move(text));
  }
  return pool;
}

}  // namespace perfbench
