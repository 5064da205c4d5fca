// Interactive SQL shell over CSV files, served through gsopt::Session --
// every query goes through the sharded plan cache, so repeating a query
// shape (even with different literals) skips the plan search.
//
//   $ ./sql_shell data1.csv data2.csv ...
//   gsopt> SELECT * FROM data1 LEFT JOIN data2 ON data1.k = data2.k
//   gsopt> \explain SELECT ...
//   gsopt> \analyze SELECT ...       (EXPLAIN ANALYZE: execute + actuals)
//   gsopt> \plans  SELECT ...        (enumerate the full plan space)
//   gsopt> \prepare q1 SELECT * FROM data1 WHERE data1.k = $1
//   gsopt> EXECUTE q1 7              (bind $1..$n and run the template)
//   gsopt> \cache                    (plan-cache hit/miss/eviction stats)
//   gsopt> \timeout 250              (per-query budget in ms; 0 = off)
//   gsopt> \memory 65536             (operator-state cap in bytes; spills
//                                     to disk past it; 0 = uncapped)
//   gsopt> \tables
//   gsopt> \q
//
// Each CSV becomes a table named after its basename (without extension).
// Cache misses optimize (simplify -> normalize -> hypergraph -> enumerate
// -> cost) under a per-query resource budget: when the deadline trips
// mid-search the optimizer falls back to the as-written plan and the
// shell reports which rung answered. Cache hits re-instantiate the cached
// template and spend the whole budget on execution.
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <vector>

#include "algebra/explain.h"
#include "base/budget.h"
#include "core/session.h"
#include "exec/eval.h"
#include "relational/csv.h"
#include "sql/binder.h"

using namespace gsopt;  // NOLINT: example brevity

namespace {

// Per-query wall-clock budget; generous default so only hostile queries
// degrade. 0 disables governance entirely.
long long g_timeout_ms = 10000;

// Operator-state memory cap (\memory N, bytes; 0 = uncapped). Capping also
// enables spill-to-disk, so a query that outgrows the cap degrades to the
// out-of-core path instead of failing -- \analyze shows its spill{...}
// counters.
long long g_memory_bytes = 0;
exec::SpillConfig g_spill;

std::string BaseName(const std::string& path) {
  size_t slash = path.find_last_of('/');
  std::string name = slash == std::string::npos ? path
                                                : path.substr(slash + 1);
  size_t dot = name.find_last_of('.');
  if (dot != std::string::npos) name = name.substr(0, dot);
  return name;
}

enum class QueryMode { kExecute, kExplain, kAnalyze, kPlans };

void PrintOptimizerLine(const PreparedStatement& stmt) {
  std::printf("optimizer: rung=%s cache=%s %s\n",
              FallbackRungName(stmt.degradation().rung).c_str(),
              stmt.cache_hit() ? "hit" : "miss",
              stmt.counters().ToString().c_str());
  if (stmt.degradation().degraded()) {
    std::printf("warning: degraded under budget (%s)\n",
                stmt.degradation().ToString().c_str());
  }
}

void RunQuery(const std::string& text, Session& session, QueryMode mode) {
  ResourceBudget budget;
  if (g_timeout_ms > 0) {
    budget.WithDeadlineAfter(std::chrono::milliseconds(g_timeout_ms));
  }
  ResourceBudget* bp = g_timeout_ms > 0 ? &budget : nullptr;
  const Catalog& cat = session.catalog();

  if (mode == QueryMode::kPlans) {
    // Plan-space dissection bypasses the cache on purpose: the point is
    // to see the search, not to skip it.
    auto tree = sql::ParseAndBind(text, cat);
    if (!tree.ok()) {
      std::printf("error: %s\n", tree.status().ToString().c_str());
      return;
    }
    auto opt = session.optimizer();
    auto space = opt->EnumeratePlanSpace(
        *tree, OptimizeOptions{}.WithPrune(false).WithBudget(bp));
    if (!space.ok()) {
      std::printf("error: %s\n", space.status().ToString().c_str());
      return;
    }
    std::printf("%zu plans%s:\n", space->plans.size(),
                space->truncated ? " (space truncated by budget)" : "");
    for (const PlanInfo& p : space->plans) {
      std::printf("  cost=%-12.0f %s\n", p.cost, p.expr->ToString().c_str());
    }
    return;
  }

  auto stmt = session.Prepare(text, bp);
  if (!stmt.ok()) {
    std::printf("error: %s\n", stmt.status().ToString().c_str());
    return;
  }
  if (stmt->num_params() > 0) {
    std::printf("error: query has %d parameter(s); use \\prepare + EXECUTE\n",
                stmt->num_params());
    return;
  }
  if (mode == QueryMode::kExplain) {
    PrintOptimizerLine(*stmt);
    auto plan = stmt->ExecutablePlan({});
    if (!plan.ok()) {
      std::printf("error: %s\n", plan.status().ToString().c_str());
      return;
    }
    std::printf("chosen plan (cost %.0f):\n", stmt->plan_cost());
    std::printf("%s", Explain(*plan, session.optimizer()->cost_model())
                          .c_str());
    return;
  }
  // Execution gets its own allowance: a budget-starved optimization has
  // already spent the deadline degrading, and the point of the fallback
  // is that the plan it landed on still answers.
  ResourceBudget exec_budget;
  ExecuteOptions xo;
  if (g_timeout_ms > 0) {
    exec_budget.WithDeadlineAfter(std::chrono::milliseconds(g_timeout_ms));
    xo.WithBudget(&exec_budget);
  }
  if (g_memory_bytes > 0) {
    exec_budget.WithMaxMemory(static_cast<uint64_t>(g_memory_bytes));
    xo.WithBudget(&exec_budget).WithSpill(&g_spill);
  }
  if (mode == QueryMode::kAnalyze) {
    PrintOptimizerLine(*stmt);
    std::printf("plan cache: %s\n", session.cache_stats().ToString().c_str());
    // One serving execution with collect_stats: the QueryResult carries
    // the stats tree, so \analyze no longer re-executes through a
    // side-channel stats pointer.
    auto analyzed = stmt->Execute(xo.WithCollectStats());
    if (!analyzed.ok()) {
      std::printf("error: %s\n", analyzed.status().ToString().c_str());
      return;
    }
    std::printf("%s(%lld rows)\n",
                AnalyzeText(analyzed->plan, session.optimizer()->cost_model(),
                            analyzed->stats.get())
                    .c_str(),
                static_cast<long long>(analyzed->rows.NumRows()));
    return;
  }
  auto result = stmt->Execute(xo);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  if (result->degradation.degraded()) {
    std::printf("warning: degraded under budget (%s)\n",
                result->degradation.ToString().c_str());
  }
  std::printf("%s", ToCsv(result->rows).c_str());
  // Prepare-time hit: did this statement skip the plan search? (The
  // Execute result's cache_hit is template reuse, true by construction.)
  std::printf("(%lld rows%s)\n",
              static_cast<long long>(result->rows.NumRows()),
              stmt->cache_hit() ? ", plan cached" : "");
}

// Parses an EXECUTE argument list: comma-separated integers, doubles,
// 'quoted strings' or NULL.
bool ParseParams(const std::string& text, std::vector<Value>* out) {
  size_t i = 0;
  auto skip_ws = [&] { while (i < text.size() && text[i] == ' ') ++i; };
  skip_ws();
  while (i < text.size()) {
    if (text[i] == '\'') {
      size_t end = text.find('\'', i + 1);
      if (end == std::string::npos) return false;
      out->push_back(Value::String(text.substr(i + 1, end - i - 1)));
      i = end + 1;
    } else {
      size_t end = text.find(',', i);
      std::string tok = text.substr(i, end == std::string::npos
                                           ? std::string::npos
                                           : end - i);
      while (!tok.empty() && tok.back() == ' ') tok.pop_back();
      if (tok.empty()) return false;
      if (tok == "NULL" || tok == "null") {
        out->push_back(Value::Null());
      } else if (tok.find_first_of(".eE") != std::string::npos &&
                 tok.find_first_not_of("+-.0123456789eE") ==
                     std::string::npos) {
        out->push_back(Value::Double(std::atof(tok.c_str())));
      } else if (tok.find_first_not_of("+-0123456789") ==
                 std::string::npos) {
        out->push_back(Value::Int(std::atoll(tok.c_str())));
      } else {
        out->push_back(Value::String(tok));
      }
      i = end == std::string::npos ? text.size() : end;
    }
    skip_ws();
    if (i < text.size()) {
      if (text[i] != ',') return false;
      ++i;
      skip_ws();
    }
  }
  return true;
}

void RunExecute(const std::string& rest,
                std::map<std::string, PreparedStatement>& statements) {
  size_t sp = rest.find(' ');
  std::string name = rest.substr(0, sp);
  auto it = statements.find(name);
  if (it == statements.end()) {
    std::printf("error: no prepared statement '%s' (use \\prepare)\n",
                name.c_str());
    return;
  }
  std::vector<Value> params;
  if (sp != std::string::npos &&
      !ParseParams(rest.substr(sp + 1), &params)) {
    std::printf("error: could not parse parameter list\n");
    return;
  }
  ResourceBudget exec_budget;
  ExecuteOptions xo;
  if (g_timeout_ms > 0) {
    exec_budget.WithDeadlineAfter(std::chrono::milliseconds(g_timeout_ms));
    xo.WithBudget(&exec_budget);
  }
  if (g_memory_bytes > 0) {
    exec_budget.WithMaxMemory(static_cast<uint64_t>(g_memory_bytes));
    xo.WithBudget(&exec_budget).WithSpill(&g_spill);
  }
  auto result = it->second.Execute(std::move(params), xo);
  if (!result.ok()) {
    std::printf("error: %s\n", result.status().ToString().c_str());
    return;
  }
  std::printf("%s", ToCsv(result->rows).c_str());
  std::printf("(%lld rows%s)\n",
              static_cast<long long>(result->rows.NumRows()),
              result->cache_hit ? ", cached template" : "");
}

}  // namespace

int main(int argc, char** argv) {
  Catalog cat;
  for (int i = 1; i < argc; ++i) {
    std::string table = BaseName(argv[i]);
    Status st = LoadCsvFile(argv[i], table, &cat);
    if (!st.ok()) {
      std::printf("failed to load %s: %s\n", argv[i], st.ToString().c_str());
      return 1;
    }
    std::printf("loaded %s as table '%s' (%lld rows)\n", argv[i],
                table.c_str(),
                static_cast<long long>(cat.Find(table)->NumRows()));
  }
  if (argc < 2) {
    std::printf("usage: sql_shell <file.csv> [more.csv ...]\n");
    return 1;
  }

  Session session(cat);
  std::map<std::string, PreparedStatement> statements;

  std::string line;
  std::printf("gsopt> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "\\q" || line == "quit" || line == "exit") break;
    if (line == "\\tables") {
      for (const std::string& t : cat.TableNames()) {
        const Relation* r = cat.Find(t);
        std::printf("  %s %s (%lld rows)\n", t.c_str(),
                    r->schema().ToString().c_str(),
                    static_cast<long long>(r->NumRows()));
      }
    } else if (line == "\\cache") {
      std::printf("plan cache: %s\n",
                  session.cache_stats().ToString().c_str());
    } else if (line.rfind("\\timeout ", 0) == 0) {
      g_timeout_ms = std::atoll(line.substr(9).c_str());
      if (g_timeout_ms > 0) {
        std::printf("per-query budget: %lld ms\n", g_timeout_ms);
      } else {
        std::printf("per-query budget disabled\n");
      }
    } else if (line.rfind("\\memory ", 0) == 0) {
      g_memory_bytes = std::atoll(line.substr(8).c_str());
      if (g_memory_bytes > 0) {
        std::printf(
            "operator-state cap: %lld bytes (spill-to-disk enabled)\n",
            g_memory_bytes);
      } else {
        std::printf("operator-state cap disabled\n");
      }
    } else if (line.rfind("\\prepare ", 0) == 0) {
      std::string rest = line.substr(9);
      size_t sp = rest.find(' ');
      if (sp == std::string::npos) {
        std::printf("usage: \\prepare <name> <SELECT ...>\n");
      } else {
        std::string name = rest.substr(0, sp);
        auto stmt = session.Prepare(rest.substr(sp + 1));
        if (!stmt.ok()) {
          std::printf("error: %s\n", stmt.status().ToString().c_str());
        } else {
          std::printf("prepared '%s' (%d parameter(s), cache %s)\n",
                      name.c_str(), stmt->num_params(),
                      stmt->cache_hit() ? "hit" : "miss");
          statements.insert_or_assign(std::move(name), std::move(*stmt));
        }
      }
    } else if (line.rfind("EXECUTE ", 0) == 0) {
      RunExecute(line.substr(8), statements);
    } else if (line.rfind("execute ", 0) == 0) {
      RunExecute(line.substr(8), statements);
    } else if (line.rfind("\\explain ", 0) == 0) {
      RunQuery(line.substr(9), session, QueryMode::kExplain);
    } else if (line.rfind("\\analyze ", 0) == 0) {
      RunQuery(line.substr(9), session, QueryMode::kAnalyze);
    } else if (line.rfind("\\plans ", 0) == 0) {
      RunQuery(line.substr(7), session, QueryMode::kPlans);
    } else if (!line.empty()) {
      RunQuery(line, session, QueryMode::kExecute);
    }
    std::printf("gsopt> ");
    std::fflush(stdout);
  }
  std::printf("\n");
  return 0;
}
