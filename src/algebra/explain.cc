#include "algebra/explain.h"

#include <algorithm>
#include <cstdio>
#include <vector>

namespace gsopt {

namespace {

std::string OneLine(const Node& n) {
  switch (n.kind()) {
    case OpKind::kLeaf:
      return "scan " + n.table();
    case OpKind::kSelect:
      return "SELECT[" + n.pred().ToString() + "]";
    case OpKind::kProject: {
      std::string s = "PROJECT[";
      const auto& outs = n.projection_out();
      for (size_t i = 0; i < outs.size(); ++i) {
        if (i) s += ", ";
        s += outs[i].Qualified();
      }
      return s + "]";
    }
    case OpKind::kGroupBy:
      return n.groupby().ToString();
    case OpKind::kGeneralizedSelection: {
      std::string s = "GS[" + n.pred().ToString() + ";";
      for (const auto& g : n.groups()) {
        s += " {";
        bool first = true;
        for (const auto& rel : g) {
          if (!first) s += " ";
          s += rel;
          first = false;
        }
        s += "}";
      }
      return s + "]";
    }
    case OpKind::kMgoj: {
      std::string s = "MGOJ[" + n.pred().ToString() + "]";
      return s;
    }
    case OpKind::kSort:
      return "SORT[" + exec::SortSpecToString(n.sort_spec()) + "]";
    default:
      return OpKindName(n.kind()) + "[" + n.pred().ToString() + "]";
  }
}

void Render(const NodePtr& n, const CostModel& model, int depth,
            std::string* out) {
  CostEstimate est = model.Estimate(n);
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += OneLine(*n);
  if (line.size() < 58) line.resize(58, ' ');
  char buf[64];
  std::snprintf(buf, sizeof(buf), " rows=%-10.0f cost=%.0f", est.rows,
                est.cost);
  line += buf;
  out->append(line);
  out->push_back('\n');
  if (n->left()) Render(n->left(), model, depth + 1, out);
  if (n->right()) Render(n->right(), model, depth + 1, out);
}

// Joins the cost model's row estimate onto the stats tree. The stats tree
// mirrors the plan tree by construction (one child per plan child, in
// order), so a parallel walk lines the two up; a shape mismatch (stats
// from a different plan) just stops annotating that subtree.
void AnnotateEstimates(const NodePtr& n, const CostModel& model,
                       exec::OperatorStats* stats) {
  stats->est_rows = model.Estimate(n).rows;
  size_t child = 0;
  for (const NodePtr* c : {&n->left(), &n->right()}) {
    if (*c == nullptr) continue;
    if (child >= stats->children.size()) return;
    AnnotateEstimates(*c, model, stats->children[child++].get());
  }
}

void RenderAnalyze(const NodePtr& n, const exec::OperatorStats& stats,
                   int depth, std::string* out) {
  std::string line(static_cast<size_t>(depth) * 2, ' ');
  line += OneLine(*n);
  if (line.size() < 46) line.resize(46, ' ');
  char buf[192];
  std::snprintf(buf, sizeof(buf), " est=%-8.0f rows=%-8llu q=%-6.2f time=%.3fms",
                stats.est_rows,
                static_cast<unsigned long long>(stats.rows_out),
                stats.QError(),
                static_cast<double>(stats.wall.count()) / 1e6);
  line += buf;
  line += stats.CountersString();
  out->append(line);
  out->push_back('\n');
  size_t child = 0;
  for (const NodePtr* c : {&n->left(), &n->right()}) {
    if (*c == nullptr) continue;
    if (child >= stats.children.size()) return;
    RenderAnalyze(*c, *stats.children[child++], depth + 1, out);
  }
}

}  // namespace

std::string Explain(const NodePtr& plan, const CostModel& model) {
  std::string out;
  if (plan == nullptr) return out;
  Render(plan, model, 0, &out);
  return out;
}

std::string AnalyzeText(const NodePtr& plan, const CostModel& model,
                        exec::OperatorStats* stats) {
  if (plan == nullptr || stats == nullptr) return "";
  AnnotateEstimates(plan, model, stats);
  std::string text;
  RenderAnalyze(plan, *stats, 0, &text);

  std::vector<double> qs;
  exec::CollectQErrors(*stats, &qs);
  if (!qs.empty()) {
    std::sort(qs.begin(), qs.end());
    char buf[128];
    std::snprintf(buf, sizeof(buf),
                  "q-error over %zu operators: max=%.2f median=%.2f\n",
                  qs.size(), qs.back(), qs[qs.size() / 2]);
    text += buf;
  }
  return text;
}

StatusOr<AnalyzeResult> ExplainAnalyze(const NodePtr& plan,
                                       const Catalog& catalog,
                                       const CostModel& model,
                                       const ExecuteOptions& options) {
  if (plan == nullptr) return Status::InvalidArgument("null plan");
  AnalyzeResult out;
  out.stats = std::make_unique<exec::OperatorStats>();
  ExecuteOptions xo = options;
  xo.stats = out.stats.get();
  GSOPT_ASSIGN_OR_RETURN(out.result, Execute(plan, catalog, xo));
  out.text = AnalyzeText(plan, model, out.stats.get());
  return out;
}

}  // namespace gsopt
