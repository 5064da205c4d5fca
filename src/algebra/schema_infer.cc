#include "algebra/schema_infer.h"

namespace gsopt {

StatusOr<Schema> InferSchema(const NodePtr& node, const Catalog& catalog) {
  if (node == nullptr) return Status::InvalidArgument("null node");
  switch (node->kind()) {
    case OpKind::kLeaf: {
      const Relation* r = catalog.Find(node->table());
      if (r == nullptr) return Status::NotFound("no table " + node->table());
      return r->schema();
    }
    case OpKind::kSelect:
    case OpKind::kGeneralizedSelection:
    case OpKind::kSort:
      return InferSchema(node->left(), catalog);
    case OpKind::kProject: {
      GSOPT_ASSIGN_OR_RETURN(Schema child,
                             InferSchema(node->left(), catalog));
      Schema out;
      const auto& outs = node->projection_out();
      for (size_t i = 0; i < node->projection().size(); ++i) {
        const Attribute& a = node->projection()[i];
        if (child.Find(a.rel, a.name) < 0) {
          return Status::NotFound("projection column " + a.Qualified() +
                                  " not in " + child.ToString());
        }
        out.Append(outs[i]);
      }
      return out;
    }
    case OpKind::kGroupBy: {
      GSOPT_ASSIGN_OR_RETURN(Schema child,
                             InferSchema(node->left(), catalog));
      Schema out;
      for (const Attribute& a : node->groupby().group_cols) {
        if (child.Find(a.rel, a.name) < 0) {
          return Status::NotFound("group-by column " + a.Qualified() +
                                  " not in " + child.ToString());
        }
        out.Append(a);
      }
      for (const exec::AggSpec& agg : node->groupby().aggs) {
        out.Append(Attribute{agg.out_rel, agg.out_name});
      }
      return out;
    }
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
      return InferSchema(node->left(), catalog);
    default: {
      GSOPT_ASSIGN_OR_RETURN(Schema l, InferSchema(node->left(), catalog));
      GSOPT_ASSIGN_OR_RETURN(Schema r, InferSchema(node->right(), catalog));
      return Schema::Concat(l, r);
    }
  }
}

std::set<std::string> OutputQuals(const NodePtr& node) {
  switch (node->kind()) {
    case OpKind::kLeaf:
      return {node->table()};
    case OpKind::kProject: {
      std::set<std::string> out;
      for (const Attribute& a : node->projection_out()) out.insert(a.rel);
      return out;
    }
    case OpKind::kGroupBy: {
      std::set<std::string> out;
      for (const Attribute& a : node->groupby().group_cols) out.insert(a.rel);
      for (const exec::AggSpec& agg : node->groupby().aggs) {
        out.insert(agg.out_rel);
      }
      return out;
    }
    default: {
      std::set<std::string> out = OutputQuals(node->left());
      if (node->right() != nullptr && node->kind() != OpKind::kAntiJoin &&
          node->kind() != OpKind::kSemiJoin) {
        std::set<std::string> r = OutputQuals(node->right());
        out.insert(r.begin(), r.end());
      }
      return out;
    }
  }
}

}  // namespace gsopt
