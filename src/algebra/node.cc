#include "algebra/node.h"

#include "base/check.h"

namespace gsopt {

bool IsBinary(OpKind k) {
  switch (k) {
    case OpKind::kInnerJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin:
    case OpKind::kFullOuterJoin:
    case OpKind::kAntiJoin:
    case OpKind::kSemiJoin:
    case OpKind::kMgoj:
      return true;
    default:
      return false;
  }
}

bool IsJoinLike(OpKind k) {
  switch (k) {
    case OpKind::kInnerJoin:
    case OpKind::kLeftOuterJoin:
    case OpKind::kRightOuterJoin:
    case OpKind::kFullOuterJoin:
      return true;
    default:
      return false;
  }
}

std::string OpKindName(OpKind k) {
  switch (k) {
    case OpKind::kLeaf:
      return "LEAF";
    case OpKind::kSelect:
      return "SELECT";
    case OpKind::kProject:
      return "PROJECT";
    case OpKind::kInnerJoin:
      return "JOIN";
    case OpKind::kLeftOuterJoin:
      return "LOJ";
    case OpKind::kRightOuterJoin:
      return "ROJ";
    case OpKind::kFullOuterJoin:
      return "FOJ";
    case OpKind::kAntiJoin:
      return "ANTIJOIN";
    case OpKind::kSemiJoin:
      return "SEMIJOIN";
    case OpKind::kGeneralizedSelection:
      return "GS";
    case OpKind::kMgoj:
      return "MGOJ";
    case OpKind::kGroupBy:
      return "GP";
    case OpKind::kSort:
      return "SORT";
  }
  return "?";
}

// Private-constructor access helper (friend of Node).
struct NodeBuilder {
  static std::shared_ptr<Node> New() {
    return std::shared_ptr<Node>(new Node());
  }
  // A mutable copy of `n` (every field), for the rebuilds below.
  static std::shared_ptr<Node> Copy(const Node& n) {
    return std::shared_ptr<Node>(new Node(n));
  }
};

NodePtr Node::Leaf(std::string table) {
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kLeaf;
  n->table_ = std::move(table);
  return n;
}

NodePtr Node::Select(NodePtr child, Predicate p) {
  GSOPT_CHECK(child != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kSelect;
  n->pred_ = std::move(p);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::Project(NodePtr child, std::vector<Attribute> attrs) {
  GSOPT_CHECK(child != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kProject;
  n->projection_ = std::move(attrs);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::ProjectAs(NodePtr child, std::vector<Attribute> src,
                        std::vector<Attribute> out) {
  GSOPT_CHECK(child != nullptr);
  GSOPT_CHECK(src.size() == out.size());
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kProject;
  n->projection_ = std::move(src);
  n->projection_out_ = std::move(out);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::Binary(OpKind kind, NodePtr l, NodePtr r, Predicate p) {
  GSOPT_CHECK(IsBinary(kind));
  GSOPT_CHECK(l != nullptr && r != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = kind;
  n->pred_ = std::move(p);
  n->left_ = std::move(l);
  n->right_ = std::move(r);
  return n;
}

NodePtr Node::Join(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kInnerJoin, std::move(l), std::move(r), std::move(p));
}
NodePtr Node::LeftOuterJoin(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kLeftOuterJoin, std::move(l), std::move(r),
                std::move(p));
}
NodePtr Node::RightOuterJoin(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kRightOuterJoin, std::move(l), std::move(r),
                std::move(p));
}
NodePtr Node::FullOuterJoin(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kFullOuterJoin, std::move(l), std::move(r),
                std::move(p));
}
NodePtr Node::AntiJoin(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kAntiJoin, std::move(l), std::move(r), std::move(p));
}
NodePtr Node::SemiJoin(NodePtr l, NodePtr r, Predicate p) {
  return Binary(OpKind::kSemiJoin, std::move(l), std::move(r), std::move(p));
}

NodePtr Node::GeneralizedSelection(NodePtr child, Predicate p,
                                   std::vector<exec::PreservedGroup> gs) {
  GSOPT_CHECK(child != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kGeneralizedSelection;
  n->pred_ = std::move(p);
  n->groups_ = std::move(gs);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::Mgoj(NodePtr l, NodePtr r, Predicate p,
                   std::vector<exec::PreservedGroup> gs) {
  GSOPT_CHECK(l != nullptr && r != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kMgoj;
  n->pred_ = std::move(p);
  n->groups_ = std::move(gs);
  n->left_ = std::move(l);
  n->right_ = std::move(r);
  return n;
}

NodePtr Node::GroupBy(NodePtr child, exec::GroupBySpec spec) {
  GSOPT_CHECK(child != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kGroupBy;
  n->groupby_ = std::move(spec);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::Sort(NodePtr child, exec::SortSpec spec) {
  GSOPT_CHECK(child != nullptr);
  auto n = NodeBuilder::New();
  n->kind_ = OpKind::kSort;
  n->sort_spec_ = std::move(spec);
  n->left_ = std::move(child);
  return n;
}

NodePtr Node::WithChildren(const NodePtr& n, NodePtr l, NodePtr r) {
  GSOPT_CHECK(n != nullptr);
  if (l == n->left_ && r == n->right_) return n;
  GSOPT_CHECK((l != nullptr) == (n->left_ != nullptr) &&
              (r != nullptr) == (n->right_ != nullptr));
  auto out = NodeBuilder::Copy(*n);
  out->left_ = std::move(l);
  out->right_ = std::move(r);
  return out;
}

NodePtr Node::WithPred(const NodePtr& n, Predicate p) {
  GSOPT_CHECK(n != nullptr);
  auto out = NodeBuilder::Copy(*n);
  out->pred_ = std::move(p);
  return out;
}

NodePtr Node::WithGroupBy(const NodePtr& n, exec::GroupBySpec spec) {
  GSOPT_CHECK(n != nullptr && n->kind_ == OpKind::kGroupBy);
  auto out = NodeBuilder::Copy(*n);
  out->groupby_ = std::move(spec);
  return out;
}

std::set<std::string> Node::BaseRels() const {
  std::set<std::string> out;
  if (kind_ == OpKind::kLeaf) {
    out.insert(table_);
    return out;
  }
  if (left_) {
    auto l = left_->BaseRels();
    out.insert(l.begin(), l.end());
  }
  if (right_) {
    auto r = right_->BaseRels();
    out.insert(r.begin(), r.end());
  }
  return out;
}

int Node::NumOps() const {
  int n = kind_ == OpKind::kLeaf ? 0 : 1;
  if (left_) n += left_->NumOps();
  if (right_) n += right_->NumOps();
  return n;
}

namespace {
std::string GroupsToString(const std::vector<exec::PreservedGroup>& groups) {
  std::string s;
  for (size_t i = 0; i < groups.size(); ++i) {
    if (i) s += ", ";
    s += "{";
    bool first = true;
    for (const std::string& rel : groups[i]) {
      if (!first) s += " ";
      s += rel;
      first = false;
    }
    s += "}";
  }
  return s;
}
}  // namespace

std::string Node::ToString() const {
  switch (kind_) {
    case OpKind::kLeaf:
      return table_;
    case OpKind::kSelect:
      return "SELECT[" + pred_.ToString() + "](" + left_->ToString() + ")";
    case OpKind::kProject: {
      std::string s = "PROJECT[";
      const std::vector<Attribute>& outs = projection_out();
      for (size_t i = 0; i < projection_.size(); ++i) {
        if (i) s += ", ";
        s += projection_[i].Qualified();
        if (!(outs[i] == projection_[i])) s += " AS " + outs[i].Qualified();
      }
      return s + "](" + left_->ToString() + ")";
    }
    case OpKind::kGeneralizedSelection:
      return "GS[" + pred_.ToString() + "; " + GroupsToString(groups_) + "](" +
             left_->ToString() + ")";
    case OpKind::kGroupBy:
      return groupby_.ToString() + "(" + left_->ToString() + ")";
    case OpKind::kSort:
      return "SORT[" + exec::SortSpecToString(sort_spec_) + "](" +
             left_->ToString() + ")";
    case OpKind::kMgoj:
      return "(" + left_->ToString() + " MGOJ[" + pred_.ToString() + "; " +
             GroupsToString(groups_) + "] " + right_->ToString() + ")";
    default:
      return "(" + left_->ToString() + " " + OpKindName(kind_) + "[" +
             pred_.ToString() + "] " + right_->ToString() + ")";
  }
}

}  // namespace gsopt
