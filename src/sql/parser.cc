#include "sql/parser.h"

#include "sql/lexer.h"

namespace gsopt::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  StatusOr<SqlQuery> ParseQuery() {
    GSOPT_RETURN_IF_ERROR(ExpectKeyword("SELECT"));
    SqlQuery q;
    GSOPT_RETURN_IF_ERROR(ParseSelectList(&q));
    GSOPT_RETURN_IF_ERROR(ExpectKeyword("FROM"));
    GSOPT_RETURN_IF_ERROR(ParseFrom(&q));
    if (AcceptKeyword("WHERE")) {
      GSOPT_ASSIGN_OR_RETURN(q.where, ParsePredicate());
    }
    if (AcceptKeyword("GROUP")) {
      GSOPT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        GSOPT_ASSIGN_OR_RETURN(SqlExprPtr e, ParseExpr());
        if (e->kind != SqlExpr::Kind::kColumn) {
          return Status::InvalidArgument("GROUP BY expects plain columns");
        }
        q.group_by.push_back(std::move(e));
        if (!AcceptPunct(",")) break;
      }
    }
    if (AcceptKeyword("HAVING")) {
      GSOPT_ASSIGN_OR_RETURN(q.having, ParsePredicate());
    }
    if (AcceptKeyword("ORDER")) {
      GSOPT_RETURN_IF_ERROR(ExpectKeyword("BY"));
      while (true) {
        SqlOrderItem item;
        GSOPT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (item.expr->kind != SqlExpr::Kind::kColumn) {
          return Status::InvalidArgument("ORDER BY expects plain columns");
        }
        if (AcceptKeyword("DESC")) {
          item.desc = true;
        } else {
          AcceptKeyword("ASC");
        }
        q.order_by.push_back(std::move(item));
        if (!AcceptPunct(",")) break;
      }
    }
    return q;
  }

  Status ExpectEnd() {
    if (Peek().kind != TokenKind::kEnd) {
      return Status::InvalidArgument("trailing input at position " +
                                     std::to_string(Peek().position));
    }
    return Status::OK();
  }

 private:
  const Token& Peek(int ahead = 0) const {
    size_t i = pos_ + static_cast<size_t>(ahead);
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  const Token& Next() { return tokens_[pos_++]; }

  bool AcceptKeyword(const std::string& kw) {
    if (Peek().kind == TokenKind::kKeyword && Peek().text == kw) {
      ++pos_;
      return true;
    }
    return false;
  }
  bool AcceptPunct(const std::string& p) {
    if (Peek().kind == TokenKind::kPunct && Peek().text == p) {
      ++pos_;
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const std::string& kw) {
    if (!AcceptKeyword(kw)) {
      return Status::InvalidArgument("expected " + kw + " at position " +
                                     std::to_string(Peek().position));
    }
    return Status::OK();
  }
  Status ExpectPunct(const std::string& p) {
    if (!AcceptPunct(p)) {
      return Status::InvalidArgument("expected '" + p + "' at position " +
                                     std::to_string(Peek().position));
    }
    return Status::OK();
  }

  Status ParseSelectList(SqlQuery* q) {
    while (true) {
      SqlSelectItem item;
      if (AcceptPunct("*")) {
        item.star = true;
      } else {
        GSOPT_ASSIGN_OR_RETURN(item.expr, ParseExpr());
        if (AcceptKeyword("AS")) {
          if (Peek().kind != TokenKind::kIdent) {
            return Status::InvalidArgument("expected alias after AS");
          }
          item.alias = Next().text;
        }
      }
      q->select.push_back(std::move(item));
      if (!AcceptPunct(",")) break;
    }
    return Status::OK();
  }

  Status ParseFrom(SqlQuery* q) {
    while (true) {
      GSOPT_ASSIGN_OR_RETURN(auto ref, ParseJoinExpr());
      q->from.push_back(std::move(ref));
      if (!AcceptPunct(",")) break;
    }
    return Status::OK();
  }

  StatusOr<std::shared_ptr<SqlTableRef>> ParseJoinExpr() {
    GSOPT_ASSIGN_OR_RETURN(auto left, ParsePrimaryRef());
    while (true) {
      SqlTableRef::JoinKind jk;
      if (AcceptKeyword("JOIN")) {
        jk = SqlTableRef::JoinKind::kInner;
      } else if (AcceptKeyword("INNER")) {
        GSOPT_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jk = SqlTableRef::JoinKind::kInner;
      } else if (AcceptKeyword("LEFT")) {
        AcceptKeyword("OUTER");
        GSOPT_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jk = SqlTableRef::JoinKind::kLeft;
      } else if (AcceptKeyword("RIGHT")) {
        AcceptKeyword("OUTER");
        GSOPT_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jk = SqlTableRef::JoinKind::kRight;
      } else if (AcceptKeyword("FULL")) {
        AcceptKeyword("OUTER");
        GSOPT_RETURN_IF_ERROR(ExpectKeyword("JOIN"));
        jk = SqlTableRef::JoinKind::kFull;
      } else {
        break;
      }
      GSOPT_ASSIGN_OR_RETURN(auto right, ParsePrimaryRef());
      GSOPT_RETURN_IF_ERROR(ExpectKeyword("ON"));
      GSOPT_ASSIGN_OR_RETURN(SqlPredicate on, ParsePredicate());
      auto join = std::make_shared<SqlTableRef>();
      join->kind = SqlTableRef::Kind::kJoin;
      join->join_kind = jk;
      join->left = std::move(left);
      join->right = std::move(right);
      join->on = std::move(on);
      left = std::move(join);
    }
    return left;
  }

  StatusOr<std::shared_ptr<SqlTableRef>> ParsePrimaryRef() {
    auto ref = std::make_shared<SqlTableRef>();
    if (AcceptPunct("(")) {
      if (Peek().kind == TokenKind::kKeyword && Peek().text == "SELECT") {
        GSOPT_ASSIGN_OR_RETURN(SqlQuery sub, ParseQuery());
        GSOPT_RETURN_IF_ERROR(ExpectPunct(")"));
        AcceptKeyword("AS");
        if (Peek().kind != TokenKind::kIdent) {
          return Status::InvalidArgument("subquery needs an alias");
        }
        ref->kind = SqlTableRef::Kind::kSubquery;
        ref->subquery = std::make_shared<SqlQuery>(std::move(sub));
        ref->alias = Next().text;
        return ref;
      }
      GSOPT_ASSIGN_OR_RETURN(auto inner, ParseJoinExpr());
      GSOPT_RETURN_IF_ERROR(ExpectPunct(")"));
      return inner;
    }
    if (Peek().kind != TokenKind::kIdent) {
      return Status::InvalidArgument("expected table name at position " +
                                     std::to_string(Peek().position));
    }
    ref->kind = SqlTableRef::Kind::kTable;
    ref->table = Next().text;
    return ref;
  }

  StatusOr<SqlPredicate> ParsePredicate() {
    SqlPredicate pred;
    while (true) {
      GSOPT_ASSIGN_OR_RETURN(SqlComparison cmp, ParseComparison());
      pred.push_back(std::move(cmp));
      if (!AcceptKeyword("AND")) break;
    }
    return pred;
  }

  StatusOr<SqlComparison> ParseComparison() {
    SqlComparison cmp;
    GSOPT_ASSIGN_OR_RETURN(cmp.lhs, ParseExpr());
    if (AcceptKeyword("IS")) {
      bool negated = AcceptKeyword("NOT");
      GSOPT_RETURN_IF_ERROR(ExpectKeyword("NULL"));
      cmp.null_test = negated ? SqlComparison::NullTest::kIsNotNull
                              : SqlComparison::NullTest::kIsNull;
      return cmp;
    }
    const Token& t = Peek();
    if (t.kind != TokenKind::kPunct) {
      return Status::InvalidArgument("expected comparison operator");
    }
    if (t.text == "=") {
      cmp.op = CmpOp::kEq;
    } else if (t.text == "<>") {
      cmp.op = CmpOp::kNe;
    } else if (t.text == "<") {
      cmp.op = CmpOp::kLt;
    } else if (t.text == "<=") {
      cmp.op = CmpOp::kLe;
    } else if (t.text == ">") {
      cmp.op = CmpOp::kGt;
    } else if (t.text == ">=") {
      cmp.op = CmpOp::kGe;
    } else {
      return Status::InvalidArgument("expected comparison operator, got '" +
                                     t.text + "'");
    }
    ++pos_;
    GSOPT_ASSIGN_OR_RETURN(cmp.rhs, ParseExpr());
    return cmp;
  }

  StatusOr<SqlExprPtr> ParseExpr() {
    GSOPT_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseTerm());
    while (Peek().kind == TokenKind::kPunct &&
           (Peek().text == "+" || Peek().text == "-")) {
      ArithOp op = Next().text == "+" ? ArithOp::kAdd : ArithOp::kSub;
      GSOPT_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseTerm());
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kArith;
      e->arith_op = op;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
    return lhs;
  }

  StatusOr<SqlExprPtr> ParseTerm() {
    GSOPT_ASSIGN_OR_RETURN(SqlExprPtr lhs, ParseFactor());
    while (Peek().kind == TokenKind::kPunct &&
           (Peek().text == "*" || Peek().text == "/")) {
      ArithOp op = Next().text == "*" ? ArithOp::kMul : ArithOp::kDiv;
      GSOPT_ASSIGN_OR_RETURN(SqlExprPtr rhs, ParseFactor());
      auto e = std::make_shared<SqlExpr>();
      e->kind = SqlExpr::Kind::kArith;
      e->arith_op = op;
      e->lhs = std::move(lhs);
      e->rhs = std::move(rhs);
      lhs = std::move(e);
    }
    return lhs;
  }

  StatusOr<SqlExprPtr> ParseFactor() {
    auto e = std::make_shared<SqlExpr>();
    const Token& t = Peek();
    if (t.kind == TokenKind::kNumber) {
      Next();
      e->kind = SqlExpr::Kind::kLiteral;
      e->literal =
          t.is_integer ? Value::Int(t.integer) : Value::Double(t.number);
      return e;
    }
    if (t.kind == TokenKind::kString) {
      Next();
      e->kind = SqlExpr::Kind::kLiteral;
      e->literal = Value::String(t.text);
      return e;
    }
    if (t.kind == TokenKind::kParam) {
      Next();
      // The upper bound keeps the int cast below defined.
      if (t.number < 1 || t.number > (1 << 20)) {
        return Status::InvalidArgument(
            "parameter indices run from $1 to $1048576 (got " + t.text + ")");
      }
      e->kind = SqlExpr::Kind::kParam;
      e->param_slot = static_cast<int>(t.number) - 1;
      return e;
    }
    if (t.kind == TokenKind::kPunct && t.text == "(") {
      Next();
      GSOPT_ASSIGN_OR_RETURN(SqlExprPtr inner, ParseExpr());
      GSOPT_RETURN_IF_ERROR(ExpectPunct(")"));
      return inner;
    }
    if (t.kind == TokenKind::kKeyword &&
        (t.text == "COUNT" || t.text == "SUM" || t.text == "MIN" ||
         t.text == "MAX" || t.text == "AVG")) {
      std::string fn = Next().text;
      GSOPT_RETURN_IF_ERROR(ExpectPunct("("));
      e->kind = SqlExpr::Kind::kAgg;
      e->agg_distinct = AcceptKeyword("DISTINCT");
      if (fn == "COUNT" && AcceptPunct("*")) {
        e->agg_func = exec::AggFunc::kCountStar;
      } else {
        GSOPT_ASSIGN_OR_RETURN(e->agg_input, ParseExpr());
        if (fn == "COUNT") {
          e->agg_func = exec::AggFunc::kCount;
        } else if (fn == "SUM") {
          e->agg_func = exec::AggFunc::kSum;
        } else if (fn == "MIN") {
          e->agg_func = exec::AggFunc::kMin;
        } else if (fn == "MAX") {
          e->agg_func = exec::AggFunc::kMax;
        } else {
          e->agg_func = exec::AggFunc::kAvg;
        }
      }
      GSOPT_RETURN_IF_ERROR(ExpectPunct(")"));
      return e;
    }
    if (t.kind == TokenKind::kIdent) {
      std::string first = Next().text;
      e->kind = SqlExpr::Kind::kColumn;
      if (AcceptPunct(".")) {
        if (Peek().kind != TokenKind::kIdent) {
          return Status::InvalidArgument("expected column after '.'");
        }
        e->qualifier = first;
        e->column = Next().text;
      } else {
        e->column = first;
      }
      return e;
    }
    return Status::InvalidArgument("unexpected token at position " +
                                   std::to_string(t.position));
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

}  // namespace

StatusOr<SqlQuery> Parse(const std::string& input) {
  GSOPT_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(input));
  Parser p(std::move(tokens));
  GSOPT_ASSIGN_OR_RETURN(SqlQuery q, p.ParseQuery());
  GSOPT_RETURN_IF_ERROR(p.ExpectEnd());
  return q;
}

}  // namespace gsopt::sql
