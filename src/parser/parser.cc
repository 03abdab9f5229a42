#include "parser/parser.h"

#include <cctype>
#include <set>

#include "common/str_util.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/lexer.h"

namespace xsql {

namespace {

/// Words that cannot be used as bare attribute/class/object identifiers.
bool IsReserved(const std::string& text) {
  static const char* kWords[] = {
      // "function" is NOT reserved: it only matters right after OID,
      // and Figure 1 has an attribute named Function.
      "select",    "from",     "where",     "and",       "or",
      "not",       "oid",      "union",     "minus",
      "intersect", "create",   "view",      "alter",     "update",
      "set",       "add",      "class",     "as",        "subclass",
      "of",        "signature", "subclassof", "applicableto", "contains", "containseq",
      "subset",    "subseteq", "seteq",     "some",      "all",
      "nil",       "true",     "false",     "count",     "sum",
      "avg",       "min",      "max",
  };
  for (const char* w : kWords) {
    if (EqualsIgnoreCase(text, w)) return true;
  }
  return false;
}

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<Statement> ParseStatement() {
    Statement stmt;
    if (PeekKw("create")) {
      XSQL_ASSIGN_OR_RETURN(CreateViewStmt view, ParseCreateView());
      stmt.kind = Statement::Kind::kCreateView;
      stmt.create_view = std::make_shared<CreateViewStmt>(std::move(view));
    } else if (PeekKw("alter")) {
      XSQL_ASSIGN_OR_RETURN(AlterClassStmt alter, ParseAlterClass());
      stmt.kind = Statement::Kind::kAlterClass;
      stmt.alter_class = std::make_shared<AlterClassStmt>(std::move(alter));
    } else if (PeekKw("update")) {
      XSQL_ASSIGN_OR_RETURN(UpdateClassStmt update, ParseUpdateClass());
      stmt.kind = Statement::Kind::kUpdateClass;
      stmt.update_class = std::make_shared<UpdateClassStmt>(std::move(update));
    } else if (PeekKw("explain")) {
      // `explain`/`analyze` are only special in statement position, so
      // Figure 1 attribute names keep working inside queries.
      Advance();
      stmt.kind = Statement::Kind::kExplain;
      stmt.analyze = MatchKw("analyze");
      XSQL_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> q, ParseQueryExpr());
      stmt.query = std::move(q);
    } else if (PeekKw("system") && PeekKw("metrics", 1)) {
      Advance();
      Advance();
      stmt.kind = Statement::Kind::kSystemMetrics;
    } else if (PeekKw("system") && PeekKw("status", 1)) {
      Advance();
      Advance();
      stmt.kind = Statement::Kind::kSystemStatus;
    } else {
      XSQL_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> q, ParseQueryExpr());
      stmt.kind = Statement::Kind::kQuery;
      stmt.query = std::move(q);
    }
    if (!AtEnd()) {
      return Status::ParseError("trailing input at offset " +
                                std::to_string(Peek().pos));
    }
    return stmt;
  }

 private:
  // ---- cursor helpers ----
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  bool AtEnd() const { return Peek().type == TokenType::kEnd; }
  const Token& Advance() { return tokens_[pos_++]; }
  bool Check(TokenType type) const { return Peek().type == type; }
  bool Match(TokenType type) {
    if (!Check(type)) return false;
    ++pos_;
    return true;
  }
  bool PeekKw(const char* kw, size_t ahead = 0) const {
    return Peek(ahead).IsKeyword(kw);
  }
  bool MatchKw(const char* kw) {
    if (!PeekKw(kw)) return false;
    ++pos_;
    return true;
  }
  Status Expect(TokenType type, const char* what) {
    if (Match(type)) return Status::OK();
    return Status::ParseError(std::string("expected ") + what +
                              " at offset " + std::to_string(Peek().pos));
  }
  Status ExpectKw(const char* kw) {
    if (MatchKw(kw)) return Status::OK();
    return Status::ParseError(std::string("expected keyword '") + kw +
                              "' at offset " + std::to_string(Peek().pos));
  }

  std::string FreshVarName() {
    return "_g" + std::to_string(fresh_counter_++);
  }

  void AddPendingConjunct(std::shared_ptr<Condition> cond) {
    if (!pending_.empty()) pending_.back().push_back(std::move(cond));
  }

  // ---- statements ----

  Result<std::shared_ptr<QueryExpr>> ParseQueryExpr() {
    XSQL_ASSIGN_OR_RETURN(Query q, ParseQuery());
    auto expr = std::make_shared<QueryExpr>();
    expr->kind = QueryExpr::Kind::kSimple;
    expr->simple = std::make_shared<Query>(std::move(q));
    while (PeekKw("union") || PeekKw("minus") || PeekKw("intersect")) {
      QueryExpr::Kind kind = PeekKw("union")   ? QueryExpr::Kind::kUnion
                             : PeekKw("minus") ? QueryExpr::Kind::kMinus
                                               : QueryExpr::Kind::kIntersect;
      Advance();
      XSQL_ASSIGN_OR_RETURN(Query rhs, ParseQuery());
      auto combined = std::make_shared<QueryExpr>();
      combined->kind = kind;
      combined->lhs = std::move(expr);
      combined->rhs = std::make_shared<QueryExpr>();
      combined->rhs->kind = QueryExpr::Kind::kSimple;
      combined->rhs->simple = std::make_shared<Query>(std::move(rhs));
      expr = std::move(combined);
    }
    return expr;
  }

  Result<Query> ParseQuery() {
    XSQL_RETURN_IF_ERROR(ExpectKw("select"));
    pending_.emplace_back();
    Query query;
    // SELECT list.
    for (;;) {
      XSQL_ASSIGN_OR_RETURN(SelectItem item, ParseSelectItem());
      query.select.push_back(std::move(item));
      if (!Match(TokenType::kComma)) break;
    }
    // Optional clauses in any of the paper's orders.
    for (;;) {
      if (MatchKw("from")) {
        for (;;) {
          XSQL_ASSIGN_OR_RETURN(FromEntry entry, ParseFromEntry());
          query.from.push_back(std::move(entry));
          if (!Match(TokenType::kComma)) break;
        }
      } else if (PeekKw("oid")) {
        Advance();
        if (MatchKw("function")) XSQL_RETURN_IF_ERROR(ExpectKw("of"));
        std::vector<Variable> vars;
        for (;;) {
          XSQL_ASSIGN_OR_RETURN(Variable v, ParseVarName());
          vars.push_back(std::move(v));
          if (!Match(TokenType::kComma)) break;
        }
        query.oid_function_of = std::move(vars);
      } else if (MatchKw("where")) {
        XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> cond,
                              ParseCondition());
        query.where = std::move(cond);
      } else {
        break;
      }
    }
    // Fold desugaring conjuncts into WHERE.
    std::vector<std::shared_ptr<Condition>> extra = std::move(pending_.back());
    pending_.pop_back();
    if (!extra.empty()) {
      if (query.where != nullptr) extra.insert(extra.begin(), query.where);
      query.where =
          extra.size() == 1 ? extra[0] : Condition::And(std::move(extra));
    }
    return query;
  }

  Result<Variable> ParseVarName() {
    if (Check(TokenType::kExplicitVar) || Check(TokenType::kIdent)) {
      const Token& t = Advance();
      return Variable{t.text, VarSort::kIndividual};
    }
    if (Check(TokenType::kClassVar)) {
      const Token& t = Advance();
      return Variable{t.text, VarSort::kClass};
    }
    if (Check(TokenType::kMethodVar)) {
      const Token& t = Advance();
      return Variable{t.text, VarSort::kMethod};
    }
    return Status::ParseError("expected variable at offset " +
                              std::to_string(Peek().pos));
  }

  Result<SelectItem> ParseSelectItem() {
    SelectItem item;
    // Method-definition head: `(M @ args) = expr` or `(M) = expr`.
    if (Check(TokenType::kLParen) && Peek(1).type == TokenType::kIdent &&
        !IsReserved(Peek(1).text) &&
        (Peek(2).type == TokenType::kAt ||
         (Peek(2).type == TokenType::kRParen &&
          Peek(3).type == TokenType::kEq))) {
      Advance();  // (
      item.kind = SelectItem::Kind::kMethodHead;
      item.method = Oid::Atom(Advance().text);
      if (Match(TokenType::kAt)) {
        for (;;) {
          XSQL_ASSIGN_OR_RETURN(IdTerm arg, ParseArgAsIdTerm());
          item.method_args.push_back(std::move(arg));
          if (!Match(TokenType::kComma)) break;
        }
      }
      XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      XSQL_RETURN_IF_ERROR(Expect(TokenType::kEq, "'='"));
      XSQL_ASSIGN_OR_RETURN(item.expr, ParseValueExpr());
      return item;
    }
    // Named output attribute: `Name = ...`.
    if (Check(TokenType::kIdent) && !IsReserved(Peek().text) &&
        Peek(1).type == TokenType::kEq) {
      item.out_attr = Oid::Atom(Advance().text);
      Advance();  // =
    }
    // Grouped set attribute: `{W}`.
    if (Check(TokenType::kLBrace) &&
        (Peek(1).type == TokenType::kIdent ||
         Peek(1).type == TokenType::kExplicitVar) &&
        Peek(2).type == TokenType::kRBrace) {
      Advance();  // {
      item.kind = SelectItem::Kind::kSetOfVar;
      item.set_var = Variable{Advance().text, VarSort::kIndividual};
      Advance();  // }
      return item;
    }
    item.kind = SelectItem::Kind::kExpr;
    XSQL_ASSIGN_OR_RETURN(item.expr, ParseValueExpr());
    return item;
  }

  Result<FromEntry> ParseFromEntry() {
    FromEntry entry;
    if (Check(TokenType::kClassVar)) {
      entry.cls = IdTerm::Var(Variable{Advance().text, VarSort::kClass});
    } else if (Check(TokenType::kIdent) &&
               (!IsReserved(Peek().text) ||
                EqualsIgnoreCase(Peek().text, "class"))) {
      // "Class" is a keyword elsewhere but names the meta-class here:
      // `FROM Class $C` ranges over the class-objects.
      entry.cls = IdTerm::Const(Oid::Atom(Advance().text));
    } else {
      return Status::ParseError("expected class in FROM at offset " +
                                std::to_string(Peek().pos));
    }
    XSQL_ASSIGN_OR_RETURN(entry.var, ParseVarName());
    // Individual variables are the norm; class variables are allowed so
    // `FROM Class $C` ranges over the class-objects (§2: classes are
    // objects and can be queried like them).
    if (entry.var.sort == VarSort::kMethod ||
        entry.var.sort == VarSort::kPath) {
      return Status::ParseError(
          "FROM variable must be an individual or class variable");
    }
    return entry;
  }

  // ---- conditions ----

  Result<std::shared_ptr<Condition>> ParseCondition() {
    XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> lhs, ParseAndCond());
    if (!PeekKw("or")) return lhs;
    std::vector<std::shared_ptr<Condition>> parts{std::move(lhs)};
    while (MatchKw("or")) {
      XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> next, ParseAndCond());
      parts.push_back(std::move(next));
    }
    return Condition::Or(std::move(parts));
  }

  Result<std::shared_ptr<Condition>> ParseAndCond() {
    XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> lhs, ParseUnaryCond());
    if (!PeekKw("and")) return lhs;
    std::vector<std::shared_ptr<Condition>> parts{std::move(lhs)};
    while (MatchKw("and")) {
      XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> next, ParseUnaryCond());
      parts.push_back(std::move(next));
    }
    return Condition::And(std::move(parts));
  }

  Result<std::shared_ptr<Condition>> ParseUnaryCond() {
    if (MatchKw("not")) {
      XSQL_ASSIGN_OR_RETURN(std::shared_ptr<Condition> child, ParseUnaryCond());
      return Condition::Not(std::move(child));
    }
    // Nested `(UPDATE CLASS ...)` condition (§5).
    if (Check(TokenType::kLParen) && PeekKw("update", 1)) {
      Advance();
      XSQL_ASSIGN_OR_RETURN(UpdateClassStmt update, ParseUpdateClass());
      XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      auto cond = std::make_shared<Condition>();
      cond->kind = Condition::Kind::kUpdate;
      cond->update = std::make_shared<UpdateClassStmt>(std::move(update));
      return cond;
    }
    // Parenthesized condition, disambiguated from a parenthesized value
    // by backtracking: if after `( cond )` a comparator follows, the
    // parenthesis was a value grouping.
    if (Check(TokenType::kLParen) && !PeekKw("select", 1)) {
      size_t snapshot = pos_;
      Advance();
      auto attempt = ParseCondition();
      if (attempt.ok() && Check(TokenType::kRParen)) {
        Advance();
        if (!IsComparatorNext()) return std::move(attempt).value();
      }
      pos_ = snapshot;
    }
    return ParsePrimaryCond();
  }

  bool IsComparatorNext() const {
    switch (Peek().type) {
      case TokenType::kEq:
      case TokenType::kNe:
      case TokenType::kLt:
      case TokenType::kLe:
      case TokenType::kGt:
      case TokenType::kGe:
      case TokenType::kPlus:
      case TokenType::kMinus:
      case TokenType::kStar:
      case TokenType::kSlash:
        return true;
      case TokenType::kIdent:
        return PeekKw("some") || PeekKw("all") || PeekKw("contains") ||
               PeekKw("containseq") || PeekKw("subset") ||
               PeekKw("subseteq") || PeekKw("seteq") || PeekKw("subclassof");
      default:
        return false;
    }
  }

  Result<std::shared_ptr<Condition>> ParsePrimaryCond() {
    XSQL_ASSIGN_OR_RETURN(ValueExpr lhs, ParseValueExpr());
    // subclassOf predicate.
    if (MatchKw("subclassof")) {
      if (lhs.kind != ValueExpr::Kind::kPath || !lhs.path.trivial()) {
        return Status::ParseError("subclassOf expects an id-term on the left");
      }
      XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseValueExpr());
      if (rhs.kind != ValueExpr::Kind::kPath || !rhs.path.trivial()) {
        return Status::ParseError(
            "subclassOf expects an id-term on the right");
      }
      return Condition::SubclassOf(lhs.path.head, rhs.path.head);
    }
    // applicableTo predicate (§3.1's applicable-vs-defined distinction).
    if (MatchKw("applicableto")) {
      if (lhs.kind != ValueExpr::Kind::kPath || !lhs.path.trivial()) {
        return Status::ParseError(
            "applicableTo expects a method term on the left");
      }
      XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseValueExpr());
      if (rhs.kind != ValueExpr::Kind::kPath || !rhs.path.trivial()) {
        return Status::ParseError(
            "applicableTo expects an id-term on the right");
      }
      auto cond = std::make_shared<Condition>();
      cond->kind = Condition::Kind::kApplicable;
      cond->sub = lhs.path.head;
      cond->super = rhs.path.head;
      return cond;
    }
    // Set comparators.
    for (const auto& [kw, op] :
         std::initializer_list<std::pair<const char*, SetOp>>{
             {"containseq", SetOp::kContainsEq},
             {"contains", SetOp::kContains},
             {"subseteq", SetOp::kSubsetEq},
             {"subset", SetOp::kSubset},
             {"seteq", SetOp::kSetEq}}) {
      if (MatchKw(kw)) {
        XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseValueExpr());
        return Condition::SetComparison(std::move(lhs), op, std::move(rhs));
      }
    }
    // Quantified comparison: [some|all] op [some|all].
    Quant lq = Quant::kNone;
    if (MatchKw("some")) {
      lq = Quant::kSome;
    } else if (MatchKw("all")) {
      lq = Quant::kAll;
    }
    CompOp op;
    bool has_op = true;
    switch (Peek().type) {
      case TokenType::kEq:
        op = CompOp::kEq;
        break;
      case TokenType::kNe:
        op = CompOp::kNe;
        break;
      case TokenType::kLt:
        op = CompOp::kLt;
        break;
      case TokenType::kLe:
        op = CompOp::kLe;
        break;
      case TokenType::kGt:
        op = CompOp::kGt;
        break;
      case TokenType::kGe:
        op = CompOp::kGe;
        break;
      default:
        has_op = false;
        op = CompOp::kEq;
        break;
    }
    if (!has_op) {
      if (lq != Quant::kNone) {
        return Status::ParseError("quantifier without comparator at offset " +
                                  std::to_string(Peek().pos));
      }
      // Standalone path expression used as a Boolean predicate.
      if (lhs.kind != ValueExpr::Kind::kPath) {
        return Status::ParseError(
            "expected comparison or path expression at offset " +
            std::to_string(Peek().pos));
      }
      return Condition::Standalone(std::move(lhs.path));
    }
    Advance();
    Quant rq = Quant::kNone;
    if (MatchKw("some")) {
      rq = Quant::kSome;
    } else if (MatchKw("all")) {
      rq = Quant::kAll;
    }
    XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseValueExpr());
    return Condition::Comparison(std::move(lhs), lq, op, rq, std::move(rhs));
  }

  // ---- value expressions ----

  Result<ValueExpr> ParseValueExpr() { return ParseAdditive(); }

  Result<ValueExpr> ParseAdditive() {
    XSQL_ASSIGN_OR_RETURN(ValueExpr lhs, ParseMultiplicative());
    while (Check(TokenType::kPlus) || Check(TokenType::kMinus)) {
      ArithOp op = Check(TokenType::kPlus) ? ArithOp::kAdd : ArithOp::kSub;
      Advance();
      XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseMultiplicative());
      lhs = ValueExpr::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ValueExpr> ParseMultiplicative() {
    XSQL_ASSIGN_OR_RETURN(ValueExpr lhs, ParseUnaryValue());
    while (Check(TokenType::kStar) || Check(TokenType::kSlash)) {
      ArithOp op = Check(TokenType::kStar) ? ArithOp::kMul : ArithOp::kDiv;
      Advance();
      XSQL_ASSIGN_OR_RETURN(ValueExpr rhs, ParseUnaryValue());
      lhs = ValueExpr::Arith(op, std::move(lhs), std::move(rhs));
    }
    return lhs;
  }

  Result<ValueExpr> ParseUnaryValue() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kInt:
        Advance();
        return MaybePathFromConst(Oid::Int(t.int_value));
      case TokenType::kReal:
        Advance();
        return MaybePathFromConst(Oid::Real(t.real_value));
      case TokenType::kString:
        Advance();
        return MaybePathFromConst(Oid::String(t.text));
      case TokenType::kLBrace: {
        Advance();
        std::vector<ValueExpr> elems;
        if (!Check(TokenType::kRBrace)) {
          for (;;) {
            XSQL_ASSIGN_OR_RETURN(ValueExpr e, ParseValueExpr());
            elems.push_back(std::move(e));
            if (!Match(TokenType::kComma)) break;
          }
        }
        XSQL_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
        return ValueExpr::SetLiteral(std::move(elems));
      }
      case TokenType::kLParen: {
        if (PeekKw("select", 1)) {
          Advance();
          XSQL_ASSIGN_OR_RETURN(std::shared_ptr<QueryExpr> sub,
                                ParseQueryExpr());
          XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return ValueExpr::Subquery(std::move(sub));
        }
        // Either parenthesized arithmetic or a parenthesized method
        // expression starting a path; try the path route first because
        // `(MngrSalary @ X)` is not an arithmetic expression.
        if (Peek(1).type == TokenType::kIdent &&
            (Peek(2).type == TokenType::kAt)) {
          XSQL_ASSIGN_OR_RETURN(PathExpr p, ParsePathFromMethodParen());
          return ValueExpr::Path(std::move(p));
        }
        Advance();
        XSQL_ASSIGN_OR_RETURN(ValueExpr inner, ParseValueExpr());
        XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
        return inner;
      }
      case TokenType::kIdent:
        if (PeekKw("count") || PeekKw("sum") || PeekKw("avg") ||
            PeekKw("min") || PeekKw("max")) {
          if (Peek(1).type == TokenType::kLParen) {
            AggFn fn = PeekKw("count") ? AggFn::kCount
                       : PeekKw("sum") ? AggFn::kSum
                       : PeekKw("avg") ? AggFn::kAvg
                       : PeekKw("min") ? AggFn::kMin
                                       : AggFn::kMax;
            Advance();
            Advance();  // (
            XSQL_ASSIGN_OR_RETURN(PathExpr p, ParsePathExpr());
            XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
            return ValueExpr::Agg(fn, std::move(p));
          }
        }
        if (PeekKw("nil")) {
          Advance();
          return MaybePathFromConst(Oid::Nil());
        }
        if (PeekKw("true")) {
          Advance();
          return MaybePathFromConst(Oid::Bool(true));
        }
        if (PeekKw("false")) {
          Advance();
          return MaybePathFromConst(Oid::Bool(false));
        }
        [[fallthrough]];
      default: {
        XSQL_ASSIGN_OR_RETURN(PathExpr p, ParsePathExpr());
        return ValueExpr::Path(std::move(p));
      }
    }
  }

  /// A literal may still start a path (`20` is a legal trivial path and
  /// even `'x'.Length` would be syntactically fine), so wrap and continue.
  Result<ValueExpr> MaybePathFromConst(Oid oid) {
    PathExpr p;
    p.head = IdTerm::Const(std::move(oid));
    XSQL_RETURN_IF_ERROR(ParsePathTail(&p));
    return ValueExpr::Path(std::move(p));
  }

  /// Path starting with a parenthesized method expression — occurs when a
  /// method is invoked on the *result* position of a SELECT head (rare);
  /// treated as a path whose head is a fresh variable is not meaningful,
  /// so instead this only appears in value position and we reject heads:
  /// the practical case `X.Manufacturer.(MngrSalary @ Y)` is handled by
  /// ParsePathTail. Here we parse `(M @ args)` applied to nothing, which
  /// the paper never writes; return an error that points the user at the
  /// dotted form.
  Result<PathExpr> ParsePathFromMethodParen() {
    return Status::ParseError(
        "a method expression must follow a '.' in a path expression");
  }

  // ---- path expressions ----

  Result<PathExpr> ParsePathExpr() {
    PathExpr path;
    XSQL_ASSIGN_OR_RETURN(path.head, ParseHeadTerm());
    XSQL_RETURN_IF_ERROR(ParsePathTail(&path));
    return path;
  }

  Result<IdTerm> ParseHeadTerm() {
    const Token& t = Peek();
    switch (t.type) {
      case TokenType::kIdent: {
        if (IsReserved(t.text)) {
          return Status::ParseError("unexpected keyword '" + t.text +
                                    "' at offset " + std::to_string(t.pos));
        }
        Advance();
        if (Check(TokenType::kLParen)) {
          // Id-function application, e.g. CompSalaries(X.Manufacturer, W).
          Advance();
          std::vector<IdTerm> args;
          if (!Check(TokenType::kRParen)) {
            for (;;) {
              XSQL_ASSIGN_OR_RETURN(IdTerm arg, ParseArgAsIdTerm());
              args.push_back(std::move(arg));
              if (!Match(TokenType::kComma)) break;
            }
          }
          XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
          return IdTerm::Apply(t.text, std::move(args));
        }
        return IdTerm::NameRef(t.text);
      }
      case TokenType::kExplicitVar:
        Advance();
        return IdTerm::Var(Variable{t.text, VarSort::kIndividual});
      case TokenType::kClassVar:
        Advance();
        return IdTerm::Var(Variable{t.text, VarSort::kClass});
      case TokenType::kMethodVar:
        Advance();
        return IdTerm::Var(Variable{t.text, VarSort::kMethod});
      case TokenType::kInt:
        Advance();
        return IdTerm::Const(Oid::Int(t.int_value));
      case TokenType::kReal:
        Advance();
        return IdTerm::Const(Oid::Real(t.real_value));
      case TokenType::kString:
        Advance();
        return IdTerm::Const(Oid::String(t.text));
      default:
        return Status::ParseError("expected id-term at offset " +
                                  std::to_string(t.pos));
    }
  }

  Status ParsePathTail(PathExpr* path) {
    while (Match(TokenType::kDot)) {
      PathStep step;
      if (Match(TokenType::kStar)) {
        // Path variable `*Y` (§3.1 extension).
        if (!Check(TokenType::kIdent)) {
          return Status::ParseError("expected identifier after '.*'");
        }
        step.kind = PathStep::Kind::kPathVar;
        step.path_var = Variable{Advance().text, VarSort::kPath};
      } else if (Match(TokenType::kLParen)) {
        // Method expression `(M @ a1,...,ak)`.
        step.kind = PathStep::Kind::kMethod;
        if (Check(TokenType::kMethodVar)) {
          step.method.name_is_var = true;
          step.method.name_var = Variable{Advance().text, VarSort::kMethod};
        } else if (Check(TokenType::kIdent) && !IsReserved(Peek().text)) {
          step.method.name = Oid::Atom(Advance().text);
        } else {
          return Status::ParseError("expected method name at offset " +
                                    std::to_string(Peek().pos));
        }
        if (Match(TokenType::kAt)) {
          for (;;) {
            XSQL_ASSIGN_OR_RETURN(IdTerm arg, ParseArgAsIdTerm());
            step.method.args.push_back(std::move(arg));
            if (!Match(TokenType::kComma)) break;
          }
        }
        XSQL_RETURN_IF_ERROR(Expect(TokenType::kRParen, "')'"));
      } else if (Check(TokenType::kMethodVar)) {
        step.kind = PathStep::Kind::kMethod;
        step.method.name_is_var = true;
        step.method.name_var = Variable{Advance().text, VarSort::kMethod};
      } else if (Check(TokenType::kIdent) && !IsReserved(Peek().text)) {
        step.kind = PathStep::Kind::kMethod;
        step.method.name = Oid::Atom(Advance().text);
      } else {
        return Status::ParseError("expected attribute expression at offset " +
                                  std::to_string(Peek().pos));
      }
      if (Match(TokenType::kLBracket)) {
        XSQL_ASSIGN_OR_RETURN(IdTerm sel, ParseArgAsIdTerm());
        step.selector = std::move(sel);
        XSQL_RETURN_IF_ERROR(Expect(TokenType::kRBracket, "']'"));
      }
      path->steps.push_back(std::move(step));
    }
    return Status::OK();
  }

  /// Parses an argument/selector position. The grammar allows id-terms
  /// only, but the paper sanctions path shorthands like
  /// `(MngrSalary @ Y.Name)`: we parse a full path expression and, when
  /// it is not trivial, desugar it to a fresh variable Z plus the WHERE
  /// conjunct `Y.Name[Z]` (§5).
  Result<IdTerm> ParseArgAsIdTerm() {
    XSQL_ASSIGN_OR_RETURN(PathExpr p, ParsePathExpr());
    if (p.trivial()) return p.head;
    if (pending_.empty()) {
      return Status::ParseError(
          "path shorthand argument outside a query context");
    }
    PathStep& last = p.steps.back();
    if (last.selector.has_value()) {
      return Status::ParseError(
          "path shorthand argument must not end in a selector");
    }
    Variable fresh{FreshVarName(), VarSort::kIndividual};
    last.selector = IdTerm::Var(fresh);
    AddPendingConjunct(Condition::Standalone(std::move(p)));
    return IdTerm::Var(fresh);
  }

  // ---- DDL / DML ----

  Result<SignatureDecl> ParseSignatureDecl() {
    SignatureDecl decl;
    if (!Check(TokenType::kIdent) || IsReserved(Peek().text)) {
      return Status::ParseError("expected method name in signature");
    }
    decl.method = Oid::Atom(Advance().text);
    if (Match(TokenType::kColon)) {
      for (;;) {
        if (!Check(TokenType::kIdent)) {
          return Status::ParseError("expected argument class in signature");
        }
        decl.args.push_back(Oid::Atom(Advance().text));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (Match(TokenType::kDoubleArrow)) {
      decl.set_valued = true;
    } else {
      XSQL_RETURN_IF_ERROR(Expect(TokenType::kArrow, "'=>' or '=>>'"));
    }
    if (Match(TokenType::kLBrace)) {
      for (;;) {
        if (!Check(TokenType::kIdent)) {
          return Status::ParseError("expected result class in signature");
        }
        decl.results.push_back(Oid::Atom(Advance().text));
        if (!Match(TokenType::kComma)) break;
      }
      XSQL_RETURN_IF_ERROR(Expect(TokenType::kRBrace, "'}'"));
    } else {
      if (!Check(TokenType::kIdent)) {
        return Status::ParseError("expected result class in signature");
      }
      decl.results.push_back(Oid::Atom(Advance().text));
    }
    return decl;
  }

  Result<CreateViewStmt> ParseCreateView() {
    XSQL_RETURN_IF_ERROR(ExpectKw("create"));
    XSQL_RETURN_IF_ERROR(ExpectKw("view"));
    CreateViewStmt stmt;
    if (!Check(TokenType::kIdent)) {
      return Status::ParseError("expected view name");
    }
    stmt.name = Oid::Atom(Advance().text);
    XSQL_RETURN_IF_ERROR(ExpectKw("as"));
    XSQL_RETURN_IF_ERROR(ExpectKw("subclass"));
    XSQL_RETURN_IF_ERROR(ExpectKw("of"));
    if (!Check(TokenType::kIdent)) {
      return Status::ParseError("expected superclass name");
    }
    stmt.superclass = Oid::Atom(Advance().text);
    if (MatchKw("signature")) {
      for (;;) {
        XSQL_ASSIGN_OR_RETURN(SignatureDecl decl, ParseSignatureDecl());
        stmt.signatures.push_back(std::move(decl));
        if (!Match(TokenType::kComma)) break;
      }
    }
    XSQL_ASSIGN_OR_RETURN(stmt.query, ParseQuery());
    stmt.query.oid_fn_name = stmt.name.str();
    return stmt;
  }

  Result<AlterClassStmt> ParseAlterClass() {
    XSQL_RETURN_IF_ERROR(ExpectKw("alter"));
    XSQL_RETURN_IF_ERROR(ExpectKw("class"));
    AlterClassStmt stmt;
    if (!Check(TokenType::kIdent)) {
      return Status::ParseError("expected class name");
    }
    stmt.cls = Oid::Atom(Advance().text);
    if (MatchKw("add")) {
      XSQL_RETURN_IF_ERROR(ExpectKw("signature"));
      for (;;) {
        XSQL_ASSIGN_OR_RETURN(SignatureDecl decl, ParseSignatureDecl());
        stmt.add_signatures.push_back(std::move(decl));
        if (!Match(TokenType::kComma)) break;
      }
    }
    if (PeekKw("select")) {
      XSQL_ASSIGN_OR_RETURN(Query q, ParseQuery());
      stmt.method_def = std::move(q);
    }
    return stmt;
  }

  Result<UpdateClassStmt> ParseUpdateClass() {
    XSQL_RETURN_IF_ERROR(ExpectKw("update"));
    XSQL_RETURN_IF_ERROR(ExpectKw("class"));
    UpdateClassStmt stmt;
    if (!Check(TokenType::kIdent)) {
      return Status::ParseError("expected class name");
    }
    stmt.cls = Oid::Atom(Advance().text);
    XSQL_RETURN_IF_ERROR(ExpectKw("set"));
    // Desugared path-argument conjuncts stay scoped to the update: their
    // variables are bound per enumerated target, not in the enclosing
    // query's WHERE.
    pending_.emplace_back();
    Status parse_status = Status::OK();
    for (;;) {
      UpdateClassStmt::Assignment assign;
      auto target = ParsePathExpr();
      if (!target.ok()) {
        parse_status = target.status();
        break;
      }
      assign.target = std::move(target).value();
      parse_status = Expect(TokenType::kEq, "'='");
      if (!parse_status.ok()) break;
      auto value = ParseValueExpr();
      if (!value.ok()) {
        parse_status = value.status();
        break;
      }
      assign.value = std::move(value).value();
      stmt.assignments.push_back(std::move(assign));
      if (!Match(TokenType::kComma)) break;
    }
    std::vector<std::shared_ptr<Condition>> scoped = std::move(pending_.back());
    pending_.pop_back();
    XSQL_RETURN_IF_ERROR(parse_status);
    if (!scoped.empty()) {
      stmt.where =
          scoped.size() == 1 ? scoped[0] : Condition::And(std::move(scoped));
    }
    return stmt;
  }

  std::vector<Token> tokens_;
  size_t pos_ = 0;
  int fresh_counter_ = 0;
  // Desugaring conjuncts per enclosing query.
  std::vector<std::vector<std::shared_ptr<Condition>>> pending_;
};

}  // namespace

Result<Statement> Parse(const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(text));
  Parser parser(std::move(tokens));
  return parser.ParseStatement();
}

// ---------------------------------------------------------------------
// Name resolution
// ---------------------------------------------------------------------

namespace {

/// Scope stack of individual-variable names during resolution.
class Scope {
 public:
  void Push() { frames_.emplace_back(); }
  void Pop() { frames_.pop_back(); }
  void Declare(const std::string& name) { frames_.back().insert(name); }
  bool Contains(const std::string& name) const {
    for (auto it = frames_.rbegin(); it != frames_.rend(); ++it) {
      if (it->contains(name)) return true;
    }
    return false;
  }

 private:
  std::vector<std::set<std::string>> frames_;
};

class Resolver {
 public:
  explicit Resolver(const Database& db) : db_(db) {}

  Status ResolveStatement(Statement* stmt) {
    switch (stmt->kind) {
      case Statement::Kind::kQuery:
      case Statement::Kind::kExplain:
        return ResolveQueryExpr(stmt->query.get());
      case Statement::Kind::kSystemMetrics:
      case Statement::Kind::kSystemStatus:
        return Status::OK();
      case Statement::Kind::kCreateView:
        return ResolveQuery(&stmt->create_view->query);
      case Statement::Kind::kAlterClass:
        if (stmt->alter_class->method_def.has_value()) {
          return ResolveQuery(&*stmt->alter_class->method_def);
        }
        return Status::OK();
      case Statement::Kind::kUpdateClass:
        scope_.Push();
        {
          Status st = ResolveUpdate(stmt->update_class.get());
          scope_.Pop();
          return st;
        }
    }
    return Status::OK();
  }

 private:
  Status ResolveQueryExpr(QueryExpr* expr) {
    switch (expr->kind) {
      case QueryExpr::Kind::kSimple:
        return ResolveQuery(expr->simple.get());
      default:
        XSQL_RETURN_IF_ERROR(ResolveQueryExpr(expr->lhs.get()));
        return ResolveQueryExpr(expr->rhs.get());
    }
  }

  Status ResolveQuery(Query* query) {
    scope_.Push();
    // Declared names: FROM variables, bare SELECT names, `{W}` variables,
    // OID FUNCTION OF variables.
    for (const FromEntry& entry : query->from) scope_.Declare(entry.var.name);
    for (const SelectItem& item : query->select) {
      if (item.kind == SelectItem::Kind::kSetOfVar) {
        scope_.Declare(item.set_var.name);
      } else if (item.kind == SelectItem::Kind::kExpr &&
                 item.expr.kind == ValueExpr::Kind::kPath &&
                 item.expr.path.trivial() &&
                 item.expr.path.head.kind == IdTerm::Kind::kNameRef) {
        scope_.Declare(item.expr.path.head.name);
      }
    }
    if (query->oid_function_of.has_value()) {
      for (const Variable& v : *query->oid_function_of) {
        if (v.sort == VarSort::kIndividual) scope_.Declare(v.name);
      }
    }
    Status st = ResolveQueryBody(query);
    scope_.Pop();
    return st;
  }

  Status ResolveQueryBody(Query* query) {
    for (FromEntry& entry : query->from) {
      if (entry.cls.kind == IdTerm::Kind::kNameRef) {
        entry.cls = IdTerm::Const(Oid::Atom(entry.cls.name));
      }
    }
    for (SelectItem& item : query->select) {
      switch (item.kind) {
        case SelectItem::Kind::kExpr:
          XSQL_RETURN_IF_ERROR(ResolveValue(&item.expr));
          break;
        case SelectItem::Kind::kSetOfVar:
          break;
        case SelectItem::Kind::kMethodHead:
          for (IdTerm& arg : item.method_args) {
            XSQL_RETURN_IF_ERROR(ResolveIdTerm(&arg));
          }
          XSQL_RETURN_IF_ERROR(ResolveValue(&item.expr));
          break;
      }
    }
    if (query->where != nullptr) {
      XSQL_RETURN_IF_ERROR(ResolveCondition(query->where.get()));
    }
    return Status::OK();
  }

  Status ResolveCondition(Condition* cond) {
    switch (cond->kind) {
      case Condition::Kind::kAnd:
      case Condition::Kind::kOr:
      case Condition::Kind::kNot:
        for (auto& child : cond->children) {
          XSQL_RETURN_IF_ERROR(ResolveCondition(child.get()));
        }
        return Status::OK();
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison:
        XSQL_RETURN_IF_ERROR(ResolveValue(&cond->lhs));
        return ResolveValue(&cond->rhs);
      case Condition::Kind::kStandalonePath:
        return ResolvePath(&cond->path);
      case Condition::Kind::kSubclassOf:
        XSQL_RETURN_IF_ERROR(ResolveIdTermAsClass(&cond->sub));
        return ResolveIdTermAsClass(&cond->super);
      case Condition::Kind::kApplicable:
        // Bare left name = a method-name constant; the right side
        // follows the normal rules.
        XSQL_RETURN_IF_ERROR(ResolveIdTermAsClass(&cond->sub));
        return ResolveIdTerm(&cond->super);
      case Condition::Kind::kUpdate:
        return ResolveUpdate(cond->update.get());
    }
    return Status::OK();
  }

  Status ResolveUpdate(UpdateClassStmt* update) {
    for (auto& assign : update->assignments) {
      XSQL_RETURN_IF_ERROR(ResolvePath(&assign.target));
      XSQL_RETURN_IF_ERROR(ResolveValue(&assign.value));
    }
    if (update->where != nullptr) {
      XSQL_RETURN_IF_ERROR(ResolveCondition(update->where.get()));
    }
    return Status::OK();
  }

  Status ResolveValue(ValueExpr* expr) {
    switch (expr->kind) {
      case ValueExpr::Kind::kPath:
      case ValueExpr::Kind::kAggregate:
        return ResolvePath(&expr->path);
      case ValueExpr::Kind::kArith:
        XSQL_RETURN_IF_ERROR(ResolveValue(expr->lhs.get()));
        return ResolveValue(expr->rhs.get());
      case ValueExpr::Kind::kSubquery:
        return ResolveQueryExpr(expr->subquery.get());
      case ValueExpr::Kind::kSetLiteral:
        for (ValueExpr& e : expr->set_elems) {
          XSQL_RETURN_IF_ERROR(ResolveValue(&e));
        }
        return Status::OK();
    }
    return Status::OK();
  }

  Status ResolvePath(PathExpr* path) {
    XSQL_RETURN_IF_ERROR(ResolveIdTerm(&path->head));
    for (PathStep& step : path->steps) {
      if (step.kind == PathStep::Kind::kMethod) {
        for (IdTerm& arg : step.method.args) {
          XSQL_RETURN_IF_ERROR(ResolveIdTerm(&arg));
        }
      }
      if (step.selector.has_value()) {
        XSQL_RETURN_IF_ERROR(ResolveIdTerm(&*step.selector));
      }
    }
    return Status::OK();
  }

  /// In subclassOf positions bare names are class constants unless they
  /// are scope variables.
  Status ResolveIdTermAsClass(IdTerm* term) {
    if (term->kind == IdTerm::Kind::kNameRef) {
      if (scope_.Contains(term->name)) {
        *term = IdTerm::Var(Variable{term->name, VarSort::kIndividual});
      } else {
        *term = IdTerm::Const(Oid::Atom(term->name));
      }
      return Status::OK();
    }
    return ResolveIdTerm(term);
  }

  Status ResolveIdTerm(IdTerm* term) {
    switch (term->kind) {
      case IdTerm::Kind::kNameRef: {
        const std::string& name = term->name;
        if (scope_.Contains(name)) {
          *term = IdTerm::Var(Variable{name, VarSort::kIndividual});
        } else if (KnownToDatabase(name)) {
          *term = IdTerm::Const(Oid::Atom(name));
        } else if (!name.empty() &&
                   std::isupper(static_cast<unsigned char>(name[0]))) {
          *term = IdTerm::Var(Variable{name, VarSort::kIndividual});
        } else {
          *term = IdTerm::Const(Oid::Atom(name));
        }
        return Status::OK();
      }
      case IdTerm::Kind::kApply:
        for (IdTerm& arg : term->args) {
          XSQL_RETURN_IF_ERROR(ResolveIdTerm(&arg));
        }
        return Status::OK();
      default:
        return Status::OK();
    }
  }

  bool KnownToDatabase(const std::string& name) const {
    return db_.InActiveDomain(Oid::Atom(name));
  }

  const Database& db_;
  Scope scope_;
};

}  // namespace

Status ResolveNames(Statement* stmt, const Database& db) {
  Resolver resolver(db);
  return resolver.ResolveStatement(stmt);
}

Result<Statement> ParseAndResolve(const std::string& text,
                                  const Database& db) {
  static obs::Counter& statements =
      obs::MetricsRegistry::Global().GetCounter("xsql.parse.statements");
  static obs::Counter& errors =
      obs::MetricsRegistry::Global().GetCounter("xsql.parse.errors");
  obs::Span span("parse");
  auto run = [&]() -> Result<Statement> {
    XSQL_ASSIGN_OR_RETURN(Statement stmt, Parse(text));
    XSQL_RETURN_IF_ERROR(ResolveNames(&stmt, db));
    return stmt;
  };
  Result<Statement> out = run();
  (out.ok() ? statements : errors).Inc();
  return out;
}

}  // namespace xsql
