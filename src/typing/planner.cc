#include "typing/planner.h"

#include <algorithm>
#include <limits>
#include <map>
#include <numeric>

namespace xsql {

namespace {

/// Coarse cost ranks. Only the relative order matters: among ready
/// conjuncts the driver picks the lowest rank, so index probes run
/// before selective filters, filters before joins, joins before pure
/// generators, and the non-conjunctive forms (OR, NOT) last.
constexpr int kRankIndexProbe = 0;
constexpr int kRankSelectorPath = 10;
constexpr int kRankConstComparison = 20;
constexpr int kRankHashJoin = 25;
constexpr int kRankComparison = 30;
constexpr int kRankGeneratorPath = 40;
constexpr int kRankSchema = 50;
constexpr int kRankNot = 60;
constexpr int kRankOr = 70;
constexpr int kRankUpdate = 90;

/// Does any nested UPDATE hide in this condition tree? §5 queries with
/// update conditions observe left-to-right WHERE evaluation (the paper's
/// nested-update examples depend on it), so they disable reordering.
bool ContainsUpdate(const Condition& cond) {
  if (cond.kind == Condition::Kind::kUpdate) return true;
  for (const auto& child : cond.children) {
    if (child != nullptr && ContainsUpdate(*child)) return true;
  }
  return false;
}

bool IdTermHasVar(const IdTerm& t) {
  if (t.is_var()) return true;
  if (t.is_apply()) {
    for (const IdTerm& a : t.args) {
      if (IdTermHasVar(a)) return true;
    }
  }
  return false;
}

/// True when the path's only variable is its head (an individual
/// variable): constant method names without arguments containing
/// variables, constant selectors, no path variables. Binding the head
/// makes such a path ground, so its value is a pure function of the
/// head object — exactly what a hash join builds its table over.
bool OnlyHeadVar(const PathExpr& path) {
  if (!path.head.is_var()) return false;
  if (path.head.var.sort != VarSort::kIndividual) return false;
  for (const PathStep& step : path.steps) {
    if (step.kind != PathStep::Kind::kMethod) return false;
    if (step.method.name_is_var) return false;
    for (const IdTerm& arg : step.method.args) {
      if (IdTermHasVar(arg)) return false;
    }
    if (step.selector.has_value() && !step.selector->is_const()) {
      return false;
    }
  }
  return true;
}

/// True when no path under `expr` mentions a variable (a ground side of
/// a comparison — a constant to filter against).
bool SideIsGround(const ValueExpr& expr) {
  std::vector<const PathExpr*> paths;
  CollectPathExprs(expr, &paths);
  for (const PathExpr* p : paths) {
    if (IdTermHasVar(p->head)) return false;
    for (const PathStep& step : p->steps) {
      if (step.kind == PathStep::Kind::kPathVar) return false;
      if (step.method.name_is_var) return false;
      for (const IdTerm& arg : step.method.args) {
        if (IdTermHasVar(arg)) return false;
      }
      if (step.selector.has_value() && IdTermHasVar(*step.selector)) {
        return false;
      }
    }
  }
  return expr.kind != ValueExpr::Kind::kSubquery;
}

/// The attribute chain of an index-answerable standalone path —
/// `X.a1...an[sel]` with constant no-argument attribute steps and the
/// selector only on the last step — or empty when the shape does not
/// match. Mirrors the evaluator's runtime test, minus bindings.
std::vector<Oid> IndexableAttrs(const PathExpr& path) {
  if (!path.head.is_var() || path.steps.empty()) return {};
  std::vector<Oid> attrs;
  for (size_t i = 0; i < path.steps.size(); ++i) {
    const PathStep& step = path.steps[i];
    if (step.kind != PathStep::Kind::kMethod || step.method.name_is_var ||
        !step.method.args.empty()) {
      return {};
    }
    const bool last = i + 1 == path.steps.size();
    if (step.selector.has_value() != last) return {};
    if (last && !(step.selector->is_const() || step.selector->is_var())) {
      return {};
    }
    attrs.push_back(step.method.name);
  }
  return attrs;
}

std::string CardToString(size_t card) {
  if (card == std::numeric_limits<size_t>::max()) return "?";
  return std::to_string(card);
}

/// Purity scan for QueryPlan::batch_eligible: proves no evaluation step
/// of the query can mutate the database. Conservative — anything that
/// *could* write (id-function applications materialize views, defined
/// methods can run query bodies with UPDATE clauses, method/path
/// variables can reach such methods, OID FUNCTION mints objects) makes
/// the query impure, so the batch path's candidate caching and the
/// parallel workers only ever see an immutable database.
class PurityScan {
 public:
  explicit PurityScan(const Database& db) : db_(db) {}

  bool Pure(const Query& query) {
    if (query.oid_function_of.has_value()) return false;
    for (const SelectItem& item : query.select) {
      if (item.kind == SelectItem::Kind::kMethodHead) return false;
      if (item.kind == SelectItem::Kind::kExpr && !PureValue(item.expr)) {
        return false;
      }
    }
    return query.where == nullptr || PureCond(*query.where);
  }

 private:
  bool PureTerm(const IdTerm& term) {
    // An id-function application can resolve to a view and trigger its
    // materialization mid-statement.
    return !term.is_apply();
  }

  bool PurePath(const PathExpr& path) {
    if (!PureTerm(path.head)) return false;
    for (const PathStep& step : path.steps) {
      // Path variables and method variables can reach any 0-ary method,
      // including defined ones.
      if (step.kind == PathStep::Kind::kPathVar) return false;
      if (step.method.name_is_var) return false;
      if (HasDefinition(step.method.name)) return false;
      for (const IdTerm& arg : step.method.args) {
        if (!PureTerm(arg)) return false;
      }
      if (step.selector.has_value() && !PureTerm(*step.selector)) {
        return false;
      }
    }
    return true;
  }

  bool PureValue(const ValueExpr& expr) {
    switch (expr.kind) {
      case ValueExpr::Kind::kPath:
      case ValueExpr::Kind::kAggregate:
        return PurePath(expr.path);
      case ValueExpr::Kind::kArith:
        return PureValue(*expr.lhs) && PureValue(*expr.rhs);
      case ValueExpr::Kind::kSubquery:
        return PureQueryExpr(*expr.subquery);
      case ValueExpr::Kind::kSetLiteral:
        for (const ValueExpr& e : expr.set_elems) {
          if (!PureValue(e)) return false;
        }
        return true;
    }
    return false;
  }

  bool PureCond(const Condition& cond) {
    switch (cond.kind) {
      case Condition::Kind::kUpdate:
        return false;
      case Condition::Kind::kStandalonePath:
        return PurePath(cond.path);
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison:
        return PureValue(cond.lhs) && PureValue(cond.rhs);
      case Condition::Kind::kSubclassOf:
      case Condition::Kind::kApplicable:
        return PureTerm(cond.sub) && PureTerm(cond.super);
      case Condition::Kind::kAnd:
      case Condition::Kind::kOr:
      case Condition::Kind::kNot:
        for (const auto& child : cond.children) {
          if (child != nullptr && !PureCond(*child)) return false;
        }
        return true;
    }
    return false;
  }

  bool PureQueryExpr(const QueryExpr& expr) {
    if (expr.kind == QueryExpr::Kind::kSimple) return Pure(*expr.simple);
    return PureQueryExpr(*expr.lhs) && PureQueryExpr(*expr.rhs);
  }

  /// Any registry definition (query or native body) for this method
  /// name, at any arity: invoking one may write.
  bool HasDefinition(const Oid& method) {
    for (const MethodRegistry::Entry& entry : db_.methods().AllDefinitions()) {
      if (entry.method == method) return true;
    }
    return false;
  }

  const Database& db_;
};

}  // namespace

bool Planner::HashJoinableShape(const Condition& cond) {
  if (cond.kind == Condition::Kind::kComparison) {
    if (cond.comp_op != CompOp::kEq) return false;
  } else if (cond.kind != Condition::Kind::kSetComparison) {
    return false;
  }
  if (cond.lhs.kind != ValueExpr::Kind::kPath ||
      cond.rhs.kind != ValueExpr::Kind::kPath) {
    return false;
  }
  if (!OnlyHeadVar(cond.lhs.path) || !OnlyHeadVar(cond.rhs.path)) {
    return false;
  }
  // `X = Y` over bare heads is a cheap filter already; a hash table
  // only pays for itself when at least one side walks attributes.
  if (cond.lhs.path.trivial() && cond.rhs.path.trivial()) return false;
  return !(cond.lhs.path.head.var == cond.rhs.path.head.var);
}

VacuousSides Planner::VacuousSidesOf(const Condition& cond) {
  VacuousSides sides;
  if (cond.kind == Condition::Kind::kComparison) {
    sides.lhs = cond.lquant == Quant::kAll;
    sides.rhs = cond.rquant == Quant::kAll;
    return sides;
  }
  switch (cond.set_op) {
    case SetOp::kContains:
    case SetOp::kContainsEq:
      sides.rhs = true;
      break;
    case SetOp::kSubset:
    case SetOp::kSubsetEq:
      sides.lhs = true;
      break;
    case SetOp::kSetEq:
      sides.both = true;
      break;
  }
  return sides;
}

QueryPlan Planner::Plan(const Query& query, const RangeMap* ranges) const {
  QueryPlan plan;
  if (query.where != nullptr && ContainsUpdate(*query.where)) {
    plan.allow_reorder = false;
    plan.decisions.push_back(
        "order kept: nested UPDATE pins declaration order (§5)");
    return plan;
  }

  std::vector<const Condition*> conjuncts;
  if (query.where != nullptr) FlattenAnd(*query.where, &conjuncts);

  // FROM-declared variables over constant classes, for index anchoring
  // and hash-join eligibility.
  std::map<Variable, size_t> from_of_var;
  for (size_t i = 0; i < query.from.size(); ++i) {
    if (query.from[i].cls.is_const()) from_of_var[query.from[i].var] = i;
  }

  // Estimated candidate cardinality per FROM entry: the class extent,
  // refined to the Theorem 6.1(2) candidate set when a range witness
  // narrows it.
  const size_t kUnknown = std::numeric_limits<size_t>::max();
  plan.from_card.assign(query.from.size(), kUnknown);
  for (size_t i = 0; i < query.from.size(); ++i) {
    const FromEntry& entry = query.from[i];
    if (!entry.cls.is_const()) continue;  // class variable: unknown
    size_t card = db_.Extent(entry.cls.value).size();
    if (ranges != nullptr) {
      auto it = ranges->find(entry.var);
      if (it != ranges->end()) {
        card = std::min(card, it->second.CandidateOids(db_).size());
      }
    }
    plan.from_card[i] = card;
  }

  plan.conjunct_rank.assign(conjuncts.size(), kRankComparison);
  plan.hash_joinable.assign(conjuncts.size(), false);
  for (size_t i = 0; i < conjuncts.size(); ++i) {
    const Condition& cond = *conjuncts[i];
    int rank = kRankComparison;
    switch (cond.kind) {
      case Condition::Kind::kStandalonePath: {
        const PathExpr& path = cond.path;
        const bool has_selector = !path.steps.empty() &&
                                  path.steps.back().selector.has_value();
        rank = has_selector ? kRankSelectorPath : kRankGeneratorPath;
        std::vector<Oid> attrs = IndexableAttrs(path);
        if (!attrs.empty() && indexes_ != nullptr) {
          auto it = from_of_var.find(path.head.var);
          if (it != from_of_var.end()) {
            const FromEntry& entry = query.from[it->second];
            const PathIndex* index =
                indexes_->Find(db_, entry.cls.value, attrs);
            if (index != nullptr) {
              rank = kRankIndexProbe;
              // Index selectivity also refines the head's cardinality:
              // one probe yields entries/distinct heads on average.
              const size_t avg =
                  index->entries() /
                  std::max<size_t>(1, index->distinct_values());
              plan.from_card[it->second] =
                  std::min(plan.from_card[it->second], std::max<size_t>(1, avg));
              plan.decisions.push_back(
                  "index " + index->Key() + " serves p" + std::to_string(i) +
                  " (" + std::to_string(index->distinct_values()) +
                  " values, " + std::to_string(index->entries()) +
                  " entries)");
            }
          }
        }
        break;
      }
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison: {
        if (HashJoinableShape(cond) &&
            from_of_var.count(cond.lhs.path.head.var) != 0 &&
            from_of_var.count(cond.rhs.path.head.var) != 0) {
          rank = kRankHashJoin;
          plan.hash_joinable[i] = true;
          const VacuousSides empty = VacuousSidesOf(cond);
          const std::string lhs = cond.lhs.path.ToString();
          const std::string rhs = cond.rhs.path.ToString();
          std::string decision =
              "hash join p" + std::to_string(i) + ": " +
              cond.lhs.path.head.var.ToString() + " with " +
              cond.rhs.path.head.var.ToString() + " on shared terminal values";
          if (empty.both) decision += " + empty " + lhs + " and " + rhs;
          if (empty.lhs) decision += " + empty " + lhs;
          if (empty.rhs) decision += " + empty " + rhs;
          plan.decisions.push_back(decision);
        } else if (cond.kind == Condition::Kind::kComparison &&
                   (SideIsGround(cond.lhs) || SideIsGround(cond.rhs))) {
          rank = kRankConstComparison;
        } else {
          rank = kRankComparison;
        }
        break;
      }
      case Condition::Kind::kSubclassOf:
      case Condition::Kind::kApplicable:
        rank = kRankSchema;
        break;
      case Condition::Kind::kNot:
        rank = kRankNot;
        break;
      case Condition::Kind::kOr:
        rank = kRankOr;
        break;
      case Condition::Kind::kUpdate:
        rank = kRankUpdate;  // unreachable: ContainsUpdate returned above
        break;
      case Condition::Kind::kAnd:
        rank = kRankComparison;  // FlattenAnd leaves no kAnd at top level
        break;
    }
    plan.conjunct_rank[i] = rank;
  }

  // Enumeration order: smallest candidate set first (stable, so equal
  // estimates keep declaration order).
  plan.from_order.resize(query.from.size());
  std::iota(plan.from_order.begin(), plan.from_order.end(), 0);
  std::stable_sort(plan.from_order.begin(), plan.from_order.end(),
                   [&](size_t a, size_t b) {
                     return plan.from_card[a] < plan.from_card[b];
                   });
  if (query.from.size() > 1) {
    std::string order = "order:";
    for (size_t idx : plan.from_order) {
      order += " " + query.from[idx].var.ToString() + "(" +
               CardToString(plan.from_card[idx]) + ")";
    }
    plan.decisions.push_back(order);
  }

  // Batch / parallel eligibility: only pure queries may cache candidate
  // arrays or split an extent across workers; the partitioned entry is
  // the first constant-class entry in the enumeration order.
  plan.batch_eligible = PurityScan(db_).Pure(query);
  if (plan.batch_eligible) {
    for (size_t idx : plan.from_order) {
      if (query.from[idx].cls.is_const()) {
        plan.parallel_eligible = true;
        plan.parallel_from = idx;
        plan.decisions.push_back(
            "parallel eligible: outer " + query.from[idx].var.ToString() +
            "(" + CardToString(plan.from_card[idx]) + ")");
        break;
      }
    }
  }
  return plan;
}

}  // namespace xsql
