#include "eval/evaluator.h"

#include <algorithm>
#include <memory>
#include <numeric>
#include <unordered_map>

#include "eval/aggregate.h"
#include "eval/comparator.h"
#include "eval/oid_function.h"
#include "eval/parallel.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "store/catalog.h"

namespace xsql {

std::string RenderEvalOutput(const EvalOutput& out) {
  std::string text;
  if (out.objects_created) {
    text += "(" + std::to_string(out.created.size()) + " objects created)\n";
  }
  const Relation& rel = out.relation;
  if (rel.columns().empty()) return text;
  for (size_t i = 0; i < rel.columns().size(); ++i) {
    if (i > 0) text += " | ";
    text += rel.columns()[i];
  }
  text += "\n";
  for (const auto& row : rel.rows()) {
    for (size_t i = 0; i < row.size(); ++i) {
      if (i > 0) text += " | ";
      text += row[i].ToString();
    }
    text += "\n";
  }
  text += "(" + std::to_string(rel.size()) + " rows)\n";
  return text;
}

}  // namespace xsql

namespace xsql {

namespace {

bool PathHasUnboundVar(const PathExpr& path, const Binding& binding) {
  auto scan_term = [&](const IdTerm& t, auto&& self) -> bool {
    if (t.is_var()) return !binding.Bound(t.var);
    if (t.is_apply()) {
      for (const IdTerm& a : t.args) {
        if (self(a, self)) return true;
      }
    }
    return false;
  };
  if (scan_term(path.head, scan_term)) return true;
  for (const PathStep& step : path.steps) {
    if (step.kind == PathStep::Kind::kPathVar) {
      if (!binding.Bound(step.path_var)) return true;
    } else {
      if (step.method.name_is_var && !binding.Bound(step.method.name_var)) {
        return true;
      }
      for (const IdTerm& a : step.method.args) {
        if (scan_term(a, scan_term)) return true;
      }
    }
    if (step.selector.has_value() && scan_term(*step.selector, scan_term)) {
      return true;
    }
  }
  return false;
}

/// §3.1 applicability: some declared signature of `method` covers a
/// class of `obj` — the attribute may be undefined (null) yet still
/// applicable; outside every signature it is inapplicable (type error).
bool IsApplicable(const Database& db, const Oid& method, const Oid& obj) {
  for (const auto& [cls, sig] : db.signatures().AllFor(method)) {
    if (db.IsInstanceOf(obj, cls)) return true;
  }
  return false;
}

/// First path (document order) in a value expression that still has an
/// unbound variable, or nullptr.
const PathExpr* FirstOpenPath(const ValueExpr& expr, const Binding& binding) {
  std::vector<const PathExpr*> paths;
  CollectPathExprs(expr, &paths);
  for (const PathExpr* p : paths) {
    if (PathHasUnboundVar(*p, binding)) return p;
  }
  return nullptr;
}

}  // namespace

// ---------------------------------------------------------------------
// Conjunct driver
// ---------------------------------------------------------------------

/// Enumerates the solutions of a conjunction by treating path
/// expressions (and OR groups of them) as binding generators and
/// everything else as filters, in a greedy ready-first order (or the
/// explicit order the caller fixed). This is the "sequence of nested
/// loops" evaluation §6.2 describes.
class ConjunctDriver {
 public:
  ConjunctDriver(Evaluator* ev, PathEvaluator* pe,
                 std::vector<const Condition*> conjuncts,
                 std::vector<size_t> order,
                 std::vector<const FromEntry*> froms = {},
                 const EvalOptions* opts = nullptr)
      : ev_(ev),
        pe_(pe),
        conjuncts_(std::move(conjuncts)),
        froms_(std::move(froms)),
        opts_(opts) {
    if (!order.empty() && order.size() == conjuncts_.size()) {
      fixed_order_ = std::move(order);
    }
    used_.assign(conjuncts_.size(), false);
    from_used_.assign(froms_.size(), false);
    // A plan applies only when its shape matches this driver's: same
    // conjunct and FROM counts, reordering allowed, and no explicit
    // order overriding it. Anything else silently falls back to the
    // greedy ready-first schedule — a plan can reorder work, never
    // change what work means.
    if (opts_ != nullptr && opts_->plan != nullptr && fixed_order_.empty() &&
        opts_->plan->allow_reorder &&
        opts_->plan->conjunct_rank.size() == conjuncts_.size() &&
        opts_->plan->hash_joinable.size() == conjuncts_.size() &&
        opts_->plan->from_order.size() == froms_.size()) {
      plan_ = opts_->plan;
    }
  }

  Status Enumerate(Binding* binding, const std::function<Status()>& done) {
    return Step(0, binding, done);
  }

 private:
  struct PickResult {
    enum class Kind : uint8_t { kConjunct, kFrom, kHashJoin };
    Kind kind = Kind::kConjunct;
    size_t index = 0;      // conjunct index (kConjunct, kHashJoin)
    size_t lhs_from = 0;   // kHashJoin: FROM slot of the lhs head var
    size_t rhs_from = 0;   // kHashJoin: FROM slot of the rhs head var
  };

  Status Step(size_t used_count, Binding* binding,
              const std::function<Status()>& done) {
    if (used_count == conjuncts_.size() + froms_.size()) return done();
    PickResult pick = Pick(*binding);
    if (pick.kind == PickResult::Kind::kHashJoin) {
      // One hash join consumes the conjunct and both FROM entries: the
      // join binds both variables and already checked extent
      // membership, so the entries must not re-enumerate.
      used_[pick.index] = true;
      from_used_[pick.lhs_from] = true;
      from_used_[pick.rhs_from] = true;
      Status st = EvalHashJoin(
          conjuncts_[pick.index], pick.lhs_from, pick.rhs_from, binding,
          [&]() -> Status { return Step(used_count + 3, binding, done); });
      used_[pick.index] = false;
      from_used_[pick.lhs_from] = false;
      from_used_[pick.rhs_from] = false;
      return st;
    }
    auto continue_step = [&]() -> Status {
      return Step(used_count + 1, binding, done);
    };
    if (pick.kind == PickResult::Kind::kFrom) {
      if (BatchableFrom(pick.index, *binding)) {
        return StepBatchedFrom(pick.index, used_count, binding, done);
      }
      from_used_[pick.index] = true;
      Status st = EvalFromEntry(*froms_[pick.index], binding, continue_step);
      from_used_[pick.index] = false;
      return st;
    }
    used_[pick.index] = true;
    Status st = EvalConjunct(conjuncts_[pick.index], binding, continue_step);
    used_[pick.index] = false;
    return st;
  }

  static PickResult PickConjunct(size_t i) {
    return {PickResult::Kind::kConjunct, i, 0, 0};
  }
  static PickResult PickFrom(size_t j) {
    return {PickResult::Kind::kFrom, j, 0, 0};
  }

  PickResult Pick(const Binding& binding) const {
    if (!fixed_order_.empty()) {
      for (size_t i : fixed_order_) {
        if (!used_[i]) return PickConjunct(i);
      }
    }
    // 1. Cheap filters: FROM entries whose variable is already bound
    //    (instance-of membership check, §3.4 consistency).
    for (size_t j = 0; j < froms_.size(); ++j) {
      if (!from_used_[j] && binding.Bound(froms_[j]->var)) {
        return PickFrom(j);
      }
    }
    // 2. A conjunct whose evaluation will not fall back to active-domain
    //    enumeration: a path with a determined head, a bound filter.
    //    With a plan, the cheapest-ranked ready conjunct wins; without,
    //    the first ready one (the historical greedy order).
    {
      size_t best = conjuncts_.size();
      for (size_t i = 0; i < conjuncts_.size(); ++i) {
        if (used_[i]) continue;
        if (!Ready(conjuncts_[i], binding)) continue;
        if (plan_ == nullptr) return PickConjunct(i);
        if (best == conjuncts_.size() ||
            plan_->conjunct_rank[i] < plan_->conjunct_rank[best]) {
          best = i;
        }
      }
      if (best != conjuncts_.size()) return PickConjunct(best);
    }
    // 2b. A planned hash join whose head variables are both still free:
    //    binds two variables at once for the price of one pass over
    //    each side instead of the nested-loop product stage 3 would
    //    start.
    if (plan_ != nullptr) {
      for (size_t i = 0; i < conjuncts_.size(); ++i) {
        if (used_[i] || !plan_->hash_joinable[i]) continue;
        size_t lhs_from = 0;
        size_t rhs_from = 0;
        if (HashJoinSlots(conjuncts_[i], binding, &lhs_from, &rhs_from)) {
          return {PickResult::Kind::kHashJoin, i, lhs_from, rhs_from};
        }
      }
    }
    // 3. A FROM extent as generator — preferring one that unblocks some
    //    pending path conjunct (its variable is an unbound path head).
    //    With a plan, ties and the fallback follow the selectivity
    //    order (smallest candidate set first).
    std::vector<size_t> from_order;
    if (plan_ != nullptr) {
      from_order = plan_->from_order;
    } else {
      from_order.resize(froms_.size());
      for (size_t j = 0; j < froms_.size(); ++j) from_order[j] = j;
    }
    size_t first_from = froms_.size();
    for (size_t j : from_order) {
      if (from_used_[j]) continue;
      if (first_from == froms_.size()) first_from = j;
      for (size_t i = 0; i < conjuncts_.size(); ++i) {
        if (used_[i]) continue;
        if (BlockedOnHead(conjuncts_[i], froms_[j]->var, binding)) {
          return PickFrom(j);
        }
      }
    }
    if (first_from != froms_.size()) return PickFrom(first_from);
    // 4. Fallback: any remaining conjunct (enumerates a domain) — the
    //    cheapest-ranked one under a plan.
    {
      size_t best = conjuncts_.size();
      for (size_t i = 0; i < conjuncts_.size(); ++i) {
        if (used_[i]) continue;
        if (plan_ == nullptr) return PickConjunct(i);
        if (best == conjuncts_.size() ||
            plan_->conjunct_rank[i] < plan_->conjunct_rank[best]) {
          best = i;
        }
      }
      if (best != conjuncts_.size()) return PickConjunct(best);
    }
    return PickConjunct(0);
  }

  /// Resolves a hash-joinable conjunct's head variables to their FROM
  /// slots. Fails (returns false) unless both variables are unbound,
  /// declared over constant classes, and their entries still unused —
  /// the preconditions for the join to replace the two extent loops.
  bool HashJoinSlots(const Condition* cond, const Binding& binding,
                     size_t* lhs_from, size_t* rhs_from) const {
    if ((cond->kind != Condition::Kind::kComparison &&
         cond->kind != Condition::Kind::kSetComparison) ||
        cond->lhs.kind != ValueExpr::Kind::kPath ||
        cond->rhs.kind != ValueExpr::Kind::kPath ||
        !cond->lhs.path.head.is_var() || !cond->rhs.path.head.is_var()) {
      return false;
    }
    const Variable& lvar = cond->lhs.path.head.var;
    const Variable& rvar = cond->rhs.path.head.var;
    if (lvar == rvar) return false;
    if (binding.Bound(lvar) || binding.Bound(rvar)) return false;
    auto slot = [&](const Variable& var, size_t* out) -> bool {
      for (size_t j = 0; j < froms_.size(); ++j) {
        if (from_used_[j]) continue;
        if (froms_[j]->var == var && froms_[j]->cls.is_const()) {
          *out = j;
          return true;
        }
      }
      return false;
    };
    return slot(lvar, lhs_from) && slot(rvar, rhs_from);
  }

  /// True when `cond` has a path headed by the unbound variable `var` —
  /// enumerating var's FROM extent unblocks it.
  static bool BlockedOnHead(const Condition* cond, const Variable& var,
                            const Binding& binding) {
    if (binding.Bound(var)) return false;
    std::vector<const PathExpr*> paths;
    switch (cond->kind) {
      case Condition::Kind::kStandalonePath:
        paths.push_back(&cond->path);
        break;
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison:
        CollectPathExprs(cond->lhs, &paths);
        CollectPathExprs(cond->rhs, &paths);
        break;
      default:
        return false;
    }
    for (const PathExpr* p : paths) {
      if (p->head.is_var() && p->head.var == var) return true;
    }
    return false;
  }

  Status EvalFromEntry(const FromEntry& entry, Binding* binding,
                       const std::function<Status()>& next) {
    obs::Span span("from", [&] { return entry.ToString(); });
    Database* db = ev_->db();
    const EvalOptions::PartitionRestriction* part = PartitionFor(entry.var);
    auto with_class = [&](const Oid& cls) -> Status {
      if (binding->Bound(entry.var)) {
        if (!db->IsInstanceOf(binding->Get(entry.var), cls)) {
          return Status::OK();
        }
        // A parallel worker accepts only its own slice: some other
        // generator (a path enumeration, an index probe, a meta-class
        // loop) may have bound the variable first, and this membership
        // filter is what confines those solutions to the partition.
        if (part != nullptr && !part->set->Contains(binding->Get(entry.var))) {
          return Status::OK();
        }
        span.AddRows(1);
        return next();
      }
      const VarRange* range = nullptr;
      if (opts_ != nullptr && opts_->use_range_pruning &&
          opts_->ranges != nullptr) {
        auto it = opts_->ranges->find(entry.var);
        if (it != opts_->ranges->end()) range = &it->second;
      }
      if (part != nullptr) {
        // Iterate the slice instead of the extent. The slice was cut
        // from the *planned* entry's extent; when the same variable is
        // FROM-declared twice, this entry's class may differ, so class
        // membership is re-checked per candidate.
        for (const Oid& oid : *part->ordered) {
          XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
          if (!db->IsInstanceOf(oid, cls)) continue;
          if (range != nullptr && !range->Within(*db, oid)) continue;
          BindScope scope(binding, entry.var, oid);
          span.AddRows(1);
          XSQL_RETURN_IF_ERROR(next());
        }
        return Status::OK();
      }
      for (const Oid& oid : db->Extent(cls)) {
        XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
        if (range != nullptr && !range->Within(*db, oid)) continue;
        BindScope scope(binding, entry.var, oid);
        span.AddRows(1);
        XSQL_RETURN_IF_ERROR(next());
      }
      return Status::OK();
    };
    if (entry.cls.is_var()) {
      const Variable& cvar = entry.cls.var;
      if (binding->Bound(cvar)) return with_class(binding->Get(cvar));
      for (const Oid& cls : db->graph().Extent(builtin::MetaClass())) {
        XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
        BindScope scope(binding, cvar, cls);
        XSQL_RETURN_IF_ERROR(with_class(cls));
      }
      return Status::OK();
    }
    if (!entry.cls.is_const()) {
      return Status::RuntimeError("FROM class must be a name or variable");
    }
    return with_class(entry.cls.value);
  }

  /// True when the path can evaluate without falling back to domain
  /// enumeration and without hitting unbound method/id-term arguments.
  static bool PathReady(const PathExpr& path, const Binding& binding,
                        bool head_may_enumerate) {
    auto term_args_bound = [&binding](const IdTerm& t, auto&& self) -> bool {
      if (t.is_var()) return binding.Bound(t.var);
      if (t.is_apply()) {
        for (const IdTerm& a : t.args) {
          if (!self(a, self)) return false;
        }
      }
      return true;
    };
    if (path.head.is_var()) {
      if (!head_may_enumerate && !binding.Bound(path.head.var)) return false;
    } else if (!term_args_bound(path.head, term_args_bound)) {
      return false;
    }
    for (const PathStep& step : path.steps) {
      if (step.kind != PathStep::Kind::kMethod) continue;
      for (const IdTerm& arg : step.method.args) {
        if (!term_args_bound(arg, term_args_bound)) return false;
      }
    }
    return true;
  }

  /// The fresh index answering this standalone-path conjunct by reverse
  /// lookup, or nullptr: shape `X.a1...an[v]` with X an unbound
  /// FROM-declared variable, constant attribute names, no arguments, no
  /// intermediate selectors, and an evaluable terminal selector.
  const PathIndex* IndexFor(const Condition* cond,
                            const Binding& binding) const {
    if (opts_ == nullptr || opts_->indexes == nullptr) return nullptr;
    if (cond->kind != Condition::Kind::kStandalonePath) return nullptr;
    const PathExpr& path = cond->path;
    if (!path.head.is_var() || binding.Bound(path.head.var)) return nullptr;
    if (path.steps.empty()) return nullptr;
    std::vector<Oid> attrs;
    for (size_t i = 0; i < path.steps.size(); ++i) {
      const PathStep& step = path.steps[i];
      if (step.kind != PathStep::Kind::kMethod || step.method.name_is_var ||
          !step.method.args.empty()) {
        return nullptr;
      }
      const bool last = i + 1 == path.steps.size();
      if (step.selector.has_value() != last) return nullptr;
      if (last) {
        const IdTerm& sel = *step.selector;
        if (!(sel.is_const() ||
              (sel.is_var() && binding.Bound(sel.var)))) {
          return nullptr;
        }
      }
      attrs.push_back(step.method.name);
    }
    // Anchor class: the head variable's FROM declaration.
    for (const FromEntry* entry : froms_) {
      if (entry->var == path.head.var && entry->cls.is_const()) {
        return opts_->indexes->Find(*ev_->db(), entry->cls.value, attrs);
      }
    }
    return nullptr;
  }

  bool Ready(const Condition* cond, const Binding& binding) const {
    switch (cond->kind) {
      case Condition::Kind::kStandalonePath: {
        const IdTerm& head = cond->path.head;
        if (head.is_var() && !binding.Bound(head.var)) {
          return IndexFor(cond, binding) != nullptr;
        }
        return PathReady(cond->path, binding, /*head_may_enumerate=*/false);
      }
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison: {
        // Ready when every contained path has a determined head and no
        // unbound method/id-term arguments.
        for (const ValueExpr* side : {&cond->lhs, &cond->rhs}) {
          std::vector<const PathExpr*> paths;
          CollectPathExprs(*side, &paths);
          for (const PathExpr* p : paths) {
            if (!PathReady(*p, binding, /*head_may_enumerate=*/false)) {
              return false;
            }
          }
        }
        return true;
      }
      case Condition::Kind::kNot: {
        std::vector<Variable> vars;
        // Negation is safe only when ground.
        Query probe;
        probe.where = cond->children[0];
        for (const Variable& v : CollectVariables(probe)) {
          if (!binding.Bound(v)) return false;
        }
        return true;
      }
      case Condition::Kind::kOr: {
        for (const auto& child : cond->children) {
          if (!Ready(child.get(), binding)) return false;
        }
        return true;
      }
      default:
        return true;
    }
  }

  Status EvalConjunct(const Condition* cond, Binding* binding,
                      const std::function<Status()>& next) {
    obs::Span span("conjunct", [&] { return cond->ToString(); });
    switch (cond->kind) {
      case Condition::Kind::kStandalonePath: {
        if (const PathIndex* index = IndexFor(cond, *binding)) {
          static obs::Counter& lookups =
              obs::MetricsRegistry::Global().GetCounter("xsql.index.lookups");
          lookups.Inc();
          obs::Span index_span("index/lookup",
                               [&] { return cond->path.ToString(); });
          // Reverse evaluation via the [BERT89] path index: bind the
          // head variable to each object reaching the terminal value.
          PathEvaluator pe(*ev_->db(), ev_, PathEvalOptions{ev_->ctx_});
          const IdTerm& sel = *cond->path.steps.back().selector;
          XSQL_ASSIGN_OR_RETURN(Oid value, pe.EvalIdTerm(sel, *binding));
          const EvalOptions::PartitionRestriction* part =
              PartitionFor(cond->path.head.var);
          for (const Oid& head : index->Lookup(value)) {
            if (part != nullptr && !part->set->Contains(head)) continue;
            BindScope scope(binding, cond->path.head.var, head);
            index_span.AddRows(1);
            XSQL_RETURN_IF_ERROR(next());
          }
          return Status::OK();
        }
        return pe_->Enumerate(cond->path, binding,
                              [&](const Oid&) -> Status {
                                span.AddRows(1);
                                return next();
                              });
      }
      case Condition::Kind::kAnd: {
        std::vector<const Condition*> subs;
        FlattenAnd(*cond, &subs);
        ConjunctDriver sub(ev_, pe_, std::move(subs), {});
        return sub.Enumerate(binding, next);
      }
      case Condition::Kind::kOr: {
        for (const auto& child : cond->children) {
          XSQL_RETURN_IF_ERROR(EvalConjunct(child.get(), binding, next));
        }
        return Status::OK();
      }
      case Condition::Kind::kNot: {
        XSQL_ASSIGN_OR_RETURN(bool truth,
                              ev_->TestCondition(*cond->children[0], binding));
        return truth ? Status::OK() : next();
      }
      case Condition::Kind::kComparison:
      case Condition::Kind::kSetComparison:
        return EnumerateComparison(cond, binding, next);
      case Condition::Kind::kSubclassOf:
        return EnumerateSubclassOf(cond, binding, next);
      case Condition::Kind::kApplicable:
        return EnumerateApplicable(cond, binding, next);
      case Condition::Kind::kUpdate: {
        XSQL_RETURN_IF_ERROR(ev_->ExecuteUpdate(*cond->update, binding));
        return next();
      }
    }
    return Status::RuntimeError("unexpected condition kind");
  }

  /// The Theorem 6.1(2) range for a FROM variable, or null.
  const VarRange* RangeFor(const Variable& var) const {
    if (opts_ == nullptr || !opts_->use_range_pruning ||
        opts_->ranges == nullptr) {
      return nullptr;
    }
    auto it = opts_->ranges->find(var);
    return it == opts_->ranges->end() ? nullptr : &it->second;
  }

  /// The parallel worker's partition when it restricts `var`, or null.
  const EvalOptions::PartitionRestriction* PartitionFor(
      const Variable& var) const {
    if (opts_ == nullptr || opts_->partition == nullptr) return nullptr;
    return opts_->partition->var == var ? opts_->partition : nullptr;
  }

  /// True when the FROM entry can run batch-at-a-time: a pure plan
  /// (nothing mutates mid-statement, so cached candidate arrays stay
  /// valid), batching enabled, a constant class, and the variable still
  /// unbound (a bound entry is a membership filter, not a generator).
  bool BatchableFrom(size_t j, const Binding& binding) const {
    return plan_ != nullptr && plan_->batch_eligible && opts_ != nullptr &&
           opts_->exec_batch && froms_[j]->cls.is_const() &&
           !binding.Bound(froms_[j]->var);
  }

  /// True when every variable of `cond` is either bound or `var` — i.e.
  /// binding `var` makes the conjunct ground, so it can run as a batch
  /// prefilter via TestCondition.
  bool GroundAfter(const Condition* cond, const Variable& var,
                   const Binding& binding) const {
    Query probe;
    // Non-owning alias: CollectVariables only reads through the probe.
    probe.where = std::shared_ptr<Condition>(std::shared_ptr<Condition>(),
                                             const_cast<Condition*>(cond));
    for (const Variable& v : CollectVariables(probe)) {
      if (!(v == var) && !binding.Bound(v)) return false;
    }
    return true;
  }

  /// Batch-at-a-time evaluation of one FROM generator: materializes the
  /// entry's candidates once per slot (cached across re-entries — the
  /// tuple path re-reads the extent on every outer binding precisely
  /// because an impure conjunct could mutate it, which purity rules
  /// out), folds every conjunct that becomes ground once `entry.var`
  /// binds into selection-vector prefilter passes over chunks of
  /// candidates, and recurses into the driver only for survivors.
  /// Standalone paths and ORs never join the prefilter set: they can
  /// continue the enumeration more than once per candidate, which a
  /// pass/fail selection bit cannot express.
  Status StepBatchedFrom(size_t from_index, size_t used_count,
                         Binding* binding,
                         const std::function<Status()>& done) {
    static obs::Counter& batches =
        obs::MetricsRegistry::Global().GetCounter("xsql.exec.batches");
    static obs::Counter& batch_rows =
        obs::MetricsRegistry::Global().GetCounter("xsql.exec.batch_rows");
    static obs::Counter& batch_filtered =
        obs::MetricsRegistry::Global().GetCounter("xsql.exec.batch_filtered");
    const FromEntry& entry = *froms_[from_index];
    obs::Span span("exec/batch", [&] { return entry.ToString(); });
    Database* db = ev_->db();

    auto cached = from_cache_.find(from_index);
    if (cached == from_cache_.end()) {
      std::vector<Oid> cands;
      const VarRange* range = RangeFor(entry.var);
      const EvalOptions::PartitionRestriction* part = PartitionFor(entry.var);
      if (part != nullptr) {
        // A worker scans only its slice (class membership re-checked:
        // the slice was cut from the planned entry, and the same
        // variable may be FROM-declared under another class too).
        for (const Oid& oid : *part->ordered) {
          XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
          if (!db->IsInstanceOf(oid, entry.cls.value)) continue;
          if (range != nullptr && !range->Within(*db, oid)) continue;
          cands.push_back(oid);
        }
      } else {
        for (const Oid& oid : db->Extent(entry.cls.value)) {
          XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
          if (range != nullptr && !range->Within(*db, oid)) continue;
          cands.push_back(oid);
        }
      }
      cached = from_cache_.emplace(from_index, std::move(cands)).first;
    }
    const std::vector<Oid>& cands = cached->second;

    std::vector<size_t> filters;
    for (size_t i = 0; i < conjuncts_.size(); ++i) {
      if (used_[i]) continue;
      switch (conjuncts_[i]->kind) {
        case Condition::Kind::kComparison:
        case Condition::Kind::kSetComparison:
        case Condition::Kind::kNot:
        case Condition::Kind::kSubclassOf:
        case Condition::Kind::kApplicable:
          break;
        default:
          continue;
      }
      if (GroundAfter(conjuncts_[i], entry.var, *binding)) {
        filters.push_back(i);
      }
    }
    // Cheapest-ranked filters first, so selective passes shrink the
    // selection before costlier ones run.
    std::stable_sort(filters.begin(), filters.end(), [&](size_t a, size_t b) {
      return plan_->conjunct_rank[a] < plan_->conjunct_rank[b];
    });

    from_used_[from_index] = true;
    for (size_t f : filters) used_[f] = true;
    const size_t consumed = 1 + filters.size();

    Status st = Status::OK();
    if (filters.empty()) {
      // No prefilters: still iterate from the cached array (the big
      // constant-factor win on FROM re-entries), one step per candidate.
      for (const Oid& oid : cands) {
        st = ev_->ctx_->Step();
        if (!st.ok()) break;
        BindScope scope(binding, entry.var, oid);
        span.AddRows(1);
        st = Step(used_count + consumed, binding, done);
        if (!st.ok()) break;
      }
    } else {
      constexpr size_t kBatchSize = 1024;
      std::vector<char> sel;
      std::vector<Oid> chunk;
      for (size_t base = 0; base < cands.size() && st.ok();
           base += kBatchSize) {
        const size_t n = std::min(kBatchSize, cands.size() - base);
        batches.Inc();
        batch_rows.Inc(n);
        chunk.assign(cands.begin() + base, cands.begin() + base + n);
        sel.assign(n, 1);
        for (size_t f : filters) {
          st = FilterBatch(ev_, *conjuncts_[f], entry.var, chunk, binding,
                           &sel);
          if (!st.ok()) break;
        }
        if (!st.ok()) break;
        size_t kept = 0;
        for (size_t i = 0; i < n; ++i) {
          if (!sel[i]) continue;
          ++kept;
          BindScope scope(binding, entry.var, chunk[i]);
          span.AddRows(1);
          st = Step(used_count + consumed, binding, done);
          if (!st.ok()) break;
        }
        batch_filtered.Inc(n - kept);
      }
    }

    for (size_t f : filters) used_[f] = false;
    from_used_[from_index] = false;
    return st;
  }

  /// Evaluates a variable-variable equality or set comparison conjunct
  /// as a hash join: builds a table from terminal values to head objects
  /// over the smaller side's candidates, probes it with the larger
  /// side's, and re-tests the exact §3.2 condition on every candidate
  /// pair. The candidates are a *complete* filter: a pair sharing no
  /// terminal value can hold only through an empty side
  /// (Planner::VacuousSidesOf), so a probe also pairs with the empty
  /// build heads when the build side may hold vacuously, and with every
  /// build head when its own empty side may. The ground re-test keeps
  /// the rest exact (kNone singletons, strict subsets, setEq). Replaces
  /// the O(|L|·|R|) nested loop with O(|L|+|R|) side evaluations plus
  /// output pairs.
  Status EvalHashJoin(const Condition* cond, size_t lhs_from,
                      size_t rhs_from, Binding* binding,
                      const std::function<Status()>& next) {
    static obs::Counter& joins =
        obs::MetricsRegistry::Global().GetCounter("xsql.plan.hash_joins");
    joins.Inc();
    obs::Span span("plan/hash-join", [&] { return cond->ToString(); });
    Database* db = ev_->db();
    auto candidates = [&](const FromEntry& entry) -> Result<std::vector<Oid>> {
      std::vector<Oid> out;
      const VarRange* range = RangeFor(entry.var);
      // The join consumes the FROM entry outright, so a parallel
      // worker's partition must be applied here — no later membership
      // filter will see these bindings.
      const EvalOptions::PartitionRestriction* part = PartitionFor(entry.var);
      for (const Oid& oid : db->Extent(entry.cls.value)) {
        XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
        if (range != nullptr && !range->Within(*db, oid)) continue;
        if (part != nullptr && !part->set->Contains(oid)) continue;
        out.push_back(oid);
      }
      return out;
    };
    XSQL_ASSIGN_OR_RETURN(std::vector<Oid> lhs_cands,
                          candidates(*froms_[lhs_from]));
    XSQL_ASSIGN_OR_RETURN(std::vector<Oid> rhs_cands,
                          candidates(*froms_[rhs_from]));
    // Build over the smaller candidate set, probe with the larger.
    const bool build_left = lhs_cands.size() <= rhs_cands.size();
    const FromEntry& build_entry =
        build_left ? *froms_[lhs_from] : *froms_[rhs_from];
    const FromEntry& probe_entry =
        build_left ? *froms_[rhs_from] : *froms_[lhs_from];
    const ValueExpr& build_expr = build_left ? cond->lhs : cond->rhs;
    const ValueExpr& probe_expr = build_left ? cond->rhs : cond->lhs;
    const std::vector<Oid>& build_cands = build_left ? lhs_cands : rhs_cands;
    const std::vector<Oid>& probe_cands = build_left ? rhs_cands : lhs_cands;

    const VacuousSides vacuous = Planner::VacuousSidesOf(*cond);
    const bool build_vacuous = build_left ? vacuous.lhs : vacuous.rhs;
    const bool probe_vacuous = build_left ? vacuous.rhs : vacuous.lhs;

    // Terminal value -> positions (in candidate order) of build heads
    // reaching it; `empty` lists the build heads reaching none.
    std::unordered_map<Oid, std::vector<size_t>, OidHash> table;
    std::vector<size_t> empty;
    for (size_t bi = 0; bi < build_cands.size(); ++bi) {
      XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
      BindScope scope(binding, build_entry.var, build_cands[bi]);
      XSQL_ASSIGN_OR_RETURN(OidSet values,
                            ev_->EvalValue(build_expr, binding, *opts_));
      if (values.empty()) empty.push_back(bi);
      for (const Oid& v : values) table[v].push_back(bi);
    }
    for (const Oid& probe_oid : probe_cands) {
      XSQL_RETURN_IF_ERROR(ev_->ctx_->Step());
      BindScope probe_scope(binding, probe_entry.var, probe_oid);
      XSQL_ASSIGN_OR_RETURN(OidSet values,
                            ev_->EvalValue(probe_expr, binding, *opts_));
      // Distinct partners in candidate order: a pair must surface once
      // no matter how many terminal values it shares.
      std::vector<size_t> partners;
      if (values.empty() && probe_vacuous) {
        partners.resize(build_cands.size());
        std::iota(partners.begin(), partners.end(), 0);
      } else {
        for (const Oid& v : values) {
          auto it = table.find(v);
          if (it == table.end()) continue;
          partners.insert(partners.end(), it->second.begin(),
                          it->second.end());
        }
        if (build_vacuous || (vacuous.both && values.empty())) {
          partners.insert(partners.end(), empty.begin(), empty.end());
        }
        std::sort(partners.begin(), partners.end());
        partners.erase(std::unique(partners.begin(), partners.end()),
                       partners.end());
      }
      for (size_t bi : partners) {
        BindScope build_scope(binding, build_entry.var, build_cands[bi]);
        XSQL_ASSIGN_OR_RETURN(bool truth,
                              ev_->TestCondition(*cond, binding));
        if (!truth) continue;
        span.AddRows(1);
        XSQL_RETURN_IF_ERROR(next());
      }
    }
    return Status::OK();
  }

  /// Binds the free variables of a comparison by enumerating its path
  /// expressions, then tests the ground comparison (§3.4).
  Status EnumerateComparison(const Condition* cond, Binding* binding,
                             const std::function<Status()>& next) {
    const PathExpr* open = FirstOpenPath(cond->lhs, *binding);
    if (open == nullptr) open = FirstOpenPath(cond->rhs, *binding);
    if (open == nullptr) {
      XSQL_ASSIGN_OR_RETURN(bool truth, ev_->TestCondition(*cond, binding));
      return truth ? next() : Status::OK();
    }
    return pe_->Enumerate(*open, binding, [&](const Oid&) -> Status {
      return EnumerateComparison(cond, binding, next);
    });
  }

  /// `"M applicableTo X`: enumerates method-objects for an unbound
  /// method term and tests applicability against the signature store.
  Status EnumerateApplicable(const Condition* cond, Binding* binding,
                             const std::function<Status()>& next) {
    const Database& db = *ev_->db();
    auto with_object = [&](const Oid& method) -> Status {
      auto test = [&](const Oid& obj) -> Status {
        if (IsApplicable(db, method, obj)) return next();
        return Status::OK();
      };
      const IdTerm& target = cond->super;
      if (target.is_var() && !binding->Bound(target.var)) {
        for (const Oid& obj : db.ActiveDomain()) {
          BindScope scope(binding, target.var, obj);
          XSQL_RETURN_IF_ERROR(test(obj));
        }
        return Status::OK();
      }
      PathEvaluator pe(db, ev_, PathEvalOptions{ev_->ctx_});
      XSQL_ASSIGN_OR_RETURN(Oid obj, pe.EvalIdTerm(target, *binding));
      return test(obj);
    };
    const IdTerm& method_term = cond->sub;
    if (method_term.is_var() && !binding->Bound(method_term.var)) {
      for (const Oid& method :
           db.graph().Extent(builtin::MetaMethod())) {
        BindScope scope(binding, method_term.var, method);
        XSQL_RETURN_IF_ERROR(with_object(method));
      }
      return Status::OK();
    }
    PathEvaluator pe(db, ev_, PathEvalOptions{ev_->ctx_});
    XSQL_ASSIGN_OR_RETURN(Oid method, pe.EvalIdTerm(method_term, *binding));
    return with_object(method);
  }

  Status EnumerateSubclassOf(const Condition* cond, Binding* binding,
                             const std::function<Status()>& next) {
    const Database& db = *ev_->db();
    auto with_term = [&](const IdTerm& term,
                         auto&& body) -> Status {  // body(Oid)
      if (term.is_var() && !binding->Bound(term.var)) {
        for (const Oid& cls : db.graph().Extent(builtin::MetaClass())) {
          BindScope scope(binding, term.var, cls);
          XSQL_RETURN_IF_ERROR(body(cls));
        }
        return Status::OK();
      }
      PathEvaluator pe(db, ev_, PathEvalOptions{ev_->ctx_});
      XSQL_ASSIGN_OR_RETURN(Oid value, pe.EvalIdTerm(term, *binding));
      return body(value);
    };
    return with_term(cond->sub, [&](const Oid& sub) -> Status {
      return with_term(cond->super, [&](const Oid& super) -> Status {
        if (db.graph().IsStrictSubclass(sub, super)) return next();
        return Status::OK();
      });
    });
  }

  Evaluator* ev_;
  PathEvaluator* pe_;
  std::vector<const Condition*> conjuncts_;
  std::vector<const FromEntry*> froms_;
  const EvalOptions* opts_;
  /// Validated against this driver's shape in the constructor; null
  /// means greedy ready-first scheduling (the historical behavior).
  const QueryPlan* plan_ = nullptr;
  std::vector<size_t> fixed_order_;
  std::vector<bool> used_;
  std::vector<bool> from_used_;
  /// Materialized candidate arrays per FROM slot (batch mode only);
  /// valid for the whole statement because batch mode requires a pure
  /// plan — nothing can grow or shrink an extent mid-statement.
  std::map<size_t, std::vector<Oid>> from_cache_;
};

// ---------------------------------------------------------------------
// Evaluator
// ---------------------------------------------------------------------

PathEvaluator Evaluator::MakePathEvaluator(const EvalOptions& opts) {
  PathEvalOptions peo;
  peo.ctx = ctx_;
  const RangeMap* ranges =
      (opts.use_range_pruning && opts.ranges != nullptr) ? opts.ranges
                                                         : nullptr;
  const EvalOptions::PartitionRestriction* partition = opts.partition;
  if (ranges != nullptr || partition != nullptr) {
    // Theorem 6.1(2): restrict instantiations of each v-selector X to
    // oids within A(X). Candidates are materialized once per variable
    // and shared; the no-range fallback hands out the database's shared
    // active-domain snapshot instead of copying it per probe. A
    // parallel worker's partitioned variable is further confined to its
    // slice — every generator must be, or the worker would produce
    // solutions outside its partition.
    Database* db = db_;
    auto cache =
        std::make_shared<std::map<Variable, std::shared_ptr<const OidSet>>>();
    peo.var_domain =
        [ranges, db, cache, partition](
            const Variable& var) -> std::shared_ptr<const OidSet> {
      if (partition != nullptr && var == partition->var) {
        // Non-owning alias: the restriction outlives the statement.
        return std::shared_ptr<const OidSet>(std::shared_ptr<const OidSet>(),
                                             partition->set);
      }
      if (ranges == nullptr) return db->ActiveDomainShared();
      auto it = ranges->find(var);
      if (it == ranges->end()) return db->ActiveDomainShared();
      auto cached = cache->find(var);
      if (cached != cache->end()) return cached->second;
      static obs::Counter& materializations =
          obs::MetricsRegistry::Global().GetCounter(
              "xsql.eval.domain_materializations");
      materializations.Inc();
      auto candidates =
          std::make_shared<OidSet>(it->second.CandidateOids(*db));
      cache->emplace(var, candidates);
      return candidates;
    };
  }
  return PathEvaluator(*db_, this, std::move(peo));
}

std::vector<Oid> Evaluator::ClassesForInvoke(const Oid& oid) const {
  std::vector<Oid> classes = db_->graph().DirectClassesOf(oid);
  if (oid.is_numeric()) classes.push_back(builtin::Numeral());
  if (oid.is_string()) classes.push_back(builtin::String());
  if (oid.is_bool()) classes.push_back(builtin::Boolean());
  if (oid.is_nil()) classes.push_back(builtin::NilClass());
  return classes;
}

template <typename Value, typename Compute>
const Value& Evaluator::Memoized(ClassSetMemo<Value>* memo, const Oid& receiver,
                                 const Oid& method, int arity,
                                 Compute compute) {
  if (memo_version_ != db_->version()) {
    dispatch_memo_.clear();
    methods_on_memo_.clear();
    memo_version_ = db_->version();
  }
  static const std::vector<Oid> kNoClasses;
  const std::vector<Oid>* direct = db_->graph().FindInstance(receiver);
  const std::vector<Oid>& classes = direct != nullptr ? *direct : kNoClasses;
  const OidKind kind = receiver.kind();  // picks a literal's builtin class
  size_t hash = method.Hash() * 31 + static_cast<size_t>(arity) * 7 +
                static_cast<size_t>(kind);
  for (const Oid& cls : classes) hash = hash * 31 + cls.Hash();
  auto [lo, hi] = memo->equal_range(hash);
  for (auto it = lo; it != hi; ++it) {
    const ClassSetEntry<Value>& entry = it->second;
    if (entry.kind == kind && entry.arity == arity &&
        entry.method == method && entry.classes == classes) {
      return entry.value;
    }
  }
  static obs::Counter& resolutions = obs::MetricsRegistry::Global().GetCounter(
      "xsql.eval.dispatch_resolutions");
  resolutions.Inc();
  return memo
      ->emplace(hash, ClassSetEntry<Value>{classes, kind, method, arity,
                                           compute(classes)})
      ->second.value;
}

Result<OidSet> Evaluator::Invoke(const Oid& receiver, const Oid& method,
                                 const std::vector<Oid>& args) {
  XSQL_RETURN_IF_ERROR(ctx_->Step());
  const int arity = static_cast<int>(args.size());
  if (arity == 0) {
    // Stored attribute value first, then (below) the default inherited
    // from class-objects — GetAttribute's order.
    if (const Object* obj = db_->GetObject(receiver)) {
      if (const AttrValue* value = obj->Get(method)) return value->AsSet();
    }
  }
  const Dispatch& dispatch = Memoized(
      &dispatch_memo_, receiver, method, arity,
      [&](const std::vector<Oid>& classes) {
        return Dispatch{
            arity == 0 ? db_->InheritedDefault(classes, method) : nullptr,
            db_->methods().Resolve(db_->graph(), ClassesForInvoke(receiver),
                                   method, arity)};
      });
  if (dispatch.inherited_default != nullptr) {
    return dispatch.inherited_default->AsSet();
  }
  if (!dispatch.resolution.ok()) {
    if (dispatch.resolution.status().code() == StatusCode::kNotFound) {
      // Undefined or inapplicable: no value, hence no database paths.
      return OidSet();
    }
    return dispatch.resolution.status();  // unresolved inheritance conflict
  }
  // Hold the body: a nested statement that writes clears the memo.
  const std::shared_ptr<const MethodBody> body = dispatch.resolution->body;
  if (const auto* native = dynamic_cast<const NativeMethodBody*>(body.get())) {
    return native->fn()(*db_, receiver, args);
  }
  if (const auto* query = dynamic_cast<const QueryMethodBody*>(body.get())) {
    return InvokeQueryMethod(*query, receiver, args);
  }
  return Status::RuntimeError("unknown method body kind: " + body->kind());
}

OidSet Evaluator::MethodsOn(const Oid& receiver, size_t arity) {
  const OidSet& inherited = Memoized(
      &methods_on_memo_, receiver, Oid(), static_cast<int>(arity),
      [&](const std::vector<Oid>&) {
        OidSet out;
        if (arity == 0) {
          for (const Oid& cls : db_->graph().AllClassesOf(receiver)) {
            if (const Object* class_obj = db_->GetObject(cls)) {
              for (const auto& [attr, value] : class_obj->attrs()) {
                out.Insert(attr);
              }
            }
          }
        }
        for (const MethodRegistry::Entry& entry :
             db_->methods().AllDefinitions()) {
          if (entry.arity == static_cast<int>(arity) &&
              db_->IsInstanceOf(receiver, entry.cls)) {
            out.Insert(entry.method);
          }
        }
        return out;
      });
  const Object* obj = arity == 0 ? db_->GetObject(receiver) : nullptr;
  if (obj == nullptr || obj->attrs().empty()) return inherited;
  OidSet own;
  for (const auto& [attr, value] : obj->attrs()) own.Insert(attr);
  return OidSet::Union(own, inherited);
}

Result<Oid> Evaluator::ResolveIdFunction(const std::string& fn,
                                         const std::vector<Oid>& args) {
  if (views_ != nullptr && views_->IsView(fn)) {
    XSQL_RETURN_IF_ERROR(views_->EnsureMaterialized(fn));
  }
  return Oid::Term(fn, args);
}

Result<OidSet> Evaluator::InvokeQueryMethod(const QueryMethodBody& body,
                                            const Oid& receiver,
                                            const std::vector<Oid>& args) {
  static obs::Counter& method_calls =
      obs::MetricsRegistry::Global().GetCounter("xsql.eval.method_calls");
  method_calls.Inc();
  obs::Span span("method/invoke", [&] { return body.method().ToString(); });
  RecursionScope depth(ctx_, "query method " + body.method().ToString());
  XSQL_RETURN_IF_ERROR(depth.status());
  if (args.size() != body.params().size()) {
    return Status::RuntimeError("arity mismatch invoking " +
                                body.method().ToString());
  }

  Binding binding;
  binding.Set(body.receiver_var(), receiver);
  for (size_t i = 0; i < args.size(); ++i) {
    if (!binding.Set(body.params()[i], args[i])) return OidSet();
  }

  EvalOptions opts;
  PathEvaluator pe = MakePathEvaluator(opts);
  OidSet results;
  auto solution = [&]() -> Status {
    XSQL_ASSIGN_OR_RETURN(OidSet value,
                          EvalValue(body.result_expr(), &binding, opts));
    results = OidSet::Union(results, value);
    return Status::OK();
  };
  XSQL_RETURN_IF_ERROR(
      ForEachSolution(body.from(), body.where(), &binding, opts, &pe,
                      /*order=*/{}, solution));
  if (!body.set_valued() && results.size() > 1) {
    return Status::RuntimeError("scalar method " + body.method().ToString() +
                                " produced " + std::to_string(results.size()) +
                                " values");
  }
  return results;
}

Status Evaluator::ForEachSolution(const std::vector<FromEntry>& from,
                                  const std::shared_ptr<Condition>& where,
                                  Binding* binding, const EvalOptions& opts,
                                  PathEvaluator* pe,
                                  std::vector<size_t> order,
                                  const std::function<Status()>& cb) {
  std::vector<const Condition*> conjuncts;
  if (where != nullptr) FlattenAnd(*where, &conjuncts);

  if (order.empty()) {
    // Integrated mode: FROM entries join the ready-first driver, so a
    // path expression can bind a variable and the FROM entry degrades
    // to a membership filter — no eager cartesian product.
    std::vector<const FromEntry*> froms;
    froms.reserve(from.size());
    for (const FromEntry& entry : from) froms.push_back(&entry);
    ConjunctDriver driver(this, pe, std::move(conjuncts), {},
                          std::move(froms), &opts);
    return driver.Enumerate(binding, cb);
  }

  // Explicit-order mode (plan experiments): FROM loops run eagerly, and
  // the conjuncts follow the caller's order exactly.
  ConjunctDriver driver(this, pe, std::move(conjuncts), std::move(order), {},
                        &opts);
  std::function<Status(size_t)> from_loop = [&](size_t idx) -> Status {
    if (idx == from.size()) return driver.Enumerate(binding, cb);
    const FromEntry& entry = from[idx];
    auto with_class = [&](const Oid& cls) -> Status {
      if (binding->Bound(entry.var)) {
        // §3.4 consistency with the FROM clause.
        if (!db_->IsInstanceOf(binding->Get(entry.var), cls)) {
          return Status::OK();
        }
        return from_loop(idx + 1);
      }
      OidSet extent = db_->Extent(cls);
      const VarRange* range = nullptr;
      if (opts.use_range_pruning && opts.ranges != nullptr) {
        auto it = opts.ranges->find(entry.var);
        if (it != opts.ranges->end()) range = &it->second;
      }
      for (const Oid& oid : extent) {
        XSQL_RETURN_IF_ERROR(ctx_->Step());
        if (range != nullptr && !range->Within(*db_, oid)) continue;
        BindScope scope(binding, entry.var, oid);
        XSQL_RETURN_IF_ERROR(from_loop(idx + 1));
      }
      return Status::OK();
    };
    if (entry.cls.is_var()) {
      const Variable& cvar = entry.cls.var;
      if (binding->Bound(cvar)) return with_class(binding->Get(cvar));
      for (const Oid& cls : db_->graph().Extent(builtin::MetaClass())) {
        BindScope scope(binding, cvar, cls);
        XSQL_RETURN_IF_ERROR(with_class(cls));
      }
      return Status::OK();
    }
    if (!entry.cls.is_const()) {
      return Status::RuntimeError("FROM class must be a name or variable");
    }
    return with_class(entry.cls.value);
  };
  return from_loop(0);
}

Result<EvalOutput> Evaluator::Run(const Query& query, const EvalOptions& opts,
                                  const Binding* outer) {
  static obs::Counter& queries =
      obs::MetricsRegistry::Global().GetCounter("xsql.eval.queries");
  static obs::Counter& rows =
      obs::MetricsRegistry::Global().GetCounter("xsql.eval.rows");
  queries.Inc();
  obs::Span span("eval/query", [&] { return query.ToString(); });
  const uint64_t steps_before = ctx_->steps();
  Result<EvalOutput> out = [&]() -> Result<EvalOutput> {
    Result<EvalOutput> parallel = Status::RuntimeError("parallel: unset");
    if (TryRunParallel(query, opts, outer, &parallel)) return parallel;
    return RunImpl(query, opts, outer);
  }();
  span.AddSteps(ctx_->steps() - steps_before);
  if (out.ok()) {
    span.AddRows(out->relation.size());
    rows.Inc(out->relation.size());
  }
  return out;
}

bool Evaluator::TryRunParallel(const Query& query, const EvalOptions& opts,
                               const Binding* outer, Result<EvalOutput>* out) {
  if (opts.pool == nullptr || opts.max_workers < 2 ||
      opts.partition != nullptr || !opts.exec_batch ||
      !opts.conjunct_order.empty()) {
    return false;
  }
  const QueryPlan* plan = opts.plan;
  if (plan == nullptr || !plan->allow_reorder || !plan->parallel_eligible ||
      plan->from_order.size() != query.from.size() ||
      plan->parallel_from >= query.from.size()) {
    return false;
  }
  {
    // The plan must actually apply to this query (the same shape check
    // the conjunct driver performs); a mismatched plan means serial
    // greedy evaluation, never a partitioned run against wrong ranks.
    std::vector<const Condition*> conjuncts;
    if (query.where != nullptr) FlattenAnd(*query.where, &conjuncts);
    if (plan->conjunct_rank.size() != conjuncts.size() ||
        plan->hash_joinable.size() != conjuncts.size()) {
      return false;
    }
  }
  if (query.oid_function_of.has_value()) return false;
  const FromEntry& entry = query.from[plan->parallel_from];
  if (!entry.cls.is_const()) return false;
  if (outer != nullptr && outer->Bound(entry.var)) return false;

  // Materialize the outer candidates (extent ∩ range) in extent order.
  std::vector<Oid> candidates;
  {
    const VarRange* range = nullptr;
    if (opts.use_range_pruning && opts.ranges != nullptr) {
      auto it = opts.ranges->find(entry.var);
      if (it != opts.ranges->end()) range = &it->second;
    }
    for (const Oid& oid : db_->Extent(entry.cls.value)) {
      if (range != nullptr && !range->Within(*db_, oid)) continue;
      candidates.push_back(oid);
    }
  }
  const size_t min_per = std::max<size_t>(1, opts.min_parallel_candidates);
  const size_t partitions =
      std::min<size_t>(opts.max_workers, candidates.size() / min_per);
  if (partitions < 2) return false;

  static obs::Counter& parallel_queries =
      obs::MetricsRegistry::Global().GetCounter("xsql.exec.parallel_queries");
  static obs::Counter& partitions_total =
      obs::MetricsRegistry::Global().GetCounter("xsql.exec.partitions");
  static obs::Histogram& fanout =
      obs::MetricsRegistry::Global().GetHistogram("xsql.exec.parallel_workers");
  parallel_queries.Inc();
  partitions_total.Inc(partitions);
  fanout.Observe(partitions);
  obs::Span span("exec/parallel", [&] {
    return entry.var.ToString() + " x" + std::to_string(partitions);
  });

  // Contiguous slices in extent order: worker p owns candidates
  // [p*chunk, (p+1)*chunk) — merging in partition order reproduces the
  // serial enumeration order of the outer extent.
  std::vector<std::vector<Oid>> slices(partitions);
  std::vector<OidSet> slice_sets(partitions);
  const size_t chunk = (candidates.size() + partitions - 1) / partitions;
  for (size_t p = 0; p < partitions; ++p) {
    const size_t lo = std::min(candidates.size(), p * chunk);
    const size_t hi = std::min(candidates.size(), lo + chunk);
    slices[p].assign(candidates.begin() + lo, candidates.begin() + hi);
    slice_sets[p] = OidSet(slices[p]);
  }

  // One statement = one budget: seed the shared pool with what the
  // statement already spent, absorb the totals back after the join.
  auto budget = std::make_shared<SharedBudget>();
  budget->steps.store(ctx_->steps(), std::memory_order_relaxed);
  budget->rows.store(ctx_->rows(), std::memory_order_relaxed);

  std::vector<Status> statuses(partitions, Status::OK());
  std::vector<EvalOutput> outputs(partitions);
  opts.pool->Run(partitions, [&](size_t p) {
    ExecutionContext child(*ctx_, budget);
    Evaluator worker(db_, views_, &child);
    EvalOptions wopts = opts;
    wopts.pool = nullptr;
    wopts.max_workers = 0;
    EvalOptions::PartitionRestriction part;
    part.var = entry.var;
    part.ordered = &slices[p];
    part.set = &slice_sets[p];
    wopts.partition = &part;
    Result<EvalOutput> r = worker.RunImpl(query, wopts, outer);
    if (r.ok()) {
      outputs[p] = std::move(r).value();
    } else {
      statuses[p] = r.status();
    }
  });
  ctx_->AbsorbShared(*budget);

  // Deterministic error semantics: the lowest-indexed failing partition
  // wins — the same error a serial scan (which walks partitions in
  // order) would have surfaced first.
  for (size_t p = 0; p < partitions; ++p) {
    if (!statuses[p].ok()) {
      *out = statuses[p];
      return true;
    }
  }
  EvalOutput merged;
  merged.relation = Relation(outputs[0].relation.columns());
  for (size_t p = 0; p < partitions; ++p) {
    for (const auto& row : outputs[p].relation.rows()) {
      Status st = merged.relation.AddRow(row);
      if (!st.ok()) {
        *out = st;
        return true;
      }
    }
  }
  span.AddRows(merged.relation.size());
  *out = std::move(merged);
  return true;
}

Result<EvalOutput> Evaluator::RunImpl(const Query& query,
                                      const EvalOptions& opts,
                                      const Binding* outer) {
  Binding binding;
  if (outer != nullptr) binding = *outer;
  PathEvaluator pe = MakePathEvaluator(opts);

  const bool creates_objects = query.oid_function_of.has_value();
  std::string fn_name = query.oid_fn_name.empty()
                            ? "q" + std::to_string(next_query_id_++)
                            : query.oid_fn_name;
  OidFunctionTable table(fn_name);

  std::vector<std::string> columns;
  if (creates_objects) {
    columns.push_back("oid");
  } else {
    for (const SelectItem& item : query.select) {
      columns.push_back(item.out_attr.has_value() ? item.out_attr->ToString()
                                                  : item.ToString());
    }
  }
  EvalOutput out;
  out.relation = Relation(columns);

  auto output_attr = [this](const SelectItem& item,
                            size_t index) -> std::pair<Oid, bool> {
    // Returns (attribute oid, declared-set-valued?).
    Oid attr = item.out_attr.has_value()
                   ? *item.out_attr
                   : Oid::Atom("col" + std::to_string(index));
    bool set_valued = false;
    if (item.kind == SelectItem::Kind::kExpr &&
        item.expr.kind == ValueExpr::Kind::kPath &&
        !item.expr.path.trivial()) {
      const PathStep& last = item.expr.path.steps.back();
      if (last.kind == PathStep::Kind::kMethod && !last.method.name_is_var) {
        for (const auto& [cls, sig] :
             db_->signatures().AllFor(last.method.name)) {
          if (sig.set_valued) set_valued = true;
        }
      }
    }
    return {attr, set_valued};
  };

  auto emit = [&]() -> Status {
    XSQL_RETURN_IF_ERROR(ctx_->ChargeRow());
    if (creates_objects) {
      std::vector<Oid> fn_args;
      for (const Variable& v : *query.oid_function_of) {
        if (!binding.Bound(v)) {
          return Status::RuntimeError("OID FUNCTION OF variable " + v.name +
                                      " unbound in a solution");
        }
        fn_args.push_back(binding.Get(v));
      }
      Oid oid = table.MakeOid(fn_args);
      table.Touch(oid);
      for (size_t i = 0; i < query.select.size(); ++i) {
        const SelectItem& item = query.select[i];
        auto [attr, declared_set] = output_attr(item, i);
        switch (item.kind) {
          case SelectItem::Kind::kSetOfVar: {
            if (!binding.Bound(item.set_var)) {
              return Status::RuntimeError("grouped variable " +
                                          item.set_var.name + " unbound");
            }
            XSQL_RETURN_IF_ERROR(
                table.Accumulate(oid, attr, binding.Get(item.set_var)));
            break;
          }
          case SelectItem::Kind::kExpr: {
            XSQL_ASSIGN_OR_RETURN(OidSet value,
                                  EvalValue(item.expr, &binding, opts));
            if (declared_set) {
              XSQL_RETURN_IF_ERROR(table.RecordSet(oid, attr, value));
            } else if (value.size() == 1) {
              XSQL_RETURN_IF_ERROR(
                  table.RecordScalar(oid, attr, *value.begin()));
            } else if (value.size() > 1) {
              XSQL_RETURN_IF_ERROR(table.RecordSet(oid, attr, value));
            }
            // Empty scalar value: the attribute stays undefined (a null,
            // §2), not an empty set.
            break;
          }
          case SelectItem::Kind::kMethodHead:
            return Status::RuntimeError(
                "method-definition SELECT outside ALTER CLASS");
        }
      }
      return Status::OK();
    }
    // Plain relational result: cartesian product over item value sets.
    std::vector<OidSet> cells(query.select.size());
    for (size_t i = 0; i < query.select.size(); ++i) {
      const SelectItem& item = query.select[i];
      if (item.kind == SelectItem::Kind::kSetOfVar) {
        if (!binding.Bound(item.set_var)) {
          return Status::RuntimeError("grouped variable outside an OID "
                                      "FUNCTION query");
        }
        cells[i].Insert(binding.Get(item.set_var));
      } else if (item.kind == SelectItem::Kind::kExpr) {
        XSQL_ASSIGN_OR_RETURN(cells[i], EvalValue(item.expr, &binding, opts));
      } else {
        return Status::RuntimeError(
            "method-definition SELECT outside ALTER CLASS");
      }
    }
    std::vector<Oid> row(query.select.size());
    std::function<Status(size_t)> cartesian = [&](size_t i) -> Status {
      if (i == row.size()) return out.relation.AddRow(row);
      for (const Oid& v : cells[i]) {
        row[i] = v;
        XSQL_RETURN_IF_ERROR(cartesian(i + 1));
      }
      return Status::OK();
    };
    return cartesian(0);
  };

  XSQL_RETURN_IF_ERROR(ForEachSolution(query.from, query.where, &binding,
                                       opts, &pe, opts.conjunct_order, emit));

  if (creates_objects) {
    Oid result_class =
        opts.result_class.has_value() ? *opts.result_class : builtin::Object();
    for (const auto& [oid, attrs] : table.objects()) {
      XSQL_RETURN_IF_ERROR(db_->NewObject(oid, {result_class}));
      for (const auto& [attr, value] : attrs) {
        if (value.set_valued()) {
          XSQL_RETURN_IF_ERROR(db_->SetSet(oid, attr, value.set()));
        } else {
          XSQL_RETURN_IF_ERROR(db_->SetScalar(oid, attr, value.scalar()));
        }
      }
      out.created.push_back(oid);
      XSQL_RETURN_IF_ERROR(out.relation.AddRow({oid}));
    }
    out.objects_created = true;
  }
  return out;
}

Result<Relation> Evaluator::RunQueryExpr(const QueryExpr& expr,
                                         const EvalOptions& opts,
                                         const Binding* outer) {
  switch (expr.kind) {
    case QueryExpr::Kind::kSimple: {
      XSQL_ASSIGN_OR_RETURN(EvalOutput out, Run(*expr.simple, opts, outer));
      return out.relation;
    }
    default: {
      XSQL_ASSIGN_OR_RETURN(Relation lhs,
                            RunQueryExpr(*expr.lhs, opts, outer));
      XSQL_ASSIGN_OR_RETURN(Relation rhs,
                            RunQueryExpr(*expr.rhs, opts, outer));
      switch (expr.kind) {
        case QueryExpr::Kind::kUnion:
          return Relation::Union(lhs, rhs);
        case QueryExpr::Kind::kMinus:
          return Relation::Minus(lhs, rhs);
        case QueryExpr::Kind::kIntersect:
          return Relation::Intersect(lhs, rhs);
        default:
          return Status::RuntimeError("bad query expression");
      }
    }
  }
}

Result<EvalOutput> Evaluator::RunNaive(const Query& query) {
  static obs::Counter& naive_runs =
      obs::MetricsRegistry::Global().GetCounter("xsql.eval.naive_runs");
  naive_runs.Inc();
  obs::Span span("eval/naive", [&] { return query.ToString(); });
  std::vector<Variable> vars = CollectVariables(query);
  for (const Variable& v : vars) {
    if (v.sort == VarSort::kPath) {
      return Status::Unimplemented(
          "naive evaluator does not enumerate path variables");
    }
  }
  // Domains per sort (§3.4: substitutions respect sorts; the active
  // domain stands in for the infinite universe).
  std::vector<OidSet> domains;
  for (const Variable& v : vars) {
    switch (v.sort) {
      case VarSort::kClass:
        domains.push_back(db_->graph().Extent(builtin::MetaClass()));
        break;
      case VarSort::kMethod:
        domains.push_back(db_->graph().Extent(builtin::MetaMethod()));
        break;
      default:
        domains.push_back(db_->ActiveDomain());
        break;
    }
  }

  EvalOptions opts;
  opts.use_range_pruning = false;
  const bool creates_objects = query.oid_function_of.has_value();
  std::string fn_name = query.oid_fn_name.empty()
                            ? "q" + std::to_string(next_query_id_++)
                            : query.oid_fn_name;
  OidFunctionTable table(fn_name);
  std::vector<std::string> columns;
  if (creates_objects) {
    columns.push_back("oid");
  } else {
    for (const SelectItem& item : query.select) {
      columns.push_back(item.out_attr.has_value() ? item.out_attr->ToString()
                                                  : item.ToString());
    }
  }
  EvalOutput out;
  out.relation = Relation(columns);

  Binding binding;
  std::function<Status(size_t)> loop = [&](size_t idx) -> Status {
    if (idx == vars.size()) {
      // Consistency with FROM.
      for (const FromEntry& entry : query.from) {
        Oid cls;
        if (entry.cls.is_const()) {
          cls = entry.cls.value;
        } else if (entry.cls.is_var()) {
          cls = binding.Get(entry.cls.var);
        } else {
          return Status::RuntimeError("bad FROM class term");
        }
        if (!db_->IsInstanceOf(binding.Get(entry.var), cls)) {
          return Status::OK();
        }
      }
      bool truth = true;
      if (query.where != nullptr) {
        XSQL_ASSIGN_OR_RETURN(truth, TestCondition(*query.where, &binding));
      }
      if (!truth) return Status::OK();
      XSQL_RETURN_IF_ERROR(ctx_->ChargeRow());
      if (creates_objects) {
        std::vector<Oid> fn_args;
        for (const Variable& v : *query.oid_function_of) {
          fn_args.push_back(binding.Get(v));
        }
        Oid oid = table.MakeOid(fn_args);
        table.Touch(oid);
        for (size_t i = 0; i < query.select.size(); ++i) {
          const SelectItem& item = query.select[i];
          Oid attr = item.out_attr.has_value()
                         ? *item.out_attr
                         : Oid::Atom("col" + std::to_string(i));
          if (item.kind == SelectItem::Kind::kSetOfVar) {
            XSQL_RETURN_IF_ERROR(
                table.Accumulate(oid, attr, binding.Get(item.set_var)));
          } else {
            XSQL_ASSIGN_OR_RETURN(OidSet value,
                                  EvalValue(item.expr, &binding, opts));
            if (value.size() == 1) {
              XSQL_RETURN_IF_ERROR(
                  table.RecordScalar(oid, attr, *value.begin()));
            } else if (value.size() > 1) {
              XSQL_RETURN_IF_ERROR(table.RecordSet(oid, attr, value));
            }
          }
        }
        return Status::OK();
      }
      std::vector<OidSet> cells(query.select.size());
      for (size_t i = 0; i < query.select.size(); ++i) {
        const SelectItem& item = query.select[i];
        if (item.kind == SelectItem::Kind::kSetOfVar) {
          cells[i].Insert(binding.Get(item.set_var));
        } else {
          XSQL_ASSIGN_OR_RETURN(cells[i],
                                EvalValue(item.expr, &binding, opts));
        }
      }
      std::vector<Oid> row(query.select.size());
      std::function<Status(size_t)> cartesian = [&](size_t i) -> Status {
        if (i == row.size()) return out.relation.AddRow(row);
        for (const Oid& v : cells[i]) {
          row[i] = v;
          XSQL_RETURN_IF_ERROR(cartesian(i + 1));
        }
        return Status::OK();
      };
      return cartesian(0);
    }
    for (const Oid& candidate : domains[idx]) {
      XSQL_RETURN_IF_ERROR(ctx_->Step());
      BindScope scope(&binding, vars[idx], candidate);
      XSQL_RETURN_IF_ERROR(loop(idx + 1));
    }
    return Status::OK();
  };
  XSQL_RETURN_IF_ERROR(loop(0));

  if (creates_objects) {
    for (const auto& [oid, attrs] : table.objects()) {
      XSQL_RETURN_IF_ERROR(db_->NewObject(oid, {builtin::Object()}));
      for (const auto& [attr, value] : attrs) {
        if (value.set_valued()) {
          XSQL_RETURN_IF_ERROR(db_->SetSet(oid, attr, value.set()));
        } else {
          XSQL_RETURN_IF_ERROR(db_->SetScalar(oid, attr, value.scalar()));
        }
      }
      out.created.push_back(oid);
      XSQL_RETURN_IF_ERROR(out.relation.AddRow({oid}));
    }
    out.objects_created = true;
  }
  return out;
}

Result<bool> Evaluator::TestCondition(const Condition& cond,
                                      Binding* binding) {
  EvalOptions opts;
  switch (cond.kind) {
    case Condition::Kind::kAnd:
      for (const auto& child : cond.children) {
        XSQL_ASSIGN_OR_RETURN(bool truth, TestCondition(*child, binding));
        if (!truth) return false;
      }
      return true;
    case Condition::Kind::kOr:
      for (const auto& child : cond.children) {
        XSQL_ASSIGN_OR_RETURN(bool truth, TestCondition(*child, binding));
        if (truth) return true;
      }
      return false;
    case Condition::Kind::kNot: {
      XSQL_ASSIGN_OR_RETURN(bool truth,
                            TestCondition(*cond.children[0], binding));
      return !truth;
    }
    case Condition::Kind::kComparison: {
      XSQL_ASSIGN_OR_RETURN(OidSet lhs, EvalValue(cond.lhs, binding, opts));
      XSQL_ASSIGN_OR_RETURN(OidSet rhs, EvalValue(cond.rhs, binding, opts));
      return EvalComparison(lhs, cond.lquant, cond.comp_op, cond.rquant, rhs);
    }
    case Condition::Kind::kSetComparison: {
      XSQL_ASSIGN_OR_RETURN(OidSet lhs, EvalValue(cond.lhs, binding, opts));
      XSQL_ASSIGN_OR_RETURN(OidSet rhs, EvalValue(cond.rhs, binding, opts));
      return EvalSetComparison(lhs, cond.set_op, rhs);
    }
    case Condition::Kind::kStandalonePath: {
      PathEvaluator pe = MakePathEvaluator(opts);
      XSQL_ASSIGN_OR_RETURN(OidSet value, pe.Value(cond.path, *binding));
      return !value.empty();
    }
    case Condition::Kind::kSubclassOf: {
      PathEvaluator pe = MakePathEvaluator(opts);
      XSQL_ASSIGN_OR_RETURN(Oid sub, pe.EvalIdTerm(cond.sub, *binding));
      XSQL_ASSIGN_OR_RETURN(Oid super, pe.EvalIdTerm(cond.super, *binding));
      return db_->graph().IsStrictSubclass(sub, super);
    }
    case Condition::Kind::kApplicable: {
      PathEvaluator pe = MakePathEvaluator(opts);
      XSQL_ASSIGN_OR_RETURN(Oid method, pe.EvalIdTerm(cond.sub, *binding));
      XSQL_ASSIGN_OR_RETURN(Oid obj, pe.EvalIdTerm(cond.super, *binding));
      return IsApplicable(*db_, method, obj);
    }
    case Condition::Kind::kUpdate:
      XSQL_RETURN_IF_ERROR(ExecuteUpdate(*cond.update, binding));
      return true;
  }
  return Status::RuntimeError("unexpected condition kind");
}

Result<OidSet> Evaluator::EvalValue(const ValueExpr& expr, Binding* binding,
                                    const EvalOptions& opts) {
  switch (expr.kind) {
    case ValueExpr::Kind::kPath: {
      PathEvaluator pe = MakePathEvaluator(opts);
      return pe.Value(expr.path, *binding);
    }
    case ValueExpr::Kind::kAggregate: {
      PathEvaluator pe = MakePathEvaluator(opts);
      XSQL_ASSIGN_OR_RETURN(OidSet values, pe.Value(expr.path, *binding));
      XSQL_ASSIGN_OR_RETURN(Oid result, EvalAggregate(expr.agg_fn, values));
      OidSet out;
      out.Insert(result);
      return out;
    }
    case ValueExpr::Kind::kArith: {
      XSQL_ASSIGN_OR_RETURN(OidSet lhs, EvalValue(*expr.lhs, binding, opts));
      XSQL_ASSIGN_OR_RETURN(OidSet rhs, EvalValue(*expr.rhs, binding, opts));
      if (lhs.empty() || rhs.empty()) return OidSet();
      if (lhs.size() != 1 || rhs.size() != 1) {
        return Status::RuntimeError("arithmetic on non-singleton sets");
      }
      const Oid& a = *lhs.begin();
      const Oid& b = *rhs.begin();
      if (!a.is_numeric() || !b.is_numeric()) {
        return Status::RuntimeError("arithmetic on non-numeric values");
      }
      double x = a.numeric_value();
      double y = b.numeric_value();
      double r = 0;
      switch (expr.arith_op) {
        case ArithOp::kAdd:
          r = x + y;
          break;
        case ArithOp::kSub:
          r = x - y;
          break;
        case ArithOp::kMul:
          r = x * y;
          break;
        case ArithOp::kDiv:
          if (y == 0) return Status::RuntimeError("division by zero");
          r = x / y;
          break;
      }
      OidSet out;
      if (a.is_int() && b.is_int() && expr.arith_op != ArithOp::kDiv) {
        out.Insert(Oid::Int(static_cast<int64_t>(r)));
      } else {
        out.Insert(Oid::Real(r));
      }
      return out;
    }
    case ValueExpr::Kind::kSubquery: {
      XSQL_ASSIGN_OR_RETURN(Relation rel,
                            RunQueryExpr(*expr.subquery, opts, binding));
      return rel.AsSet();
    }
    case ValueExpr::Kind::kSetLiteral: {
      OidSet out;
      for (const ValueExpr& e : expr.set_elems) {
        XSQL_ASSIGN_OR_RETURN(OidSet value, EvalValue(e, binding, opts));
        out = OidSet::Union(out, value);
      }
      return out;
    }
  }
  return Status::RuntimeError("unexpected value expression");
}

Status Evaluator::ExecuteUpdate(const UpdateClassStmt& update,
                                Binding* binding) {
  EvalOptions opts;
  PathEvaluator pe = MakePathEvaluator(opts);
  for (const UpdateClassStmt::Assignment& assign : update.assignments) {
    if (assign.target.trivial()) {
      return Status::RuntimeError("UPDATE target must name an attribute");
    }
    const PathStep& last = assign.target.steps.back();
    if (last.kind != PathStep::Kind::kMethod || !last.method.args.empty()) {
      return Status::RuntimeError(
          "UPDATE target must end in an attribute expression");
    }
    Oid attr;
    if (last.method.name_is_var) {
      if (!binding->Bound(last.method.name_var)) {
        return Status::RuntimeError("unbound attribute variable in UPDATE");
      }
      attr = binding->Get(last.method.name_var);
    } else {
      attr = last.method.name;
    }
    PathExpr prefix;
    prefix.head = assign.target.head;
    prefix.steps.assign(assign.target.steps.begin(),
                        assign.target.steps.end() - 1);
    // Collect targets first, then apply: mutating while walking the
    // composition graph could interact with the enumeration. The
    // update-scoped conditions (desugared path arguments) are driven
    // per target so their variables see the prefix bindings.
    std::vector<const Condition*> scoped;
    if (update.where != nullptr) FlattenAnd(*update.where, &scoped);
    std::vector<std::pair<Oid, OidSet>> writes;
    XSQL_RETURN_IF_ERROR(
        pe.Enumerate(prefix, binding, [&](const Oid& target) -> Status {
          ConjunctDriver driver(this, &pe, scoped, {});
          return driver.Enumerate(binding, [&]() -> Status {
            XSQL_ASSIGN_OR_RETURN(OidSet value,
                                  EvalValue(assign.value, binding, opts));
            writes.emplace_back(target, std::move(value));
            return Status::OK();
          });
        }));
    for (const auto& [target, value] : writes) {
      if (value.empty()) continue;
      if (value.size() == 1) {
        XSQL_RETURN_IF_ERROR(db_->SetScalar(target, attr, *value.begin()));
      } else {
        XSQL_RETURN_IF_ERROR(db_->SetSet(target, attr, value));
      }
    }
  }
  return Status::OK();
}

}  // namespace xsql
