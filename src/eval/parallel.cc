#include "eval/parallel.h"

#include <span>

#include "eval/comparator.h"
#include "eval/evaluator.h"
#include "store/database.h"
#include "store/object.h"

namespace xsql {

WorkerPool::WorkerPool(size_t threads) {
  threads_.reserve(threads);
  for (size_t i = 0; i < threads; ++i) {
    threads_.emplace_back([this] { Loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mu_);
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::Run(size_t tasks, const std::function<void(size_t)>& fn) {
  if (tasks == 0) return;
  // No pool threads, a single task, or the pool already busy with
  // another statement's fan-out: the caller runs everything inline.
  if (threads_.empty() || tasks == 1 || !run_mu_.try_lock()) {
    for (size_t i = 0; i < tasks; ++i) fn(i);
    return;
  }
  std::lock_guard<std::mutex> run_guard(run_mu_, std::adopt_lock);

  auto job = std::make_shared<Job>();
  job->tasks = tasks;
  job->fn = &fn;
  {
    std::lock_guard<std::mutex> lk(mu_);
    job_ = job;
    ++seq_;
  }
  work_cv_.notify_all();

  // The caller is a worker too: claim tasks until none remain, then
  // wait for the stragglers the pool threads are still running.
  Drain(job.get());
  std::unique_lock<std::mutex> lk(mu_);
  done_cv_.wait(lk, [&] { return job->completed == job->tasks; });
  job_ = nullptr;
}

void WorkerPool::Drain(Job* job) {
  for (;;) {
    const size_t i = job->next.fetch_add(1, std::memory_order_relaxed);
    if (i >= job->tasks) return;
    (*job->fn)(i);
    std::lock_guard<std::mutex> lk(mu_);
    if (++job->completed == job->tasks) done_cv_.notify_all();
  }
}

void WorkerPool::Loop() {
  uint64_t last_seen = 0;
  for (;;) {
    std::shared_ptr<Job> job;
    {
      std::unique_lock<std::mutex> lk(mu_);
      work_cv_.wait(lk, [&] { return stop_ || seq_ != last_seen; });
      if (stop_) return;
      last_seen = seq_;
      job = job_;
    }
    // job_ may already be cleared if the fan-out finished before this
    // worker woke; there is simply nothing left to claim.
    if (job != nullptr) Drain(job.get());
  }
}

namespace {

// ---------------------------------------------------------------------
// The fast comparison kernel.
//
// The batch driver's profile is dominated by re-running the full path
// machinery (PathEvaluator construction, binding-map lookups, method
// resolution) once per candidate for conditions whose shape is almost
// always `<candidate>.Attr <op> <batch-invariant value>`. For exactly
// that shape we can evaluate the invariant side ONCE per batch and
// answer the candidate side with a direct stored-attribute fetch —
// provably the same result (see HasZeroAryDefinition below for the one
// case that is gated out). Every other shape takes the per-tuple ground
// test, so the fast path never has to approximate.
// ---------------------------------------------------------------------

/// The candidate-side shapes the kernel vectorizes: the bare variable,
/// or one stored-attribute step off it (no selector, no arguments, no
/// method variable).
struct VarSide {
  bool is_attr = false;  // false: the bare variable itself
  Oid attr;              // when is_attr
};

bool MentionsVar(const IdTerm& term, const Variable& var) {
  switch (term.kind) {
    case IdTerm::Kind::kVar:
      return term.var == var;
    case IdTerm::Kind::kApply:
      for (const IdTerm& arg : term.args) {
        if (MentionsVar(arg, var)) return true;
      }
      return false;
    default:
      return false;
  }
}

bool MentionsVar(const PathExpr& path, const Variable& var) {
  if (MentionsVar(path.head, var)) return true;
  for (const PathStep& step : path.steps) {
    if (step.kind == PathStep::Kind::kPathVar) {
      if (step.path_var == var) return true;
    } else {
      if (step.method.name_is_var && step.method.name_var == var) return true;
      for (const IdTerm& arg : step.method.args) {
        if (MentionsVar(arg, var)) return true;
      }
    }
    if (step.selector.has_value() && MentionsVar(*step.selector, var)) {
      return true;
    }
  }
  return false;
}

/// Conservatively true when `expr` may depend on `var`. Subqueries
/// always count (their correlation analysis is not worth re-deriving
/// here); they simply take the per-tuple fallback.
bool MayMentionVar(const ValueExpr& expr, const Variable& var) {
  switch (expr.kind) {
    case ValueExpr::Kind::kPath:
    case ValueExpr::Kind::kAggregate:
      return MentionsVar(expr.path, var);
    case ValueExpr::Kind::kArith:
      return MayMentionVar(*expr.lhs, var) || MayMentionVar(*expr.rhs, var);
    case ValueExpr::Kind::kSubquery:
      return true;
    case ValueExpr::Kind::kSetLiteral:
      for (const ValueExpr& elem : expr.set_elems) {
        if (MayMentionVar(elem, var)) return true;
      }
      return false;
  }
  return true;
}

bool IsVarSide(const ValueExpr& expr, const Variable& var, VarSide* out) {
  if (expr.kind != ValueExpr::Kind::kPath) return false;
  const PathExpr& path = expr.path;
  if (!path.head.is_var() || !(path.head.var == var)) return false;
  if (path.trivial()) {
    out->is_attr = false;
    return true;
  }
  if (path.steps.size() != 1) return false;
  const PathStep& step = path.steps[0];
  if (step.kind != PathStep::Kind::kMethod) return false;
  if (step.method.name_is_var || !step.method.args.empty()) return false;
  if (step.selector.has_value()) return false;
  out->is_attr = true;
  out->attr = step.method.name;
  return true;
}

/// True if `attr` has a 0-ary method definition anywhere in the schema.
/// Then `Invoke` would run the body for objects WITHOUT a stored value,
/// and a direct GetAttribute would diverge — so such attributes are
/// gated out of the fast path. (Planner-batched plans already exclude
/// defined methods via the purity scan; this guard keeps FilterBatch
/// standalone-correct for direct callers too.)
bool HasZeroAryDefinition(const Database& db, const Oid& attr) {
  for (const MethodRegistry::Entry& entry : db.methods().AllDefinitions()) {
    if (entry.arity == 0 && entry.method == attr) return true;
  }
  return false;
}

/// One vectorizable comparison leaf: lhs/rhs roles and quantifiers
/// preserved from the AST, `negate` set when lifted out of a NOT.
struct FastCmp {
  const Condition* cond = nullptr;
  bool var_on_lhs = false;
  VarSide var_side;
  bool negate = false;
  /// The batch-invariant side, evaluated once per batch.
  OidSet ground;
};

/// Decomposes `cond` into fast comparison leaves iff EVERY leaf
/// qualifies: comparisons with `var`/`var.Attr` on exactly one side and
/// a var-free expression on the other, under any tree of ANDs and leaf
/// NOTs. Any other node rejects the whole condition (the caller then
/// runs the per-tuple ground test), so the fast path never evaluates a
/// mixed tree. NOT-over-AND is rejected rather than De-Morganed.
bool DecomposeFast(const Database& db, const Condition& cond,
                   const Variable& var, bool negate,
                   std::vector<FastCmp>* out) {
  switch (cond.kind) {
    case Condition::Kind::kAnd:
      if (negate) return false;
      for (const auto& child : cond.children) {
        if (!DecomposeFast(db, *child, var, false, out)) return false;
      }
      return true;
    case Condition::Kind::kNot:
      return DecomposeFast(db, *cond.children[0], var, !negate, out);
    case Condition::Kind::kComparison: {
      FastCmp fast;
      fast.cond = &cond;
      fast.negate = negate;
      if (IsVarSide(cond.lhs, var, &fast.var_side) &&
          !MayMentionVar(cond.rhs, var)) {
        fast.var_on_lhs = true;
      } else if (IsVarSide(cond.rhs, var, &fast.var_side) &&
                 !MayMentionVar(cond.lhs, var)) {
        fast.var_on_lhs = false;
      } else {
        return false;
      }
      if (fast.var_side.is_attr &&
          HasZeroAryDefinition(db, fast.var_side.attr)) {
        return false;
      }
      out->push_back(std::move(fast));
      return true;
    }
    default:
      return false;
  }
}

/// The vectorized filter loop. One `Step()` charge per selected
/// candidate (the per-tuple path additionally charges inside the path
/// walk; step budgets are documented approximate — only the ROW budget
/// is exact, and it is charged by the driver, not here).
Status FilterBatchFast(Evaluator* ev, std::vector<FastCmp>* cmps,
                       const std::vector<Oid>& batch, Binding* binding,
                       std::vector<char>* sel) {
  // Evaluate every batch-invariant side once — but only if some
  // candidate is still selected, so an error in that expression
  // surfaces exactly when the per-tuple path would have surfaced it.
  bool any = false;
  for (char s : *sel) {
    if (s) {
      any = true;
      break;
    }
  }
  if (!any) return Status::OK();
  for (FastCmp& fast : *cmps) {
    XSQL_ASSIGN_OR_RETURN(fast.ground, ev->EvalValue(
        fast.var_on_lhs ? fast.cond->rhs : fast.cond->lhs, binding));
  }

  const Database& db = *ev->db();
  ExecutionContext* ctx = ev->exec_context();
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!(*sel)[i]) continue;
    XSQL_RETURN_IF_ERROR(ctx->Step());
    for (const FastCmp& fast : *cmps) {
      // The candidate-side value, viewed in place with no allocation: a
      // stored set attribute, a scalar attribute or the candidate itself
      // as a one-element run, or empty for an absent attribute (as in
      // Invoke).
      std::span<const Oid> value;
      if (!fast.var_side.is_attr) {
        value = std::span<const Oid>(&batch[i], 1);
      } else if (const AttrValue* attr =
                     db.GetAttribute(batch[i], fast.var_side.attr)) {
        value = attr->set_valued()
                    ? std::span<const Oid>(attr->set().elems())
                    : std::span<const Oid>(&attr->scalar(), 1);
      }
      const std::vector<Oid>& ground = fast.ground.elems();
      bool truth =
          fast.var_on_lhs
              ? EvalComparison(value, fast.cond->lquant, fast.cond->comp_op,
                               fast.cond->rquant, ground)
              : EvalComparison(ground, fast.cond->lquant,
                               fast.cond->comp_op, fast.cond->rquant, value);
      if (fast.negate) truth = !truth;
      if (!truth) {
        (*sel)[i] = 0;
        break;
      }
    }
  }
  return Status::OK();
}

}  // namespace

Status FilterBatch(Evaluator* ev, const Condition& cond, const Variable& var,
                   const std::vector<Oid>& batch, Binding* binding,
                   std::vector<char>* sel) {
  // Fast path: a pure conjunction of invariant-vs-candidate comparisons
  // over an unbound variable vectorizes without the per-tuple path
  // machinery. (A pre-bound `var` keeps BindScope's conflict semantics
  // by falling through to the generic loop.)
  if (!binding->Bound(var)) {
    std::vector<FastCmp> cmps;
    if (DecomposeFast(*ev->db(), cond, var, /*negate=*/false, &cmps)) {
      return FilterBatchFast(ev, &cmps, batch, binding, sel);
    }
  }
  for (size_t i = 0; i < batch.size(); ++i) {
    if (!(*sel)[i]) continue;
    XSQL_RETURN_IF_ERROR(ev->exec_context()->Step());
    BindScope scope(binding, var, batch[i]);
    if (!scope.ok()) {
      (*sel)[i] = 0;
      continue;
    }
    XSQL_ASSIGN_OR_RETURN(const bool pass, ev->TestCondition(cond, binding));
    if (!pass) (*sel)[i] = 0;
  }
  return Status::OK();
}

}  // namespace xsql
