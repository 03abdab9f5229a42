#ifndef XSQL_EVAL_SESSION_H_
#define XSQL_EVAL_SESSION_H_

#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "eval/evaluator.h"
#include "eval/introspect.h"
#include "eval/plan_cache.h"
#include "eval/view.h"
#include "store/database.h"
#include "store/index.h"
#include "typing/planner.h"
#include "typing/type_checker.h"

namespace xsql {

namespace obs {
class StatusRegistry;
}  // namespace obs

/// Session-wide policy knobs.
struct SessionOptions {
  /// Which well-typing notion gates queries (§6.2). Strict is the
  /// default because its witness unlocks the Theorem 6.1(2) pruning;
  /// queries that fail strict typing still run (typing is metalogical)
  /// unless `enforce_typing` is set.
  TypingMode typing_mode = TypingMode::kStrict;
  /// Reject queries that are not well-typed under `typing_mode`.
  bool enforce_typing = false;
  /// Apply the Theorem 6.1(2) range restriction when a strict witness
  /// exists.
  bool use_range_pruning = true;
  /// §6.2 exemptions (the middle ground between liberal and strict).
  ExemptionSet exemptions;
  /// Execution guardrails, applied per statement: deadline, row/step
  /// budgets, recursion-depth policy (see ExecLimits). Defaults have no
  /// budgets armed.
  ExecLimits limits;
  /// Cooperative cancellation: any thread holding the token can abort
  /// the running statement. Null means not cancellable.
  std::shared_ptr<CancelToken> cancel;
  /// Slow-query log threshold in microseconds; 0 (the default)
  /// disables the log. Statements whose wall time meets the threshold
  /// are appended to `Session::slow_query_log()`.
  uint64_t slow_query_us = 0;
  /// Cost-based planning (selectivity-ordered enumeration, conjunct
  /// ranks, hash joins). Off restores the greedy ready-first schedule —
  /// the Theorem 6.1(1) baseline the differential tests compare
  /// against.
  bool use_planner = true;
  /// Prepared-plan cache entries this session's (owned) cache keeps;
  /// 0 disables caching, so every statement re-parses and re-plans.
  /// Ignored when the session binds to a shared cache.
  size_t plan_cache_capacity = 64;
  /// [BERT89] path indexes the planner and evaluator may consult. Must
  /// outlive the session; null means no indexes. Stale indexes are
  /// ignored, never incorrect.
  const PathIndexSet* indexes = nullptr;
  /// Batch-at-a-time execution of pure plans (candidate-array caching
  /// plus selection-vector prefilters). Off restores the tuple-at-a-
  /// time driver — the differential baseline.
  bool exec_batch = true;
  /// Worker pool for intra-query parallelism; null keeps every
  /// statement serial. Owned by the server's ConcurrencyManager (or a
  /// test harness) — NEVER by the session, so the per-statement
  /// throwaway readers the snapshot path constructs cost no thread
  /// spawns. Must outlive the session. Only plans proven pure
  /// (QueryPlan::parallel_eligible) ever fan out.
  WorkerPool* worker_pool = nullptr;
  /// Upper bound on partitions one statement fans out to (<2 disables
  /// fan-out even with a pool).
  size_t exec_workers = 0;
  /// Minimum outer-extent candidates per partition: a P-way fan-out
  /// needs P times this many, so small extents never pay fork/join.
  size_t exec_min_parallel_candidates = 64;
  /// The status board `SYSTEM STATUS` renders. Null means the process-
  /// global one; a server hosting several nodes in one process (the
  /// failover tests run primary and replica side by side) points each
  /// connection's sessions at its own board. Must outlive the session.
  const obs::StatusRegistry* status = nullptr;
};

/// One slow-query log entry (see SessionOptions::slow_query_us).
struct SlowQueryEntry {
  std::string statement;
  uint64_t wall_us = 0;
  bool ok = true;
};

/// The top-level API a user of the library drives: text in, relations
/// and objects out. Owns the view catalog and wires parsing, name
/// resolution, typing, and evaluation together.
class Session {
 public:
  explicit Session(Database* db, SessionOptions options = {})
      : Session(db, std::move(options), /*shared_views=*/nullptr) {}

  /// Binds the session to a view catalog (and optionally a prepared-
  /// plan cache) owned elsewhere. The concurrent server gives every
  /// connection its own Session (own guardrails, own slow-query log,
  /// own evaluator scratch state) over ONE database, ONE view catalog,
  /// and ONE plan cache, so a view created on any connection resolves
  /// on all of them and a statement prepared by any connection skips
  /// parse+typecheck on all of them. `shared_views` / `shared_plans`
  /// must outlive the session; null means the session owns private
  /// ones (the historical behavior).
  Session(Database* db, SessionOptions options, ViewManager* shared_views,
          PlanCache* shared_plans = nullptr)
      : db_(db),
        options_(std::move(options)),
        owned_views_(shared_views == nullptr
                         ? std::make_unique<ViewManager>(db)
                         : nullptr),
        views_(shared_views != nullptr ? shared_views : owned_views_.get()),
        owned_plans_(shared_plans == nullptr
                         ? std::make_unique<PlanCache>(
                               options_.plan_cache_capacity)
                         : nullptr),
        plans_(shared_plans != nullptr ? shared_plans : owned_plans_.get()),
        evaluator_(db, views_) {
    // Catalog-as-methods (§2): classes answer attributes/superclasses/
    // subclasses/instances like ordinary objects. Idempotent.
    (void)InstallIntrospection(db);
  }

  /// Parses and executes one statement (query or DDL/DML) under the
  /// session's guardrails. Statements are *atomic*: on any failure —
  /// including a tripped guardrail — every mutation the statement made
  /// is rolled back before the error is returned.
  Result<EvalOutput> Execute(const std::string& text);

  /// Executes one statement the caller GUARANTEES is read-only — the
  /// concurrent server's latch-free snapshot-read path (see
  /// server::ClassifyMode and docs/CONCURRENCY.md).
  /// Arms no statement savepoint (arming one writes the database) and
  /// leaves the shared view catalog's execution-context hook untouched:
  /// concurrent readers would race on both. Guardrails still apply
  /// through the session's own evaluator.
  Result<EvalOutput> ExecuteReadOnly(const std::string& text);

  /// Executes a `;`-separated script (quotes respected, `--` comments
  /// stripped by the lexer). Stops at the first error; returns the last
  /// statement's output. With `atomic` set the whole script is one
  /// transaction: a failure anywhere rolls back every statement.
  Result<EvalOutput> ExecuteScript(const std::string& script,
                                   bool atomic = false);

  /// A rollback point for everything a statement can change: the
  /// database and the view catalog's definitions (see SavepointHandle).
  /// Every statement takes one, an atomic script one around its
  /// statements, and the durability layer one around a statement and
  /// its WAL append.
  class Savepoint {
   public:
    void Restore() {
      db_.Restore();
      views_.Restore();
    }

   private:
    friend class Session;
    Savepoint(Database* db, ViewManager* views)
        : db_(db->TakeSavepoint()), views_(views->TakeSavepoint()) {}

    Database::Savepoint db_;
    ViewManager::Savepoint views_;
  };
  Savepoint TakeSavepoint() { return Savepoint(db_, views_); }

  /// Convenience: execute and return just the relation.
  Result<Relation> Query(const std::string& text);

  /// Type-checks a query without running it.
  Result<TypingResult> TypeCheck(const std::string& text, TypingMode mode);

  /// Human-readable typing/plan report for a query: fragment status,
  /// liberal and strict verdicts, the witness execution plan, the
  /// witness type assignment, and the variable ranges A(X) that the
  /// Theorem 6.1(2) pruning would use.
  Result<std::string> Explain(const std::string& text);

  /// Statements that met the `slow_query_us` threshold, oldest first.
  /// Returns a copy: the log sink is written by the executing thread and
  /// read by whoever monitors the session (the server's admin surface),
  /// so both sides go through `slow_query_mu_` and no reference into the
  /// live vector ever escapes.
  std::vector<SlowQueryEntry> slow_query_log() const {
    std::lock_guard<std::mutex> lock(slow_query_mu_);
    return slow_query_log_;
  }
  void ClearSlowQueryLog() {
    std::lock_guard<std::mutex> lock(slow_query_mu_);
    slow_query_log_.clear();
  }

  Database& db() { return *db_; }
  ViewManager& views() { return *views_; }
  PlanCache& plan_cache() { return *plans_; }
  Evaluator& evaluator() { return evaluator_; }
  const SessionOptions& options() const { return options_; }
  SessionOptions& mutable_options() { return options_; }

 private:
  /// The shared body of Execute / ExecuteReadOnly: metrics, timing, and
  /// the slow-query log around one ExecuteParsed call.
  Result<EvalOutput> ExecuteTimed(const std::string& text, bool read_only);

  /// Prepare + dispatch: diagnostic statements (EXPLAIN, EXPLAIN
  /// ANALYZE, SYSTEM METRICS) take their own paths; everything else
  /// runs guarded and atomic through ExecuteGuarded.
  Result<EvalOutput> ExecuteParsed(const std::string& text,
                                   bool read_only = false);

  /// The prepared form of `text`: from the plan cache when a fresh
  /// entry exists (skipping parse, typecheck, and planning — and their
  /// spans), otherwise parse + PrepareStatement, publishing plain
  /// queries back to the cache. Preparation is guard-exempt like
  /// EXPLAIN: it reads the catalogs, evaluates nothing.
  Result<std::shared_ptr<const PreparedPlan>> Prepare(
      const std::string& text);

  /// Fills typing + plan for an already-parsed statement (simple
  /// queries; other kinds pass through).
  void PrepareStatement(PreparedPlan* prepared);

  /// The cache key for a statement text under this session's typing
  /// configuration (mode, exemptions, index set identity).
  std::string CacheKey(const std::string& text) const;

  /// Runs one non-diagnostic statement under a fresh guardrail context
  /// and a savepoint. With `rollback_always` the savepoint is restored
  /// even on success (EXPLAIN ANALYZE executes for real but must leave
  /// no trace). With `read_only` the savepoint and the shared
  /// view-catalog context hook are skipped (see ExecuteReadOnly).
  /// `prepared` carries the typing/plan computed at prepare time; null
  /// makes kQuery statements type-check inline (legacy path).
  Result<EvalOutput> ExecuteGuarded(const Statement& stmt,
                                    bool rollback_always,
                                    bool read_only = false,
                                    const PreparedPlan* prepared = nullptr);

  /// The per-kind body: dispatch (context already armed).
  Result<EvalOutput> ExecuteStatement(const Statement& stmt,
                                      const PreparedPlan* prepared);

  /// `EXPLAIN <q>`: the typing/plan report as a relation. Guard-exempt —
  /// nothing is evaluated.
  Result<EvalOutput> ExecuteExplain(const Statement& stmt);
  /// `EXPLAIN ANALYZE <q>`: execute under a tracer (guarded), roll the
  /// mutations back, render the span tree (render is guard-exempt).
  Result<EvalOutput> ExecuteExplainAnalyze(const Statement& stmt);
  /// `SYSTEM METRICS`: the global metrics registry as a relation.
  Result<EvalOutput> SystemMetricsOutput();
  /// `SYSTEM STATUS`: the global status board as a relation.
  Result<EvalOutput> SystemStatusOutput();
  /// The typing report body shared by Explain() and EXPLAIN.
  /// (`::xsql::Query` the AST type, not the member function Query.)
  Result<std::string> ExplainReport(const ::xsql::Query& query);

  Database* db_;
  SessionOptions options_;
  /// Set iff this session owns its catalog; `views_` points either here
  /// or at the shared catalog passed to the constructor.
  std::unique_ptr<ViewManager> owned_views_;
  ViewManager* views_;
  /// Same ownership pattern for the prepared-plan cache.
  std::unique_ptr<PlanCache> owned_plans_;
  PlanCache* plans_;
  Evaluator evaluator_;
  mutable std::mutex slow_query_mu_;
  std::vector<SlowQueryEntry> slow_query_log_;
};

}  // namespace xsql

#endif  // XSQL_EVAL_SESSION_H_
