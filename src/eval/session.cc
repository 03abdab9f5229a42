#include "eval/session.h"

#include <cctype>
#include <chrono>
#include <cstdint>
#include <optional>

#include "eval/update.h"
#include "obs/metrics.h"
#include "obs/status.h"
#include "obs/trace.h"
#include "parser/parser.h"

namespace xsql {

namespace {

/// Arms the evaluator and the view manager with a statement's context
/// for the duration of one Execute call.
class ScopedExecContext {
 public:
  /// `views` may be null: read-only statements on a shared view catalog
  /// leave its context hook alone (concurrent readers would race on it).
  ScopedExecContext(Evaluator* evaluator, ViewManager* views,
                    ExecutionContext* ctx)
      : evaluator_(evaluator), views_(views) {
    evaluator_->set_exec_context(ctx);
    if (views_ != nullptr) views_->set_exec_context(ctx);
  }
  ~ScopedExecContext() {
    evaluator_->set_exec_context(nullptr);
    if (views_ != nullptr) views_->set_exec_context(nullptr);
  }

 private:
  Evaluator* evaluator_;
  ViewManager* views_;
};

Status AddLines(const std::string& text, Relation* relation) {
  std::string line;
  for (char c : text) {
    if (c == '\n') {
      XSQL_RETURN_IF_ERROR(relation->AddRow({Oid::String(line)}));
      line.clear();
    } else {
      line.push_back(c);
    }
  }
  if (!line.empty()) {
    XSQL_RETURN_IF_ERROR(relation->AddRow({Oid::String(line)}));
  }
  return Status::OK();
}

}  // namespace

Result<EvalOutput> Session::Execute(const std::string& text) {
  return ExecuteTimed(text, /*read_only=*/false);
}

Result<EvalOutput> Session::ExecuteReadOnly(const std::string& text) {
  return ExecuteTimed(text, /*read_only=*/true);
}

Result<EvalOutput> Session::ExecuteTimed(const std::string& text,
                                         bool read_only) {
  static obs::Counter& statements =
      obs::MetricsRegistry::Global().GetCounter("xsql.session.statements");
  static obs::Counter& failures =
      obs::MetricsRegistry::Global().GetCounter("xsql.session.failures");
  static obs::Counter& slow_queries =
      obs::MetricsRegistry::Global().GetCounter("xsql.session.slow_queries");
  static obs::Histogram& statement_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "xsql.session.statement_us");
  const auto start = std::chrono::steady_clock::now();
  statements.Inc();
  Result<EvalOutput> out = ExecuteParsed(text, read_only);
  const uint64_t wall_us = static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  statement_us.Observe(wall_us);
  if (!out.ok()) failures.Inc();
  if (options_.slow_query_us != 0 && wall_us >= options_.slow_query_us) {
    slow_queries.Inc();
    std::lock_guard<std::mutex> lock(slow_query_mu_);
    slow_query_log_.push_back({text, wall_us, out.ok()});
  }
  return out;
}

Result<EvalOutput> Session::ExecuteParsed(const std::string& text,
                                          bool read_only) {
  XSQL_ASSIGN_OR_RETURN(std::shared_ptr<const PreparedPlan> prepared,
                        Prepare(text));
  const Statement& stmt = prepared->stmt;
  switch (stmt.kind) {
    case Statement::Kind::kExplain:
      return stmt.analyze ? ExecuteExplainAnalyze(stmt)
                          : ExecuteExplain(stmt);
    case Statement::Kind::kSystemMetrics:
      return SystemMetricsOutput();
    case Statement::Kind::kSystemStatus:
      return SystemStatusOutput();
    default:
      return ExecuteGuarded(stmt, /*rollback_always=*/false, read_only,
                            prepared.get());
  }
}

std::string Session::CacheKey(const std::string& text) const {
  std::string key = PlanCache::NormalizeText(text);
  key += options_.typing_mode == TypingMode::kStrict ? "|strict" : "|liberal";
  if (options_.exemptions.exempt_all) {
    key += "|exempt=*";
  } else {
    for (const Exemption& e : options_.exemptions.items) {
      key += "|exempt=" + e.method.ToString() + "/" +
             std::to_string(e.arg_index);
    }
  }
  // Different index sets plan differently; the pointer identifies the
  // set and its generation its contents. The generation matters because
  // Add/Refresh rebuild statistics WITHOUT bumping Database::version():
  // a plan prepared before the rebuild at the same version would
  // otherwise keep serving an order ranked off dead statistics (or
  // miss a newly added index entirely).
  if (options_.indexes != nullptr) {
    key += "|idx=" + std::to_string(
                         reinterpret_cast<uintptr_t>(options_.indexes)) +
           "|idxgen=" + std::to_string(options_.indexes->generation());
  }
  return key;
}

Result<std::shared_ptr<const PreparedPlan>> Session::Prepare(
    const std::string& text) {
  const std::string key = CacheKey(text);
  // Stamp read before parsing: everything below reads the catalogs at
  // (or after) this stamp, so publishing under it can only ever
  // under-approximate freshness.
  const uint64_t version = db_->catalog_version();
  if (std::shared_ptr<const PreparedPlan> hit = plans_->Lookup(key, version)) {
    return hit;
  }
  auto prepared = std::make_shared<PreparedPlan>();
  prepared->db_version = version;
  XSQL_ASSIGN_OR_RETURN(prepared->stmt, ParseAndResolve(text, *db_));
  PrepareStatement(prepared.get());
  // Only plain queries are published: a statement that writes may move
  // the catalog stamp it was prepared at; diagnostics are
  // cheap wrappers around a query that gets its own entry.
  if (prepared->stmt.kind == Statement::Kind::kQuery) {
    plans_->Insert(key, prepared);
  }
  return std::shared_ptr<const PreparedPlan>(std::move(prepared));
}

void Session::PrepareStatement(PreparedPlan* prepared) {
  const Statement& stmt = prepared->stmt;
  if (stmt.kind != Statement::Kind::kQuery || stmt.query == nullptr ||
      stmt.query->kind != QueryExpr::Kind::kSimple) {
    return;
  }
  {
    obs::Span span("typecheck");
    TypeChecker checker(*db_);
    prepared->typing = checker.Check(*stmt.query->simple,
                                     options_.typing_mode,
                                     options_.exemptions);
    prepared->has_typing = true;
  }
  static obs::Counter& prepares =
      obs::MetricsRegistry::Global().GetCounter("xsql.plan.prepares");
  prepares.Inc();
  obs::Span span("plan", [&] { return stmt.query->simple->ToString(); });
  Planner planner(*db_, options_.indexes);
  const RangeMap* ranges =
      prepared->typing.well_typed && prepared->typing.in_fragment
          ? &prepared->typing.ranges
          : nullptr;
  prepared->plan = planner.Plan(*stmt.query->simple, ranges);
  prepared->has_plan = true;
}

Result<EvalOutput> Session::ExecuteGuarded(const Statement& stmt,
                                           bool rollback_always,
                                           bool read_only,
                                           const PreparedPlan* prepared) {
  // One guardrail context per statement: the deadline countdown starts
  // here and budgets reset.
  ExecutionContext ctx(options_.limits, options_.cancel);
  ScopedExecContext scoped(&evaluator_, read_only ? nullptr : views_, &ctx);
  obs::Span span("statement", [&] { return stmt.ToString(); });
  // Statement-level atomicity: a statement that may write runs under
  // its own savepoint and restores it on any failure. Savepoints nest,
  // so this holds inside an atomic script or a durable Execute too. The
  // savepoint captures at the statement's first write, so a statement
  // that writes nothing copies nothing. `read_only` statements do not
  // even arm one: snapshot readers share their database and view
  // catalog with concurrent readers.
  std::optional<Savepoint> savepoint;
  if (!read_only) savepoint.emplace(TakeSavepoint());
  Result<EvalOutput> out = ExecuteStatement(stmt, prepared);
  span.AddSteps(ctx.steps());
  if (out.ok()) span.AddRows(out->relation.size());
  if (savepoint.has_value() && (!out.ok() || rollback_always)) {
    savepoint->Restore();
  }
  return out;
}

Result<EvalOutput> Session::ExecuteStatement(const Statement& stmt,
                                             const PreparedPlan* prepared) {
  switch (stmt.kind) {
    case Statement::Kind::kQuery: {
      EvalOptions opts;
      opts.use_range_pruning = options_.use_range_pruning;
      opts.indexes = options_.indexes;
      opts.exec_batch = options_.exec_batch;
      if (options_.worker_pool != nullptr && options_.exec_workers >= 2) {
        // Arming is safe on any statement: only plans the planner proved
        // pure (parallel_eligible) pass the fan-out gate, and pure
        // statements mutate nothing the workers could race on.
        opts.pool = options_.worker_pool;
        opts.max_workers = options_.exec_workers;
        opts.min_parallel_candidates = options_.exec_min_parallel_candidates;
      }
      TypingResult local_typing;
      if (stmt.query->kind == QueryExpr::Kind::kSimple) {
        const TypingResult* typing = nullptr;
        if (prepared != nullptr && prepared->has_typing) {
          typing = &prepared->typing;
        } else {
          // Legacy inline path (no preparation happened).
          obs::Span span("typecheck");
          TypeChecker checker(*db_);
          local_typing = checker.Check(*stmt.query->simple,
                                       options_.typing_mode,
                                       options_.exemptions);
          typing = &local_typing;
        }
        if (!typing->well_typed && options_.enforce_typing &&
            typing->in_fragment) {
          return Status::TypeError("query is not well-typed (" +
                                   typing->explanation + ")");
        }
        if (typing->well_typed && typing->in_fragment) {
          opts.ranges = &typing->ranges;  // Theorem 6.1(2)
        }
        if (options_.use_planner && prepared != nullptr &&
            prepared->has_plan) {
          opts.plan = &prepared->plan;
        }
      }
      if (stmt.query->kind == QueryExpr::Kind::kSimple) {
        return evaluator_.Run(*stmt.query->simple, opts);
      }
      XSQL_ASSIGN_OR_RETURN(Relation rel,
                            evaluator_.RunQueryExpr(*stmt.query, opts));
      EvalOutput out;
      out.relation = std::move(rel);
      return out;
    }
    case Statement::Kind::kCreateView: {
      XSQL_RETURN_IF_ERROR(views_->Create(*stmt.create_view));
      // Eager materialization at DDL time (MVCC): a freshly created view
      // is immediately readable on the latch-free snapshot path instead
      // of escalating the first read that mentions it. The minted view
      // objects are deterministic id-terms, so recovery replay and
      // replicas converge on identical state. A failed materialization
      // fails the whole CREATE VIEW: the statement's savepoint withdraws
      // the view class and its catalog entry together.
      XSQL_RETURN_IF_ERROR(views_->Materialize(stmt.create_view->name.str()));
      EvalOutput out;
      out.relation = Relation({"view"});
      XSQL_RETURN_IF_ERROR(out.relation.AddRow({stmt.create_view->name}));
      return out;
    }
    case Statement::Kind::kAlterClass: {
      XSQL_RETURN_IF_ERROR(ApplyAlterClass(db_, *stmt.alter_class));
      EvalOutput out;
      out.relation = Relation({"class"});
      XSQL_RETURN_IF_ERROR(out.relation.AddRow({stmt.alter_class->cls}));
      return out;
    }
    case Statement::Kind::kUpdateClass: {
      Binding binding;
      XSQL_RETURN_IF_ERROR(
          evaluator_.ExecuteUpdate(*stmt.update_class, &binding));
      EvalOutput out;
      out.relation = Relation({"updated"});
      XSQL_RETURN_IF_ERROR(out.relation.AddRow({Oid::Bool(true)}));
      return out;
    }
    case Statement::Kind::kExplain:
    case Statement::Kind::kSystemMetrics:
    case Statement::Kind::kSystemStatus:
      break;  // dispatched before ExecuteGuarded; unreachable here
  }
  return Status::RuntimeError("unknown statement kind");
}

Result<EvalOutput> Session::ExecuteExplain(const Statement& stmt) {
  // Diagnostic: nothing is evaluated, so no guardrail context is armed
  // (a session with a tiny budget can still explain its queries).
  if (stmt.query->kind != QueryExpr::Kind::kSimple) {
    return Status::InvalidArgument(
        "EXPLAIN expects a simple query (EXPLAIN ANALYZE handles "
        "UNION/MINUS/INTERSECT trees)");
  }
  XSQL_ASSIGN_OR_RETURN(std::string report,
                        ExplainReport(*stmt.query->simple));
  EvalOutput out;
  out.relation = Relation({"explain"});
  XSQL_RETURN_IF_ERROR(AddLines(report, &out.relation));
  return out;
}

Result<EvalOutput> Session::ExecuteExplainAnalyze(const Statement& stmt) {
  static obs::Counter& analyzes =
      obs::MetricsRegistry::Global().GetCounter("xsql.session.explain_analyze");
  analyzes.Inc();
  PreparedPlan prepared;
  prepared.db_version = db_->catalog_version();
  prepared.stmt.kind = Statement::Kind::kQuery;
  prepared.stmt.query = stmt.query;
  // Would a plain execution of this query hit the shared cache right
  // now? Reported below; ToString() is how the cache would see it.
  const bool cached = plans_->Contains(CacheKey(stmt.query->ToString()),
                                       prepared.db_version);
  PrepareStatement(&prepared);
  // Execution phase: fully guarded (budgets, deadline, cancellation all
  // apply) and traced. `rollback_always` withdraws any mutations the
  // query made — OID FUNCTION queries create objects — so analyzing is
  // side-effect-free.
  obs::Tracer tracer;
  obs::ScopedTracer install(&tracer);
  Result<EvalOutput> executed =
      ExecuteGuarded(prepared.stmt, /*rollback_always=*/true,
                     /*read_only=*/false, &prepared);
  if (!executed.ok()) return executed.status();
  // Render phase: guard-exempt — the work already happened; rendering
  // is proportional to the number of distinct operators.
  EvalOutput out;
  out.relation = Relation({"explain analyze"});
  std::string header = "query : " + stmt.query->ToString() + "\n" +
                       "rows  : " +
                       std::to_string(executed->relation.size()) + "\n" +
                       "cache : " + (cached ? "hit" : "miss") + "\n";
  if (prepared.has_plan) {
    for (const std::string& d : prepared.plan.decisions) {
      header += "plan  : " + d + "\n";
    }
  }
  XSQL_RETURN_IF_ERROR(AddLines(header, &out.relation));
  XSQL_RETURN_IF_ERROR(
      AddLines(tracer.Render(/*include_stats=*/true), &out.relation));
  return out;
}

Result<EvalOutput> Session::SystemMetricsOutput() {
  // Diagnostic and guard-exempt, like EXPLAIN: a wedged-on-budget
  // session must still be introspectable. Histograms flatten into one
  // row per field (`name.count`, `name.sum`, `name.p50`, `name.p99`).
  EvalOutput out;
  out.relation = Relation({"metric", "type", "value"});
  for (const obs::MetricSample& s :
       obs::MetricsRegistry::Global().Snapshot()) {
    if (s.type == "histogram") {
      for (const auto& [field, value] : s.fields) {
        XSQL_RETURN_IF_ERROR(out.relation.AddRow(
            {Oid::String(s.name + "." + field), Oid::String(s.type),
             Oid::Int(value)}));
      }
    } else {
      XSQL_RETURN_IF_ERROR(
          out.relation.AddRow({Oid::String(s.name), Oid::String(s.type),
                               Oid::Int(s.fields[0].second)}));
    }
  }
  return out;
}

Result<EvalOutput> Session::SystemStatusOutput() {
  // Diagnostic and guard-exempt, like SYSTEM METRICS. A process that
  // never wrote the board (embedded library use) still answers with
  // its role, so "am I primary?" always has a deterministic reply.
  EvalOutput out;
  out.relation = Relation({"field", "value"});
  const obs::StatusRegistry& board = options_.status != nullptr
                                         ? *options_.status
                                         : obs::StatusRegistry::Global();
  auto snapshot = board.Snapshot();
  bool has_role = false;
  for (const auto& [key, value] : snapshot) {
    if (key == "role") has_role = true;
  }
  if (!has_role) {
    XSQL_RETURN_IF_ERROR(out.relation.AddRow(
        {Oid::String("role"), Oid::String("standalone")}));
  }
  for (const auto& [key, value] : snapshot) {
    XSQL_RETURN_IF_ERROR(
        out.relation.AddRow({Oid::String(key), Oid::String(value)}));
  }
  return out;
}

Result<EvalOutput> Session::ExecuteScript(const std::string& script,
                                          bool atomic) {
  if (atomic) {
    // Script-level transaction: one savepoint spans every statement
    // (each statement still takes and restores its own inside it).
    Savepoint savepoint = TakeSavepoint();
    Result<EvalOutput> out = ExecuteScript(script, /*atomic=*/false);
    if (!out.ok()) savepoint.Restore();
    return out;
  }
  EvalOutput last;
  std::string current;
  bool in_string = false;
  bool any = false;
  auto flush = [&]() -> Status {
    // Skip blank statements (trailing semicolons, empty lines).
    bool blank = true;
    for (char c : current) {
      if (!std::isspace(static_cast<unsigned char>(c))) blank = false;
    }
    if (!blank) {
      XSQL_ASSIGN_OR_RETURN(last, Execute(current));
      any = true;
    }
    current.clear();
    return Status::OK();
  };
  for (char c : script) {
    if (c == '\'') in_string = !in_string;
    if (c == ';' && !in_string) {
      XSQL_RETURN_IF_ERROR(flush());
    } else {
      current.push_back(c);
    }
  }
  XSQL_RETURN_IF_ERROR(flush());
  if (!any) return Status::InvalidArgument("empty script");
  return last;
}

Result<Relation> Session::Query(const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(EvalOutput out, Execute(text));
  return std::move(out.relation);
}

Result<std::string> Session::Explain(const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(Statement stmt, ParseAndResolve(text, *db_));
  const bool explainable =
      (stmt.kind == Statement::Kind::kQuery ||
       stmt.kind == Statement::Kind::kExplain) &&
      stmt.query != nullptr && stmt.query->kind == QueryExpr::Kind::kSimple;
  if (!explainable) {
    return Status::InvalidArgument("Explain expects a simple query");
  }
  return ExplainReport(*stmt.query->simple);
}

Result<std::string> Session::ExplainReport(const ::xsql::Query& query) {
  TypeChecker checker(*db_);
  TypingResult liberal = checker.Check(query, TypingMode::kLiberal,
                                       options_.exemptions);
  TypingResult strict = checker.Check(query, TypingMode::kStrict,
                                      options_.exemptions);
  // The cost-based plan the evaluator would follow (outside-fragment
  // queries plan from raw extent sizes: no range witness to refine
  // them).
  auto planner_lines = [&](const RangeMap* ranges) {
    std::string lines;
    Planner planner(*db_, options_.indexes);
    QueryPlan qp = planner.Plan(query, ranges);
    for (const std::string& d : qp.decisions) {
      lines += "planner : " + d + "\n";
    }
    return lines;
  };
  std::string out = "query   : " + query.ToString() + "\n";
  if (!strict.in_fragment) {
    out += "fragment: outside the typed fragment (" + strict.explanation +
           "); evaluated as liberally typed\n";
    out += planner_lines(nullptr);
    return out;
  }
  out += "liberal : ";
  out += liberal.well_typed ? "well-typed" : "ill-typed (" +
                                                 liberal.explanation + ")";
  out += "\nstrict  : ";
  out += strict.well_typed ? "well-typed" : "ill-typed (" +
                                                strict.explanation + ")";
  out += "\n";
  const TypingResult& witness = strict.well_typed ? strict : liberal;
  if (witness.well_typed) {
    if (!witness.plan.empty()) {
      out += "plan    : " + PlanToString(witness.plan) + "\n";
    }
    for (size_t p = 0; p < witness.assignment.size(); ++p) {
      for (size_t s = 0; s < witness.assignment[p].size(); ++s) {
        out += "assign  : p" + std::to_string(p) + "/step" +
               std::to_string(s) + " : " +
               witness.assignment[p][s].ToString() + "\n";
      }
    }
    for (const auto& [var, range] : witness.ranges) {
      out += "range   : A(" + var.ToString() + ") = " + range.ToString() +
             "\n";
    }
  }
  out += planner_lines(witness.well_typed ? &witness.ranges : nullptr);
  return out;
}

Result<TypingResult> Session::TypeCheck(const std::string& text,
                                        TypingMode mode) {
  XSQL_ASSIGN_OR_RETURN(Statement stmt, ParseAndResolve(text, *db_));
  if (stmt.kind != Statement::Kind::kQuery ||
      stmt.query->kind != QueryExpr::Kind::kSimple) {
    return Status::InvalidArgument("TypeCheck expects a simple query");
  }
  TypeChecker checker(*db_);
  return checker.Check(*stmt.query->simple, mode, options_.exemptions);
}

}  // namespace xsql
