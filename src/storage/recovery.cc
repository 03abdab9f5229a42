#include "storage/recovery.h"

#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>

#include "common/fault.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "parser/parser.h"
#include "storage/file.h"
#include "storage/snapshot.h"

namespace xsql {
namespace storage {

namespace {

/// True iff any SELECT block in the expression tree carries an OID
/// FUNCTION clause — evaluating such a query mints objects.
bool TreeCreatesObjects(const QueryExpr& expr) {
  switch (expr.kind) {
    case QueryExpr::Kind::kSimple:
      return expr.simple != nullptr &&
             expr.simple->oid_function_of.has_value();
    default:
      return (expr.lhs != nullptr && TreeCreatesObjects(*expr.lhs)) ||
             (expr.rhs != nullptr && TreeCreatesObjects(*expr.rhs));
  }
}

Status WedgedStatus() {
  return Status::RuntimeError(
      "durable database crashed; reopen the directory to recover");
}

}  // namespace

StatementClass ClassifyStatement(const std::string& text,
                                 const Database& db) {
  StatementClass out;
  Result<Statement> parsed = ParseAndResolve(text, db);
  if (!parsed.ok()) return out;  // unparseable cannot execute either
  out.parse_ok = true;
  switch (parsed->kind) {
    case Statement::Kind::kCreateView:
      out.is_definition = true;
      out.is_mutation_kind = true;
      break;
    case Statement::Kind::kAlterClass:
      // Plain ADD SIGNATURE is fully captured by the snapshot's SIG
      // section; only a method-defining SELECT needs DDL replay.
      out.is_definition = parsed->alter_class->method_def.has_value();
      out.is_mutation_kind = true;
      break;
    case Statement::Kind::kUpdateClass:
      out.is_mutation_kind = true;
      break;
    case Statement::Kind::kExplain:
    case Statement::Kind::kSystemMetrics:
    case Statement::Kind::kSystemStatus:
      out.is_diagnostic = true;
      out.is_explain_analyze = parsed->analyze;
      break;
    case Statement::Kind::kQuery:
      out.creates_objects =
          parsed->query != nullptr && TreeCreatesObjects(*parsed->query);
      break;
  }
  return out;
}

std::string DurableDatabase::CurrentPath(const std::string& dir) {
  return dir + "/CURRENT";
}
std::string DurableDatabase::SnapshotPath(const std::string& dir,
                                          uint64_t gen) {
  return dir + "/snapshot-" + std::to_string(gen) + ".db";
}
std::string DurableDatabase::DdlPath(const std::string& dir, uint64_t gen) {
  return dir + "/ddl-" + std::to_string(gen) + ".log";
}
std::string DurableDatabase::WalPath(const std::string& dir, uint64_t gen) {
  return dir + "/wal-" + std::to_string(gen) + ".log";
}
std::string DurableDatabase::DedupPath(const std::string& dir,
                                       uint64_t gen) {
  return dir + "/dedup-" + std::to_string(gen) + ".tab";
}

Result<std::unique_ptr<DurableDatabase>> DurableDatabase::Open(
    const std::string& dir, DurableOptions options) {
  std::unique_ptr<DurableDatabase> db(
      new DurableDatabase(dir, std::move(options)));
  XSQL_RETURN_IF_ERROR(db->Recover());
  return db;
}

Status DurableDatabase::InitializeFreshDir() {
  // Generation 1 of an empty database. CURRENT is written last: a
  // crash mid-initialization leaves stray generation files that the
  // next open simply overwrites.
  Database fresh;
  XSQL_RETURN_IF_ERROR(
      File::WriteAtomic(SnapshotPath(dir_, 1), SaveSnapshot(fresh)));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(DdlPath(dir_, 1), Wal::kMagic));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(WalPath(dir_, 1), Wal::kMagic));
  return File::WriteAtomic(CurrentPath(dir_), "1\n");
}

Status DurableDatabase::Recover() {
  static obs::Counter& recoveries =
      obs::MetricsRegistry::Global().GetCounter("xsql.storage.recoveries");
  static obs::Counter& replays = obs::MetricsRegistry::Global().GetCounter(
      "xsql.storage.replayed_statements");
  static obs::Histogram& recovery_us =
      obs::MetricsRegistry::Global().GetHistogram(
          "xsql.storage.recovery_us");
  obs::Span span("recovery", [&] { return dir_; });
  const auto recover_start = std::chrono::steady_clock::now();
  XSQL_RETURN_IF_ERROR(File::EnsureDir(dir_));
  if (!File::Exists(CurrentPath(dir_))) {
    XSQL_RETURN_IF_ERROR(InitializeFreshDir());
  }
  XSQL_ASSIGN_OR_RETURN(std::string current,
                        File::ReadAll(CurrentPath(dir_)));
  errno = 0;
  char* stop = nullptr;
  uint64_t gen = std::strtoull(current.c_str(), &stop, 10);
  if (errno != 0 || stop == current.c_str() || gen == 0) {
    return Status::InvalidArgument("corrupt CURRENT file in " + dir_ +
                                   ": '" + current + "'");
  }

  db_ = std::make_unique<Database>();
  XSQL_ASSIGN_OR_RETURN(std::string snapshot,
                        File::ReadAll(SnapshotPath(dir_, gen)));
  XSQL_RETURN_IF_ERROR(LoadSnapshot(snapshot, db_.get()));
  session_ = std::make_unique<Session>(db_.get(), options_.session);

  // Re-install view definitions and query-defined method bodies: the
  // snapshot holds their *data* (classes, signatures, materialized
  // objects) but not their executable definitions.
  std::optional<obs::Span> ddl_span;
  ddl_span.emplace("recovery/ddl-replay");
  XSQL_ASSIGN_OR_RETURN(Wal::Scan ddl, Wal::ScanFile(DdlPath(dir_, gen)));
  if (ddl.torn) {
    // The DDL log is replaced atomically at checkpoint, never appended
    // to, so a torn tail means real corruption, not a crash artifact.
    return Status::InvalidArgument("corrupt DDL log " + DdlPath(dir_, gen) +
                                   ": " + ddl.torn_detail);
  }
  for (size_t i = 0; i < ddl.records.size(); ++i) {
    Result<EvalOutput> replay = session_->Execute(ddl.records[i]);
    if (!replay.ok()) {
      return Status::InvalidArgument(
          "DDL replay failed at record " + std::to_string(i) + " ('" +
          ddl.records[i] + "'): " + replay.status().ToString());
    }
    ddl_statements_.push_back(ddl.records[i]);
  }
  ddl_span->AddRows(ddl.records.size());
  ddl_span.reset();

  // Re-seed the exactly-once table from the last checkpoint's
  // snapshot of it (absent in pre-dedup directories: empty table).
  if (File::Exists(DedupPath(dir_, gen))) {
    XSQL_ASSIGN_OR_RETURN(std::string dedup_image,
                          File::ReadAll(DedupPath(dir_, gen)));
    XSQL_RETURN_IF_ERROR(dedup_.Load(dedup_image));
  }

  // Replay the WAL tail; a torn last record (crash mid-append) is
  // truncated away — it was never acknowledged. Request-ID-stamped
  // records also rebuild their dedup entry, re-rendering the reply the
  // original execution produced, so a client that retries into this
  // freshly recovered process gets the cached reply, not a second
  // execution.
  obs::Span wal_span("recovery/wal-replay");
  XSQL_ASSIGN_OR_RETURN(Wal::Scan scan, Wal::ScanFile(WalPath(dir_, gen)));
  recovered_torn_tail_ = scan.torn;
  for (size_t i = 0; i < scan.records.size(); ++i) {
    auto [rid, stmt] = DecodeRidPayload(scan.records[i]);
    StatementClass cls = ClassifyStatement(stmt, *db_);
    Result<EvalOutput> replay = session_->Execute(stmt);
    if (!replay.ok()) {
      return Status::InvalidArgument(
          "WAL replay failed at record " + std::to_string(i) + " ('" +
          stmt + "'): " + replay.status().ToString());
    }
    if (rid.has_value()) dedup_.Record(*rid, RenderEvalOutput(*replay));
    if (cls.is_definition) ddl_statements_.push_back(stmt);
  }
  replayed_statements_ = scan.records.size();
  wal_span.AddRows(scan.records.size());
  replays.Inc(ddl.records.size() + scan.records.size());

  XSQL_ASSIGN_OR_RETURN(Wal appender,
                        Wal::OpenAppender(WalPath(dir_, gen),
                                          scan.valid_size));
  {
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_ = std::make_unique<Wal>(std::move(appender));
    wal_base_records_ = scan.records.size();
    generation_.store(gen, std::memory_order_release);
  }
  // A crash between a checkpoint's CURRENT flip and its prune left the
  // stale generations behind; finish the job now.
  (void)PruneStaleGenerations();
  recoveries.Inc();
  recovery_us.Observe(static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - recover_start)
          .count()));
  return Status::OK();
}

Result<EvalOutput> DurableDatabase::Execute(const std::string& text) {
  if (wedged()) return WedgedStatus();
  StatementClass cls = ClassifyStatement(text, *db_);

  // Run the statement atomically in memory under a savepoint held past
  // Session::Execute, so the effect can still be withdrawn if the WAL
  // append fails: acknowledged ⇒ durable, failed ⇒ no trace. The session
  // has already restored a failed statement and EXPLAIN ANALYZE's
  // scratch state under its own (nested) savepoint; diagnostics never
  // reach the WAL.
  const uint64_t version_before = db_->version();
  Session::Savepoint savepoint = session_->TakeSavepoint();
  Result<EvalOutput> out = session_->Execute(text);
  if (!out.ok() || cls.is_diagnostic) return out;
  if (db_->version() == version_before) return out;  // read-only

  Status append = wal_->Append(text);
  if (!append.ok()) {
    savepoint.Restore();
    if (FaultInjector::Global().crashed_for(dir_)) Wedge();
    return append;
  }
  ++records_since_checkpoint_;
  if (cls.is_definition) ddl_statements_.push_back(text);

  if (options_.checkpoint_every != 0 &&
      records_since_checkpoint_ >= options_.checkpoint_every) {
    // The statement is already durable in the current generation; a
    // failed rotation only matters if the process died.
    Status rotated = Checkpoint();
    (void)rotated;
  }
  return out;
}

Result<Relation> DurableDatabase::Query(const std::string& text) {
  XSQL_ASSIGN_OR_RETURN(EvalOutput out, Execute(text));
  return std::move(out.relation);
}

Result<EvalOutput> DurableDatabase::ExecuteForCommit(
    Session* session, const std::string& text, GroupCommitter* committer,
    uint64_t* ticket, const RequestId* rid) {
  *ticket = 0;
  if (wedged()) return WedgedStatus();
  StatementClass cls = ClassifyStatement(text, *db_);

  // Same in-memory atomicity as Execute, minus the outer savepoint: the
  // session restores a failed statement and EXPLAIN ANALYZE's scratch
  // state itself, and past a successful Execute nothing here can fail.
  // Durability differs — instead of an inline fsync, the record is
  // enqueued for group commit and the caller waits for its ticket after
  // releasing the statement latch.
  const uint64_t version_before = db_->version();
  Result<EvalOutput> out = session->Execute(text);
  if (!out.ok() || cls.is_diagnostic) return out;
  if (db_->version() == version_before) return out;  // read-only

  // Enqueue while the caller still holds the exclusive latch: ticket
  // order == execution order, which recovery's serial replay needs.
  // DDL bookkeeping happens here too — if the batch later fails the
  // whole instance wedges, so a bookkeeping entry for a never-durable
  // statement can never leak into a checkpoint.
  *ticket = committer->Enqueue(
      rid == nullptr ? text : EncodeRidPayload(*rid, text));
  ++records_since_checkpoint_;
  if (cls.is_definition) ddl_statements_.push_back(text);
  return out;
}

Status DurableDatabase::Checkpoint() {
  static obs::Counter& checkpoints =
      obs::MetricsRegistry::Global().GetCounter("xsql.storage.checkpoints");
  obs::Span span("checkpoint", [&] { return dir_; });
  if (wedged()) return WedgedStatus();
  const uint64_t next = generation() + 1;
  auto fail = [&](Status st) {
    if (FaultInjector::Global().crashed_for(dir_)) {
      Wedge();
    } else {
      // The rotation never committed; drop the half-built generation.
      (void)File::Remove(SnapshotPath(dir_, next));
      (void)File::Remove(DdlPath(dir_, next));
      (void)File::Remove(WalPath(dir_, next));
      (void)File::Remove(DedupPath(dir_, next));
    }
    return st;
  };

  Status st = File::WriteAtomic(SnapshotPath(dir_, next),
                                SaveSnapshot(*db_));
  if (!st.ok()) return fail(std::move(st));
  std::string ddl(Wal::kMagic);
  for (const std::string& stmt : ddl_statements_) {
    ddl += Wal::EncodeRecord(stmt);
  }
  st = File::WriteAtomic(DdlPath(dir_, next), ddl);
  if (!st.ok()) return fail(std::move(st));
  st = File::WriteAtomic(WalPath(dir_, next), Wal::kMagic);
  if (!st.ok()) return fail(std::move(st));
  // The dedup table travels with the checkpoint: rotation folds the
  // WAL (and its request-ID stamps) into the snapshot, so the entries
  // must be carried explicitly or a post-checkpoint retry would
  // re-execute an already-committed statement.
  st = File::WriteAtomic(DedupPath(dir_, next), dedup_.Serialize());
  if (!st.ok()) return fail(std::move(st));
  // The commit point: flipping CURRENT atomically adopts the new
  // generation. Before this rename, recovery uses the old files (all
  // untouched); after it, the new ones.
  st = File::WriteAtomic(CurrentPath(dir_), std::to_string(next) + "\n");
  if (!st.ok()) return fail(std::move(st));

  records_since_checkpoint_ = 0;
  Result<Wal> appender =
      Wal::OpenAppender(WalPath(dir_, next), sizeof(Wal::kMagic) - 1);
  if (!appender.ok()) {
    // Rotation committed but the appender could not bind; state on
    // disk is consistent, so force a reopen rather than limp on.
    generation_.store(next, std::memory_order_release);
    Wedge();
    return appender.status();
  }
  {
    // Swap the whole position triple at once so a concurrent
    // DurableWalPoint never pairs the new generation with the old
    // WAL's counters (or vice versa).
    std::lock_guard<std::mutex> lock(wal_mu_);
    wal_ = std::make_unique<Wal>(std::move(*appender));
    wal_base_records_ = 0;
    generation_.store(next, std::memory_order_release);
  }
  checkpoints.Inc();
  // Best-effort cleanup; stray old-generation files are harmless (a
  // crash landing here is exactly the flip-without-prune case Recover
  // finishes).
  (void)PruneStaleGenerations();
  return Status::OK();
}

WalPoint DurableDatabase::DurableWalPoint() const {
  std::lock_guard<std::mutex> lock(wal_mu_);
  WalPoint point;
  point.generation = generation_.load(std::memory_order_relaxed);
  point.records =
      wal_base_records_ + (wal_ ? wal_->records_appended() : 0);
  point.bytes = wal_ ? wal_->synced_size() : 0;
  return point;
}

Result<uint64_t> DurableDatabase::ApplyReplicated(
    const std::vector<std::string>& records) {
  static obs::Counter& applied = obs::MetricsRegistry::Global().GetCounter(
      "xsql.repl.applied_records");
  if (wedged()) return WedgedStatus();
  if (records.empty()) return static_cast<uint64_t>(0);
  obs::Span span("recovery/apply-replicated");
  span.AddRows(records.size());
  for (const std::string& record : records) {
    auto [rid, stmt] = DecodeRidPayload(record);
    StatementClass cls = ClassifyStatement(stmt, *db_);
    Result<EvalOutput> out = session_->Execute(stmt);
    if (!out.ok()) {
      // The primary committed this statement; a replica that cannot
      // reproduce it has diverged and must not serve or promote.
      Wedge();
      return Status::RuntimeError("replicated apply failed ('" + stmt +
                                  "'): " + out.status().ToString());
    }
    if (rid.has_value()) dedup_.Record(*rid, RenderEvalOutput(*out));
    if (cls.is_definition) ddl_statements_.push_back(stmt);
  }
  // The shipped records land verbatim — the replica WAL stays a
  // byte-prefix of the primary's — with one write and one fsync.
  Status append = wal_->AppendBatch(records);
  if (!append.ok()) {
    Wedge();
    return append;
  }
  records_since_checkpoint_ += records.size();
  applied.Inc(records.size());
  return static_cast<uint64_t>(records.size());
}

Result<BootstrapBundle> DurableDatabase::ReadBootstrapBundle() {
  if (wedged()) return WedgedStatus();
  obs::Span span("recovery/read-bootstrap", [&] { return dir_; });
  BootstrapBundle bundle;
  bundle.generation = generation();
  XSQL_ASSIGN_OR_RETURN(bundle.snapshot,
                        File::ReadAll(SnapshotPath(dir_, bundle.generation)));
  XSQL_ASSIGN_OR_RETURN(bundle.ddl,
                        File::ReadAll(DdlPath(dir_, bundle.generation)));
  XSQL_ASSIGN_OR_RETURN(bundle.wal,
                        File::ReadAll(WalPath(dir_, bundle.generation)));
  if (File::Exists(DedupPath(dir_, bundle.generation))) {
    XSQL_ASSIGN_OR_RETURN(bundle.dedup,
                          File::ReadAll(DedupPath(dir_, bundle.generation)));
  }
  XSQL_ASSIGN_OR_RETURN(Wal::Scan scan, Wal::ScanContents(bundle.wal));
  if (scan.torn) {
    // Caller holds the latch with the committer drained; a torn file
    // here is corruption, not concurrency.
    return Status::InvalidArgument("bootstrap read found a torn WAL: " +
                                   scan.torn_detail);
  }
  bundle.wal_records = scan.records.size();
  PinGeneration(bundle.generation);
  return bundle;
}

Status DurableDatabase::InstallBootstrapBundle(const std::string& dir,
                                               const BootstrapBundle& b) {
  XSQL_RETURN_IF_ERROR(File::EnsureDir(dir));
  XSQL_RETURN_IF_ERROR(
      File::WriteAtomic(SnapshotPath(dir, b.generation), b.snapshot));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(DdlPath(dir, b.generation), b.ddl));
  XSQL_RETURN_IF_ERROR(File::WriteAtomic(WalPath(dir, b.generation), b.wal));
  if (!b.dedup.empty()) {
    XSQL_RETURN_IF_ERROR(
        File::WriteAtomic(DedupPath(dir, b.generation), b.dedup));
  } else {
    // A stale table from a previous life of this directory must not
    // resurrect under the bundle's generation number.
    XSQL_RETURN_IF_ERROR(File::Remove(DedupPath(dir, b.generation)));
  }
  // The commit point, exactly like a checkpoint's flip.
  return File::WriteAtomic(CurrentPath(dir),
                           std::to_string(b.generation) + "\n");
}

void DurableDatabase::PinGeneration(uint64_t gen) {
  std::lock_guard<std::mutex> lock(pin_mu_);
  ++pinned_generations_[gen];
}

void DurableDatabase::UnpinGeneration(uint64_t gen) {
  std::lock_guard<std::mutex> lock(pin_mu_);
  auto it = pinned_generations_.find(gen);
  if (it == pinned_generations_.end()) return;
  if (--it->second == 0) pinned_generations_.erase(it);
}

Status DurableDatabase::PruneStaleGenerations() {
  static obs::Counter& pruned = obs::MetricsRegistry::Global().GetCounter(
      "xsql.storage.generations_pruned");
  const uint64_t current = generation();
  const uint64_t retain =
      options_.retain_generations < 1 ? 1 : options_.retain_generations;
  // Keep (current - retain, current]; never touch the live generation
  // or anything newer (a half-built rotation in flight).
  const uint64_t keep_above = current > retain ? current - retain : 0;
  Result<std::vector<std::string>> names = File::ListDir(dir_);
  if (!names.ok()) return names.status();
  // Which generations have files on disk, parsed from the four
  // per-generation name shapes.
  auto parse_gen = [](const std::string& name, const char* prefix,
                      const char* suffix, uint64_t* gen) {
    size_t plen = std::strlen(prefix), slen = std::strlen(suffix);
    if (name.size() <= plen + slen) return false;
    if (name.compare(0, plen, prefix) != 0) return false;
    if (name.compare(name.size() - slen, slen, suffix) != 0) return false;
    uint64_t value = 0;
    for (size_t i = plen; i < name.size() - slen; ++i) {
      if (name[i] < '0' || name[i] > '9') return false;
      value = value * 10 + static_cast<uint64_t>(name[i] - '0');
    }
    *gen = value;
    return true;
  };
  Status result = Status::OK();
  for (const std::string& name : names.value()) {
    uint64_t gen = 0;
    if (!parse_gen(name, "snapshot-", ".db", &gen) &&
        !parse_gen(name, "ddl-", ".log", &gen) &&
        !parse_gen(name, "wal-", ".log", &gen) &&
        !parse_gen(name, "dedup-", ".tab", &gen)) {
      continue;
    }
    if (gen > keep_above) continue;
    {
      std::lock_guard<std::mutex> lock(pin_mu_);
      if (pinned_generations_.count(gen) != 0) continue;
    }
    Status st = File::Remove(dir_ + "/" + name);
    if (st.ok()) {
      pruned.Inc();
    } else if (result.ok()) {
      result = st;
    }
  }
  return result;
}

}  // namespace storage
}  // namespace xsql
