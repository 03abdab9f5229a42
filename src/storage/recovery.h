#ifndef XSQL_STORAGE_RECOVERY_H_
#define XSQL_STORAGE_RECOVERY_H_

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "eval/session.h"
#include "storage/dedup.h"
#include "storage/wal.h"
#include "store/database.h"

namespace xsql {
namespace storage {

/// How a statement interacts with the durability and concurrency
/// layers. Definition statements install state (view definitions,
/// query-defined method bodies) that snapshots cannot carry, so they
/// are carried forward in the per-generation DDL log and replayed on
/// open. Mutation-kind and object-creating statements tell the server
/// which latch mode a statement needs *before* running it.
struct StatementClass {
  /// The text parsed and resolved. Unparseable statements cannot
  /// execute either, so every other field is trustworthy only when set.
  bool parse_ok = false;
  bool is_definition = false;
  /// EXPLAIN [ANALYZE] / SYSTEM METRICS: never appended to the WAL.
  /// EXPLAIN ANALYZE may bump the in-memory version counter while it
  /// executes-and-rolls-back, so the version check alone cannot be
  /// trusted to classify it as read-only.
  bool is_diagnostic = false;
  /// EXPLAIN ANALYZE specifically: executes for real (then rolls back),
  /// so the server must treat it as a writer even though it is
  /// diagnostic.
  bool is_explain_analyze = false;
  /// Statement kinds that mutate by construction (CREATE VIEW, ALTER
  /// CLASS, UPDATE CLASS), independent of the runtime version check.
  bool is_mutation_kind = false;
  /// A query with an OID FUNCTION clause anywhere in its expression
  /// tree: evaluating it mints objects, i.e. a SELECT that writes.
  bool creates_objects = false;
};

/// Classifies `text` against the current schema. Used by recovery (DDL
/// carry-forward), the durable Execute path (WAL append decision), and
/// the concurrent server (statement-mode classification).
StatementClass ClassifyStatement(const std::string& text,
                                 const Database& db);

/// Options for a durable database directory.
struct DurableOptions {
  /// Session policy (typing mode, guardrails, ...) for both replay and
  /// live execution.
  SessionOptions session;
  /// Automatically checkpoint after this many statements have been
  /// appended to the WAL since open / the last checkpoint. 0 = manual
  /// checkpoints only.
  uint64_t checkpoint_every = 0;
  /// Bounds for the exactly-once dedup table (LRU caps + reply-size
  /// cap; see DedupTable::Options).
  DedupTable::Options dedup;
  /// How many checkpoint generations to keep on disk (the live one
  /// included). Older generations are pruned after each rotation and
  /// on open — unless pinned by a replica still bootstrapping from
  /// them. Minimum 1 (the live generation is never pruned).
  uint64_t retain_generations = 2;
};

/// A coordinate in the durable statement history: generation `g`,
/// `records` committed records in `wal-g.log`, spanning `bytes` bytes
/// of that file (magic included). Replication subscribes from, acks,
/// and measures lag in these.
struct WalPoint {
  uint64_t generation = 0;
  uint64_t records = 0;
  uint64_t bytes = 0;
};

/// A complete, self-consistent copy of one generation's on-disk files,
/// taken under the exclusive latch with the group committer drained so
/// disk ≡ memory at the instant of capture. A replica installs the
/// four images verbatim and runs ordinary recovery on them; its WAL is
/// then a byte-prefix of the primary's, which is what lets a local
/// record count double as a replication position.
struct BootstrapBundle {
  uint64_t generation = 0;
  uint64_t wal_records = 0;  // records in `wal` (the resume position)
  std::string snapshot;
  std::string ddl;
  std::string wal;
  std::string dedup;  // empty when the generation has no dedup table
};

/// A Database + Session bound to an on-disk directory, with durable,
/// crash-recoverable statement execution.
///
/// Directory layout (generation `g`, an incrementing integer):
///
///     CURRENT          "g\n" — which generation is live
///     snapshot-g.db    canonical snapshot at the last checkpoint
///     ddl-g.log        definition statements (CREATE VIEW / method-
///                      defining ALTER CLASS) executed before the
///                      checkpoint, in WAL record format — snapshots
///                      cannot carry view/method *bodies*, so recovery
///                      re-installs them by replaying their DDL
///     wal-g.log        statements executed after the checkpoint
///
/// Opening = load `snapshot-g.db`, replay `ddl-g.log`, then replay the
/// valid prefix of `wal-g.log`, truncating any torn tail at the first
/// bad length/checksum. Execute = run the statement atomically in
/// memory; if it mutated the database, append it to the WAL and fsync
/// *before* acknowledging — on append failure the in-memory effect is
/// rolled back, so an acknowledged statement is durable and a failed
/// one leaves no trace. Checkpoint = write generation g+1's files,
/// then atomically flip CURRENT; a crash at any byte of the rotation
/// leaves either generation fully intact.
class DurableDatabase {
 public:
  /// Opens (or initializes) the durable directory and recovers.
  static Result<std::unique_ptr<DurableDatabase>> Open(
      const std::string& dir, DurableOptions options = {});

  /// Executes one statement with durable acknowledgement (see above).
  /// After a simulated crash the instance is wedged: every call fails
  /// until the directory is reopened, like a real dead process.
  Result<EvalOutput> Execute(const std::string& text);

  /// Convenience: execute and return just the relation.
  Result<Relation> Query(const std::string& text);

  /// The group-commit half of Execute: runs the statement atomically in
  /// memory through `session` (a per-connection session sharing this
  /// database and its view catalog), and — if it mutated the database —
  /// *enqueues* its WAL record on `committer` instead of fsyncing
  /// inline, storing the commit ticket in `*ticket`. Read-only,
  /// diagnostic, and failed statements leave `*ticket == 0`.
  ///
  /// The caller owns the rest of the protocol: it must (a) call this
  /// under the exclusive statement latch for any statement that might
  /// mutate, so enqueue order equals execution order; (b) release the
  /// latch and then `committer->WaitDurable(*ticket)` before
  /// acknowledging; (c) `Wedge()` this database if the wait fails —
  /// in-memory state is then ahead of durable state with no way back,
  /// exactly the simulated-crash situation. Auto-checkpointing is
  /// disabled on this path (rotation must be coordinated with the
  /// latch; see ConcurrencyManager::Checkpoint).
  ///
  /// When `rid` is non-null the statement carries a client request ID:
  /// its WAL record is stamped with it (see EncodeRidPayload), so
  /// recovery can rebuild the exactly-once dedup table. The *caller*
  /// records the reply in `dedup()` once the ticket is durable — an
  /// entry must never exist for an unacknowledgeable statement, and it
  /// must exist before any checkpoint serializes the table (or the
  /// rotation would discard the statement's stamped WAL record while
  /// the persisted table still lacks its entry).
  Result<EvalOutput> ExecuteForCommit(Session* session,
                                      const std::string& text,
                                      GroupCommitter* committer,
                                      uint64_t* ticket,
                                      const RequestId* rid = nullptr);

  /// Rotates snapshot + DDL log + WAL into a new generation. Logical
  /// state is unchanged; a crash mid-rotation is always recoverable.
  Status Checkpoint();

  // ---- Replication ---------------------------------------------------

  /// Replays a batch of stamped WAL records shipped from a primary:
  /// executes each statement through this database's session, records
  /// request-ID-stamped replies in the dedup table (so exactly-once
  /// survives promotion), then appends the raw records to the local
  /// WAL with ONE fsync. The caller must hold the exclusive statement
  /// latch. Any failure wedges the instance — replica state would
  /// otherwise silently diverge from the shipped history — and the
  /// replica heals by reopening from its own durable prefix and
  /// resubscribing. Returns the records applied.
  Result<uint64_t> ApplyReplicated(const std::vector<std::string>& records);

  /// The durable position: generation + committed record count +
  /// byte length of the live WAL, read as one consistent triple.
  /// Thread-safe (this is what the replication shipper polls).
  WalPoint DurableWalPoint() const;

  /// Captures the current generation's four files for replica
  /// bootstrap. The caller must hold the exclusive latch with the
  /// committer drained (disk ≡ memory). Pins the generation against
  /// pruning; the caller unpins when the transfer is over.
  Result<BootstrapBundle> ReadBootstrapBundle();

  /// Installs a bundle into `dir` (fresh or stale replica directory),
  /// making it byte-identical to the primary's generation files.
  /// Ordinary Open/Recover then brings the replica to the bundle's
  /// logical state.
  static Status InstallBootstrapBundle(const std::string& dir,
                                       const BootstrapBundle& bundle);

  /// Pins `gen` against pruning (refcounted) / releases one pin.
  void PinGeneration(uint64_t gen);
  void UnpinGeneration(uint64_t gen);

  /// Removes generation files outside the retention window (keeping
  /// the newest `retain_generations`, the live generation always, and
  /// anything pinned). Called after every rotation and on open, so a
  /// crash between flip and prune just leaves work for next time.
  Status PruneStaleGenerations();

  Database& db() { return *db_; }
  Session& session() { return *session_; }
  const std::string& dir() const { return dir_; }
  uint64_t generation() const {
    return generation_.load(std::memory_order_acquire);
  }
  /// Statements appended to the live WAL since open/last checkpoint.
  uint64_t wal_records() const {
    std::lock_guard<std::mutex> lock(wal_mu_);
    return wal_ ? wal_->records_appended() : 0;
  }
  uint64_t wal_bytes() const {
    std::lock_guard<std::mutex> lock(wal_mu_);
    return wal_ ? wal_->synced_size() : 0;
  }
  /// Whether recovery found (and truncated) a torn WAL tail on open.
  bool recovered_torn_tail() const { return recovered_torn_tail_; }
  /// Statements replayed from the WAL during open.
  uint64_t replayed_statements() const { return replayed_statements_; }
  bool wedged() const { return wedged_.load(std::memory_order_acquire); }
  /// Marks the instance dead: every later Execute/Checkpoint fails
  /// until the directory is reopened. Used by the server when a group
  /// commit fails (in-memory state is ahead of durable state) and by
  /// the fault injector's simulated crashes.
  void Wedge() { wedged_.store(true, std::memory_order_release); }
  /// The live WAL appender (rebind GroupCommitter after Checkpoint).
  Wal* wal() { return wal_.get(); }

  /// The exactly-once request table: rebuilt on open from the
  /// checkpointed `dedup-<gen>.tab` plus the stamped WAL tail, and
  /// persisted at every checkpoint. The server consults it before
  /// executing any request-ID-stamped statement.
  DedupTable& dedup() { return dedup_; }

  // File-name helpers, exposed for tests.
  static std::string CurrentPath(const std::string& dir);
  static std::string SnapshotPath(const std::string& dir, uint64_t gen);
  static std::string DdlPath(const std::string& dir, uint64_t gen);
  static std::string WalPath(const std::string& dir, uint64_t gen);
  static std::string DedupPath(const std::string& dir, uint64_t gen);

 private:
  explicit DurableDatabase(std::string dir, DurableOptions options)
      : dir_(std::move(dir)),
        options_(std::move(options)),
        dedup_(options_.dedup) {}

  Status Recover();
  Status InitializeFreshDir();

  std::string dir_;
  DurableOptions options_;
  /// Atomic because the replication shipper reads it off-latch; the
  /// full consistent triple lives behind `wal_mu_`.
  std::atomic<uint64_t> generation_{0};
  std::unique_ptr<Database> db_;
  std::unique_ptr<Session> session_;
  /// Guards `wal_` (rebound at checkpoint) together with `generation_`
  /// and `wal_base_records_`, so DurableWalPoint reads one consistent
  /// {generation, records, bytes} triple while rotation swaps all
  /// three.
  mutable std::mutex wal_mu_;
  std::unique_ptr<Wal> wal_;
  /// Records already in the live WAL file when the appender was bound
  /// (replayed on open; 0 after a rotation). File total = base +
  /// appended.
  uint64_t wal_base_records_ = 0;
  /// Generation pin refcounts (replicas mid-bootstrap).
  mutable std::mutex pin_mu_;
  std::map<uint64_t, uint64_t> pinned_generations_;
  DedupTable dedup_;
  /// Definition statements to carry into the next checkpoint's DDL log.
  std::vector<std::string> ddl_statements_;
  uint64_t records_since_checkpoint_ = 0;
  uint64_t replayed_statements_ = 0;
  bool recovered_torn_tail_ = false;
  /// Atomic because the server reads it from acker threads racing the
  /// statement threads that set it (all under their own latches, but
  /// not a common one).
  std::atomic<bool> wedged_{false};
};

}  // namespace storage
}  // namespace xsql

#endif  // XSQL_STORAGE_RECOVERY_H_
