#ifndef XSQL_SERVER_CONCURRENCY_H_
#define XSQL_SERVER_CONCURRENCY_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/exec_context.h"
#include "common/status.h"
#include "eval/parallel.h"
#include "eval/session.h"
#include "storage/recovery.h"
#include "storage/version.h"
#include "storage/wal.h"

namespace xsql {

namespace obs {
class StatusRegistry;
}  // namespace obs

namespace server {

class ReplicationHub;

/// Writer-writer ordering latch with deadline/cancel-aware acquisition.
///
/// Under MVCC this no longer serializes readers against writers — reads
/// run latch-free against a pinned snapshot (see ConcurrencyManager).
/// The exclusive side orders mutations, checkpoints, replica apply, and
/// bootstrap capture against each other; the shared side remains for
/// callers that need to exclude those administrative phases without
/// claiming them (none on the statement path today).
///
/// Acquisition polls in short slices so a waiting statement honors the
/// same guardrails as a running one: the session's wall-clock deadline
/// (`ExecLimits::deadline_ms`) and its cancel token. A tripped wait
/// reports the machine-checkable marker `(guard: latch-wait)`, in the
/// style of the execution guards.
class StatementLatch {
 public:
  Status AcquireShared(const ExecLimits& limits,
                       const std::shared_ptr<CancelToken>& cancel);
  void ReleaseShared();
  Status AcquireExclusive(const ExecLimits& limits,
                          const std::shared_ptr<CancelToken>& cancel);
  void ReleaseExclusive();

  uint64_t shared_acquires() const {
    return shared_acquires_.load(std::memory_order_relaxed);
  }
  uint64_t exclusive_acquires() const {
    return exclusive_acquires_.load(std::memory_order_relaxed);
  }

 private:
  std::mutex mu_;
  std::condition_variable cv_;
  int readers_ = 0;
  bool writer_ = false;
  int writers_waiting_ = 0;
  std::atomic<uint64_t> shared_acquires_{0};
  std::atomic<uint64_t> exclusive_acquires_{0};
};

/// How a statement executes under MVCC.
enum class StatementMode {
  /// Pure read: runs latch-free against the pinned snapshot, sharing it
  /// with every other concurrent reader.
  kSharedRead,
  /// Read whose evaluation may write *scratch* state (re-materializing a
  /// stale view, a query-defined method minting objects, EXPLAIN
  /// ANALYZE's execute-and-rollback): runs latch-free against a private
  /// copy-on-write fork of the snapshot, which is discarded afterwards.
  kPrivateRead,
  /// Mutation (or unclassifiable statement): runs on the master database
  /// under the exclusive latch and commits through the WAL.
  kWrite,
};

/// Classifies how `text` must execute against the given (snapshot)
/// database + view catalog. Conservative by design: every statement that
/// could write *shared* state is kWrite; every statement that could
/// write only its own scratch state is kPrivateRead:
///
///   - mutation kinds (CREATE VIEW / ALTER CLASS / UPDATE CLASS) and OID
///     FUNCTION queries (they mint durable objects) are kWrite;
///   - unresolvable statements are kWrite (they fail before executing,
///     but there is no classification to trust — and a CREATE VIEW
///     referencing a not-yet-visible name resolves only at execution);
///   - EXPLAIN ANALYZE (executes for real, then rolls back) is
///     kPrivateRead;
///   - a statement that *mentions* a view is kSharedRead when the
///     snapshot's materialization of that view is fresh (reading it is
///     a pure read), kPrivateRead when it is stale or never built
///     (evaluation re-materializes — into the private fork);
///   - a statement that mentions a query-defined method is kPrivateRead:
///     invoking one can evaluate an OID clause and mint result objects.
///
/// The mention check lexes `text` and intersects its identifiers with
/// the snapshot's catalogs, so it never misses a reference at the price
/// of the occasional false positive (e.g. a string literal shares a
/// view's name — harmless, the statement merely runs on a private fork).
StatementMode ClassifyMode(const std::string& text,
                           const storage::StatementClass& cls,
                           const Database& db, const ViewManager& views);

/// Multi-session front end over ONE DurableDatabase: the server's
/// execution core, also usable in-process (the benchmarks drive it
/// directly).
///
/// Execution protocol per statement (MVCC snapshot reads):
///   1. pin the current head version (a shared_ptr load — no latch) and
///      classify against it;
///   2. kSharedRead: execute right here against the pinned snapshot via
///      a throwaway per-statement Session (connection guardrails, shared
///      plan cache) — any number of readers in parallel, unaffected by
///      concurrent writers;
///   3. kPrivateRead: same, but against a private COW fork of the
///      snapshot that absorbs scratch writes and is then discarded;
///   4. kWrite: acquire the latch *exclusive*, execute via
///      DurableDatabase::ExecuteForCommit (which enqueues the WAL record
///      under the latch — ticket order = execution order), fork the
///      post-statement state as the next version (sequence assigned
///      under the latch, so version order = WAL order), release;
///   5. wait for the ticket's group commit *after* releasing — the next
///      writer executes while this record's fsync is in flight — and
///      only then install the forked version as the new head: readers
///      never observe a state that is not yet durable, and a connection
///      always sees its own committed writes (install precedes the ack);
///   6. a failed commit wedges the database (in-memory state is ahead
///      of durable state with no way back; reopening recovers the
///      durable prefix) and installs nothing — readers keep the last
///      durable version.
///
/// Sessions share the primary session's view catalog, so a view created
/// on any connection resolves on all of them; each installed version
/// carries an immutable clone of that catalog for its readers.
class ConcurrencyManager {
 public:
  struct Options {
    /// Checkpoint after this many durable mutations (0 = manual only).
    /// Rotation drains the group committer and runs under the exclusive
    /// latch, replacing DurableDatabase's own auto-checkpointing, which
    /// is disabled on the ExecuteForCommit path.
    uint64_t checkpoint_every = 0;
    /// Replication subscribers (owned by the Server). Non-null makes a
    /// wedged database answer with a *retryable* unavailability when a
    /// replica ever subscribed — clients fail over instead of giving up.
    ReplicationHub* hub = nullptr;
    /// Semi-synchronous replication: after a commit is locally durable,
    /// wait (bounded) until every live subscriber acked it. A timeout —
    /// or no subscriber — degrades to async with a metrics breadcrumb
    /// (`xsql.repl.sync_degraded`) rather than failing the write.
    bool sync_replication = false;
    int sync_replication_timeout_ms = 1000;
    /// Status board to publish generation / WAL / dedup / MVCC positions
    /// on (null = don't publish).
    obs::StatusRegistry* status = nullptr;
    /// Intra-query parallelism: max partitions one pure read statement
    /// fans out to (see QueryPlan::parallel_eligible). <2 keeps every
    /// statement serial and spawns no pool. The manager owns ONE pool
    /// shared by all sessions — per-statement throwaway snapshot
    /// readers borrow it, so the latch-free read path never pays a
    /// thread spawn.
    size_t exec_workers = 0;
  };

  ConcurrencyManager(storage::DurableDatabase* dd, Options options);
  explicit ConcurrencyManager(storage::DurableDatabase* dd)
      : ConcurrencyManager(dd, Options()) {}

  /// Registers a new session (exclusive latch: session creation must not
  /// interleave with a mutation's fork point). `options` carries the
  /// connection's guardrails and cancel token.
  Result<uint64_t> CreateSession(SessionOptions options);
  void CloseSession(uint64_t id);
  /// The session object, or null. Stable until CloseSession; only its
  /// owning connection thread may Execute through it at a time.
  Session* session(uint64_t id);
  uint64_t open_sessions() const;

  /// Runs one statement for `session_id` under the protocol above.
  Result<EvalOutput> Execute(uint64_t session_id, const std::string& text);

  /// The exactly-once form: `rid` identifies the request across
  /// retries. Consults the durable dedup table first — a retry of a
  /// committed statement returns its cached rendered reply without
  /// re-executing (or a final "expired" error if the reply has been
  /// evicted); a stale seq (superseded by a later statement from the
  /// same client) is rejected; a duplicate racing the original waits
  /// for it. Otherwise executes like Execute with the WAL record
  /// stamped by `rid`, and records the rendered reply in the dedup
  /// table only once the commit is durable — so a crash before the
  /// fsync leaves no entry and the client's retry re-executes against
  /// the recovered (statement-free) state. The record lands before any
  /// checkpoint can serialize the table (Checkpoint waits for in-
  /// flight recordings), so a crash *after* a rotation can never lose
  /// the entry while keeping the mutation. Returns the rendered reply
  /// text (what the server ships in the kResult frame).
  Result<std::string> ExecuteIdempotent(uint64_t session_id,
                                        const storage::RequestId& rid,
                                        const std::string& text);

  /// Drains in-flight commits and rotates the generation, all under the
  /// exclusive latch.
  Status Checkpoint();

  /// Replays replicated WAL records (replica apply path): executes the
  /// statements, stamps the dedup table, appends the records to the
  /// local WAL, and installs the post-batch state as the new read
  /// snapshot — all under the exclusive latch, so replica reads never
  /// see a half-applied batch. Returns the number applied.
  Result<uint64_t> ApplyReplicated(const std::vector<std::string>& records);

  /// Captures a bootstrap bundle for a subscriber: exclusive latch +
  /// committer drain make the on-disk generation files byte-equal to
  /// the in-memory state; the bundle's generation is pinned against
  /// retention pruning (caller unpins).
  Result<storage::BootstrapBundle> BuildBootstrapBundle();

  /// Classifies `text` against the current snapshot (no latch): would it
  /// need the exclusive latch? The replica server's write fence.
  Result<bool> StatementNeedsExclusive(const std::string& text);

  /// Publishes generation / WAL / dedup / MVCC positions to
  /// `options_.status` (no-op when null).
  void PublishStatus();

  /// Pins the current head version and returns it: what every read
  /// statement does internally. Exposed so tests and benchmarks can
  /// hold a snapshot across writes (version-GC coverage) or read one
  /// directly.
  std::shared_ptr<const storage::DatabaseVersion> PinSnapshot() const {
    return chain_.Head();
  }

  storage::DurableDatabase& durable() { return *dd_; }
  storage::GroupCommitter& committer() { return committer_; }
  StatementLatch& latch() { return latch_; }
  uint64_t statements_executed() const {
    return statements_.load(std::memory_order_relaxed);
  }

 private:
  /// The shared body of Execute / ExecuteIdempotent. When `rid` is
  /// non-null the WAL record is stamped with it, and once the commit is
  /// durable the rendered reply is recorded in the dedup table (and
  /// returned via `*reply`) *before* the auto-checkpoint trigger — the
  /// rotation that discards the stamped WAL record must serialize a
  /// table that already holds the entry. `*committed` reports whether a
  /// mutation became durable.
  Result<EvalOutput> ExecuteInternal(Session* session,
                                     const std::string& text,
                                     const storage::RequestId* rid,
                                     bool* committed, std::string* reply);

  /// Forks the master's post-statement state as the next version.
  /// MUST be called under the exclusive latch: the sequence assigned
  /// here is what keeps version order equal to WAL order, and the fork
  /// also starts a new COW epoch on the master.
  std::shared_ptr<storage::DatabaseVersion> ForkVersionLocked();

  storage::DurableDatabase* dd_;
  Options options_;
  /// Worker pool for intra-query parallelism (null when
  /// options_.exec_workers < 2). Owned here — never by a Session — and
  /// handed to every session this manager creates. Workers only ever
  /// run planner-proven-pure plans against pinned snapshots, so the
  /// pool is safe to share across concurrent reader statements: a busy
  /// pool makes the next statement run serial inline, never queue.
  std::unique_ptr<WorkerPool> pool_;
  storage::GroupCommitter committer_;
  StatementLatch latch_;
  storage::VersionChain chain_;

  mutable std::mutex sessions_mu_;
  std::map<uint64_t, std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 0;

  std::atomic<uint64_t> statements_{0};
  std::atomic<uint64_t> mutations_since_checkpoint_{0};

  /// Rid-stamped commits that are enqueued (claimed under the
  /// exclusive latch) but not yet recorded in the dedup table.
  /// Checkpoint() waits for this to drain after Drain() and before
  /// serializing, closing the window where a rotation could persist a
  /// table missing an entry whose WAL record it just discarded.
  std::mutex pending_mu_;
  std::condition_variable pending_cv_;
  uint64_t pending_rid_commits_ = 0;
};

}  // namespace server
}  // namespace xsql

#endif  // XSQL_SERVER_CONCURRENCY_H_
