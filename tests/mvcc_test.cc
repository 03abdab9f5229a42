// MVCC snapshot reads: copy-on-write fork isolation at the store layer,
// the snapshot-isolation stress test (latch-free readers must only ever
// observe committed prefixes of the writers' histories — never a torn
// statement), version garbage collection (superseded versions are freed
// at the last pin release, and a long-lived reader bounds the chain
// instead of growing it), and a crash sweep through a commit proving
// the read head never advances past durable state. Run under ASan and
// TSan by ci.sh (labels: mvcc, concurrency).
#include <gtest/gtest.h>

#include <atomic>
#include <filesystem>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "eval/evaluator.h"
#include "eval/session.h"
#include "obs/metrics.h"
#include "server/concurrency.h"
#include "storage/recovery.h"
#include "storage/snapshot.h"
#include "storage/version.h"
#include "storage/wal.h"
#include "store/database.h"

namespace xsql {
namespace server {
namespace {

using storage::DurableDatabase;
using storage::SaveSnapshot;
using storage::VersionChain;
using storage::Wal;

Oid A(const std::string& name) { return Oid::Atom(name); }

std::vector<std::string> Prelude() {
  return {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
      "UPDATE CLASS Person SET mary.Salary = 100",
  };
}

class MvccTest : public ::testing::Test {
 protected:
  void SetUp() override {
    const auto* info =
        ::testing::UnitTest::GetInstance()->current_test_info();
    dir_ = ::testing::TempDir() + "/xsql_mvcc_" + info->name();
    std::filesystem::remove_all(dir_);
  }

  void TearDown() override {
    FaultInjector::Global().Disarm();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<DurableDatabase> MustOpen(const std::string& dir) {
    auto dd = DurableDatabase::Open(dir);
    EXPECT_TRUE(dd.ok()) << dd.status().ToString();
    return dd.ok() ? std::move(*dd) : nullptr;
  }

  void MustExecute(DurableDatabase* dd,
                   const std::vector<std::string>& script) {
    for (const std::string& stmt : script) {
      auto out = dd->Execute(stmt);
      ASSERT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
    }
  }

  std::string dir_;
};

// ------------------------------------------------------ store-layer COW

// A fork is a frozen copy: mutations on the master after the fork are
// invisible to it, byte for byte.
TEST(DatabaseForkTest, MasterMutationsInvisibleToFork) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Age"), Oid::Int(30)).ok());

  std::unique_ptr<Database> fork = db.Fork();
  db.BeginNewEpoch();  // master keeps mutating
  const std::string frozen = SaveSnapshot(*fork);
  EXPECT_EQ(frozen, SaveSnapshot(db));

  // Attribute overwrite, new object, new class, extent change: all four
  // COW granularities (object shard, class node, instance shard, graph).
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Age"), Oid::Int(31)).ok());
  ASSERT_TRUE(db.NewObject(A("john"), {A("Person")}).ok());
  ASSERT_TRUE(db.DeclareClass(A("Robot"), {A("Object")}).ok());
  ASSERT_TRUE(db.AddInstanceOf(A("mary"), A("Robot")).ok());

  EXPECT_EQ(SaveSnapshot(*fork), frozen);
  EXPECT_NE(SaveSnapshot(db), frozen);
  // The fork still answers queries from its frozen state.
  EXPECT_FALSE(fork->IsInstanceOf(A("mary"), A("Robot")));
  EXPECT_EQ(fork->GetObject(A("john")), nullptr);
  EXPECT_EQ(fork->Extent(A("Person")).size(), 1u);
}

// And the other direction: a private fork (EXPLAIN ANALYZE, stale-view
// scratch) can be mutated freely without the master noticing.
TEST(DatabaseForkTest, ForkMutationsInvisibleToMaster) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  const std::string before = SaveSnapshot(db);

  std::unique_ptr<Database> fork = db.Fork();
  ASSERT_TRUE(fork->SetScalar(A("mary"), A("Age"), Oid::Int(99)).ok());
  ASSERT_TRUE(fork->NewObject(A("ghost"), {A("Person")}).ok());
  ASSERT_TRUE(fork->RemoveInstanceOf(A("mary"), A("Person")).ok());

  EXPECT_EQ(SaveSnapshot(db), before);
  EXPECT_EQ(db.GetObject(A("ghost")), nullptr);
  EXPECT_TRUE(db.IsInstanceOf(A("mary"), A("Person")));
}

// Forks of forks: each layer isolates from the ones above and below.
TEST(DatabaseForkTest, ChainedForksStayIndependent) {
  Database db;
  ASSERT_TRUE(db.DeclareClass(A("Person"), {A("Object")}).ok());
  ASSERT_TRUE(db.NewObject(A("o1"), {A("Person")}).ok());
  std::unique_ptr<Database> f1 = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.NewObject(A("o2"), {A("Person")}).ok());
  std::unique_ptr<Database> f2 = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.NewObject(A("o3"), {A("Person")}).ok());

  EXPECT_EQ(f1->Extent(A("Person")).size(), 1u);
  EXPECT_EQ(f2->Extent(A("Person")).size(), 2u);
  EXPECT_EQ(db.Extent(A("Person")).size(), 3u);
}

// A failing write restores the master in place (a Database savepoint)
// without disturbing a version published before it: the published fork
// stays byte-identical through the restore and through the next
// successful write, which must clone every piece the fork shares rather
// than write it in place. version() moves past every value the failed
// statement exposed, so nothing stamped during it can match again.
TEST(DatabaseSavepointTest, RestoreKeepsPublishedForkAndMovesVersionOn) {
  Database db;
  Session session(&db);
  for (const std::string& stmt : Prelude()) {
    ASSERT_TRUE(session.Execute(stmt).ok()) << stmt;
  }
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  // A probe method that records the version it runs at, then fails the
  // statement evaluating it.
  std::vector<uint64_t> seen;
  ASSERT_TRUE(db.DefineMethod(
                    A("Person"), A("Probe"), 0,
                    std::make_shared<NativeMethodBody>(
                        0, /*set_valued=*/false,
                        [&seen](Database& d, const Oid&,
                                const std::vector<Oid>&) -> Result<OidSet> {
                          seen.push_back(d.version());
                          return Status::RuntimeError("probe failed");
                        }))
                  .ok());

  std::unique_ptr<Database> published = db.Fork();
  db.BeginNewEpoch();
  const std::string frozen = SaveSnapshot(*published);
  ASSERT_EQ(SaveSnapshot(db), frozen);
  const uint64_t version_before = db.version();

  // One failing statement and one failing atomic script that adds a
  // class, an instance and an object first: object shards, class nodes
  // and instance shards are all written before the failure.
  auto failed = session.Execute(
      "SELECT X FROM Person X WHERE "
      "(UPDATE CLASS Person SET X.Salary = 200) and X.Probe");
  ASSERT_FALSE(failed.ok());
  auto failed_script = session.ExecuteScript(
      "ALTER CLASS Robot ADD SIGNATURE Serial => Numeral;"
      "UPDATE CLASS Robot SET r2d2.Serial = 2;"
      "SELECT X FROM Person X WHERE "
      "(UPDATE CLASS Person SET X.Salary = 300) and X.Probe",
      /*atomic=*/true);
  ASSERT_FALSE(failed_script.ok());
  ASSERT_EQ(seen.size(), 2u);
  for (uint64_t v : seen) {
    EXPECT_GT(v, version_before) << "the probe must run after a write";
    EXPECT_GT(db.version(), v);
  }
  EXPECT_EQ(SaveSnapshot(db), frozen);
  EXPECT_EQ(SaveSnapshot(*published), frozen);
  EXPECT_FALSE(db.graph().IsClass(A("Robot")));

  // A failed read wrote nothing, so it restores nothing and keeps every
  // cache stamped with the current version valid.
  const uint64_t version_after_restore = db.version();
  ASSERT_FALSE(session.Execute("SELECT X FROM Person X WHERE X.Probe").ok());
  EXPECT_EQ(db.version(), version_after_restore);

  ASSERT_TRUE(session.Execute("UPDATE CLASS Person SET mary.Salary = 400")
                  .ok());
  ASSERT_TRUE(session.Execute("ALTER CLASS Robot ADD SIGNATURE Serial => "
                              "Numeral")
                  .ok());
  EXPECT_EQ(SaveSnapshot(*published), frozen);
  EXPECT_NE(SaveSnapshot(db), frozen);
  EXPECT_FALSE(published->graph().IsClass(A("Robot")));
}

// A savepoint copies nothing until the first write after it and keeps
// copies of the objects a statement changes rather than sharing the
// object shards, so writing an object under it clones no shard, and a
// dropped savepoint leaves nothing shared: neither a committed write
// statement nor a read makes the next write outside a statement clone
// anything. A restore brings back the captured state, nested or not.
TEST(DatabaseSavepointTest, SavepointsCopyChangedObjectsAndLeaveNothingShared) {
  obs::Counter& clones =
      obs::MetricsRegistry::Global().GetCounter("xsql.mvcc.cow_clones");
  Database db;
  Session session(&db);
  for (const std::string& stmt : Prelude()) {
    ASSERT_TRUE(session.Execute(stmt).ok()) << stmt;
  }
  ASSERT_TRUE(db.NewObject(A("mary"), {A("Person")}).ok());
  // Own every shard and node first: the writes below then clone nothing
  // unless a savepoint still shares something.
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(1)).ok());

  const uint64_t before = clones.value();
  ASSERT_TRUE(session.Execute("UPDATE CLASS Person SET mary.Salary = 2")
                  .ok());
  EXPECT_EQ(clones.value(), before);
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(3)).ok());
  EXPECT_EQ(clones.value(), before);

  const uint64_t version = db.version();
  auto read = session.Query("SELECT X FROM Person X WHERE X.Salary = 3");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->size(), 1u);
  EXPECT_EQ(db.version(), version);
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(4)).ok());
  EXPECT_EQ(clones.value(), before);

  const std::string frozen = SaveSnapshot(db);
  {
    Database::Savepoint outer = db.TakeSavepoint();
    Database::Savepoint inner = db.TakeSavepoint();
    ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(5)).ok());
    ASSERT_TRUE(db.SetScalar(A("mary"), A("Name"), Oid::String("m")).ok());
    EXPECT_EQ(clones.value(), before);
    inner.Restore();
    EXPECT_EQ(SaveSnapshot(db), frozen);
    // The instance-of map and the class node do clone: the outer
    // savepoint still shares them.
    ASSERT_TRUE(db.NewObject(A("bob"), {A("Person")}).ok());
    ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(6)).ok());
    EXPECT_GT(clones.value(), before);
    outer.Restore();
  }
  EXPECT_EQ(SaveSnapshot(db), frozen);
  EXPECT_FALSE(db.HasObject(A("bob")));
  const uint64_t settled = clones.value();
  ASSERT_TRUE(db.SetScalar(A("mary"), A("Salary"), Oid::Int(7)).ok());
  ASSERT_TRUE(db.RemoveInstanceOf(A("mary"), A("Person")).ok());
  EXPECT_EQ(clones.value(), settled);
}

// ------------------------------------------------- snapshot isolation

// The snapshot-isolation stress test. Four writers commit through the
// manager: writer 0 bumps a contended scalar through a strictly
// increasing sequence; writers 1..3 each create a private run of
// sequentially numbered objects, waiting for each ack before issuing
// the next. Four latch-free readers hammer the extent and the scalar
// concurrently and assert, on every single read:
//   (a) the scalar is one committed value — never absent, torn, or
//       outside the issued sequence, and never going backwards between
//       two reads on the same connection (versions install in WAL
//       order);
//   (b) each writer's objects form a CONTIGUOUS PREFIX of its run — an
//       object can never be visible before its predecessor from the
//       same writer, because every version is a committed prefix of the
//       WAL;
//   (c) per-writer visibility never regresses between reads.
// Afterwards, serial replay of the WAL (recovery) must land on the
// exact live state — MVCC must not have weakened serializability.
TEST_F(MvccTest, SnapshotIsolationStress) {
  constexpr int kWriters = 4;
  constexpr int kReaders = 4;
  constexpr int kCommitsPerWriter = 25;
  constexpr int kReadsPerReader = 120;
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());

  std::atomic<bool> writers_done{false};
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;

  for (int w = 0; w < kWriters; ++w) {
    threads.emplace_back([&, w] {
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kCommitsPerWriter; ++i) {
        std::string stmt =
            w == 0 ? "UPDATE CLASS Person SET mary.Salary = " +
                         std::to_string(1000 + i)
                   : "UPDATE CLASS Person SET w" + std::to_string(w) + "_" +
                         std::to_string(i) + ".Salary = " +
                         std::to_string(i);
        if (!cm.Execute(*sid, stmt).ok()) failures.fetch_add(1);
      }
      cm.CloseSession(*sid);
    });
  }

  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      (void)r;
      auto sid = cm.CreateSession(SessionOptions{});
      if (!sid.ok()) {
        failures.fetch_add(1);
        return;
      }
      int64_t last_salary = -1;
      int last_prefix[kWriters] = {0};
      for (int i = 0; i < kReadsPerReader; ++i) {
        // (a) the contended scalar: exactly one committed value, from
        // the issued set, monotone on this connection.
        auto salary = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
        if (!salary.ok() || salary->relation.size() != 1 ||
            !salary->relation.rows()[0][0].is_numeric()) {
          failures.fetch_add(1);
          break;
        }
        const int64_t v = salary->relation.rows()[0][0].numeric_value();
        const bool issued =
            v == 100 || (v >= 1000 && v < 1000 + kCommitsPerWriter);
        if (!issued || v < last_salary) {
          failures.fetch_add(1);
          break;
        }
        last_salary = v;
        // (b) + (c) the extent: per-writer contiguous prefixes that
        // never shrink.
        auto extent = cm.Execute(*sid, "SELECT X FROM Person X");
        if (!extent.ok()) {
          failures.fetch_add(1);
          break;
        }
        std::set<std::string> names;
        for (const auto& row : extent->relation.rows()) {
          names.insert(row[0].ToString());
        }
        for (int w = 1; w < kWriters; ++w) {
          int count = 0;
          while (names.contains("w" + std::to_string(w) + "_" +
                                std::to_string(count))) {
            ++count;
          }
          // Contiguity: nothing from this writer beyond the first gap.
          for (int k = count + 1; k < kCommitsPerWriter; ++k) {
            if (names.contains("w" + std::to_string(w) + "_" +
                               std::to_string(k))) {
              failures.fetch_add(1);
            }
          }
          if (count < last_prefix[w]) failures.fetch_add(1);  // regressed
          last_prefix[w] = count;
        }
        if (writers_done.load() &&
            i + 20 < kReadsPerReader) {  // writers gone: a few more
          i = kReadsPerReader - 20;      // passes, then stop early
        }
      }
      cm.CloseSession(*sid);
    });
  }

  for (int t = 0; t < kWriters; ++t) threads[t].join();
  writers_done.store(true);
  for (size_t t = kWriters; t < threads.size(); ++t) threads[t].join();
  ASSERT_EQ(failures.load(), 0);

  // Serial replay of the WAL lands on the live state, byte for byte.
  auto reopened = MustOpen(dir_);
  ASSERT_NE(reopened, nullptr);
  EXPECT_EQ(SaveSnapshot(reopened->db()), SaveSnapshot(dd->db()));
  // And the final head snapshot IS that state.
  auto head = cm.PinSnapshot();
  ASSERT_NE(head, nullptr);
  EXPECT_EQ(SaveSnapshot(*head->db), SaveSnapshot(dd->db()));
}

// Read-your-own-writes: a commit is visible to the very next read on
// the same connection (install happens before the acknowledgement).
TEST_F(MvccTest, ReadYourOwnWrites) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());
  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());
  for (int i = 0; i < 20; ++i) {
    ASSERT_TRUE(cm.Execute(*sid, "UPDATE CLASS Person SET mary.Salary = " +
                                     std::to_string(500 + i))
                    .ok());
    auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
    ASSERT_TRUE(read.ok()) << read.status().ToString();
    ASSERT_EQ(read->relation.size(), 1u);
    EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 500 + i);
  }
}

// ------------------------------------------------------- version GC

// Superseded versions are freed at the last pin release: a pinned
// snapshot keeps exactly its own version alive through arbitrary writer
// churn (bounded memory), frees it on release, and the chain never
// grows beyond pinned + head + the one in flight.
TEST_F(MvccTest, SupersededVersionsFreedAtLastPinRelease) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  MustExecute(dd.get(), Prelude());
  ConcurrencyManager cm(dd.get());
  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());

  std::shared_ptr<const storage::DatabaseVersion> pin = cm.PinSnapshot();
  ASSERT_NE(pin, nullptr);
  std::weak_ptr<const storage::DatabaseVersion> watch = pin;
  const std::string pinned_state = SaveSnapshot(*pin->db);
  const int64_t base = VersionChain::live_versions();

  // A long reader holds its snapshot while a writer churns 100 commits.
  for (int i = 0; i < 100; ++i) {
    ASSERT_TRUE(cm.Execute(*sid, "UPDATE CLASS Person SET mary.Salary = " +
                                     std::to_string(i))
                    .ok());
    // Bounded: the pinned version + the current head (+ nothing else
    // once the commit returned). Intermediate versions died as they
    // were superseded, regardless of how long we keep reading.
    EXPECT_LE(VersionChain::live_versions(), base + 1)
        << "version chain grew without bound at commit " << i;
    // The pinned snapshot still reads its original state.
    if (i % 25 == 0) EXPECT_EQ(SaveSnapshot(*pin->db), pinned_state);
  }

  // Release the last pin: the superseded version is freed on the spot.
  pin.reset();
  EXPECT_TRUE(watch.expired());
  EXPECT_EQ(VersionChain::live_versions(), base);

  // The head, of course, survived and serves the newest state.
  auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 99);
}

// ---------------------------------------------- crash through install

// Sweep a simulated kill through every byte of a commit's WAL append,
// driven through the manager. Whatever byte the crash lands on, the
// read head must still be the last durable version — a reader can never
// observe state that did not survive the crash. Recovery then exposes
// the committed prefix: the full statement iff every byte reached disk.
TEST_F(MvccTest, CrashSweepNeverAdvancesReadHead) {
  FaultInjector& fi = FaultInjector::Global();
  const std::string stmt = "UPDATE CLASS Person SET mary.Salary = 777";
  const uint64_t units = Wal::kRecordHeader + stmt.size();

  // Clean probe run: learn the pre- and post-statement snapshots.
  std::string pre, post;
  {
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    pre = SaveSnapshot(dd->db());
    ASSERT_TRUE(dd->Execute(stmt).ok());
    post = SaveSnapshot(dd->db());
  }
  ASSERT_NE(pre, post);

  for (uint64_t k = 1; k <= units; ++k) {
    SCOPED_TRACE("crash at byte " + std::to_string(k) + " of " +
                 std::to_string(units));
    std::filesystem::remove_all(dir_);
    auto dd = MustOpen(dir_);
    ASSERT_NE(dd, nullptr);
    MustExecute(dd.get(), Prelude());
    ConcurrencyManager cm(dd.get());
    auto sid = cm.CreateSession(SessionOptions{});
    ASSERT_TRUE(sid.ok());

    fi.ArmCrashAtByte(k);
    auto out = cm.Execute(*sid, stmt);
    EXPECT_FALSE(out.ok());
    EXPECT_TRUE(dd->wedged());
    fi.Disarm();

    // The head never moved: even when every byte reached disk, the
    // commit was not acknowledged, so no reader ever saw it.
    auto head = cm.PinSnapshot();
    ASSERT_NE(head, nullptr);
    EXPECT_EQ(SaveSnapshot(*head->db), pre);
    // A wedged instance refuses reads outright (final error).
    EXPECT_FALSE(cm.Execute(*sid, "SELECT X FROM Person X").ok());

    // Recovery exposes whole statements only.
    auto re = DurableDatabase::Open(dir_);
    ASSERT_TRUE(re.ok()) << re.status().ToString();
    EXPECT_EQ(SaveSnapshot((*re)->db()), k < units ? pre : post);
  }
}

// The replica apply path installs versions too: reads on a replica see
// applied batches atomically.
TEST_F(MvccTest, ApplyReplicatedInstallsNewHead) {
  auto dd = MustOpen(dir_);
  ASSERT_NE(dd, nullptr);
  ConcurrencyManager cm(dd.get());
  const uint64_t seq_before = cm.PinSnapshot()->sequence;
  std::vector<std::string> records = Prelude();
  auto n = cm.ApplyReplicated(records);
  ASSERT_TRUE(n.ok()) << n.status().ToString();
  EXPECT_EQ(*n, records.size());
  auto head = cm.PinSnapshot();
  EXPECT_GT(head->sequence, seq_before);
  EXPECT_EQ(SaveSnapshot(*head->db), SaveSnapshot(dd->db()));

  auto sid = cm.CreateSession(SessionOptions{});
  ASSERT_TRUE(sid.ok());
  auto read = cm.Execute(*sid, "SELECT T WHERE mary.Salary[T]");
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->relation.rows()[0][0].numeric_value(), 100);
}

}  // namespace
}  // namespace server
}  // namespace xsql
