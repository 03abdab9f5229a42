// The active domain (§2: every oid occurring in the database) kept as
// occurrence counts by every Database mutator. Each test compares
// ActiveDomain() and InActiveDomain() against a full rebuild from the
// objects and classes — the way the domain was computed before it was
// counted — after mutators that succeed and fail, savepoint restores,
// forks written on both sides, and snapshot load plus WAL replay.
#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "eval/session.h"
#include "obs/metrics.h"
#include "storage/recovery.h"
#include "store/database.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

/// The oracle: the domain rebuilt from scratch.
OidSet RebuiltDomain(const Database& db) {
  std::vector<Oid> elems;
  db.ForEachObject([&](const Oid& oid, const Object& object) {
    elems.push_back(oid);
    for (const auto& [attr, value] : object.attrs()) {
      elems.push_back(attr);
      for (const Oid& v : value.AsSet()) elems.push_back(v);
    }
  });
  for (const Oid& cls : db.graph().classes()) elems.push_back(cls);
  return OidSet(std::move(elems));
}

void ExpectDomainIsRebuilt(const Database& db, const std::string& where) {
  const OidSet want = RebuiltDomain(db);
  EXPECT_EQ(db.ActiveDomain().ToString(), want.ToString()) << where;
  for (const Oid& oid : want) {
    ASSERT_TRUE(db.InActiveDomain(oid)) << where << ": " << oid.ToString();
  }
  for (const Oid& absent :
       {A("never_seen_anywhere"), Oid::Int(-987654321), Oid::String("?!")}) {
    EXPECT_FALSE(db.InActiveDomain(absent)) << where;
  }
}

void BuildSmallDb(Database* db, uint64_t seed) {
  ASSERT_TRUE(workload::BuildFig1Schema(db).ok());
  workload::WorkloadParams params;
  params.seed = seed;
  params.companies = 1;
  params.divisions_per_company = 2;
  params.employees_per_division = 3;
  params.extra_persons = 3;
  params.automobiles = 3;
  params.max_family = 2;
  ASSERT_TRUE(workload::GenerateFig1Data(db, params).ok());
}

uint64_t Builds() {
  return obs::MetricsRegistry::Global()
      .GetCounter("xsql.store.active_domain_builds")
      .value();
}

TEST(ActiveDomainTest, EveryMutatorMatchesTheRebuild) {
  Database db;
  BuildSmallDb(&db, 1);
  ExpectDomainIsRebuilt(db, "generated");
  const std::vector<std::pair<std::string, std::function<Status()>>> steps = {
      {"new object", [&] { return db.NewObject(A("d1"), {A("Person")}); }},
      {"scalar", [&] { return db.SetScalar(A("d1"), A("Age"), Oid::Int(7)); }},
      {"scalar overwrite",
       [&] { return db.SetScalar(A("d1"), A("Age"), Oid::Int(8)); }},
      {"scalar same value",
       [&] { return db.SetScalar(A("d1"), A("Age"), Oid::Int(8)); }},
      {"scalar on a new object",
       [&] { return db.SetScalar(A("d2"), A("Nick"), Oid::String("x")); }},
      {"scalar overwritten by an atom",
       [&] { return db.SetScalar(A("d2"), A("Nick"), A("d1")); }},
      {"set", [&] {
         return db.SetSet(A("d1"), A("Pets"),
                          OidSet({A("p1"), A("p2"), Oid::Int(8)}));
       }},
      {"set overwrite", [&] {
         return db.SetSet(A("d1"), A("Pets"), OidSet({A("p2"), A("p3")}));
       }},
      {"set replaced by a scalar",
       [&] { return db.SetScalar(A("d1"), A("Pets"), A("p2")); }},
      {"add to a new set",
       [&] { return db.AddToSet(A("d1"), A("Toys"), A("t1")); }},
      {"add to a set", [&] { return db.AddToSet(A("d1"), A("Toys"), A("t2")); }},
      {"add a member again",
       [&] { return db.AddToSet(A("d1"), A("Toys"), A("t2")); }},
      {"add to a scalar (fails)",
       [&] { return db.AddToSet(A("d1"), A("Age"), A("t9")); }},
      {"clear", [&] { return db.ClearAttribute(A("d1"), A("Toys")); }},
      {"clear an absent attribute",
       [&] { return db.ClearAttribute(A("d1"), A("Toys")); }},
      {"clear on an absent object (fails)",
       [&] { return db.ClearAttribute(A("nobody"), A("Age")); }},
      {"non-atom attribute (fails)",
       [&] { return db.SetScalar(A("d1"), Oid::Int(3), A("v")); }},
      {"unknown class (fails after creating the object)",
       [&] { return db.NewObject(A("d3"), {A("NoSuchClass")}); }},
      {"instance-of", [&] { return db.AddInstanceOf(A("d4"), A("Employee")); }},
      {"instance-of an unknown class (fails)",
       [&] { return db.AddInstanceOf(A("d5"), A("NoSuchClass")); }},
      {"remove instance-of",
       [&] { return db.RemoveInstanceOf(A("d4"), A("Employee")); }},
      {"class", [&] { return db.DeclareClass(A("Pet"), {A("Person")}); }},
      {"non-atom class (fails)",
       [&] { return db.DeclareClass(Oid::String("Pet")); }},
      {"subclass of a new class",
       [&] { return db.AddSubclass(A("Kitten"), A("Cat")); }},
      {"cyclic subclass (fails)",
       [&] { return db.AddSubclass(A("Cat"), A("Kitten")); }},
      {"signature", [&] {
         return db.DeclareAttribute(A("Pet"), A("Owner"), A("Person"), false);
       }},
      {"signature on a new class", [&] {
         return db.DeclareAttribute(A("Fish"), A("Fins"), A("Numeral"), false);
       }},
      {"class-object default",
       [&] { return db.SetScalar(A("Pet"), A("Legs"), Oid::Int(4)); }},
      {"term value", [&] {
         return db.SetScalar(A("d1"), A("Boss"),
                             Oid::Term("secretary", {A("dept77")}));
       }},
      {"term value replaced",
       [&] { return db.SetScalar(A("d1"), A("Boss"), Oid::Real(-0.0)); }},
  };
  for (const auto& [what, step] : steps) {
    (void)step();
    ExpectDomainIsRebuilt(db, what);
  }
}

TEST(ActiveDomainTest, FaultInjectedMutatorsMatchTheRebuild) {
  FaultInjector& fi = FaultInjector::Global();
  Database db;
  BuildSmallDb(&db, 2);
  Session session(&db);
  const std::vector<std::string> script = {
      "UPDATE CLASS Person SET mary123.Name = 'mary', "
      "mary123.Age = 31, mary123.Hobby = chess",
      "ALTER CLASS Person ADD SIGNATURE Hobby => String",
  };
  for (const std::string& stmt : script) {
    for (uint64_t n = 1; n < 100; ++n) {
      fi.ArmNth(FaultInjector::Domain::kMutation, n);
      auto out = session.Execute(stmt);
      const bool fired = fi.fired();
      fi.Disarm();
      ExpectDomainIsRebuilt(db, stmt + " fault " + std::to_string(n));
      if (!fired) {
        EXPECT_TRUE(out.ok()) << out.status().ToString();
        break;
      }
    }
  }
  // Straight mutator calls, with no statement savepoint to restore them:
  // a fault part-way leaves the partial change, counted.
  for (uint64_t n = 1; n <= 3; ++n) {
    fi.ArmNth(FaultInjector::Domain::kMutation, n);
    (void)db.NewObject(Oid::Atom("f" + std::to_string(n)),
                       {A("Person"), A("Employee")});
    fi.Disarm();
    ExpectDomainIsRebuilt(db, "NewObject fault " + std::to_string(n));
  }
}

TEST(ActiveDomainTest, NestedSavepointRestoresMatchTheRebuild) {
  Database db;
  BuildSmallDb(&db, 3);
  const std::string before = db.ActiveDomain().ToString();
  {
    Database::Savepoint outer = db.TakeSavepoint();
    ASSERT_TRUE(db.SetScalar(A("s1"), A("Age"), Oid::Int(55)).ok());
    const std::string middle = db.ActiveDomain().ToString();
    {
      Database::Savepoint inner = db.TakeSavepoint();
      ASSERT_TRUE(db.SetScalar(A("s1"), A("Age"), Oid::Int(56)).ok());
      ASSERT_TRUE(db.DeclareClass(A("Tmp")).ok());
      ASSERT_TRUE(db.AddToSet(A("s2"), A("Likes"), A("s1")).ok());
      ExpectDomainIsRebuilt(db, "inside inner");
      inner.Restore();
    }
    ExpectDomainIsRebuilt(db, "inner restored");
    EXPECT_EQ(db.ActiveDomain().ToString(), middle);
    {
      Database::Savepoint kept = db.TakeSavepoint();
      ASSERT_TRUE(db.ClearAttribute(A("s1"), A("Age")).ok());
    }
    ExpectDomainIsRebuilt(db, "inner kept");
    outer.Restore();
  }
  ExpectDomainIsRebuilt(db, "outer restored");
  EXPECT_EQ(db.ActiveDomain().ToString(), before);
}

TEST(ActiveDomainTest, ForkThenWriteOnBothSides) {
  Database db;
  BuildSmallDb(&db, 4);
  std::unique_ptr<Database> fork = db.Fork();
  db.BeginNewEpoch();
  const std::string shared = fork->ActiveDomain().ToString();
  ASSERT_TRUE(db.SetScalar(A("m1"), A("Age"), Oid::Int(1001)).ok());
  ASSERT_TRUE(db.DeclareClass(A("MasterOnly")).ok());
  ASSERT_TRUE(fork->SetScalar(A("f1"), A("Age"), Oid::Int(2002)).ok());
  ASSERT_TRUE(fork->AddToSet(A("f1"), A("Likes"), A("m1")).ok());
  ExpectDomainIsRebuilt(db, "master");
  ExpectDomainIsRebuilt(*fork, "fork");
  EXPECT_FALSE(db.InActiveDomain(A("f1")));
  EXPECT_FALSE(db.InActiveDomain(Oid::Int(2002)));
  EXPECT_FALSE(fork->InActiveDomain(A("MasterOnly")));
  EXPECT_FALSE(fork->InActiveDomain(Oid::Int(1001)));
  // The fork's write to m1's count did not reach the master, and a
  // snapshot of the fork still sees what it saw.
  std::unique_ptr<Database> snapshot = fork->Fork();
  fork->BeginNewEpoch();
  ASSERT_TRUE(fork->ClearAttribute(A("f1"), A("Likes")).ok());
  EXPECT_TRUE(snapshot->InActiveDomain(A("m1")));
  ExpectDomainIsRebuilt(*snapshot, "snapshot of the fork");
  ExpectDomainIsRebuilt(*fork, "fork after clear");
  EXPECT_NE(shared, db.ActiveDomain().ToString());
}

TEST(ActiveDomainTest, SnapshotLoadAndWalReplayMatchTheRebuild) {
  const std::string dir = ::testing::TempDir() + "/xsql_durable_domain";
  std::filesystem::remove_all(dir);
  std::string live;
  {
    auto dd = storage::DurableDatabase::Open(dir);
    ASSERT_TRUE(dd.ok()) << dd.status().ToString();
    BuildSmallDb(&(*dd)->db(), 5);
    ASSERT_TRUE((*dd)->Checkpoint().ok());
    for (const char* stmt :
         {"UPDATE CLASS Person SET mary123.Age = 44",
          "UPDATE CLASS Person SET mary123.Hobby = chess",
          "ALTER CLASS Person ADD SIGNATURE Hobby => String",
          "UPDATE CLASS Person SET mary123.Hobby = 'go'"}) {
      ASSERT_TRUE((*dd)->Execute(stmt).ok()) << stmt;
    }
    live = (*dd)->db().ActiveDomain().ToString();
  }
  auto dd = storage::DurableDatabase::Open(dir);
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  EXPECT_GT((*dd)->replayed_statements(), 0u);
  ExpectDomainIsRebuilt((*dd)->db(), "recovered");
  EXPECT_EQ((*dd)->db().ActiveDomain().ToString(), live);
  dd->reset();
  std::filesystem::remove_all(dir);
}

TEST(ActiveDomainTest, RandomSequencesMatchTheRebuild) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    SCOPED_TRACE("seed " + std::to_string(seed));
    Database db;
    BuildSmallDb(&db, seed);
    Rng rng(seed);
    std::vector<Oid> objects;
    db.ForEachObject([&](const Oid& oid, const Object&) {
      objects.push_back(oid);
    });
    std::sort(objects.begin(), objects.end());
    for (int i = 0; i < 4; ++i) objects.push_back(Oid::Atom("r" + std::to_string(i)));
    const std::vector<Oid> attrs = {A("Age"), A("Name"), A("Likes"),
                                    A("Salary")};
    auto pick = [&](const std::vector<Oid>& from) {
      return from[rng.Range(0, static_cast<int64_t>(from.size()) - 1)];
    };
    auto value = [&]() -> Oid {
      switch (rng.Range(0, 2)) {
        case 0:
          return Oid::Int(rng.Range(0, 6));
        case 1:
          return Oid::String("v" + std::to_string(rng.Range(0, 4)));
        default:
          return pick(objects);
      }
    };
    auto mutate = [&](Database* target) {
      const Oid obj = pick(objects);
      const Oid attr = pick(attrs);
      switch (rng.Range(0, 5)) {
        case 0:
        case 1:
          (void)target->SetScalar(obj, attr, value());
          break;
        case 2:
          (void)target->AddToSet(obj, attr, value());
          break;
        case 3:
          (void)target->SetSet(obj, attr, OidSet({value(), value()}));
          break;
        case 4:
          (void)target->ClearAttribute(obj, attr);
          break;
        default:
          (void)target->NewObject(obj, {A("Person")});
          break;
      }
    };
    std::unique_ptr<Database> fork;
    for (int step = 0; step < 150; ++step) {
      switch (rng.Range(0, 5)) {
        case 0: {
          Database::Savepoint savepoint = db.TakeSavepoint();
          mutate(&db);
          mutate(&db);
          if (rng.Range(0, 1)) savepoint.Restore();
          break;
        }
        case 1:
          fork = db.Fork();
          db.BeginNewEpoch();
          mutate(fork.get());
          ExpectDomainIsRebuilt(*fork, "fork step " + std::to_string(step));
          break;
        default:
          mutate(&db);
          break;
      }
      ExpectDomainIsRebuilt(db, "step " + std::to_string(step));
    }
  }
}

TEST(ActiveDomainTest, ViewIsBuiltOnlyWhenTheDomainChanged) {
  Database db;
  BuildSmallDb(&db, 6);
  ASSERT_TRUE(db.SetScalar(A("v1"), A("Age"), Oid::Int(70)).ok());
  ASSERT_TRUE(db.SetScalar(A("v2"), A("Age"), Oid::Int(70)).ok());
  ASSERT_TRUE(db.SetScalar(A("v3"), A("Age"), Oid::Int(71)).ok());
  auto first = db.ActiveDomainShared();
  const uint64_t builds = Builds();
  EXPECT_EQ(db.ActiveDomainShared().get(), first.get());
  // 71 is held by v3 and 70 stays with v2: no membership changed.
  ASSERT_TRUE(db.SetScalar(A("v1"), A("Age"), Oid::Int(71)).ok());
  EXPECT_EQ(db.ActiveDomainShared().get(), first.get());
  EXPECT_EQ(Builds(), builds);
  // 72 enters and 70 leaves: the next use rebuilds, once.
  ASSERT_TRUE(db.SetScalar(A("v2"), A("Age"), Oid::Int(72)).ok());
  auto second = db.ActiveDomainShared();
  EXPECT_NE(second.get(), first.get());
  EXPECT_EQ(db.ActiveDomainShared().get(), second.get());
  EXPECT_EQ(Builds(), builds + 1);
  EXPECT_FALSE(second->Contains(Oid::Int(70)));
}

TEST(ActiveDomainTest, ConcurrentReadersOfASnapshotShareOneLazyView) {
  Database db;
  BuildSmallDb(&db, 7);
  ASSERT_TRUE(db.SetScalar(A("c1"), A("Age"), Oid::Int(12345)).ok());
  std::unique_ptr<Database> snapshot = db.Fork();
  db.BeginNewEpoch();
  ASSERT_TRUE(db.SetScalar(A("c1"), A("Age"), Oid::Int(54321)).ok());
  // No view is built yet: eight readers race to build it, and every one
  // must get the same view while the master keeps writing.
  constexpr int kReaders = 8;
  std::vector<std::shared_ptr<const OidSet>> views(kReaders);
  std::vector<int> stable(kReaders, 1);
  std::vector<std::thread> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.emplace_back([r, &views, &stable, &snapshot] {
      views[r] = snapshot->ActiveDomainShared();
      for (int i = 0; i < 50; ++i) {
        (void)snapshot->InActiveDomain(Oid::Int(i));
        if (snapshot->ActiveDomainShared() != views[r]) stable[r] = 0;
      }
    });
  }
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(db.SetScalar(A("c2"), A("Age"), Oid::Int(i)).ok());
  }
  for (std::thread& reader : readers) reader.join();
  EXPECT_EQ(stable, std::vector<int>(kReaders, 1));
  for (const auto& view : views) EXPECT_EQ(view.get(), views[0].get());
  EXPECT_TRUE(views[0]->Contains(Oid::Int(12345)));
  EXPECT_FALSE(views[0]->Contains(Oid::Int(54321)));
  ExpectDomainIsRebuilt(*snapshot, "snapshot");
}

}  // namespace
}  // namespace xsql
