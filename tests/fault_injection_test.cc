// Fault injection and statement-level atomicity. The centerpiece is a
// sweep property test: for a script of DDL/DML statements, arm the
// injector to fail the 1st, 2nd, 3rd, ... mutation check of each
// statement in turn, and prove that after every injected failure the
// database snapshot is byte-identical to the pre-statement snapshot —
// i.e. rollback visited *every* mutation point and missed nothing.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "common/fault.h"
#include "common/rng.h"
#include "eval/session.h"
#include "storage/snapshot.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

using Domain = FaultInjector::Domain;

Oid A(const char* s) { return Oid::Atom(s); }

class FaultInjectionTest : public ::testing::Test {
 protected:
  void SetUp() override {
    FaultInjector::Global().Disarm();
    ASSERT_TRUE(workload::BuildFig1Schema(&db_).ok());
    workload::WorkloadParams params;
    params.companies = 1;
    ASSERT_TRUE(workload::GenerateFig1Data(&db_, params).ok());
    session_ = std::make_unique<Session>(&db_);
  }

  void TearDown() override { FaultInjector::Global().Disarm(); }

  Database db_;
  std::unique_ptr<Session> session_;
};

TEST_F(FaultInjectionTest, InjectorCountsAndFires) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmNth(Domain::kMutation, 2);
  EXPECT_TRUE(fi.armed());
  EXPECT_FALSE(fi.fired());
  EXPECT_TRUE(fi.Check(Domain::kMutation, "one").ok());
  Status st = fi.Check(Domain::kMutation, "two");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("injected fault"), std::string::npos);
  EXPECT_NE(st.message().find("two"), std::string::npos);
  EXPECT_TRUE(fi.fired());
  EXPECT_EQ(fi.fired_site(), "two");
  EXPECT_EQ(fi.checks(Domain::kMutation), 2u);
  fi.Disarm();
  EXPECT_FALSE(fi.armed());
  EXPECT_FALSE(fi.fired());
  EXPECT_EQ(fi.checks(Domain::kMutation), 0u);
}

TEST_F(FaultInjectionTest, DomainsAreIndependent) {
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmNth(Domain::kGuard, 1);
  // Mutation-domain checks sail through a guard-domain schedule.
  EXPECT_TRUE(fi.Check(Domain::kMutation, "m").ok());
  EXPECT_FALSE(fi.Check(Domain::kGuard, "g").ok());
  EXPECT_EQ(fi.checks(Domain::kMutation), 1u);
  EXPECT_EQ(fi.checks(Domain::kGuard), 1u);
}

TEST_F(FaultInjectionTest, RandomScheduleIsDeterministic) {
  FaultInjector& fi = FaultInjector::Global();
  auto run = [&fi](uint64_t seed) {
    fi.ArmRandom(Domain::kMutation, seed, 300);
    std::vector<bool> fired;
    for (int i = 0; i < 64; ++i) {
      fired.push_back(!fi.Check(Domain::kMutation, "s").ok());
    }
    fi.Disarm();
    return fired;
  };
  EXPECT_EQ(run(7), run(7));
  EXPECT_NE(run(7), run(8));
}

// ---- Per-mutator savepoints: mutate, restore, compare snapshots -------

class SavepointUnitTest : public FaultInjectionTest {
 protected:
  // Runs `mutate` after taking a savepoint, restores it, and asserts the
  // snapshot is byte-identical to before.
  void ExpectRestored(const std::function<Status()>& mutate) {
    std::string before = storage::SaveSnapshot(db_);
    Database::Savepoint savepoint = db_.TakeSavepoint();
    Status st = mutate();
    ASSERT_TRUE(st.ok()) << st.ToString();
    savepoint.Restore();
    EXPECT_EQ(storage::SaveSnapshot(db_), before);
  }
};

TEST_F(SavepointUnitTest, DeclareClassAndSubclass) {
  ExpectRestored([&] { return db_.DeclareClass(A("Spaceship")); });
  ExpectRestored([&] {
    return db_.DeclareClass(A("Hovercraft"), {A("Vehicle"), A("Object")});
  });
  ExpectRestored([&] { return db_.AddSubclass(A("NewSub"), A("NewSuper")); });
  ExpectRestored([&] { return db_.AddSubclass(A("Employee"), A("Vehicle")); });
}

TEST_F(SavepointUnitTest, SignaturesAndAttributes) {
  ExpectRestored([&] {
    Signature sig;
    sig.method = A("Mood");
    sig.result = A("String");
    return db_.DeclareSignature(A("Person"), std::move(sig));
  });
  ExpectRestored([&] {
    return db_.DeclareAttribute(A("Person"), A("Shoe"), A("Numeral"),
                                /*set_valued=*/false);
  });
}

TEST_F(SavepointUnitTest, ObjectsAndValues) {
  ExpectRestored([&] { return db_.NewObject(A("obj9"), {A("Person")}); });
  ExpectRestored([&] { return db_.AddInstanceOf(A("mary123"), A("Employee")); });
  // Overwrite of an existing scalar restores the prior value.
  ExpectRestored(
      [&] { return db_.SetScalar(A("mary123"), A("Age"), Oid::Int(99)); });
  // Fresh attribute on an existing object is removed again.
  ExpectRestored(
      [&] { return db_.SetScalar(A("mary123"), A("Lucky"), Oid::Int(7)); });
  ExpectRestored([&] {
    OidSet values;
    values.Insert(A("mary123"));
    return db_.SetSet(A("_john13"), A("FamMembers"), std::move(values));
  });
  ExpectRestored(
      [&] { return db_.AddToSet(A("_john13"), A("FamMembers"), A("mary123")); });
  ExpectRestored([&] { return db_.ClearAttribute(A("mary123"), A("Age")); });
  ExpectRestored([&] { return db_.RemoveInstanceOf(A("mary123"), A("Person")); });
}

TEST_F(SavepointUnitTest, MethodDefinitionsRestored) {
  // Method bodies are not part of snapshots; check the registry directly.
  auto body = std::make_shared<NativeMethodBody>(
      0, /*set_valued=*/false,
      [](Database&, const Oid&, const std::vector<Oid>&) -> Result<OidSet> {
        return OidSet();
      });
  ASSERT_TRUE(db_.DefineMethod(A("Person"), A("Probe"), 0, body).ok());
  auto prior = db_.methods().Definition(A("Person"), A("Probe"), 0);
  ASSERT_NE(prior, nullptr);

  Database::Savepoint savepoint = db_.TakeSavepoint();
  auto body2 = std::make_shared<NativeMethodBody>(
      0, /*set_valued=*/false,
      [](Database&, const Oid&, const std::vector<Oid>&) -> Result<OidSet> {
        return OidSet();
      });
  ASSERT_TRUE(db_.DefineMethod(A("Person"), A("Probe"), 0, body2).ok());
  ASSERT_TRUE(db_.ResolveMethodConflict(A("Person"), A("Probe"),
                                        A("Object")).ok());
  savepoint.Restore();

  EXPECT_EQ(db_.methods().Definition(A("Person"), A("Probe"), 0), prior);
  EXPECT_FALSE(
      db_.methods().ConflictChoice(A("Person"), A("Probe")).has_value());
}

// ---- The sweep property test -----------------------------------------

// Statements covering every DDL/DML path: signature and method-defining
// ALTER CLASS, scalar and path UPDATEs, CREATE VIEW, and a query that
// materializes the view (mutating the store as a side effect).
std::vector<std::string> SweepStatements() {
  return {
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral",
      "UPDATE CLASS Employee SET _john13.Bonus = 500",
      "ALTER CLASS Company ADD SIGNATURE Motto => String "
      "SELECT (Motto) = N FROM Company X OID X WHERE X.Name[N]",
      "CREATE VIEW CoNames AS SUBCLASS OF Object "
      "SIGNATURE TheName => String "
      "SELECT TheName = X.Name FROM Company X OID FUNCTION OF X",
      // The id-term CoNames(X) implicitly materializes the view, which
      // mutates the store mid-query.
      "SELECT X.Name FROM Company X WHERE CoNames(X).TheName",
      "UPDATE CLASS Division SET div0_0.Function = 'ops'",
      "UPDATE CLASS Address SET mary123.Residence.City = 'boston'",
  };
}

// The sweep itself: for each statement, arm the injector at mutation
// check 1, 2, 3, ... until a run completes without firing. After every
// injected failure the snapshot must be byte-identical to the
// pre-statement snapshot; the first clean run commits and the sweep
// moves to the next statement. Returns the number of injected faults.
size_t SweepEveryMutationPoint(Database* db, Session* session,
                               const std::vector<std::string>& script) {
  FaultInjector& fi = FaultInjector::Global();
  size_t injected_failures = 0;
  for (const std::string& stmt : script) {
    for (uint64_t n = 1;; ++n) {
      EXPECT_LT(n, 500u) << "statement never ran clean: " << stmt;
      if (n >= 500) return injected_failures;
      std::string before = storage::SaveSnapshot(*db);
      fi.ArmNth(Domain::kMutation, n);
      auto out = session->Execute(stmt);
      bool fired = fi.fired();
      std::string site = fi.fired_site();
      fi.Disarm();
      if (!fired) {
        // All mutation points of this statement have been visited; this
        // run completed cleanly and its effects stay.
        EXPECT_TRUE(out.ok()) << stmt << ": " << out.status().ToString();
        break;
      }
      ++injected_failures;
      EXPECT_FALSE(out.ok()) << stmt << " (fault at " << site << ")";
      EXPECT_NE(out.status().message().find("injected fault"),
                std::string::npos)
          << out.status().ToString();
      std::string after = storage::SaveSnapshot(*db);
      EXPECT_EQ(after, before)
          << stmt << ": rollback not byte-identical after fault at " << site
          << " (check #" << n << ")";
      if (after != before) return injected_failures;
    }
  }
  return injected_failures;
}

TEST_F(FaultInjectionTest, EveryMutationPointRollsBackByteIdentical) {
  size_t injected = SweepEveryMutationPoint(&db_, session_.get(),
                                            SweepStatements());
  // The sweep must actually have exercised injection points.
  EXPECT_GT(injected, 10u);
}

// Randomly generated scripts: statement templates instantiated with
// seeded random classes/attributes/values, swept the same way.
std::vector<std::string> GenerateScript(uint64_t seed) {
  Rng rng(seed);
  auto pick = [&rng](const std::vector<std::string>& pool) {
    return pool[rng.Uniform(pool.size())];
  };
  const std::vector<std::string> classes = {"Person", "Employee",
                                            "Company", "Vehicle"};
  std::vector<std::string> script;
  std::string cls = pick(classes);
  std::string attr = "Gen" + std::to_string(rng.Uniform(1000));
  std::string view = "GenView" + std::to_string(rng.Uniform(1000));
  script.push_back("ALTER CLASS " + cls + " ADD SIGNATURE " + attr +
                   " => Numeral");
  script.push_back("UPDATE CLASS Employee SET _john13." + attr + " = " +
                   std::to_string(rng.Range(1, 100000)));
  script.push_back("UPDATE CLASS Person SET mary123." + attr + " = " +
                   std::to_string(rng.Range(1, 100000)));
  script.push_back("ALTER CLASS Company ADD SIGNATURE M" + attr +
                   " => String SELECT (M" + attr +
                   ") = N FROM Company X OID X WHERE X.Name[N]");
  script.push_back("CREATE VIEW " + view +
                   " AS SUBCLASS OF Object SIGNATURE T => String "
                   "SELECT T = X.Name FROM Company X OID FUNCTION OF X");
  script.push_back("SELECT X.Name FROM Company X WHERE " + view +
                   "(X).T");
  script.push_back("UPDATE CLASS Division SET div0_0.Function = '" +
                   pick({"ops", "r&d", "audit"}) + "'");
  return script;
}

TEST_F(FaultInjectionTest, GeneratedScriptsRollBackByteIdentical) {
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Database db;
    ASSERT_TRUE(workload::BuildFig1Schema(&db).ok());
    workload::WorkloadParams params;
    params.seed = seed;
    params.companies = 1;
    ASSERT_TRUE(workload::GenerateFig1Data(&db, params).ok());
    Session session(&db);
    size_t injected =
        SweepEveryMutationPoint(&db, &session, GenerateScript(seed));
    EXPECT_GT(injected, 10u) << "seed " << seed;
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST_F(FaultInjectionTest, RandomFaultsNeverLeavePartialState) {
  FaultInjector& fi = FaultInjector::Global();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    // Fresh database per seed: the script is not idempotent.
    Database db;
    ASSERT_TRUE(workload::BuildFig1Schema(&db).ok());
    workload::WorkloadParams params;
    params.companies = 1;
    ASSERT_TRUE(workload::GenerateFig1Data(&db, params).ok());
    Session session(&db);
    for (const std::string& stmt : SweepStatements()) {
      std::string before = storage::SaveSnapshot(db);
      fi.ArmRandom(Domain::kMutation, seed, 200);
      auto out = session.Execute(stmt);
      bool fired = fi.fired();
      fi.Disarm();
      if (!out.ok()) {
        ASSERT_TRUE(fired) << stmt << ": " << out.status().ToString();
        EXPECT_EQ(storage::SaveSnapshot(db), before) << stmt;
        // Re-run cleanly so later statements see their prerequisites.
        auto retry = session.Execute(stmt);
        ASSERT_TRUE(retry.ok()) << stmt << ": " << retry.status().ToString();
      }
    }
  }
}

TEST_F(FaultInjectionTest, GuardDomainFaultsFailStatementsCleanly) {
  FaultInjector& fi = FaultInjector::Global();
  std::string before = storage::SaveSnapshot(db_);
  fi.ArmNth(Domain::kGuard, 1);
  auto out = session_->Execute("SELECT X FROM Person X WHERE X.Name");
  bool fired = fi.fired();
  fi.Disarm();
  ASSERT_TRUE(fired);
  ASSERT_FALSE(out.ok());
  EXPECT_NE(out.status().message().find("injected fault"), std::string::npos);
  EXPECT_EQ(storage::SaveSnapshot(db_), before);
}

// ---- Script-level transactions ---------------------------------------

TEST_F(FaultInjectionTest, NonAtomicScriptKeepsPrefix) {
  std::string script =
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral;"
      "UPDATE CLASS Employee SET _john13.Bonus = 500;"
      "THIS IS NOT A STATEMENT";
  auto out = session_->ExecuteScript(script);
  ASSERT_FALSE(out.ok());
  // Default mode: completed statements persist.
  auto bonus = session_->Query("SELECT B WHERE _john13.Bonus[B]");
  ASSERT_TRUE(bonus.ok()) << bonus.status().ToString();
  EXPECT_EQ(bonus->size(), 1u);
}

TEST_F(FaultInjectionTest, AtomicScriptRollsBackWholePrefix) {
  std::string before = storage::SaveSnapshot(db_);
  std::string script =
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral;"
      "UPDATE CLASS Employee SET _john13.Bonus = 500;"
      "THIS IS NOT A STATEMENT";
  auto out = session_->ExecuteScript(script, /*atomic=*/true);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(storage::SaveSnapshot(db_), before);
  // The signature from statement 1 is gone too.
  EXPECT_TRUE(db_.signatures().Declared(A("Employee"), A("Bonus")).empty());
}

TEST_F(FaultInjectionTest, AtomicScriptCommitsOnSuccess) {
  auto out = session_->ExecuteScript(
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral;"
      "UPDATE CLASS Employee SET _john13.Bonus = 500",
      /*atomic=*/true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  auto bonus = session_->Query("SELECT B WHERE _john13.Bonus[B]");
  ASSERT_TRUE(bonus.ok());
  EXPECT_EQ(bonus->size(), 1u);
}

// A failed atomic script withdraws a view it created: the catalog entry
// goes with the view class, so the name is free again.
TEST_F(FaultInjectionTest, AtomicScriptWithdrawsViewDefinition) {
  const std::string before = storage::SaveSnapshot(db_);
  const std::string create =
      "CREATE VIEW Sal AS SUBCLASS OF Object SIGNATURE S => Numeral "
      "SELECT S = W.Salary FROM Employee W OID FUNCTION OF W";
  auto out = session_->ExecuteScript(create + "; THIS IS NOT A STATEMENT",
                                     /*atomic=*/true);
  ASSERT_FALSE(out.ok());
  EXPECT_FALSE(session_->views().IsView("Sal"));
  EXPECT_EQ(storage::SaveSnapshot(db_), before);
  auto again = session_->Execute(create);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  auto rows = session_->Query("SELECT X FROM Sal X");
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_GT(rows->size(), 0u);
}

// EXPLAIN ANALYZE restores its own savepoint even inside an atomic
// script: a committed script keeps its own DDL and none of the objects
// the analyzed OID FUNCTION query minted.
TEST_F(FaultInjectionTest, AtomicScriptDropsExplainAnalyzeScratch) {
  const size_t objects_before = db_.object_count();
  auto out = session_->ExecuteScript(
      "EXPLAIN ANALYZE SELECT S = W.Salary FROM Employee W "
      "OID FUNCTION OF W;"
      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral",
      /*atomic=*/true);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_FALSE(db_.signatures().Declared(A("Employee"), A("Bonus")).empty());
  // The ALTER registers one method-object (Bonus), which owns no object
  // record; nothing else may have been added.
  EXPECT_EQ(db_.object_count(), objects_before);
}

// Savepoints nest: a failing inner statement or script restores only
// its own effects and keeps what the enclosing scope did before it; a
// failing outer scope then removes everything.
TEST_F(FaultInjectionTest, NestedSavepointsRestoreIndependently) {
  const std::string before = storage::SaveSnapshot(db_);
  Session::Savepoint outer = session_->TakeSavepoint();
  ASSERT_TRUE(session_
                  ->ExecuteScript(
                      "ALTER CLASS Employee ADD SIGNATURE Bonus => Numeral;"
                      "UPDATE CLASS Employee SET _john13.Bonus = 500",
                      /*atomic=*/true)
                  .ok());
  const std::string committed = storage::SaveSnapshot(db_);
  ASSERT_NE(committed, before);

  auto inner = session_->ExecuteScript(
      "UPDATE CLASS Employee SET _john13.Bonus = 700;"
      "THIS IS NOT A STATEMENT",
      /*atomic=*/true);
  ASSERT_FALSE(inner.ok());
  EXPECT_EQ(storage::SaveSnapshot(db_), committed);
  FaultInjector& fi = FaultInjector::Global();
  fi.ArmNth(Domain::kMutation, 2);
  auto faulted = session_->Execute(
      "UPDATE CLASS Employee SET _john13.Bonus = 900, _john13.Bonus = 901");
  const bool fired = fi.fired();
  fi.Disarm();
  ASSERT_TRUE(fired);
  ASSERT_FALSE(faulted.ok());
  EXPECT_EQ(storage::SaveSnapshot(db_), committed);

  outer.Restore();
  EXPECT_EQ(storage::SaveSnapshot(db_), before);
  EXPECT_TRUE(db_.signatures().Declared(A("Employee"), A("Bonus")).empty());
}

}  // namespace
}  // namespace xsql
