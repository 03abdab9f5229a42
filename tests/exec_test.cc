// Batch-at-a-time + parallel execution (experiment id B16): the
// differential matrix proving the batched driver and the partitioned
// parallel path are answer-identical to the naive §3.4 reference AND
// to the tuple-at-a-time plan-driven evaluator, across seeds and
// worker counts; guardrail semantics under fan-out (cancellation
// reaches workers, the row budget trips identically serial vs
// parallel); the satellite regressions (shared active-domain snapshot
// instead of a per-probe copy; index-generation staleness in the plan
// cache); the per-evaluator method-dispatch memo against un-memoized
// dispatch; and the server wiring (ConcurrencyManager-owned pool,
// snapshot readers fan out). Runs serially (ctest label: exec) — the
// suite owns its worker pools and reads global metrics deltas.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <limits>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "common/rng.h"
#include "eval/evaluator.h"
#include "eval/parallel.h"
#include "eval/session.h"
#include "obs/metrics.h"
#include "parser/parser.h"
#include "server/concurrency.h"
#include "store/catalog.h"
#include "store/index.h"
#include "typing/planner.h"
#include "typing/type_checker.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace {

Oid A(const char* s) { return Oid::Atom(s); }

std::multiset<std::vector<Oid>> Rows(const Relation& rel) {
  return {rel.rows().begin(), rel.rows().end()};
}

uint64_t CounterValue(const char* name) {
  return obs::MetricsRegistry::Global().GetCounter(name).value();
}

/// Small instance: the naive reference enumerates the full domain, so
/// differential sizing matches planner_test / property_test.
void BuildTinyDb(Database* db, uint64_t seed) {
  ASSERT_TRUE(workload::BuildFig1Schema(db).ok());
  workload::WorkloadParams params;
  params.seed = seed;
  params.companies = 1;
  params.divisions_per_company = 1;
  params.employees_per_division = 2;
  params.extra_persons = 2;
  params.automobiles = 2;
  params.max_family = 2;
  ASSERT_TRUE(workload::GenerateFig1Data(db, params).ok());
}

/// Bigger instance for tests that need real fan-out (no naive run).
void BuildMediumDb(Database* db, uint64_t seed) {
  ASSERT_TRUE(workload::BuildFig1Schema(db).ok());
  workload::WorkloadParams params;
  params.seed = seed;
  params.companies = 4;
  params.divisions_per_company = 2;
  params.employees_per_division = 4;
  params.extra_persons = 8;
  params.automobiles = 8;
  ASSERT_TRUE(workload::GenerateFig1Data(db, params).ok());
}

/// The join templates the batch kernel and the partitioned path must
/// preserve (same shapes the planner differential pins down).
const char* kJoinTemplates[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Name =some Y.Name "
    "and X.Salary > %1",
    "SELECT X, Y FROM Person X, Person Y WHERE "
    "X.Residence.City =some Y.Residence.City",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age =some Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    "SELECT X, Y, Z FROM Employee X, Employee Y, Company Z WHERE "
    "X.Salary =some Y.Salary and Z.Divisions.Employees[X]",
    // Vacuous sides: empty FamMembers (or members without an Age), and
    // Persons without a Salary.
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age =all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age all= Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age all=all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age some=all Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers.Age all=some Y.FamMembers.Age",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Salary",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers setEq Y.FamMembers",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers containsEq Y.FamMembers",
    "SELECT X, Y FROM Employee X, Employee Y WHERE "
    "X.FamMembers subsetEq Y.FamMembers",
};

/// Single-variable corpus templates (most are batch-eligible; the OR
/// template exercises the prefilter *exclusion* — kOr can re-enter the
/// continuation, so it must stay a per-tuple conjunct).
const char* kCorpusTemplates[] = {
    "SELECT C WHERE mary123.Residence.City[C]",
    "SELECT Y FROM Person X WHERE X.Residence[Y]",
    "SELECT X FROM Employee X WHERE X.Salary > %1",
    "SELECT X FROM Employee X WHERE X.FamMembers.Age some> %1",
    "SELECT X, W FROM Company X WHERE X.Divisions.Employees[W]",
    "SELECT X FROM Person X WHERE X.Residence =all X.FamMembers.Residence",
    "SELECT X, Y FROM Company X WHERE X.Name =some "
    "X.Divisions.Employees[Y].Name",
    "SELECT W FROM Company Y WHERE Y.Retirees[W] or Y.President[W]",
    "SELECT X FROM Employee X WHERE not X.Salary > %1",
    "SELECT X FROM Vehicle X WHERE X subclassOf Vehicle or X.Color['red']",
    // Attribute variable (Q5): every dispatch goes through MethodsOn and
    // the memoized Invoke.
    "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']",
};

std::string Instantiate(const char* tmpl, Rng* rng) {
  std::string out = tmpl;
  size_t pos;
  while ((pos = out.find("%1")) != std::string::npos) {
    out.replace(pos, 2, std::to_string(rng->Range(10000, 90000)));
  }
  return out;
}

/// Plans `text` the way the session does (strict witness ranges when
/// one exists) and runs it under `opts` extras.
Result<EvalOutput> RunPlanned(Database* db, const std::string& text,
                              bool exec_batch, WorkerPool* pool,
                              size_t workers,
                              ExecutionContext* ctx = nullptr) {
  auto stmt = ParseAndResolve(text, *db);
  if (!stmt.ok()) return stmt.status();
  const Query& q = *stmt->query->simple;
  TypeChecker checker(*db);
  TypingResult typing = checker.Check(q, TypingMode::kStrict);
  Planner planner(*db, nullptr);
  QueryPlan plan = planner.Plan(
      q, typing.well_typed && typing.in_fragment ? &typing.ranges : nullptr);
  EvalOptions opts;
  opts.plan = &plan;
  if (typing.well_typed && typing.in_fragment) opts.ranges = &typing.ranges;
  opts.exec_batch = exec_batch;
  opts.pool = pool;
  opts.max_workers = workers;
  // Tiny extents must still fan out or the parallel path is untested.
  opts.min_parallel_candidates = 1;
  Evaluator evaluator(db, nullptr, ctx);
  return evaluator.Run(q, opts);
}

/// The differential matrix for one query: naive §3.4 reference ==
/// tuple-at-a-time plan-driven == batched serial == batched parallel
/// at every worker count. A lone join conjunct over two free FROM
/// variables must run as the hash join in every mode.
void ExpectAllModesEqual(Database* db, const std::string& text) {
  auto stmt = ParseAndResolve(text, *db);
  ASSERT_TRUE(stmt.ok()) << text;
  ASSERT_EQ(stmt->kind, Statement::Kind::kQuery);
  const bool hash_join =
      Planner(*db).Plan(*stmt->query->simple).hash_joinable ==
      std::vector<bool>{true};
  uint64_t joins = CounterValue("xsql.plan.hash_joins");
  auto expect_hash_join = [&](const char* mode) {
    const uint64_t now = CounterValue("xsql.plan.hash_joins");
    if (hash_join) {
      EXPECT_GT(now, joins) << mode << ": " << text;
    }
    joins = now;
  };

  Evaluator reference(db);
  auto naive = reference.RunNaive(*stmt->query->simple);
  ASSERT_TRUE(naive.ok()) << text << "\n" << naive.status().ToString();
  const auto expected = Rows(naive->relation);

  auto tuple = RunPlanned(db, text, /*exec_batch=*/false, nullptr, 0);
  ASSERT_TRUE(tuple.ok()) << text << "\n" << tuple.status().ToString();
  EXPECT_EQ(Rows(tuple->relation), expected) << "tuple-at-a-time: " << text;
  expect_hash_join("tuple-at-a-time");

  auto batched = RunPlanned(db, text, /*exec_batch=*/true, nullptr, 0);
  ASSERT_TRUE(batched.ok()) << text << "\n" << batched.status().ToString();
  EXPECT_EQ(Rows(batched->relation), expected) << "batched serial: " << text;
  expect_hash_join("batched serial");

  for (size_t workers : {size_t{2}, size_t{4}}) {
    WorkerPool pool(workers - 1);  // the caller participates
    auto parallel =
        RunPlanned(db, text, /*exec_batch=*/true, &pool, workers);
    ASSERT_TRUE(parallel.ok())
        << text << "\n" << parallel.status().ToString();
    EXPECT_EQ(Rows(parallel->relation), expected)
        << "parallel x" << workers << ": " << text;
    expect_hash_join("parallel");
  }
}

class ExecDifferentialTest : public ::testing::TestWithParam<uint64_t> {};

TEST_P(ExecDifferentialTest, AllModesEqualOnJoins) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 17 + 3);
  for (const char* tmpl : kJoinTemplates) {
    ExpectAllModesEqual(&db, Instantiate(tmpl, &rng));
  }
}

TEST_P(ExecDifferentialTest, AllModesEqualOnCorpus) {
  Database db;
  BuildTinyDb(&db, GetParam());
  Rng rng(GetParam() * 31 + 7);
  for (const char* tmpl : kCorpusTemplates) {
    ExpectAllModesEqual(&db, Instantiate(tmpl, &rng));
  }
}

TEST_P(ExecDifferentialTest, AllModesEqualOnNaNValuedJoin) {
  // Every NaN equals every other NaN under `=`, whatever its sign or
  // payload bits, so the hash join must bucket them together.
  Database db;
  BuildTinyDb(&db, GetParam());
  const double kNaNs[] = {std::nan("1"), std::nan("2"),
                          -std::numeric_limits<double>::quiet_NaN()};
  const std::vector<Oid> employees = db.Extent(A("Employee")).elems();
  for (size_t i = 0; i < employees.size(); ++i) {
    Oid salary = i % 4 == 3 ? Oid::Real(1.5) : Oid::Real(kNaNs[i % 3]);
    ASSERT_TRUE(db.SetScalar(employees[i], A("Salary"), salary).ok());
  }
  ExpectAllModesEqual(
      &db,
      "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary");
}

INSTANTIATE_TEST_SUITE_P(Seeds, ExecDifferentialTest,
                         ::testing::Values(1, 2, 3, 5, 8));

// ------------------------------------------------ dispatch memo

/// Un-memoized dispatch, Invoke's documented order spelled out: the
/// stored or inherited attribute value, then MethodRegistry::Resolve,
/// then the body. A query-defined body runs on a fresh evaluator.
Result<OidSet> ReferenceInvoke(Database* db, const Oid& receiver,
                               const Oid& method,
                               const std::vector<Oid>& args) {
  if (args.empty()) {
    if (const AttrValue* value = db->GetAttribute(receiver, method)) {
      return value->AsSet();
    }
  }
  std::vector<Oid> classes = db->graph().DirectClassesOf(receiver);
  if (receiver.is_numeric()) classes.push_back(builtin::Numeral());
  if (receiver.is_string()) classes.push_back(builtin::String());
  if (receiver.is_bool()) classes.push_back(builtin::Boolean());
  if (receiver.is_nil()) classes.push_back(builtin::NilClass());
  auto resolution = db->methods().Resolve(db->graph(), classes, method,
                                          static_cast<int>(args.size()));
  if (!resolution.ok()) {
    if (resolution.status().code() == StatusCode::kNotFound) return OidSet();
    return resolution.status();
  }
  if (const auto* native =
          dynamic_cast<const NativeMethodBody*>(resolution->body.get())) {
    return native->fn()(*db, receiver, args);
  }
  return Evaluator(db).Invoke(receiver, method, args);
}

/// Un-memoized MethodsOn: a direct enumeration of the receiver's own
/// attributes, its classes' class-object attributes, and every method
/// defined on a class it belongs to.
OidSet ReferenceMethodsOn(const Database& db, const Oid& receiver,
                          size_t arity) {
  OidSet out;
  if (arity == 0) {
    if (const Object* obj = db.GetObject(receiver)) {
      for (const auto& [attr, value] : obj->attrs()) out.Insert(attr);
    }
    for (const Oid& cls : db.graph().AllClassesOf(receiver)) {
      if (const Object* class_obj = db.GetObject(cls)) {
        for (const auto& [attr, value] : class_obj->attrs()) out.Insert(attr);
      }
    }
  }
  for (const MethodRegistry::Entry& entry : db.methods().AllDefinitions()) {
    if (entry.arity == static_cast<int>(arity) &&
        db.IsInstanceOf(receiver, entry.cls)) {
      out.Insert(entry.method);
    }
  }
  return out;
}

std::shared_ptr<NativeMethodBody> TagBody(int arity, const char* tag) {
  return std::make_shared<NativeMethodBody>(
      arity, /*set_valued=*/false,
      [tag](Database&, const Oid&, const std::vector<Oid>&) -> Result<OidSet> {
        return OidSet({Oid::String(tag)});
      });
}

/// Multi-level class-object defaults (Country overridden on Staff),
/// incomparable default providers (Status on Student and Employee: the
/// smallest oid wins), a resolved conflict (`id` on Workstudy, inherited
/// by TA), unresolved ones (`badge`, `rank`), literal receivers (Numeral
/// methods), and native and query-defined methods.
void BuildDispatchDb(Database* db, Session* session) {
  auto ok = [](const Status& st) { ASSERT_TRUE(st.ok()) << st.ToString(); };
  ok(db->DeclareClass(A("Person")));
  ok(db->DeclareClass(A("Student"), {A("Person")}));
  ok(db->DeclareClass(A("Employee"), {A("Person")}));
  ok(db->DeclareClass(A("Workstudy"), {A("Student"), A("Employee")}));
  ok(db->DeclareClass(A("TA"), {A("Workstudy")}));
  ok(db->DeclareClass(A("Staff"), {A("Employee")}));
  ok(db->SetScalar(A("Person"), A("Country"), Oid::String("usa")));
  ok(db->SetScalar(A("Staff"), A("Country"), Oid::String("uk")));
  ok(db->SetScalar(A("Employee"), A("Dept"), Oid::String("general")));
  ok(db->SetScalar(A("Student"), A("Status"), Oid::String("student")));
  ok(db->SetScalar(A("Employee"), A("Status"), Oid::String("employee")));
  ok(db->DefineMethod(A("Person"), A("Status"), 0, TagBody(0, "method")));
  ok(db->DefineMethod(A("Student"), A("id"), 0, TagBody(0, "student-id")));
  ok(db->DefineMethod(A("Employee"), A("id"), 0, TagBody(0, "employee-id")));
  ok(db->ResolveMethodConflict(A("Workstudy"), A("id"), A("Student")));
  ok(db->DefineMethod(A("Student"), A("badge"), 0, TagBody(0, "s-badge")));
  ok(db->DefineMethod(A("Employee"), A("badge"), 0, TagBody(0, "e-badge")));
  ok(db->DefineMethod(A("Student"), A("rank"), 0, TagBody(0, "s-rank")));
  ok(db->DefineMethod(A("Employee"), A("rank"), 0, TagBody(0, "e-rank")));
  ok(db->DefineMethod(builtin::Numeral(), A("Twice"), 0,
                      std::make_shared<NativeMethodBody>(
                          0, false,
                          [](Database&, const Oid& n, const std::vector<Oid>&)
                              -> Result<OidSet> {
                            return OidSet({Oid::Real(2 * n.numeric_value())});
                          })));
  ok(db->DefineMethod(builtin::Numeral(), A("Plus"), 1,
                      std::make_shared<NativeMethodBody>(
                          1, false,
                          [](Database&, const Oid& n,
                             const std::vector<Oid>& args) -> Result<OidSet> {
                            return OidSet({Oid::Real(
                                n.numeric_value() + args[0].numeric_value())});
                          })));
  const std::pair<const char*, const char*> people[] = {
      {"ann", "Person"}, {"sam", "Student"}, {"eve", "Employee"},
      {"wes", "Workstudy"}, {"tia", "TA"}, {"stu", "Staff"}};
  for (const auto& [name, cls] : people) {
    ok(db->NewObject(A(name), {A(cls)}));
    ok(db->SetScalar(A(name), A("Name"), Oid::String(name)));
  }
  ok(db->NewObject(A("mix"), {A("Student"), A("Staff")}));
  ok(db->SetScalar(A("eve"), A("Status"), Oid::String("own")));
  auto greeting = session->Execute(
      "ALTER CLASS Person ADD SIGNATURE Greeting => String "
      "SELECT (Greeting) = N FROM Person X OID X WHERE X.Name[N]");
  ASSERT_TRUE(greeting.ok()) << greeting.status().ToString();
}

/// Every (receiver, method, arity) through the session's memoized
/// evaluator — twice, so the second call is a memo hit — against the
/// un-memoized reference, errors included; MethodsOn likewise. The
/// memoized calls of the second pass must resolve nothing.
void ExpectDispatchMatchesReference(Database* db, Session* session,
                                    const std::string& when) {
  std::vector<Oid> receivers = {Oid::Int(3), Oid::Real(2.5),
                                Oid::String("x"), Oid::Bool(true), Oid::Nil()};
  db->ForEachObject([&](const Oid& oid, const Object&) {
    receivers.push_back(oid);
  });
  const char* methods[] = {"Country", "Dept",  "Status",     "id",
                           "badge",   "rank",  "Twice",      "Plus",
                           "Greeting",
                           "Name",    "Motto", "attributes", "superclasses",
                           "nosuch"};
  const std::vector<Oid> arg_lists[] = {{}, {Oid::Int(2)}};
  Evaluator& memoized = session->evaluator();
  for (int pass = 0; pass < 2; ++pass) {
    uint64_t resolutions = 0;
    auto counted = [&resolutions](auto call) {
      const uint64_t before =
          CounterValue("xsql.eval.dispatch_resolutions");
      auto result = call();
      resolutions += CounterValue("xsql.eval.dispatch_resolutions") - before;
      return result;
    };
    size_t errors = 0;
    for (const Oid& receiver : receivers) {
      for (size_t arity : {size_t{0}, size_t{1}}) {
        EXPECT_EQ(counted([&] { return memoized.MethodsOn(receiver, arity); }),
                  ReferenceMethodsOn(*db, receiver, arity))
            << when << ": MethodsOn " << receiver.ToString() << "/" << arity;
      }
      for (const char* method : methods) {
        for (const std::vector<Oid>& args : arg_lists) {
          const std::string what = when + ": " + receiver.ToString() + "." +
                                   method + "/" + std::to_string(args.size());
          Result<OidSet> got = counted(
              [&] { return memoized.Invoke(receiver, A(method), args); });
          Result<OidSet> want = ReferenceInvoke(db, receiver, A(method), args);
          ASSERT_EQ(got.ok(), want.ok()) << what << ": "
                                         << got.status().ToString() << " vs "
                                         << want.status().ToString();
          if (got.ok()) {
            EXPECT_EQ(*got, *want) << what;
          } else {
            ++errors;
            EXPECT_EQ(got.status().code(), want.status().code()) << what;
            EXPECT_EQ(got.status().message(), want.status().message()) << what;
          }
        }
      }
    }
    EXPECT_GT(errors, 0u) << when << ": the unresolved conflict went missing";
    if (pass == 1) {
      EXPECT_EQ(resolutions, 0u) << when << ": a memo hit resolved again";
    }
  }
}

TEST(DispatchMemoTest, MatchesUnmemoizedDispatchAcrossSchemaChanges) {
  Database db;
  Session session(&db);
  BuildDispatchDb(&db, &session);
  ExpectDispatchMatchesReference(&db, &session, "initial");

  ASSERT_TRUE(db.SetScalar(A("Student"), A("Dept"), Oid::String("school")).ok());
  ExpectDispatchMatchesReference(&db, &session, "default added");

  ASSERT_TRUE(
      db.DefineMethod(A("Employee"), A("id"), 0, TagBody(0, "staff-id")).ok());
  auto redefined = session.Execute(
      "ALTER CLASS Student "
      "SELECT (Greeting) = N FROM Student X OID X WHERE X.Status[N]");
  ASSERT_TRUE(redefined.ok()) << redefined.status().ToString();
  ExpectDispatchMatchesReference(&db, &session, "methods redefined");

  ASSERT_TRUE(
      db.ResolveMethodConflict(A("Workstudy"), A("badge"), A("Employee")).ok());
  ExpectDispatchMatchesReference(&db, &session, "conflict resolved");

  ASSERT_TRUE(db.AddInstanceOf(A("ann"), A("Staff")).ok());
  ASSERT_TRUE(db.AddInstanceOf(Oid::Int(3), A("Staff")).ok());
  ExpectDispatchMatchesReference(&db, &session, "instance-of added");

  // The script redefines Greeting, fills the memo with the new body, then
  // fails; the rollback must take the memoized body with it.
  auto failed = session.ExecuteScript(
      "ALTER CLASS Person "
      "SELECT (Greeting) = N FROM Person X OID X WHERE X.Country[N]; "
      "SELECT X.Greeting FROM Person X; "
      "SELECT X FROM Workstudy X WHERE X.rank",
      /*atomic=*/true);
  ASSERT_FALSE(failed.ok());
  ExpectDispatchMatchesReference(&db, &session, "after a failed statement");
}

TEST(DispatchMemoTest, ResolutionsScaleWithTheSchemaNotTheExtent) {
  auto resolutions = [](void (*build)(Database*, uint64_t)) -> uint64_t {
    Database db;
    build(&db, 3);
    Session session(&db);
    const uint64_t before = CounterValue("xsql.eval.dispatch_resolutions");
    auto out = session.Query(
        "SELECT \"Y FROM Person X WHERE X.\"Y.City['newyork']");
    EXPECT_TRUE(out.ok()) << out.status().ToString();
    return CounterValue("xsql.eval.dispatch_resolutions") - before;
  };
  const uint64_t tiny = resolutions(BuildTinyDb);
  const uint64_t medium = resolutions(BuildMediumDb);
  EXPECT_GT(tiny, 0u);
  EXPECT_EQ(tiny, medium);
}

// ------------------------------------------------ parallel machinery

TEST(WorkerPoolTest, RunsEveryTaskExactlyOnce) {
  WorkerPool pool(3);
  std::vector<std::atomic<int>> hits(100);
  for (auto& h : hits) h.store(0);
  pool.Run(hits.size(), [&](size_t i) { hits[i].fetch_add(1); });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(WorkerPoolTest, ZeroThreadsRunsInline) {
  WorkerPool pool(0);
  std::vector<int> hits(10, 0);  // inline: no synchronization needed
  pool.Run(hits.size(), [&](size_t i) { hits[i] = 1; });
  for (int h : hits) EXPECT_EQ(h, 1);
}

TEST(ParallelExecTest, FanOutActuallyHappens) {
  Database db;
  BuildMediumDb(&db, 7);
  const uint64_t queries_before = CounterValue("xsql.exec.parallel_queries");
  const uint64_t parts_before = CounterValue("xsql.exec.partitions");
  WorkerPool pool(3);
  auto out = RunPlanned(&db, "SELECT X FROM Employee X WHERE X.Salary > 0",
                        /*exec_batch=*/true, &pool, 4);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  EXPECT_GT(out->relation.size(), 0u);
  EXPECT_EQ(CounterValue("xsql.exec.parallel_queries"), queries_before + 1);
  EXPECT_GE(CounterValue("xsql.exec.partitions"), parts_before + 2);
}

TEST(ParallelExecTest, PlannerMarksEligibilityAndDriverRespectsIt) {
  Database db;
  BuildTinyDb(&db, 3);
  // Pure const-class FROM: eligible.
  {
    auto stmt = ParseAndResolve(
        "SELECT X FROM Employee X WHERE X.Salary > 0", db);
    ASSERT_TRUE(stmt.ok());
    Planner planner(db, nullptr);
    QueryPlan plan = planner.Plan(*stmt->query->simple, nullptr);
    EXPECT_TRUE(plan.batch_eligible);
    EXPECT_TRUE(plan.parallel_eligible);
  }
  // UPDATE in the WHERE clause: impure, must stay serial + tuple.
  {
    auto stmt = ParseAndResolve(
        "SELECT X FROM Employee X WHERE UPDATE X.Salary = 1", db);
    if (stmt.ok()) {
      Planner planner(db, nullptr);
      QueryPlan plan = planner.Plan(*stmt->query->simple, nullptr);
      EXPECT_FALSE(plan.batch_eligible);
      EXPECT_FALSE(plan.parallel_eligible);
    }
  }
}

TEST(ParallelExecTest, CancellationReachesWorkersAndPoolSurvives) {
  Database db;
  BuildMediumDb(&db, 11);
  WorkerPool pool(3);

  auto cancel = std::make_shared<CancelToken>();
  cancel->RequestCancel();  // cancelled before the statement starts
  ExecutionContext ctx{ExecLimits{}, cancel};
  auto out = RunPlanned(&db, "SELECT X FROM Employee X WHERE X.Salary > 0",
                        /*exec_batch=*/true, &pool, 4, &ctx);
  ASSERT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled)
      << out.status().ToString();

  // The fan-out must have released its workers: the same pool runs the
  // next statement to completion.
  auto again = RunPlanned(&db, "SELECT X FROM Employee X WHERE X.Salary > 0",
                          /*exec_batch=*/true, &pool, 4);
  ASSERT_TRUE(again.ok()) << again.status().ToString();
  EXPECT_GT(again->relation.size(), 0u);
}

TEST(ParallelExecTest, RowBudgetTripsIdenticallySerialAndParallel) {
  Database db;
  BuildMediumDb(&db, 13);
  const std::string text = "SELECT X FROM Employee X WHERE X.Salary > 0";

  auto full = RunPlanned(&db, text, /*exec_batch=*/true, nullptr, 0);
  ASSERT_TRUE(full.ok());
  const size_t total = full->relation.size();
  ASSERT_GT(total, 4u);

  for (uint64_t budget : {static_cast<uint64_t>(total) - 1,
                          static_cast<uint64_t>(total)}) {
    ExecLimits limits;
    limits.max_rows = budget;

    ExecutionContext serial_ctx{limits, nullptr};
    auto serial =
        RunPlanned(&db, text, /*exec_batch=*/true, nullptr, 0, &serial_ctx);

    WorkerPool pool(3);
    ExecutionContext parallel_ctx{limits, nullptr};
    auto parallel =
        RunPlanned(&db, text, /*exec_batch=*/true, &pool, 4, &parallel_ctx);

    // The row budget is charged against one shared pool across the
    // fan-out, so serial and parallel trip (or pass) identically.
    EXPECT_EQ(serial.ok(), parallel.ok()) << "budget=" << budget;
    if (!serial.ok()) {
      EXPECT_EQ(serial.status().code(), StatusCode::kResourceExhausted);
      EXPECT_EQ(parallel.status().code(), StatusCode::kResourceExhausted);
    } else {
      EXPECT_EQ(Rows(serial->relation), Rows(parallel->relation));
    }
  }
}

// ------------------------------------------- satellite 1: var_domain

TEST(DomainSnapshotTest, ActiveDomainSharedIsOneSnapshotNotPerProbeCopies) {
  Database db;
  BuildTinyDb(&db, 5);
  // The regression: the fallback used to return ActiveDomain() BY VALUE
  // on every probe — a full active-domain copy per enumeration step.
  auto first = db.ActiveDomainShared();
  auto second = db.ActiveDomainShared();
  EXPECT_EQ(first.get(), second.get());
  // A mutation invalidates the snapshot; the next probe gets a fresh
  // one rather than a stale alias.
  ASSERT_TRUE(db.NewObject(A("probe_obj"), {A("Person")}).ok());
  auto third = db.ActiveDomainShared();
  EXPECT_NE(first.get(), third.get());
  EXPECT_TRUE(third->Contains(A("probe_obj")));
}

TEST(DomainSnapshotTest, RangeDomainsMaterializeOncePerStatement) {
  Database db;
  BuildMediumDb(&db, 9);
  // A ranged query whose v-selector re-enters once per outer binding:
  // without the per-statement cache this would materialize |Company|
  // domains; with it, at most one per distinct range variable.
  const std::string text =
      "SELECT X, W FROM Company X WHERE X.Divisions.Employees[W]";
  const uint64_t before = CounterValue("xsql.eval.domain_materializations");
  auto out = RunPlanned(&db, text, /*exec_batch=*/true, nullptr, 0);
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  const uint64_t delta =
      CounterValue("xsql.eval.domain_materializations") - before;
  EXPECT_LE(delta, 2u) << "per-probe materialization regressed";
}

// ------------------------------- satellite 2: plan-cache staleness

TEST(PlanCacheStalenessTest, IndexRebuildInvalidatesCachedPlans) {
  Database db;
  BuildTinyDb(&db, 2);
  PathIndexSet indexes;
  ASSERT_TRUE(indexes.Add(db, A("Employee"), {A("Salary")}).ok());

  SessionOptions options;
  options.indexes = &indexes;
  Session session(&db, options);
  // The canonical text is what the cache is keyed on; EXPLAIN ANALYZE
  // reports whether a plain execution of its query would hit.
  const std::string query = "SELECT X FROM Employee X WHERE X.Salary > 10";
  const std::string probe = "EXPLAIN ANALYZE " + query;

  auto Render = [&](const char* what) -> std::string {
    auto out = session.Execute(probe);
    EXPECT_TRUE(out.ok()) << what << ": " << out.status().ToString();
    return out.ok() ? RenderEvalOutput(*out) : std::string();
  };

  EXPECT_NE(Render("cold").find("cache : miss"), std::string::npos);
  ASSERT_TRUE(session.Execute(query).ok());  // publishes the plan
  EXPECT_NE(Render("warm").find("cache : hit"), std::string::npos);

  // An index rebuild changes planner inputs WITHOUT bumping
  // Database::version() — the staleness the generation key closes: the
  // cached plan must not survive it.
  ASSERT_TRUE(indexes.Add(db, A("Person"), {A("Name")}).ok());
  EXPECT_NE(Render("post-rebuild").find("cache : miss"), std::string::npos);
  ASSERT_TRUE(session.Execute(query).ok());  // re-publishes
  EXPECT_NE(Render("re-warm").find("cache : hit"), std::string::npos);
}

// --------------------------------------------- session/server wiring

TEST(SessionExecTest, ParallelSessionMatchesSerialSession) {
  Database db;
  BuildMediumDb(&db, 21);
  const std::string text =
      "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =some Y.Salary";

  Session serial(&db);
  auto expected = serial.Query(text);
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  WorkerPool pool(3);
  SessionOptions options;
  options.worker_pool = &pool;
  options.exec_workers = 4;
  options.exec_min_parallel_candidates = 1;
  Session parallel(&db, options);
  auto got = parallel.Query(text);
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(Rows(*got), Rows(*expected));
}

TEST(SessionExecTest, ExplainSurfacesParallelEligibility) {
  Database db;
  BuildTinyDb(&db, 4);
  Session session(&db);
  auto report =
      session.Explain("SELECT X FROM Employee X WHERE X.Salary > 10");
  ASSERT_TRUE(report.ok());
  EXPECT_NE(report->find("parallel eligible"), std::string::npos) << *report;
}

TEST(ServerExecTest, ManagerOwnedPoolServesSnapshotReaders) {
  const auto* info = ::testing::UnitTest::GetInstance()->current_test_info();
  const std::string dir =
      ::testing::TempDir() + "/xsql_exec_" + info->name();
  std::filesystem::remove_all(dir);

  auto dd = storage::DurableDatabase::Open(dir);
  ASSERT_TRUE(dd.ok()) << dd.status().ToString();
  // Populate the master BEFORE the manager forks version 1, so the
  // pinned snapshot the readers share carries real extents (the WAL is
  // bypassed; this test never reopens the directory).
  BuildMediumDb(&(*dd)->db(), 17);

  server::ConcurrencyManager::Options options;
  options.exec_workers = 4;
  server::ConcurrencyManager manager(dd->get(), options);

  SessionOptions sopts;
  sopts.exec_min_parallel_candidates = 1;  // tiny extents still fan out
  auto sid = manager.CreateSession(sopts);
  ASSERT_TRUE(sid.ok());

  Database reference;
  BuildMediumDb(&reference, 17);
  Session serial(&reference);
  const std::string text = "SELECT X FROM Employee X WHERE X.Salary > 0";
  auto expected = serial.Query(text);
  ASSERT_TRUE(expected.ok());
  ASSERT_GT(expected->size(), 0u);

  const uint64_t before = CounterValue("xsql.exec.parallel_queries");
  auto read = manager.Execute(*sid, text);
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(Rows(read->relation), Rows(*expected));
  // The latch-free snapshot-read path borrowed the manager's pool.
  EXPECT_EQ(CounterValue("xsql.exec.parallel_queries"), before + 1);

  manager.CloseSession(*sid);
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace xsql
