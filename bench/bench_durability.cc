// Durability costs: what a per-statement WAL fsync adds to mutation
// latency, what raw record appends cost, how recovery time scales with
// WAL length, and what a checkpoint rotation costs. Companion numbers
// live in EXPERIMENTS.md.
#include <benchmark/benchmark.h>

#include <filesystem>
#include <string>
#include <vector>

#include "eval/session.h"
#include "storage/file.h"
#include "storage/recovery.h"
#include "storage/wal.h"
#include "store/database.h"
#include "workload/fig1_schema.h"
#include "workload/generator.h"

namespace xsql {
namespace bench {
namespace {

std::string FreshDir(const std::string& name) {
  std::string dir =
      (std::filesystem::temp_directory_path() / ("xsql_bench_" + name))
          .string();
  std::filesystem::remove_all(dir);
  return dir;
}

// A durable database only ever holds statement-built state (recovery
// replays statements), so benchmarks prime it through Execute.
void Prime(storage::DurableDatabase* dd) {
  const char* prelude[] = {
      "ALTER CLASS Person ADD SIGNATURE Name => String",
      "ALTER CLASS Person ADD SIGNATURE Salary => Numeral",
      "UPDATE CLASS Person SET mary.Name = 'mary'",
  };
  for (const char* stmt : prelude) (void)dd->Execute(stmt);
}

const char kUpdate[] = "UPDATE CLASS Person SET mary.Salary = 100";

// Baseline: the same statement through a plain in-memory session.
void BM_UpdatePlain(benchmark::State& state) {
  Database db;
  Session session(&db);
  (void)session.Execute("ALTER CLASS Person ADD SIGNATURE Name => String");
  (void)session.Execute("ALTER CLASS Person ADD SIGNATURE Salary => Numeral");
  (void)session.Execute("UPDATE CLASS Person SET mary.Name = 'mary'");
  for (auto _ : state) {
    auto out = session.Execute(kUpdate);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
  }
}
BENCHMARK(BM_UpdatePlain)->Unit(benchmark::kMicrosecond);

// A generated Figure-1 instance at `scale` (4: ~1.1k objects, 64:
// ~16.7k), and the employees UPDATE statements can target.
Status BuildFig1(Database* db, int64_t scale, std::vector<Oid>* employees) {
  XSQL_RETURN_IF_ERROR(workload::BuildFig1Schema(db));
  workload::WorkloadParams params;
  params = params.Scaled(static_cast<size_t>(scale));
  XSQL_RETURN_IF_ERROR(workload::GenerateFig1Data(db, params).status());
  for (const Oid& emp : db->graph().Extent(Oid::Atom("Employee"))) {
    employees->push_back(emp);
  }
  if (employees->empty()) return Status::RuntimeError("no employees");
  return Status::OK();
}

std::string UpdateSalary(const Oid& emp, int64_t value) {
  return "UPDATE CLASS Employee SET " + emp.ToString() +
         ".Salary = " + std::to_string(value);
}

// BM_UpdatePlain on a Figure-1 instance: the cost of a statement's
// rollback point shows here, since a write clones what the statement's
// savepoint shares and a shard holds a slice of the whole instance.
void BM_UpdatePlainFig1(benchmark::State& state) {
  Database db;
  std::vector<Oid> employees;
  Status built = BuildFig1(&db, state.range(0), &employees);
  if (!built.ok()) {
    state.SkipWithError(built.ToString().c_str());
    return;
  }
  Session session(&db);
  const std::string update = UpdateSalary(employees.front(), 100);
  for (auto _ : state) {
    auto out = session.Execute(update);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
  }
  state.counters["objects"] = static_cast<double>(db.object_count());
}
BENCHMARK(BM_UpdatePlainFig1)
    ->Arg(4)
    ->Arg(64)
    ->Unit(benchmark::kMicrosecond);

// The durable path: statement + WAL append + fsync before the ack.
void BM_UpdateDurable(benchmark::State& state) {
  std::string dir = FreshDir("update_durable");
  auto dd = storage::DurableDatabase::Open(dir);
  if (!dd.ok()) {
    state.SkipWithError(dd.status().ToString().c_str());
    return;
  }
  Prime(dd->get());
  for (auto _ : state) {
    auto out = (*dd)->Execute(kUpdate);
    if (!out.ok()) state.SkipWithError(out.status().ToString().c_str());
  }
  state.counters["wal_bytes"] =
      static_cast<double>((*dd)->wal_bytes());
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_UpdateDurable)->Unit(benchmark::kMicrosecond);

// Raw WAL record append + fsync, isolating the log from the executor.
void BM_WalAppendRaw(benchmark::State& state) {
  std::string dir = FreshDir("wal_raw");
  (void)storage::File::EnsureDir(dir);
  std::string path = dir + "/bench.wal";
  (void)storage::Wal::Create(path);
  auto wal = storage::Wal::OpenAppender(
      path, sizeof(storage::Wal::kMagic) - 1);
  if (!wal.ok()) {
    state.SkipWithError(wal.status().ToString().c_str());
    return;
  }
  const std::string payload(static_cast<size_t>(state.range(0)), 's');
  for (auto _ : state) {
    Status st = wal->Append(payload);
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  state.SetBytesProcessed(
      static_cast<int64_t>(state.iterations()) *
      static_cast<int64_t>(payload.size() + storage::Wal::kRecordHeader));
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_WalAppendRaw)->Arg(64)->Arg(1024)->Unit(benchmark::kMicrosecond);

// Recovery latency against WAL length: open a directory whose log
// holds `records` unreplayed statements.
void BM_Recovery(benchmark::State& state) {
  const int64_t records = state.range(0);
  std::string dir =
      FreshDir("recovery_" + std::to_string(records));
  {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) {
      state.SkipWithError(dd.status().ToString().c_str());
      return;
    }
    Prime(dd->get());
    for (int64_t i = 0; i < records; ++i) {
      auto out = (*dd)->Execute(
          "UPDATE CLASS Person SET mary.Salary = " + std::to_string(i));
      if (!out.ok()) {
        state.SkipWithError(out.status().ToString().c_str());
        return;
      }
    }
  }
  for (auto _ : state) {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) state.SkipWithError(dd.status().ToString().c_str());
    benchmark::DoNotOptimize(dd);
  }
  state.counters["replayed"] = static_cast<double>(records);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Recovery)
    ->Arg(0)
    ->Arg(100)
    ->Arg(1000)
    ->Unit(benchmark::kMillisecond);

// BM_Recovery on a checkpointed Figure-1 instance at scale range(0)
// whose WAL holds range(1) salary updates spread over the employees.
// The replay cost per record is the difference to the 0-record run
// over range(1); the rest is loading the checkpoint.
void BM_RecoveryFig1(benchmark::State& state) {
  const int64_t scale = state.range(0);
  const int64_t records = state.range(1);
  std::string dir = FreshDir("recovery_fig1_" + std::to_string(scale) +
                             "_" + std::to_string(records));
  {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) {
      state.SkipWithError(dd.status().ToString().c_str());
      return;
    }
    std::vector<Oid> employees;
    Status st = BuildFig1(&(*dd)->db(), scale, &employees);
    if (st.ok()) st = (*dd)->Checkpoint();
    for (int64_t i = 0; st.ok() && i < records; ++i) {
      const Oid& emp = employees[static_cast<size_t>(i) % employees.size()];
      st = (*dd)->Execute(UpdateSalary(emp, i)).status();
    }
    if (!st.ok()) {
      state.SkipWithError(st.ToString().c_str());
      return;
    }
  }
  for (auto _ : state) {
    auto dd = storage::DurableDatabase::Open(dir);
    if (!dd.ok()) state.SkipWithError(dd.status().ToString().c_str());
    benchmark::DoNotOptimize(dd);
  }
  state.counters["replayed"] = static_cast<double>(records);
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_RecoveryFig1)
    ->Args({4, 0})
    ->Args({4, 100})
    ->Args({64, 0})
    ->Args({64, 100})
    ->Unit(benchmark::kMillisecond);

// A checkpoint rotation (write snapshot + DDL log + WAL, flip
// CURRENT). Each iteration rotates to a fresh generation.
void BM_Checkpoint(benchmark::State& state) {
  std::string dir = FreshDir("checkpoint");
  auto dd = storage::DurableDatabase::Open(dir);
  if (!dd.ok()) {
    state.SkipWithError(dd.status().ToString().c_str());
    return;
  }
  Prime(dd->get());
  for (auto _ : state) {
    Status st = (*dd)->Checkpoint();
    if (!st.ok()) state.SkipWithError(st.ToString().c_str());
  }
  std::filesystem::remove_all(dir);
}
BENCHMARK(BM_Checkpoint)->Unit(benchmark::kMicrosecond);

}  // namespace
}  // namespace bench
}  // namespace xsql
