// B16 — batch-at-a-time execution vs the tuple-at-a-time plan-driven
// path (EXPERIMENTS.md §B16). W0 and W1 are the B14 `=all` joins: the
// planner hash-joins them (shared terminal values plus the empty `all`
// side), so all three modes run the same O(|L|+|R|) join and measure
// its probe cost. W2 is an ordered var-var comparison that CANNOT
// hash-join, so the conjunct driver runs the nested loop in every mode
// and isolates what batching buys: FROM candidate arrays materialized
// once per slot and cached across re-entries (the tuple path re-copies
// the deep extent on every inner-loop entry), plus per-batch
// prefilters over a selection vector. The parallel variants fan the
// outer extent across a worker pool — on a multi-core host they add on
// top of the batch win; on a single-core host they measure fork/join
// overhead honestly.
//
// ci.sh runs this binary with --benchmark_format=json and publishes
// the result as BENCH_exec.json.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <string>

#include "bench_util.h"
#include "eval/parallel.h"
#include "eval/session.h"

namespace xsql {
namespace bench {
namespace {

// The three B16 workloads (B14 join shapes, near-empty answers so
// output cost never masks the scan cost).
//  W0: the B14 `=all` self-join verbatim — hash-joined; the answer is
//      the equal-salary pairs.
//  W1: `=all` across classes — salaries (20k..120k) never equal ages
//      and every Person has an Age, so the hash join finds no pair and
//      no empty side: an empty answer.
//  W2: `<all` across classes — not hashable, so every mode runs the
//      |Employee|x|Person| nested loop; no salary is below an age, so
//      the loop scans to an empty answer.
const char* kWorkloads[] = {
    "SELECT X, Y FROM Employee X, Employee Y WHERE X.Salary =all Y.Salary",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary =all Y.Age",
    "SELECT X, Y FROM Employee X, Person Y WHERE X.Salary <all Y.Age",
};

/// Sessions per (scale, mode); shared across iterations so the plan
/// cache serves every iteration after the first in ALL modes and the
/// measurement is evaluation, not preparation.
struct ExecSessions {
  std::unique_ptr<WorkerPool> pool;
  std::unique_ptr<Session> tuple;     // planner on, exec_batch off
  std::unique_ptr<Session> batch;     // planner on, exec_batch on
  std::unique_ptr<Session> parallel;  // batch + worker fan-out
};

ExecSessions& GetExecSessions(size_t scale) {
  static std::map<size_t, ExecSessions>& cache =
      *new std::map<size_t, ExecSessions>();
  auto it = cache.find(scale);
  if (it == cache.end()) {
    ScaledDb& scaled = GetScaledDb(scale);
    ExecSessions entry;
    SessionOptions tuple_options;
    tuple_options.exec_batch = false;
    entry.tuple =
        std::make_unique<Session>(scaled.db.get(), tuple_options);
    entry.batch = std::make_unique<Session>(scaled.db.get());
    entry.pool = std::make_unique<WorkerPool>(3);
    SessionOptions parallel_options;
    parallel_options.worker_pool = entry.pool.get();
    parallel_options.exec_workers = 4;
    entry.parallel =
        std::make_unique<Session>(scaled.db.get(), parallel_options);
    it = cache.emplace(scale, std::move(entry)).first;
  }
  return it->second;
}

void RunWorkload(benchmark::State& state, Session* session,
                 const char* text) {
  size_t rows = 0;
  for (auto _ : state) {
    auto out = session->Query(text);
    if (!out.ok()) {
      state.SkipWithError(out.status().ToString().c_str());
      return;
    }
    rows = out->size();
    benchmark::DoNotOptimize(out);
  }
  state.counters["rows"] = static_cast<double>(rows);
}

// Args: {workload index, scale factor}.
void BM_TupleAtATime(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.tuple.get(), kWorkloads[state.range(0)]);
}

void BM_BatchSerial(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.batch.get(), kWorkloads[state.range(0)]);
}

void BM_BatchParallel(benchmark::State& state) {
  ExecSessions& sessions =
      GetExecSessions(static_cast<size_t>(state.range(1)));
  RunWorkload(state, sessions.parallel.get(), kWorkloads[state.range(0)]);
}

#define B16_ARGS                                              \
  ->Args({0, 1})->Args({0, 8})->Args({1, 1})->Args({1, 8})    \
      ->Args({2, 1})->Args({2, 8})                            \
      ->Unit(benchmark::kMillisecond)

BENCHMARK(BM_TupleAtATime) B16_ARGS;
BENCHMARK(BM_BatchSerial) B16_ARGS;
BENCHMARK(BM_BatchParallel) B16_ARGS;

}  // namespace
}  // namespace bench
}  // namespace xsql
