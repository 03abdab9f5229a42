#!/usr/bin/env bash
# CI entry point: a documentation link check, plain build + tests, an
# ASan+UBSan build + tests, and a TSan build running the
# concurrent-server and MVCC suites.
# Usage: ./ci.sh [--plain-only|--sanitize-only|--tsan-only]
set -euo pipefail
cd "$(dirname "$0")"

JOBS="$(nproc 2>/dev/null || echo 4)"
MODE="${1:-all}"

# Dead-link check over the documentation: every relative markdown link
# in README.md, DESIGN.md, EXPERIMENTS.md, ROADMAP.md and docs/*.md must
# point at a file that exists (anchors stripped; http(s) and mailto
# links are out of scope). Keeps the docs map honest as files move.
doc_link_check() {
  echo "==> doc link check"
  local failed=0 doc target resolved
  for doc in README.md DESIGN.md EXPERIMENTS.md ROADMAP.md docs/*.md; do
    [[ -f "$doc" ]] || continue
    while IFS= read -r target; do
      [[ -z "$target" ]] && continue
      case "$target" in
        http://*|https://*|mailto:*|\#*) continue ;;
      esac
      resolved="$(dirname "$doc")/${target%%#*}"
      if [[ ! -e "$resolved" ]]; then
        echo "dead link in $doc: $target" >&2
        failed=1
      fi
    done < <(grep -o '](\([^)]*\))' "$doc" | sed 's/^](//; s/)$//')
  done
  return "$failed"
}
doc_link_check

run_suite() {
  local dir="$1"; shift
  cmake -B "$dir" -S . "$@"
  cmake --build "$dir" -j "$JOBS"
  ctest --test-dir "$dir" -j "$JOBS" --output-on-failure
  # The crash-recovery suite again, serially and by name: the crash
  # injector is process-global state, so this run proves the durability
  # properties hold without test-level parallelism in the mix.
  echo "==> crash-recovery suite ($dir)"
  ctest --test-dir "$dir" -L durability --output-on-failure
  # The observability suite again, serially: the metrics enable-flag and
  # the global registry are process-global, so the freeze/unfreeze test
  # must not race other tests in the same binary re-run.
  echo "==> observability suite ($dir)"
  ctest --test-dir "$dir" -R '^observability_test$' --output-on-failure
  # The planner suite again, serially and by label: the differential
  # planned-vs-naive and plan-cache tests are the correctness gate for
  # the cost-based planner in every sanitized build.
  echo "==> planner suite ($dir)"
  ctest --test-dir "$dir" -L planner --output-on-failure
  # The replication suite again, serially: WAL shipping, promotion, and
  # the failover chaos sweep share the process-global fault injector, so
  # the acked-exactly-once failover contract is proven without
  # test-level parallelism in the mix (XSQL_CHAOS_SEEDS scales it).
  echo "==> replication suite ($dir)"
  ctest --test-dir "$dir" -L replication --output-on-failure
  # The MVCC suite again, serially and by label: copy-on-write fork
  # isolation, snapshot-isolation stress, version GC under pins, and
  # the crash sweep through version install. Under ASan this is the
  # use-after-free gate for retired versions; the crash sweep also
  # shares the process-global fault injector.
  echo "==> mvcc suite ($dir)"
  ctest --test-dir "$dir" -L mvcc --output-on-failure
  # The batch/parallel execution suite again, serially and by label:
  # the differential matrix (naive == tuple == batch == parallel across
  # seeds and worker counts) is the correctness gate for the vectorized
  # driver, and the suite owns worker pools + asserts on global metrics
  # deltas, so it runs without test-level parallelism in the mix.
  echo "==> exec suite ($dir)"
  ctest --test-dir "$dir" -L exec --output-on-failure
  # The oid and active-domain suite again, serially and by label: the
  # process-wide oid intern table and the lazily built active-domain
  # view are shared mutable state, raced by the suite's own threads.
  echo "==> oid suite ($dir)"
  ctest --test-dir "$dir" -L oid --output-on-failure
  # Dump the metrics of a representative workload as a build artifact
  # ($dir/metrics.json) — a quick diffable health check across commits.
  echo "==> metrics artifact ($dir/metrics.json)"
  "./$dir/examples/metrics_dump" > "$dir/metrics.json"
  # Wire-protocol smoke test: a real server and client over localhost.
  echo "==> server/client smoke test ($dir)"
  server_smoke "$dir"
}

# Boots xsql_server on an ephemeral-ish port, runs three statements
# through xsql_client (DDL, mutation, read), and shuts the server down
# gracefully with SIGINT. Fails if the read does not come back with
# one row.
server_smoke() {
  local dir="$1"
  local dbdir port out
  dbdir="$(mktemp -d)"
  port=$((20000 + RANDOM % 20000))
  "./$dir/examples/xsql_server" --dir "$dbdir/db" --port "$port" &
  local server_pid=$!
  local rc=0
  for _ in $(seq 1 50); do
    if "./$dir/examples/xsql_client" --port "$port" \
        --execute "SELECT C FROM Class C" > /dev/null 2>&1; then
      break
    fi
    sleep 0.1
  done
  out=""
  "./$dir/examples/xsql_client" --port "$port" \
      --execute "ALTER CLASS Person ADD SIGNATURE Name => String" \
      > /dev/null &&
    "./$dir/examples/xsql_client" --port "$port" \
      --execute "UPDATE CLASS Person SET mary.Name = 'mary'" \
      > /dev/null &&
    out="$("./$dir/examples/xsql_client" --port "$port" \
      --execute "SELECT T WHERE mary.Name[T]")" || rc=1
  # Exit-code contract: --execute must fail loudly so shell pipelines
  # can trust it. A statement the server rejects and a server that is
  # not there must both return nonzero.
  if "./$dir/examples/xsql_client" --port "$port" \
      --execute "SELECT FROM WHERE" > /dev/null 2>&1; then
    echo "xsql_client exit-code check failed: bad statement exited 0" >&2
    rc=1
  fi
  kill -INT "$server_pid" 2>/dev/null || true
  wait "$server_pid" || rc=1
  if "./$dir/examples/xsql_client" --port "$port" --retries 0 \
      --execute "SELECT C FROM Class C" > /dev/null 2>&1; then
    echo "xsql_client exit-code check failed: dead server exited 0" >&2
    rc=1
  fi
  rm -rf "$dbdir"
  if [[ "$rc" != 0 || "$out" != *"(1 rows)"* ]]; then
    echo "server smoke test failed: unexpected output: $out" >&2
    return 1
  fi
}

if [[ "$MODE" != "--sanitize-only" && "$MODE" != "--tsan-only" ]]; then
  echo "==> plain build + tests"
  run_suite build
  # B16 as a machine-readable artifact (build/BENCH_exec.json): the
  # tuple-vs-batch-vs-parallel ratios on the near-quadratic join
  # workloads, diffable across commits. Bounded min-time keeps it a
  # smoke measurement; EXPERIMENTS.md records the full runs.
  echo "==> exec benchmark artifact (build/BENCH_exec.json)"
  ./build/bench/bench_exec --benchmark_min_time=0.05 \
    --benchmark_format=json --benchmark_out=build/BENCH_exec.json \
    > /dev/null
fi

if [[ "$MODE" != "--plain-only" && "$MODE" != "--tsan-only" ]]; then
  echo "==> ASan+UBSan build + tests"
  run_suite build-asan -DXSQL_SANITIZE=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
fi

if [[ "$MODE" != "--plain-only" && "$MODE" != "--sanitize-only" ]]; then
  # ThreadSanitizer over the concurrent-server suite only: TSan's
  # runtime is incompatible with ASan and slows everything ~10x, so it
  # runs exactly the tests whose job is to race.
  echo "==> TSan build + concurrency suite"
  cmake -B build-tsan -S . -DXSQL_TSAN=ON -DCMAKE_BUILD_TYPE=RelWithDebInfo
  cmake --build build-tsan -j "$JOBS"
  ctest --test-dir build-tsan -L concurrency --output-on-failure
  # The MVCC suite under TSan: latch-free snapshot readers racing
  # copy-on-write writers is the exact interleaving TSan exists to
  # check — any reader touching writer-side state is a hard failure.
  echo "==> TSan mvcc suite"
  ctest --test-dir build-tsan -L mvcc --output-on-failure
  # The replication suite under TSan: the shipping source, the applier
  # thread, the semi-sync hub, and promotion are the raciest code in the
  # tree, so they run here at full strength.
  echo "==> TSan replication suite"
  XSQL_CHAOS_SEEDS="${XSQL_CHAOS_SEEDS:-4}" \
    ctest --test-dir build-tsan -L replication --output-on-failure
  # The network-chaos sweep under TSan, with the seed and fuzz budgets
  # bounded: TSan is ~10x, so CI proves the exactly-once contract on a
  # handful of seeds and leaves the full default sweep to plain ctest.
  echo "==> TSan chaos sweep (bounded)"
  XSQL_CHAOS_SEEDS="${XSQL_CHAOS_SEEDS:-4}" \
  XSQL_FUZZ_ITERS="${XSQL_FUZZ_ITERS:-40}" \
    ctest --test-dir build-tsan -L chaos --output-on-failure
  # The batch/parallel execution suite under TSan: worker threads
  # evaluating against a pinned snapshot while sharing the deadline/
  # budget/cancel state is new racy surface; the differential matrix
  # plus the cancellation and guardrail tests run it hard.
  echo "==> TSan exec suite"
  ctest --test-dir build-tsan -L exec --output-on-failure
  # The oid and active-domain suite under TSan: eight threads interning
  # the same values, and snapshot readers racing to build one lazy
  # active-domain view while the writer keeps mutating.
  echo "==> TSan oid suite"
  ctest --test-dir build-tsan -L oid --output-on-failure
fi

echo "==> CI OK"
