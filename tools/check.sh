#!/bin/sh
# Build-and-test driver. Usage:
#
#   tools/check.sh            # Release build + full test suite
#   tools/check.sh san        # ASan+UBSan build + full test suite
#   tools/check.sh no-tracing # IREDUCT_ENABLE_TRACING=OFF build + tests
#   tools/check.sh perf       # Release perf smoke: iReduct engine scaling
#                             # bench at small m, asserting parity with the
#                             # reference loop and that the incremental path
#                             # actually engaged (see docs/PERFORMANCE.md),
#                             # plus the SIMD kernel micro benches — on AVX2
#                             # hardware the dispatched batch-Laplace kernel
#                             # must beat the pinned scalar reference, and
#                             # the counting kernel the per-marginal
#                             # reference loop, by >= 2x (KERNEL_MIN_SPEEDUP)
#   tools/check.sh registry   # Mechanism-registry smoke: builds ireduct_tool
#                             # under the default and no-tracing presets,
#                             # asserts --list-mechanisms enumerates the
#                             # builtin set, and runs two spec-driven
#                             # marginal releases end-to-end
#   tools/check.sh queries    # Linear-query-algebra smoke: runs the
#                             # workload/strategy test binaries, the
#                             # strategy_comparison bench at reduced
#                             # scale (asserting BENCH_STRATEGY.json
#                             # carries every matrix strategy), and a
#                             # matrix-mechanism CLI release
#   tools/check.sh data       # Columnar dataset-engine smoke: round-trip
#                             # and streaming-parity tests under the
#                             # default preset and again under ASan+UBSan,
#                             # the columnar_io bench at reduced scale with
#                             # its load-speedup / streaming-ratio / parity
#                             # gates live (BENCH_COLUMNAR.json asserted),
#                             # and a CLI csv2col/col2csv round trip that
#                             # must reproduce the CSV byte for byte
#   tools/check.sh threads    # ThreadSanitizer build of the concurrent
#                             # evaluation paths: thread pool, fused
#                             # marginal evaluator, marginal cache,
#                             # metrics registry, the parallel trial
#                             # runner, and the multi-tenant query server
#                             # (admission pipeline + wire protocol)
#   tools/check.sh service    # Query-service smoke: the admission /
#                             # batching / crash-recovery suites, the
#                             # service_throughput bench at reduced scale
#                             # with its gates live (batched >= 1.5x
#                             # unbatched qps at 8 tenants, byte parity
#                             # against the serial golden; export
#                             # SERVICE_MIN_SPEEDUP=0 to disable the
#                             # speedup gate), and an end-to-end
#                             # serve/client NDJSON round trip over a
#                             # real Unix socket
#   tools/check.sh obs        # Telemetry smoke: runs the event-log /
#                             # exposition / run-report tests, drives
#                             # ireduct_tool with --report-out/--events-out/
#                             # --prom-out/--trace-out and validates the
#                             # artifacts, and proves the report survives a
#                             # fault-injected event drain and a no-tracing
#                             # build
#   tools/check.sh format     # clang-format style gate over src/tests/
#                             # tools/bench/examples (skips locally when
#                             # clang-format is missing; CI enforces it)
#   tools/check.sh ci         # local reproduction of the CI pipeline:
#                             # format + default + registry + evaluator
#                             # parity smoke with the fig08/09 speedup
#                             # gate at its default (>= 3x)
#
# Each mode maps to the CMakePresets.json preset of the same name, so the
# builds land in separate directories and never fight over a cache. The
# san mode also covers the thread-pool and batched-iReduct tests under
# ASan/UBSan, which is the race check for the parallel NoiseDown path.
set -eu

cd "$(dirname "$0")/.."

mode="${1:-default}"
case "$mode" in
  default|san|no-tracing|perf|registry|queries|data|threads|service|obs|format|ci) ;;
  *)
    echo "usage: tools/check.sh [san|no-tracing|perf|registry|queries|data|" \
         "threads|service|obs|format|ci]" >&2
    exit 2
    ;;
esac
preset="$mode"
[ "$mode" = san ] && preset=asan-ubsan
[ "$mode" = perf ] && preset=default
[ "$mode" = threads ] && preset=tsan

if [ "$mode" = format ]; then
  # Style gate over every first-party C++ file. clang-format is optional
  # locally (skip, CI enforces it) but the CI job installs it, so a
  # missing binary never turns the gate green up there.
  if ! command -v clang-format >/dev/null 2>&1; then
    if [ -n "${CI:-}" ]; then
      echo "format: clang-format missing in CI" >&2
      exit 1
    fi
    echo "format: clang-format not installed; skipping (CI enforces it)"
    exit 0
  fi
  find src tests tools bench examples \
    \( -name '*.cc' -o -name '*.h' \) -print0 |
    xargs -0 clang-format --dry-run --Werror
  echo "format: OK ($(clang-format --version))"
  exit 0
fi

if [ "$mode" = ci ]; then
  # The full local reproduction of the CI pipeline, minus the sanitizer
  # builds (run those with `san` / `threads` when touching memory or
  # concurrency): style gate, Release build + tests, registry smoke, and
  # the evaluator parity smoke. The fig08/09 speedup gate runs at its
  # default (>= 3x): the measured ratio is architectural (five setups
  # amortized through one cached evaluation), so it holds even on slow
  # shared machines.
  "$0" format
  "$0" default
  "$0" registry
  cmake --build --preset default -j "$(nproc)" --target eval_scaling
  (cd build/bench &&
   EVAL_ROWS=20000 EVAL_THREADS=1,2 CENSUS_ROWS=200000 \
     ./eval_scaling)
  echo "ci: all gates passed"
  exit 0
fi

if [ "$mode" = data ]; then
  # Columnar engine smoke. The bench runs with every gate live (load
  # speedup >= 5x, streaming within 1.25x, memcmp parity) at reduced
  # scale; the CLI round trip is the end-to-end byte-equality check; the
  # ASan+UBSan pass re-runs the round-trip and streaming suites over the
  # mmap/bit-twiddling code where a latent overflow would hide.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  data_tests="columnar_test streaming_evaluator_test dataset_test \
              csv_test census_generator_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool columnar_io $data_tests
  for t in $data_tests; do
    echo "== data: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=60000 TRIALS=2 COLUMNAR_PROFILE_ROWS=20000 \
     COLUMNAR_THREADS=1,2 ./columnar_io)
  for key in '"load_ok":true' '"stream_ok":true' '"parity_ok":true'; do
    if ! grep -q "$key" build/bench/BENCH_COLUMNAR.json; then
      echo "data smoke: $key missing from BENCH_COLUMNAR.json" >&2
      exit 1
    fi
  done
  tool=./build/tools/ireduct_tool
  "$tool" generate --profile sparse-events --rows 5000 --seed 3 \
    --out "$out_dir/a.csv" > /dev/null
  "$tool" csv2col --profile sparse-events --in "$out_dir/a.csv" \
    --out "$out_dir/a.col" > /dev/null
  "$tool" col2csv --in "$out_dir/a.col" --out "$out_dir/b.csv" > /dev/null
  cmp "$out_dir/a.csv" "$out_dir/b.csv"
  "$tool" col-info --in "$out_dir/a.col" | grep -q fingerprint
  echo "data smoke [default]: tests + gates + CLI round trip OK"
  cmake --preset asan-ubsan
  cmake --build --preset asan-ubsan -j "$(nproc)" \
    --target columnar_test streaming_evaluator_test
  for t in columnar_test streaming_evaluator_test; do
    echo "== data (asan-ubsan): $t =="
    ./build-asan-ubsan/tests/"$t"
  done
  echo "data smoke [asan-ubsan]: round-trip + streaming suites clean"
  exit 0
fi

if [ "$mode" = threads ]; then
  # Only the concurrency-bearing tests; a full TSan suite is far slower
  # and the sequential code has no threads for TSan to observe. Test
  # binaries run directly so unbuilt targets can't confuse ctest
  # discovery. IREDUCT_THREADS forces the pooled paths on.
  cmake --preset tsan
  tsan_tests="thread_pool_test marginal_evaluator_test marginal_cache_test \
              experiment_test ireduct_batch_test obs_metrics_test \
              event_log_test query_server_test wire_test"
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset tsan -j "$(nproc)" --target $tsan_tests
  for t in $tsan_tests; do
    echo "== TSan: $t =="
    IREDUCT_THREADS=4 ./build-tsan/tests/"$t"
  done
  exit 0
fi

if [ "$mode" = service ]; then
  # Query-service smoke. The bench runs with the batched-vs-unbatched
  # speedup gate live (>= 1.5x at 8 tenants): the ratio is architectural —
  # one fused true-table pass plus MarginalCache hits replace per-request
  # per-spec dataset scans — so it holds on one-core shared runners.
  # SERVICE_MIN_SPEEDUP=0 disables the gate for pathological machines;
  # the byte-parity check against the serial golden always runs. The
  # serve/client leg drives the real binary over a real Unix socket.
  out_dir="$(mktemp -d)"
  serve_pid=""
  trap 'rm -rf "$out_dir"; [ -n "$serve_pid" ] && kill "$serve_pid" 2>/dev/null' EXIT
  service_tests="private_session_test query_server_test wire_test \
                 service_crash_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool service_throughput $service_tests
  for t in $service_tests; do
    echo "== service: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=120000 SERVICE_WAVES=3 ./service_throughput)
  for key in '"speedup_ok":true' '"parity_ok":true'; do
    if ! grep -q "$key" build/bench/BENCH_SERVICE.json; then
      echo "service smoke: $key missing from BENCH_SERVICE.json" >&2
      exit 1
    fi
  done
  tool=./build/tools/ireduct_tool
  sock="$out_dir/service.sock"
  "$tool" serve --socket "$sock" --ready-file "$out_dir/ready" \
    --rows 20000 --seed 7 --journal-dir "$out_dir/journals" &
  serve_pid=$!
  i=0
  while [ ! -f "$out_dir/ready" ]; do
    i=$((i + 1))
    if [ "$i" -gt 100 ]; then
      echo "service smoke: server never wrote its ready file" >&2
      exit 1
    fi
    sleep 0.1
  done
  "$tool" client --socket "$sock" --op ping | grep -q '"pong":true'
  "$tool" client --socket "$sock" --op open --tenant smoke \
    --budget 1 --seed 3 > /dev/null
  "$tool" client --socket "$sock" --op marginals --tenant smoke \
    --specs "0;1" --mechanism ireduct --epsilon 0.2 --delta 5 --steps 40 |
    grep -q '"epsilon_spent"'
  "$tool" client --socket "$sock" --op count --tenant smoke \
    --predicates "1=1" --epsilon 0.1 | grep -q '"value"'
  "$tool" client --socket "$sock" --op budget --tenant smoke |
    grep -q '"remaining"'
  # The journal the server kept must already hold both grants.
  grep -c '"type":"grant"' "$out_dir/journals/smoke.journal" | grep -qx 2
  kill "$serve_pid"
  wait "$serve_pid"
  serve_pid=""
  echo "service smoke: tests + gated bench + socket round trip OK"
  exit 0
fi

if [ "$mode" = obs ]; then
  # Telemetry smoke: unit-test the pipeline, then prove the end-to-end
  # artifacts (--report-out / --events-out / --prom-out) carry what the
  # docs promise — and that the run report still works with tracing
  # compiled out.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  obs_tests="obs_metrics_test event_log_test export_prometheus_test \
             run_report_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool $obs_tests
  for t in $obs_tests; do
    echo "== obs: $t =="
    ./build/tests/"$t"
  done
  ./build/tools/ireduct_tool marginals --rows 2000 --seed 7 \
    --epsilon 0.5 --mechanism ireduct --out-dir "$out_dir" \
    --report-out "$out_dir/report.json" \
    --events-out "$out_dir/events.jsonl" \
    --prom-out "$out_dir/metrics.prom" > /dev/null
  grep -q '"report_version"' "$out_dir/report.json"
  grep -q '"overall_error"' "$out_dir/report.json"
  grep -q '^# TYPE ' "$out_dir/metrics.prom"
  grep -q '"type":"ireduct.round"' "$out_dir/events.jsonl"
  # The Chrome trace is an export of the same stream: it must parse, hold
  # at least one span and one move, and carry the privacy ledger.
  ./build/tools/ireduct_tool marginals --rows 2000 --seed 7 \
    --epsilon 0.5 --mechanism ireduct --out-dir "$out_dir" \
    --trace-out "$out_dir/trace.json" > /dev/null
  python3 - "$out_dir/trace.json" <<'PY'
import json, sys
trace = json.load(open(sys.argv[1]))
events = trace["traceEvents"]
assert isinstance(events, list), "traceEvents is not an array"
assert any(e["ph"] == "X" for e in events), "no complete span"
assert any(e["name"] == "ireduct.move" for e in events), "no ireduct.move"
assert "charges" in trace["otherData"]["privacy_ledger"], "no ledger"
PY
  echo "obs smoke [default]: report + events + exposition + trace OK"
  cmake --preset no-tracing
  cmake --build --preset no-tracing -j "$(nproc)" --target ireduct_tool
  ./build-no-tracing/tools/ireduct_tool marginals --rows 2000 --seed 7 \
    --epsilon 0.5 --mechanism ireduct --out-dir "$out_dir" \
    --report-out "$out_dir/report-nt.json" > /dev/null
  grep -q '"report_version"' "$out_dir/report-nt.json"
  grep -q '"overall_error"' "$out_dir/report-nt.json"
  echo "obs smoke [no-tracing]: run report still written"
  exit 0
fi

if [ "$mode" = registry ]; then
  # Spec dispatch must behave identically with tracing compiled out, so the
  # smoke runs under both presets.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  for p in default no-tracing; do
    cmake --preset "$p"
    cmake --build --preset "$p" -j "$(nproc)" --target ireduct_tool
    build_dir=build
    [ "$p" = no-tracing ] && build_dir=build-no-tracing
    tool="$build_dir/tools/ireduct_tool"
    count="$("$tool" --list-mechanisms |
             sed -n 's/^registered mechanisms (\([0-9]*\)):$/\1/p')"
    if [ -z "$count" ] || [ "$count" -lt 6 ]; then
      echo "registry smoke [$p]: expected >=6 registered mechanisms," \
           "got '${count:-none}'" >&2
      exit 1
    fi
    mkdir -p "$out_dir/$p"
    for spec in "two_phase:epsilon=0.5" \
                "ireduct:lambda_steps=16"; do
      "$tool" marginals --mechanism "$spec" --rows 2000 --seed 7 \
        --epsilon 0.5 --out-dir "$out_dir/$p" > /dev/null
    done
    echo "registry smoke [$p]: $count mechanisms, spec-driven runs OK"
  done
  exit 0
fi

if [ "$mode" = queries ]; then
  # Linear-query-algebra smoke: the strategy/workload unit + property +
  # golden-parity tests, the strategy_comparison bench at reduced scale
  # (every matrix strategy must land in BENCH_STRATEGY.json), and one
  # matrix-mechanism release through the real CLI.
  out_dir="$(mktemp -d)"
  trap 'rm -rf "$out_dir"' EXIT
  query_tests="linear_workload_test strategy_test range_workload_test \
               strategy_golden_test mechanism_parity_test \
               marginal_workload_test hierarchical_test wavelet_test"
  cmake --preset default
  # shellcheck disable=SC2086  # word splitting is the point
  cmake --build --preset default -j "$(nproc)" \
    --target ireduct_tool strategy_comparison $query_tests
  for t in $query_tests; do
    echo "== queries: $t =="
    ./build/tests/"$t"
  done
  (cd build/bench &&
   CENSUS_ROWS=60000 TRIALS=2 IREDUCT_STEPS=60 ./strategy_comparison)
  for m in "matrix:identity" "matrix:tree" "matrix:wavelet" \
           "matrix_greedy:tree" "ireduct"; do
    if ! grep -q "\"name\":\"$m\"" build/bench/BENCH_STRATEGY.json; then
      echo "queries smoke: $m missing from BENCH_STRATEGY.json" >&2
      exit 1
    fi
  done
  ./build/tools/ireduct_tool marginals \
    --mechanism "matrix:strategy=tree,tune=greedy" --rows 2000 --seed 7 \
    --epsilon 0.5 --out-dir "$out_dir" > /dev/null
  echo "queries smoke: tests + BENCH_STRATEGY.json + CLI release OK"
  exit 0
fi

cmake --preset "$preset"

if [ "$mode" = perf ]; then
  cmake --build --preset "$preset" -j "$(nproc)" \
    --target scaling_study micro_primitives
  # Small-m sweep keeps the smoke under a few seconds; the bench itself
  # exits nonzero on engine-parity or fast-path failures.
  (cd build/bench &&
   SCALING_IREDUCT_ONLY=1 SCALING_M=100,1000 NAIVE_MAX_M=1000 \
     ./scaling_study)
  # SIMD kernel micro benches: the dispatched batch-Laplace kernel vs its
  # pinned scalar reference, and the dispatched counting kernel vs the
  # per-marginal reference loop (Marginal::Compute). The >= 2x gate
  # (KERNEL_MIN_SPEEDUP) only applies on AVX2 hardware with dispatch
  # unrestricted — elsewhere the kernels fall back toward the references
  # and the run is informational.
  (cd build/bench &&
   ./micro_primitives \
     --benchmark_filter='BM_BatchLaplace|BM_CountPlan' \
     --benchmark_out=BENCH_KERNELS.json --benchmark_out_format=json)
  # Informational, never gated: the arity-3 counting pair (release-scan's
  # marginal shape), dispatched kernel vs its pinned scalar reference.
  awk '
    /"name":/ { gsub(/[",]/, ""); name = $2 }
    /"real_time":/ && !(name in t) { gsub(/,/, ""); t[name] = $2 + 0 }
    END {
      kern = "BM_CountPlanNKernel"; ref = "BM_CountPlanNScalarRef"
      if ((kern in t) && (ref in t) && t[kern] > 0)
        printf "kernel speedup %s (not gated): %.2fx (ref %.0f ns, simd %.0f ns)\n",
               kern, t[ref] / t[kern], t[ref], t[kern]
    }' build/bench/BENCH_KERNELS.json
  if grep -q avx2 /proc/cpuinfo 2>/dev/null &&
     [ -z "${IREDUCT_SIMD:-}" ]; then
    awk -v min="${KERNEL_MIN_SPEEDUP:-2}" '
      BEGIN {
        pair["BM_BatchLaplaceKernel/65536"] = "BM_BatchLaplaceScalarRef/65536"
        pair["BM_CountPlanKernel"] = "BM_CountPlanReferenceLoop"
      }
      /"name":/ { gsub(/[",]/, ""); name = $2 }
      /"real_time":/ && !(name in t) { gsub(/,/, ""); t[name] = $2 + 0 }
      END {
        ok = 1
        for (kern in pair) {
          ref = pair[kern]
          if (!(kern in t) || !(ref in t) || t[kern] <= 0) {
            printf "KERNEL GATE: missing bench %s or %s\n", kern, ref
            ok = 0
            continue
          }
          s = t[ref] / t[kern]
          printf "kernel speedup %s: %.2fx (ref %.0f ns, simd %.0f ns)\n",
                 kern, s, t[ref], t[kern]
          if (s < min) {
            printf "KERNEL GATE FAILURE: %s %.2fx < %.1fx\n", kern, s, min
            ok = 0
          }
        }
        exit ok ? 0 : 1
      }' build/bench/BENCH_KERNELS.json
  else
    echo "perf: no AVX2 (or IREDUCT_SIMD set) — kernel gate skipped"
  fi
  exit 0
fi

cmake --build --preset "$preset" -j "$(nproc)"
ctest --preset "$preset" -j "$(nproc)"
