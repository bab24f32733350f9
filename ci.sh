#!/usr/bin/env bash
# Tier-1 gate plus the runtime-crate lint wall and the runtime benchmark
# artifact. Run from the repo root; fails fast on the first broken step.
set -euo pipefail
cd "$(dirname "$0")"

echo "==> tier-1: release build"
cargo build --release

echo "==> tier-1: test suite"
cargo test -q

echo "==> benchmark: builds against the crates and passes its self-tests"
# perfbench/ is a separate cargo workspace that depends on the crates by
# path; nothing else compiles it, so an API change in a crate it calls
# would otherwise break the benchmark unnoticed.
cargo test --offline --manifest-path perfbench/Cargo.toml

echo "==> format: first-party crates must be rustfmt-clean (vendor/ excluded)"
cargo fmt --check \
  -p shift-peel -p sp-ir -p sp-dep -p shift-peel-core -p sp-cache \
  -p sp-exec -p sp-trace -p sp-kernels -p sp-baselines -p sp-machine \
  -p sp-bench -p sp-cli -p sp-serve -p sp-net

echo "==> lint wall: runtime + observability + serving crates must be clippy-clean"
cargo clippy -p sp-exec -p sp-trace -p sp-cli -p sp-serve -p sp-net -- -D warnings

echo "==> differential fuzzing: backends (interp/compiled/simd) x schedules x runtimes"
# The vendored proptest derives its seed from the test name, so this
# sweep is deterministic run to run — a fixed-seed regression gate. The
# suite includes the simd parity gate: lane-blocked execution must match
# the interpreter bit for bit, including ragged trips and peel widths.
cargo test --release -q --test differential

echo "==> backend smoke: compiled, interp, and simd on jacobi"
# Each run verifies against serial execution internally; running all
# backends pins the CLI path end to end. The simd run must report a
# nonzero vectorized-iteration count.
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend interp
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend compiled
simd_out="$(mktemp /tmp/spfc-simd-smoke.XXXXXX)"
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend simd | tee "$simd_out"
grep -Eq 'vectorized [1-9][0-9]* of' "$simd_out"
rm -f "$simd_out"

echo "==> observability: traced run, trace schema check, explain golden"
# A traced jacobi run must export a Chrome trace that passes the schema
# check and Prometheus metrics with the run's counters; the explain
# trace for LL18 is pinned as a golden file (UPDATE_GOLDEN=1 to refresh).
trace_tmp="$(mktemp /tmp/spfc-trace.XXXXXX.json)"
metrics_tmp="$(mktemp /tmp/spfc-metrics.XXXXXX.prom)"
cargo run --release -p sp-cli -- run examples/programs/jacobi.loop \
  --procs 4 --steps 3 --backend compiled --executor pooled \
  --trace-out "$trace_tmp" --metrics-out "$metrics_tmp"
cargo run --release -p sp-cli -- trace-check "$trace_tmp"
grep -q '^spfc_iters_total' "$metrics_tmp"
grep -q '^spfc_barrier_wait_nanos_bucket' "$metrics_tmp"
rm -f "$trace_tmp" "$metrics_tmp"
cargo test --release -q -p sp-cli --test explain_golden
# The same golden end to end through the binary: `spfc explain` now
# plans through the pass pipeline (Planner), and the rendered trace
# must stay byte-identical to the pinned file.
explain_tmp="$(mktemp /tmp/spfc-explain.XXXXXX)"
cargo run --release -p sp-cli -- explain ll18 > "$explain_tmp"
diff -u crates/cli/tests/golden/explain_ll18.txt "$explain_tmp"
rm -f "$explain_tmp"

echo "==> bench baselines: snapshot committed artifacts before regeneration"
# The regression gate at the bottom compares freshly regenerated
# artifacts against the versions committed in the tree, so copy them
# aside before the bench binaries overwrite them.
bench_baseline="$(mktemp -d /tmp/spfc-bench-baseline.XXXXXX)"
cp results/BENCH_runtime.json results/BENCH_serve.json \
  results/BENCH_net.json "$bench_baseline"/

echo "==> runtime comparison -> results/BENCH_runtime.json"
mkdir -p results
runtime_out="$(mktemp /tmp/spfc-runtime-out.XXXXXX)"
cargo run --release -p sp-bench --bin runtime -- --quick | tee "$runtime_out"
# The simd column must be present in the artifact and non-regressing:
# lane-blocked interiors at >= 2x interpreter throughput on every
# kernel's acceptance line (the binary itself asserts miss parity).
grep -q '"simd"' results/BENCH_runtime.json
awk '/simd\/interp throughput/ {
  n += 1
  for (i = 1; i < NF; i++) if ($i == "=") { ratio = $(i + 1); sub(/x$/, "", ratio) }
  if (ratio + 0 < 2.0) { print "FAIL: simd below 2x interp: " $0; bad = 1 }
}
END { if (n == 0) { print "FAIL: no simd/interp acceptance lines"; exit 1 } exit bad }' "$runtime_out"
# Adaptive scheduling gate: the skewed-load sweep (same seed, all three
# schedules, bit-for-bit verified inside the binary) must show stealing
# strictly flattening the busy-time imbalance relative to static
# blocking, with at least one steal actually happening. The schedule
# differential gate itself runs in the fuzzing step above
# (adaptive_schedules_agree in tests/differential.rs).
grep -q '"skewed"' results/BENCH_runtime.json
awk '/^skewed: time imbalance/ {
  n += 1
  for (i = 1; i <= NF; i++) {
    if ($i ~ /^static=/)   { st = $i;    sub(/^static=/, "", st) }
    if ($i ~ /^stealing=/) { steal = $i; sub(/^stealing=/, "", steal) }
    if ($i ~ /^steals=/)   { cnt = $i;   sub(/^steals=/, "", cnt) }
  }
  if (steal + 0 >= st + 0) { print "FAIL: stealing imbalance " steal " not below static " st; bad = 1 }
  if (cnt + 0 < 1) { print "FAIL: no steals recorded on the skewed load"; bad = 1 }
}
END { if (n == 0) { print "FAIL: no skewed acceptance line"; exit 1 } exit bad }' "$runtime_out"
rm -f "$runtime_out"

echo "==> serving: manifest smoke x2, persistent cache must hit on the rerun"
# The same manifest served twice against one on-disk cache: the second
# process must start warm (disk hits), and the lifetime stats file must
# aggregate across both processes.
serve_cache="$(mktemp -d /tmp/spfc-serve-cache.XXXXXX)"
serve_out="$(mktemp /tmp/spfc-serve-out.XXXXXX)"
cargo run --release -p sp-cli -- serve --jobs examples/jobs.manifest \
  --cache-dir "$serve_cache" | tee "$serve_out"
grep -q '0 failed' "$serve_out"
# The manifest includes full-key misses over a shared sequence (backend
# and block-size variants of jacobi): the analysis tier must serve the
# dependence analysis across them.
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- serve --jobs examples/jobs.manifest \
  --cache-dir "$serve_cache" | tee "$serve_out"
grep -q '0 failed' "$serve_out"
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- cache stats --cache-dir "$serve_cache" \
  | tee "$serve_out"
grep -Eq 'lifetime: [1-9][0-9]* hits' "$serve_out"
grep -Eq 'analysis: [1-9][0-9]* hits' "$serve_out"
cargo run --release -p sp-cli -- cache clear --cache-dir "$serve_cache" \
  | tee "$serve_out"
grep -q 'cleared' "$serve_out"
rm -rf "$serve_cache" "$serve_out"

echo "==> serve observability: traced session export + overhead gate (<=5%)"
# A heavier manifest than the smoke (so wall time is ~0.2s, large enough
# for a stable ratio): the whole traced session must export ONE valid
# Chrome trace, the metrics snapshot must carry the per-stage labeled
# histograms and outcome counters, and tracing the session must not cost
# more than 5% wall time (best-of-3 each way).
load_manifest="$(mktemp /tmp/spfc-load.XXXXXX.manifest)"
cat > "$load_manifest" <<'MANIFEST'
job load-jacobi kernel=jacobi grid=2x2 steps=6 strip=8 repeat=40
job load-ll18   kernel=ll18   procs=4  steps=6 repeat=25
MANIFEST
session_trace="$(mktemp /tmp/spfc-session.XXXXXX.json)"
session_prom="$(mktemp /tmp/spfc-session.XXXXXX.prom)"
plain_best=1e9
traced_best=1e9
for _ in 1 2 3; do
  s="$(cargo run --release -q -p sp-cli -- serve --jobs "$load_manifest" \
    | grep -Eo 'in [0-9.]+ s' | awk '{print $2}')"
  plain_best="$(awk -v a="$plain_best" -v b="$s" 'BEGIN{print (b+0 < a+0) ? b : a}')"
done
for _ in 1 2 3; do
  s="$(cargo run --release -q -p sp-cli -- serve --jobs "$load_manifest" \
    --trace-out "$session_trace" --metrics-out "$session_prom" \
    | grep -Eo 'in [0-9.]+ s' | awk '{print $2}')"
  traced_best="$(awk -v a="$traced_best" -v b="$s" 'BEGIN{print (b+0 < a+0) ? b : a}')"
done
awk -v p="$plain_best" -v t="$traced_best" 'BEGIN {
  ratio = t / p
  printf "traced/untraced serve wall: %.3f (traced %.3fs, untraced %.3fs)\n", ratio, t, p
  if (ratio > 1.05) { print "FAIL: traced serve overhead above 5%"; exit 1 }
}'
cargo run --release -p sp-cli -- trace-check "$session_trace"
grep -q '^spfc_serve_jobs_total{component="sp-serve",outcome="ok"} 65$' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="execute",le="+Inf"} 65$' "$session_prom"
grep -q '^spfc_serve_stage_nanos_bucket{component="sp-serve",stage="queue_wait"' "$session_prom"
rm -f "$load_manifest" "$session_trace" "$session_prom"

echo "==> wire tier: socket server smoke, pipelined + serial submits, drain over TCP"
# A real SPFC server on an ephemeral port, two tenants submitting
# concurrently over separate connections — one pipelining its jobs
# through a single keep-alive connection (--window), one submitting
# serially. The first submission of each program compiles (miss);
# repeats must come back from the artifact cache (hit). The drain frame
# must quiesce the server, whose summary accounts for both tenants and
# the program registry.
net_addr="$(mktemp /tmp/spfc-net-addr.XXXXXX)"
net_log="$(mktemp /tmp/spfc-net-serve.XXXXXX)"
sub_a="$(mktemp /tmp/spfc-net-suba.XXXXXX)"
sub_b="$(mktemp /tmp/spfc-net-subb.XXXXXX)"
: > "$net_addr"
cargo run --release -q -p sp-cli -- serve --listen 127.0.0.1:0 \
  --addr-file "$net_addr" --workers 2 > "$net_log" 2>&1 &
net_pid=$!
for _ in $(seq 100); do
  [ -s "$net_addr" ] && break
  sleep 0.1
done
[ -s "$net_addr" ] || { echo "FAIL: wire server never published its address"; exit 1; }
addr="$(cat "$net_addr")"
cargo run --release -q -p sp-cli -- submit --connect "$addr" jacobi \
  --tenant ci-a --procs 2 --steps 3 --window 4 --repeat 3 > "$sub_a" 2>&1 &
pid_a=$!
( for _ in 1 2 3; do
    cargo run --release -q -p sp-cli -- submit --connect "$addr" \
      examples/programs/jacobi.loop --tenant ci-b --procs 2 --steps 3
  done ) > "$sub_b" 2>&1 &
pid_b=$!
wait "$pid_a"
wait "$pid_b"
# Every submit line carries a digest; someone compiled (miss) and the
# repeats must come back from the artifact cache (hit) on both tenants.
grep -q 'tenant=ci-a' "$sub_a"
grep -q 'tenant=ci-b' "$sub_b"
grep -qh ' miss ' "$sub_a" "$sub_b"
grep -q ' hit ' "$sub_a"
grep -q ' hit ' "$sub_b"
# The pipelined tenant reports its window and throughput.
grep -q 'pipelined 3 jobs, window 4' "$sub_a"
if grep -qi 'error' "$sub_a" "$sub_b"; then
  echo "FAIL: wire submissions reported protocol errors"
  exit 1
fi
cargo run --release -q -p sp-cli -- submit --connect "$addr" drain
wait "$net_pid"
grep -q 'drained:' "$net_log"
grep -q 'tenant ci-a' "$net_log"
grep -q 'tenant ci-b' "$net_log"
# The drained summary surfaces the bounded program registry's counters.
grep -q 'programs: .* registered' "$net_log"
rm -f "$net_addr" "$net_log" "$sub_a" "$sub_b"

echo "==> serving benchmark -> results/BENCH_serve.json (warm must beat cold)"
cargo run --release -p sp-bench --bin serve -- --quick
test -s results/BENCH_serve.json
grep -q '"digest_match":true' results/BENCH_serve.json

echo "==> wire-tier benchmark -> results/BENCH_net.json (digests must match)"
cargo run --release -p sp-bench --bin net -- --quick
test -s results/BENCH_net.json
grep -q '"digest_match":true' results/BENCH_net.json
grep -q '"clients":1' results/BENCH_net.json
# The pipelined column must be present (bench check fails on a missing
# metric) and must have beaten the single-in-flight column.
grep -q '"pipelined":{"window":4' results/BENCH_net.json
grep -q '"speedup_over_serial":1\.[2-9]' results/BENCH_net.json

echo "==> bench regression gate: fresh results vs committed baselines"
verdict="$(mktemp /tmp/spfc-verdict.XXXXXX.json)"
cargo run --release -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir results --json-out "$verdict"
grep -q '"passed":true' "$verdict"
# The gate must actually gate: inject a warm-over-cold collapse into a
# scratch copy of the fresh results and require a nonzero exit.
corrupt="$(mktemp -d /tmp/spfc-bench-corrupt.XXXXXX)"
cp results/BENCH_runtime.json results/BENCH_net.json "$corrupt"/
sed 's/"warm_over_cold":[0-9.eE+-]*/"warm_over_cold":0.01/' \
  results/BENCH_serve.json > "$corrupt/BENCH_serve.json"
if cargo run --release -q -p sp-cli -- bench check \
  --baseline-dir "$bench_baseline" --current-dir "$corrupt" >/dev/null 2>&1; then
  echo "FAIL: bench check passed an injected regression"
  exit 1
fi
rm -rf "$corrupt" "$verdict" "$bench_baseline"

echo "==> ci.sh: all green"
