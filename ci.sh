#!/usr/bin/env bash
# Offline CI gate: formatting, lints, and the full test suite.
# Must pass on an air-gapped machine with only the Rust toolchain.
set -euo pipefail
cd "$(dirname "$0")"

echo "== cargo fmt --check =="
cargo fmt --all -- --check

echo "== cargo clippy (all targets, warnings are errors) =="
# Three pedantic lints are promoted to hard errors on top of the default
# set: missing #[must_use], by-value arguments that should borrow, and
# expression-statement tails missing their semicolon.
cargo clippy --workspace --all-targets -- -D warnings \
  -D clippy::must_use_candidate \
  -D clippy::needless_pass_by_value \
  -D clippy::semicolon_if_nothing_returned

echo "== cargo doc (warnings are errors) =="
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps -q

echo "== cargo test =="
cargo test --workspace -q

echo "== miri (optional, nightly): trace store codec roundtrips =="
if cargo +nightly miri --version > /dev/null 2>&1; then
  MIRIFLAGS="-Zmiri-disable-isolation" \
    cargo +nightly miri test -p oslay-tracestore --lib -- varint codec
else
  echo "miri unavailable (no nightly toolchain with miri); skipping"
fi

echo "== layout lint gate: every layout verifies clean =="
tmpdir="$(mktemp -d)"
cargo run --release -q -p oslay-bench --bin lint -- \
  --scale tiny --layout all --deny warnings > "$tmpdir/lint.txt"
grep -q "0 error(s), 0 warning(s)" "$tmpdir/lint.txt"

echo "== layout lint gate: mutations must fail with their KV code =="
for m in "block-swap:KV002" "loop-shift:KV004" "scf-overlap:KV005"; do
  mutation="${m%%:*}"
  code="${m##*:}"
  if cargo run --release -q -p oslay-bench --bin lint -- \
      --scale tiny --mutate "$mutation" > "$tmpdir/mutate.txt"; then
    echo "mutation $mutation passed the lint (should have failed)" >&2
    exit 1
  fi
  grep -q "$code" "$tmpdir/mutate.txt"
done
rm -rf "$tmpdir"

echo "== diag smoke (tiny workload) + results schema check =="
# The smoke run writes its report into a scratch results/ so the committed
# paper-scale artifacts stay untouched; the schema check then validates
# both the fresh report and everything committed under results/.
tmpdir="$(mktemp -d)"
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" -p oslay-bench --bin diag -- \
    --compare base opts --scale tiny > /dev/null
  cargo run --release -q --manifest-path "$OLDPWD/Cargo.toml" -p oslay-bench --bin diag -- \
    --check-results
)
rm -rf "$tmpdir"
cargo run --release -q -p oslay-bench --bin diag -- --check-results

echo "== bench_sim smoke + schema check =="
tmpdir="$(mktemp -d)"
cargo run --release -q -p oslay-bench --bin bench_sim -- \
  --smoke --out "$tmpdir/BENCH_sim.json" --history "$tmpdir/hist.jsonl" > /dev/null

echo "== bench history trend gate (synthetic baselines, both verdicts) =="
# Against an implausibly slow history the gate must pass...
sed -E 's/"events_per_sec":[0-9.eE+-]+/"events_per_sec":0.001/g' \
  "$tmpdir/hist.jsonl" > "$tmpdir/hist_slow.jsonl"
cargo run --release -q -p oslay-bench --bin bench_sim -- \
  --smoke --out "$tmpdir/BENCH_sim.json" \
  --history "$tmpdir/hist_slow.jsonl" --gate > /dev/null
# ...and against an impossibly fast one it must fail with exit 1.
sed -E 's/"events_per_sec":[0-9.eE+-]+/"events_per_sec":1e15/g' \
  "$tmpdir/hist.jsonl" > "$tmpdir/hist_fast.jsonl"
if cargo run --release -q -p oslay-bench --bin bench_sim -- \
    --smoke --out "$tmpdir/BENCH_sim.json" \
    --history "$tmpdir/hist_fast.jsonl" --gate > /dev/null 2>&1; then
  echo "trend gate passed against an impossibly fast baseline" >&2
  exit 1
fi

echo "== thread-count determinism (1 vs 2 workers, tiny digest) =="
repo_root="$PWD"
for t in 1 2; do
  mkdir -p "$tmpdir/t$t/results"
  (
    cd "$tmpdir/t$t"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin all_experiments -- \
      --scale tiny --threads "$t" > stdout.txt
  )
done
diff "$tmpdir/t1/stdout.txt" "$tmpdir/t2/stdout.txt"
# Wall-clock spans and allocator telemetry are the only fields allowed to
# differ between worker counts.
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'
diff <(grep -vE "$nondet" "$tmpdir/t1/results/all_experiments.json") \
     <(grep -vE "$nondet" "$tmpdir/t2/results/all_experiments.json")
rm -rf "$tmpdir"

echo "== paper-scale Figure 12 reproduces the committed results =="
# The matrix's stdout and its deterministic report fields — the
# aggregate stats and the `cache.*` counters each replay posts — must
# equal the committed paper-scale artifacts byte for byte.
tmpdir="$(mktemp -d)"
repo_root="$PWD"
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale paper --threads 2 > stdout.txt 2> /dev/null
)
diff "$tmpdir/stdout.txt" results/fig12_optimization_levels.txt
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'
diff <(grep -vE "$nondet" "$tmpdir/results/fig12_optimization_levels.json") \
     <(grep -vE "$nondet" results/fig12_optimization_levels.json)
rm -rf "$tmpdir"

echo "== paper-scale results contract: every committed results/<name>.txt reproduces =="
# Each experiment binary behind a committed results/<name>.txt reruns at
# paper scale in a scratch directory; its stdout must equal the committed
# file byte for byte and, where a results/<name>.json is committed, the
# report's deterministic fields must equal it too. Figure 12 has its own
# step above; diag and analyze run with their recorded arguments.
tmpdir="$(mktemp -d)"
repo_root="$PWD"
for committed in results/*.txt; do
  name="$(basename "$committed" .txt)"
  case "$name" in
    fig12_optimization_levels) continue ;;
    diag_base_vs_opts) cmd=(--bin diag -- --compare base opts) ;;
    analyze) cmd=(--bin analyze -- --layout all --gate) ;;
    *) cmd=(--bin "$name" --) ;;
  esac
  mkdir -p "$tmpdir/$name/results"
  (
    cd "$tmpdir/$name"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" -p oslay-bench \
      "${cmd[@]}" --scale paper --threads 2 > stdout.txt 2> /dev/null
  )
  diff "$tmpdir/$name/stdout.txt" "$committed"
  if [ -f "results/$name.json" ]; then
    diff <(grep -vE "$nondet" "$tmpdir/$name/results/$name.json") \
         <(grep -vE "$nondet" "results/$name.json")
  fi
done
rm -rf "$tmpdir"

echo "== flight recorder gate: schema-valid trace, stdout unperturbed =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 > plain.txt 2> /dev/null
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 --trace-out trace.json > traced.txt 2> /dev/null
)
# Tracing must not perturb the experiment's stdout...
diff "$tmpdir/plain.txt" "$tmpdir/traced.txt"
# ...and the trace must pass the trace-event schema checker (balanced
# events, per-track monotonic timestamps, spans nested in their parents)
# and render through both terminal views.
cargo run --release -q -p oslay-bench --bin perf -- \
  check --in "$tmpdir/trace.json"
cargo run --release -q -p oslay-bench --bin perf -- \
  top --in "$tmpdir/trace.json" --n 5 > /dev/null
cargo run --release -q -p oslay-bench --bin perf -- \
  timeline --in "$tmpdir/trace.json" > /dev/null
# A truncated trace must be rejected.
head -c 200 "$tmpdir/trace.json" > "$tmpdir/broken.json"
if cargo run --release -q -p oslay-bench --bin perf -- \
    check --in "$tmpdir/broken.json" > /dev/null 2>&1; then
  echo "perf check accepted a truncated trace" >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "== trace store gate: record -> verify -> replay reproducibility =="
tmpdir="$(mktemp -d)"
cargo run --release -q -p oslay-bench --bin trace -- \
  record --scale tiny --threads 2 --dir "$tmpdir/archive" > /dev/null
cargo run --release -q -p oslay-bench --bin trace -- \
  verify --dir "$tmpdir/archive" --threads 2 > /dev/null
# An archived replay must be byte-identical to a live one — stdout and
# deterministic report both — at 1 and 2 workers.
for t in 1 2; do
  cargo run --release -q -p oslay-bench --bin trace -- \
    replay --scale tiny --threads "$t" --dir "$tmpdir/archive" \
    --out "$tmpdir/replay_archive_$t.json" > "$tmpdir/replay_archive_$t.txt" 2> /dev/null
  cargo run --release -q -p oslay-bench --bin trace -- \
    replay --scale tiny --threads "$t" --live \
    --out "$tmpdir/replay_live_$t.json" > "$tmpdir/replay_live_$t.txt" 2> /dev/null
done
for v in archive_2 live_1 live_2; do
  diff "$tmpdir/replay_archive_1.txt" "$tmpdir/replay_$v.txt"
  diff "$tmpdir/replay_archive_1.json" "$tmpdir/replay_$v.json"
done
# A flipped payload byte must fail verification (and name the block).
store="$tmpdir/archive/shell.otr"
byte="$(od -An -tu1 -j1000 -N1 "$store" | tr -d ' ')"
printf "$(printf '\\%03o' $(( byte ^ 255 )))" \
  | dd of="$store" bs=1 seek=1000 conv=notrunc status=none
if cargo run --release -q -p oslay-bench --bin trace -- \
    verify --file "$store" 2> "$tmpdir/verify_err.txt"; then
  echo "corrupted store passed verification" >&2
  exit 1
fi
grep -q "corrupt block" "$tmpdir/verify_err.txt"
rm -rf "$tmpdir"

echo "== sweep engine gate: single-pass vs per-point, 1 and 2 workers =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
for mode in single-pass per-point; do
  for t in 1 2; do
    d="$tmpdir/${mode}_t$t"
    mkdir -p "$d/results"
    (
      cd "$d"
      cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
        -p oslay-bench --bin fig15_cache_size_speedup -- \
        --scale tiny --threads "$t" "--$mode" > stdout.txt 2> /dev/null
    )
  done
done
# The rendered figure must be byte-identical across modes and worker
# counts...
for v in single-pass_t2 per-point_t1 per-point_t2; do
  diff "$tmpdir/single-pass_t1/stdout.txt" "$tmpdir/$v/stdout.txt"
done
# ...the run report must be worker-count invariant within each mode (wall
# clock and allocator telemetry aside)...
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'
for mode in single-pass per-point; do
  diff <(grep -vE "$nondet" "$tmpdir/${mode}_t1/results/fig15_cache_size_speedup.json") \
       <(grep -vE "$nondet" "$tmpdir/${mode}_t2/results/fig15_cache_size_speedup.json")
done
# ...and across modes every figure section and metric must agree; only
# the phase-span counts may differ (single-pass records one replay pass
# per case, per-point one per grid point).
crossdet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes|count)"'
diff <(grep -vE "$crossdet" "$tmpdir/single-pass_t1/results/fig15_cache_size_speedup.json") \
     <(grep -vE "$crossdet" "$tmpdir/per-point_t1/results/fig15_cache_size_speedup.json")
rm -rf "$tmpdir"

echo "== sweep engine gate: fig17 (several banks, 8-way) across modes and workers =="
# The same three diffs as the fig15 gate, on the grid that spans four line
# sizes (four banks) and 1-8 ways (one level per set count, 8 deep).
tmpdir="$(mktemp -d)"
for mode in single-pass per-point; do
  for t in 1 2; do
    d="$tmpdir/${mode}_t$t"
    mkdir -p "$d/results"
    (
      cd "$d"
      cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
        -p oslay-bench --bin fig17_line_assoc -- \
        --scale tiny --threads "$t" "--$mode" > stdout.txt 2> /dev/null
    )
  done
done
for v in single-pass_t2 per-point_t1 per-point_t2; do
  diff "$tmpdir/single-pass_t1/stdout.txt" "$tmpdir/$v/stdout.txt"
done
for mode in single-pass per-point; do
  diff <(grep -vE "$nondet" "$tmpdir/${mode}_t1/results/fig17_line_assoc.json") \
       <(grep -vE "$nondet" "$tmpdir/${mode}_t2/results/fig17_line_assoc.json")
done
diff <(grep -vE "$crossdet" "$tmpdir/single-pass_t1/results/fig17_line_assoc.json") \
     <(grep -vE "$crossdet" "$tmpdir/per-point_t1/results/fig17_line_assoc.json")
rm -rf "$tmpdir"

echo "== telemetry gate: inert probes, worker-invariant timeline, dash 0/1 =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
(
  cd "$tmpdir"
  mkdir -p results
  # Baseline: telemetry off.
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin fig12_optimization_levels -- \
    --scale tiny --threads 2 > plain.txt 2> /dev/null
  mv results/fig12_optimization_levels.json report_plain.json
  # Telemetry on, at 1 and 2 workers.
  for t in 1 2; do
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin fig12_optimization_levels -- \
      --scale tiny --threads "$t" --telemetry-out "tel$t.json" \
      > "out$t.txt" 2> /dev/null
    mv results/fig12_optimization_levels.json "report$t.json"
  done
)
# Telemetry must not perturb the experiment: stdout identical with the
# probe off, on at 1 worker, and on at 2 workers...
diff "$tmpdir/plain.txt" "$tmpdir/out1.txt"
diff "$tmpdir/out1.txt" "$tmpdir/out2.txt"
# ...and the deterministic report fields must not change either.
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'
diff <(grep -vE "$nondet" "$tmpdir/report_plain.json") \
     <(grep -vE "$nondet" "$tmpdir/report1.json")
diff <(grep -vE "$nondet" "$tmpdir/report1.json") \
     <(grep -vE "$nondet" "$tmpdir/report2.json")
# The telemetry stream itself is simulated-time only, so worker count
# must not leak into it: byte-identical at 1 vs 2 workers.
cmp "$tmpdir/tel1.json" "$tmpdir/tel2.json"
# The dashboard validator accepts a fresh document (exit 0)...
cargo run --release -q -p oslay-bench --bin dash -- \
  --check --telemetry "$tmpdir/tel1.json"
# ...renders it through both views...
cargo run --release -q -p oslay-bench --bin dash -- \
  --term --telemetry "$tmpdir/tel1.json" > /dev/null
cargo run --release -q -p oslay-bench --bin dash -- \
  --telemetry "$tmpdir/tel1.json" --results "$tmpdir" \
  --history "$tmpdir/no_history.jsonl" --out "$tmpdir/dash.html" > /dev/null
grep -q '<svg' "$tmpdir/dash.html"
# ...and rejects a truncated document with exit 1.
head -c 120 "$tmpdir/tel1.json" > "$tmpdir/broken.json"
if cargo run --release -q -p oslay-bench --bin dash -- \
    --check --telemetry "$tmpdir/broken.json" > /dev/null 2>&1; then
  echo "dash --check accepted a truncated telemetry document" >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "== layout search gate: determinism, lint-clean winner, flag checks =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
for t in 1 2; do
  d="$tmpdir/t$t"
  mkdir -p "$d/results"
  (
    cd "$d"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin search -- \
      --scale tiny --threads "$t" --budget 2000 --restarts 2 \
      --layout-out layout.json > stdout.txt 2> /dev/null
  )
done
# The whole pipeline — restart fan-out, replay selection, attributed
# validation — must be byte-identical at 1 vs 2 workers: stdout, the
# exported winning layout, and the run report (telemetry fields aside).
diff "$tmpdir/t1/stdout.txt" "$tmpdir/t2/stdout.txt"
cmp "$tmpdir/t1/layout.json" "$tmpdir/t2/layout.json"
nondet='"(secs|alloc_calls|alloc_bytes|live_bytes|peak_bytes)"'
diff <(grep -vE "$nondet" "$tmpdir/t1/results/search.json") \
     <(grep -vE "$nondet" "$tmpdir/t2/results/search.json")
# The exported winner must re-assemble and lint clean from disk.
cargo run --release -q -p oslay-bench --bin lint -- \
  --scale tiny --layout-file "$tmpdir/t1/layout.json" --deny warnings \
  > "$tmpdir/lint.txt"
grep -q "0 error(s), 0 warning(s)" "$tmpdir/lint.txt"
# An invalid budget must fail fast with the usage text, not search.
if cargo run --release -q -p oslay-bench --bin search -- \
    --scale tiny --budget banana > /dev/null 2> "$tmpdir/err.txt"; then
  echo "search accepted a non-numeric --budget" >&2
  exit 1
fi
grep -q -- "--budget must be an integer" "$tmpdir/err.txt"
grep -q "common experiment flags" "$tmpdir/err.txt"
# A truncated flag (missing value) must fail the same way.
if cargo run --release -q -p oslay-bench --bin search -- \
    --scale tiny --budget > /dev/null 2> "$tmpdir/err2.txt"; then
  echo "search accepted a --budget with no value" >&2
  exit 1
fi
grep -q -- "--budget needs a value" "$tmpdir/err2.txt"
rm -rf "$tmpdir"

echo "== absint gate: static classes replay-sound, mutations detected =="
tmpdir="$(mktemp -d)"
repo_root="$PWD"
# The soundness gate must hold on every layout (including the searched
# one): zero measured misses on always-hit lines, at most one per
# persistent line, across all four workloads.
(
  cd "$tmpdir"
  mkdir -p results
  cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
    -p oslay-bench --bin analyze -- \
    --scale tiny --layout all --search-budget 2000 --gate \
    --class-out classes.json > gate.txt
)
grep -q "soundness gate: PASS" "$tmpdir/gate.txt"
# The gate's tables and verdicts must not depend on the worker count.
for t in 1 2; do
  (
    cd "$tmpdir"
    cargo run --release -q --manifest-path "$repo_root/Cargo.toml" \
      -p oslay-bench --bin analyze -- \
      --scale tiny --layout all --search-budget 2000 --gate \
      --threads "$t" > "gate-t$t.txt"
  )
done
diff "$tmpdir/gate-t1.txt" "$tmpdir/gate-t2.txt"
# A block swap into the most contended set must withdraw at least one
# always-hit guarantee — otherwise the analysis is not actually looking
# at the layout.
cargo run --release -q -p oslay-bench --bin analyze -- \
  --scale tiny --layout opts --mutate block-swap > "$tmpdir/mutate.txt"
grep -q "always-hit guarantee(s) withdrawn" "$tmpdir/mutate.txt"
# The exported classification round-trips through --check...
cargo run --release -q -p oslay-bench --bin analyze -- \
  --check "$tmpdir/classes.json" > /dev/null
# ...and a corrupted tally must be rejected with exit 1.
sed -E 's/"count":\[[0-9]+/"count":[999999/' "$tmpdir/classes.json" \
  > "$tmpdir/broken.json"
if cargo run --release -q -p oslay-bench --bin analyze -- \
    --check "$tmpdir/broken.json" > /dev/null 2>&1; then
  echo "analyze --check accepted a corrupted classification" >&2
  exit 1
fi
rm -rf "$tmpdir"

echo "CI OK"
