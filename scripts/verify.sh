#!/usr/bin/env bash
# Full verification gate: build, lint, test. Run from the repo root.
#
#   scripts/verify.sh          # everything, full test depth
#   scripts/verify.sh --fast   # skip the release build, cap proptest
#                              # cases, skip #[ignore]d slow tests
set -euo pipefail
cd "$(dirname "$0")/.."

fast=0
[ "${1:-}" = "--fast" ] && fast=1

echo "== clippy (lints are errors; unwrap/expect denied in library code) =="
cargo clippy --workspace --all-targets -- -D warnings

if [ "$fast" -eq 0 ]; then
  echo "== release build =="
  cargo build --release
fi

echo "== tests =="
if [ "$fast" -eq 1 ]; then
  # Shallow-but-wide: every test runs, property tests at reduced depth,
  # #[ignore]d slow simulations excluded.
  PROPTEST_CASES=32 cargo test --workspace -q
else
  # Full depth, including #[ignore]d slow tests.
  cargo test --workspace -q -- --include-ignored
fi

echo "== hostbench (benchmark crate builds; its contract tests pass) =="
# hostbench/ is its own workspace: the root build never compiles it.
# It imports execute_with, execute_fused, execute_reference,
# Supervisor::run, run_pipeline and the callback types, and its
# contract tests check the bitwise replay, fused and supervised outputs,
# so a library change that breaks either fails here, not only when the
# benchmark runs. CI runs it as its own step, so --fast skips it.
if [ "$fast" -eq 1 ]; then
  echo "hostbench: skipped (--fast; CI runs it as its own step)"
else
  cargo test --release -q --manifest-path hostbench/Cargo.toml
fi

echo "== tuner smoke (cache hit + wisdom reuse) =="
wisdom="$(mktemp -t bwfft-wisdom.XXXXXX)"
rm -f "$wisdom"
benchdir="$(mktemp -d -t bwfft-bench.XXXXXX)"
trap 'rm -f "$wisdom"; rm -rf "$benchdir"' EXIT
# Fresh run: the second in-process request for the same shape must be a
# cache hit (exactly one search).
out1="$(cargo run -q --bin bwfft-cli -- tune --dims 32x32 --model-only --plan-stats --wisdom "$wisdom")"
echo "$out1" | grep -q "hits=1 misses=1" \
  || { echo "tuner smoke FAILED: expected hits=1 misses=1 in:"; echo "$out1"; exit 1; }
# Second run: the wisdom file must make tuning skip entirely.
out2="$(cargo run -q --bin bwfft-cli -- tune --dims 32x32 --model-only --plan-stats --wisdom "$wisdom")"
echo "$out2" | grep -q "tuning skipped (wisdom hit)" \
  || { echo "tuner smoke FAILED: wisdom not reused in:"; echo "$out2"; exit 1; }
echo "$out2" | grep -q "misses=0" \
  || { echo "tuner smoke FAILED: expected misses=0 in:"; echo "$out2"; exit 1; }
# Third run: a version-1 file, whose records carry the retired
# `kernel=` field, must retune with the typed version reason instead of
# failing to parse. Its host line is copied from the saved file.
host_line="$(sed -n 2p "$wisdom")"
printf 'bwfft-wisdom v1\n%s\nplan dims=2d:32x32 dir=fwd mu=4 b=256 pd=1 pc=1 nt=1 exec=fused kernel=r4 meas=1 score_ns=1000\n' \
  "$host_line" > "$wisdom"
out3="$(cargo run -q --bin bwfft-cli -- tune --dims 32x32 --model-only --wisdom "$wisdom")" \
  || { echo "tuner smoke FAILED: v1 wisdom run exited non-zero:"; echo "$out3"; exit 1; }
echo "$out3" | grep -qF "tuning from scratch (wisdom version v1 != supported v2)" \
  || { echo "tuner smoke FAILED: v1 wisdom not retuned by version in:"; echo "$out3"; exit 1; }
# Fourth run: the file the third run rewrote must hit.
out4="$(cargo run -q --bin bwfft-cli -- tune --dims 32x32 --model-only --wisdom "$wisdom")"
echo "$out4" | grep -q "tuning skipped (wisdom hit)" \
  || { echo "tuner smoke FAILED: rewritten wisdom not reused in:"; echo "$out4"; exit 1; }
echo "tuner smoke: OK"

echo "== flag table smoke (a flag outside the subcommand's row is exit 2, named) =="
# refused FLAG ARGS...: `bwfft-cli ARGS` must exit 2 and name FLAG on stderr.
refused() {
  local flag="$1" rc=0
  shift
  cargo run -q --bin bwfft-cli -- "$@" > /dev/null 2> "$benchdir/flag.err" || rc=$?
  [ "$rc" -eq 2 ] \
    || { echo "flag table smoke FAILED: \`$*\` exited $rc, expected 2"; exit 1; }
  grep -qF -- "$flag" "$benchdir/flag.err" \
    || { echo "flag table smoke FAILED: \`$*\` did not name $flag:"; cat "$benchdir/flag.err"; exit 1; }
}
refused --inverse serve --requests 1 --inverse
refused --suite run --dims 8x8 --suite fast
echo "flag table smoke: OK"

echo "== profile smoke (--profile=json emits parseable, finite report) =="
# The JSON trace report is the last line of stdout by contract.
profile_json="$(cargo run -q --bin bwfft-cli -- run --dims 64x64 --threads 2,2 --profile=json | tail -n 1)"
echo "$profile_json" | python3 -c '
import json, math, sys

rep = json.load(sys.stdin)
schema = rep["schema"]
assert schema == "bwfft-trace/1", f"unexpected schema {schema!r}"
assert rep["total_wall_ns"] > 0
assert len(rep["stages"]) == 2, "2D run must profile two stages"
for s in rep["stages"]:
    f = s["overlap_fraction"]
    assert math.isfinite(f) and 0.0 <= f <= 1.0, f"overlap {f}"
    assert s["wall_ns"] > 0
print("profile smoke: OK")
' || { echo "profile smoke FAILED on:"; echo "$profile_json"; exit 1; }

echo "== bench smoke (BENCH json valid; derated gate trips) =="
# A tiny run must produce a valid versioned bwfft-bench/1 record.
cargo run -q --bin bwfft-cli -- bench --suite smoke --reps 2 --warmup 1 \
  --out "$benchdir/BENCH_a.json" > /dev/null
python3 -c '
import json, math, sys

rep = json.load(open(sys.argv[1]))
assert rep["schema"] == "bwfft-bench/1", rep["schema"]
assert rep["suites"], "empty suite list"
for s in rep["suites"]:
    assert s["median_ns"] > 0 and math.isfinite(s["median_ns"])
    assert s["ci_lo_ns"] <= s["median_ns"] <= s["ci_hi_ns"], s["key"]
    assert s["stages"], s["key"]
print("bench record: OK")
' "$benchdir/BENCH_a.json" \
  || { echo "bench smoke FAILED: invalid BENCH record"; exit 1; }
# Gate self-test: the same suite derated 3x must exit nonzero, with
# the machine verdict as the last stdout line saying the gate failed.
if cargo run -q --bin bwfft-cli -- bench --suite smoke --reps 2 --warmup 1 \
     --out "$benchdir/BENCH_b.json" --derate 3 \
     --compare "$benchdir/BENCH_a.json" > "$benchdir/gate.out" 2> "$benchdir/gate.err"; then
  echo "bench smoke FAILED: derated compare did not exit nonzero"; exit 1
fi
grep -q "regression" "$benchdir/gate.err" \
  || { echo "bench smoke FAILED: failure message lacks regression summary:"; cat "$benchdir/gate.err"; exit 1; }
tail -n 1 "$benchdir/gate.out" | python3 -c '
import json, sys

v = json.load(sys.stdin)
assert v["schema"] == "bwfft-bench-verdict/1", v["schema"]
assert v["gate_passes"] is False
assert any(p["verdict"] == "regression" for p in v["pairs"])
print("bench gate: OK")
' || { echo "bench smoke FAILED: bad verdict json:"; tail -n 1 "$benchdir/gate.out"; exit 1; }
echo "bench smoke: OK"

echo "== soak smoke (chaos harness: never wrong, never a panic) =="
# A short seeded pass over the full fault matrix with the supervisor in
# charge; any silent corruption or panic is a hard failure.
soak_out="$(cargo run -q --bin bwfft-cli -- soak --iters 24 --seed 7)"
echo "$soak_out" | grep -q "soak contract holds" \
  || { echo "soak smoke FAILED:"; echo "$soak_out"; exit 1; }
echo "soak smoke: OK"

echo "== serve smoke (overload matrix + open-loop latency record) =="
# A short seeded pass over the concurrent overload matrix (burst /
# oversized / faults / shutdown races): every submission must terminate
# with exactly one typed outcome and every completion must verify.
serve_soak_out="$(cargo run -q --bin bwfft-cli -- soak --iters 4 --seed 7 \
  --serve --serve-iters 12)"
echo "$serve_soak_out" | grep -q "serve soak contract holds" \
  || { echo "serve soak smoke FAILED:"; echo "$serve_soak_out"; exit 1; }
# The open-loop latency bench must emit a valid record whose service
# columns balance, and a self-compare must pass the p99 gate path.
cargo run -q --bin bwfft-cli -- bench --suite serve --requests 16 --workers 2 \
  --queue-depth 8 --seed 42 --out "$benchdir/BENCH_serve.json" > /dev/null
python3 -c '
import json, sys

rep = json.load(open(sys.argv[1]))
assert rep["schema"] == "bwfft-bench/1", rep["schema"]
assert rep["suite_kind"] == "serve", rep["suite_kind"]
m = rep["suites"][0]["serve"]
assert m["submitted"] == m["completed"] + m["deadline_exceeded"] + m["failed"], m
assert m["p99_ns"] >= m["p50_ns"] >= 0.0, m
print("serve record: OK")
' "$benchdir/BENCH_serve.json" \
  || { echo "serve smoke FAILED: invalid serve record"; exit 1; }
cargo run -q --bin bwfft-cli -- bench --current "$benchdir/BENCH_serve.json" \
  --compare "$benchdir/BENCH_serve.json" > /dev/null \
  || { echo "serve smoke FAILED: self-compare tripped the gate"; exit 1; }
echo "serve smoke: OK"

echo "== ooc smoke (out-of-core run survives an injected read fault) =="
# A file-backed transform 4x larger than its working-memory budget,
# with one injected stage-1 read fault: the retry ladder must absorb
# it (faults_hit=1, no wrong answer) and the sampled oracle must hold.
ooc_out="$(cargo run -q --bin bwfft-cli -- ooc --n 4096 --budget 16384 \
  --bins 8 --seed 7 --inject-io-fault read,1,0)"
echo "$ooc_out" | grep -q "ooc contract holds" \
  || { echo "ooc smoke FAILED: oracle contract line missing in:"; echo "$ooc_out"; exit 1; }
echo "$ooc_out" | grep -q "faults_hit=1" \
  || { echo "ooc smoke FAILED: injected fault did not fire in:"; echo "$ooc_out"; exit 1; }
echo "ooc smoke: OK"
# The benchmark's shape: 2^20 points under a 4 MiB budget, where the
# stage-1 twiddle table holds 1024 + 1024 roots. Release build, both
# directions; full mode only (each run is ~2.5 s, mostly the oracle).
if [ "$fast" -eq 1 ]; then
  echo "ooc smoke at 2^20: skipped (--fast)"
else
  for dir_flag in "" "--inverse"; do
    big_out="$(cargo run -q --release --bin bwfft-cli -- ooc --n 1048576 --budget 4194304 $dir_flag)"
    echo "$big_out" | grep -q "ooc contract holds" \
      || { echo "ooc smoke at 2^20 FAILED ($dir_flag): oracle contract line missing in:"; echo "$big_out"; exit 1; }
  done
  echo "ooc smoke at 2^20: OK (forward and inverse)"
fi

echo "== ooc crash smoke (SIGABRT mid-stage, resume from the journal) =="
# Kill a checkpointed run right after block 0 of stage 3 commits its
# journal record (the child genuinely dies by SIGABRT, exit 134), then
# resume in a fresh process: the journal must skip every finished
# block, re-verify the journaled checksums, and the sampled oracle
# must still hold (DESIGN.md §15).
cargo build -q --bin bwfft-cli
crashdir="$benchdir/ooc-crash"
rc=0
./target/debug/bwfft-cli ooc --n 4096 --budget 16384 --seed 7 \
  --workspace "$crashdir" --crash-at 3,0 > /dev/null 2>&1 || rc=$?
[ "$rc" -eq 134 ] \
  || { echo "ooc crash smoke FAILED: expected SIGABRT (exit 134), got $rc"; exit 1; }
[ -f "$crashdir/journal.bwfft" ] \
  || { echo "ooc crash smoke FAILED: killed run left no journal"; exit 1; }
resume_out="$(./target/debug/bwfft-cli ooc --n 4096 --budget 16384 --seed 7 \
  --workspace "$crashdir" --resume --resume-verify all)"
echo "$resume_out" | grep -q "ooc contract holds" \
  || { echo "ooc crash smoke FAILED: oracle broke after resume in:"; echo "$resume_out"; exit 1; }
echo "$resume_out" | grep -q "resume: resumed=true" \
  || { echo "ooc crash smoke FAILED: resume line missing in:"; echo "$resume_out"; exit 1; }
skipped=$(echo "$resume_out" | sed -n 's/.*skipped_blocks=\([0-9]*\).*/\1/p')
[ "${skipped:-0}" -gt 0 ] \
  || { echo "ooc crash smoke FAILED: no blocks skipped on resume in:"; echo "$resume_out"; exit 1; }
echo "ooc crash smoke: OK (skipped_blocks=$skipped)"

echo "== r2c smoke (packed half-spectrum path: differential + Parseval + round trip) =="
r2c_out="$(cargo run -q --bin bwfft-cli -- r2c --dims 16x32 --threads 2,2 --verify)"
echo "$r2c_out" | grep -q "r2c contract holds" \
  || { echo "r2c smoke FAILED: contract line missing in:"; echo "$r2c_out"; exit 1; }
echo "r2c smoke: OK"

echo "== conv smoke (fused spectral convolution: impulse identity + oracles) =="
conv_out="$(cargo run -q --bin bwfft-cli -- conv --dims 16x32 --impulse --verify)"
echo "$conv_out" | grep -q "conv contract holds" \
  || { echo "conv smoke FAILED: contract line missing in:"; echo "$conv_out"; exit 1; }
# The real path rides the same recovery ladder: a compute panic
# mid-stage must escalate, and every check must still hold.
conv_rec_out="$(cargo run -q --bin bwfft-cli -- conv --dims 8x16 --impulse --verify \
  --recover --integrity --inject-panic compute,0,1 --timeout-ms 2000)"
echo "$conv_rec_out" | grep -q "recovered at the" \
  || { echo "conv recovery smoke FAILED: no recovery in:"; echo "$conv_rec_out"; exit 1; }
echo "$conv_rec_out" | grep -q "conv contract holds" \
  || { echo "conv recovery smoke FAILED: contract broke in:"; echo "$conv_rec_out"; exit 1; }
echo "conv smoke: OK"

echo "== recovery smoke (escalation ladder + recovery marks in profile) =="
# A fault that kills both real executors must escalate to the reference
# tier, still verify, and export recovery marks in the profile JSON.
rec_out="$(cargo run -q --bin bwfft-cli -- run --dims 8x8x16 --threads 2,2 \
  --integrity --recover --verify --inject-panic compute,0,1 --timeout-ms 2000 \
  --profile=json)"
echo "$rec_out" | grep -q "recovered at the reference tier" \
  || { echo "recovery smoke FAILED: no escalation to reference in:"; echo "$rec_out"; exit 1; }
echo "$rec_out" | tail -n 1 | python3 -c '
import json, sys

rep = json.load(sys.stdin)
marks = [m for m in rep.get("marks", []) if m["kind"] == "recovery"]
assert marks, "profile JSON lacks recovery marks"
assert any("recovered at reference" in m["label"] for m in marks), marks
print("recovery smoke: OK")
' || { echo "recovery smoke FAILED: bad profile json"; exit 1; }

echo "== integrity overhead gate (guards must cost < 3% median, fast suite) =="
# Deterministic half: replay-compare the committed record pair (one
# paired fast-suite run with the guards armed on the guarded side).
# This asserts the recorded overhead without running anything.
if ! cargo run -q --bin bwfft-cli -- bench \
     --current benchmarks/BENCH_integrity_guarded.json \
     --compare benchmarks/BENCH_integrity_plain.json \
     --threshold 3 > "$benchdir/integrity_replay.out" 2>&1; then
  echo "integrity overhead gate FAILED: committed record pair exceeds 3% median:"
  cat "$benchdir/integrity_replay.out"
  exit 1
fi
echo "integrity overhead gate (recorded pair): OK (< 3% median)"
# Live half (full mode only): a fresh paired run — every timed
# iteration alternates one plain and one guarded rep so machine drift
# cancels out of the pair. Even paired, a single sub-ms shape on this
# 1-CPU VM can spike +25% from scheduler noise, so the live rule is
# shaped for what it exists to catch — a *systematic* guard-cost
# increase: fail on three or more CI-separated regressions beyond 3%
# (a real cost change shows on most pipelined shapes at once), or any
# single shape beyond the catastrophic 40% line.
if [ "$fast" -eq 1 ]; then
  echo "integrity overhead gate (live): skipped (--fast; run the full gate locally)"
else
  if ! cargo run -q --release --bin bwfft-cli -- bench --suite fast --reps 15 --warmup 3 \
       --integrity --baseline-out "$benchdir/BENCH_plain.json" \
       --out "$benchdir/BENCH_guarded.json" \
       --threshold 40 > "$benchdir/integrity.out" 2>&1; then
    echo "integrity overhead gate FAILED: a guarded shape regressed beyond 40%:"
    cat "$benchdir/integrity.out"
    exit 1
  fi
  tail -n 1 "$benchdir/integrity.out" | python3 -c '
import json, sys

v = json.load(sys.stdin)
assert v["schema"] == "bwfft-bench-verdict/1", v["schema"]
bad = [p for p in v["pairs"] if p["delta_pct"] > 3.0 and p["ci_separated"]]
if len(bad) >= 3:
    names = ", ".join("{} {:+.1f}%".format(p["key"], p["delta_pct"]) for p in bad)
    print(f"systematic guard overhead beyond 3% median on {len(bad)} shapes: {names}")
    sys.exit(1)
print(f"live paired run: {len(bad)} isolated shape(s) beyond 3% (noise allowance < 3)")
' || { echo "integrity overhead gate FAILED: systematic cost increase:"; cat "$benchdir/integrity.out"; exit 1; }
  echo "integrity overhead gate (live): OK (no systematic increase)"
fi

echo "== metrics smoke (serve --metrics=json, stat, prometheus text) =="
# A paced serve run with the periodic sink armed: stdout must carry at
# least two bwfft-metrics/1 snapshot lines (periodic + final), and the
# final one is the last line by contract.
cargo run -q --bin bwfft-cli -- serve --requests 12 --arrival-us 5000 \
  --metrics=json --metrics-every-ms 20 > "$benchdir/serve_metrics.out"
snaps=$(grep -c '"schema":"bwfft-metrics/1"' "$benchdir/serve_metrics.out")
[ "$snaps" -ge 2 ] \
  || { echo "metrics smoke FAILED: expected >=2 snapshots, got $snaps"; exit 1; }
tail -n 1 "$benchdir/serve_metrics.out" | python3 -c '
import json, sys

snap = json.load(sys.stdin)
assert snap["schema"] == "bwfft-metrics/1", snap["schema"]
c = snap["counters"]
assert c["serve.submitted"] == 12 and c["serve.completed"] == 12, c
# Balanced accounting straight from the registry: it is the only place
# the server counts outcomes and rejections.
outcomes = c["serve.completed"] + c["serve.deadline_exceeded"] + c["serve.failed"]
assert c["serve.submitted"] == outcomes, c
by_reason = {k: v for k, v in c.items() if k.startswith("serve.rejected.")}
reasons = {"queue_full", "byte_budget", "pool_exhausted", "breaker_open", "shutting_down"}
assert set(by_reason) == {"serve.rejected." + r for r in reasons}, sorted(by_reason)
assert sum(by_reason.values()) == c["serve.rejected"], c
h = snap["histograms"]["serve.request_ns"]
assert h["count"] == 12 and h["min"] <= h["max"], h
assert sum(n for _, n in h["buckets"]) == h["count"], h
print("serve --metrics=json: OK")
' || { echo "metrics smoke FAILED: bad final snapshot"; exit 1; }
# stat must diff the first periodic snapshot against the final one —
# fed the raw transcripts (it reads the last parseable JSON line).
grep '"schema":"bwfft-metrics/1"' "$benchdir/serve_metrics.out" | head -n 1 \
  > "$benchdir/stat_from.json"
# The plan cache counts into the server's registry, so its counters are
# live from the first periodic scrape, not synced in at the drain.
python3 -c '
import json, sys

c = json.load(open(sys.argv[1]))["counters"]
assert "tuner.plan_cache.misses" in c, sorted(c)
print("first periodic snapshot carries tuner.plan_cache.misses: OK")
' "$benchdir/stat_from.json" \
  || { echo "metrics smoke FAILED: first snapshot lacks plan-cache counters"; exit 1; }
tail -n 1 "$benchdir/serve_metrics.out" > "$benchdir/stat_to.json"
stat_out="$(cargo run -q --bin bwfft-cli -- stat \
  --from "$benchdir/stat_from.json" --to "$benchdir/stat_to.json")"
echo "$stat_out" | grep -q "serve.completed" \
  || { echo "metrics smoke FAILED: stat lacks counter table:"; echo "$stat_out"; exit 1; }
echo "$stat_out" | grep -q "serve.request_ns" \
  || { echo "metrics smoke FAILED: stat lacks histogram table:"; echo "$stat_out"; exit 1; }
# The default export is Prometheus text: typed families, final values.
prom_out="$(cargo run -q --bin bwfft-cli -- serve --requests 4 --metrics)"
echo "$prom_out" | grep -q "^# TYPE serve_completed counter" \
  || { echo "metrics smoke FAILED: prometheus TYPE line missing"; exit 1; }
echo "$prom_out" | grep -q "^serve_submitted 4" \
  || { echo "metrics smoke FAILED: prometheus counter value missing"; exit 1; }
echo "metrics smoke: OK"

echo "== metrics overhead gate (instruments must cost < 2% median, serve pair) =="
# Deterministic half: replay-compare the committed paired record
# (metrics+flight armed vs bare, same shape and schedule). Asserts the
# recorded overhead without running anything.
if ! cargo run -q --bin bwfft-cli -- bench \
     --current benchmarks/BENCH_metrics_on.json \
     --compare benchmarks/BENCH_metrics_off.json \
     --threshold 2 > "$benchdir/metrics_replay.out" 2>&1; then
  echo "metrics overhead gate FAILED: committed record pair exceeds 2% median:"
  cat "$benchdir/metrics_replay.out"
  exit 1
fi
echo "metrics overhead gate (recorded pair): OK (< 2% median)"
# Live half (full mode only): a fresh paired run. Open-loop medians on
# a shared VM jitter a few percent either way, so the live rule only
# catches a *catastrophic* instrument-cost change (>25% median, the
# built-in pair gate is median-only); the committed pair above carries
# the precise < 2% claim.
if [ "$fast" -eq 1 ]; then
  echo "metrics overhead gate (live): skipped (--fast; run the full gate locally)"
else
  if ! cargo run -q --release --bin bwfft-cli -- bench --suite serve \
       --dims 64x64 --buffer 512 --requests 96 --workers 2 --queue-depth 16 \
       --arrival-us 2500 --seed 42 --metrics-overhead --threshold 25 \
       --baseline-out "$benchdir/BENCH_metrics_off.json" \
       --out "$benchdir/BENCH_metrics_on.json" > "$benchdir/metrics_live.out" 2>&1; then
    echo "metrics overhead gate FAILED: live paired run beyond 25% median:"
    cat "$benchdir/metrics_live.out"
    exit 1
  fi
  echo "metrics overhead gate (live): OK (no catastrophic increase)"
fi

echo "verify: OK"
