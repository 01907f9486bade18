#!/bin/sh
# Full repository gate: build everything, run the test suites and the
# quickstart example, smoke-run the solve bench (the modal engine, the
# blur, the adjoint, both guides and the pool) and the serve
# bench, run the paper suites, and gate the solve and serve benches and
# the fig6, guide and optimizer suites' counts against the committed
# bench/baselines via bench_diff (wall-clock regressions, changed counts
# and invariant flips fail the run),
# smoke the CLI with --report, --perfetto and --prom, validate the JSON
# all three write, exercise the invariant-check subcommand and the
# fault-injection harness (structured exit codes), prove the sweep
# checkpoint resumes, and smoke the run ledger end to end (every run —
# including the fault-injected failures — must append a valid JSONL
# record, and thermoplace history must read them back). Run from
# anywhere inside the repository.
set -eu

root=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
cd "$root"

# Route every run's ledger record to a scratch file so the smoke can
# assert exact growth without touching the working directory's ledger.
ledger=$(mktemp "${TMPDIR:-/tmp}/thermoplace-ledger.XXXXXX.jsonl")
# Every scratch file, made here or further down, goes when the script
# exits, on failure too; a name not made yet expands to "", which rm -f
# ignores.
trap 'rm -rf "$ledger" "${verdict-}" "${report-}" "${ckpt-}" \
  "${perfetto-}" "${prom-}" "${hist-}" "${serve_jobs-}" "${serve_out-}" \
  "${serve_out:+$serve_out.pairs}" "${serve_out2-}" \
  "${serve_out2:+$serve_out2.jobs}" "${serve_out2:+$serve_out2.pairs}" \
  "${serve_ledger-}" "${serve_err-}" "${serve_fifo-}" "${export_dir-}" \
  "${doubled-}"' EXIT
rm -f "$ledger"
THERMOPLACE_LEDGER="$ledger"
export THERMOPLACE_LEDGER

echo "== ledger file is git-ignored"
grep -qx 'thermoplace.ledger.jsonl' .gitignore

echo "== dune build"
dune build @all

echo "== dune runtest"
dune runtest

echo "== quickstart example"
dune exec examples/quickstart.exe >/dev/null

echo "== solve bench smoke (2 trials)"
dune exec bench/main.exe -- --jobs 2 --trials 2 solve >/dev/null
dune exec bin/json_check.exe -- \
  BENCH_solve.json experiment trials summary summary.sizes summary.adjoint \
  summary.guides summary.fft summary.telemetry

echo "== batch serve bench smoke"
dune exec bench/main.exe -- --jobs 2 serve >/dev/null 2>&1
dune exec bin/json_check.exe -- \
  BENCH_serve.json experiment summary summary.batching \
  summary.fault_isolation summary.retry

# A telemetry read that misses its series, or a counter never bumped,
# must not land in a kernel summary as null.
for f in BENCH_solve.json BENCH_serve.json; do
  if grep -q null "$f"; then
    echo "bench smoke: $f contains null" >&2
    exit 1
  fi
done

# Each bench run appended one ledger record.
dune exec bin/json_check.exe -- --jsonl "$ledger" 2

echo "== paper suites (all 13 experiments)"
THERMOPLACE_LEDGER=none dune exec bench/main.exe -- --jobs 2 >/dev/null
for name in fig5 fig6 table1 timing congestion ablation optimizer \
  electrothermal package baselines glitch guide transient; do
  dune exec bin/json_check.exe -- "BENCH_$name.json" experiment summary
done
# The paper's shape checks (ERI and HW above Default, monotone in
# overhead), the steady-state justification and the solve checks (the
# modal solve's measured residual within 1e-10 and the blur within 1e-9
# of the modal solve at every size, the adjoint its central difference,
# the gradient guide's peak the peak guide's, 2 domains 1, FFT parity,
# no Bluestein transform on the screening grids) must all hold.
if grep -q false BENCH_fig6.json BENCH_transient.json BENCH_solve.json; then
  echo "paper suites: a Fig. 6, transient or solve check is false" >&2
  exit 1
fi

echo "== bench regression gate (bench_diff vs committed baselines)"
# A generous threshold absorbs machine-to-machine noise on top of the
# baselines' own measured IQR; invariant flips (plans_agree,
# parallel_bit_identical, ...) and changed counts (evaluations, solves,
# jobs, batches) fail at any threshold.
verdict=$(mktemp "${TMPDIR:-/tmp}/thermoplace-verdict.XXXXXX.json")
dune exec bin/bench_diff.exe -- --threshold 0.60 --json "$verdict" \
  bench/baselines/solve.json BENCH_solve.json >/dev/null
dune exec bin/json_check.exe -- "$verdict" baseline fresh ok failed keys
dune exec bin/bench_diff.exe -- --threshold 0.60 \
  bench/baselines/serve.json BENCH_serve.json >/dev/null
# The paper suites' counts: the Fig. 6 sweep's thermal solves (one per
# evaluation), the guides' exact, blur and adjoint solves and the
# optimizer's coarse solves per budget (their floats are informational).
for name in fig6 guide optimizer; do
  dune exec bin/bench_diff.exe -- \
    "bench/baselines/$name.json" "BENCH_$name.json" >/dev/null
done
# Sanity of the gate itself: clean against itself, trips on a simulated
# +100% slowdown (medians compared, so this holds for statistics
# baselines exactly as it did for legacy scalars), on one doubled
# solve count and on one extra exact solve of a guide.
dune exec bin/bench_diff.exe -- \
  bench/baselines/solve.json bench/baselines/solve.json >/dev/null
rc=0
dune exec bin/bench_diff.exe -- --scale-times 2.0 \
  bench/baselines/solve.json bench/baselines/solve.json >/dev/null 2>&1 \
  || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "bench_diff: expected exit 1 on simulated slowdown, got $rc" >&2
  exit 1
fi
doubled=$(mktemp "${TMPDIR:-/tmp}/thermoplace-doubled.XXXXXX.json")
solves=$(sed -n 's/.*"modal_solves": \([0-9]*\).*/\1/p' \
  bench/baselines/solve.json)
sed "s/\"modal_solves\": $solves,/\"modal_solves\": $((solves * 2)),/" \
  bench/baselines/solve.json >"$doubled"
if cmp -s "$doubled" bench/baselines/solve.json; then
  echo "bench_diff self-check: no solve count to double" >&2
  exit 1
fi
rc=0
dune exec bin/bench_diff.exe -- \
  bench/baselines/solve.json "$doubled" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "bench_diff: expected exit 1 on a doubled solve count, got $rc" >&2
  exit 1
fi
solves=$(sed -n 's/.*"exact_solves": \([0-9]*\).*/\1/p' \
  bench/baselines/guide.json | head -n 1)
awk -v n="$solves" '!done && sub("\"exact_solves\": " n ",",
  "\"exact_solves\": " (n + 1) ",") { done = 1 } { print }' \
  bench/baselines/guide.json >"$doubled"
if cmp -s "$doubled" bench/baselines/guide.json; then
  echo "bench_diff self-check: no guide solve count to bump" >&2
  exit 1
fi
rc=0
dune exec bin/bench_diff.exe -- \
  bench/baselines/guide.json "$doubled" >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 1 ]; then
  echo "bench_diff: expected exit 1 on a bumped guide solve count, got $rc" >&2
  exit 1
fi
rm -f "$verdict" "$doubled"

echo "== thermoplace --report / --prom smoke"
report=$(mktemp "${TMPDIR:-/tmp}/thermoplace-report.XXXXXX.json")
ckpt=$(mktemp "${TMPDIR:-/tmp}/thermoplace-ckpt.XXXXXX.json")
perfetto=$(mktemp "${TMPDIR:-/tmp}/thermoplace-perfetto.XXXXXX.json")
prom=$(mktemp "${TMPDIR:-/tmp}/thermoplace-metrics.XXXXXX.prom")
hist=$(mktemp "${TMPDIR:-/tmp}/thermoplace-history.XXXXXX.jsonl")
serve_jobs=$(mktemp "${TMPDIR:-/tmp}/thermoplace-serve-jobs.XXXXXX.jsonl")
serve_out=$(mktemp "${TMPDIR:-/tmp}/thermoplace-serve-out.XXXXXX.jsonl")
serve_out2=$(mktemp "${TMPDIR:-/tmp}/thermoplace-serve-out2.XXXXXX.jsonl")
serve_ledger=$(mktemp "${TMPDIR:-/tmp}/thermoplace-serve-ledger.XXXXXX.jsonl")
serve_err=$(mktemp "${TMPDIR:-/tmp}/thermoplace-serve-err.XXXXXX.log")
serve_fifo=$(mktemp -u "${TMPDIR:-/tmp}/thermoplace-serve-fifo.XXXXXX")
dune exec bin/thermoplace.exe -- \
  flow --test-set small --cycles 200 --report "$report" \
  --prom "$prom" >/dev/null
dune exec bin/json_check.exe -- \
  "$report" schema_version config spans metrics warnings base result \
  convergence
# The Prometheus exposition must carry typed series from the same run: a
# histogram's quantiles and the counter of the solves that made them (a
# fault-free flow's solves are modal and record no CG iterations).
grep -q '^# TYPE flow_peak_rise_k gauge$' "$prom"
grep -q '^flow_peak_rise_k{quantile="0.5"}' "$prom"
grep -q '^# TYPE thermal_modal_solves counter$' "$prom"
grep -q '^thermal_modal_solves [1-9]' "$prom"

echo "== full-size flow smoke (scattered test set)"
# Every other CLI smoke runs the small test set, whose netlist has no
# feedback flip-flops. The nine-unit benchmark (MAC accumulator loop
# included) must run end to end, with the simulator billed to its own
# span. --ledger none keeps every ledger count below unchanged.
dune exec bin/thermoplace.exe -- \
  flow --test-set scattered --report "$report" --ledger none >/dev/null
dune exec bin/json_check.exe -- \
  "$report" schema_version config spans metrics warnings base result \
  convergence
grep -q '"name": "flow.activity"' "$report"

echo "== perfetto trace smoke"
# A parallel sweep must yield a valid Chrome trace-event file with spans
# from more than one domain (json_check --trace checks both). Each of its
# pool chunks is a whole evaluation, long enough that a second domain
# takes one even on a loaded host.
dune exec bin/thermoplace.exe -- \
  sweep --test-set small --cycles 200 --jobs 4 \
  --perfetto "$perfetto" >/dev/null
dune exec bin/json_check.exe -- --trace "$perfetto" 2

echo "== gradient guide smoke (optimize --guide gradient)"
# The adjoint-guided optimizer on the small mesh must produce a report
# carrying the sensitivity section and the adjoint solve count, and its
# predicted peak must stay within tolerance of the peak-guided plan.
dune exec bin/thermoplace.exe -- \
  optimize --test-set small --cycles 200 --rows 2 --guide gradient \
  --report "$report" >/dev/null
dune exec bin/json_check.exe -- \
  "$report" config sensitivity result result.adjoint_evaluations
grep -q '"guide": "gradient"' "$report"
peak_grad=$(grep -o '"predicted_peak_k":[^,}]*' "$report" \
  | head -1 | cut -d: -f2)
dune exec bin/thermoplace.exe -- \
  optimize --test-set small --cycles 200 --rows 2 --guide peak \
  --report "$report" >/dev/null
peak_peak=$(grep -o '"predicted_peak_k":[^,}]*' "$report" \
  | head -1 | cut -d: -f2)
awk -v g="$peak_grad" -v p="$peak_peak" \
  'BEGIN { exit (g <= p + 0.05) ? 0 : 1 }' || {
  echo "gradient guide smoke: peak $peak_grad K > peak-guide $peak_peak K + 0.05" >&2
  exit 1
}

echo "== retired options are refused"
# Pricing is not a choice: --screen is gone, and naming it is a usage
# error (Cmdliner exit 124), never a silently ignored option.
rc=0
dune exec bin/thermoplace.exe -- \
  optimize --test-set small --cycles 200 --rows 1 --screen exact \
  --ledger none >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 124 ]; then
  echo "optimize --screen exact: expected usage error 124, got $rc" >&2
  exit 1
fi

echo "== export smoke (thermoplace export)"
# Every export file must be written, and the SPICE netlist must be whole
# (ends with .end) with exactly the resistor count the command reports.
# --ledger none keeps every ledger count below unchanged.
export_dir=$(mktemp -d "${TMPDIR:-/tmp}/thermoplace-export.XXXXXX")
export_out=$(dune exec bin/thermoplace.exe -- \
  export --test-set small --cycles 200 --outdir "$export_dir" --ledger none)
for f in design.v cells.lef design.def thermal.sp layout.svg; do
  test -s "$export_dir/$f" || {
    echo "export smoke: $f missing" >&2
    exit 1
  }
done
test "$(tail -n 1 "$export_dir/thermal.sp")" = ".end"
reported=$(echo "$export_out" | sed -n 's/.*thermal\.sp (\([0-9]*\) resistors).*/\1/p')
test -n "$reported"
test "$(grep -c '^R' "$export_dir/thermal.sp")" = "$reported" || {
  echo "export smoke: thermal.sp R count differs from the reported $reported" >&2
  exit 1
}
rm -rf "$export_dir"

echo "== invariant checks (thermoplace check)"
dune exec bin/thermoplace.exe -- check --test-set small --cycles 200 >/dev/null

echo "== fault-injection smoke"
# A NaN injected into the power map must surface as a structured invariant
# violation (exit 11), never a silently wrong report.
rc=0
THERMOPLACE_FAULTS=nan_power dune exec bin/thermoplace.exe -- \
  check --test-set small --cycles 200 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 11 ]; then
  echo "fault smoke: expected exit 11 for nan_power, got $rc" >&2
  exit 1
fi
# Stalling a CG attempt and its cold retry must surface as solver
# divergence (exit 10); two stalls are enough.
rc=0
THERMOPLACE_FAULTS=cg_stall:8 dune exec bin/thermoplace.exe -- \
  flow --test-set small --cycles 200 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 10 ]; then
  echo "fault smoke: expected exit 10 for cg_stall, got $rc" >&2
  exit 1
fi
# A single stall routes the solve to CG and stalls its first attempt;
# the cold retry must recover it, so the flow still exits 0.
rc=0
THERMOPLACE_FAULTS=cg_stall dune exec bin/thermoplace.exe -- \
  flow --test-set small --cycles 200 >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "fault smoke: expected exit 0 for a recovered cg_stall, got $rc" >&2
  exit 1
fi
# A utilization whose unit regions cannot hold their cells is an
# invariant violation (exit 11), never an uncaught exception (Cmdliner's
# 125). --ledger none keeps every ledger count below unchanged.
rc=0
dune exec bin/thermoplace.exe -- \
  flow --test-set small --cycles 50 --utilization 0.95 --ledger none \
  >/dev/null 2>&1 || rc=$?
if [ "$rc" -ne 11 ]; then
  echo "fault smoke: expected exit 11 for --utilization 0.95, got $rc" >&2
  exit 1
fi

echo "== batch serve smoke (mixed outcomes)"
# Six jobs: four clean across every technique, one poisoned with a NaN
# power fault, one with an impossible deadline. The server must answer
# every line (exit 0 overall), isolate the failures to their own jobs,
# and write one ledger record per job plus one for the run itself.
cat >"$serve_jobs" <<'EOF'
{"id":"a1","cycles":200}
{"id":"a2","cycles":200,"technique":"default"}
{"id":"a3","cycles":200,"technique":"hw"}
{"id":"a4","cycles":200,"technique":"optimize","rows":1}
{"id":"bad","cycles":200,"faults":"nan_power"}
{"id":"late","cycles":200,"deadline_ms":0.5}
EOF
rm -f "$serve_ledger"
dune exec bin/thermoplace.exe -- serve --input "$serve_jobs" \
  --output "$serve_out" --ledger "$serve_ledger" --jobs 2 2>/dev/null
wc -l <"$serve_out" | grep -qx '6'
outcomes=$(dune exec bin/json_check.exe -- --jsonl-field "$serve_out" outcome)
test "$(echo "$outcomes" | grep -cx '"ok"')" = 4
test "$(echo "$outcomes" | grep -cx '"failed"')" = 1
test "$(echo "$outcomes" | grep -cx '"deadline_exceeded"')" = 1
exits=$(dune exec bin/json_check.exe -- --jsonl-field "$serve_out" exit_code)
echo "$exits" | grep -qx '11'
echo "$exits" | grep -qx '15'
# 6 per-job records plus the serve run's own record.
dune exec bin/json_check.exe -- --jsonl "$serve_ledger" 7
dune exec bin/thermoplace.exe -- history list --ledger "$serve_ledger" \
  --job bad | grep -q 'serve.job'

echo "== batch serve fault isolation (bit-identical mates)"
# Re-run the same file without the poisoned job: every surviving job's
# deterministic result payload must be bit-identical to the fault-armed
# run — one fault degrades exactly one job.
serve_pairs() {
  ids=$(dune exec bin/json_check.exe -- --jsonl-field "$1" id)
  results=$(dune exec bin/json_check.exe -- --jsonl-field "$1" result)
  paste_a=$(mktemp); paste_b=$(mktemp)
  echo "$ids" >"$paste_a"; echo "$results" >"$paste_b"
  paste "$paste_a" "$paste_b" | sort
  rm -f "$paste_a" "$paste_b"
}
grep -v '"id":"bad"' "$serve_jobs" >"$serve_out2.jobs"
dune exec bin/thermoplace.exe -- serve --input "$serve_out2.jobs" \
  --output "$serve_out2" --ledger none --jobs 2 2>/dev/null
serve_pairs "$serve_out" | grep -v '^"bad"' >"$serve_out.pairs"
serve_pairs "$serve_out2" >"$serve_out2.pairs"
cmp "$serve_out.pairs" "$serve_out2.pairs"
rm -f "$serve_out2.jobs" "$serve_out.pairs" "$serve_out2.pairs"

echo "== batch serve backpressure (bounded queue)"
# Capacity 1: the whole file is read before the first batch executes,
# so exactly one job is admitted and the other two are rejected with
# the structured Queue_full class (exit 14) — never silently dropped.
printf '%s\n%s\n%s\n' '{"id":"q1","cycles":200}' \
  '{"id":"q2","cycles":200}' '{"id":"q3","cycles":200}' >"$serve_out2.jobs"
dune exec bin/thermoplace.exe -- serve --input "$serve_out2.jobs" \
  --output "$serve_out2" --ledger none --queue-cap 1 2>/dev/null
outcomes=$(dune exec bin/json_check.exe -- --jsonl-field "$serve_out2" outcome)
test "$(echo "$outcomes" | grep -cx '"ok"')" = 1
test "$(echo "$outcomes" | grep -cx '"rejected"')" = 2
exits=$(dune exec bin/json_check.exe -- --jsonl-field "$serve_out2" exit_code)
test "$(echo "$exits" | grep -cx '14')" = 2
rm -f "$serve_out2.jobs"

echo "== batch serve graceful drain (SIGTERM)"
# SIGTERM must stop admission, drain the accepted job and exit 0 —
# never kill work in flight. Driven through a fifo so the server is
# mid-stream when the signal lands.
mkfifo "$serve_fifo"
./_build/default/bin/thermoplace.exe serve --input "$serve_fifo" \
  --output "$serve_out2" --ledger none >/dev/null 2>"$serve_err" &
serve_pid=$!
exec 9>"$serve_fifo"
printf '%s\n' '{"id":"d1","cycles":200}' >&9
sleep 1
kill -TERM "$serve_pid"
exec 9>&-
rc=0
wait "$serve_pid" || rc=$?
if [ "$rc" -ne 0 ]; then
  echo "serve drain: expected exit 0 after SIGTERM, got $rc" >&2
  exit 1
fi
dune exec bin/json_check.exe -- --jsonl-field "$serve_out2" outcome \
  | grep -qx '"ok"'
grep 'drained_on_signal' "$serve_err" | grep -q 'true'
rm -f "$serve_fifo"

echo "== sweep checkpoint smoke"
rm -f "$ckpt"
dune exec bin/thermoplace.exe -- \
  sweep --test-set small --cycles 200 --checkpoint "$ckpt" >/dev/null
dune exec bin/json_check.exe -- "$ckpt" schema_version kind key entries
# Resume from the complete checkpoint: every point is replayed from the
# file, so the rerun must also succeed (and is near-instant).
dune exec bin/thermoplace.exe -- \
  sweep --test-set small --cycles 200 --checkpoint "$ckpt" >/dev/null

echo "== run ledger + history smoke"
# Every run above — 2 benches, 7 thermoplace runs (2 of them
# fault-injected failures) and the 3 sweeps — appended exactly one
# record to the scratch ledger (the serve smokes wrote to their own
# explicit --ledger files, which beat THERMOPLACE_LEDGER).
dune exec bin/json_check.exe -- --jsonl "$ledger" 12
# A fresh ledger (the explicit --ledger flag beats THERMOPLACE_LEDGER)
# seeded with one record in the format written before the guide became
# an optimizer argument (screen= and guide= in the fingerprint, "screen"
# in the config), then two optimize runs differing only in guide (the
# peak default vs the gradient), so history diff sees exactly the
# config deltas: the retired screen echo, then the guide.
printf '%s\n' '{"schema_version":1,"timestamp_s":1790000000.0,"command":"optimize","fingerprint":"mesh=40x40x9|precond=mg|screen=auto|guide=peak|seed=42|util=0.85|set=small|cycles=200|rows=1|jobs=1","config":{"seed":42,"cycles":200,"utilization":0.85,"test_set":"small","rows":1,"jobs":1,"screen":"auto","guide":"peak"},"phases_ms":{"prepare_ms":7.194,"evaluate_ms":23.904,"optimize_ms":8.389,"evaluate_after_ms":31.964,"total_ms":71.976},"cg_iterations":26,"peak_rise_k":1.2013884621866202,"plan_hash":"cfcd208495d565ef66e7dff9f98764da","outcome":"ok","exit_code":0}' \
  >"$hist"
dune exec bin/thermoplace.exe -- \
  optimize --test-set small --cycles 200 --rows 1 --jobs 1 \
  --ledger "$hist" >/dev/null
dune exec bin/thermoplace.exe -- \
  optimize --test-set small --cycles 200 --rows 1 --jobs 1 \
  --guide gradient --ledger "$hist" >/dev/null
dune exec bin/json_check.exe -- --jsonl "$hist" 3
dune exec bin/thermoplace.exe -- history list --ledger "$hist" >/dev/null
dune exec bin/thermoplace.exe -- history show --ledger "$hist" 0 >/dev/null
diff_out=$(dune exec bin/thermoplace.exe -- \
  history diff --ledger "$hist" 0 1)
echo "$diff_out" | grep -q 'screen' || {
  echo "history diff: expected the older record's screen config delta" >&2
  exit 1
}
diff_out=$(dune exec bin/thermoplace.exe -- \
  history diff --ledger "$hist" 1 2)
echo "$diff_out" | grep -q 'guide' || {
  echo "history diff: expected a guide config delta" >&2
  exit 1
}
dune exec bin/thermoplace.exe -- \
  history trend --ledger "$hist" --key optimize_ms >/dev/null
# history subcommands only read — the ledgers must not have grown.
dune exec bin/json_check.exe -- --jsonl "$hist" 3
wc -l <"$hist" | grep -qx '3' || {
  echo "history smoke: expected exactly 3 records" >&2
  exit 1
}

echo "== CLI fingerprints name the test set and cycle count"
# Every CLI fingerprint starts from the flow identity serve batches on
# (...|set=...|cycles=...), so runs of different problems never share one.
rm -f "$hist"
dune exec bin/thermoplace.exe -- \
  check --test-set small --cycles 200 --ledger "$hist" >/dev/null
dune exec bin/thermoplace.exe -- \
  check --test-set small --cycles 100 --ledger "$hist" >/dev/null
dune exec bin/thermoplace.exe -- \
  check --test-set concentrated --cycles 200 --ledger "$hist" >/dev/null
fingerprints=$(dune exec bin/json_check.exe -- --jsonl-field "$hist" fingerprint)
test "$(echo "$fingerprints" | sort -u | wc -l)" -eq 3 || {
  echo "check fingerprints: expected 3 distinct, got:" >&2
  echo "$fingerprints" >&2
  exit 1
}
echo "$fingerprints" | grep -q 'set=small|cycles=100'
echo "$fingerprints" | grep -q 'set=concentrated|cycles=200'

echo "== CLI flow and serve run one technique executor"
# The same ERI job, once from the CLI and once as a served request, must
# commit the same plan; a misspelt request field is rejected as invalid
# (exit class 2), never run with a silent default.
rm -f "$hist"
dune exec bin/thermoplace.exe -- \
  flow --test-set small --cycles 200 --technique eri --ledger "$hist" >/dev/null
printf '%s\n%s\n' '{"id":"p","cycles":200,"technique":"eri"}' \
  '{"id":"typo","cycles":200,"technique":"eri","overheaad":0.4}' \
  >"$serve_out2.jobs"
dune exec bin/thermoplace.exe -- serve --input "$serve_out2.jobs" \
  --output "$serve_out2" --ledger none 2>/dev/null
cli_hash=$(dune exec bin/json_check.exe -- --jsonl-field "$hist" plan_hash)
serve_hashes=$(dune exec bin/json_check.exe -- \
  --jsonl-field "$serve_out2" result.plan_hash)
echo "$serve_hashes" | grep -qx "$cli_hash" || {
  echo "plan hash: CLI $cli_hash not among serve's $serve_hashes" >&2
  exit 1
}
outcomes=$(dune exec bin/json_check.exe -- --jsonl-field "$serve_out2" outcome)
test "$(echo "$outcomes" | grep -cx '"ok"')" = 1
test "$(echo "$outcomes" | grep -cx '"invalid"')" = 1
grep -q 'unknown field' "$serve_out2"
rm -f "$serve_out2.jobs"

echo "== OK"
