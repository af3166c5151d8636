#!/usr/bin/env bash
# Tier-1 verification, twice: the plain build and the ASan+UBSan
# build. Both must be green for a change to land.
#
#   scripts/ci.sh            # both passes
#   scripts/ci.sh default    # plain only
#   scripts/ci.sh asan-ubsan # sanitized only
set -euo pipefail
cd "$(dirname "$0")/.."

# The fibers switch stacks via swapcontext; ASan's interceptor
# handles that, but stack-use-after-return instrumentation does not.
export ASAN_OPTIONS="detect_stack_use_after_return=0:${ASAN_OPTIONS:-}"
export UBSAN_OPTIONS="print_stacktrace=1:halt_on_error=1:${UBSAN_OPTIONS:-}"

run_pass() {
    local preset="$1"
    echo "=== [$preset] configure + build + ctest ==="
    cmake --preset "$preset"
    cmake --build --preset "$preset" -j "$(nproc)"
    ctest --preset "$preset"
}

for preset in "${@:-default asan-ubsan}"; do
    # Allow "scripts/ci.sh default asan-ubsan" as well as no args.
    for p in $preset; do
        run_pass "$p"
    done
done

# Every temp file and journal directory below lives under one work
# directory, removed by a single EXIT trap however the script ends.
work="$(mktemp -d -t tmi_ci.XXXXXX)"
trap 'rm -rf "$work"' EXIT

# awk over a result CSV, addressing columns by header name:
# col("cycles") is the current row's cycles cell. The header row is
# consumed here, and a misspelled column name fails the gate.
csv_awk() {
    awk -F, 'function col(name) {
            if (name in c) return $c[name]
            print "no CSV column " name > "/dev/stderr"; nocol = 1; exit }
        NR == 1 { for (i = 1; i <= NF; i++) c[$i] = i; next }
        END { if (nocol) exit 2 }
        '"$1" "${@:2}"
}

# Run one matrix on 1 and on N workers (CSV $1 and $1.wN); the two
# CSVs must be byte-identical, the driver's determinism contract.
on_1_and_n() {
    local csv="$1" n="$2"
    shift 2
    "$@" --workers 1 --csv "$csv"
    "$@" --workers "$n" --csv "$csv.w$n"
    cmp "$csv" "$csv.w$n"
}

# Observability smoke: one traced, fault-injected robustness run must
# emit Chrome trace JSON that passes the schema checker, including the
# fault-fire and ladder-drop events the robustness figure depends on.
echo "=== traced robustness sweep + trace schema check ==="
trace_out="$work/trace.json"
./build/examples/experiment_cli \
    --workload histogramfs --treatment tmi-protect --scale 2 \
    --fault mem.clone_fail:always \
    --trace-out "$trace_out"
python3 scripts/check_trace.py "$trace_out" \
    --require fault.fire,ladder.drop,t2p.rollback,hitm.sample \
    --min-events 100

# Sweep-driver smoke: a small matrix through tmi-sweep on 2 workers
# must produce a schema-valid CSV that is byte-identical to the same
# sweep on 1 worker (the driver's determinism contract).
echo "=== tmi-sweep smoke + CSV schema check ==="
sweep1="$work/sweep1.csv"
sweep_args=(--workloads histogramfs,spinlockpool
    --treatments pthreads,tmi-protect --scales 2
    --fault-points mem.frame_exhausted --fault-rates 0,0.5
    --no-progress)
on_1_and_n "$sweep1" 2 ./build/examples/tmi-sweep "${sweep_args[@]}"
python3 scripts/check_sweep.py "$sweep1" --expect-rows 8 --expect-ok

# Chaos smoke: a fixed-seed campaign over two cells must produce a
# schema-valid CSV, byte-identical on 1 and 4 workers, with every
# surviving run converging to its cell's fault-free digest; and the
# checked-in minimized reproducer for the Sheriff dissolve-ordering
# regression must still be caught by the differential oracle.
echo "=== tmi-chaos campaign smoke + golden reproducer replay ==="
chaos1="$work/chaos1.csv"
chaos_args=(--workloads histogramfs --treatments tmi-protect,laser
    --schedules 8 --campaign-seed 2026 --no-minimize --no-progress)
on_1_and_n "$chaos1" 4 \
    ./build/examples/tmi-chaos campaign "${chaos_args[@]}"
python3 scripts/check_chaos.py "$chaos1" --expect-rows 18 --expect-pass
./build/examples/tmi-chaos replay \
    goldens/chaos/sheriff_dissolve_order.spec --expect-fail

# Crash-safe orchestration smoke: the same workloads on the shard
# supervisor (worker processes + journals) must merge to CSVs
# byte-identical to the in-process runs, the checkers must validate
# the shard metadata the CSVs deliberately omit, and a supervisor
# SIGKILLed mid-campaign must resume from its journals into the same
# bytes as an uninterrupted run.
echo "=== crash-safe orchestration smoke (kill -9 + resume) ==="
shard_dir="$work/shards"
sweep3="$work/sweep3.csv"
sweep4="$work/sweep4.csv"
kill_gold="$work/killgold.csv"
chaos_sh="$work/chaos_sh.csv"

./build/examples/tmi-sweep "${sweep_args[@]}" --csv "$sweep3" \
    --journal-dir "$shard_dir/full" --shards 3 --checkpoint-every 2
python3 scripts/check_sweep.py "$sweep3" --expect-rows 8 --expect-ok \
    --manifest "$shard_dir/full"
cmp "$sweep1" "$sweep3"

./build/examples/tmi-chaos campaign "${chaos_args[@]}" \
    --csv "$chaos_sh" --journal-dir "$shard_dir/chaos" --shards 2
python3 scripts/check_chaos.py "$chaos_sh" --expect-rows 18 \
    --expect-pass --manifest "$shard_dir/chaos"
cmp "$chaos1" "$chaos_sh"

# SIGKILL the supervisor once at least one result has been journaled.
# setsid gives it its own session, so the process-group kill takes
# the forked shard workers with it and leaves ci.sh alone. If the
# small campaign wins the race and finishes before the kill lands,
# resume is a no-op over complete journals -- the byte comparison is
# meaningful either way.
kill_args=(--workloads histogramfs,spinlockpool
    --treatments pthreads,tmi-protect --scales 2
    --fault-points mem.frame_exhausted --fault-rates 0,0.25,0.5,0.75
    --no-progress)
./build/examples/tmi-sweep "${kill_args[@]}" --workers 1 \
    --csv "$kill_gold"
setsid ./build/examples/tmi-sweep "${kill_args[@]}" --csv "$sweep4" \
    --journal-dir "$shard_dir/killed" --shards 2 \
    --checkpoint-every 1 &
victim=$!
for _ in $(seq 1 200); do
    size="$(stat -c%s "$shard_dir/killed/shard-000.journal" \
        2>/dev/null || echo 0)"
    if [ "$size" -gt 16 ]; then break; fi # past the journal header
    sleep 0.02
done
kill -9 -- "-$victim" 2>/dev/null || true
wait "$victim" 2>/dev/null || true
./build/examples/tmi-sweep "${kill_args[@]}" --csv "$sweep4" \
    --journal-dir "$shard_dir/killed" --resume
cmp "$kill_gold" "$sweep4"
python3 scripts/check_sweep.py "$sweep4" --expect-rows 16 \
    --expect-ok --manifest "$shard_dir/killed"

# Resume must refuse anything that is not exactly the journaled
# campaign, exit 2 with a message, and leave the journals alone: a
# changed job field (here the analysis interval), and journals whose
# magic says another format version.
resume_err="$work/resume_err.txt"
pin_args=(--workloads histogramfs --treatments pthreads,tmi-protect
    --scales 2 --no-progress --journal-dir "$shard_dir/pinned")
./build/examples/tmi-sweep "${pin_args[@]}" --shards 2 \
    --csv "$work/pinned.csv"
rc=0
./build/examples/tmi-sweep "${pin_args[@]}" --interval 500000 \
    --resume --csv "$work/pinned.csv" 2> "$resume_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "spec mismatch in run.analysisInterval" "$resume_err"

for journal in "$shard_dir"/pinned/shard-*.journal; do
    printf 'TMIJRNL3' | dd of="$journal" conv=notrunc status=none
done
cp -r "$shard_dir/pinned" "$work/pinned_before"
rc=0
./build/examples/tmi-sweep "${pin_args[@]}" --resume \
    --csv "$work/pinned.csv" 2> "$resume_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "journal schema TMIJRNL3 differs" "$resume_err"
diff -r "$work/pinned_before" "$shard_dir/pinned"

# Access-path smoke: the cycle-identity golden (simulated outputs are
# byte-identical across hot-path changes; also run under ctest, pinned
# here explicitly because the AccessPipeline depends on it) plus one
# 1-second perfbench pass per workload. perfbench checks every job's
# simulated fingerprint against perfbench/golden/ at its default seed,
# so a hot-path change that alters any simulated number fails here,
# in-tree. CI checks correctness only; host speed is judged by
# same-host A/B runs, never by a gate.
echo "=== cycle-identity golden + perfbench correctness smoke ==="
./build/tests/integration_cycle_identity_test
for workload in fs-batch nofs-batch server-feeds; do
    python3 perfbench/run.py --workload "$workload" --seconds 1 \
        | tail -n 1 | python3 -c '
import json, sys
r = json.loads(sys.stdin.read())
if r["correct"] is not True or r["failed"] != 0:
    sys.exit("perfbench %s: correct=%s failed=%s"
             % (sys.argv[1], r["correct"], r["failed"]))
print("perfbench %s: correct, %d jobs" % (sys.argv[1], r["attempted"]))
' "$workload"
done

# Server-family smoke: the feed-handler workloads through the
# family:server spec expansion with --param knobs must produce a
# schema-valid CSV carrying per-row tail latency (nonzero requests,
# p50 <= p99 <= p999), byte-identical on 1 and 4 workers; and a
# misspelled --param key must fail fast (exit 2) naming the valid
# knobs instead of silently running the default.
echo "=== server-family latency sweep + --param validation ==="
server1="$work/server1.csv"
param_err="$work/paramerr.txt"
server_args=(--workloads family:server
    --treatments pthreads,tmi-protect --scales 1
    --param requests=96 --param arrival_gap=300 --no-progress)
on_1_and_n "$server1" 4 ./build/examples/tmi-sweep "${server_args[@]}"
python3 scripts/check_sweep.py "$server1" --expect-rows 4 --expect-ok
csv_awk '(col("requests") + 0 == 0 \
    || col("sojourn_p50") + 0 > col("sojourn_p99") + 0 \
    || col("sojourn_p99") + 0 > col("sojourn_p999") + 0) \
    { print "bad latency row: " $0; bad = 1 } END { exit bad }' \
    "$server1"

rc=0
./build/examples/tmi-sweep --workloads feed-spsc \
    --treatments pthreads --param bogus_knob=7 --no-progress \
    --dry-run 2> "$param_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "bogus_knob" "$param_err"
grep -q "arrival_gap" "$param_err"

# More threads than the cache simulator has cores for (32) is a
# config error (exit 2) caught before any job runs, not an abort.
rc=0
./build/examples/tmi-sweep --workloads feed-spsc \
    --treatments pthreads --threads 33 --no-progress \
    2> "$param_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "run.threads" "$param_err"

# A bench env knob that is not a number exits 2 naming the variable
# (it used to read as 0: a campaign of zero schedules that passed).
rc=0
TMI_CHAOS_SCHEDULES=abc ./build/bench/chaos_campaign \
    2> "$param_err" || rc=$?
[ "$rc" -eq 2 ]
grep -q "TMI_CHAOS_SCHEDULES" "$param_err"

# Static-repair smoke: the fixed-seed profile phase must synthesize
# exactly the checked-in golden layout plan (profile -> plan is
# deterministic), and a huron-static sweep -- both the self-profiling
# cells and a pure replay of the golden plan via --plan-in -- must be
# byte-identical on 1 and 4 workers, cut each workload's HITMs at
# least 5x against its pthreads row, and report zero profile HITMs on
# the pure replay (profiling really was skipped).
echo "=== huron-static golden plan + profile->plan->replay smoke ==="
plan_out="$work/plan.txt"
huron1="$work/huron1.csv"
replay1="$work/replay1.csv"
./build/examples/experiment_cli --workload histogramfs \
    --treatment huron-static --scale 4 --interval 500000 \
    --plan-out "$plan_out"
cmp goldens/staticrepair/histogramfs.plan "$plan_out"

huron_args=(--workloads histogramfs,lreg,spinlockpool
    --treatments pthreads,huron-static --scales 4 --interval 500000
    --no-progress)
on_1_and_n "$huron1" 4 ./build/examples/tmi-sweep "${huron_args[@]}"
python3 scripts/check_sweep.py "$huron1" --expect-rows 6 --expect-ok
csv_awk '{ hitm[col("workload") "," col("treatment")] = col("hitm_events")
        if (col("treatment") == "huron-static" \
            && (col("plan_sites") + 0 < 1 \
                || col("plan_applied") != col("plan_sites"))) {
            print "huron row without applied plan: " $0; bad = 1 } }
    END { for (k in hitm) { split(k, a, ",")
            if (a[2] != "huron-static") continue
            base = hitm[a[1] ",pthreads"]
            if (hitm[k] * 5 > base) {
                print "weak repair on " a[1] ": " hitm[k] \
                    " vs " base; bad = 1 } }
        exit bad }' "$huron1"

./build/examples/tmi-sweep --workloads histogramfs \
    --treatments pthreads,huron-static --scales 4 --interval 500000 \
    --plan-in goldens/staticrepair/histogramfs.plan \
    --no-progress --workers 1 --csv "$replay1"
python3 scripts/check_sweep.py "$replay1" --expect-rows 2 --expect-ok
csv_awk 'col("treatment") == "huron-static" \
    && (col("plan_profile_hitms") + 0 != 0 || col("plan_sites") + 0 < 1 \
        || col("hitm_events") * 5 > base) \
    { print "bad replay row: " $0; bad = 1 }
    col("treatment") == "pthreads" { base = col("hitm_events") }
    END { exit bad }' "$replay1"

# Long-running stateful server chaos smoke: fault schedules against
# the feed handlers (typed --param knobs, requests scaled well past
# the default so per-worker stat state stays live across many ring
# generations) must all converge to the fault-free end-state digest,
# byte-identical on 1 and 4 workers. sheriff-protect is excluded:
# it cannot validate the ring atomics.
echo "=== server-family chaos campaign smoke ==="
schaos1="$work/schaos1.csv"
schaos_args=(--workloads feed-spsc,feed-spmc
    --treatments tmi-protect,laser --schedules 4 --campaign-seed 2026
    --param requests=384 --param stat_rounds=8
    --no-minimize --no-progress)
on_1_and_n "$schaos1" 4 \
    ./build/examples/tmi-chaos campaign "${schaos_args[@]}"
python3 scripts/check_chaos.py "$schaos1" --expect-rows 20 \
    --expect-pass

# htm-elide smoke: the elision sweep must be byte-identical on 1 and
# 4 workers and show the backend doing its job -- spinlockpool's
# packed-lock HITMs collapse at least 10x with zero fallbacks, and
# the lock-free shptr-relaxed rows prove the txn hooks are a no-op
# (identical hitm and cycle counts against pthreads). The placement
# axis must keep its monotone abort-rate response (pack > arena >=
# isolate on per-worker malloc'd slots): elision cannot fix what the
# allocator broke, and CI pins that ordering.
echo "=== htm-elide sweep + malloc-placement gate ==="
htm1="$work/htm1.csv"
place1="$work/place1.csv"
htm_args=(--workloads spinlockpool,shptr-lock,shptr-relaxed
    --treatments pthreads,htm-elide --scales 2 --no-progress)
on_1_and_n "$htm1" 4 ./build/examples/tmi-sweep "${htm_args[@]}"
python3 scripts/check_sweep.py "$htm1" --expect-rows 6 --expect-ok
csv_awk '{ cell = col("workload") "," col("treatment")
        hitm[cell] = col("hitm_events"); cyc[cell] = col("cycles")
        if (col("treatment") == "htm-elide" \
            && col("workload") == "spinlockpool" \
            && (col("txn_commits") + 0 < 1 \
                || col("fallback_locks") + 0 != 0)) {
            print "spinlockpool must elide commit-clean: " $0
            bad = 1 } }
    END { if (hitm["spinlockpool,htm-elide"] * 10 > \
              hitm["spinlockpool,pthreads"]) {
            print "weak elision on spinlockpool: " \
                hitm["spinlockpool,htm-elide"] " vs " \
                hitm["spinlockpool,pthreads"]; bad = 1 }
        if (hitm["shptr-relaxed,htm-elide"] != \
                hitm["shptr-relaxed,pthreads"] ||
            cyc["shptr-relaxed,htm-elide"] != \
                cyc["shptr-relaxed,pthreads"]) {
            print "txn hooks must be a no-op on lock-free code"
            bad = 1 }
        exit bad }' "$htm1"

./build/examples/tmi-sweep --workloads spinlockpool \
    --treatments htm-elide --placements pack,arena,isolate \
    --param small_slots=1 --scales 2 --no-progress \
    --workers 1 --csv "$place1"
python3 scripts/check_sweep.py "$place1" --expect-rows 3 --expect-ok
csv_awk '{ rate[col("placement")] = col("abort_rate") + 0 }
    END { if (!(rate["pack"] > rate["arena"] &&
               rate["arena"] >= rate["isolate"])) {
            print "placement abort-rate not monotone: pack=" \
                rate["pack"] " arena=" rate["arena"] \
                " isolate=" rate["isolate"]; bad = 1 }
        exit bad }' "$place1"

# Abort-storm chaos smoke: a fixed-seed campaign whose schedules arm
# all three htm.* fault points (spurious-abort storms included) must
# pass -- the armed watchdog bounds every storm -- with verdicts
# byte-identical on 1 and 4 workers; and the checked-in minimized
# livelock-by-abort reproducer (watchdog disarmed, stuck fallback)
# must still be caught by the oracle.
echo "=== htm abort-storm chaos smoke + livelock reproducer ==="
hchaos1="$work/hchaos1.csv"
hchaos_args=(--workloads spinlockpool --treatments htm-elide
    --schedules 8 --campaign-seed 2026 --no-minimize --no-progress)
on_1_and_n "$hchaos1" 4 \
    ./build/examples/tmi-chaos campaign "${hchaos_args[@]}"
python3 scripts/check_chaos.py "$hchaos1" --expect-rows 9 \
    --expect-pass
./build/examples/tmi-chaos replay \
    goldens/chaos/htm_abort_storm.spec --expect-fail

echo "=== CI green ==="
