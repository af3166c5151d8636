#!/usr/bin/env bash
# CLI contract of experiment_cli, tmi-sweep and tmi-chaos: usage
# errors exit 2 with a message naming the culprit, and the registry
# listings and --dry-run exit 0. No case starts a simulation job: each
# one is rejected, or only lists or expands, before any job would run.
#
#   tests/cli/contract.sh EXPERIMENT_CLI TMI_SWEEP TMI_CHAOS
set -uo pipefail

cli="$1" sweep="$2" chaos="$3"
work="$(mktemp -d -t tmi_cli_contract.XXXXXX)"
trap 'rm -rf "$work"' EXIT
failures=0

# expect RC PATTERN CMD...: CMD exits RC and its stderr (RC != 0) or
# stdout (RC == 0) matches the extended regex PATTERN.
expect() {
    local want="$1" pattern="$2"
    shift 2
    local rc=0
    "$@" > "$work/out" 2> "$work/err" || rc=$?
    local stream="$work/err"
    [ "$want" -eq 0 ] && stream="$work/out"
    if [ "$rc" -ne "$want" ] || ! grep -Eq -- "$pattern" "$stream"; then
        echo "FAIL (exit $rc, want $want, /$pattern/): $*"
        sed 's/^/    /' "$work/err" | head -n 5
        failures=$((failures + 1))
    fi
}

bad_spec="$work/bad.spec"
printf '%s\n' 'workload = histogramfs' 'treatment = laser' \
    'event = mem.frame_exhuasted p=1' > "$bad_spec"

# Unknown flags and missing values.
expect 2 "unknown flag '--bogus'" "$cli" --bogus
expect 2 "unknown flag '--bogus'" "$sweep" --bogus
expect 2 "unknown flag '--bogus'" "$chaos" campaign --bogus
expect 2 "unknown flag '--bogus'" "$chaos" replay "$bad_spec" --bogus
expect 2 "unknown flag '--bogus'" "$chaos" minimize "$bad_spec" --bogus
expect 2 "unknown subcommand" "$chaos" bogus
expect 2 "'--threads' needs a value" "$cli" --threads
expect 2 "'--workers' needs a value" "$sweep" --workers
expect 2 "'--workers' needs a value" "$chaos" campaign --workers
expect 2 "'--out' needs a value" "$chaos" minimize "$bad_spec" --out

# Numbers: the whole token must parse and fit the field.
expect 2 "--threads: '4294967297'" "$cli" --threads 4294967297
expect 2 "--threads: '4294967297'" "$sweep" --threads 4294967297
expect 2 "--threads: 'abc'" "$chaos" campaign --threads abc
expect 2 "--scale: '-1'" "$cli" --scale -1
expect 2 "--seed: '12x'" "$cli" --seed 12x
expect 2 "--workers: 'abc'" "$sweep" --workers abc
expect 2 "--workers: '-1'" "$chaos" campaign --workers -1
expect 2 "--retries: '4294967295'" "$sweep" --retries 4294967295
expect 2 "--timeout-ms: '-5'" "$sweep" --timeout-ms -5
expect 2 "--schedules: '1e3'" "$chaos" campaign --schedules 1e3
expect 2 "--fault-rates" "$sweep" --fault-rates 0,nan
expect 2 "--fault: bad fault SPEC 'p=abc'" \
    "$cli" --fault mem.clone_fail:p=abc
expect 2 "--fault: bad fault SPEC 'once=-1'" \
    "$cli" --fault mem.clone_fail:once=-1

# Out-of-range config values are config errors naming the field.
expect 2 "run.scale: must be <= 1024" \
    "$cli" --workload histogramfs --scale 18446744073709551615
expect 2 "run.scale: must be <= 1024" \
    "$sweep" --workloads histogramfs --treatments pthreads --scales 1025 \
    --dry-run

# Unknown names, listing the valid ones.
expect 2 "unknown fault point 'mem.frame_exhuasted'.*mem.frame_exhausted" \
    "$cli" --fault mem.frame_exhuasted:always
expect 2 "unknown fault point 'mem.frame_exhuasted'.*mem.frame_exhausted" \
    "$sweep" --workloads histogramfs --treatments pthreads \
    --fault-points mem.frame_exhuasted --fault-rates 1 --dry-run
expect 2 "unknown fault point 'mem.frame_exhuasted'.*mem.frame_exhausted" \
    "$chaos" replay "$bad_spec"
expect 2 "unknown treatment 'nope'.*tmi-protect" "$cli" --treatment nope
expect 2 "unknown treatment 'nope'.*tmi-protect" \
    "$chaos" campaign --treatments nope
expect 2 "no workloads in family 'nope'" \
    "$sweep" --family nope --list-workloads

# Orchestration flags need a journal directory.
expect 2 "need --journal-dir" "$sweep" --workloads histogramfs --shards 2
expect 2 "need --journal-dir" "$sweep" --workloads histogramfs --resume
expect 2 "need --journal-dir" "$chaos" campaign --workloads histogramfs \
    --treatments laser --shards 2

# Listings and the dry-run expansion.
for tool in "$cli" "$sweep"; do
    expect 0 "^histogramfs +batch +yes " "$tool" --list-workloads
    expect 0 "^tmi-protect " "$tool" --list-treatments
    expect 0 "^mem.frame_exhausted " "$tool" --list-fault-points
    expect 0 "^feed-spsc +server" "$tool" --family server --list-workloads
done
expect 0 "^histogramfs " "$cli" --list
expect 0 "^mem.frame_exhausted " "$chaos" --list-fault-points
expect 0 "^1 histogramfs tmi-protect scale=1 period=100 seed=42 none$" \
    "$sweep" --workloads histogramfs --treatments pthreads,tmi-protect \
    --dry-run

if [ "$failures" -ne 0 ]; then
    echo "$failures CLI contract case(s) failed"
    exit 1
fi
echo "CLI contract: all cases passed"
