#!/usr/bin/env python3
"""Host-performance benchmark of the simulator: one workload, one run.

    python3 perfbench/run.py --workload fs-batch --seed 1 --seconds 20 \
        --trace 0

Run from the repository root. Builds perfbench-runner from source into
.bench_build/ (the first run compiles the simulator; later runs are
incremental), runs the workload's job matrix (perfbench/specs/) for
--seconds, checks every job's simulated fingerprint, and prints the
result as one JSON object on the last line of stdout: end-to-end
metrics with --trace 0, per-layer metrics with --trace 1.

    python3 perfbench/run.py --workload fs-batch --write-golden

re-records the workload's golden fingerprints (perfbench/golden/) at
the default seed. See perfbench/README.md.
"""

import argparse
import hashlib
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

BUILD_DIR = os.path.join(".bench_build", "perfbench")
RESULTS_DIR = os.path.join(".bench_build", "perfbench-results")
RUNNER = os.path.join(BUILD_DIR, "perfbench-runner")
WORKLOADS = ("fs-batch", "nofs-batch", "server-feeds")


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; output to stderr."""
    if not os.path.isfile(os.path.join("src", "CMakeLists.txt")):
        raise SystemExit("perfbench: no simulator sources (src/) here; "
                         "run from the repository root")
    jobs = str(min(4, os.cpu_count() or 1))
    steps = []
    if not os.path.isfile(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        steps.append(["cmake", "-S", "perfbench", "-B", BUILD_DIR,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", BUILD_DIR, "--target",
                  "perfbench-runner", "-j", jobs])
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr,
                          timeout=850).returncode != 0:
            raise SystemExit("perfbench: build failed: " + " ".join(cmd))


def run_runner(workload, seed, seconds, traced, spans_out=None):
    cmd = [RUNNER, "--spec", os.path.join(HERE, "specs", workload + ".spec"),
           "--seed", str(seed), "--seconds", str(seconds)]
    if traced:
        cmd.append("--traced")
    if spans_out:
        cmd += ["--spans-out", spans_out]
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=170)
    if proc.returncode != 0:
        raise SystemExit(f"perfbench: runner exited {proc.returncode}")
    return json.loads(proc.stdout)


def golden_path(workload):
    return os.path.join(HERE, "golden", workload + ".json")


def host_fingerprint(raw):
    """Where the numbers came from: never compare across these."""
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"],
                                capture_output=True, text=True,
                                timeout=10).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, files in sorted(os.walk(top)):
            dirnames[:] = sorted(d for d in dirnames if d != "__pycache__")
            for name in sorted(files):
                path = os.path.join(dirpath, name)
                digest.update(path.encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return {"cpu": cpu, "nproc": os.cpu_count(),
            "compiler": raw["compiler"], "build_type": raw["build_type"],
            "commit": commit, "source_sha256": digest.hexdigest()}


def write_golden(workload):
    raw = run_runner(workload, metrics.DEFAULT_SEED, 1, traced=False)
    jobs = {}
    for job in raw["jobs"]:
        if len(set(job["fp"])) != 1:
            raise SystemExit(f"perfbench: {metrics.job_key(job)} is not "
                             f"deterministic: {job['fp']}")
        jobs[metrics.job_key(job)] = job["fp"][0]
    with open(golden_path(workload), "w") as f:
        json.dump({"seed": metrics.DEFAULT_SEED, "jobs": jobs}, f,
                  indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {len(jobs)} golden fingerprints for {workload}")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=metrics.DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--write-golden", action="store_true")
    args = ap.parse_args()

    build()
    if args.write_golden:
        write_golden(args.workload)
        return
    with open(golden_path(args.workload)) as f:
        golden = json.load(f)["jobs"]

    os.makedirs(RESULTS_DIR, exist_ok=True)
    stem = os.path.join(RESULTS_DIR, f"{args.workload}-seed{args.seed}-"
                        f"trace{args.trace}")
    raw = run_runner(args.workload, args.seed, args.seconds,
                     traced=bool(args.trace),
                     spans_out=stem + ".spans.jsonl" if args.trace else None)
    result, broken = metrics.evaluate(raw, golden, args.seed,
                                      bool(args.trace))
    host = host_fingerprint(raw)
    for name in broken:
        log(f"self-check failed: {name}")
    with open(stem + ".json", "w") as f:
        json.dump({"host": host, "result": result, "raw": raw}, f)
    print("host: " + json.dumps(host))
    print(json.dumps(result))


if __name__ == "__main__":
    main()
