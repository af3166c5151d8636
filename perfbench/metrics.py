"""Arithmetic of the host-performance benchmark.

Turns the raw document perfbench-runner prints (job times, simulated
fingerprints, stats-pass counts, replayed layer spans) into the metrics
BENCHMARK.json names, and judges every job against the golden
fingerprints. Pure functions over plain dicts, so test_metrics.py can
check each one without building anything.
"""

import statistics
from statistics import median

# ExperimentConfig's default seed: the goldens are recorded there.
DEFAULT_SEED = 42

# The calibration kernel's time at the reference host speed. Job and
# set-up times are rescaled by the kernel's time next to them, so a slow
# phase of the shared host (which slows the kernel too) does not read as
# a regression of the simulator. The constant only fixes the unit: ns at
# the speed where the kernel takes 3 ms.
CALIBRATION_NOMINAL_NS = 3.0e6

# Replayed layer span name -> per-call metric name.
LAYER_METRICS = {
    "cache.access": "cache.access_ns",
    "cache.tlb_lookup": "cache.tlb_lookup_ns",
    "core.pipeline": "core.pipeline_ns",
    "mem.translate": "mem.translate_ns",
    "mem.phys_rw": "mem.phys_rw_ns",
    "perf.on_hitm": "perf.on_hitm_ns",
    "detect.consume": "detect.consume_ns",
    "sched.switch": "sched.switch_ns",
    "ptsb.commit": "ptsb.commit_ns",
}


def quartiles(values):
    """(q1, median, q3) as statistics.quantiles(values, n=4) gives."""
    if len(values) == 1:
        return (values[0],) * 3
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values):
    """Interquartile distance as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else 0.0


def ratio(num, den):
    return num / den if den else 0.0


def per_kop(count, mem_ops):
    """Events per thousand simulated memory operations."""
    return 1000.0 * ratio(count, mem_ops)


def ns_per_memop(jobs):
    """Sum over jobs of each job's median host time, divided by the
    jobs' simulated memory operations. Medians per job keep one
    preempted pass from moving the aggregate; summing before dividing
    weights each job by its size."""
    host = sum(median(j["cpu_ns"]) for j in jobs)
    return ratio(host, sum(j["mem_ops"] for j in jobs))


def calibrated_ns_per_memop(jobs):
    """ns_per_memop with each job time divided by that pass's median
    calibration-kernel time, then scaled to CALIBRATION_NOMINAL_NS."""
    passes = len(jobs[0]["cpu_ns"])
    cal = [median([j["calib_ns"][p] for j in jobs]) for p in range(passes)]
    host = sum(median([h / c for h, c in zip(j["cpu_ns"], cal)])
               for j in jobs)
    return CALIBRATION_NOMINAL_NS * ratio(host,
                                          sum(j["mem_ops"] for j in jobs))


def setup_seconds(raw):
    """Median set-up time, each repetition rescaled like job times by
    the calibration kernel run right after it."""
    return 1e-9 * CALIBRATION_NOMINAL_NS * median(
        [s / c for s, c in zip(raw["setup_cpu_ns"], raw["setup_calib_ns"])])


def residual(total_ns_per_memop, layer_ns, calls_per_memop):
    """Host ns per memop that no replayed layer accounts for."""
    covered = sum(layer_ns[k] * calls_per_memop.get(k, 0.0)
                  for k in layer_ns)
    return total_ns_per_memop - covered


def fp_fields(fp):
    """'outcome=completed valid=1 ...' -> {'outcome': 'completed', ...}"""
    return dict(tok.split("=", 1) for tok in fp.split())


def job_key(job):
    return f"{job['workload']}/{job['treatment']}"


def job_failures(job, golden, seed, extra_fps=()):
    """Failed executions of one job, out of len(job['fp']).

    At the golden seed every execution must match the golden fingerprint
    exactly. At any other seed an execution fails when its fingerprint
    differs from the job's first one (the simulator is deterministic), or
    when validate() failed on a job the golden records as valid. Jobs
    the golden records as invalid are the paper's documented
    incompatibilities: their outcome is expected, not a failure.
    @p extra_fps are fingerprints of the same job from other passes
    (the traced run's stats pass); a mismatch there fails too.
    """
    fps = list(job["fp"]) + list(extra_fps)
    want = golden.get(job_key(job))
    if seed == DEFAULT_SEED:
        return sum(fp != want for fp in fps)
    expect_valid = want is None or fp_fields(want)["valid"] == "1"
    return sum(fp != fps[0] or
               (expect_valid and fp_fields(fp)["valid"] != "1")
               for fp in fps)


def check_jobs(raw, golden, seed):
    """(attempted, failed) over every job execution in @p raw."""
    extra = {c["id"]: [c["fp"]] for c in raw.get("counts", [])}
    attempted = failed = 0
    for job in raw["jobs"]:
        attempted += len(job["fp"]) + len(extra.get(job["id"], []))
        failed += job_failures(job, golden, seed, extra.get(job["id"], []))
    return attempted, failed


def end_to_end(raw):
    return {
        "ns_per_memop": (calibrated_ns_per_memop(raw["jobs"]), "ns"),
        "setup_s": (setup_seconds(raw), "s"),
        "peak_rss_mb": (raw["peak_rss_kb"] / 1024.0, "MB"),
    }


def per_layer(raw):
    """Per-layer metrics of a traced run, plus its self-checks as a
    list of (name, held) pairs."""
    jobs = {j["id"]: j for j in raw["jobs"]}
    counts = raw["counts"]
    captures = raw["captures"]
    out = {"host.calibration_ns": (
        median([c for j in raw["jobs"] for c in j["calib_ns"]]), "ns")}

    layer_ns = {}
    for span, name in LAYER_METRICS.items():
        v = raw["layers"].get(span, {"busy_ns": 0, "calls": 0})
        layer_ns[span] = ratio(v["busy_ns"], v["calls"])
        out[name] = (layer_ns[span], "ns")

    # The matrix's own treatments, then the runner's probes of the
    # runtimes the matrix lacks.
    for t in {j["treatment"] for j in raw["jobs"]}:
        out[f"runtime.{t}.ns_per_memop"] = (
            ns_per_memop([j for j in raw["jobs"] if j["treatment"] == t]),
            "ns")
    for p in raw["probes"]:
        out[f"runtime.{p['treatment']}.ns_per_memop"] = (
            ratio(p["cpu_ns"], p["mem_ops"]), "ns")

    # What a pthreads run calls per simulated memop: every access goes
    # through the cache, TLB, pipeline and data movement once; translate
    # only on frame-cache misses; PEBS only on HITMs. There is no
    # detector or PTSB in a pthreads run.
    base = [jobs[c["id"]] for c in captures]
    captured = sum(c["captured"] for c in captures)
    pth_counts = [c for c in counts if c["id"] in {j["id"] for j in base}]
    calls = {
        "cache.access": 1.0,
        "cache.tlb_lookup": 1.0,
        "core.pipeline": 1.0,
        "mem.phys_rw": 1.0,
        "mem.translate": ratio(sum(c["frame_misses"] for c in captures),
                               captured),
        "perf.on_hitm": ratio(sum(c["replay_hitm"] for c in captures),
                              captured),
        "sched.switch": ratio(sum(c["switches"] for c in pth_counts),
                              sum(c["mem_ops"] for c in pth_counts)),
    }
    pth_total = ns_per_memop(base)
    res = residual(pth_total, layer_ns, calls)
    out["core.residual_ns_per_memop"] = (res, "ns")

    out["trace.overhead_frac"] = (
        ratio(sum(c["cpu_ns"] for c in captures),
              sum(c["plain_cpu_ns"] for c in captures)) - 1.0, "ratio")

    mem_ops = sum(c["mem_ops"] for c in counts)

    def total(key):
        return sum(c[key] for c in counts)

    out["cache.l1_hit_frac"] = (ratio(total("l1_hits"), total("accesses")),
                                "ratio")
    for name, key in (("cache.hitm_per_kop", "hitm"),
                      ("cache.dram_fills_per_kop", "dram_fills"),
                      ("cache.tlb_miss_per_kop", "tlb_misses"),
                      ("sched.switches_per_kop", "switches"),
                      ("machine.atomic_ops_per_kop", "atomics"),
                      ("mem.cow_faults_per_kop", "cow_faults"),
                      ("perf.records_per_kop", "records"),
                      ("ptsb.commits_per_kop", "ptsb_commits")):
        out[name] = (per_kop(total(key), mem_ops), "1/kop")
    out["mem.soft_faults"] = (total("soft_faults"), "count")
    out["ptsb.bytes_per_commit"] = (
        ratio(raw["ptsb_bytes"], raw["ptsb_dirty_commits"]), "B")
    htm = [c for c in counts if jobs[c["id"]]["treatment"] == "htm-elide"]
    out["txn.abort_frac"] = (
        ratio(sum(c["txn_aborts"] for c in htm),
              sum(c["txn_commits"] + c["txn_aborts"] for c in htm)), "ratio")

    checks = []
    for c in captures:
        run = fp_fields(jobs[c["id"]]["fp"][0])
        job = jobs[c["id"]]
        checks.append((f"capture-matches-run/{c['id']}",
                       int(run["cycles"]) == c["cycles"] and
                       int(run["hitm"]) == c["hitm"] and
                       job["mem_ops"] == c["mem_ops"] and
                       (run["valid"] == "1") == c["valid"]))
        checks.append((f"replay-matches-capture/{c['id']}",
                       c["replay_l1_hits"] == c["live_l1_hits"] and
                       c["replay_hitm"] == c["live_hitm"]))
    checks.append(("residual-non-negative", res >= 0))
    return out, checks


def evaluate(raw, golden, seed, traced):
    """The benchmark's result object (the last line it prints)."""
    attempted, failed = check_jobs(raw, golden, seed)
    if traced:
        metrics, checks = per_layer(raw)
        attempted += len(checks)
        failed += sum(not held for _, held in checks)
        metrics["failed_frac"] = (ratio(failed, attempted), "ratio")
    else:
        metrics, checks = end_to_end(raw), []
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in metrics.items()},
    }, [name for name, held in checks if not held]
