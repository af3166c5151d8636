#!/usr/bin/env python3
"""Validate a sweep CSV against the canonical driver schema.

The sweep driver (src/driver/sink.cc) writes one header plus one row
per job, in job-id order, with the same 43 columns for every row.
This checker keeps that contract honest from the outside -- CI runs a
small sweep through tmi-sweep and pipes the file through here, so a
schema drift (a renamed column, a duplicated or dropped job, a row
sprouting extra cells from an unsanitized error message) fails the
build instead of someone's plotting script.

Usage:
    scripts/check_sweep.py sweep.csv
    scripts/check_sweep.py sweep.csv --expect-rows 40
    scripts/check_sweep.py sweep.csv --expect-ok
    scripts/check_sweep.py sweep.csv --manifest journal-dir/

--manifest validates the sharded-orchestration metadata the CSV came
from (the supervisor's MANIFEST plus one journal per shard) and
cross-checks its job count against the CSV row count. Shard identity
deliberately does NOT appear as a CSV column -- the merged CSV must
be byte-identical for any shard count -- so this is where the shard
bookkeeping gets audited.

Exit status is non-zero on any schema violation or unmet requirement.
"""

import argparse
import os
import sys

# Keep in lockstep with sweepCsvHeader() in src/driver/sink.cc.
COLUMNS = [
    "job_id", "workload", "treatment", "threads", "scale", "period",
    "fault_point", "fault_rate", "seed", "status", "attempts",
    "error", "outcome", "valid", "rung", "cycles", "seconds",
    "hitm_events", "pebs_records", "pages_protected", "commits",
    "conflict_bytes", "fault_fires", "t2p_aborts", "unrepairs",
    "watchdog_flushes", "cow_fallbacks", "ladder_drops", "params",
    "requests", "sojourn_p50", "sojourn_p99", "sojourn_p999",
    "plan_sites", "plan_applied", "plan_padding_bytes",
    "plan_redirected", "plan_profile_hitms", "placement",
    "txn_commits", "txn_aborts", "abort_rate", "fallback_locks",
]

PLACEMENTS = {"default", "pack", "arena", "isolate"}

STATUSES = {"ok", "failed", "timeout", "cancelled", "poisoned"}

NUMERIC = [
    "job_id", "threads", "scale", "period", "seed", "attempts",
    "cycles", "hitm_events", "pebs_records", "pages_protected",
    "commits", "conflict_bytes", "fault_fires", "t2p_aborts",
    "unrepairs", "watchdog_flushes", "cow_fallbacks", "ladder_drops",
    "requests", "plan_sites", "plan_applied", "plan_padding_bytes",
    "plan_redirected", "plan_profile_hitms", "txn_commits",
    "txn_aborts", "fallback_locks",
]


def read_manifest(journal_dir):
    """Validate one supervisor journal directory (MANIFEST + one
    journal file per shard). Returns (errors, job count)."""
    errors = []
    mpath = os.path.join(journal_dir, "MANIFEST")
    try:
        with open(mpath, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return ["%s: not readable: %s" % (mpath, exc)], 0

    if not lines or lines[0] != "tmi-campaign-manifest v1":
        return ["%s: bad header %r" % (mpath, lines[:1])], 0
    kv = dict(line.split("=", 1) for line in lines[1:] if "=" in line)
    for key in ("jobs", "shards", "fingerprint"):
        if key not in kv:
            errors.append("%s: missing %s=" % (mpath, key))
    if errors:
        return errors, 0
    if not kv["jobs"].isdigit() or not kv["shards"].isdigit():
        return ["%s: jobs/shards are not unsigned integers" % mpath], 0
    fp = kv["fingerprint"]
    if len(fp) != 16 or any(c not in "0123456789abcdef" for c in fp):
        errors.append("%s: fingerprint=%r is not 16-digit hex"
                      % (mpath, fp))
    jobs, shards = int(kv["jobs"]), int(kv["shards"])
    if shards < 1:
        errors.append("%s: shards=%d < 1" % (mpath, shards))
    for s in range(shards):
        jpath = os.path.join(journal_dir, "shard-%03d.journal" % s)
        if not os.path.exists(jpath):
            errors.append("%s: missing journal for shard %d (%s)"
                          % (journal_dir, s, jpath))
    return errors, jobs


def check_manifest(journal_dir, expect_jobs):
    """read_manifest, plus the job count against the CSV's rows."""
    errors, jobs = read_manifest(journal_dir)
    if not errors and expect_jobs is not None and jobs != expect_jobs:
        errors.append("%s: jobs=%d != %d CSV data rows"
                      % (os.path.join(journal_dir, "MANIFEST"), jobs,
                         expect_jobs))
    return errors


def check(path, expect_rows, expect_ok):
    errors = []
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except OSError as exc:
        return ["%s: not readable: %s" % (path, exc)], 0

    if not lines:
        return ["%s: empty file" % path], 0
    header = lines[0].split(",")
    if header != COLUMNS:
        return ["header mismatch: got %r" % lines[0]], 0

    seen_ids = []
    n_ok = 0
    for lineno, line in enumerate(lines[1:], start=2):
        cells = line.split(",")
        if len(cells) != len(COLUMNS):
            errors.append("line %d: %d cells, want %d"
                          % (lineno, len(cells), len(COLUMNS)))
            continue
        row = dict(zip(COLUMNS, cells))
        for col in NUMERIC:
            if not row[col].isdigit():
                errors.append("line %d: %s=%r is not an unsigned "
                              "integer" % (lineno, col, row[col]))
        for col in ("fault_rate", "seconds", "sojourn_p50",
                    "sojourn_p99", "sojourn_p999", "abort_rate"):
            try:
                float(row[col])
            except ValueError:
                errors.append("line %d: %s=%r is not a number"
                              % (lineno, col, row[col]))
        if row["status"] not in STATUSES:
            errors.append("line %d: status=%r not in %s"
                          % (lineno, row["status"], sorted(STATUSES)))
        if row["valid"] not in ("0", "1"):
            errors.append("line %d: valid=%r not 0/1"
                          % (lineno, row["valid"]))
        if row["placement"] not in PLACEMENTS:
            errors.append("line %d: placement=%r not in %s"
                          % (lineno, row["placement"],
                             sorted(PLACEMENTS)))
        if row["job_id"].isdigit():
            seen_ids.append(int(row["job_id"]))
        n_ok += row["status"] == "ok"

    if seen_ids != sorted(set(seen_ids)):
        errors.append("job_ids are not strictly increasing and "
                      "unique: %s..." % seen_ids[:10])
    if seen_ids and seen_ids != list(range(len(seen_ids))):
        errors.append("job_ids are not dense from 0: %s..."
                      % seen_ids[:10])

    rows = len(lines) - 1
    if expect_rows is not None and rows != expect_rows:
        errors.append("row count %d != expected %d (|matrix|)"
                      % (rows, expect_rows))
    if expect_ok and n_ok != rows:
        errors.append("%d of %d rows not status=ok" % (rows - n_ok, rows))
    return errors, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv", help="sweep CSV file to validate")
    ap.add_argument("--expect-rows", type=int, default=None,
                    help="require exactly this many data rows "
                         "(the matrix size)")
    ap.add_argument("--expect-ok", action="store_true",
                    help="require every row to have status=ok")
    ap.add_argument("--manifest", default=None, metavar="DIR",
                    help="also validate the shard supervisor's "
                         "journal directory (MANIFEST + per-shard "
                         "journals) this CSV was merged from")
    args = ap.parse_args()

    errors, rows = check(args.csv, args.expect_rows, args.expect_ok)
    if args.manifest is not None:
        errors += check_manifest(args.manifest,
                                 rows if not errors else None)
    if errors:
        for err in errors:
            print("check_sweep: %s" % err, file=sys.stderr)
        return 1
    print("check_sweep: %s ok (%d rows)" % (args.csv, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
