#!/usr/bin/env python3
"""Validate a chaos-campaign CSV against the canonical schema.

The chaos campaign (src/chaos/campaign.cc) writes one header plus one
row per run -- golden cell baselines first, then the judged chaos
runs -- in an order that depends only on the campaign spec, never on
worker count or timing. This checker keeps that contract honest from
the outside: CI runs a small fixed-seed campaign through tmi-chaos
and pipes the CSV through here, so a schema drift, a non-dense row
id, a golden without a digest, or a surviving run whose end state
silently diverged from its golden fails the build.

Usage:
    scripts/check_chaos.py chaos.csv
    scripts/check_chaos.py chaos.csv --expect-rows 195
    scripts/check_chaos.py chaos.csv --expect-pass
    scripts/check_chaos.py chaos.csv --manifest journal-dir/

--manifest validates the sharded campaign's journal directory: the
goldens/ and chaos/ phase subdirectories each carry a supervisor
MANIFEST plus one journal per shard, and their job counts must sum
to the CSV row count. Shard identity deliberately does NOT appear as
a CSV column (the CSV is byte-identical for any shard count), so
this is where the shard bookkeeping gets audited.

Exit status is non-zero on any schema violation or unmet requirement.
"""

import argparse
import os
import sys

from check_sweep import read_manifest

# Keep in lockstep with chaosCsvHeader() in src/chaos/campaign.cc.
COLUMNS = [
    "row_id", "kind", "workload", "treatment", "threads", "scale",
    "seed", "campaign_seed", "schedule_index", "fault_seed", "events",
    "status", "outcome", "verdict", "reason", "rung", "cycles",
    "slowdown", "fault_fires", "t2p_aborts", "unrepairs",
    "watchdog_flushes", "ladder_drops", "ladder_recovers",
    "invariant_violations", "digest", "golden_digest",
]

KINDS = {"golden", "chaos"}
STATUSES = {"ok", "failed", "timeout", "cancelled", "poisoned"}
VERDICTS = {
    "golden", "pass", "digest.mismatch", "invariant.violation",
    "livelock", "run.failed", "no.digest",
}

NUMERIC = [
    "row_id", "threads", "scale", "seed", "campaign_seed",
    "schedule_index", "fault_seed", "events", "cycles", "fault_fires",
    "t2p_aborts", "unrepairs", "watchdog_flushes", "ladder_drops",
    "ladder_recovers", "invariant_violations",
]

HEX16 = ["digest", "golden_digest"]


def is_hex16(cell):
    return len(cell) == 16 and all(
        c in "0123456789abcdef" for c in cell)


def check_manifest(campaign_dir, expect_rows):
    """Validate both phase journal dirs of a sharded campaign."""
    errors = []
    total_jobs = 0
    for phase in ("goldens", "chaos"):
        phase_errors, jobs = read_manifest(
            os.path.join(campaign_dir, phase))
        errors += phase_errors
        total_jobs += jobs
    if not errors and expect_rows is not None \
            and total_jobs != expect_rows:
        errors.append("%s: goldens+chaos jobs=%d != %d CSV data rows"
                      % (campaign_dir, total_jobs, expect_rows))
    return errors


def check(path, expect_rows, expect_pass):
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
    goldens = {}  # (workload, treatment) -> digest
    chaos_seen = False
    n_failed = 0
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
        for col in HEX16:
            if not is_hex16(row[col]):
                errors.append("line %d: %s=%r is not a 16-digit hex "
                              "digest" % (lineno, col, row[col]))
        try:
            float(row["slowdown"])
        except ValueError:
            errors.append("line %d: slowdown=%r is not a number"
                          % (lineno, row["slowdown"]))
        if row["kind"] not in KINDS:
            errors.append("line %d: kind=%r not in %s"
                          % (lineno, row["kind"], sorted(KINDS)))
        if row["status"] not in STATUSES:
            errors.append("line %d: status=%r not in %s"
                          % (lineno, row["status"], sorted(STATUSES)))
        if row["verdict"] not in VERDICTS:
            errors.append("line %d: verdict=%r not in %s"
                          % (lineno, row["verdict"], sorted(VERDICTS)))
        if row["row_id"].isdigit():
            seen_ids.append(int(row["row_id"]))

        cell = (row["workload"], row["treatment"])
        if row["kind"] == "golden":
            if row["verdict"] != "golden":
                errors.append("line %d: golden row has verdict=%r"
                              % (lineno, row["verdict"]))
            if chaos_seen:
                # Goldens come first; a late golden means the phase
                # ordering (and therefore determinism) broke.
                errors.append("line %d: golden row after chaos rows"
                              % lineno)
            goldens[cell] = row["digest"]
        else:
            chaos_seen = True
            if row["verdict"] == "golden":
                errors.append("line %d: chaos row has verdict=golden"
                              % lineno)
            if cell not in goldens:
                errors.append("line %d: chaos row for cell %s has no "
                              "preceding golden" % (lineno, cell))
            elif (row["golden_digest"] != goldens[cell]
                  and row["verdict"] != "no.digest"):
                errors.append(
                    "line %d: golden_digest=%s does not echo the "
                    "cell's golden (%s)"
                    % (lineno, row["golden_digest"], goldens[cell]))
            # The core oracle claim: a surviving run either matched
            # its golden digest or was flagged.
            if (row["status"] == "ok" and row["verdict"] == "pass"
                    and row["digest"] != row["golden_digest"]):
                errors.append(
                    "line %d: verdict=pass but digest %s != golden %s"
                    % (lineno, row["digest"], row["golden_digest"]))
            n_failed += row["verdict"] in (
                "digest.mismatch", "invariant.violation", "livelock",
                "run.failed")

    if seen_ids != sorted(set(seen_ids)):
        errors.append("row_ids are not strictly increasing and "
                      "unique: %s..." % seen_ids[:10])
    if seen_ids and seen_ids != list(range(len(seen_ids))):
        errors.append("row_ids are not dense from 0: %s..."
                      % seen_ids[:10])

    rows = len(lines) - 1
    if expect_rows is not None and rows != expect_rows:
        errors.append("row count %d != expected %d "
                      "(cells * (1 + schedules))"
                      % (rows, expect_rows))
    if expect_pass and n_failed:
        errors.append("%d chaos run(s) failed the oracle" % n_failed)
    return errors, rows


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("csv", help="chaos campaign CSV file to validate")
    ap.add_argument("--expect-rows", type=int, default=None,
                    help="require exactly this many data rows "
                         "(cells * (1 + schedules))")
    ap.add_argument("--expect-pass", action="store_true",
                    help="require every judged run to pass the "
                         "differential oracle")
    ap.add_argument("--manifest", default=None, metavar="DIR",
                    help="also validate the sharded campaign's "
                         "journal directory (goldens/ and chaos/ "
                         "supervisor MANIFESTs + per-shard journals)")
    args = ap.parse_args()

    errors, rows = check(args.csv, args.expect_rows, args.expect_pass)
    if args.manifest is not None:
        errors += check_manifest(args.manifest,
                                 rows if not errors else None)
    if errors:
        for err in errors:
            print("check_chaos: %s" % err, file=sys.stderr)
        return 1
    print("check_chaos: %s ok (%d rows)" % (args.csv, rows))
    return 0


if __name__ == "__main__":
    sys.exit(main())
