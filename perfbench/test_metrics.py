"""Unit tests for the benchmark's arithmetic (perfbench/metrics.py).

    python3 -m unittest discover -s perfbench -p 'test_*.py'
"""

import unittest

import metrics

FP_OK = ("outcome=completed valid=1 cycles=100 hitm=5 pebs=0 commits=0 "
         "digest=00000000000000aa p99=0 txn=0/0")
FP_OTHER = FP_OK.replace("cycles=100", "cycles=101")
FP_BAD = FP_OK.replace("valid=1", "valid=0")


def job(jid, treatment, cpu_ns, mem_ops, fps=None, calib_ns=None,
        workload="w"):
    return {"id": jid, "workload": workload, "treatment": treatment,
            "mem_ops": mem_ops, "cpu_ns": cpu_ns,
            "calib_ns": calib_ns or [1.0] * len(cpu_ns),
            "fp": fps or [FP_OK] * len(cpu_ns)}


class AggregateTest(unittest.TestCase):
    def test_ns_per_memop_sums_job_medians_over_all_memops(self):
        jobs = [job(0, "pthreads", [100, 300, 200], 10),
                job(1, "pthreads", [50, 40, 900], 30)]
        # medians 200 and 50 over 40 memops
        self.assertAlmostEqual(metrics.ns_per_memop(jobs), 250 / 40)

    def test_calibrated_rescales_by_each_pass_median_kernel_time(self):
        nominal = metrics.CALIBRATION_NOMINAL_NS
        # Pass 1 ran on a host twice as slow: jobs and kernel both doubled.
        jobs = [job(0, "pthreads", [100, 200], 10, calib_ns=[nominal,
                                                            2 * nominal]),
                job(1, "pthreads", [300, 600], 30, calib_ns=[nominal,
                                                            2 * nominal])]
        self.assertAlmostEqual(metrics.calibrated_ns_per_memop(jobs),
                               400 / 40)

    def test_setup_is_median_of_calibrated_repetitions(self):
        nominal = metrics.CALIBRATION_NOMINAL_NS
        raw = {"setup_cpu_ns": [1e8, 4e8, 1e8],
               "setup_calib_ns": [nominal, 2 * nominal, 0.5 * nominal]}
        # rescaled: 0.1 s, 0.2 s, 0.2 s
        self.assertAlmostEqual(metrics.setup_seconds(raw), 0.2)

    def test_ratio_and_per_kop_guard_zero_bases(self):
        self.assertEqual(metrics.ratio(5, 0), 0.0)
        self.assertEqual(metrics.per_kop(3, 0), 0.0)
        self.assertAlmostEqual(metrics.per_kop(54, 1000), 54.0)
        self.assertAlmostEqual(metrics.per_kop(1, 4000), 0.25)


class QuartileTest(unittest.TestCase):
    def test_matches_statistics_quantiles(self):
        self.assertEqual(metrics.quartiles(list(range(1, 11))),
                         (2.75, 5.5, 8.25))

    def test_spread_is_iqr_over_median(self):
        self.assertAlmostEqual(metrics.spread(list(range(1, 11))),
                               5.5 / 5.5)
        self.assertEqual(metrics.spread([7.0]), 0.0)


class ResidualTest(unittest.TestCase):
    def test_subtracts_layer_cost_times_calls(self):
        layer_ns = {"cache.access": 30.0, "mem.translate": 40.0,
                    "detect.consume": 70.0}
        calls = {"cache.access": 1.0, "mem.translate": 0.25}
        # detect.consume has no calls in a pthreads run
        self.assertAlmostEqual(metrics.residual(100.0, layer_ns, calls),
                               100.0 - 30.0 - 10.0)

    def test_can_go_negative(self):
        self.assertLess(metrics.residual(10.0, {"a": 20.0}, {"a": 1.0}), 0)


class GoldenTest(unittest.TestCase):
    golden = {"w/pthreads": FP_OK, "w/sheriff-protect": FP_BAD}

    def test_default_seed_requires_exact_golden(self):
        j = job(0, "pthreads", [1, 1, 1], 1, fps=[FP_OK, FP_OTHER, FP_OK])
        self.assertEqual(
            metrics.job_failures(j, self.golden, metrics.DEFAULT_SEED), 1)

    def test_default_seed_missing_golden_fails(self):
        j = job(0, "laser", [1], 1)
        self.assertEqual(
            metrics.job_failures(j, self.golden, metrics.DEFAULT_SEED), 1)

    def test_other_seed_requires_repeatable_fingerprint(self):
        j = job(0, "pthreads", [1, 1], 1, fps=[FP_OTHER, FP_OTHER])
        self.assertEqual(metrics.job_failures(j, self.golden, 7), 0)
        j = job(0, "pthreads", [1, 1], 1, fps=[FP_OTHER, FP_OK])
        self.assertEqual(metrics.job_failures(j, self.golden, 7), 1)

    def test_other_seed_invalid_run_fails_unless_golden_invalid(self):
        j = job(0, "pthreads", [1], 1, fps=[FP_BAD])
        self.assertEqual(metrics.job_failures(j, self.golden, 7), 1)
        j = job(0, "sheriff-protect", [1, 1], 1, fps=[FP_OK, FP_OK])
        self.assertEqual(metrics.job_failures(j, self.golden, 7), 0)
        j = job(0, "sheriff-protect", [1], 1, fps=[FP_BAD])
        self.assertEqual(metrics.job_failures(j, self.golden, 7), 0)

    def test_stats_pass_fingerprint_counts(self):
        raw = {"jobs": [job(0, "pthreads", [1, 1], 1)],
               "counts": [{"id": 0, "fp": FP_OTHER}]}
        self.assertEqual(
            metrics.check_jobs(raw, self.golden, metrics.DEFAULT_SEED),
            (3, 1))

    def test_fp_fields(self):
        f = metrics.fp_fields(FP_OK)
        self.assertEqual(f["valid"], "1")
        self.assertEqual(f["txn"], "0/0")


def traced_raw():
    """A minimal traced runner document: one pthreads, one htm job."""
    count = {"mem_ops": 1000, "accesses": 1000, "l1_hits": 900,
             "hitm": 40, "dram_fills": 10, "tlb_misses": 2, "switches": 100,
             "atomics": 5, "soft_faults": 3, "cow_faults": 0, "records": 1,
             "ptsb_commits": 0, "txn_commits": 3, "txn_aborts": 1}
    return {
        "jobs": [job(0, "pthreads", [200000], 1000),
                 job(1, "htm-elide", [300000], 1000)],
        "counts": [dict(count, id=0, fp=FP_OK), dict(count, id=1, fp=FP_OK)],
        "probes": [{"treatment": t, "cpu_ns": 100, "mem_ops": 1}
                   for t in ("tmi-protect", "laser", "sheriff-protect",
                             "huron-static")],
        "captures": [{"id": 0, "cycles": 100, "hitm": 5, "mem_ops": 1000,
                      "valid": True, "captured": 1000,
                      "live_l1_hits": 900, "live_hitm": 40,
                      "replay_l1_hits": 900, "replay_hitm": 40,
                      "frame_misses": 10,
                      "cpu_ns": 220000, "plain_cpu_ns": 200000}],
        "layers": {span: {"busy_ns": 10000, "calls": 1000}
                   for span in metrics.LAYER_METRICS},
        "ptsb_bytes": 0, "ptsb_dirty_commits": 0,
    }


class PerLayerTest(unittest.TestCase):
    def test_traced_metrics_and_checks(self):
        out, checks = metrics.per_layer(traced_raw())
        self.assertAlmostEqual(out["cache.access_ns"][0], 10.0)
        self.assertAlmostEqual(out["runtime.htm-elide.ns_per_memop"][0],
                               300.0)
        self.assertAlmostEqual(out["runtime.laser.ns_per_memop"][0], 100.0)
        # 200 ns/memop - 10 ns x (4 + 0.01 translate + 0.04 onHitm
        # + 0.1 switch) calls per memop
        self.assertAlmostEqual(out["core.residual_ns_per_memop"][0],
                               200.0 - 10.0 * 4.15)
        self.assertAlmostEqual(out["trace.overhead_frac"][0], 0.1)
        self.assertAlmostEqual(out["cache.hitm_per_kop"][0], 40.0)
        self.assertAlmostEqual(out["txn.abort_frac"][0], 0.25)
        self.assertTrue(all(held for _, held in checks))

    def test_self_checks_catch_divergence(self):
        raw = traced_raw()
        raw["captures"][0]["cycles"] = 101
        raw["captures"][0]["replay_hitm"] = 39
        _, checks = metrics.per_layer(raw)
        self.assertEqual([name for name, held in checks if not held],
                         ["capture-matches-run/0",
                          "replay-matches-capture/0"])

    def test_names_match_benchmark_json(self):
        import json
        import os
        with open(os.path.join(os.path.dirname(__file__), "..",
                               "BENCHMARK.json")) as f:
            bench = json.load(f)
        traced, _ = metrics.evaluate(traced_raw(), {}, 7, traced=True)
        self.assertEqual(set(traced["metrics"]),
                         {m["name"] for m in bench["per_layer"]})
        raw = traced_raw()
        raw.update(setup_cpu_ns=[1e8], setup_calib_ns=[3e6],
                   peak_rss_kb=2048)
        plain, _ = metrics.evaluate(raw, {}, 7, traced=False)
        self.assertEqual(set(plain["metrics"]),
                         {m["name"] for m in bench["end_to_end"]})
        for spec in bench["per_layer"] + bench["end_to_end"]:
            got = (traced if spec in bench["per_layer"] else plain)
            self.assertEqual(got["metrics"][spec["name"]]["unit"],
                             spec["unit"], spec["name"])


if __name__ == "__main__":
    unittest.main()
