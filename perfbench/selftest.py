"""Self-tests of the benchmark's own logic.

    python3 perfbench/selftest.py

Covers tail-percentile selection, self-time subtraction with nested spans,
the tracer's wrapping, each checker rejecting a corrupted report, the rule
that only a job's recorded baseline exit may be nonzero, the golden
catalogs' shape, and the agreement between BENCHMARK.json and the metrics
run.py prints.
"""

from __future__ import annotations

import contextlib
import copy
import itertools
import json
import sys
import tempfile
import types
import unittest
from fractions import Fraction
from pathlib import Path

import make_golden
import run
from checks import check_report
from spans import Span, Target, Tracer, self_times
from summary import percentile, tail_percentile
from workloads import (
    WIDE_N,
    WIDE_S,
    WIDE_T,
    WIDE_VARIANTS,
    WORKLOADS,
    Job,
    build_pool,
    load_golden,
    wide_variant,
)


class TailPercentile(unittest.TestCase):
    def test_ladder_keeps_ten_beyond(self):
        cases = {19: None, 20: 50.0, 39: 50.0, 40: 75.0, 99: 75.0, 100: 90.0,
                 199: 90.0, 200: 95.0, 999: 95.0, 1000: 99.0, 10000: 99.9}
        for count, want in cases.items():
            self.assertEqual(tail_percentile(count), want, count)

    def test_selected_rank_has_ten_samples_beyond(self):
        for count in range(20, 400):
            values = list(range(count))
            cut = percentile(values, tail_percentile(count))
            self.assertGreaterEqual(sum(v > cut for v in values), 10)

    def test_nearest_rank(self):
        self.assertEqual(percentile([5, 1, 4, 2, 3], 50), 3)
        self.assertEqual(percentile([5, 1, 4, 2, 3], 75), 4)
        self.assertEqual(percentile([5, 1, 4, 2, 3], 99.9), 5)


class SelfTime(unittest.TestCase):
    def test_nested_spans(self):
        spans = [
            Span("root", 0.0, 10.0, None, "j"),
            Span("a", 1.0, 4.0, 0, "j"),
            Span("leaf", 2.0, 3.0, 1, "j"),
            Span("b", 5.0, 9.0, 0, "j"),
            Span("leaf", 6.0, 6.5, 3, "j"),
        ]
        own = self_times(spans)
        self.assertAlmostEqual(own["root"], 10.0 - 3.0 - 4.0)
        self.assertAlmostEqual(own["a"], 3.0 - 1.0)
        self.assertAlmostEqual(own["b"], 4.0 - 0.5)
        self.assertAlmostEqual(own["leaf"], 1.5)

    def test_overlapping_children_count_once(self):
        spans = [Span("p", 0.0, 10.0, None, "j"), Span("c", 1.0, 5.0, 0, "j"),
                 Span("c", 3.0, 7.0, 0, "j"), Span("c", 9.0, 12.0, 0, "j")]
        self.assertAlmostEqual(self_times(spans)["p"], 10.0 - 6.0 - 1.0)

    def test_group_shares_split_by_job_group(self):
        tracer = Tracer([])
        tracer.spans = [
            Span("cli.main", 0.0, 4.0, None, "0:narrow-000"),
            Span("solver.solve_params", 0.0, 3.0, 0, "0:narrow-000"),
            Span("cli.main", 4.0, 6.0, None, "0:z-n10-s12-v0"),
            Span("partition.z_exact", 4.0, 4.5, 2, "0:z-n10-s12-v0"),
        ]
        shares = run.group_shares(tracer)
        self.assertEqual(shares["solve-narrow"][0], ("solver.solve_params", 0.75))
        self.assertEqual(shares["zcheck"], [("cli.main", 0.75),
                                            ("partition.z_exact", 0.25)])

    def test_tracer_links_parents_and_restores(self):
        ns = types.SimpleNamespace()
        ns.inner = lambda x: x + 1
        ns.outer = lambda x: ns.inner(x) * 2
        original = (ns.inner, ns.outer)
        tracer = Tracer([
            Target(ns, "outer", "outer"),
            Target(ns, "inner", "inner",
                   lambda t, a, k, r: t.counts.__setitem__("seen", r)),
        ])
        with tracer.job("job-1", "root"):
            self.assertEqual(ns.outer(1), 4)
        self.assertEqual((ns.inner, ns.outer), original)
        names = [(s.name, s.parent, s.job) for s in tracer.spans]
        self.assertEqual(names, [("root", None, "job-1"), ("outer", 0, "job-1"),
                                 ("inner", 1, "job-1")])
        self.assertEqual(tracer.counts["seen"], 2)
        for span in tracer.spans:
            self.assertLessEqual(span.start, span.end)

    def test_tracer_counts_failures(self):
        ns = types.SimpleNamespace()

        def boom():
            raise ValueError("no")

        ns.boom = boom
        tracer = Tracer([Target(ns, "boom", "boom")])
        with self.assertRaises(ValueError), tracer.job("j", "root"):
            ns.boom()
        self.assertEqual(tracer.counts["boom.failed"], 1)
        self.assertIs(ns.boom, boom)


class Checkers(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        cls.cli = run.import_cli()
        run.WORK_DIR.mkdir(exist_ok=True)
        cls.tmp = tempfile.TemporaryDirectory(dir=run.WORK_DIR)
        cls.workdir = Path(cls.tmp.name)

    @classmethod
    def tearDownClass(cls):
        cls.tmp.cleanup()
        with contextlib.suppress(OSError):  # a run may be using it
            run.WORK_DIR.rmdir()

    def job_of(self, workload, kind):
        """The first job of one kind in a workload's pool."""
        return next(job for job in build_pool(workload, 7, self.workdir)
                    if job.kind == kind)

    def report_of(self, job):
        outcome = run.run_job(self.cli, job)
        self.assertEqual(outcome.code, 0, outcome.err)
        report = json.loads(outcome.out)
        self.assertEqual(check_report(job.kind, job.spec, report), [])
        return report

    def assert_rejected(self, job, report, mutate):
        bad = copy.deepcopy(report)
        mutate(bad)
        self.assertNotEqual(check_report(job.kind, job.spec, bad), [])

    def test_solve(self):
        job = self.job_of("solve", "solve")
        report = self.report_of(job)

        def swap_counts(r):
            r["counts"][1], r["counts"][-2] = r["counts"][-2] + 1, r["counts"][1]

        def overspend(r):
            r["spend"] = str(Fraction(job.spec["budget"]) + 1)

        self.assert_rejected(job, report, swap_counts)
        self.assert_rejected(job, report, overspend)
        self.assert_rejected(job, report, lambda r: r.update(residual_n=1e-3))
        self.assert_rejected(job, report, lambda r: r.update(residual_e=1e6))
        self.assert_rejected(job, report, lambda r: r.update(beta=float("nan")))
        self.assert_rejected(job, report, lambda r: r.pop("counts"))
        self.assert_rejected(job, report, lambda r: r.update(spend="x"))

    def test_enumerate(self):
        job = self.job_of("exact", "enumerate")
        report = self.report_of(job)
        self.assert_rejected(job, report, lambda r: r.update(
            total_count=str(int(r["total_count"]) + 1)))
        self.assert_rejected(job, report, lambda r: r["cumulative_means"]
                             .__setitem__(-1, f"{job.spec['n']}/1000001"))
        self.assert_rejected(job, report, lambda r: r.update(acceptance_rate=0.0))
        self.assert_rejected(job, report, lambda r: r.update(acceptance_rate=1.5))
        self.assert_rejected(job, report, lambda r: r.update(command="solve"))

    def test_verify(self):
        job = self.job_of("exact", "verify")
        spec = job.spec
        report = {"command": "verify", "samples": spec["samples"],
                  "seed": spec["seed"],
                  "rows": [{"n": n, "deviation_fraction": 0.0,
                            "shell_weight": 0.5} for n in (6, 9, 12, 15, 20, 25)]}
        self.assertEqual(check_report("verify", spec, report), [])
        self.assert_rejected(job, report, lambda r: r["rows"][2].update(
            deviation_fraction=1.5))
        self.assert_rejected(job, report, lambda r: r["rows"].pop())
        self.assert_rejected(job, report, lambda r: r.update(seed=spec["seed"] + 1))

    def test_zcheck(self):
        job = self.job_of("exact", "zcheck")
        report = self.report_of(job)

        def nudge_log_z(r):
            row = r["rows"][0]
            row["log_z_exact"] = repr(float(row["log_z_exact"]) * (1 + 1e-10))

        self.assert_rejected(job, report, nudge_log_z)
        self.assert_rejected(job, report, lambda r: r["rows"][0].update(
            integral_rel_err="1e-6"))
        self.assert_rejected(job, report, lambda r: r["rows"].pop())


class ExitCodes(unittest.TestCase):
    def problems(self, spec, code):
        job = Job("j", "solve", (), spec)
        ledger = run.Ledger()
        ledger.add(0, job, run.Outcome(code, "", "error: no\n", 0.0))
        return run.check_jobs([job], ledger)

    def test_any_nonzero_exit_fails_the_run(self):
        for code in (2, 3, 4, 5, "crash"):
            self.assertIn("j", self.problems({}, code), code)
            self.assertIn("j", self.problems({"baseline_exit": 0}, code), code)

    def test_only_the_recorded_failure_is_accepted(self):
        self.assertEqual(self.problems({"baseline_exit": 3}, 3), {})
        self.assertIn("j", self.problems({"baseline_exit": 3}, 2))
        self.assertIn("j", self.problems({"baseline_exit": 3}, 5))

    def test_rerun_must_match(self):
        job = Job("j", "solve", (), {"baseline_exit": 3})
        ledger = run.Ledger()
        ledger.add(0, job, run.Outcome(3, "", "error: a\n", 0.0))
        ledger.add(1, job, run.Outcome(3, "", "error: b\n", 0.0))
        self.assertIn("j", run.check_jobs([job], ledger))


class BenchmarkFile(unittest.TestCase):
    def test_metrics_match_run(self):
        spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
        e2e = {m["name"]: (m["unit"], m["better"]) for m in spec["end_to_end"]}
        layer = {m["name"]: (m["unit"], m["better"]) for m in spec["per_layer"]}
        self.assertEqual(e2e, run.END_TO_END)
        self.assertEqual(layer, run.PER_LAYER)
        self.assertEqual(tuple(w["name"] for w in spec["workloads"]), WORKLOADS)
        bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
        self.assertEqual(max(bounds.values()), bounds["setup_s"])

    def test_golden_catalog_shape(self):
        golden = load_golden()
        strata = {e["stratum"] for e in golden["crosscheck"]}
        self.assertEqual(strata, set(range(make_golden.CROSS_STRATA)))
        low, high = make_golden.CROSS_WALK_RANGE
        for entry in golden["crosscheck"]:
            self.assertTrue(low <= entry["walk_size"] < high)
        sizes = [(c["n0"], c["s"]) for c in golden["zcheck"]]
        self.assertEqual(sizes, list(make_golden.Z_CLASSES))
        self.assertIn((2500, 1000), sizes)  # 4 * n0 = 10^4 units, 999 modes
        cells = {(c["s"], c["n"], c["t"]) for c in golden["solve-wide"]}
        self.assertEqual(cells, set(itertools.product(WIDE_S, WIDE_N, WIDE_T)))

    def test_wide_variants_regenerate(self):
        """Every catalog variant's inputs still come out of wide_variant,
        so its recorded baseline_exit applies to the job a run builds."""
        for cell in load_golden()["solve-wide"]:
            self.assertEqual(len(cell["variants"]), WIDE_VARIANTS)
            for entry in cell["variants"]:
                _, _, budget = wide_variant(cell["s"], cell["n"], cell["t"],
                                            entry["v"])
                self.assertEqual(budget, entry["budget"], cell["id"])


if __name__ == "__main__":
    sys.exit(unittest.main())
