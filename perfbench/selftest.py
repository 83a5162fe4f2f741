"""Tests of the benchmark itself; they need no benchmark run.

    python3 perfbench/selftest.py

The file is not named test_*.py, so the repository's own pytest run does not
collect it.
"""

from __future__ import annotations

import sys
import unittest
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402  (sets the BLAS thread cap first)
import tracing  # noqa: E402
from tracing import Group, Span, self_times  # noqa: E402
from workloads import Item  # noqa: E402

PKG = bench.load_package()
TINY_BELTRAMI = Item(0, (("beltrami", "--domain", "disk:r=1", "--h", "0.2",
                          "--sigma", "randnonsym:seed=3", "--g", "x1"),))
TINY_VERIFY = Item(1, (("verify", "--domain", "disk:r=1", "--h", "0.1",
                        "--sigma", "randholder:seed=4", "--g", "identity",
                        "--margin", "0.1", "--directions", "4"),))


def setUpModule():
    bench.WORK.mkdir(exist_ok=True)


class SelfTimeArithmetic(unittest.TestCase):
    def test_synthetic_tree(self):
        spans = [
            Span(0, "item", None, 0, 0.0, 10.0),
            Span(1, "a", 0, 0, 1.0, 4.0),
            Span(2, "b", 0, 0, 4.0, 6.0),
            Span(3, "a.child", 1, 0, 2.0, 3.0),
        ]
        groups = [
            # 5 hot calls under the item, 1.5 s in all, 0.5 s of it nested
            Group(0, "hot", 0, calls=5, total=1.5, child=0.5, direct=1.5),
            # hot calls nested inside "hot": covered by its total, not the item's
            Group(0, "inner", 0, calls=9, total=0.5, child=0.0, direct=0.0),
        ]
        st = self_times(spans, groups)
        self.assertAlmostEqual(st[0], 10.0 - 5.0 - 1.5)
        self.assertAlmostEqual(st[1], 3.0 - 1.0)
        self.assertAlmostEqual(st[2], 2.0)
        self.assertAlmostEqual(st[3], 1.0)
        self.assertAlmostEqual(st[(0, "hot")], 1.0)
        self.assertAlmostEqual(st[(0, "inner")], 0.5)
        self.assertAlmostEqual(sum(st.values()), 10.0)

    def test_overlapping_children_cover_their_union(self):
        spans = [
            Span(0, "item", None, 0, 0.0, 10.0),
            Span(1, "a", 0, 0, 1.0, 4.0),
            Span(2, "b", 0, 0, 3.0, 6.0),
            Span(3, "c", 0, 0, 3.5, 5.0),  # inside b
        ]
        self.assertAlmostEqual(self_times(spans, [])[0], 10.0 - 5.0)

    def test_tracer_nesting_adds_up(self):
        t = tracing.Tracer()
        with t.run_item(0):
            with t.span("outer"):
                for _ in range(3):
                    hot = t.begin("hot", hot=True)
                    inner = t.begin("inner")  # opened under a hot frame: aggregated
                    t.end(inner)
                    t.end(hot)
        st = self_times(t.spans, t.groups.values())
        item = next(s for s in t.spans if s.name == "item")
        self.assertEqual({s.name for s in t.spans}, {"item", "outer"})
        self.assertEqual(t.groups[(1, "hot")].calls, 3)
        self.assertAlmostEqual(sum(st.values()), item.end - item.start, places=12)


class SolverCounts(unittest.TestCase):
    def test_splu_counts_factorizations_and_columns(self):
        import numpy as np
        from scipy import sparse
        from scipy.sparse.linalg import splu

        A = sparse.csc_matrix(np.array([[4.0, 1.0], [1.0, 3.0]]))
        t = tracing.Tracer()
        with t.run_item(0):
            lu = tracing._factor_counter("fem")(t, (A,), {}, splu(A))
            x = lu.solve(np.eye(2))
            lu.solve(np.ones(2))
        np.testing.assert_allclose(A @ x, np.eye(2), atol=1e-12)
        self.assertEqual((t.counts["fem.factorizations"], t.counts["fem.rhs"]), (1, 3))
        self.assertEqual(lu.shape, (2, 2))  # everything else passes through
        self.assertEqual([s.name for s in t.spans].count("fem.lu_solve"), 2)


class HostAdjustment(unittest.TestCase):
    def test_full_speed_host_leaves_times_alone(self):
        nominal = bench.PROBE_NOMINAL_S
        self.assertAlmostEqual(bench.adjusted_seconds([1.0, 2.0], [nominal] * 3), 3.0)

    def test_slow_phase_is_scaled_back(self):
        # the host runs the second item, and the probes around it, 1.5x slower
        nominal = bench.PROBE_NOMINAL_S
        probes = [nominal, 1.5 * nominal, 1.5 * nominal]
        self.assertAlmostEqual(bench.adjusted_seconds([1.0, 1.5 * 2.0], probes),
                               1.0 / 1.25 + 2.0)

    def test_probe_count_must_bracket_every_item(self):
        with self.assertRaises(ValueError):
            bench.adjusted_seconds([1.0, 2.0], [0.01, 0.01])


class FailureAccounting(unittest.TestCase):
    def test_corrupted_output_counts_as_failed(self):
        real_main = PKG.cli.main

        def corrupting_main(argv):
            code = real_main(argv)
            out = Path(argv[argv.index("--out") + 1]) / "beltrami_report.json"
            out.write_text(out.read_text().replace('"beltrami_residual": ',
                                                   '"beltrami_residual": 1'))
            return code

        good = bench.run_item(PKG, TINY_BELTRAMI)
        self.assertEqual(good.problems, [])
        PKG.cli.main = corrupting_main
        try:
            bad = bench.run_item(PKG, TINY_BELTRAMI)
        finally:
            PKG.cli.main = real_main
        self.assertTrue(any("beltrami residual" in p for p in bad.problems), bad.problems)
        attempted, failed, _ = bench.tally([good, good], [good, bad, good])
        self.assertEqual((attempted, failed), (4, 1))

    def test_nondeterministic_warmup_counts_as_failed(self):
        a = bench.ItemResult(1.0, [], 10, "x")
        b = bench.ItemResult(1.0, [], 10, "y")
        self.assertEqual(bench.tally([a, b], [a])[:2], (2, 1))


class WrapperLifetime(unittest.TestCase):
    @staticmethod
    def bindings():
        out = {}
        for name, mod in sorted(sys.modules.items()):
            if name == "sigmalab" or name.startswith("sigmalab."):
                for attr, value in vars(mod).items():
                    out[(name, attr)] = value
        out[("Mesh", "locate")] = PKG.mesh.Mesh.__dict__["locate"]
        return out

    def test_wrappers_restored_after_traced_run(self):
        before = self.bindings()
        tracer = tracing.Tracer()
        with tracing.installed(tracer) as patched:
            self.assertIsNot(PKG.fem.spsolve, before[("sigmalab.fem", "spsolve")])
            self.assertIsNot(PKG.analysis.require_elliptic,
                             before[("sigmalab.analysis", "require_elliptic")])
            # analysis's own spsolve (stream function) is not a fem solve
            self.assertIs(PKG.analysis.spsolve, before[("sigmalab.analysis", "spsolve")])
            result = bench.run_item(PKG, TINY_VERIFY, tracer)
        self.assertEqual(result.problems, [])
        self.assertGreater(len(patched), 30)
        after = self.bindings()
        self.assertEqual(before.keys(), after.keys())
        changed = [k for k in before if before[k] is not after[k]]
        self.assertEqual(changed, [])
        self.assertGreater(tracer.counts["coefficients.sigma_points"], 0)

    def test_restored_when_an_item_raises(self):
        before = self.bindings()
        with self.assertRaises(RuntimeError):
            with tracing.installed(tracing.Tracer()):
                raise RuntimeError("boom")
        after = self.bindings()
        self.assertEqual([k for k in before if before[k] is not after[k]], [])


if __name__ == "__main__":
    unittest.main()
