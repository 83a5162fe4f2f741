"""Acceptance suite.

Each criterion computes a payload of measured numbers, prints one PASS/FAIL
line, and asserts its stated tolerances. Criterion 9 reruns criteria 1-8
from scratch and compares the serialized payloads byte for byte.

Heavy artifacts (the radial-coefficient solves) are shared between criteria
through a lazily-computed run object; a session fixture holds the first run.
"""

import time
from functools import cached_property

import numpy as np
import pytest

from sigmalab import (
    MappingField,
    beltrami_residual,
    brute_force_injectivity,
    complex_derivatives,
    critical_point_candidates,
    generate_annulus,
    generate_disk,
    gradient_field,
    injectivity_check,
    jacobian_field,
    lewy_verify,
    refine,
    relative_l2_error,
    solve_dirichlet,
    stream_function,
)
from sigmalab.coefficients import (
    anisotropic_field,
    holder_bump_field,
    identity_field,
    max_dilatation,
    meyers_sigma,
    nonsymmetric_field,
    random_holder_field,
    random_nonsymmetric_field,
    require_elliptic,
)
from sigmalab.fd import annulus_grid, rectangle_grid, solve_nondivergence, to_nondivergence, zero_drift
from sigmalab.oracles import holomorphic_oracle, identity_oracle, meyers_solution
from sigmalab.reports import dumps

SEED = 2024

# smooth built-in fields used by the property suites; the radial family is
# excluded here because its point discontinuity sits inside the disk domain
SMOOTH_LIBRARY = [
    ("identity", identity_field()),
    ("aniso", anisotropic_field(2.0, 0.5)),
    ("aniso-rot", anisotropic_field(3.0, 0.8, theta=0.3)),
    ("holder", holder_bump_field(0.4, 0.2, -0.1, 0.5, 0.7)),
    ("nonsym", nonsymmetric_field(0.2)),
]


def solve(mesh, sigma, g):
    (u,), _ = solve_dirichlet(mesh, sigma, g)
    return u


def solve_pair(mesh, sigma, sol):
    (u1, u2), _ = solve_dirichlet(mesh, sigma, sol.value)
    return MappingField(u1, u2)


class AcceptanceRun:
    """All criterion payloads, computed lazily and deterministically."""

    def __init__(self, seed=SEED):
        self.seed = seed
        self.elapsed = {}

    # -- shared artifacts --------------------------------------------------

    @cached_property
    def annulus_h02(self):
        return generate_annulus((0.0, 0.0), 0.2, 1.0, 0.02)

    @cached_property
    def meyers2_mapping_h02(self):
        return solve_pair(self.annulus_h02, meyers_sigma(2.0), meyers_solution(2.0))

    @cached_property
    def disk_h03(self):
        return generate_disk((0.0, 0.0), 1.0, 0.03)

    # -- criteria -----------------------------------------------------------

    @cached_property
    def criterion1(self):
        t0 = time.perf_counter()
        sol = meyers_solution(2.0)
        sigma = meyers_sigma(2.0)

        mesh = self.annulus_h02
        U = self.meyers2_mapping_h02
        errs = [
            relative_l2_error(U.u1, lambda x, y: sol.value(x, y)[0]),
            relative_l2_error(U.u2, lambda x, y: sol.value(x, y)[1]),
        ]
        fine = refine(mesh)
        Uf = solve_pair(fine, sigma, sol)
        errs_fine = [
            relative_l2_error(Uf.u1, lambda x, y: sol.value(x, y)[0]),
            relative_l2_error(Uf.u2, lambda x, y: sol.value(x, y)[1]),
        ]
        payload = {
            "h": [mesh.h, fine.h],
            "rel_l2_u1": [errs[0], errs_fine[0]],
            "rel_l2_u2": [errs[1], errs_fine[1]],
            "ratio_u1": errs[0] / errs_fine[0],
            "ratio_u2": errs[1] / errs_fine[1],
        }
        self.elapsed["c1"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion2(self):
        t0 = time.perf_counter()
        mesh = self.annulus_h02
        det = jacobian_field(self.meyers2_mapping_h02)
        r = np.hypot(mesh.centroids[:, 0], mesh.centroids[:, 1])
        sel = r >= 0.3
        exact = 2.0 * r[sel] ** 2
        max_rel = float(np.max(np.abs(det[sel] - exact) / exact))

        U_half = solve_pair(mesh, meyers_sigma(0.5), meyers_solution(0.5))
        det_half = jacobian_field(U_half)
        edges = np.linspace(0.2, 1.0, 9)
        means = []
        for k in range(8):
            in_bin = (r >= edges[k]) & (r < edges[k + 1])
            means.append(float(det_half[in_bin].mean()))
        payload = {
            "alpha2_max_rel_err": max_rel,
            "alpha05_ring_means": means,
            "ring_edges": [float(e) for e in edges],
        }
        self.elapsed["c2"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion3(self):
        t0 = time.perf_counter()
        samples = self.annulus_h02.centroids
        k_meyers = max_dilatation(require_elliptic(meyers_sigma(2.0), samples).samples)
        library = {}
        disk = generate_disk((0.0, 0.0), 1.0, 0.05)
        for name, field in SMOOTH_LIBRARY:
            library[name] = max_dilatation(require_elliptic(field, disk.centroids).samples)
        library["meyers2-annulus"] = k_meyers
        payload = {
            "sample_count": int(len(samples)),
            "k_meyers2": k_meyers,
            "library_bounds": library,
        }
        self.elapsed["c3"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion4(self):
        t0 = time.perf_counter()

        def residual_chain(mesh, sigma, g, levels=2, allow_holes=False):
            out = []
            m = mesh
            for _ in range(levels):
                u = solve(m, sigma, g)
                v, _ = stream_function(u, sigma, allow_multiply_connected=allow_holes)
                out.append(beltrami_residual(complex_derivatives(u, v), sigma))
                m = refine(m)
            return out

        z2 = residual_chain(
            generate_disk((0.0, 0.0), 1.0, 0.05),
            identity_field(),
            lambda x, y: x * x - y * y,
        )
        sol = meyers_solution(2.0)
        meyers = residual_chain(
            generate_annulus((0.0, 0.0), 0.2, 1.0, 0.04),
            meyers_sigma(2.0),
            lambda x, y: sol.value(x, y)[0],
            allow_holes=True,
        )
        payload = {
            "z2_residuals": z2,
            "z2_ratio": z2[0] / z2[1],
            "meyers_residuals": meyers,
            "meyers_ratio": meyers[0] / meyers[1],
        }
        self.elapsed["c4"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion5(self):
        t0 = time.perf_counter()
        fields = [random_holder_field(self.seed + i) for i in range(5)]
        fields += [random_nonsymmetric_field(self.seed + i) for i in range(5)]
        ident = identity_oracle()
        results = []
        for field in fields:
            mesh = self.disk_h03
            U = solve_pair(mesh, field, ident)
            inj = injectivity_check(U)
            report = lewy_verify(U, directions=8, margin=0.1)

            fine = refine(mesh)
            Uf = solve_pair(fine, field, ident)
            detf = jacobian_field(Uf)
            inset = fine.boundary_distance(fine.centroids) >= 0.1
            min_det_fine = float(np.abs(detf[inset]).min())
            results.append(
                {
                    "descriptor": field.descriptor,
                    "injective": inj.injective,
                    "passed": report.passed,
                    "min_abs_det": report.min_abs_det,
                    "min_abs_det_refined": min_det_fine,
                    "det_change": min_det_fine / report.min_abs_det - 1.0,
                    "probes_resolved": sum(1 for p in report.probes if p["resolved"]),
                    "probes_unimodal": sum(
                        1 for p in report.probes if p["resolved"] and p["unimodal_all_directions"]
                    ),
                    "probe_count": len(report.probes),
                }
            )
        self.elapsed["c5"] = time.perf_counter() - t0
        return {"fields": results}

    @cached_property
    def criterion6(self):
        t0 = time.perf_counter()
        mesh = self.disk_h03
        inset = mesh.boundary_distance(mesh.centroids) >= 0.1
        unimodal_runs = []
        for name, field in SMOOTH_LIBRARY:
            u = solve(mesh, field, lambda x, y: x / np.hypot(x, y))
            cands = critical_point_candidates(u, 0.05)
            norms = gradient_field(u).norms()
            unimodal_runs.append(
                {
                    "sigma": name,
                    "candidates": len(cands),
                    "min_inset_grad": float(norms[inset].min()),
                }
            )
        u = solve(mesh, identity_field(), lambda x, y: x * x - y * y)
        cands = critical_point_candidates(u, 0.05)
        dist = [float(np.hypot(*mesh.centroids[t])) for t, _ in cands]
        payload = {
            "unimodal": unimodal_runs,
            "saddle_candidates": len(cands),
            "saddle_max_distance": max(dist) if dist else None,
            "h": mesh.h,
        }
        self.elapsed["c6"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion7(self):
        t0 = time.perf_counter()
        sigma = meyers_sigma(2.0)
        drift = to_nondivergence(sigma, step=1e-5)
        grid = annulus_grid((0.0, 0.0), 0.25, 0.95, 0.02)
        sol = meyers_solution(2.0)
        (uh,), _ = solve_nondivergence(grid, sigma, drift, lambda x, y: sol.value(x, y)[0])
        pts = grid.points(grid.interior_mask)
        exact = np.array([float(sol.value(x, y)[0]) for x, y in pts])
        vals = uh.values[grid.interior_mask]
        err_exact = float(np.sqrt(np.sum((vals - exact) ** 2) / np.sum(exact**2)))

        fem_vals = self.meyers2_mapping_h02.u1.interpolate(pts)
        err_fem = float(
            np.sqrt(np.nansum((vals - fem_vals) ** 2) / np.sum(exact**2))
        )

        rect = rectangle_grid((0.0, 0.0), 1.0, 1.0, 0.05)
        (aff,), _ = solve_nondivergence(
            rect, identity_field(), zero_drift(), lambda x, y: 1 + 2 * x - y
        )
        apts = rect.points(rect.interior_mask)
        aerr = float(
            np.abs(aff.values[rect.interior_mask] - (1 + 2 * apts[:, 0] - apts[:, 1])).max()
        )
        (bil,), _ = solve_nondivergence(rect, identity_field(), zero_drift(), lambda x, y: x * y)
        berr = float(
            np.abs(bil.values[rect.interior_mask] - apts[:, 0] * apts[:, 1]).max()
        )
        payload = {
            "interior_nodes": int(grid.interior_mask.sum()),
            "rel_l2_vs_exact": err_exact,
            "rel_l2_vs_fem": err_fem,
            "affine_max_err": aerr,
            "bilinear_max_err": berr,
        }
        self.elapsed["c7"] = time.perf_counter() - t0
        return payload

    @cached_property
    def criterion8(self):
        t0 = time.perf_counter()
        disk = generate_disk((0.0, 0.0), 1.0, 0.05)
        annulus = generate_annulus((0.0, 0.0), 0.2, 1.0, 0.05)
        cases = [
            ("identity", identity_oracle().mapping_field(disk), 0.1),
            ("z2", holomorphic_oracle(2).mapping_field(disk), 0.1),
            ("meyers-0.5", meyers_solution(0.5).mapping_field(annulus), 0.05),
            ("meyers-1", meyers_solution(1.0).mapping_field(annulus), 0.05),
            ("meyers-2", meyers_solution(2.0).mapping_field(annulus), 0.05),
        ]
        rows = []
        for name, U, step in cases:
            geometric = injectivity_check(U).injective
            brute = brute_force_injectivity(U, step)
            rows.append({"map": name, "geometric": geometric, "brute_force": brute})
        self.elapsed["c8"] = time.perf_counter() - t0
        return {"cases": rows}

    def all_reports(self) -> dict[str, bytes]:
        return {
            f"c{i}_report.json": dumps(getattr(self, f"criterion{i}")).encode()
            for i in range(1, 9)
        }


@pytest.fixture(scope="session")
def run():
    return AcceptanceRun()


def check(tag, conditions):
    ok = all(bool(c) for _, c in conditions)
    detail = "; ".join(f"{name}={'ok' if bool(c) else 'FAIL'}" for name, c in conditions)
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {tag} failed: {detail}"


def test_criterion_1_meyers_reproduction(run):
    p = run.criterion1
    check(
        "1 meyers-reproduction",
        [
            ("u1 error <= 2%", p["rel_l2_u1"][0] <= 0.02),
            ("u2 error <= 2%", p["rel_l2_u2"][0] <= 0.02),
            ("u1 ratio >= 3", p["ratio_u1"] >= 3.0),
            ("u2 ratio >= 3", p["ratio_u2"] >= 3.0),
            ("runtime <= 60s", run.elapsed["c1"] <= 60.0),
        ],
    )


def test_criterion_2_jacobian_law(run):
    p = run.criterion2
    means = p["alpha05_ring_means"]
    monotone = all(means[k] > means[k + 1] for k in range(len(means) - 1))
    check(
        "2 jacobian-law",
        [
            ("alpha=2 within 10% for |x|>=0.3", p["alpha2_max_rel_err"] <= 0.10),
            ("alpha=0.5 grows toward inner radius", monotone),
        ],
    )


def test_criterion_3_dilatation_bound(run):
    p = run.criterion3
    check(
        "3 dilatation-bound",
        [
            ("sample count >= 1000", p["sample_count"] >= 1000),
            ("k(meyers 2) = 1/3 within 1e-6", abs(p["k_meyers2"] - 1 / 3) <= 1e-6),
            ("library bounds < 1", all(v < 1.0 for v in p["library_bounds"].values())),
            ("runtime <= 5s", run.elapsed["c3"] <= 5.0),
        ],
    )


def test_criterion_4_beltrami_convergence(run):
    p = run.criterion4
    check(
        "4 beltrami-residual",
        [
            ("z2 finest <= 5%", p["z2_residuals"][-1] <= 0.05),
            ("z2 ratio >= 1.8", p["z2_ratio"] >= 1.8),
            ("meyers finest <= 5%", p["meyers_residuals"][-1] <= 0.05),
            ("meyers ratio >= 1.8", p["meyers_ratio"] >= 1.8),
            ("runtime <= 60s", run.elapsed["c4"] <= 60.0),
        ],
    )


def test_criterion_5_property_suite(run):
    p = run.criterion5
    rows = p["fields"]
    check(
        "5 nonvanishing-jacobian-suite",
        [
            ("10 fields", len(rows) == 10),
            ("all injective", all(r["injective"] for r in rows)),
            ("all lewy passed", all(r["passed"] for r in rows)),
            ("min det positive", all(r["min_abs_det"] > 0 for r in rows)),
            ("det stable under refinement", all(r["det_change"] >= -0.10 for r in rows)),
            (
                "resolved probes unimodal",
                all(r["probes_unimodal"] == r["probes_resolved"] for r in rows),
            ),
            ("runtime <= 300s", run.elapsed["c5"] <= 300.0),
        ],
    )


def test_criterion_6_no_critical_points_shadow(run):
    p = run.criterion6
    check(
        "6 critical-point-shadow",
        [
            ("unimodal data: no candidates", all(r["candidates"] == 0 for r in p["unimodal"])),
            ("unimodal data: positive inset gradient", all(r["min_inset_grad"] > 0 for r in p["unimodal"])),
            ("saddle data: candidates found", p["saddle_candidates"] > 0),
            ("saddle candidates within 2h", p["saddle_max_distance"] is not None
             and p["saddle_max_distance"] <= 2 * p["h"]),
            ("runtime <= 60s", run.elapsed["c6"] <= 60.0),
        ],
    )


def test_criterion_7_cross_form_agreement(run):
    p = run.criterion7
    check(
        "7 cross-form-agreement",
        [
            ("fd vs analytic <= 5%", p["rel_l2_vs_exact"] <= 0.05),
            ("fd vs fem <= 7%", p["rel_l2_vs_fem"] <= 0.07),
            ("affine exact to 1e-9", p["affine_max_err"] <= 1e-9),
            ("bilinear exact to 1e-9", p["bilinear_max_err"] <= 1e-9),
            ("runtime <= 60s", run.elapsed["c7"] <= 60.0),
        ],
    )


def test_criterion_8_oracle_vs_surrogate(run):
    p = run.criterion8
    agree = all(r["geometric"] == r["brute_force"] for r in p["cases"])
    z2 = next(r for r in p["cases"] if r["map"] == "z2")
    check(
        "8 oracle-vs-surrogate",
        [
            ("verdicts agree on all maps", agree),
            ("z2 detected as non-injective", z2["geometric"] is False),
            ("runtime <= 30s", run.elapsed["c8"] <= 30.0),
        ],
    )


def test_criterion_9_determinism(run, tmp_path):
    first = run.all_reports()
    second = AcceptanceRun().all_reports()
    for name, blob in first.items():
        (tmp_path / name).write_bytes(blob)
    identical = {name: first[name] == second[name] for name in first}
    check(
        "9 determinism",
        [("byte-identical reports", all(identical.values()))]
        + [(name, ok) for name, ok in identical.items()],
    )
