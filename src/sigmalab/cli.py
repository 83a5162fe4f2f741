"""Batch command-line entry point.

Commands wire meshes, coefficient fields, solvers, and analysis into
reproducible runs. Every run writes its resolved configuration next to its
outputs; identical configurations produce byte-identical files. Output files
are materialized only after the whole computation succeeded, so failed runs
leave nothing half-written.

Exit status: 0 success/pass, 2 config error, 3 numerical failure,
4 hypothesis failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis, coefficients, fd, fem, mesh as meshmod, oracles, svgplots
from .errors import (
    ConfigError,
    DegenerateInputError,
    EllipticityError,
    MeshError,
    NotInjectiveError,
    ResourceLimitError,
    SolverError,
)
from .reports import dumps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFICATION = 5

_NUMERICAL_ERRORS = (
    MeshError,
    SolverError,
    EllipticityError,
    ResourceLimitError,
    DegenerateInputError,
)


_DOMAIN_KEYS = {"disk": ("r",), "annulus": ("rin", "rout"), "rect": ("w", "h")}


def _parse_domain(descriptor: str) -> tuple[str, dict]:
    """Domain name and parameters, with the name known and its required keys present."""
    name, p = coefficients.parse_descriptor(descriptor)
    if name not in _DOMAIN_KEYS:
        raise ConfigError(f"unknown domain '{descriptor}'")
    keys = _DOMAIN_KEYS[name]
    if any(k not in p for k in keys):
        raise ConfigError(f"{name} domain needs {' and '.join(keys)}")
    return name, p


def build_domain(descriptor: str, h: float) -> meshmod.Mesh:
    name, p = _parse_domain(descriptor)
    if name == "disk":
        return meshmod.generate_disk((p.get("cx", 0.0), p.get("cy", 0.0)), p["r"], h)
    if name == "annulus":
        return meshmod.generate_annulus(
            (p.get("cx", 0.0), p.get("cy", 0.0)), p["rin"], p["rout"], h
        )
    return meshmod.generate_rectangle(
        (p.get("x0", 0.0), p.get("y0", 0.0)), p["w"], p["h"], h
    )


def build_grid(descriptor: str, spacing: float) -> fd.GridDomain:
    name, p = _parse_domain(descriptor)
    if name == "annulus":
        return fd.annulus_grid(
            (p.get("cx", 0.0), p.get("cy", 0.0)), p["rin"], p["rout"], spacing
        )
    if name == "rect":
        return fd.rectangle_grid((p.get("x0", 0.0), p.get("y0", 0.0)), p["w"], p["h"], spacing)
    raise ConfigError(f"domain '{descriptor}' is not usable as a grid")


def resolve_sigma(cfg: dict) -> coefficients.CoefficientField:
    return coefficients.field_from_descriptor(cfg["sigma"])


def resolve_data(cfg: dict, components: int) -> oracles.AnalyticSolution:
    """The g descriptor's oracle; g=oracle takes the exact solution of a meyers
    sigma (its u1 where scalar data is needed)."""
    desc = cfg["g"]
    if desc.strip().lower() == "oracle":
        if coefficients.parse_descriptor(cfg["sigma"])[0] != "meyers":
            raise ConfigError("g=oracle requires a meyers sigma descriptor")
        desc = cfg["sigma"]
        sol = oracles.oracle_from_descriptor(desc)
        if components == 1:
            sol = sol.component(0)
    else:
        sol = oracles.oracle_from_descriptor(desc)
    if sol.components != components:
        kind = "a map" if sol.components == 2 else "scalar"
        need = "scalar data" if components == 1 else "a two-component map"
        raise ConfigError(f"'{desc}' is {kind}; this command needs {need}")
    return sol


# ---------------------------------------------------------------------------
# commands; each returns (files: dict name -> text, summary line, exit code)


def cmd_mesh(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    for _ in range(cfg["refine"]):
        m = meshmod.refine(m)
    area = float(m.areas.sum())
    files = {"mesh.txt": meshmod.mesh_to_text(m)}
    summary = (
        f"mesh: {m.num_vertices} vertices, {m.num_triangles} triangles, "
        f"{len(m.loops)} loops, area={area:.6f}"
    )
    return files, summary, EXIT_OK


def cmd_solve(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    sigma = resolve_sigma(cfg)
    data = resolve_data(cfg, 1)
    (u,), residual = fem.solve_dirichlet(m, sigma, data.value)

    grad_norms = fem.gradient_field(u).norms()
    ref = data.value(*m.vertices.T)
    linf = float(np.abs(u.values - ref).max())
    l2 = fem.relative_l2_error(u, data.value)
    summary_data = {
        "vertices": m.num_vertices,
        "triangles": m.num_triangles,
        "solve_residual": residual,
        "u_min": float(u.values.min()),
        "u_max": float(u.values.max()),
        "grad_norm_min": float(grad_norms.min()),
        "grad_norm_max": float(grad_norms.max()),
        "grad_norm_median": float(np.median(grad_norms)),
        "linf_vs_reference": linf,
        "rel_l2_vs_reference": l2,
        "reference": data.descriptor,
    }
    files = {
        "mesh.txt": meshmod.mesh_to_text(m),
        "u.txt": fem.field_to_text(u),
        "summary.json": dumps(summary_data),
    }
    if cfg["svg"]:
        files["contour.svg"] = svgplots.contour_svg(u)
    summary = (
        f"solve: {m.num_vertices} vertices, residual={residual:.3e}, "
        f"u in [{u.values.min():.6g}, {u.values.max():.6g}], "
        f"rel_l2_vs_reference={l2:.3e}"
    )
    return files, summary, EXIT_OK


def cmd_solve_nd(cfg):
    grid = build_grid(cfg["domain"], cfg["spacing"])
    sigma = resolve_sigma(cfg)
    pts = grid.points(grid.interior_mask)
    data = resolve_data(cfg, 1)
    bdesc = cfg.get("b", "auto")
    if bdesc == "auto":
        _, drift = fd.to_nondivergence(sigma, step=cfg["fd_step"])
    elif bdesc == "zero":
        drift = fd.zero_drift()
    else:
        raise ConfigError(f"unknown drift descriptor '{bdesc}' (use auto or zero)")
    u = fd.solve_nondivergence(grid, sigma, drift, data.value)

    ref = data.value(*pts.T)
    uh = u.values[grid.interior_mask]
    denom = float(np.sqrt(np.sum(ref**2)))
    l2 = float(np.sqrt(np.sum((uh - ref) ** 2))) / denom if denom > 0 else math.inf
    summary_data = {
        "interior_nodes": int(grid.interior_mask.sum()),
        "boundary_nodes": int(grid.boundary_mask.sum()),
        "spacing": grid.spacing,
        "u_min": float(uh.min()),
        "u_max": float(uh.max()),
        "rel_l2_vs_reference": l2,
        "drift": drift.descriptor,
        "reference": data.descriptor,
    }
    files = {
        "grid.txt": fd.grid_field_to_text(u),
        "summary.json": dumps(summary_data),
    }
    summary = (
        f"solve-nd: {summary_data['interior_nodes']} interior nodes, "
        f"rel_l2_vs_reference={l2:.3e}"
    )
    return files, summary, EXIT_OK


def _solve_mapping(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    sigma = resolve_sigma(cfg)
    data = resolve_data(cfg, 2)
    (u1, u2), residual = fem.solve_dirichlet(m, sigma, data.value)
    return m, sigma, data, analysis.MappingField(u1, u2), residual


def cmd_map(cfg):
    m, sigma, data, U, residual = _solve_mapping(cfg)
    det = analysis.jacobian_field(U)
    summary_data = {
        "vertices": m.num_vertices,
        "triangles": m.num_triangles,
        "solve_residual": residual,
        "jacobian_min": float(det.min()),
        "jacobian_max": float(det.max()),
        "boundary_map": data.descriptor,
    }
    files = {
        "mesh.txt": meshmod.mesh_to_text(m),
        "u1.txt": fem.field_to_text(U.u1),
        "u2.txt": fem.field_to_text(U.u2),
        "summary.json": dumps(summary_data),
    }
    if cfg["svg"]:
        files["jacobian.svg"] = svgplots.heatmap_svg(m, det)
    summary = (
        f"map: {m.num_vertices} vertices, det DU in "
        f"[{det.min():.6g}, {det.max():.6g}]"
    )
    return files, summary, EXIT_OK


def cmd_verify(cfg):
    m, sigma, data, U, _ = _solve_mapping(cfg)
    det = analysis.jacobian_field(U)
    files = {
        "mesh.txt": meshmod.mesh_to_text(m),
        "u1.txt": fem.field_to_text(U.u1),
        "u2.txt": fem.field_to_text(U.u2),
    }
    if cfg["svg"]:
        files["jacobian.svg"] = svgplots.heatmap_svg(m, det)
    try:
        report = analysis.lewy_verify(
            U, sigma, directions=cfg["directions"], margin=cfg["margin"]
        )
    except NotInjectiveError as exc:
        inj = analysis.injectivity_check(U)
        files["lewy_report.json"] = dumps(
            {
                "status": "hypothesis-failure",
                "reason": str(exc),
                "violation_count": len(inj.violations),
                "violations": [list(map(str, v)) for v in inj.violations[:50]],
            }
        )
        return files, f"verify: hypothesis failure: {exc}", EXIT_HYPOTHESIS
    files["lewy_report.json"] = dumps(report)
    code = EXIT_OK if report.passed else EXIT_VERIFICATION
    status = "pass" if report.passed else "degenerate"
    summary = (
        f"verify: {status}, min|det DU|={report.min_abs_det:.6g} at margin "
        f"{report.margin}, {report.directions_tested} directions"
    )
    return files, summary, code


def cmd_meyers(cfg):
    alpha = cfg["alpha"]
    if not alpha > 0:
        raise ConfigError("alpha must be positive")
    name, p = _parse_domain(cfg["domain"])
    if name != "annulus":
        raise ConfigError("the meyers reproduction runs on an annulus domain")
    sigma = coefficients.meyers_sigma(alpha)
    sol = oracles.meyers_solution(alpha)
    levels = cfg["levels"]
    if levels < 2:
        raise ConfigError("need at least 2 refinement levels for a convergence table")
    jac_rmin = cfg.get("jacobian_rmin", 0.3)

    m = build_domain(cfg["domain"], cfg["h"])
    rows = []
    for _ in range(levels):
        (u1, u2), _ = fem.solve_dirichlet(m, sigma, sol.value)
        U = analysis.MappingField(u1, u2)
        err1 = fem.relative_l2_error(u1, sol.component(0).value)
        err2 = fem.relative_l2_error(u2, sol.component(1).value)

        det = analysis.jacobian_field(U)
        cent = m.centroids
        radii = np.hypot(cent[:, 0] - p.get("cx", 0.0), cent[:, 1] - p.get("cy", 0.0))
        region = radii >= jac_rmin
        det_exact = oracles.meyers_jacobian(alpha, cent)
        jac_err = float(
            np.abs(det[region] - det_exact[region]).max()
            / np.abs(det_exact[region]).max()
        ) if region.any() else math.nan

        nbins = 8
        edges = np.linspace(p["rin"], p["rout"], nbins + 1)
        profile = []
        for k in range(nbins):
            sel = (radii >= edges[k]) & (radii < edges[k + 1])
            profile.append(float(det[sel].mean()) if sel.any() else math.nan)

        rows.append(
            {
                "h": m.h,
                "vertices": m.num_vertices,
                "rel_l2_u1": err1,
                "rel_l2_u2": err2,
                "jacobian_max_rel_err": jac_err,
                "jacobian_ring_means": profile,
                "ring_edges": [float(e) for e in edges],
            }
        )
        if len(rows) < levels:
            m = meshmod.refine(m)

    for i in range(1, len(rows)):
        rows[i]["l2_ratio_u1"] = rows[i - 1]["rel_l2_u1"] / max(rows[i]["rel_l2_u1"], 1e-300)
        rows[i]["l2_ratio_u2"] = rows[i - 1]["rel_l2_u2"] / max(rows[i]["rel_l2_u2"], 1e-300)

    table = ["   h        vertices   rel_l2_u1    rel_l2_u2    jac_max_rel  ratio_u1"]
    for r in rows:
        ratio = f"{r.get('l2_ratio_u1', float('nan')):9.3f}"
        table.append(
            f"{r['h']:9.5f} {r['vertices']:9d}  {r['rel_l2_u1']:.5e}  "
            f"{r['rel_l2_u2']:.5e}  {r['jacobian_max_rel_err']:.5e} {ratio}"
        )
    report = {"alpha": alpha, "domain": cfg["domain"], "levels": rows}
    files = {
        "convergence.json": dumps(report),
        "convergence.txt": "\n".join(table) + "\n",
    }
    last = rows[-1]
    summary = (
        f"meyers: alpha={alpha}, finest h={last['h']:.5f}, "
        f"rel_l2_u1={last['rel_l2_u1']:.3e}, ratio={last.get('l2_ratio_u1', math.nan):.2f}"
    )
    return files, summary, EXIT_OK


def cmd_beltrami(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    sigma = resolve_sigma(cfg)
    k = coefficients.dilatation_bound(sigma, m.centroids)
    ell = coefficients.ellipticity_report(sigma, m.centroids)
    report = {
        "sigma": sigma.descriptor,
        "ellipticity": ell.to_dict(),
        "dilatation_bound": k,
        "sample_count": int(m.num_triangles),
    }
    summary_bits = [f"beltrami: K={ell.K_estimate:.6g}, k={k:.6g}"]
    if cfg.get("g"):
        data = resolve_data(cfg, 1)
        (u,), _ = fem.solve_dirichlet(m, sigma, data.value)
        v, stream_res = analysis.stream_function(
            u, sigma, allow_multiply_connected=bool(cfg.get("allow_holes"))
        )
        cd = analysis.complex_derivatives(u, v)
        res = analysis.beltrami_residual(cd, sigma)
        report["stream_residual"] = stream_res
        report["beltrami_residual"] = res
        report["boundary_data"] = data.descriptor
        summary_bits.append(f"residual={res:.3e}")
    files = {"beltrami_report.json": dumps(report)}
    return files, ", ".join(summary_bits), EXIT_OK


def cmd_unimodal(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    data = resolve_data(cfg, 1)
    loop_index = cfg["loop"]
    _, xy = zip(*meshmod.boundary_trace(m, loop_index))
    vals = data.value(*np.transpose(xy))
    verdict = analysis.unimodality_check(vals, atol=cfg.get("atol", 1e-12))
    files = {
        "unimodal_report.json": dumps(
            {"data": data.descriptor, "loop": loop_index, "verdict": verdict.to_dict()}
        )
    }
    word = "unimodal" if verdict.unimodal else "not unimodal"
    summary = (
        f"unimodal: trace of {data.descriptor} on loop {loop_index} is {word} "
        f"({verdict.direction_changes} direction changes)"
    )
    return files, summary, EXIT_OK


COMMANDS = {
    "mesh": cmd_mesh,
    "solve": cmd_solve,
    "solve-nd": cmd_solve_nd,
    "map": cmd_map,
    "verify": cmd_verify,
    "meyers": cmd_meyers,
    "beltrami": cmd_beltrami,
    "unimodal": cmd_unimodal,
}

_DEFAULTS = {
    "h": 0.05,
    "spacing": 0.05,
    "alpha": 2.0,
    "sigma": "identity",
    "g": "x1",
    "margin": 0.1,
    "directions": 8,
    "svg": True,
    "out": ".",
    "fd_step": 1e-5,
    "refine": 0,
    "levels": 3,
    "b": "auto",
    "loop": 0,
    "atol": 1e-12,
    "allow_holes": False,
    "jacobian_rmin": 0.3,
}

_REQUIRED = {
    "mesh": ("domain",),
    "solve": ("domain",),
    "solve-nd": ("domain",),
    "map": ("domain", "g"),
    "verify": ("domain", "g"),
    "meyers": ("domain", "alpha"),
    "beltrami": ("domain", "sigma"),
    "unimodal": ("domain", "g"),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sigmalab",
        description="Numerical laboratory for planar mappings with elliptic-equation components",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name in COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("--config", type=str, help="JSON config file; flags override it")
        p.add_argument("--out", type=str, help="output directory (default .)")
        p.add_argument("--domain", type=str, help="disk:r=1 | annulus:rin=0.2,rout=1 | rect:w=1,h=1")
        p.add_argument("--h", type=float, dest="h", help="nominal mesh size")
        p.add_argument("--spacing", type=float, help="grid spacing (solve-nd)")
        p.add_argument("--alpha", type=float, help="radial-stretch exponent (meyers)")
        p.add_argument("--sigma", type=str, help="coefficient descriptor")
        p.add_argument("--g", type=str, help="boundary data descriptor")
        p.add_argument("--b", type=str, help="drift: auto | zero (solve-nd)")
        p.add_argument("--margin", type=float, help="compact-subset inset distance")
        p.add_argument("--directions", type=int, help="half-circle direction count")
        p.add_argument("--refine", type=int, help="uniform refinements (mesh)")
        p.add_argument("--levels", type=int, help="convergence levels (meyers)")
        p.add_argument("--loop", type=int, help="boundary loop index (unimodal)")
        p.add_argument("--atol", type=float, help="plateau tolerance (unimodal)")
        p.add_argument("--fd-step", type=float, dest="fd_step", help="step for div sigma")
        p.add_argument("--allow-holes", action="store_true", dest="allow_holes",
                       default=None, help="permit stream functions on annuli (beltrami)")
        p.add_argument("--svg", action=argparse.BooleanOptionalAction, default=None,
                       help="emit SVG plots")
    return parser


def resolve_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["command"] = args.command
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                loaded = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key in ("command", "config"):
            continue
        if value is not None:
            cfg[key] = value
    missing = [k for k in _REQUIRED[args.command] if not cfg.get(k)]
    if missing:
        raise ConfigError(f"missing required options for {args.command}: {missing}")
    for key in ("h", "spacing", "alpha", "margin", "fd_step", "atol"):
        value = cfg[key]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise ConfigError(f"option {key} must be a finite number, got {value!r}")
    for key in ("refine", "levels", "loop", "directions"):
        value = cfg[key]
        if not isinstance(value, int) or isinstance(value, bool):
            raise ConfigError(f"option {key} must be an integer, got {value!r}")
    return cfg


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = resolve_config(args)
        files, summary, code = COMMANDS[args.command](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except NotInjectiveError as exc:
        print(f"hypothesis failure: {exc}", file=sys.stderr)
        return EXIT_HYPOTHESIS
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    outdir = Path(cfg["out"])
    outdir.mkdir(parents=True, exist_ok=True)
    files = dict(files)
    # the output location is not part of the run's identity
    files["config.json"] = dumps({k: v for k, v in cfg.items() if k != "out"})
    for name, text in files.items():
        with open(outdir / name, "w", encoding="utf-8", newline="\n") as f:
            f.write(text)
    print(summary)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
