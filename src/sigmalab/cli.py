"""Batch command-line entry point.

Commands wire meshes, coefficient fields, solvers, and analysis into
reproducible runs. OPTIONS is the one table of options; each command has flags
for the options it reads (COMMANDS), and a --config JSON file may set any
option, so a run's own config.json reads back in. Unknown or wrongly typed
options, values below an option's minimum (or at it, for a strict one), a
"command" key naming another command, and descriptor keys that are unknown,
repeated, non-finite or non-integral (seed, m, component) are config errors.
Every run writes its resolved configuration next to its outputs; identical
configurations produce byte-identical files. Nothing is written unless the
whole computation succeeded; a failed write is a config error.

Exit status: 0 success/pass, 2 config error, 3 numerical failure,
4 hypothesis failure, 5 verification failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import shutil
import sys
import time
from pathlib import Path
from typing import NamedTuple

import numpy as np

from . import analysis, coefficients, fd, fem, mesh as meshmod, oracles, svgplots
from .coefficients import Family, parse_family
from .errors import (ConfigError, DegenerateInputError, NotInjectiveError, ResourceLimitError,
                     SigmalabError)
from .reports import dumps

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NUMERICAL = 3
EXIT_HYPOTHESIS = 4
EXIT_VERIFICATION = 5

#: meyers measures the Jacobian error on centroids at least this far from the center
JACOBIAN_RMIN = 0.3

#: domain descriptors; build(params, h) gives the mesh at mesh size h
DOMAINS = {
    "disk": Family(lambda p, h: meshmod.generate_disk((p["cx"], p["cy"]), p["r"], h),
                   ("r",), {"cx": 0.0, "cy": 0.0}),
    "annulus": Family(lambda p, h: meshmod.generate_annulus((p["cx"], p["cy"]), p["rin"],
                                                            p["rout"], h),
                      ("rin", "rout"), {"cx": 0.0, "cy": 0.0}),
    "rect": Family(lambda p, h: meshmod.generate_rectangle((p["x0"], p["y0"]), p["w"], p["h"], h),
                   ("w", "h"), {"x0": 0.0, "y0": 0.0}),
}

#: the domains that also make finite-difference grids, at a spacing
GRIDS = {
    "annulus": lambda p, s: fd.annulus_grid((p["cx"], p["cy"]), p["rin"], p["rout"], s),
    "rect": lambda p, s: fd.rectangle_grid((p["x0"], p["y0"]), p["w"], p["h"], s),
}


def build_domain(descriptor: str, h: float) -> meshmod.Mesh:
    name, p = parse_family(descriptor, DOMAINS, "domain")
    return DOMAINS[name].build(p, h)


def build_grid(descriptor: str, spacing: float) -> fd.GridDomain:
    name, p = parse_family(descriptor, DOMAINS, "domain")
    if name not in GRIDS:
        raise ConfigError(f"domain '{descriptor}' is not usable as a grid")
    return GRIDS[name](p, spacing)


def resolve_data(cfg: dict, components: int) -> oracles.AnalyticSolution:
    """The g descriptor's oracle; g=oracle takes the exact solution of a meyers
    sigma (its u1 where scalar data is needed)."""
    desc = cfg["g"]
    exact = desc.strip().lower() == "oracle"
    if exact:
        if coefficients.parse_descriptor(cfg["sigma"])[0] != "meyers":
            raise ConfigError("g=oracle requires a meyers sigma descriptor")
        desc = cfg["sigma"]
    sol = oracles.oracle_from_descriptor(desc)
    if exact and components == 1:
        sol = sol.component(0)
    if sol.components != components:
        kind = "a map" if sol.components == 2 else "scalar"
        need = "scalar data" if components == 1 else "a two-component map"
        raise ConfigError(f"'{desc}' is {kind}; this command needs {need}")
    return sol


# ---------------------------------------------------------------------------
# commands; each returns (files: dict name -> text, summary line, exit code)


def cmd_mesh(cfg):
    m = build_domain(cfg["domain"], cfg["h"])
    meshmod.check_refinements(m, cfg["refine"])
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
    sigma = coefficients.field_from_descriptor(cfg["sigma"])
    data = resolve_data(cfg, 1)
    S = coefficients.require_elliptic(sigma, m.centroids).samples
    (u,), residual = fem.solve_dirichlet(m, S, data.value)

    g = fem.gradient_field(u)
    grad_norms = np.hypot(g[:, 0], g[:, 1])
    try:
        linf = float(np.abs(u.values - data.value(*m.vertices.T)).max())
        l2 = fem.relative_l2_error(u, data.value)
    except DegenerateInputError:  # the oracle is undefined at some point
        linf = l2 = math.nan
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
    sigma = coefficients.field_from_descriptor(cfg["sigma"])
    pts = grid.plan.interior_points
    data = resolve_data(cfg, 1)
    bdesc = cfg["b"]
    if bdesc not in ("auto", "zero"):
        raise ConfigError(f"unknown drift descriptor '{bdesc}' (use auto or zero)")
    S = coefficients.require_elliptic(sigma, pts).samples
    if bdesc == "auto":
        B = coefficients.divergence_of_sigma(sigma, pts, cfg["fd_step"])
        drift = f"div({sigma.descriptor});step={cfg['fd_step']}"
    else:
        B, drift = np.zeros((len(pts), 2)), "zero"
    (u,), residual = fd.solve_nondivergence(grid, S, B, data.value)

    uh = u.values[grid.interior_mask]
    try:
        ref = data.value(*pts.T)
        l2 = fem.relative_l2(uh - ref, ref)
    except DegenerateInputError:  # the oracle is undefined at some node
        l2 = math.nan
    summary_data = {
        "interior_nodes": int(grid.interior_mask.sum()),
        "boundary_nodes": int(grid.boundary_mask.sum()),
        "spacing": grid.spacing,
        "solve_residual": residual,
        "u_min": float(uh.min()),
        "u_max": float(uh.max()),
        "rel_l2_vs_reference": l2,
        "drift": drift,
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


def _solve_mapping(cfg, directions=0):
    """The solved map, its Jacobian and the files map and verify both write.

    verify's work grows with directions * nv, so ResourceLimitError refuses
    that product above the vertex cap before the solve."""
    m = build_domain(cfg["domain"], cfg["h"])
    sigma = coefficients.field_from_descriptor(cfg["sigma"])
    data = resolve_data(cfg, 2)
    if directions * m.num_vertices > meshmod.DEFAULT_VERTEX_CAP:
        raise ResourceLimitError(
            f"{directions} directions on {m.num_vertices} vertices make "
            f"{directions * m.num_vertices} direction-vertex pairs, above the cap of "
            f"{meshmod.DEFAULT_VERTEX_CAP}; use fewer directions or a coarser mesh size"
        )
    S = coefficients.require_elliptic(sigma, m.centroids).samples
    (u1, u2), residual = fem.solve_dirichlet(m, S, data.value)
    U = analysis.MappingField(u1, u2)
    det = analysis.jacobian_field(U)
    files = {
        "mesh.txt": meshmod.mesh_to_text(m),
        "u1.txt": fem.field_to_text(u1),
        "u2.txt": fem.field_to_text(u2),
    }
    if cfg["svg"]:
        files["jacobian.svg"] = svgplots.heatmap_svg(m, det)
    return m, data, U, det, residual, files


def cmd_map(cfg):
    m, data, U, det, residual, files = _solve_mapping(cfg)
    summary_data = {
        "vertices": m.num_vertices,
        "triangles": m.num_triangles,
        "solve_residual": residual,
        "jacobian_min": float(det.min()),
        "jacobian_max": float(det.max()),
        "boundary_map": data.descriptor,
    }
    files["summary.json"] = dumps(summary_data)
    summary = (
        f"map: {m.num_vertices} vertices, det DU in "
        f"[{det.min():.6g}, {det.max():.6g}]"
    )
    return files, summary, EXIT_OK


def cmd_verify(cfg):
    _, _, U, _, _, files = _solve_mapping(cfg, cfg["directions"])
    try:
        report = analysis.lewy_verify(U, directions=cfg["directions"], margin=cfg["margin"])
    except NotInjectiveError as exc:
        inj = exc.result
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
    name, p = parse_family(cfg["domain"], DOMAINS, "domain")
    if name != "annulus" or p["cx"] != 0.0 or p["cy"] != 0.0:
        raise ConfigError("the meyers reproduction runs on an annulus centred at the origin")
    sigma = coefficients.meyers_sigma(alpha)
    sol = oracles.meyers_solution(alpha)
    levels = cfg["levels"]

    m = DOMAINS[name].build(p, cfg["h"])
    meshmod.check_refinements(m, levels - 1)
    rows = []
    for _ in range(levels):
        S = coefficients.require_elliptic(sigma, m.centroids).samples
        (u1, u2), _ = fem.solve_dirichlet(m, S, sol.value)
        U = analysis.MappingField(u1, u2)
        err1 = fem.relative_l2_error(u1, sol.component(0).value)
        err2 = fem.relative_l2_error(u2, sol.component(1).value)

        det = analysis.jacobian_field(U)
        cent = m.centroids
        radii = np.hypot(*cent.T)
        region = radii >= JACOBIAN_RMIN
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
    if cfg["g"] and not cfg["allow_holes"]:  # refuse before the solve
        analysis.require_simply_connected(m)
    sigma = coefficients.field_from_descriptor(cfg["sigma"])
    ell = coefficients.require_elliptic(sigma, m.centroids)
    k = coefficients.max_dilatation(ell.samples)
    report = {
        "sigma": sigma.descriptor,
        "ellipticity": ell.to_dict(),
        "dilatation_bound": k,
        "sample_count": int(m.num_triangles),
    }
    summary_bits = [f"beltrami: K={ell.K_estimate:.6g}, k={k:.6g}"]
    if cfg["g"]:
        data = resolve_data(cfg, 1)
        (u,), _ = fem.solve_dirichlet(m, ell.samples, data.value)
        v, stream_res = analysis.stream_function(
            u, sigma, allow_multiply_connected=cfg["allow_holes"]
        )
        res = analysis.beltrami_residual(u, v, ell.samples)
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
    if loop_index >= len(m.loops):
        raise ConfigError(f"no boundary loop {loop_index}; the mesh has {len(m.loops)}")
    vals = data.value(*m.vertices[m.loops[loop_index]].T)
    verdict = analysis.unimodality_check(vals, atol=cfg["atol"])
    files = {
        "unimodal_report.json": dumps(
            {"data": data.descriptor, "loop": loop_index, "verdict": verdict}
        )
    }
    word = "unimodal" if verdict.unimodal else "not unimodal"
    summary = (
        f"unimodal: trace of {data.descriptor} on loop {loop_index} is {word} "
        f"({verdict.direction_changes} direction changes)"
    )
    return files, summary, EXIT_OK


class Option(NamedTuple):
    """One configurable value. default None: the option is required;
    minimum: the lower bound, if any, which the value may equal unless
    strict."""

    type: type
    default: object
    help: str
    minimum: float | None = None
    strict: bool = False


OPTIONS = {
    "out": Option(str, ".", "output directory (default .)"),
    "domain": Option(str, None, "disk:r=1 | annulus:rin=0.2,rout=1 | rect:w=1,h=1"),
    "h": Option(float, 0.05, "nominal mesh size", 0, strict=True),
    "spacing": Option(float, 0.05, "grid spacing", 0, strict=True),
    "alpha": Option(float, 2.0, "radial-stretch exponent"),
    "sigma": Option(str, "identity", "coefficient descriptor"),
    "g": Option(str, "x1", "boundary data descriptor"),
    "b": Option(str, "auto", "drift: auto | zero"),
    "margin": Option(float, 0.1, "compact-subset inset distance", 0),
    "directions": Option(int, 8, "half-circle direction count", 1),
    "refine": Option(int, 0, "uniform refinements", 0),
    "levels": Option(int, 3, "convergence levels", 2),
    "loop": Option(int, 0, "boundary loop index", 0),
    "atol": Option(float, 1e-12, "plateau tolerance", 0),
    "fd_step": Option(float, 1e-5, "step for div sigma", 0, strict=True),
    "allow_holes": Option(bool, False, "permit stream functions on annuli"),
    "svg": Option(bool, True, "emit SVG plots"),
}

_KINDS = {str: "a string", float: "a finite number", int: "an integer", bool: "true or false"}

#: command -> (function, the options it reads besides out)
COMMANDS = {
    "mesh": (cmd_mesh, ("domain", "h", "refine")),
    "solve": (cmd_solve, ("domain", "h", "sigma", "g", "svg")),
    "solve-nd": (cmd_solve_nd, ("domain", "spacing", "sigma", "g", "b", "fd_step")),
    "map": (cmd_map, ("domain", "h", "sigma", "g", "svg")),
    "verify": (cmd_verify, ("domain", "h", "sigma", "g", "svg", "margin", "directions")),
    "meyers": (cmd_meyers, ("domain", "h", "alpha", "levels")),
    "beltrami": (cmd_beltrami, ("domain", "h", "sigma", "g", "allow_holes")),
    # sigma is read when g=oracle
    "unimodal": (cmd_unimodal, ("domain", "h", "g", "loop", "atol", "sigma")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process and shared by every
    `main` call; each parse returns a fresh Namespace. Do not modify it."""
    parser = argparse.ArgumentParser(
        prog="sigmalab",
        description="Numerical laboratory for planar mappings with elliptic-equation components",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (_, reads) in COMMANDS.items():
        p = sub.add_parser(command, allow_abbrev=False)
        p.add_argument("--config", type=str, help="JSON config file; flags override it")
        for name, opt in OPTIONS.items():
            if name not in ("out",) + reads:
                continue
            flag = "--" + name.replace("_", "-")
            if opt.type is bool:
                # a flag switches its default; --no-svg turns a true one off
                action = argparse.BooleanOptionalAction if opt.default else "store_true"
                p.add_argument(flag, dest=name, action=action, default=None, help=opt.help)
            else:
                p.add_argument(flag, dest=name, type=opt.type, help=opt.help)
    return parser


def _valid(value, kind: type) -> bool:
    if kind is float:
        # abs(nan) <= max is false; an int too large for a float is refused too
        return type(value) in (int, float) and abs(value) <= sys.float_info.max
    return type(value) is kind


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then the flags given; every option checked."""
    cfg = {name: opt.default for name, opt in OPTIONS.items() if opt.default is not None}
    cfg["command"] = args.command
    if args.config:
        try:
            with open(args.config, "r", encoding="utf-8") as f:
                loaded = json.load(f)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except (ValueError, RecursionError) as exc:
            # ValueError: bad JSON or UTF-8, or an integer past Python's digit
            # limit; RecursionError: arrays or objects nested too deep
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(loaded) - set(OPTIONS) - {"command"})
        if unknown:
            raise ConfigError(f"unknown options in config file: {unknown}")
        if loaded.get("command", args.command) != args.command:
            raise ConfigError(f"config file is for command {loaded['command']!r}, "
                              f"not {args.command!r}")
        cfg.update(loaded)
    for key, value in vars(args).items():
        if key not in ("command", "config") and value is not None:
            cfg[key] = value
    for name, opt in OPTIONS.items():
        if name not in cfg:
            raise ConfigError(f"missing required option {name} for {args.command}")
        if not _valid(cfg[name], opt.type):
            raise ConfigError(f"option {name} must be {_KINDS[opt.type]}, got {cfg[name]!r}")
        low = opt.minimum
        if low is not None and (cfg[name] < low or opt.strict and cfg[name] == low):
            bound = "greater than" if opt.strict else "at least"
            raise ConfigError(f"option {name} must be {bound} {low}, got {cfg[name]!r}")
    return cfg


def write_outputs(outdir: Path, files: dict) -> None:
    """Write the files, name -> text, into outdir, staged in a new directory:
    in the nearest existing ancestor of a fresh outdir, then renamed into
    place, or inside an existing outdir, each file then replacing its target
    (a new file: a symlink is replaced, not written through). A failure while
    staging, or a target that is a directory, leaves outdir as it was; a
    failed rename keeps those before it, and a fresh outdir's new parents."""
    fresh = not outdir.exists()
    base = next(p for p in outdir.parents if p.exists()) if fresh else outdir
    # mkdir gives the stage the umask's mode, which a fresh outdir keeps; the
    # process id and the clock keep its name apart from any other run's
    stage = base / f".sigmalab-{os.getpid()}-{time.monotonic_ns()}"
    stage.mkdir()
    try:
        for name, text in files.items():
            with open(stage / name, "w", encoding="utf-8", newline="\n") as f:
                f.write(text)
        if fresh:
            if base != outdir.parent:
                outdir.parent.mkdir(parents=True, exist_ok=True)
            stage.rename(outdir)
        elif taken := [name for name in files if (outdir / name).is_dir()]:
            raise IsADirectoryError(f"{outdir / taken[0]} is a directory")
        else:
            for name in files:
                os.replace(stage / name, outdir / name)
    finally:  # the stage is gone once renamed, and empty once its files are
        shutil.rmtree(stage, ignore_errors=True)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        cfg = resolve_config(args)
        files, summary, code = COMMANDS[args.command][0](cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SigmalabError as exc:  # DomainError and NotEllipticError are ConfigErrors
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL

    outdir = Path(cfg["out"])
    # the output location is not part of the run's identity
    files["config.json"] = dumps({k: v for k, v in cfg.items() if k != "out"})
    try:
        write_outputs(outdir, files)
    except OSError as exc:
        print(f"config error: cannot write outputs to {outdir}: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(summary)
    return code


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
