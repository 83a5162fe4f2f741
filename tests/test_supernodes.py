"""fem._factor's SuperLU supernode settings (fem.SUPERNODES) against scipy's
defaults, the settings that came before them: they change rounding only.

Each output a pinned digest holds (the acceptance payloads, lewy_report.json
of the holder and rect-meyers runs, the four beltrami reports), and a
solve-nd and a meyers run at the radial-family benchmark's configs, is made
once as shipped and once with scipy's defaults. Exit statuses, file names and
every byte that is not a float agree; nodal values agree within 1e-13 of
their largest |value|, and every other float within 1e-10 relative. The
worst deviations seen with scipy 1.17.1: nodal values 3.0e-15 of their
largest |value| (solve-nd's grid.txt), other floats 8.9e-11 relative
(criterion 5's det_change, a difference of two Jacobians near 1).
"""

import json
import re
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab import fem, generate_annulus, generate_disk, generate_rectangle, mesh
from sigmalab.cli import main
from sigmalab.coefficients import anisotropic_field, field_from_descriptor, require_elliptic
from sigmalab.fd import annulus_grid, rectangle_grid, solve_nondivergence
from test_acceptance import AcceptanceRun

#: scipy's own relax and panel_size: splu called without them
SCIPY_DEFAULTS = {}
#: a float as repr writes it, and as the text tables and SVGs format it
FLOAT = re.compile(r"-?(?:\d+\.\d*(?:[eE][-+]?\d+)?|\d+[eE][-+]?\d+|inf|nan)")
#: the files of nodal values
NODAL = re.compile(r"u\d*\.txt|grid\.txt")
#: floats at most this large on both sides are rounding themselves, as the
#: errors of exactly reproduced affine and bilinear data (criterion 7, about
#: 1e-14) and the solve residuals are; they only have to stay that small
ROUNDING = 1e-13


def assert_rounding_only(name: str, old: str, new: str) -> None:
    assert FLOAT.split(new) == FLOAT.split(old), f"{name}: a byte that is not a float moved"
    a = np.array([float(x) for x in FLOAT.findall(old)])
    b = np.array([float(x) for x in FLOAT.findall(new)])
    equal = (a == b) | (np.isnan(a) & np.isnan(b))
    if NODAL.fullmatch(name):
        ok = equal | (np.abs(b - a) <= 1e-13 * np.abs(a[np.isfinite(a)]).max(initial=0.0))
    else:
        ok = (equal | (np.abs(b - a) <= 1e-10 * np.abs(a))
              | ((np.abs(a) <= ROUNDING) & (np.abs(b) <= ROUNDING)))
    assert ok.all(), f"{name}: {a[~ok][:3]} became {b[~ok][:3]}"


def solve_residuals(report):
    """Every "solve_residual" in a parsed JSON report."""
    if isinstance(report, dict):
        return [v for k, v in report.items() if k == "solve_residual"] + [
            r for v in report.values() for r in solve_residuals(v)]
    if isinstance(report, list):
        return [r for v in report for r in solve_residuals(v)]
    return []


def run_both(run):
    """run() under scipy's defaults and then as shipped, each with nothing
    kept per mesh, so that each factors its own systems."""
    results = []
    for supernodes in (SCIPY_DEFAULTS, fem.SUPERNODES):
        mesh._store.clear()
        with mock.patch.object(fem, "SUPERNODES", supernodes):
            results.append(run())
    mesh._store.clear()
    return results


@pytest.mark.parametrize(
    "args",
    [("verify", "--domain", "disk:r=1", "--h", "0.1",
      "--sigma", "holder:eps=0.4,cx=0.2,cy=-0.1,w=0.5,theta=0.7", "--g", "identity", "--no-svg"),
     ("verify", "--domain", "rect:w=2,h=2,x0=-1,y0=-1", "--h", "0.05",
      "--sigma", "meyers:alpha=1.5", "--g", "oracle", "--no-svg"),
     ("beltrami", "--h", "0.05", "--domain", "disk:r=1", "--sigma", "meyers:alpha=2",
      "--g", "oracle"),
     ("beltrami", "--h", "0.05", "--domain", "disk:r=1", "--sigma", "randnonsym:seed=5",
      "--g", "x1"),
     ("beltrami", "--h", "0.05", "--domain", "annulus:rin=0.2,rout=1",
      "--sigma", "randnonsym:seed=5", "--g", "x1", "--allow-holes"),
     ("beltrami", "--h", "0.05", "--domain", "rect:w=1,h=1",
      "--sigma", "aniso:l1=2,l2=0.5,theta=0.3", "--g", "costheta:cx=0.5,cy=0.5"),
     # the radial-family benchmark's two commands
     ("meyers", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.16", "--levels", "3",
      "--alpha", "1.5"),
     ("solve-nd", "--domain", "annulus:rin=0.25,rout=0.95", "--spacing", "0.02",
      "--sigma", "meyers:alpha=1.5", "--g", "oracle", "--b", "auto")],
    ids=["lewy-holder", "lewy-rect-meyers", "beltrami-readme", "beltrami-randnonsym-disk",
         "beltrami-randnonsym-annulus", "beltrami-aniso-rect", "meyers", "solve-nd"],
)
def test_command_outputs_change_by_rounding_only(tmp_path, args):
    def command():
        out = tmp_path / str(len(list(tmp_path.iterdir())))
        code = main(list(args) + ["--out", str(out)])
        return code, {p.name: p.read_text(encoding="utf-8") for p in sorted(out.iterdir())}

    (old_code, old), (new_code, new) = run_both(command)
    assert new_code == old_code == 0
    assert list(new) == list(old)
    for name in old:
        assert_rounding_only(name, old[name], new[name])
        if name.endswith(".json"):
            assert all(r <= fem.RESIDUAL_TOL for r in solve_residuals(json.loads(new[name])))


def test_acceptance_payloads_change_by_rounding_only():
    old, new = run_both(lambda: AcceptanceRun().all_reports())
    assert list(new) == list(old)
    for name in old:
        assert_rounding_only(name, old[name].decode(), new[name].decode())


COEFFS = st.lists(st.floats(-10, 10), min_size=5, max_size=5)


def map_data(c):
    """Two rows of smooth boundary data from the five coefficients c."""
    return lambda x, y: np.stack([c[0] + c[1] * x + c[2] * y * y, np.sin(c[3] * x + c[4] * y)])


def assert_same_solutions(solve):
    """solve() -> (fields, residual) agrees under both settings, and both
    residuals pass checked_residual's bound."""
    (old, old_residual), (new, new_residual) = run_both(solve)
    assert max(old_residual, new_residual) <= fem.RESIDUAL_TOL
    a = np.array([u.values for u in old])
    b = np.array([u.values for u in new])
    assert np.abs(b - a).max() <= 1e-13 * np.abs(a).max()


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(domain=st.sampled_from(["disk", "annulus", "rect"]), h=st.floats(0.08, 0.4),
       field=st.sampled_from(["randholder", "randnonsym"]), seed=st.integers(0, 1000),
       c=COEFFS)
def test_small_p1_systems_agree_across_settings(domain, h, field, seed, c):
    m = {"disk": lambda: generate_disk((0.0, 0.0), 1.0, h),
         "annulus": lambda: generate_annulus((0.0, 0.0), 0.3, 1.0, h),
         "rect": lambda: generate_rectangle((0.0, 0.0), 1.0, 0.7, h)}[domain]()
    S = require_elliptic(field_from_descriptor(f"{field}:seed={seed}"), m.centroids).samples
    assert_same_solutions(lambda: fem.solve_dirichlet(m, S, map_data(c)))


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(annulus=st.booleans(), spacing=st.floats(0.04, 0.2), l1=st.floats(0.75, 1.5),
       l2=st.floats(0.75, 1.5), theta=st.floats(0, 3.2), b=st.tuples(*[st.floats(-0.5, 0.5)] * 2),
       c=COEFFS)
def test_small_fd_systems_agree_across_settings(annulus, spacing, l1, l2, theta, b, c):
    # axis dominance holds: s11, s22 >= 0.75 > |s12| + spacing |b| / 2
    grid = (annulus_grid((0.0, 0.0), 0.3, 1.0, spacing) if annulus
            else rectangle_grid((0.0, 0.0), 1.0, 0.7, spacing))
    pts = grid.points(grid.interior_mask)
    S = require_elliptic(anisotropic_field(l1, l2, theta), pts).samples
    B = np.tile(b, (len(pts), 1))
    assert_same_solutions(lambda: solve_nondivergence(grid, S, B, map_data(c)))
