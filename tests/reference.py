"""Test-side references that no sigmalab command runs: the oracles' nodal
maps, point evaluation of a P1 field, a brute-force injectivity scan,
small-gradient triangles, a representative member of each coefficient
family, the exact orientation of three points, a heat map drawn with no
kept per-mesh frame and the nine-point system built with no kept grid plan.
"""

import math
from fractions import Fraction

import numpy as np

from sigmalab import ResourceLimitError, fd
from sigmalab.analysis import MappingField
from sigmalab.coefficients import (
    anisotropic_field,
    holder_bump_field,
    identity_field,
    meyers_sigma,
    nonsymmetric_field,
)
from sigmalab.fem import ScalarField, gradient_field
from sigmalab.svgplots import _Frame

SAMPLE_BUDGET = 50_000


def mapping_field(sol, mesh) -> MappingField:
    """The pair-valued oracle sol at the mesh's vertices, as a P1 map."""
    u1, u2 = sol.value(*mesh.vertices.T)
    return MappingField(ScalarField(mesh, u1), ScalarField(mesh, u2))


def interpolate(u: ScalarField, points) -> np.ndarray:
    """The P1 field u at the (n, 2) points; NaN outside the mesh."""
    tri, bary = u.mesh.locate(points)
    out = np.full(len(tri), np.nan)
    ok = tri >= 0
    out[ok] = np.einsum("pi,pi->p", u.values[u.mesh.triangles[tri[ok]]], bary[ok])
    return out


def interior_lattice(mesh, sample_step: float) -> np.ndarray:
    """Axis-aligned lattice clipped to the mesh, symmetric about the origin."""
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    ax = np.arange(math.floor(lo[0] / sample_step), math.ceil(hi[0] / sample_step) + 1)
    ay = np.arange(math.floor(lo[1] / sample_step), math.ceil(hi[1] / sample_step) + 1)
    X, Y = np.meshgrid(ax * sample_step, ay * sample_step, indexing="xy")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    tri, _ = mesh.locate(pts)
    return pts[tri >= 0]


def brute_force_injectivity(U: MappingField, sample_step: float) -> bool:
    """All-pairs image-coincidence scan on an interior lattice.

    Quadratic cost; ResourceLimitError for more than SAMPLE_BUDGET lattice
    points. Two distinct lattice points whose images agree within 1e-9 make
    the verdict False.
    """
    pts = interior_lattice(U.mesh, sample_step)
    if len(pts) > SAMPLE_BUDGET:
        raise ResourceLimitError(
            f"{len(pts)} sample points exceed the budget of {SAMPLE_BUDGET}; "
            "increase sample_step"
        )
    img = np.column_stack([interpolate(U.u1, pts), interpolate(U.u2, pts)])
    tol2 = 1e-9 ** 2
    block = 2048
    n = len(img)
    for lo in range(0, n, block):
        a = img[lo : lo + block]
        for lo2 in range(lo, n, block):
            c = img[lo2 : lo2 + block]
            d2 = np.sum((a[:, None, :] - c[None, :, :]) ** 2, axis=-1)
            near = d2 <= tol2
            if lo2 == lo:
                np.fill_diagonal(near, False)
            if near.any():
                return False
    return True


def critical_point_candidates(u: ScalarField, rel_tol: float) -> list[tuple[int, float]]:
    """Triangles where |grad u| drops below rel_tol times the median, as
    (triangle, |grad u|) pairs, ascending."""
    g = gradient_field(u)
    norms = np.hypot(g[:, 0], g[:, 1])
    threshold = rel_tol * float(np.median(norms))
    idx = np.where(norms < threshold)[0]
    return sorted(((int(t), float(norms[t])) for t in idx), key=lambda p: (p[1], p[0]))


def library_fields() -> list:
    """Representative members of every built-in family, for sweep tests."""
    return [
        identity_field(),
        anisotropic_field(2.0, 0.5),
        anisotropic_field(3.0, 0.8, theta=0.3),
        meyers_sigma(2.0),
        holder_bump_field(0.4, 0.2, -0.1, 0.5, 0.7),
        nonsymmetric_field(0.2),
    ]


def orientation(a, b, c) -> int:
    """The exact sign of the cross product (b - a) x (c - a) of three points
    with float coordinates: +1 when c lies left of the line a -> b, -1 when
    right, 0 when the three are collinear. Every float is a dyadic rational,
    so Fraction arithmetic decides it with no rounding."""
    ax, ay, bx, by, cx, cy = map(Fraction, (*a, *b, *c))
    det = (bx - ax) * (cy - ay) - (by - ay) * (cx - ax)
    return (det > 0) - (det < 0)


def heatmap_svg(mesh, values) -> str:
    """svgplots.heatmap_svg as it was before the frame was kept: every byte,
    the mesh's included, formatted on each call from a fresh frame."""
    values = np.asarray(values, dtype=float)
    vmax = float(np.abs(values).max())
    t = np.clip(values / vmax, -1.0, 1.0) if vmax > 0 else np.zeros_like(values)
    fade = np.rint(255 * (1 - np.abs(t) * 0.85))
    rgb = np.where(
        (t >= 0)[:, None],
        np.column_stack([np.rint(255 - 90 * t), fade, fade]),
        np.column_stack([fade, fade, np.rint(255 + 107 * t)]),
    ).astype(np.int64)
    frame = _Frame(mesh)
    pts = np.array(frame.format("%.4f,%.4f ", mesh.vertices).split(), dtype=object)
    fields = np.column_stack([pts[mesh.triangles], rgb])
    polygon = '<polygon points="%s %s %s" fill="rgb(%d,%d,%d)" stroke="none"/>\n'
    out = [frame.header, polygon * len(fields) % tuple(fields.ravel().tolist())]
    for loop in mesh.loops:
        loop_pts = frame.format("%.4f,%.4f ", mesh.vertices[loop])[:-1]
        out.append(
            f'<polygon points="{loop_pts}" fill="none" stroke="black" stroke-width="1"/>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def nine_point_system(grid, S, B):
    """The interior block A and the boundary block of solve_nondivergence's
    system as it was before grids kept their plan: numbered, stacked and
    converted from COO triplets on each call. The right-hand side is minus
    the boundary block times the boundary data."""
    from scipy import sparse

    h = grid.spacing
    jj, ii = np.where(grid.interior_mask)
    n = len(jj)
    nb = int(grid.boundary_mask.sum())
    c = (S[:, 0, 1] + S[:, 1, 0]) / 2
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(fd.nested_dissection_key(ii, jj), kind="stable")] = np.arange(n)
    index = np.full((grid.ny, grid.nx), -1, dtype=np.int64)
    index[jj, ii] = rank
    index[grid.boundary_mask] = n + np.arange(nb)
    h2 = h * h
    q = c / (2 * h2)
    offsets = {
        (0, 0): -2.0 * S[:, 0, 0] / h2 - 2.0 * S[:, 1, 1] / h2,
        (1, 0): S[:, 0, 0] / h2 + B[:, 0] / (2 * h),
        (-1, 0): S[:, 0, 0] / h2 - B[:, 0] / (2 * h),
        (0, 1): S[:, 1, 1] / h2 + B[:, 1] / (2 * h),
        (0, -1): S[:, 1, 1] / h2 - B[:, 1] / (2 * h),
        (1, 1): q,
        (-1, -1): q,
        (1, -1): -q,
        (-1, 1): -q,
    }
    rows = np.repeat(rank, len(offsets))
    cols = np.column_stack([index[jj + dj, ii + di] for di, dj in offsets]).ravel()
    vals = np.column_stack(list(offsets.values())).ravel()
    M = sparse.csc_matrix((vals, (rows, cols)), shape=(n, n + nb))
    return M[:, :n], M[:, n:]
