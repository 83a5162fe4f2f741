"""Nine-point finite differences for the non-divergence equation
tr(sigma D2 u) + b . grad u = 0 on masked rectangular grids.

Second-order central differences throughout, including the 4-point cross
stencil for the mixed derivative. The scheme targets the smooth-coefficient
verification regime: a per-instance dominance check refuses instances where
the stencil's sign structure (and with it the discrete maximum principle)
would be lost, rather than returning silently wrong answers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import splu

from .coefficients import CoefficientField, VectorField2, divergence_of_sigma, require_elliptic
from .errors import DomainError, MeshError, ResourceLimitError, SolverError
from .fem import boundary_values, checked_residual
from .mesh import _check_cap, read_line, read_rows

_NEIGHBORS8 = [(di, dj) for dj in (-1, 0, 1) for di in (-1, 0, 1) if (di, dj) != (0, 0)]


@dataclass(frozen=True)
class GridDomain:
    """Masked rectangular grid.

    Masks have shape (ny, nx), indexed [j, i] for the node at
    (origin_x + i*spacing, origin_y + j*spacing). interior and boundary are
    disjoint; every interior node has all 8 neighbors in interior or boundary.
    """

    origin: tuple[float, float]
    spacing: float
    nx: int
    ny: int
    interior_mask: np.ndarray
    boundary_mask: np.ndarray

    def __post_init__(self):
        im = np.asarray(self.interior_mask, dtype=bool)
        bm = np.asarray(self.boundary_mask, dtype=bool)
        if im.shape != (self.ny, self.nx) or bm.shape != (self.ny, self.nx):
            raise MeshError("mask shapes must be (ny, nx)")
        if not (self.spacing > 0 and np.isfinite([*self.origin, self.spacing]).all()):
            raise MeshError("grid spacing must be positive, origin and spacing finite")
        if (im & bm).any():
            raise MeshError("interior and boundary masks overlap")
        alive = im | bm
        jj, ii = np.where(im)
        for di, dj in _NEIGHBORS8 if len(jj) else []:
            j2, i2 = jj + dj, ii + di
            ok = (0 <= j2.min()) and (j2.max() < self.ny) and (0 <= i2.min()) and (i2.max() < self.nx)
            if not ok or not alive[j2, i2].all():
                raise MeshError(
                    "an interior node has a neighbor outside interior + boundary"
                )
        im.setflags(write=False)
        bm.setflags(write=False)
        object.__setattr__(self, "interior_mask", im)
        object.__setattr__(self, "boundary_mask", bm)

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.origin[0] + self.spacing * np.arange(self.nx)
        y = self.origin[1] + self.spacing * np.arange(self.ny)
        return np.meshgrid(x, y, indexing="xy")

    def points(self, mask) -> np.ndarray:
        X, Y = self.node_coordinates()
        return np.column_stack([X[mask], Y[mask]])


@dataclass(frozen=True)
class GridField:
    grid: GridDomain
    values: np.ndarray

    def __post_init__(self):
        vals = np.asarray(self.values, dtype=float)
        if vals.shape != (self.grid.ny, self.grid.nx):
            raise SolverError("grid field shape must match (ny, nx)")
        alive = self.grid.interior_mask | self.grid.boundary_mask
        if not np.isfinite(vals[alive]).all():
            raise SolverError("non-finite values on interior or boundary nodes")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)


def grid_from_predicate(
    origin: tuple[float, float],
    spacing: float,
    nx: int,
    ny: int,
    inside: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> GridDomain:
    """Build masks from a vectorized point membership predicate.

    interior = nodes whose 8 neighbors are all inside; boundary = remaining
    inside nodes adjacent to an interior node. Orphan inside nodes (touching
    no interior node) are dropped.
    """
    x = origin[0] + spacing * np.arange(nx)
    y = origin[1] + spacing * np.arange(ny)
    X, Y = np.meshgrid(x, y, indexing="xy")
    member = np.asarray(inside(X, Y), dtype=bool)
    interior = member.copy()
    interior[0, :] = interior[-1, :] = False
    interior[:, 0] = interior[:, -1] = False
    for di, dj in _NEIGHBORS8:
        interior[1:-1, 1:-1] &= member[1 + dj : ny - 1 + dj, 1 + di : nx - 1 + di]
    near_interior = np.zeros_like(member)
    for di, dj in _NEIGHBORS8:
        lo_j, hi_j = max(0, dj), ny + min(0, dj)
        lo_i, hi_i = max(0, di), nx + min(0, di)
        near_interior[lo_j:hi_j, lo_i:hi_i] |= interior[
            lo_j - dj : hi_j - dj, lo_i - di : hi_i - di
        ]
    boundary = member & ~interior & near_interior
    if not interior.any():
        raise MeshError("predicate leaves no interior nodes at this spacing")
    return GridDomain(origin, spacing, nx, ny, interior, boundary)


def _check_placement(point: tuple[float, float], spacing: float) -> None:
    if not (0 < spacing < math.inf and math.isfinite(point[0]) and math.isfinite(point[1])):
        raise DomainError("grid spacing must be positive, origin and spacing finite")


def _nodes(length: float, spacing: float) -> int:
    """round(length / spacing) + 1; ResourceLimitError when the quotient overflows."""
    q = length / spacing
    if not math.isfinite(q):
        raise ResourceLimitError(f"grid spacing {spacing} is too small for a length of {length}")
    return int(round(q)) + 1


def annulus_grid(center: tuple[float, float], r_in: float, r_out: float, spacing: float) -> GridDomain:
    _check_placement(center, spacing)
    if not (0 < r_in < r_out < math.inf):
        raise DomainError(f"need 0 < r_in < r_out < inf, got r_in={r_in}, r_out={r_out}")
    half = r_out + 2 * spacing
    n = _nodes(2 * half, spacing)
    _check_cap(n * n, "grid")
    origin = (center[0] - half, center[1] - half)

    def inside(X, Y):
        R = np.hypot(X - center[0], Y - center[1])
        return (R >= r_in) & (R <= r_out)

    return grid_from_predicate(origin, spacing, n, n, inside)


def rectangle_grid(corner: tuple[float, float], width: float, height: float, spacing: float) -> GridDomain:
    _check_placement(corner, spacing)
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise DomainError("rectangle sides must be positive and finite")
    nx, ny = _nodes(width, spacing), _nodes(height, spacing)
    _check_cap(nx * ny, "grid")
    member = np.ones((ny, nx), dtype=bool)
    interior = np.zeros_like(member)
    interior[1:-1, 1:-1] = True
    boundary = member & ~interior
    return GridDomain(corner, spacing, nx, ny, interior, boundary)


def to_nondivergence(sigma: CoefficientField, step: float) -> VectorField2:
    """The drift b that turns div(sigma grad u) = 0 into
    tr(sigma D2 u) + b . grad u = 0.

    b is the column-wise divergence (d1 s11 + d2 s21, d1 s12 + d2 s22),
    approximated by central differences of the entries.
    """
    return VectorField2(
        evaluator=lambda X, Y: divergence_of_sigma(sigma, np.column_stack([X, Y]), step),
        descriptor=f"div({sigma.descriptor});step={step}",
    )


def zero_drift() -> VectorField2:
    return VectorField2(evaluator=lambda X, Y: np.zeros((len(X), 2)), descriptor="zero")


def nested_dissection_key(ii: np.ndarray, jj: np.ndarray) -> np.ndarray:
    """Sort key of the grid nodes (ii, jj) for a nested-dissection numbering.

    One schedule cuts every box of the index range at once: the longer side
    at its middle grid line, then the halves, until each box holds one
    index. The nine-point stencil reaches only +-1, so the middle line
    separates the two halves of its box. Each index gets a base-4 key with
    one digit per level: 0 below the middle line of its box, 1 above it,
    2 on it, and 0 at every later level. A level cuts one axis, so a node's
    key is the sum of its two index keys, distinct for distinct nodes, and
    sorting by it numbers each separator after the two halves it separates.
    A key is below the square of the box's node count, so int64 holds it.
    """
    lo = (int(ii.min()), int(jj.min()))
    width = [int(ii.max()) - lo[0] + 1, int(jj.max()) - lo[1] + 1]
    keys = [np.zeros(w, dtype=np.int64) for w in width]
    boxes = [[(0, w - 1)] for w in width]
    while max(width) > 1:
        axis = int(width[1] > width[0])
        width[axis] //= 2
        for k in keys:
            k *= 4
        halves = []
        for first, last in boxes[axis]:
            mid = (first + last) // 2
            keys[axis][mid] += 2
            keys[axis][mid + 1 : last + 1] += 1
            halves += [(first, mid - 1), (mid + 1, last)]
        boxes[axis] = [(first, last) for first, last in halves if first <= last]
    return keys[0][ii - lo[0]] + keys[1][jj - lo[1]]


def solve_nondivergence(
    grid: GridDomain,
    sigma: CoefficientField,
    b: VectorField2,
    g,
) -> tuple[list[GridField], float]:
    """Solve tr(sigma D2 u) + b . grad u = 0, one solution per row of boundary data.

    g takes the boundary-node coordinate arrays (X, Y) and returns (n,) values
    for one solution or (k, n) for k, as for fem.solve_dirichlet: the operator
    is assembled and factored once and the k right-hand sides share the
    factorization. Returns the k fields and the largest relative max-norm
    residual.

    At every interior node the stencil is
    s11 dxx + (s12 + s21) dxy + s22 dyy + b1 dx + b2 dy = 0. Before assembly
    each node must satisfy s11 >= |s12 + s21|/2 + h|b1|/2 and the analogous
    bound for s22; the check failing names the worst node and suggests a
    smaller spacing.
    """
    h = grid.spacing
    jj, ii = np.where(grid.interior_mask)
    n = len(jj)
    if n == 0:
        raise SolverError("grid has no interior nodes")
    pts = grid.points(grid.interior_mask)
    S = require_elliptic(sigma, pts).samples
    B = b.at_points(pts)

    cross = 0.5 * (S[:, 0, 1] + S[:, 1, 0])
    slack = np.minimum(
        S[:, 0, 0] - np.abs(cross) - 0.5 * h * np.abs(B[:, 0]),
        S[:, 1, 1] - np.abs(cross) - 0.5 * h * np.abs(B[:, 1]),
    )
    worst = int(np.argmin(slack))
    if slack[worst] < -1e-12:
        raise SolverError(
            "stencil loses diagonal dominance at node "
            f"({pts[worst, 0]:.6g}, {pts[worst, 1]:.6g}): "
            f"sigma={S[worst].tolist()}, b={B[worst].tolist()}, spacing={h}; "
            "reduce the spacing or use a milder coefficient field"
        )

    G = boundary_values(g, grid.points(grid.boundary_mask))

    # columns: the interior nodes in nested-dissection order, then the boundary
    # nodes; GridDomain guarantees every stencil neighbor is one of the two
    rank = np.empty(n, dtype=np.int64)
    rank[np.argsort(nested_dissection_key(ii, jj), kind="stable")] = np.arange(n)
    index = np.full((grid.ny, grid.nx), -1, dtype=np.int64)
    index[jj, ii] = rank
    index[grid.boundary_mask] = n + np.arange(G.shape[1])
    h2 = h * h
    q = (S[:, 0, 1] + S[:, 1, 0]) / (4.0 * h2)
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
    M = sparse.csc_matrix((vals, (rows, cols)), shape=(n, n + G.shape[1]))
    A = M[:, :n]
    rhs = -M[:, n:] @ G.T
    # the numbering is the fill-reducing order: NATURAL keeps it, and on this
    # structurally symmetric matrix SymmetricMode's diagonal pivots do too
    try:
        lu = splu(A, permc_spec="NATURAL", options=dict(SymmetricMode=True))
    except RuntimeError as exc:  # SuperLU: "Factor is exactly singular"
        raise SolverError(f"finite-difference system is singular: {exc}") from exc
    U = lu.solve(rhs)
    relative = checked_residual(A, U, rhs)

    out = np.zeros((len(G), grid.ny, grid.nx))
    out[:, jj, ii] = U[rank].T
    out[:, grid.boundary_mask] = G
    return [GridField(grid, values) for values in out], relative


# ---------------------------------------------------------------------------
# plain-text format: "grid v1"  (masks as 0/1/2 = exterior/interior/boundary)


def grid_field_to_text(f: GridField) -> str:
    g = f.grid
    code = np.zeros((g.ny, g.nx), dtype=int)
    code[g.interior_mask] = 1
    code[g.boundary_mask] = 2
    mask_rows = (" ".join(["%d"] * g.nx) + "\n") * g.ny
    value_rows = (" ".join(["%r"] * g.nx) + "\n") * g.ny
    return (
        f"grid v1\norigin {float(g.origin[0])!r} {float(g.origin[1])!r}\n"
        f"spacing {float(g.spacing)!r}\nsize {g.nx} {g.ny}\nmask\n"
        + mask_rows % tuple(code.ravel().tolist())
        + "values\n"
        + value_rows % tuple(f.values.ravel().tolist())
    )


def grid_field_from_text(text: str) -> GridField:
    lines = text.splitlines()
    if not lines or lines[0].strip() != "grid v1":
        raise MeshError("not a 'grid v1' file")
    origin = read_line(lines, 1, "origin", 2, float)
    (spacing,) = read_line(lines, 2, "spacing", 1, float)
    nx, ny = read_line(lines, 3, "size", 2, np.int64).tolist()
    if nx < 0 or ny < 0:
        raise MeshError("malformed size line")
    blocks = {}
    pos = 4
    for word, dtype in (("mask", np.int64), ("values", float)):
        if pos >= len(lines) or lines[pos].strip() != word:
            raise MeshError(f"missing {word} block")
        blocks[word], pos = read_rows(lines, pos + 1, ny, nx, dtype, f"{word} row")
    code = blocks["mask"]
    if not np.isin(code, (0, 1, 2)).all():
        raise MeshError("mask codes must be 0, 1 or 2")
    grid = GridDomain(tuple(origin.tolist()), float(spacing), nx, ny, code == 1, code == 2)
    return GridField(grid, blocks["values"])
