"""Nine-point finite differences for the non-divergence equation
tr(sigma D2 u) + b . grad u = 0 on masked rectangular grids.

Second-order central differences throughout, including the 4-point cross
stencil for the mixed derivative. The scheme targets the smooth-coefficient
verification regime: a per-instance dominance check refuses instances where
the drift or the mixed term outweighs an axis weight, so every axis weight is
at least twice each diagonal weight's size (up to a 1e-12 slack). That is no
maximum principle: the cross stencil's diagonal weights take both signs where
s12 + s21 != 0, and an interior value can fall below all boundary values.

What depends on the grid alone is built once per grid: a grid builder call
that repeats the previous one returns that call's grid, and a grid keeps its
plan (GridDomain.plan: the nested-dissection numbering, the node coordinates
and the sparsity pattern of the system) and its "grid v1" mask text. A solve
computes only the stencil weights and the boundary data. The builders raise
DomainError (a MeshError and a ConfigError) for sizes out of range and
ResourceLimitError above mesh.DEFAULT_VERTEX_CAP nodes, before they allocate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DomainError, MeshError, ResourceLimitError, SolverError
from .fem import _factor, boundary_values, checked_residual, checked_samples
from .mesh import _check_cap, _memoized, _read_only, read_line, read_rows

#: the nine-point stencil's offsets (di, dj), in the order its weights are stacked
_STENCIL = ((0, 0), (1, 0), (-1, 0), (0, 1), (0, -1), (1, 1), (-1, -1), (1, -1), (-1, 1))

# the last grid builder call's key and grid: one entry, apart from the mesh
# generators' so that alternating mesh and grid commands keep both
_last_grid: dict = {}


def _neighbors(mask: np.ndarray) -> list[np.ndarray]:
    """The 8 neighbor views of a (ny, nx) mask, False beyond its edge."""
    ny, nx = mask.shape
    padded = np.pad(mask, 1)
    return [padded[1 + dj : 1 + dj + ny, 1 + di : 1 + di + nx] for di, dj in _STENCIL[1:]]


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Masked rectangular grid given by its member nodes.

    member has shape (ny, nx), indexed [j, i] for the node at
    (origin_x + i*spacing, origin_y + j*spacing). The masks are derived:
    interior nodes are members whose 8 neighbors are all members, boundary
    nodes the other members next to an interior node (members touching no
    interior node belong to neither). So the masks are disjoint and every
    interior node has all 8 neighbors in interior or boundary; a grid with
    no interior node raises DomainError, and so do an origin or spacing the
    builders refuse and a spacing whose 1/spacing^2 is not a finite double.

    Every array a grid holds, built or cached, is read-only, so one grid may
    serve many solves: the grid builders return the previous call's grid when
    a call repeats it. What the solves share is cached on first use: plan,
    the GridPlan of solve_nondivergence, and mask_text, the "grid v1" mask
    block.
    """

    origin: tuple[float, float]
    spacing: float
    member: np.ndarray
    interior_mask: np.ndarray = field(init=False, repr=False)
    boundary_mask: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        member = np.array(self.member, dtype=bool)
        if member.ndim != 2:
            raise MeshError("the member mask must have shape (ny, nx)")
        _check_placement(self.origin, self.spacing)
        h2 = float(self.spacing) * float(self.spacing)  # the stencil divides by it
        if not (h2 > 0 and 1.0 / h2 < math.inf):
            raise DomainError(
                f"grid spacing {self.spacing} is too small: 1/spacing^2 is not a finite double"
            )
        interior = member & np.logical_and.reduce(_neighbors(member))
        if not interior.any():
            raise DomainError(f"grid spacing {self.spacing} leaves no interior node")
        boundary = member & ~interior & np.logical_or.reduce(_neighbors(interior))
        for name, mask in (("member", member), ("interior_mask", interior),
                           ("boundary_mask", boundary)):
            mask.setflags(write=False)
            object.__setattr__(self, name, mask)

    @property
    def nx(self) -> int:
        return self.member.shape[1]

    @property
    def ny(self) -> int:
        return self.member.shape[0]

    def node_coordinates(self) -> tuple[np.ndarray, np.ndarray]:
        x = self.origin[0] + self.spacing * np.arange(self.nx)
        y = self.origin[1] + self.spacing * np.arange(self.ny)
        return np.meshgrid(x, y, indexing="xy")

    def points(self, mask) -> np.ndarray:
        X, Y = self.node_coordinates()
        return np.column_stack([X[mask], Y[mask]])

    @cached_property
    def plan(self) -> GridPlan:
        """What solve_nondivergence needs of this grid, built once."""
        from scipy import sparse

        jj, ii = np.where(self.interior_mask)
        n = len(jj)
        boundary_points = self.points(self.boundary_mask)
        # columns: the interior nodes in nested-dissection order, then the boundary
        # nodes; GridDomain guarantees every stencil neighbor is one of the two
        rank = np.empty(n, dtype=np.int64)
        rank[np.argsort(nested_dissection_key(ii, jj), kind="stable")] = np.arange(n)
        index = np.full((self.ny, self.nx), -1, dtype=np.int64)
        index[jj, ii] = rank
        index[self.boundary_mask] = n + np.arange(len(boundary_points))
        rows = np.tile(rank, len(_STENCIL))
        cols = np.concatenate([index[jj + dj, ii + di] for di, dj in _STENCIL])
        # each stacked weight's position plus one as its value: a row's nine
        # columns are distinct, so scipy's conversion and column slices move the
        # positions where they move the weights, and the pattern is scipy's own
        M = sparse.csc_matrix((np.arange(1.0, len(rows) + 1), (rows, cols)),
                              shape=(n, n + len(boundary_points)))
        blocks = []
        for block in (M[:, :n], M[:, n:]):
            order = block.data.astype(np.int64) - 1
            blocks.append(StencilBlock(*_read_only(order, block.indices, block.indptr),
                                       block.shape))
        return GridPlan(*_read_only(jj, ii, rank, self.points(self.interior_mask),
                                    boundary_points), *blocks)

    @cached_property
    def mask_text(self) -> str:
        """The rows of the "grid v1" mask block, formatted once."""
        rows = (" ".join(["%d"] * self.nx) + "\n") * self.ny
        return rows % tuple(_mask_codes(self).ravel().tolist())


@dataclass(frozen=True, eq=False)
class StencilBlock:
    """The CSC pattern (indices, indptr) of a block of columns of the
    nine-point system, shape (rows, columns). order[k] is the position, among
    the stacked stencil weights, of the k-th stored entry."""

    order: np.ndarray
    indices: np.ndarray
    indptr: np.ndarray
    shape: tuple[int, int]

    def matrix(self, weights: np.ndarray):
        """The block whose entries are the stacked stencil weights."""
        from scipy import sparse

        return sparse.csc_matrix((weights[self.order], self.indices, self.indptr),
                                 shape=self.shape)


@dataclass(frozen=True, eq=False)
class GridPlan:
    """The part of the nine-point system that depends on the grid alone.

    jj, ii index the interior nodes as np.where(interior_mask) lists them,
    and rank is their nested-dissection number, the unknowns' order.
    interior_points and boundary_points are the nodes' coordinates, as
    GridDomain.points gives them. interior and boundary are the blocks of
    the interior and the boundary columns, which take the stencil weights
    stacked in _STENCIL order, one (n,) row per offset. Every array is
    read-only.
    """

    jj: np.ndarray
    ii: np.ndarray
    rank: np.ndarray
    interior_points: np.ndarray
    boundary_points: np.ndarray
    interior: StencilBlock
    boundary: StencilBlock


@dataclass(frozen=True, eq=False)
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


def _check_placement(point: tuple[float, float], spacing: float) -> None:
    if not (0 < spacing < math.inf and math.isfinite(point[0]) and math.isfinite(point[1])):
        raise DomainError("grid spacing must be positive, origin and spacing finite")


def _nodes(length: float, spacing: float) -> int:
    """round(length / spacing) + 1; ResourceLimitError when the quotient overflows."""
    q = length / spacing
    if not math.isfinite(q):
        raise ResourceLimitError(f"grid spacing {spacing} is too small for a length of {length}")
    return int(round(q)) + 1


@_memoized(_last_grid)
def annulus_grid(center: tuple[float, float], r_in: float, r_out: float, spacing: float) -> GridDomain:
    _check_placement(center, spacing)
    if not (0 < r_in < r_out < math.inf):
        raise DomainError(f"need 0 < r_in < r_out < inf, got r_in={r_in}, r_out={r_out}")
    half = r_out + 2 * spacing
    n = _nodes(2 * half, spacing)
    _check_cap(n * n, "grid")
    origin = (center[0] - half, center[1] - half)
    X, Y = np.meshgrid(*(o + spacing * np.arange(n) for o in origin), indexing="xy")
    R = np.hypot(X - center[0], Y - center[1])
    return GridDomain(origin, spacing, (R >= r_in) & (R <= r_out))


@_memoized(_last_grid)
def rectangle_grid(corner: tuple[float, float], width: float, height: float, spacing: float) -> GridDomain:
    _check_placement(corner, spacing)
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise DomainError("rectangle sides must be positive and finite")
    nx, ny = _nodes(width, spacing), _nodes(height, spacing)
    _check_cap(nx * ny, "grid")
    return GridDomain(corner, spacing, np.ones((ny, nx), dtype=bool))


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


def spsolve(A, b):
    """A^-1 b by one fem._factor, under the name a trace of fd's solves wraps;
    NATURAL keeps the nested-dissection numbering."""
    return _factor(A, "finite-difference system", "NATURAL")(b)


def solve_nondivergence(
    grid: GridDomain,
    S: np.ndarray,
    B: np.ndarray,
    g,
) -> tuple[list[GridField], float]:
    """Solve tr(sigma D2 u) + b . grad u = 0, one solution per row of boundary data.

    S and B hold sigma, (n, 2, 2), and the drift b, (n, 2), at the n nodes
    grid.points(grid.interior_mask); SolverError when either has the wrong
    shape or a non-finite entry. g takes the boundary-node coordinate arrays
    (X, Y) and returns (n,) values for one solution or (k, n) for k, as for
    fem.solve_dirichlet: the operator is assembled and factored once and the
    k right-hand sides share the factorization. Returns the k fields and the
    largest relative max-norm residual.

    At every interior node the stencil is
    s11 dxx + (s12 + s21) dxy + s22 dyy + b1 dx + b2 dy = 0. Before assembly
    each node must satisfy s11 >= |s12 + s21|/2 + h|b1|/2 and the analogous
    bound for s22: every axis weight at least twice each diagonal weight's
    size. That is axis dominance, not diagonal dominance, which a row with
    s12 + s21 != 0 lacks. The check failing names the worst node and
    suggests a smaller spacing.
    """
    plan = grid.plan
    h = grid.spacing
    n = len(plan.rank)
    S = checked_samples(S, (n, 2, 2), "sigma samples")
    B = checked_samples(B, (n, 2), "drift samples")

    c = (S[:, 0, 1] + S[:, 1, 0]) / 2  # the mixed coefficient
    slack = np.minimum(
        S[:, 0, 0] - np.abs(c) - 0.5 * h * np.abs(B[:, 0]),
        S[:, 1, 1] - np.abs(c) - 0.5 * h * np.abs(B[:, 1]),
    )
    worst = int(np.argmin(slack))
    if slack[worst] < -1e-12:
        x, y = plan.interior_points[worst]
        raise SolverError(
            "stencil loses axis dominance at node "
            f"({x:.6g}, {y:.6g}): an axis weight is below "
            "twice a diagonal weight's size, "
            f"sigma={S[worst].tolist()}, b={B[worst].tolist()}, spacing={h}; "
            "reduce the spacing or use a milder coefficient field"
        )

    G = boundary_values(g, plan.boundary_points)

    h2 = h * h
    q = c / (2 * h2)
    weights = {
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
    stacked = np.concatenate([weights[offset] for offset in _STENCIL])
    A = plan.interior.matrix(stacked)
    rhs = -plan.boundary.matrix(stacked) @ G.T
    U = spsolve(A, rhs)
    relative = checked_residual(A, U, rhs)

    out = np.zeros((len(G), grid.ny, grid.nx))
    out[:, plan.jj, plan.ii] = U[plan.rank].T
    out[:, grid.boundary_mask] = G
    return [GridField(grid, values) for values in out], relative


# ---------------------------------------------------------------------------
# plain-text format: "grid v1"  (masks as 0/1/2 = exterior/interior/boundary)


def _mask_codes(g: GridDomain) -> np.ndarray:
    code = np.zeros((g.ny, g.nx), dtype=int)
    code[g.interior_mask] = 1
    code[g.boundary_mask] = 2
    return code


def grid_field_to_text(f: GridField) -> str:
    g = f.grid
    value_rows = (" ".join(["%r"] * g.nx) + "\n") * g.ny
    return (
        f"grid v1\norigin {float(g.origin[0])!r} {float(g.origin[1])!r}\n"
        f"spacing {float(g.spacing)!r}\nsize {g.nx} {g.ny}\nmask\n"
        + g.mask_text
        + "values\n"
        + value_rows % tuple(f.values.ravel().tolist())
    )


def grid_field_from_text(text: str) -> GridField:
    """The field of a "grid v1" text; MeshError when the text is malformed or
    its mask codes differ from those its member nodes derive, SolverError for
    a value that is not finite on an interior or boundary node."""
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
    grid = GridDomain(tuple(origin.tolist()), float(spacing), code != 0)
    if not np.array_equal(code, _mask_codes(grid)):
        # codes other than 0, 1 and 2 land here too
        raise MeshError("stored mask codes do not match the masks derived from the member nodes")
    return GridField(grid, blocks["values"])
