"""Structured triangulations of planar Jordan domains.

Disk and annulus meshes are built from concentric polar rings stitched by an
angular merge, rectangles from split squares. Generation is deterministic:
the same parameters always produce the same mesh, with no external mesher
involved. Meshes are immutable after construction, every array they expose
or cache read-only, and safe to share: a generator call that repeats the
previous one returns that call's mesh (refine and mesh_from_text always
build anew). What the package keeps per mesh between commands lives in one
weak store, read and written through kept and keep.

The generators raise DomainError (a MeshError and a ConfigError) for sizes
out of range, ResourceLimitError above DEFAULT_VERTEX_CAP vertices, and
MeshError, with no numpy warning, where coordinates or ring circumferences
overflow. The module imports no scipy.
"""

from __future__ import annotations

import functools
import math
import sys
import weakref
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MeshError, ResourceLimitError

Point2 = tuple[float, float]

#: default cap on generated vertices; protects the CLI from accidental h=1e-6
DEFAULT_VERTEX_CAP = 1_000_000

# triangles thinner than this fraction of h^2 are rejected: downstream
# gradient formulas divide by the area
DEGENERATE_AREA_FACTOR = 1e-14

#: points per batch of Mesh.locate: its box_pairs candidates, about sqrt(nt) a
#: point, stay bounded however many points a lattice passes (50176 points on
#: the unit disk at h = 0.03 raise the peak RSS by some 9 MB)
LOCATE_CHUNK = 2048


@dataclass(frozen=True)
class CircleLoop:
    """Analytic geometry of a circular boundary loop: its distance, and the
    projection of midpoints under refinement."""

    cx: float
    cy: float
    radius: float

    def distance(self, p: np.ndarray) -> np.ndarray:
        """The distance from the (n, 2) points p to the circle."""
        return np.abs(np.hypot(p[:, 0] - self.cx, p[:, 1] - self.cy) - self.radius)

    def project(self, p: np.ndarray) -> np.ndarray:
        """Radial projection of the (n, 2) points p onto the circle."""
        c = np.array([self.cx, self.cy])
        v = p - c
        # math.hypot per point: np.hypot differs from it in the last bit
        n = np.fromiter(map(math.hypot, v[:, 0].tolist(), v[:, 1].tolist()), float, len(v))
        if (n == 0.0).any():
            raise MeshError("cannot project the circle center onto the circle")
        return c + v * (self.radius / n)[:, None]


@dataclass(frozen=True)
class BoxLoop:
    """Analytic geometry of the boundary of the rectangle [x0, x1] x [y0, y1];
    refinement needs no projection, a side's midpoints lie on it."""

    x0: float
    y0: float
    x1: float
    y1: float

    def distance(self, p: np.ndarray) -> np.ndarray:
        """The distance from the (n, 2) points p to the boundary: to the
        nearest side inside, the hypot of the outside gaps elsewhere."""
        x, y = p.T
        gap = np.maximum([self.x0 - x, self.y0 - y], [x - self.x1, y - self.y1])
        worst = gap.max(axis=0)
        # 0.0 - worst is x - x0 or the like, bit for bit; -worst is -0.0 on the boundary
        return np.where(worst <= 0, 0.0 - worst, np.hypot(*np.maximum(gap, 0)))


class EdgeTable(NamedTuple):
    """Undirected edges of a triangulation, built once per mesh.

    Directed edge ``3 * t + j`` runs from ``triangles[t, j]`` to
    ``triangles[t, (j + 1) % 3]``. ``edges`` holds each undirected edge once
    as a ``(lo, hi)`` row, rows sorted; ``counts`` is the number of
    triangles of each edge, ``first`` its first directed edge and
    ``inverse`` the edge of each directed edge.
    """

    edges: np.ndarray
    counts: np.ndarray
    first: np.ndarray
    inverse: np.ndarray


def _read_only(*arrays: np.ndarray):
    """The arrays, each flagged read-only; one array comes back as itself."""
    for a in arrays:
        a.setflags(write=False)
    return arrays if len(arrays) > 1 else arrays[0]


def _check_vertices(vertices: np.ndarray) -> None:
    if vertices.ndim != 2 or vertices.shape[1] != 2:
        raise MeshError("vertices must be an (nv, 2) array")
    if not np.isfinite(vertices).all():
        raise MeshError("non-finite vertex coordinates")


def _check_triangle_indices(triangles: np.ndarray, num_vertices: int) -> None:
    if len(triangles) == 0:
        raise MeshError("mesh has no triangles")
    if triangles.min() < 0 or triangles.max() >= num_vertices:
        raise MeshError("triangle vertex index out of range")


def edge_table(triangles: np.ndarray, num_vertices: int) -> EdgeTable:
    """The edge table of an (nt, 3) int64 triangle array on num_vertices vertices."""
    _check_triangle_indices(triangles, num_vertices)
    a, b = triangles.ravel(), np.roll(triangles, -1, axis=1).ravel()
    # lo * nv + hi sorts exactly like the (lo, hi) rows
    key = np.minimum(a, b) * num_vertices + np.maximum(a, b)
    uniq, first, inverse, counts = np.unique(
        key, return_index=True, return_inverse=True, return_counts=True
    )
    edges = np.column_stack([uniq // num_vertices, uniq % num_vertices])
    return EdgeTable(*_read_only(edges, counts, first, inverse))


def _longest_edge(x: np.ndarray, y: np.ndarray) -> float:
    """The longest edge length of the triangles with corners x, y, as
    corners() gives them, taken over their directed edges.

    An edge measured from either end gives the same hypot bit for bit, so
    this equals the longest edge of the edge table without needing the table.
    """
    return float(np.hypot(x - x[[1, 2, 0]], y - y[[1, 2, 0]]).max())


class Mesh:
    """Conforming triangulation with ordered boundary loops.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex index triples, counterclockwise.
    h : float
        Nominal mesh size.
    loop_geometry : sequence of CircleLoop, BoxLoop or None, optional
        Analytic boundary description per loop, aligned with ``loops``; None
        for a loop without, as a "mesh v1" read or a hand-built mesh has.

    Boundary loops are derived from edge incidence: an edge lies on the
    boundary iff it belongs to exactly one triangle. The outer loop comes
    first and runs counterclockwise; hole loops run clockwise. ``loops`` and
    ``loop_geometry`` are tuples, and every array a Mesh holds, built or
    cached, is read-only: one Mesh may serve many commands in a process.
    Its "mesh v1" text is kept too (``Mesh.text``), formatted on first use.
    A degenerate or inverted triangle raises MeshError, and an area below the
    smallest normal double DomainError: the stiffness entries would lose
    their digits.
    """

    def __init__(self, vertices, triangles, h, loop_geometry=None):
        vertices = np.asarray(vertices, dtype=float)
        triangles = np.asarray(triangles, dtype=np.int64)
        _check_vertices(vertices)
        if triangles.ndim != 2 or triangles.shape[1] != 3:
            raise MeshError("triangles must be an (nt, 3) array")
        self.edge_table = edge_table(triangles, len(vertices))
        if not (h > 0 and math.isfinite(h)):
            raise MeshError("mesh size h must be positive and finite")

        self.vertices = vertices
        self.triangles = triangles
        self.h = float(h)

        with np.errstate(over="ignore", invalid="ignore"):
            areas = signed_areas(vertices, triangles)
        if not np.isfinite(areas).all():
            raise MeshError("triangle areas overflow; vertex coordinates are too large")
        floor = DEGENERATE_AREA_FACTOR * h * h  # a subnormal floor cannot tell 0 from underflow
        t = int(np.argmin(areas))
        if areas[t] < 0 or (areas[t] <= floor and floor >= sys.float_info.min):
            raise MeshError(
                f"triangle {t} is degenerate or inverted (signed area {areas[t]:.3e})"
            )
        if areas[t] < sys.float_info.min:  # stiffness entries would lose their digits
            raise DomainError(
                f"mesh size h={h} is too small: triangle {t} has area {areas[t]:.3e}, "
                "below the smallest normal double"
            )
        self._areas = _read_only(areas)

        table = self.edge_table
        if table.counts.max() > 2:
            bad = table.edges[np.argmax(table.counts)]
            raise MeshError(f"edge {tuple(bad.tolist())} belongs to more than two triangles")
        f = table.first[table.counts == 1]  # the one directed edge of each boundary edge
        self.loops = _extract_loops(vertices, *_edge_ends(triangles, f))
        if loop_geometry is None:
            loop_geometry = (None,) * len(self.loops)
        if len(loop_geometry) != len(self.loops):
            raise MeshError(
                f"loop_geometry has {len(loop_geometry)} entries for "
                f"{len(self.loops)} boundary loops"
            )
        self.loop_geometry = tuple(loop_geometry)
        _read_only(self.vertices, self.triangles)

    # -- basic queries ----------------------------------------------------

    @property
    def num_vertices(self) -> int:
        return len(self.vertices)

    @property
    def num_triangles(self) -> int:
        return len(self.triangles)

    @property
    def areas(self) -> np.ndarray:
        """Positive triangle areas."""
        return self._areas

    @cached_property
    def corners(self) -> np.ndarray:
        """The triangles' corner coordinates, as corners() gives them."""
        return _read_only(corners(self.vertices, self.triangles))

    @cached_property
    def text(self) -> str:
        """The mesh's "mesh v1" text, formatted once: it reads only the
        read-only arrays and loops, so it cannot go stale."""
        v, t = self.vertices, self.triangles
        parts = [
            f"mesh v1\nvertices {len(v)}\n",
            ("%r %r\n" * len(v)) % tuple(v.ravel().tolist()),
            f"triangles {len(t)}\n",
            ("%d %d %d\n" * len(t)) % tuple(t.ravel().tolist()),
        ]
        parts += [f"boundary {len(l)} {' '.join(map(str, l.tolist()))}\n" for l in self.loops]
        return "".join(parts)

    @cached_property
    def centroids(self) -> np.ndarray:
        # the same bits as vertices[triangles].mean(axis=1)
        x, y = self.corners
        return _read_only(np.column_stack([(x[0] + x[1] + x[2]) / 3, (y[0] + y[1] + y[2]) / 3]))

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """Gradients of the P1 nodal basis, shape (nt, 3, 2)."""
        x, y = self.corners
        G = np.empty((self.num_triangles, 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            G[:, i, 0] = (y[j] - y[k]) / (2.0 * self._areas)
            G[:, i, 1] = (x[k] - x[j]) / (2.0 * self._areas)
        return _read_only(G)

    @cached_property
    def boundary_vertices(self) -> np.ndarray:
        return _read_only(np.unique(np.concatenate(self.loops)))

    @cached_property
    def interior_vertices(self) -> np.ndarray:
        mask = np.ones(self.num_vertices, dtype=bool)
        mask[self.boundary_vertices] = False
        return _read_only(np.where(mask)[0])

    @cached_property
    def max_edge_length(self) -> float:
        return _longest_edge(*self.corners)

    @cached_property
    def triangle_neighbours(self) -> np.ndarray:
        """The two triangles of each interior edge, as rows (s, t) with s < t,
        sorted; shape (n_interior_edges, 2)."""
        table = self.edge_table
        # the directed edge of each edge that is not its first one
        second = np.empty(len(table.edges), dtype=np.int64)
        rest = np.arange(len(table.inverse)) != table.first[table.inverse]
        second[table.inverse[rest]] = np.flatnonzero(rest)
        inner = table.counts == 2
        s, t = table.first[inner] // 3, second[inner] // 3
        # s * nt + t sorts exactly like the (s, t) rows
        nt = self.num_triangles
        key = np.sort(np.minimum(s, t) * nt + np.maximum(s, t))
        return _read_only(np.column_stack([key // nt, key % nt]))

    def loops_of(self, tri_ids) -> tuple[np.ndarray, ...]:
        """The boundary loops of the union of the distinct triangles tri_ids,
        ordered and oriented like Mesh.loops; MeshError when that boundary is
        not a disjoint union of simple loops, as where two of the triangles
        meet at a vertex and at no edge.

        A boundary edge is an edge of the table that exactly one of the
        triangles holds, so no second edge table is built.
        """
        d = (3 * np.asarray(tri_ids, dtype=np.int64)[:, None] + np.arange(3)).ravel()
        e = self.edge_table.inverse[d]
        d = d[np.bincount(e, minlength=len(self.edge_table.edges))[e] == 1]
        return _extract_loops(self.vertices, *_edge_ends(self.triangles, d))

    # -- point location ---------------------------------------------------

    @cached_property
    def _triangle_boxes(self) -> tuple:
        """The box_sweep of the triangles' corner boxes grown by a slack, 1e-9
        of the longest edge, that covers locate's tolerance and rounding."""
        x, y = self.corners
        slack = 1e-9 * self.max_edge_length + 1e-300
        lo = np.column_stack([x.min(axis=0), y.min(axis=0)]) - slack
        return box_sweep(lo, np.column_stack([x.max(axis=0), y.max(axis=0)]) + slack)

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Find containing triangles for an (n, 2) array of points.

        Returns (tri_index, barycentric) where tri_index is -1 for points
        outside the mesh, and for points that are not finite. A point's
        candidates are the triangles whose grown corner boxes hold it
        (box_pairs); a point in several triangles (on an edge, within the
        1e-12 barycentric tolerance) gets the lowest triangle index. Points
        are processed in chunks of LOCATE_CHUNK, which bounds the temporaries.

        Cost: a point tests the boxes within about one longest edge of it
        along the sweep axis, some sqrt(nt) on a mesh of even size, where a
        grid would test a constant number; for the few dozen probes the
        commands locate per mesh, one sort costs less than a grid.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        tri_idx = np.full(n, -1, dtype=np.int64)
        bary = np.zeros((n, 3))
        for lo in range(0, n, LOCATE_CHUNK):
            chunk = points[lo : lo + LOCATE_CHUNK]
            p, t = box_pairs(chunk, chunk, self._triangle_boxes)
            c = self.corners.take(t, axis=2)
            (e1x, e2x), (e1y, e2y) = c[:, 1:] - c[:, :1]
            rx, ry = chunk[p].T - c[:, 0]
            det = 2.0 * self._areas[t]  # the edges' cross product: Mesh refuses subnormal areas
            l1 = cross(rx, ry, e2x, e2y) / det
            l2 = cross(e1x, e1y, rx, ry) / det
            ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
            # pairs come grouped by point: with its hits sorted by triangle, the
            # first hit of a point is its lowest-index containing triangle
            hits = np.flatnonzero(ok)
            hits = hits[np.lexsort((t[hits], p[hits]))]
            first = np.ones(len(hits), dtype=bool)
            first[1:] = p[hits[1:]] != p[hits[:-1]]
            hits = hits[first]
            rows = lo + p[hits]
            tri_idx[rows] = t[hits]
            l1, l2 = l1[hits], l2[hits]
            bary[rows] = np.column_stack([1.0 - l1 - l2, l1, l2])
        return tri_idx, bary

    def boundary_distance(self, points) -> np.ndarray:
        """Distance from points to the mesh boundary, NaN at points that are
        not finite. A loop with geometry measures itself; a loop without, as
        a "mesh v1" read or a hand-built mesh has, is the minimum over its
        segments, in batches of some 64 * LOCATE_CHUNK point-segment pairs."""
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dist = np.full(len(points), np.inf)
        for loop, geom in zip(self.loops, self.loop_geometry):
            if geom is not None:
                dist = np.minimum(dist, geom.distance(points))
                continue
            a, b = loop_segments(self.vertices, [loop])
            ab = b - a
            ab2 = np.einsum("kd,kd->k", ab, ab)
            step = max(1, 64 * LOCATE_CHUNK // len(a))
            for lo in range(0, len(points), step):
                u = points[lo : lo + step, None, :]
                with np.errstate(over="ignore"):  # u near the largest double: s is clipped
                    s = np.clip(np.einsum("pkd,kd->pk", u - a, ab) / ab2, 0, 1)
                d = np.hypot(*np.moveaxis(u - (a + s[..., None] * ab), 2, 0)).min(axis=1)
                dist[lo : lo + step] = np.minimum(dist[lo : lo + step], d)
        return np.where(np.isfinite(points).all(axis=1), dist, np.nan)


# ---------------------------------------------------------------------------
# what the package keeps per mesh between commands

#: per mesh, {name: (key, value)}: the factored "stiffness system" (fem), the
#: "stream-function Laplacian" (analysis) and the "svg frame" (svgplots)
_store: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()


def kept(mesh: Mesh, name: str, key: bytes = b""):
    """The value kept for the mesh under name when it was kept with the same
    key bytes; otherwise None, with that name's entry dropped and no other.

    The policy of the one per-mesh store: an entry dies with its mesh, so a
    value never holds the mesh. A miss drops the old value before the caller
    builds the next one (a factor held while the next was built grew the
    process's heap). A caller keeps a value only once it has worked: a factor
    is kept after its first solve, so one whose first solve fails is not.
    """
    entries = _store.get(mesh, {})
    entry = entries.get(name)
    if entry is not None and entry[0] == key:
        return entry[1]
    entries.pop(name, None)
    return None


def keep(mesh: Mesh, name: str, value, key: bytes = b""):
    """Keep value under name for the mesh's next kept(mesh, name, key); return it."""
    _store.setdefault(mesh, {})[name] = key, value
    return value


# ---------------------------------------------------------------------------
# low-level helpers


def cross(ux, uy, vx, vy):
    """The 2-D cross product of (ux, uy) and (vx, vy), positive when v lies
    counterclockwise of u: every orientation and Jacobian of the package."""
    return ux * vy - uy * vx


def corners(points: np.ndarray, triangles: np.ndarray) -> np.ndarray:
    """The corner coordinates of the (nt, 3) triangles of the (n, 2) points,
    a (2, 3, nt) array: x, y = corners(...) are (3, nt), row j corner j."""
    # one take, three times faster than points[triangles] or two row gathers
    # on large meshes; its rows are row-major, so reductions across them are fast
    return points.T.take(triangles.T, axis=1)


def signed_areas(points, triangles) -> np.ndarray:
    """Signed area of each triangle of points, positive when counterclockwise."""
    x, y = corners(points, triangles)
    return 0.5 * cross(x[1] - x[0], y[1] - y[0], x[2] - x[0], y[2] - y[0])


def loop_segments(points: np.ndarray, loops) -> tuple[np.ndarray, np.ndarray]:
    """The segments a[k] -> b[k], (n, 2) arrays, from vertex k to vertex k + 1
    of each of the one or more loops in turn, cyclically."""
    return points[np.concatenate(loops)], points[np.concatenate([np.roll(l, -1) for l in loops])]


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[k] + i, 0 <= i < size[k], of every k in turn."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(int(size.sum()))


def box_sweep(lo: np.ndarray, hi: np.ndarray) -> tuple:
    """The closed boxes [lo[k], hi[k]], (n, 2) arrays, sorted for box_pairs:
    (axis, order, lo, hi, width), the axis of larger extent, the box order by
    low along it, the corners in that order, and the widest box along it."""
    # column by column: a reduction down an (n, 2) array is slow
    with np.errstate(invalid="ignore"):  # inf - inf
        extent = [hi[:, d].max(initial=-np.inf) - lo[:, d].min(initial=np.inf) for d in (0, 1)]
        axis = int(extent[1] > extent[0])
        width = float(np.fmax.reduce(hi[:, axis] - lo[:, axis], initial=0.0))
    order = np.argsort(lo[:, axis], kind="stable")
    return axis, *_read_only(order, lo.take(order, axis=0), hi.take(order, axis=0)), width


def box_pairs(qlo: np.ndarray, qhi: np.ndarray, sweep: tuple) -> tuple[np.ndarray, np.ndarray]:
    """The overlapping pairs of a query box [qlo[q], qhi[q]] and a box k of
    sweep = box_sweep(lo, hi), as index arrays (q, k) grouped by q; a NaN
    coordinate overlaps nothing. A self-join gives each pair both ways.

    Box k can meet query q only if its low along the sweep axis lies in
    [qlo - width, qhi]: one searchsorted pair finds that window, and the
    test on both axes keeps the pairs that overlap.
    """
    axis, order, lo, hi, width = sweep
    x = qlo[:, axis]
    # a query at +inf reaches back to every box when the widest box is infinite
    reach = x - width if width < np.inf else np.full(len(x), -np.inf)
    start = np.searchsorted(lo[:, axis], reach, side="left")
    size = np.maximum(np.searchsorted(lo[:, axis], qhi[:, axis], side="right") - start, 0)
    q, j = np.repeat(np.arange(len(x)), size), _ranges(start, size)
    keep = np.ones(len(q), dtype=bool)
    for d in (0, 1):
        keep &= (qlo[:, d][q] <= hi[:, d][j]) & (lo[:, d][j] <= qhi[:, d][q])
    return q[keep], order[j[keep]]


def _loop_signed_area(vertices: np.ndarray, loop: np.ndarray) -> float:
    """The signed area of the polygon loop, as the sum of signed_areas over the
    fan of triangles from its first vertex: every product is of coordinates
    relative to a loop vertex, so nothing cancels far from the origin."""
    fan = np.column_stack([np.full_like(loop[2:], loop[0]), loop[1:-1], loop[2:]])
    return float(signed_areas(vertices, fan).sum())


def _edge_ends(triangles: np.ndarray, d: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The start and end vertices of the directed edges d, 3 * t + j."""
    t, j = d // 3, d % 3
    return triangles[t, j], triangles[t, (j + 1) % 3]


def _extract_loops(vertices, src: np.ndarray, dst: np.ndarray) -> tuple[np.ndarray, ...]:
    """Chain the directed boundary edges src[k] -> dst[k] into closed loops.

    Directed edges inherit the (counterclockwise) triangle orientation, so
    the outer loop comes out counterclockwise and holes clockwise. Loops
    start at their smallest vertex index; the outer loop (largest absolute
    enclosed area) is listed first, the others follow by starting vertex.
    The order of the edges does not matter. Returns a tuple of read-only
    arrays.
    """
    starts = np.unique(src)
    # each boundary vertex starts exactly one boundary edge and ends exactly one
    if len(starts) == 0 or not np.array_equal(starts, np.sort(dst)):
        raise MeshError("boundary is not a disjoint union of simple loops")

    succ = dict(zip(src.tolist(), dst.tolist()))
    loops = []
    seen: set[int] = set()
    for start in starts.tolist():
        if start in seen:
            continue
        loop = [start]
        while (v := succ[loop[-1]]) != start:
            loop.append(v)
        seen.update(loop)
        loops.append(_read_only(np.array(loop, dtype=np.int64)))

    areas = np.array([_loop_signed_area(vertices, l) for l in loops])
    outer = int(np.argmax(np.abs(areas)))
    if areas[outer] <= 0:
        raise MeshError("outer boundary loop is not counterclockwise")
    if (np.delete(areas, outer) >= 0).any():
        raise MeshError("inner boundary loop is not clockwise")
    return (loops[outer], *(l for i, l in enumerate(loops) if i != outer))


def _divisions(length: float, h: float) -> int:
    """max(1, round(length / h)); ResourceLimitError when length / h overflows."""
    q = length / h
    if not math.isfinite(q):
        raise ResourceLimitError(f"mesh size h={h} is too small for a length of {length}")
    return max(1, round(q))


def _check_cap(expected: int, what: str = "mesh") -> None:
    """ResourceLimitError when a mesh (or an FD grid, what="grid") would need
    more vertices than DEFAULT_VERTEX_CAP. A count of ten or more digits is
    written as its leading four and a power of ten, read off the integer's
    digits: it can exceed the largest double."""
    if expected > DEFAULT_VERTEX_CAP:
        count = str(expected)
        if len(count) >= 10:
            count = f"{count[0]}.{count[1:4]}e{len(count) - 1}"
        raise ResourceLimitError(
            f"{what} would need about {count} vertices, above the cap of "
            f"{DEFAULT_VERTEX_CAP}; use a coarser mesh size or spacing"
        )


def _ring_mesh(center, radii: np.ndarray, counts: np.ndarray, first_id: int):
    """The vertices of concentric rings and the triangles of the bands between
    consecutive rings, built in one pass.

    Ring k holds counts[k] vertices at angles 2 pi j / counts[k] on radius
    radii[k], numbered from first_id on, ring after ring. Each band is a merge
    of its two rings' next-vertex angles: each step advances the ring whose
    next vertex has the smaller angle (the inner ring on ties), which keeps
    triangles positively oriented and distributes count mismatches evenly.
    Returns the vertices and the triangles, band after band in merge order.
    """
    total = int(counts.sum())
    start = np.cumsum(counts) - counts
    ring = np.repeat(np.arange(len(counts)), counts)
    ang = 2.0 * math.pi * (np.arange(total) - start[ring]) / counts[ring]
    r = radii[ring]
    pts = np.column_stack([center[0] + r * np.cos(ang), center[1] + r * np.sin(ang)])

    # the angle of each vertex's successor on its ring, 2 pi after the last
    nxt = np.append(ang[1:], 0.0)
    nxt[start + counts - 1] = 2.0 * math.pi
    # band b lists its inner ring's successor angles, then its outer ring's;
    # a stable sort by band, then angle, is every band's merge, inner first
    m, n = counts[:-1], counts[1:]  # the inner and outer ring sizes of each band
    size = m + n
    entry = _ranges(np.column_stack([start[:-1], start[1:]]).ravel(),
                    np.column_stack([m, n]).ravel())
    band = np.repeat(np.arange(len(size)), size)
    order = np.lexsort((nxt[entry], band))
    base = (np.cumsum(size) - size)[band]
    local, step = order - base, np.arange(len(order)) - base
    m, n = m[band], n[band]  # per step
    inner = local < m
    i = np.where(inner, local, step - (local - m))  # inner pointer before the step
    j = step - i  # outer pointer before the step
    lo, hi = first_id + start[:-1][band], first_id + start[1:][band]
    third = np.where(inner, lo + (i + 1) % m, hi + (j + 1) % n)
    return pts, np.column_stack([lo + i % m, hi + j % n, third])


# ---------------------------------------------------------------------------
# generators

# the last generator call's key and mesh: one entry at most
_last_build: dict = {}


def _memoized(store: dict):
    """Decorate a builder so that a call repeating the previous call kept in
    store (the same builder, arguments and DEFAULT_VERTEX_CAP) returns that
    call's result.

    The builders that share a store share its one entry: the three mesh
    generators share _last_build, the two grid builders fd._last_grid.
    Arguments are compared by their repr, with arrays printed to every digit:
    -0.0 == 0.0, but a disk centred at -0.0 writes "-0.0" in its text, where
    repr tells them apart.
    """

    def decorate(build):
        @functools.wraps(build)
        def memo(*args, **kwargs):
            with np.printoptions(floatmode="unique", threshold=sys.maxsize):
                key = (build.__name__, repr(args), repr(kwargs), DEFAULT_VERTEX_CAP)
            if key not in store:
                built = build(*args, **kwargs)
                store.clear()
                store[key] = built
            return store[key]

        return memo

    return decorate


@_memoized(_last_build)
def generate_disk(center: Point2, radius: float, h: float) -> Mesh:
    """Triangulate a disk with concentric rings of 6i vertices.

    Ring spacing and tangential spacing are both close to h, giving a
    near-equilateral, deterministic mesh whose boundary vertices lie exactly
    on the circle.
    """
    if not (0 < radius < math.inf):
        raise DomainError("disk radius must be positive and finite")
    if not (0 < h < radius):
        raise DomainError(f"mesh size h={h} must satisfy 0 < h < radius={radius}")
    n = _divisions(radius, h)
    _check_cap(1 + 3 * n * (n + 1))

    i = np.arange(1, n + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # Mesh refuses what is not finite
        pts, bands = _ring_mesh(center, radius * i / n, 6 * i, 1)
    fan = np.column_stack([np.zeros(6, np.int64), np.arange(1, 7), np.roll(np.arange(1, 7), -1)])
    verts = np.concatenate([np.array([center], dtype=float), pts])
    tris = np.concatenate([fan, bands])

    geom = [CircleLoop(center[0], center[1], radius)]
    return Mesh(verts, tris, h, geom)


@_memoized(_last_build)
def generate_annulus(center: Point2, r_in: float, r_out: float, h: float) -> Mesh:
    """Triangulate an annulus; ring vertex counts grow with the radius."""
    if not (0 < r_in < r_out < math.inf):
        raise DomainError(f"need 0 < r_in < r_out < inf, got r_in={r_in}, r_out={r_out}")
    if not (0 < h < r_out - r_in):
        raise DomainError(f"mesh size h={h} must satisfy 0 < h < r_out - r_in")
    n = _divisions(r_out - r_in, h)
    _check_cap(6 * (n + 1))  # every ring has 6 or more vertices
    with np.errstate(over="ignore"):  # refused below
        radii = r_in + (r_out - r_in) * np.arange(n + 1) / n
    # the radii ascend, so the last circumference is the largest
    lengths = [2.0 * math.pi * r for r in radii.tolist()]
    if not math.isfinite(lengths[-1]):
        raise MeshError(f"annulus radius {r_out} is too large: the ring circumferences overflow")
    counts = [max(6, round(length / h)) for length in lengths]
    _check_cap(sum(counts))
    with np.errstate(over="ignore", invalid="ignore"):  # Mesh refuses what is not finite
        verts, tris = _ring_mesh(center, radii, np.array(counts), 0)

    geom = [
        CircleLoop(center[0], center[1], r_out),
        CircleLoop(center[0], center[1], r_in),
    ]
    return Mesh(verts, tris, h, geom)


@_memoized(_last_build)
def generate_rectangle(corner: Point2, width: float, height: float, h: float) -> Mesh:
    """Triangulate an axis-aligned rectangle by splitting grid squares."""
    if not (0 < width < math.inf and 0 < height < math.inf):
        raise DomainError("rectangle sides must be positive and finite")
    if not (0 < h <= min(width, height)):
        raise DomainError("mesh size h must satisfy 0 < h <= min(width, height)")
    nx = _divisions(width, h)
    ny = _divisions(height, h)
    _check_cap((nx + 1) * (ny + 1))

    with np.errstate(over="ignore", invalid="ignore"):  # Mesh refuses what is not finite
        xs = corner[0] + width * np.arange(nx + 1) / nx
        ys = corner[1] + height * np.arange(ny + 1) / ny
    X, Y = np.meshgrid(xs, ys, indexing="xy")
    verts = np.column_stack([X.ravel(), Y.ravel()])

    # lower-left corner of each square, row by row; each square splits along a-c
    a = (np.arange(ny)[:, None] * (nx + 1) + np.arange(nx)).ravel()
    b, c, d = a + 1, a + nx + 2, a + nx + 1
    geom = [BoxLoop(float(xs[0]), float(ys[0]), float(xs[-1]), float(ys[-1]))]
    return Mesh(verts, np.column_stack([a, b, c, a, c, d]).reshape(-1, 3), h, geom)


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 by edge midpoints.

    Midpoints of boundary edges are projected onto the analytic boundary for
    loops that carry circle geometry, so disk and annulus meshes converge to
    the true domain; box sides hold their midpoints, and every loop keeps its
    geometry. Midpoints are numbered after the old vertices in the order
    their edges first occur in the triangles. The nominal size h halves.
    """
    table = mesh.edge_table
    nv, ne = mesh.num_vertices, len(table.edges)
    _check_cap(nv + ne)
    order = np.argsort(table.first)
    rank = np.empty(ne, dtype=np.int64)
    rank[order] = np.arange(ne)
    e = table.edges[order]
    mid = 0.5 * (mesh.vertices[e[:, 0]] + mesh.vertices[e[:, 1]])
    on_boundary = table.counts[order] == 1
    for loop, geom in zip(mesh.loops, mesh.loop_geometry):
        if isinstance(geom, CircleLoop):
            sel = on_boundary & np.isin(e[:, 0], loop)
            mid[sel] = geom.project(mid[sel])

    a, b, c = mesh.triangles.T
    ab, bc, ca = (nv + rank[table.inverse]).reshape(-1, 3).T
    tris = np.column_stack([a, ab, ca, b, bc, ab, c, ca, bc, ab, bc, ca]).reshape(-1, 3)
    return Mesh(np.concatenate([mesh.vertices, mid]), tris, mesh.h / 2.0, mesh.loop_geometry)


# ---------------------------------------------------------------------------
# plain-text format: "mesh v1", and the number parser that the "field v1"
# (fem) and "grid v1" (fd) readers share with it


def mesh_to_text(mesh: Mesh) -> str:
    """The mesh's "mesh v1" text: the one kept on it, Mesh.text."""
    return mesh.text


def read_rows(lines: list[str], pos: int, n: int, width: int, dtype, what: str):
    """The (n, width) array of the numbers on lines[pos : pos + n], with pos + n.

    The rows hold whitespace-separated numbers and are parsed in one C-level
    call; floats read back bit for bit from their repr. A missing, blank,
    ragged or non-numeric row raises MeshError naming `what`, and so does an
    integer token that is not an int64 ("1.0", "1e3", one past int64), which
    numpy 2's loadtxt refuses itself. This is the number parser of the "mesh
    v1", "field v1" and "grid v1" formats.
    """
    rows = lines[pos : pos + n]
    if len(rows) < n:
        raise MeshError("unexpected end of file")
    if n == 0:
        return np.empty((0, width), dtype), pos  # loadtxt warns on no data
    # loadtxt skips blank rows, which the shape check below then catches; a
    # blank first row is refused here, because an all-blank section warns
    if not rows[0].strip():
        raise MeshError(f"blank {what}")
    # numpy's int64 parser reads out of bounds on some non-ASCII characters
    # (U+FFFFF segfaults numpy 2.4.6 about one call in three), so none reach it
    if np.dtype(dtype).kind == "i" and not all(r.isascii() for r in rows):
        raise MeshError(f"malformed {what}: an integer holds only ASCII digits and a sign")
    try:
        values = np.loadtxt(rows, dtype, comments=None, ndmin=2)
    except ValueError as exc:
        raise MeshError(f"malformed {what}: {exc}") from None
    if values.shape != (n, width):
        raise MeshError(f"every {what} must hold {width} numbers")
    return values, pos + n


def read_line(lines: list[str], pos: int, word: str, width: int, dtype) -> np.ndarray:
    """The `width` numbers after the leading `word` of lines[pos], as a (width,) array."""
    if pos >= len(lines):
        raise MeshError("unexpected end of file")
    head = lines[pos].split(None, 1)
    if len(head) != 2 or head[0] != word:
        raise MeshError(f"malformed {word} line")
    return read_rows([head[1]], 0, 1, width, dtype, f"{word} line")[0][0]


def read_section(lines: list[str], pos: int, word: str, width: int, dtype):
    """The header 'word n' at lines[pos] and the (n, width) rows after it,
    with the position of the next line."""
    (n,) = read_line(lines, pos, word, 1, np.int64).tolist()
    if n < 0:
        raise MeshError(f"malformed {word} line")
    return read_rows(lines, pos + 1, n, width, dtype, f"{word} row")


def mesh_from_text(text: str) -> Mesh:
    """The mesh of a "mesh v1" text; MeshError when the text is malformed."""
    lines = text.splitlines()
    if not lines or lines[0].strip() != "mesh v1":
        raise MeshError("not a 'mesh v1' file")
    verts, pos = read_section(lines, 1, "vertices", 2, float)
    tris, pos = read_section(lines, pos, "triangles", 3, np.int64)
    stored_loops = []
    # boundary lines run up to the first blank line
    while pos < len(lines) and lines[pos].strip():
        ids = read_line(lines, pos, "boundary", len(lines[pos].split()) - 1, np.int64)
        if ids[0] != len(ids) - 1:
            raise MeshError("boundary loop length mismatch")
        stored_loops.append(ids[1:])
        pos += 1

    # h is not stored in the format; use the maximal edge length as nominal size
    # (the vertices and indices are checked first: corners gathers by the
    # indices, and _longest_edge would subtract infinities)
    _check_vertices(verts)
    _check_triangle_indices(tris, len(verts))
    mesh = Mesh(verts, tris, h=_longest_edge(*corners(verts, tris)))
    if len(stored_loops) != len(mesh.loops) or any(
        not np.array_equal(a, b) for a, b in zip(stored_loops, mesh.loops)
    ):
        raise MeshError("stored boundary loops do not match mesh topology")
    return mesh


def read_mesh(path) -> Mesh:
    # the text functions are the format; this reader stays because
    # perfbench/run.py reads the mesh-roundtrip output back through it
    with open(path, "r", encoding="utf-8") as f:
        return mesh_from_text(f.read())
