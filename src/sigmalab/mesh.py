"""Structured triangulations of planar Jordan domains.

Disk and annulus meshes are built from concentric polar rings stitched by an
angular merge, rectangles from split squares. Generation is deterministic:
the same parameters always produce the same mesh, with no external mesher
involved. Meshes are immutable after construction, every array they expose
or cache read-only, and safe to share: a generator call that repeats the
previous one returns that call's mesh.
"""

from __future__ import annotations

import functools
import math
import sys
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import DomainError, MeshError, ResourceLimitError

Point2 = tuple[float, float]

#: default cap on generated vertices; protects the CLI from accidental h=1e-6
DEFAULT_VERTEX_CAP = 1_000_000

# triangles thinner than this fraction of h^2 are rejected: downstream
# gradient formulas divide by the area
DEGENERATE_AREA_FACTOR = 1e-14

#: points per batch of Mesh.locate; keeps its (point, triangle) temporaries
#: to a few MB when an injectivity lattice passes millions of points
LOCATE_CHUNK = 2048


@dataclass(frozen=True)
class CircleLoop:
    """Analytic geometry of a circular boundary loop, used for midpoint
    projection under refinement."""

    cx: float
    cy: float
    radius: float

    def project(self, p: np.ndarray) -> np.ndarray:
        """Radial projection of the (n, 2) points p onto the circle."""
        c = np.array([self.cx, self.cy])
        v = p - c
        # math.hypot per point: np.hypot differs from it in the last bit
        n = np.fromiter(map(math.hypot, v[:, 0].tolist(), v[:, 1].tolist()), float, len(v))
        if (n == 0.0).any():
            raise MeshError("cannot project the circle center onto the circle")
        return c + v * (self.radius / n)[:, None]


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


def _longest_edge(vertices: np.ndarray, triangles: np.ndarray) -> float:
    """The longest edge length, taken over the directed edges of the triangles.

    An edge measured from either end gives the same hypot bit for bit, so
    this equals the longest edge of the edge table without needing the table.
    """
    x, y = vertices[:, 0][triangles], vertices[:, 1][triangles]
    nxt = [1, 2, 0]
    return float(np.hypot(x - x[:, nxt], y - y[:, nxt]).max())


class Mesh:
    """Conforming triangulation with ordered boundary loops.

    Parameters
    ----------
    vertices : (nv, 2) float array
    triangles : (nt, 3) int array
        Vertex index triples, counterclockwise.
    h : float
        Nominal mesh size.
    loop_geometry : sequence of CircleLoop or None, optional
        Analytic boundary description per loop, aligned with ``loops``.
        Loops without analytic geometry get None.

    Boundary loops are derived from edge incidence: an edge lies on the
    boundary iff it belongs to exactly one triangle. The outer loop comes
    first and runs counterclockwise; hole loops run clockwise. ``loops`` and
    ``loop_geometry`` are tuples, and every array a Mesh holds, built or
    cached, is read-only: one Mesh may serve many commands in a process.
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
    def centroids(self) -> np.ndarray:
        # row gathers, the same bits as vertices[triangles].mean(axis=1)
        x, y = self.vertices[:, 0][self.triangles.T], self.vertices[:, 1][self.triangles.T]
        return _read_only(np.column_stack([(x[0] + x[1] + x[2]) / 3, (y[0] + y[1] + y[2]) / 3]))

    @cached_property
    def basis_gradients(self) -> np.ndarray:
        """Gradients of the P1 nodal basis, shape (nt, 3, 2)."""
        p = self.vertices[self.triangles]
        x, y = p[..., 0], p[..., 1]
        G = np.empty((self.num_triangles, 3, 2))
        for i in range(3):
            j, k = (i + 1) % 3, (i + 2) % 3
            G[:, i, 0] = (y[:, j] - y[:, k]) / (2.0 * self._areas)
            G[:, i, 1] = (x[:, k] - x[:, j]) / (2.0 * self._areas)
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
        return _longest_edge(self.vertices, self.triangles)

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
    def _triangle_frames(self) -> np.ndarray:
        """Per triangle: first vertex, both edge vectors from it and their
        determinant, as (7, nt) rows ox, oy, e1x, e1y, e2x, e2y, det."""
        # (3, nt) corner coordinates: row gathers, three times faster than
        # slicing vertices[triangles]
        x, y = self.vertices[:, 0][self.triangles.T], self.vertices[:, 1][self.triangles.T]
        e1x, e1y = x[1] - x[0], y[1] - y[0]
        e2x, e2y = x[2] - x[0], y[2] - y[0]
        return _read_only(np.array([x[0], y[0], e1x, e1y, e2x, e2y, e1x * e2y - e2x * e1y]))

    @cached_property
    def _vertex_to_triangles(self) -> tuple[np.ndarray, np.ndarray]:
        """CSR (offsets, ids): the triangles of vertex v, ascending, are
        ids[offsets[v] : offsets[v + 1]]."""
        flat = self.triangles.ravel()
        offsets = np.zeros(self.num_vertices + 1, dtype=np.int64)
        np.cumsum(np.bincount(flat, minlength=self.num_vertices), out=offsets[1:])
        return _read_only(offsets, np.argsort(flat, kind="stable") // 3)

    def locate(self, points) -> tuple[np.ndarray, np.ndarray]:
        """Find containing triangles for an (n, 2) array of points.

        Returns (tri_index, barycentric) where tri_index is -1 for points
        outside the mesh, and for points that are not finite. Candidate
        triangles come from a grid that holds all vertices within one maximal
        edge length, which always covers the containing triangle; a point in
        several triangles (on an edge, within the 1e-12 barycentric
        tolerance) gets the lowest triangle index. Points are processed in
        chunks of LOCATE_CHUNK, which bounds the temporaries.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        n = len(points)
        tri_idx = np.full(n, -1, dtype=np.int64)
        bary = np.zeros((n, 3))
        for lo in range(0, n, LOCATE_CHUNK):
            chunk = points[lo : lo + LOCATE_CHUNK]
            p, t = self._candidates(chunk)
            ox, oy, e1x, e1y, e2x, e2y, det = self._triangle_frames[:, t]
            rx, ry = chunk[p, 0] - ox, chunk[p, 1] - oy
            l1 = (e2y * rx - e2x * ry) / det
            l2 = (-e1y * rx + e1x * ry) / det
            ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
            # pairs come sorted by (point, triangle): the first hit of a point
            # is its lowest-index containing triangle
            hits = np.flatnonzero(ok)
            first = np.ones(len(hits), dtype=bool)
            first[1:] = p[hits[1:]] != p[hits[:-1]]
            hits = hits[first]
            rows = lo + p[hits]
            tri_idx[rows] = t[hits]
            l1, l2 = l1[hits], l2[hits]
            bary[rows] = np.column_stack([1.0 - l1 - l2, l1, l2])
        return tri_idx, bary

    @cached_property
    def _vertex_grid(self) -> tuple[np.ndarray, np.ndarray, float, int, np.ndarray, np.ndarray]:
        """The triangles' vertices in a uniform grid whose cell side is the
        locate radius: (lo, hi, side, rows, keys, verts), verts sorted by cell
        key and keys their keys.

        lo and hi bound the vertices grown by one cell. Cell (i, j) lies i and
        j sides from lo and has key (i + 1) * rows + j + 1, distinct for
        -1 <= i, j <= rows - 2. A mesh is connected, so its box spans fewer
        cells per axis than it has vertices, and no key overflows.
        """
        offsets, _ = self._vertex_to_triangles
        used = np.flatnonzero(np.diff(offsets))
        # per-column gathers and reductions: several times faster than on rows
        x, y = self.vertices[:, 0][used], self.vertices[:, 1][used]
        side = self.max_edge_length * (1.0 + 1e-9) + 1e-300
        lo = np.array([x.min(), y.min()]) - side
        hi = np.array([x.max(), y.max()]) + side
        rows = int(np.floor((hi[1] - lo[1]) / side)) + 3
        keys = _cell_keys(x, y, lo, side, rows)
        order = np.argsort(keys, kind="stable")
        return (*_read_only(lo, hi), side, rows, *_read_only(keys[order], used[order]))

    def _candidates(self, points) -> tuple[np.ndarray, np.ndarray]:
        """The (point, triangle) candidate pairs of locate, unique and sorted
        by point, then triangle: the triangles of the vertices in the 3 x 3
        grid cells around the point's own cell, a superset of the vertices
        within one cell side. A point outside the grid, or not finite, has
        none."""
        lo, hi, side, rows, keys, verts = self._vertex_grid
        with np.errstate(invalid="ignore"):  # NaN compares False
            inside = np.flatnonzero(((points >= lo) & (points <= hi)).all(axis=1))
        block = (rows * np.arange(-1, 2)[:, None] + np.arange(-1, 2)).ravel()
        own = _cell_keys(points[inside, 0], points[inside, 1], lo, side, rows)
        near = (own[:, None] + block).ravel()
        start = np.searchsorted(keys, near, side="left")
        size = np.searchsorted(keys, near, side="right") - start
        point = np.repeat(np.repeat(inside, 9), size)
        v = verts[_ranges(start, size)]
        offsets, ids = self._vertex_to_triangles
        start = offsets[v]
        size = offsets[v + 1] - start
        # the triangles of every (point, vertex) pair, as one gather from ids
        tris = ids[_ranges(start, size)]
        nt = self.num_triangles
        # sorted, then each key once: numpy 2.4's np.unique hashes int64
        # keys and takes up to ten times as long here
        key = np.sort(np.repeat(point, size) * nt + tris)
        first = np.ones(len(key), dtype=bool)
        first[1:] = key[1:] != key[:-1]
        key = key[first]
        return key // nt, key % nt

    def boundary_distance(self, points) -> np.ndarray:
        """Distance from points to the mesh boundary.

        Circle loops are measured analytically; polygonal loops by distance
        to their segments. Meaningful for points inside the domain.
        """
        points = np.atleast_2d(np.asarray(points, dtype=float))
        dist = np.full(len(points), np.inf)
        for geom, polygon in zip(self.loop_geometry, self._polygons):
            if polygon is None:
                r = np.hypot(points[:, 0] - geom.cx, points[:, 1] - geom.cy)
                d = np.abs(r - geom.radius)
            else:
                d = polygon.distance(points)
            dist = np.minimum(dist, d)
        return dist

    @cached_property
    def _polygons(self) -> tuple:
        """Per boundary loop, None for a CircleLoop, else its _Polygon."""
        return tuple(
            None if isinstance(geom, CircleLoop) else _Polygon(self.vertices[loop])
            for loop, geom in zip(self.loops, self.loop_geometry)
        )


# ---------------------------------------------------------------------------
# low-level helpers


def signed_areas(vertices, triangles) -> np.ndarray:
    """Signed area of each triangle of points, positive when counterclockwise."""
    # (3, nt) corner coordinates: row gathers, faster than vertices[triangles]
    x, y = vertices[:, 0][triangles.T], vertices[:, 1][triangles.T]
    return 0.5 * ((x[1] - x[0]) * (y[2] - y[0]) - (x[2] - x[0]) * (y[1] - y[0]))


def _cell_keys(x, y, lo: np.ndarray, side: float, rows: int) -> np.ndarray:
    """The keys (i + 1) * rows + j + 1 of the grid cells (i, j) of the points (x, y)."""
    i = np.floor((x - lo[0]) / side).astype(np.int64)
    j = np.floor((y - lo[1]) / side).astype(np.int64)
    return (i + 1) * rows + j + 1


def _ranges(start: np.ndarray, size: np.ndarray) -> np.ndarray:
    """The indices start[k] + i, 0 <= i < size[k], of every k in turn."""
    return np.repeat(start - np.cumsum(size) + size, size) + np.arange(int(size.sum()))


def _loop_signed_area(points: np.ndarray) -> float:
    x, y = points[:, 0], points[:, 1]
    return 0.5 * float(np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y))


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

    areas = [abs(_loop_signed_area(vertices[l])) for l in loops]
    outer = int(np.argmax(areas))
    loops = (loops[outer], *(l for i, l in enumerate(loops) if i != outer))
    if _loop_signed_area(vertices[loops[0]]) <= 0:
        raise MeshError("outer boundary loop is not counterclockwise")
    for l in loops[1:]:
        if _loop_signed_area(vertices[l]) >= 0:
            raise MeshError("inner boundary loop is not clockwise")
    return loops


class _Polygon:
    """A closed polygon and a KD-tree of its vertices, for point distances."""

    def __init__(self, poly: np.ndarray):
        from scipy.spatial import cKDTree

        # segment k runs from a[k] to a[k + 1]
        self.a, self.ab = _read_only(poly, np.roll(poly, -1, axis=0) - poly)
        self.denom = _read_only(np.einsum("sd,sd->s", self.ab, self.ab))
        self.longest = float(np.sqrt(self.denom.max()))
        self.extent = float(np.abs(poly).max())
        self.tree = cKDTree(poly)

    def distance(self, points: np.ndarray) -> np.ndarray:
        """Distance from each point to the nearest segment.

        The nearest vertex bounds it from above, so only segments that start
        within that bound plus the longest segment can hold the minimum; the
        slack covers rounding. A point the tree cannot place, one not finite
        or so far out that squared distances overflow, is measured against
        every segment. Points go in chunks of LOCATE_CHUNK.
        """
        out = np.empty(len(points))
        for lo in range(0, len(points), LOCATE_CHUNK):
            p = points[lo : lo + LOCATE_CHUNK]
            near = [range(len(self.a))] * len(p)
            size = np.abs(p).max(axis=1)
            placed = np.flatnonzero(size + self.extent < 2.0**500)  # False for NaN
            if len(placed):
                bound, _ = self.tree.query(p[placed])
                reach = (bound + self.longest) * (1.0 + 1e-9) + 1e-9 * size[placed]
                for k, ids in zip(placed.tolist(), self.tree.query_ball_point(p[placed], r=reach)):
                    near[k] = ids
            counts = np.fromiter(map(len, near), np.int64, len(near))
            seg = np.fromiter(chain.from_iterable(near), np.int64, int(counts.sum()))
            q = p[np.repeat(np.arange(len(p)), counts)]
            a, ab = self.a[seg], self.ab[seg]
            s = np.clip(np.einsum("kd,kd->k", q - a, ab) / self.denom[seg], 0.0, 1.0)
            closest = a + s[:, None] * ab
            d = np.hypot(*(q - closest).T)
            out[lo : lo + LOCATE_CHUNK] = np.minimum.reduceat(d, np.cumsum(counts) - counts)
        return out


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


def _memoized(generate):
    """generate, returning the previous generator call's mesh when a call
    repeats it: the same generator, arguments and DEFAULT_VERTEX_CAP.

    The three generators share this one entry. Arguments are compared by
    their repr, with arrays printed to every digit: -0.0 == 0.0, but a disk
    centred at -0.0 writes "-0.0" in its text, where repr tells them apart.
    """

    @functools.wraps(generate)
    def memo(*args, **kwargs):
        with np.printoptions(floatmode="unique", threshold=sys.maxsize):
            key = (generate.__name__, repr(args), repr(kwargs), DEFAULT_VERTEX_CAP)
        if key not in _last_build:
            mesh = generate(*args, **kwargs)
            _last_build.clear()
            _last_build[key] = mesh
        return _last_build[key]

    return memo


@_memoized
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


@_memoized
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


@_memoized
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
    return Mesh(verts, np.column_stack([a, b, c, a, c, d]).reshape(-1, 3), h, [None])


# ---------------------------------------------------------------------------
# refinement


def refine(mesh: Mesh) -> Mesh:
    """Split every triangle into 4 by edge midpoints.

    Midpoints of boundary edges are projected onto the analytic boundary for
    loops that carry circle geometry, so disk and annulus meshes converge to
    the true domain. Midpoints are numbered after the old vertices in the
    order their edges first occur in the triangles. The nominal size h halves.
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
    v, t = mesh.vertices, mesh.triangles
    parts = [
        f"mesh v1\nvertices {len(v)}\n",
        ("%r %r\n" * len(v)) % tuple(v.ravel().tolist()),
        f"triangles {len(t)}\n",
        ("%d %d %d\n" * len(t)) % tuple(t.ravel().tolist()),
    ]
    parts += [f"boundary {len(l)} {' '.join(map(str, l.tolist()))}\n" for l in mesh.loops]
    return "".join(parts)


#: bytes of integer rows: digits, signs and the separators of joined rows
_INTEGER_BYTES = b"0123456789+- \t\n"
_DIGITS_TO_ZERO = bytes.maketrans(b"123456789", b"000000000")


def _check_integer_rows(rows: list[str], what: str) -> None:
    """Reject integer tokens that numpy would only read through a float.

    numpy 1.23-1.26 read an integer token such as "1.0", "1e3" or one past
    int64 as a float, with only a DeprecationWarning, where numpy 2 raises.
    Checking the characters, and the value of any token of 19 or more
    digits, gives the same MeshError on every numpy.
    """
    data = "\n".join(rows).encode("ascii", "replace")
    if data.translate(None, _INTEGER_BYTES):
        raise MeshError(f"malformed {what}: an integer holds only digits and a sign")
    if b"0" * 19 in data.translate(_DIGITS_TO_ZERO):
        try:
            ok = all(-(2**63) <= int(t) < 2**63 for t in data.split())
        except ValueError:  # a sign inside a token: not an integer on any numpy
            ok = False
        if not ok:
            raise MeshError(f"malformed {what}: not an int64 integer")


def read_rows(lines: list[str], pos: int, n: int, width: int, dtype, what: str):
    """The (n, width) array of the numbers on lines[pos : pos + n], with pos + n.

    The rows hold whitespace-separated numbers and are parsed in one C-level
    call; floats read back bit for bit from their repr. A missing, blank,
    ragged or non-numeric row raises MeshError naming `what`. This is the
    number parser of the "mesh v1", "field v1" and "grid v1" formats.
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
    if np.dtype(dtype).kind == "i":
        _check_integer_rows(rows, what)
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
    # (the vertices and indices are checked first: _longest_edge gathers by the
    # indices and would subtract infinities)
    _check_vertices(verts)
    _check_triangle_indices(tris, len(verts))
    mesh = Mesh(verts, tris, h=_longest_edge(verts, tris))
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
