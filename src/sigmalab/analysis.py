"""Downstream analysis of solved fields.

Stream functions, complex derivatives and Beltrami residuals, Jacobian
determinants, injectivity and unimodality surrogates, pullback subdomains,
and the end-to-end nonvanishing-Jacobian verification for mappings whose
components solve the same divergence-form equation.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .coefficients import ROTATION, CoefficientField, dilatations, require_elliptic
from .errors import DegenerateInputError, DomainError, MeshError, NotInjectiveError
from .fem import ScalarField, _factor_solve, assemble_stiffness, checked_samples, gradient_field
from .mesh import Mesh, signed_areas

log = logging.getLogger(__name__)


@dataclass(frozen=True)
class MappingField:
    """Pair of scalar fields on one mesh, read as a planar map U = (u1, u2)."""

    u1: ScalarField
    u2: ScalarField

    def __post_init__(self):
        if self.u1.mesh is not self.u2.mesh:
            raise MeshError("mapping components must share one mesh")

    @property
    def mesh(self) -> Mesh:
        return self.u1.mesh

    @cached_property
    def values(self) -> np.ndarray:
        """Nodal images, shape (nv, 2), read-only."""
        values = np.column_stack([self.u1.values, self.u2.values])
        values.setflags(write=False)
        return values


@dataclass(frozen=True)
class UnimodalityVerdict:
    unimodal: bool
    rise_arc: tuple[int, int]
    fall_arc: tuple[int, int]
    direction_changes: int
    group_count: int


@dataclass(frozen=True)
class InjectivityResult:
    injective: bool
    violations: list


@dataclass(frozen=True, eq=False)
class PullbackSubdomain:
    """Preimage of a target disk: its triangles and the boundary loops of
    their union, both in the parent mesh's ids, the outer loop first."""

    loops: tuple
    parent_triangles: np.ndarray
    center_image: tuple[float, float]
    radius: float


@dataclass(frozen=True)
class LewyReport:
    directions_tested: int
    margin: float
    injective: bool
    min_abs_det: float
    min_abs_grad: list[float]
    probes: list[dict]
    passed: bool


# ---------------------------------------------------------------------------
# stream function


def spsolve(A, b):
    """fem._factor_solve for the stream-function Laplacian; apart from
    fem.spsolve, so that a trace of fem's solves leaves this one out."""
    return _factor_solve(A, b, "stream-function Laplacian", "MMD_AT_PLUS_A")


def require_simply_connected(mesh: Mesh) -> None:
    """DomainError unless the mesh has one boundary loop, as stream_function
    needs when the caller does not opt in to holes."""
    if len(mesh.loops) != 1:
        raise DomainError(
            f"stream function needs a simply connected domain; mesh has "
            f"{len(mesh.loops)} boundary loops"
        )


def stream_function(
    u: ScalarField,
    sigma: CoefficientField,
    allow_multiply_connected: bool = False,
) -> tuple[ScalarField, float]:
    """Least-squares potential v with grad v ~ J sigma grad u, anchored v[0] = 0.

    Returns (v, residual) with residual = ||grad v - J sigma grad u||_L2
    relative to ||sigma grad u||_L2. Global least squares over triangle
    gradients distributes the discrete curl defect instead of accumulating it
    along integration paths, and the residual measures exactly that defect.

    On a domain with holes the continuous stream function can be multivalued,
    so more than one boundary loop is a DomainError unless the caller opts in;
    a large residual then flags nonzero circulation around a hole.
    """
    mesh = u.mesh
    if not allow_multiply_connected:
        require_simply_connected(mesh)
    S = require_elliptic(sigma, mesh.centroids).samples
    gu = gradient_field(u)
    w = np.einsum("ab,tbc,tc->ta", ROTATION, S, gu)

    den = float(np.sqrt(np.sum(mesh.areas * np.einsum("td,td->t", w, w))))
    if den == 0.0:
        return ScalarField(mesh, np.zeros(mesh.num_vertices)), 0.0

    # normal equations of the least squares: the stiffness matrix of the
    # identity against the loads sum_T area (grad phi_i . w)
    L = assemble_stiffness(mesh, np.tile(np.eye(2), (mesh.num_triangles, 1, 1)))
    load = mesh.areas[:, None] * np.einsum("tid,td->ti", mesh.basis_gradients, w)
    rhs = np.bincount(mesh.triangles.ravel(), load.ravel(), minlength=mesh.num_vertices)
    v = np.zeros(mesh.num_vertices)
    v[1:] = spsolve(L[1:, 1:].tocsc(), rhs[1:])  # anchor v = 0 at vertex 0

    v = ScalarField(mesh, v)
    d = gradient_field(v) - w
    num = float(np.sqrt(np.sum(mesh.areas * np.einsum("td,td->t", d, d))))
    return v, num / den


# ---------------------------------------------------------------------------
# complex derivatives and Beltrami residual


def complex_derivatives(u: ScalarField, v: ScalarField) -> tuple[np.ndarray, np.ndarray]:
    """Per-triangle Wirtinger derivatives (fz, fzbar) of f = u + iv from the
    two P1 gradients."""
    if u.mesh is not v.mesh:
        raise MeshError("u and v must live on the same mesh")
    gu = gradient_field(u)
    gv = gradient_field(v)
    fz = 0.5 * ((gu[:, 0] + gv[:, 1]) + 1j * (gv[:, 0] - gu[:, 1]))
    fzbar = 0.5 * ((gu[:, 0] - gv[:, 1]) + 1j * (gv[:, 0] + gu[:, 1]))
    return fz, fzbar


def beltrami_residual(u: ScalarField, v: ScalarField, S: np.ndarray) -> float:
    """Area-weighted relative L2 defect of fzbar = mu fz + nu conj(fz) for
    f = u + iv, with mu and nu from sigma's (nt, 2, 2) samples S at the
    centroids (SolverError when S has the wrong shape or non-finite entries)."""
    fz, fzbar = complex_derivatives(u, v)
    mesh = u.mesh
    mu, nu = dilatations(checked_samples(S, (mesh.num_triangles, 2, 2), "sigma samples"))
    den = float(np.sqrt(np.sum(mesh.areas * np.abs(fz) ** 2)))
    # constant nodal data leaves roundoff-sized gradients, not exact zeros
    scale = float(np.abs(u.values).max() + np.abs(v.values).max())
    floor = 1e-12 * scale * math.sqrt(float(mesh.areas.sum())) / mesh.h
    if den <= floor:
        raise DegenerateInputError("fz vanishes identically; f is constant")
    defect = fzbar - mu * fz - nu * np.conj(fz)
    return float(np.sqrt(np.sum(mesh.areas * np.abs(defect) ** 2))) / den


# ---------------------------------------------------------------------------
# Jacobian and injectivity


def jacobian_field(U: MappingField) -> np.ndarray:
    """Per-triangle det of the matrix with rows grad u1, grad u2."""
    return _det(gradient_field(U.u1), gradient_field(U.u2))


def _det(g1: np.ndarray, g2: np.ndarray) -> np.ndarray:
    """Row-wise det of the 2x2 matrices with rows g1[t], g2[t]."""
    return g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]


def _segments_properly_intersect(p, q):
    """Proper-intersection mask of the segment pairs p[k], q[k].

    p, q: (n, 2, 2). A shared endpoint does not count; crossing or collinear
    overlap does.
    """

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    a, b = p[:, 0], p[:, 1]
    c, d = q[:, 0], q[:, 1]
    d1 = orient(a, b, c)
    d2 = orient(a, b, d)
    d3 = orient(c, d, a)
    d4 = orient(c, d, b)
    crossing = (d1 * d2 < 0) & (d3 * d4 < 0)

    # collinear overlap: all orientations 0 and bounding boxes overlap
    flat = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
    if flat.any():
        lo_p, hi_p = np.minimum(a, b), np.maximum(a, b)
        lo_q, hi_q = np.minimum(c, d), np.maximum(c, d)
        crossing |= flat & np.all((lo_p <= hi_q) & (lo_q <= hi_p), axis=-1)
    return crossing


def _overlapping_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The pairs i < j of closed boxes [lo[i], hi[i]] that overlap, as two
    index arrays, by a sort and sweep along the axis of larger extent.

    Along the other axis a long straight run of a polyline, such as the side
    of a rectangle, is one stack of boxes that all meet in the sweep axis.
    """
    if np.ptp(hi[:, 1]) > np.ptp(hi[:, 0]):
        lo, hi = lo[:, ::-1], hi[:, ::-1]
    order = np.argsort(lo[:, 0], kind="stable")
    lo, hi = lo[order], hi[order]
    # box k in x order meets in x the later boxes that start by its right edge
    count = np.searchsorted(lo[:, 0], hi[:, 0], side="right") - np.arange(1, len(lo) + 1)
    first = np.repeat(np.arange(len(lo)), count)
    second = first + 1 + np.arange(len(first)) - np.repeat(np.cumsum(count) - count, count)
    keep = (lo[second, 1] <= hi[first, 1]) & (lo[first, 1] <= hi[second, 1])
    i, j = order[first[keep]], order[second[keep]]
    return np.minimum(i, j), np.maximum(i, j)


def _vertex_collisions(pts: np.ndarray, scale: float) -> list[tuple[int, int]]:
    """The pairs i < j of points closer than 1e-12 * scale, in lexicographic order.

    Two such points differ by less than d = 1e-12 * scale in each coordinate,
    so their boxes of half side d overlap, and the sweep finds every pair.
    """
    d = 1e-12 * scale
    thr2 = d**2
    if thr2 == 0.0:  # underflow: no squared distance is below it
        return []
    i, j = _overlapping_boxes(pts - d, pts + d)
    close = np.sum((pts[i] - pts[j]) ** 2, axis=-1) < thr2
    return sorted(zip(i[close].tolist(), j[close].tolist()))


def injectivity_check(U: MappingField) -> InjectivityResult:
    """Sufficient discrete surrogate for local injectivity.

    Passes iff (a) every boundary loop image is a simple polygon, loop images
    are pairwise disjoint, and (b) all triangle-image signed areas share one
    strict sign. Violations name offending triangles and boundary edge pairs.
    This certifies the discrete map's behavior; it is not a continuum proof.

    The images are first scaled by the power of two that puts their largest
    coordinate in [1, 2). The scaling is exact, so no verdict depends on the
    image scale, and the products of areas and orientations neither overflow
    nor underflow to zero.
    """
    mesh = U.mesh
    violations: list = []

    _, exponent = np.frexp(np.abs(U.values).max())
    imgs = np.ldexp(U.values, 1 - int(exponent))
    areas = signed_areas(imgs, mesh.triangles)
    pos = int(np.sum(areas > 0))
    neg = int(np.sum(areas < 0))
    majority = 1.0 if pos >= neg else -1.0
    bad = np.where((areas * majority <= 0))[0]
    violations.extend(("triangle_orientation", int(t)) for t in bad)
    violations.extend(_boundary_violations(imgs, mesh.loops))
    return InjectivityResult(injective=not violations, violations=violations)


def _boundary_violations(imgs: np.ndarray, loops: tuple) -> list:
    """The boundary part of injectivity_check: per loop, its vertex collisions
    and self-intersections, then the crossings between loops, each in
    lexicographic order.

    Only near pairs are tested, both found by one sweep of closed bounding
    boxes: image vertices whose boxes of half side the collision distance
    overlap, and segments whose boxes overlap, which holds every crossing and
    collinear touch.
    """
    violations: list = []
    scale = max(float(np.abs(imgs).max()), 1e-300)
    # segment k of a loop runs from its vertex k to its vertex k + 1, cyclically
    sizes = np.array([len(loop) for loop in loops])
    start = np.cumsum(sizes) - sizes
    seg = np.stack(
        [imgs[np.concatenate(loops)], imgs[np.concatenate([np.roll(l, -1) for l in loops])]],
        axis=1,
    )
    p, q = _overlapping_boxes(seg.min(axis=1), seg.max(axis=1))
    loop_of = np.repeat(np.arange(len(loops)), sizes)
    li, lj = loop_of[p], loop_of[q]
    i, j = p - start[li], q - start[lj]
    # neighbours along a loop share an endpoint
    adjacent = (li == lj) & ((j == i + 1) | ((i == 0) & (j == sizes[lj] - 1)))
    cross = ~adjacent & _segments_properly_intersect(seg[p], seg[q])
    crossings = sorted(
        zip(li[cross].tolist(), lj[cross].tolist(), i[cross].tolist(), j[cross].tolist())
    )

    for k, loop in enumerate(loops):
        # repeated image vertices pinch the boundary polygon
        violations.extend(
            ("boundary_vertex_collision", k, a, b) for a, b in _vertex_collisions(imgs[loop], scale)
        )
        violations.extend(
            ("boundary_self_intersection", k, a, b) for l1, l2, a, b in crossings if l1 == l2 == k
        )
    violations.extend(("boundary_loop_crossing", *c) for c in crossings if c[0] != c[1])
    return violations


# ---------------------------------------------------------------------------
# unimodality


def unimodality_check(values, atol: float = 1e-12) -> UnimodalityVerdict:
    """Decide whether a cyclic sequence rises along one arc and falls along the other.

    Consecutive values within atol of a running anchor merge into plateaus,
    so tiny solver noise cannot flip a verdict; atol=0 gives exact
    comparisons. The sequence is unimodal iff the plateau-compressed cyclic
    differences change sign exactly twice. Arc endpoints are reported as
    indices of the minimizing and maximizing plateaus in the original cyclic
    indexing.
    """
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) < 3:
        raise DegenerateInputError("need a cyclic sequence of at least 3 values")
    if not np.isfinite(vals).all():
        raise DegenerateInputError("trace contains non-finite values")
    if np.ptp(vals) <= atol:
        raise DegenerateInputError("constant trace: unimodality is undefined")

    # plateau compression against each group's first value
    anchors: list[float] = []
    starts: list[int] = []
    for i, v in enumerate(vals.tolist()):
        if anchors and abs(v - anchors[-1]) <= atol:
            continue
        anchors.append(v)
        starts.append(i)
    # cyclic closure: the final group may continue into the first one
    while len(anchors) > 1 and abs(anchors[-1] - anchors[0]) <= atol:
        anchors.pop()
        starts.pop()
    if len(anchors) < 2:
        raise DegenerateInputError("constant trace after plateau compression")

    # the sign of each cyclic step, and the steps whose sign differs from the last
    steps = [(b > a) - (b < a) for a, b in zip(anchors, anchors[1:] + anchors[:1])]
    changes = sum(s != t for s, t in zip(steps, steps[-1:] + steps[:-1]))

    imax = anchors.index(max(anchors))
    imin = anchors.index(min(anchors))
    rise = (starts[imin], starts[imax])
    fall = (starts[imax], starts[imin])
    return UnimodalityVerdict(
        unimodal=changes == 2,
        rise_arc=rise,
        fall_arc=fall,
        direction_changes=changes,
        group_count=len(anchors),
    )


# ---------------------------------------------------------------------------
# pullback subdomains


def pullback_subdomain(U: MappingField, t: int, bary, r: float) -> PullbackSubdomain:
    """The triangles whose vertex images fall in the disk of radius r around
    the image of a located probe, restricted to the edge-connected piece
    around the probe's triangle.

    The probe is triangle t and barycentric weights bary, as Mesh.locate
    gives them (default_probe_points keeps only points well inside the mesh).
    Requires the closed target disk compactly inside the discrete image
    (every boundary-image point farther than r from the disk center).
    """
    if not r > 0:
        raise DegenerateInputError("pullback radius must be positive")
    mesh = U.mesh
    w0, gap = _image_center(U, t, bary)
    if gap <= r:
        raise DegenerateInputError(
            f"target disk of radius {r} is not compactly contained in the image "
            f"(boundary image comes within {gap:.3e} of the center)"
        )

    dist = np.hypot(U.values[:, 0] - w0[0], U.values[:, 1] - w0[1])
    keep_vertex = dist <= r
    keep_tri = keep_vertex[mesh.triangles].all(axis=1)
    if not keep_tri.any():
        raise DegenerateInputError(
            f"no triangle has all vertex images inside the radius-{r} disk"
        )
    keep_tri = _component_containing(mesh, keep_tri, int(t))

    tri_ids = np.flatnonzero(keep_tri)
    # a MeshError here is a pinched boundary: the kept triangles meet at a vertex
    loops = mesh.loops_of(tri_ids)
    return PullbackSubdomain(
        loops=loops,
        parent_triangles=tri_ids,
        center_image=(float(w0[0]), float(w0[1])),
        radius=float(r),
    )


def _image_center(U: MappingField, t, bary) -> tuple[np.ndarray, float]:
    """U at the point with barycentric weights bary in triangle t, and the
    distance from that image to the nearest boundary-vertex image."""
    w0 = U.values[U.mesh.triangles[t]].T @ bary
    return w0, float(np.hypot(*(U.values[U.mesh.boundary_vertices] - w0).T).min())


def _component_containing(mesh: Mesh, keep_tri: np.ndarray, seed_tri: int) -> np.ndarray:
    """Restrict a triangle selection to the edge-connected component of seed_tri."""
    if not keep_tri[seed_tri]:
        raise DegenerateInputError(
            "the probe point's triangle is not inside the pullback disk; "
            "the radius is too small for this mesh"
        )
    # label propagation over the kept adjacent pairs: every label is a
    # triangle of its own component; a pair whose labels differ moves the
    # larger label to the smaller, then each label follows its chain to the
    # end, until the labels of every pair agree
    a, b = mesh.triangle_neighbours.T
    both = keep_tri[a] & keep_tri[b]
    a, b = a[both], b[both]
    labels = np.arange(mesh.num_triangles)
    while True:
        la, lb = labels[a], labels[b]
        split = la != lb
        if not split.any():
            return labels == labels[seed_tri]
        labels[np.maximum(la, lb)[split]] = np.minimum(la, lb)[split]
        while not np.array_equal(jumped := labels[labels], labels):
            labels = jumped


# ---------------------------------------------------------------------------
# critical point candidates


def critical_point_candidates(u: ScalarField, rel_tol: float) -> list[tuple[int, float]]:
    """Triangles where |grad u| drops below rel_tol times the median, ascending."""
    if not 0.0 < rel_tol < 1.0:
        raise DegenerateInputError("rel_tol must lie in (0, 1)")
    g = gradient_field(u)
    norms = np.hypot(g[:, 0], g[:, 1])
    threshold = rel_tol * float(np.median(norms))
    idx = np.where(norms < threshold)[0]
    ranked = sorted(((int(t), float(norms[t])) for t in idx), key=lambda p: (p[1], p[0]))
    return ranked


# ---------------------------------------------------------------------------
# the end-to-end verification


def default_probe_points(mesh: Mesh, margin: float) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deterministic interior probe points on a coarse lattice.

    Scans a 5x5 lattice over the bounding box (center-first ordering) and
    keeps the first 5 points well inside the mesh. Returns the points with
    their triangles and barycentric weights, as Mesh.locate gives them.
    """
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    ticks = np.linspace(0.5 / 5, 1 - 0.5 / 5, 5)
    grid = np.array([(lo + t * (hi - lo)) for t in ticks])
    pts = np.array(
        [(x, y) for y in grid[:, 1] for x in grid[:, 0]]
    )
    center = 0.5 * (lo + hi)
    order = np.argsort(np.hypot(*(pts - center).T), kind="stable")
    pts = pts[order]
    tri, bary = mesh.locate(pts)
    deep = mesh.boundary_distance(pts) > max(margin, 2.0 * mesh.h)
    chosen = np.flatnonzero((tri >= 0) & deep)[:5]
    if len(chosen) == 0:
        raise DegenerateInputError("no lattice probe point is safely interior")
    return pts[chosen], tri[chosen], bary[chosen]


def lewy_verify(U: MappingField, directions: int, margin: float) -> LewyReport:
    """Check the nonvanishing-Jacobian conclusion on a solved mapping.

    For unit directions xi spread over the half circle, the directional
    component xi . U solves the same equation; its gradient should stay away
    from zero on the margin inset, as should |det DU|. At each default probe
    point a pullback of a target disk is built (radius 0.7 times the distance
    from the point's image to the boundary image), and the boundary trace of
    every directional component is tested for unimodality; the plateau
    tolerance is taken as twice the measured radial deviation of the trace
    image, the discretization noise floor (radii shrink by 10% steps, at most
    5 times, if the pullback's boundary is pinched).

    The report passes iff min |det DU| > 0 and every directional gradient
    minimum is positive. A non-injective U is a hypothesis failure and raises
    NotInjectiveError carrying the InjectivityResult.
    """
    if directions < 1:
        raise DegenerateInputError("need at least one test direction")
    inj = injectivity_check(U)
    if not inj.injective:
        raise NotInjectiveError(
            f"mapping is not injective by the discrete check "
            f"({len(inj.violations)} violations); hypothesis fails",
            result=inj,
        )
    mesh = U.mesh
    inset = mesh.boundary_distance(mesh.centroids) >= margin
    if not inset.any():
        raise DegenerateInputError(f"margin {margin} leaves no interior triangles")

    g1 = gradient_field(U.u1)
    g2 = gradient_field(U.u2)
    min_abs_det = float(np.abs(_det(g1, g2)[inset]).min())
    angles = [math.pi * k / directions for k in range(directions)]
    min_abs_grad = []
    for theta in angles:
        g = math.cos(theta) * g1 + math.sin(theta) * g2
        min_abs_grad.append(float(np.hypot(g[:, 0], g[:, 1])[inset].min()))

    probes = [
        _probe_unimodality(U, z0, t, bary, angles)
        for z0, t, bary in zip(*default_probe_points(mesh, margin))
    ]

    passed = min_abs_det > 0.0 and all(m > 0.0 for m in min_abs_grad)
    return LewyReport(
        directions_tested=directions,
        margin=float(margin),
        injective=True,
        min_abs_det=min_abs_det,
        min_abs_grad=min_abs_grad,
        probes=probes,
        passed=passed,
    )


def _probe_unimodality(U, z0, t, bary, angles) -> dict:
    """The probe at z0, located in triangle t with barycentric weights bary;
    the trace of cos(theta) u1 + sin(theta) u2 is tested for each angle."""
    r = 0.7 * _image_center(U, t, bary)[1]
    sub = None
    for _ in range(5):
        try:
            sub = pullback_subdomain(U, t, bary, r)
            break
        except MeshError as exc:
            # grazing level set; shrink and retry
            log.debug("probe %s: pullback radius %r -> %r after MeshError: %s",
                      tuple(z0.tolist()), r, r * 0.9, exc)
            r *= 0.9
    if sub is None:
        sub = pullback_subdomain(U, t, bary, r)

    loop = sub.loops[0]
    trace_img = U.values[loop]
    rho = float(
        np.abs(np.hypot(trace_img[:, 0] - sub.center_image[0],
                        trace_img[:, 1] - sub.center_image[1]) - sub.radius).max()
    )
    atol = max(1e-12, 2.0 * rho)

    probe = {
        "z0": [float(z0[0]), float(z0[1])],
        "radius": float(sub.radius),
        "trace_length": int(len(loop)),
        "radial_deviation": rho,
        "tolerance": atol,
    }
    # the directional trace has amplitude about 2r; when the noise floor is
    # comparable the verdict would be meaningless, so report that instead
    if atol > 0.5 * sub.radius or len(loop) < 8:
        log.debug("probe %s unresolved: tolerance %r, radius %r, trace length %d",
                  tuple(z0.tolist()), atol, sub.radius, len(loop))
        probe.update(
            resolved=False, direction_changes=[], unimodal_all_directions=None
        )
        return probe

    changes = []
    unimodal = []
    for theta in angles:
        trace = math.cos(theta) * trace_img[:, 0] + math.sin(theta) * trace_img[:, 1]
        verdict = unimodality_check(trace, atol=atol)
        changes.append(verdict.direction_changes)
        unimodal.append(verdict.unimodal)
    probe.update(
        resolved=True,
        direction_changes=changes,
        unimodal_all_directions=bool(all(unimodal)),
    )
    return probe
