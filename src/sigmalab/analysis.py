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
from .fem import (ScalarField, _factor, _scaled, assemble_stiffness, checked_samples,
                  gradient_field, relative_l2)
from .mesh import Mesh, box_pairs, box_sweep, cross, keep, kept, loop_segments, signed_areas

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


def spsolve(mesh: Mesh, b):
    """The stream-function Laplacian of the mesh solved for the loads b at
    vertices 1..nv-1; apart from fem.spsolve, so that a trace of fem's solves
    leaves this one out.

    The Laplacian is stream_function's normal-equation matrix: the identity's
    stiffness matrix without vertex 0's row and column (the anchor v[0] = 0).
    It depends on the mesh alone, so its factor is kept for the mesh
    (mesh.kept) under the empty key.
    """
    solve = kept(mesh, "stream-function Laplacian")
    if solve is not None:
        return solve(b)
    L = assemble_stiffness(mesh, np.tile(np.eye(2), (mesh.num_triangles, 1, 1)))[1:, 1:].tocsc()
    solve = _factor(L, "stream-function Laplacian", "MMD_AT_PLUS_A")
    log.debug("stream-function Laplacian factored: %d vertices, %d unknowns",
              mesh.num_vertices, L.shape[0])
    x = solve(b)
    keep(mesh, "stream-function Laplacian", solve)
    return x


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

    The normal-equation matrix depends on the mesh alone: it is assembled and
    factored on the first call for a mesh, and later calls on the same mesh
    reuse that factor (spsolve).
    """
    mesh = u.mesh
    if not allow_multiply_connected:
        require_simply_connected(mesh)
    S = require_elliptic(sigma, mesh.centroids).samples
    gu = gradient_field(u)
    w = np.einsum("ab,tbc,tc->ta", ROTATION, S, gu)

    if not w.any():
        return ScalarField(mesh, np.zeros(mesh.num_vertices)), 0.0

    # normal equations of the least squares: the stiffness matrix of the
    # identity against the loads sum_T area (grad phi_i . w)
    load = mesh.areas[:, None] * np.einsum("tid,td->ti", mesh.basis_gradients, w)
    rhs = np.bincount(mesh.triangles.ravel(), load.ravel(), minlength=mesh.num_vertices)
    v = np.zeros(mesh.num_vertices)
    v[1:] = spsolve(mesh, rhs[1:])  # anchor v = 0 at vertex 0

    v = ScalarField(mesh, v)
    return v, relative_l2(gradient_field(v) - w, w, mesh.areas)


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
    abs_fz = np.abs(fz)
    # constant nodal data leaves roundoff-sized gradients, not exact zeros: fz's
    # area-weighted root mean square is compared against a floor set by the data
    scale = float(np.abs(u.values).max() + np.abs(v.values).max())
    if relative_l2(abs_fz, np.ones(len(fz)), mesh.areas) <= 1e-12 * scale / mesh.h:
        raise DegenerateInputError("fz vanishes identically; f is constant")
    return relative_l2(fzbar - mu * fz - nu * np.conj(fz), abs_fz, mesh.areas)


# ---------------------------------------------------------------------------
# Jacobian and injectivity


def jacobian_field(U: MappingField) -> np.ndarray:
    """Per-triangle det of the matrix with rows grad u1, grad u2."""
    return cross(*gradient_field(U.u1).T, *gradient_field(U.u2).T)


def _segments_properly_intersect(a, b, c, d):
    """Intersection mask of the segment pairs a[k] -> b[k], c[k] -> d[k], (n, 2)
    arrays: a proper crossing, or four collinear endpoints, which overlap or
    touch where the pair's boxes meet (the caller's test). One shared endpoint
    of segments that are not collinear does not count. The orientations are
    compared by their signs, whose products neither underflow nor overflow."""
    d1, d2 = cross(*(b - a).T, *(c - a).T), cross(*(b - a).T, *(d - a).T)
    d3, d4 = cross(*(d - c).T, *(a - c).T), cross(*(d - c).T, *(b - c).T)
    proper = (np.sign(d1) * np.sign(d2) < 0) & (np.sign(d3) * np.sign(d4) < 0)
    return proper | ((d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0))


def injectivity_check(U: MappingField) -> InjectivityResult:
    """Sufficient discrete surrogate for local injectivity.

    Passes iff (a) every boundary loop image is a simple polygon, loop images
    are pairwise disjoint, and (b) all triangle-image signed areas share one
    strict sign. Violations name offending triangles and boundary edge pairs.
    This certifies the discrete map's behavior; it is not a continuum proof.

    The images are first scaled by fem._scaled, the power of two that puts
    their largest coordinate in [1/2, 1). The scaling is exact, so no verdict
    depends on the image scale, and no area or orientation overflows.
    """
    mesh = U.mesh
    violations: list = []

    imgs = _scaled(U.values)[0]
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
    and then its self-intersections, then the crossings between loops, each in
    lexicographic order.

    Only near pairs are tested, all found by one box_pairs self-join of the
    segments' closed bounding boxes grown by the collision distance d. Two
    image vertices closer than d start segments whose grown boxes overlap, so
    the join finds every collision. Crossings are tested on the pairs whose
    ungrown boxes overlap, which hold every crossing and collinear touch.

    d is 1e-12 times the image's extent, the largest side of its bounding
    box, so that it does not grow with the image's distance from the origin;
    an image that is one point takes its largest coordinate instead.
    """
    extent = float(np.max(imgs.max(axis=0) - imgs.min(axis=0)))
    d = 1e-12 * max(extent or float(np.abs(imgs).max()), 1e-300)
    sizes = np.array([len(loop) for loop in loops])
    start = np.cumsum(sizes) - sizes
    a, b = loop_segments(imgs, loops)
    lo, hi = np.minimum(a, b), np.maximum(a, b)
    glo, ghi = lo - d, hi + d
    p, q = box_pairs(glo, ghi, box_sweep(glo, ghi))
    p, q = p[p < q], q[p < q]
    loop_of = np.repeat(np.arange(len(loops)), sizes)
    li, lj = loop_of[p], loop_of[q]
    i, j = p - start[li], q - start[lj]
    # repeated image vertices pinch the boundary polygon; when d**2 underflows
    # to 0, no pair is close
    close = (li == lj) & (np.sum((a[p] - a[q]) ** 2, axis=-1) < d**2)
    meet = ((lo[p] <= hi[q]) & (lo[q] <= hi[p])).all(axis=1)
    # neighbours along a loop share an endpoint
    adjacent = (li == lj) & ((j == i + 1) | ((i == 0) & (j == sizes[lj] - 1)))
    crossed = meet & ~adjacent & _segments_properly_intersect(a[p], b[p], a[q], b[q])
    collisions = zip(li[close].tolist(), i[close].tolist(), j[close].tolist())
    crossings = sorted(
        zip(li[crossed].tolist(), lj[crossed].tolist(), i[crossed].tolist(), j[crossed].tolist())
    )
    # (loop, kind, i, j): per loop, its collisions before its self-intersections
    rows = sorted([(l, 0, s, t) for l, s, t in collisions]
                  + [(l, 1, s, t) for l, m, s, t in crossings if l == m])
    kinds = ("boundary_vertex_collision", "boundary_self_intersection")
    violations = [(kinds[k], l, s, t) for l, k, s, t in rows]
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
    depth = max(margin, 2.0 * mesh.h)
    deep = mesh.boundary_distance(pts) > depth
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
    5 times, if the pullback's boundary is pinched). A probe whose disk is
    finer than the mesh, or whose trace is too short or noisy, is unresolved.

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
    min_abs_det = float(np.abs(cross(*g1.T, *g2.T)[inset]).min())
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
    probe = {"z0": [float(z0[0]), float(z0[1])], "trace_length": 0, "radial_deviation": None,
             "tolerance": None, "resolved": False, "direction_changes": [],
             "unimodal_all_directions": None}
    for attempt in range(6):
        try:
            sub = pullback_subdomain(U, t, bary, r)
            break
        except DegenerateInputError as exc:
            # the disk is finer than the mesh: it holds no triangle, or not the probe's
            log.debug("probe %s unresolved: %s", tuple(z0.tolist()), exc)
            return {**probe, "radius": float(r)}
        except MeshError as exc:
            if attempt == 5:
                raise
            # grazing level set; shrink and retry
            log.debug("probe %s: pullback radius %r -> %r after MeshError: %s",
                      tuple(z0.tolist()), r, r * 0.9, exc)
            r *= 0.9

    loop = sub.loops[0]
    trace_img = U.values[loop]
    rho = float(
        np.abs(np.hypot(trace_img[:, 0] - sub.center_image[0],
                        trace_img[:, 1] - sub.center_image[1]) - sub.radius).max()
    )
    atol = max(1e-12, 2.0 * rho)
    probe.update(radius=float(sub.radius), trace_length=int(len(loop)), radial_deviation=rho,
                 tolerance=atol)
    # the directional trace has amplitude about 2r; when the noise floor is
    # comparable the verdict would be meaningless, so report that instead
    if atol > 0.5 * sub.radius or len(loop) < 8:
        log.debug("probe %s unresolved: tolerance %r, radius %r, trace length %d",
                  tuple(z0.tolist()), atol, sub.radius, len(loop))
        return probe

    verdicts = [
        unimodality_check(math.cos(theta) * trace_img[:, 0] + math.sin(theta) * trace_img[:, 1],
                          atol=atol)
        for theta in angles
    ]
    probe.update(resolved=True, direction_changes=[v.direction_changes for v in verdicts],
                 unimodal_all_directions=all(v.unimodal for v in verdicts))
    return probe
