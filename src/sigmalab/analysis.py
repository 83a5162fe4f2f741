"""Downstream analysis of solved fields.

Stream functions, complex derivatives and Beltrami residuals, Jacobian
determinants, injectivity and unimodality surrogates, pullback subdomains,
and the end-to-end nonvanishing-Jacobian verification for mappings whose
components solve the same divergence-form equation.

All operations are pure functions of immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np
from scipy import sparse
from scipy.sparse.linalg import spsolve

from .coefficients import ROTATION, CoefficientField, dilatations, require_elliptic
from .errors import (
    DegenerateInputError,
    MeshError,
    NotInjectiveError,
    SolverError,
)
from .fem import ScalarField, gradient_field
from .mesh import Mesh


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

    @property
    def values(self) -> np.ndarray:
        """Nodal images, shape (nv, 2)."""
        return np.column_stack([self.u1.values, self.u2.values])

    def interpolate(self, points) -> np.ndarray:
        return np.column_stack(
            [self.u1.interpolate(points), self.u2.interpolate(points)]
        )

    def directional(self, xi) -> ScalarField:
        """Component xi . U; solves the same equation by linearity."""
        xi = np.asarray(xi, dtype=float)
        return ScalarField(self.mesh, xi[0] * self.u1.values + xi[1] * self.u2.values)


@dataclass(frozen=True)
class ComplexDerivativeField:
    """Per-triangle Wirtinger derivatives of f = u + iv.

    value_scale records max |u| + max |v| so downstream checks can tell a
    genuinely constant f (gradients at roundoff level) from a small one.
    """

    mesh: Mesh
    fz: np.ndarray
    fzbar: np.ndarray
    value_scale: float = 1.0


@dataclass(frozen=True)
class UnimodalityVerdict:
    unimodal: bool
    rise_arc: tuple[int, int]
    fall_arc: tuple[int, int]
    direction_changes: int
    group_count: int

    def to_dict(self) -> dict:
        return {
            "unimodal": self.unimodal,
            "rise_arc": list(self.rise_arc),
            "fall_arc": list(self.fall_arc),
            "direction_changes": self.direction_changes,
            "group_count": self.group_count,
        }


@dataclass(frozen=True)
class QuasiconformalDefect:
    sup_ratio: float
    min_jacobian_f: float
    ratio_unbounded: bool
    near_degenerate: bool


@dataclass(frozen=True)
class InjectivityResult:
    injective: bool
    violations: list


@dataclass(frozen=True)
class PullbackSubdomain:
    """Preimage of a target disk, as a submesh plus correspondence arrays."""

    mesh: Mesh
    parent_vertices: np.ndarray
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

    def to_dict(self) -> dict:
        return {
            "directions_tested": self.directions_tested,
            "margin": self.margin,
            "injective": self.injective,
            "min_abs_det": self.min_abs_det,
            "min_abs_grad": list(self.min_abs_grad),
            "probes": self.probes,
            "passed": self.passed,
        }


# ---------------------------------------------------------------------------
# stream function


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
    so more than one boundary loop is rejected unless the caller opts in; a
    large residual then flags nonzero circulation around a hole.
    """
    mesh = u.mesh
    if len(mesh.loops) != 1 and not allow_multiply_connected:
        raise MeshError(
            f"stream function needs a simply connected domain; mesh has "
            f"{len(mesh.loops)} boundary loops"
        )
    S = require_elliptic(sigma, mesh.centroids).samples
    gu = gradient_field(u).vectors
    w = np.einsum("ab,tbc,tc->ta", ROTATION, S, gu)

    den = float(np.sqrt(np.sum(mesh.areas * np.einsum("td,td->t", w, w))))
    if den == 0.0:
        return ScalarField(mesh, np.zeros(mesh.num_vertices)), 0.0

    nt, nv = mesh.num_triangles, mesh.num_vertices
    G = mesh.basis_gradients
    rows = np.repeat(np.arange(nt), 3)
    cols = mesh.triangles.ravel()
    Dx = sparse.coo_matrix((G[:, :, 0].ravel(), (rows, cols)), shape=(nt, nv)).tocsr()
    Dy = sparse.coo_matrix((G[:, :, 1].ravel(), (rows, cols)), shape=(nt, nv)).tocsr()
    W = sparse.diags(mesh.areas)
    L = (Dx.T @ W @ Dx + Dy.T @ W @ Dy).tocsr()
    rhs = Dx.T @ W @ w[:, 0] + Dy.T @ W @ w[:, 1]

    keep = np.arange(1, nv)  # anchor v = 0 at vertex 0
    v = np.zeros(nv)
    v[keep] = spsolve(L[keep][:, keep].tocsc(), rhs[keep])
    if not np.isfinite(v).all():
        raise SolverError("stream-function least squares produced non-finite values")

    gv = np.einsum("tid,ti->td", G, v[mesh.triangles])
    num = float(np.sqrt(np.sum(mesh.areas * np.einsum("td,td->t", gv - w, gv - w))))
    return ScalarField(mesh, v), num / den


# ---------------------------------------------------------------------------
# complex derivatives and Beltrami residual


def complex_derivatives(u: ScalarField, v: ScalarField) -> ComplexDerivativeField:
    """Wirtinger derivatives of f = u + iv from the two P1 gradients."""
    if u.mesh is not v.mesh:
        raise MeshError("u and v must live on the same mesh")
    gu = gradient_field(u).vectors
    gv = gradient_field(v).vectors
    fz = 0.5 * ((gu[:, 0] + gv[:, 1]) + 1j * (gv[:, 0] - gu[:, 1]))
    fzbar = 0.5 * ((gu[:, 0] - gv[:, 1]) + 1j * (gv[:, 0] + gu[:, 1]))
    scale = float(np.abs(u.values).max() + np.abs(v.values).max())
    return ComplexDerivativeField(u.mesh, fz, fzbar, value_scale=scale)


def beltrami_residual(cd: ComplexDerivativeField, sigma: CoefficientField) -> float:
    """Area-weighted relative L2 defect of fzbar = mu fz + nu conj(fz)."""
    mesh = cd.mesh
    d = dilatations(require_elliptic(sigma, mesh.centroids).samples)
    den = float(np.sqrt(np.sum(mesh.areas * np.abs(cd.fz) ** 2)))
    # constant nodal data leaves roundoff-sized gradients, not exact zeros
    floor = 1e-12 * cd.value_scale * math.sqrt(float(mesh.areas.sum())) / mesh.h
    if den <= floor:
        raise DegenerateInputError("fz vanishes identically; f is constant")
    defect = cd.fzbar - d.mu * cd.fz - d.nu * np.conj(cd.fz)
    return float(np.sqrt(np.sum(mesh.areas * np.abs(defect) ** 2))) / den


def quasiconformal_defect(
    cd: ComplexDerivativeField, margin: float, degeneracy_tol: float = 1e-3
) -> QuasiconformalDefect:
    """Distortion statistics over triangles inset from the boundary.

    sup_ratio is the largest |fzbar| / |fz| (flagged unbounded when fz
    vanishes on some triangle), min_jacobian_f the smallest |fz|^2 - |fzbar|^2.
    """
    if margin < 0:
        raise DegenerateInputError("margin must be nonnegative")
    mesh = cd.mesh
    inset = mesh.boundary_distance(mesh.centroids) >= margin
    if not inset.any():
        raise DegenerateInputError(f"no triangle centroid is {margin} inside the boundary")
    fz = np.abs(cd.fz[inset])
    fzb = np.abs(cd.fzbar[inset])
    zero = fz == 0.0
    ratio_unbounded = bool(np.any(zero & (fzb > 0.0)))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = np.where(zero, np.where(fzb > 0, np.inf, 0.0), fzb / np.maximum(fz, 1e-300))
    sup_ratio = float(np.max(ratios[np.isfinite(ratios)], initial=0.0))
    min_jac = float(np.min(fz * fz - fzb * fzb))
    return QuasiconformalDefect(
        sup_ratio=math.inf if ratio_unbounded else sup_ratio,
        min_jacobian_f=min_jac,
        ratio_unbounded=ratio_unbounded,
        near_degenerate=bool(min_jac < degeneracy_tol),
    )


# ---------------------------------------------------------------------------
# Jacobian and injectivity


def jacobian_field(U: MappingField) -> np.ndarray:
    """Per-triangle det of the matrix with rows grad u1, grad u2."""
    g1 = gradient_field(U.u1).vectors
    g2 = gradient_field(U.u2).vectors
    return g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]


def _segments_properly_intersect(p, q, eps=0.0):
    """Pairwise proper-intersection mask between segment sets p and q.

    p: (n, 2, 2), q: (m, 2, 2). A shared endpoint does not count; crossing or
    collinear overlap does.
    """

    def orient(a, b, c):
        return (b[..., 0] - a[..., 0]) * (c[..., 1] - a[..., 1]) - (
            b[..., 1] - a[..., 1]
        ) * (c[..., 0] - a[..., 0])

    a, b = p[:, None, 0], p[:, None, 1]
    c, d = q[None, :, 0], q[None, :, 1]
    d1 = orient(a, b, c)
    d2 = orient(a, b, d)
    d3 = orient(c, d, a)
    d4 = orient(c, d, b)
    crossing = (d1 * d2 < -eps) & (d3 * d4 < -eps)

    # collinear overlap: all orientations ~0 and bounding boxes overlap
    flat = (
        (np.abs(d1) <= eps) & (np.abs(d2) <= eps) & (np.abs(d3) <= eps) & (np.abs(d4) <= eps)
    )
    if flat.any():
        lo_p = np.minimum(a, b)
        hi_p = np.maximum(a, b)
        lo_q = np.minimum(c, d)
        hi_q = np.maximum(c, d)
        boxes = (
            (lo_p[..., 0] <= hi_q[..., 0])
            & (lo_q[..., 0] <= hi_p[..., 0])
            & (lo_p[..., 1] <= hi_q[..., 1])
            & (lo_q[..., 1] <= hi_p[..., 1])
        )
        crossing |= flat & boxes
    return crossing


def injectivity_check(U: MappingField) -> InjectivityResult:
    """Sufficient discrete surrogate for local injectivity.

    Passes iff (a) every boundary loop image is a simple polygon, loop images
    are pairwise disjoint, and (b) all triangle-image signed areas share one
    strict sign. Violations name offending triangles and boundary edge pairs.
    This certifies the discrete map's behavior; it is not a continuum proof.
    """
    mesh = U.mesh
    violations: list = []

    areas = _image_signed_areas(U)
    pos = int(np.sum(areas > 0))
    neg = int(np.sum(areas < 0))
    majority = 1.0 if pos >= neg else -1.0
    bad = np.where((areas * majority <= 0))[0]
    violations.extend(("triangle_orientation", int(t)) for t in bad)

    imgs = U.values
    scale = max(float(np.abs(imgs).max()), 1e-300)
    loop_segments = []
    for li, loop in enumerate(mesh.loops):
        pts = imgs[loop]
        # repeated image vertices pinch the boundary polygon
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        for i, j in zip(*np.where(np.triu(d2 < (1e-12 * scale) ** 2, 1))):
            violations.append(("boundary_vertex_collision", li, int(i), int(j)))
        seg = np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
        loop_segments.append(seg)
        n = len(seg)
        cross = _segments_properly_intersect(seg, seg)
        idx = np.arange(n)
        adjacent = (
            (idx[:, None] == idx[None, :])
            | (idx[:, None] == (idx[None, :] + 1) % n)
            | ((idx[:, None] + 1) % n == idx[None, :])
        )
        cross &= ~adjacent
        for i, j in zip(*np.where(np.triu(cross, 1))):
            violations.append(("boundary_self_intersection", li, int(i), int(j)))
    for li in range(len(loop_segments)):
        for lj in range(li + 1, len(loop_segments)):
            cross = _segments_properly_intersect(loop_segments[li], loop_segments[lj])
            for i, j in zip(*np.where(cross)):
                violations.append(("boundary_loop_crossing", li, lj, int(i), int(j)))

    return InjectivityResult(injective=not violations, violations=violations)


def _image_signed_areas(U: MappingField) -> np.ndarray:
    p = U.values[U.mesh.triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


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
    for i, v in enumerate(vals):
        if anchors and abs(v - anchors[-1]) <= atol:
            continue
        anchors.append(float(v))
        starts.append(i)
    # cyclic closure: the final group may continue into the first one
    while len(anchors) > 1 and abs(anchors[-1] - anchors[0]) <= atol:
        anchors.pop()
        starts.pop()
    if len(anchors) < 2:
        raise DegenerateInputError("constant trace after plateau compression")

    a = np.array(anchors)
    diffs = np.sign(np.roll(a, -1) - a)
    changes = int(np.sum(diffs != np.roll(diffs, 1)))

    imax = int(np.argmax(a))
    imin = int(np.argmin(a))
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


def pullback_subdomain(U: MappingField, z0, r: float) -> PullbackSubdomain:
    """Submesh of triangles whose vertex images fall in the disk of radius r
    around U(z0).

    Requires z0 strictly inside the mesh and the closed target disk compactly
    inside the discrete image (every boundary-image point farther than r from
    the disk center).
    """
    if not r > 0:
        raise DegenerateInputError("pullback radius must be positive")
    mesh = U.mesh
    z0 = np.asarray(z0, dtype=float)
    tri, bary = mesh.locate(z0[None, :])
    if tri[0] < 0:
        raise DegenerateInputError(f"probe point {tuple(z0)} is outside the mesh")
    if mesh.boundary_distance(z0[None, :])[0] <= 0.0:
        raise DegenerateInputError(f"probe point {tuple(z0)} lies on the boundary")
    w0 = U.values[mesh.triangles[tri[0]]].T @ bary[0]

    boundary_images = U.values[np.concatenate(mesh.loops)]
    gap = np.hypot(*(boundary_images - w0).T).min()
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
    keep_tri = _component_containing(mesh, keep_tri, int(tri[0]))

    tri_ids = np.where(keep_tri)[0]
    old_vertices = np.unique(mesh.triangles[tri_ids])
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[old_vertices] = np.arange(len(old_vertices))
    sub = Mesh(
        mesh.vertices[old_vertices],
        remap[mesh.triangles[tri_ids]],
        h=mesh.h,
    )
    return PullbackSubdomain(
        mesh=sub,
        parent_vertices=old_vertices,
        parent_triangles=tri_ids,
        center_image=(float(w0[0]), float(w0[1])),
        radius=float(r),
    )


def _component_containing(mesh: Mesh, keep_tri: np.ndarray, seed_tri: int) -> np.ndarray:
    """Restrict a triangle selection to the edge-connected component of seed_tri."""
    if not keep_tri[seed_tri]:
        raise DegenerateInputError(
            "the probe point's triangle is not inside the pullback disk; "
            "the radius is too small for this mesh"
        )
    # imported here: only pullbacks need it, and it adds about 1 MB of
    # resident memory to every process that imports it
    from scipy.sparse.csgraph import connected_components

    table = mesh.edge_table
    kept = np.flatnonzero(np.repeat(keep_tri, 3))  # directed edges of kept triangles
    incidence = sparse.csr_matrix(
        (np.ones(len(kept)), (kept // 3, table.inverse[kept])),
        shape=(mesh.num_triangles, len(table.edges)),
    )
    # kept triangles are adjacent when they share an edge
    _, labels = connected_components(incidence @ incidence.T, directed=False)
    return labels == labels[seed_tri]


# ---------------------------------------------------------------------------
# critical point candidates


def critical_point_candidates(u: ScalarField, rel_tol: float) -> list[tuple[int, float]]:
    """Triangles where |grad u| drops below rel_tol times the median, ascending."""
    if not 0.0 < rel_tol < 1.0:
        raise DegenerateInputError("rel_tol must lie in (0, 1)")
    norms = gradient_field(u).norms()
    threshold = rel_tol * float(np.median(norms))
    idx = np.where(norms < threshold)[0]
    ranked = sorted(((int(t), float(norms[t])) for t in idx), key=lambda p: (p[1], p[0]))
    return ranked


# ---------------------------------------------------------------------------
# the end-to-end verification


def default_probe_points(mesh: Mesh, margin: float, count: int = 5) -> np.ndarray:
    """Deterministic interior probe points on a coarse lattice.

    Scans a 5x5 lattice over the bounding box (center-first ordering) and
    keeps points well inside the mesh.
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
    inside = mesh.locate(pts)[0] >= 0
    deep = mesh.boundary_distance(pts) > max(margin, 2.0 * mesh.h)
    chosen = pts[inside & deep]
    if len(chosen) == 0:
        raise DegenerateInputError("no lattice probe point is safely interior")
    return chosen[:count]


def lewy_verify(
    U: MappingField,
    sigma: CoefficientField,
    directions: int,
    margin: float,
    probe_points: Optional[Sequence] = None,
    probe_radius_factor: float = 0.7,
) -> LewyReport:
    """Check the nonvanishing-Jacobian conclusion on a solved mapping.

    For unit directions xi spread over the half circle, the directional
    component xi . U solves the same equation; its gradient should stay away
    from zero on the margin inset, as should |det DU|. At each probe point a
    pullback of a target disk is built and the boundary trace of every
    directional component is tested for unimodality; the plateau tolerance is
    taken as twice the measured radial deviation of the trace image, the
    discretization noise floor (radii shrink by 10% steps, at most 5 times,
    if a raw pullback submesh is not manifold).

    The report passes iff min |det DU| > 0 and every directional gradient
    minimum is positive. A non-injective U is a hypothesis failure and raises.
    """
    if directions < 1:
        raise DegenerateInputError("need at least one test direction")
    inj = injectivity_check(U)
    if not inj.injective:
        raise NotInjectiveError(
            f"mapping is not injective by the discrete check "
            f"({len(inj.violations)} violations); hypothesis fails"
        )
    mesh = U.mesh
    require_elliptic(sigma, mesh.centroids)

    inset = mesh.boundary_distance(mesh.centroids) >= margin
    if not inset.any():
        raise DegenerateInputError(f"margin {margin} leaves no interior triangles")

    g1 = gradient_field(U.u1).vectors
    g2 = gradient_field(U.u2).vectors
    det = g1[:, 0] * g2[:, 1] - g1[:, 1] * g2[:, 0]
    min_abs_det = float(np.abs(det[inset]).min())

    angles = [math.pi * k / directions for k in range(directions)]
    min_abs_grad = []
    for theta in angles:
        g = math.cos(theta) * g1 + math.sin(theta) * g2
        min_abs_grad.append(float(np.hypot(g[:, 0], g[:, 1])[inset].min()))

    if probe_points is None:
        probe_points = default_probe_points(mesh, margin)
    probes = []
    for z0 in np.atleast_2d(np.asarray(probe_points, dtype=float)):
        probes.append(
            _probe_unimodality(U, z0, probe_radius_factor, angles)
        )

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


def _probe_unimodality(U, z0, radius_factor, angles) -> dict:
    mesh = U.mesh
    w_bnd = U.values[np.concatenate(mesh.loops)]
    tri, bary = mesh.locate(z0[None, :])
    if tri[0] < 0:
        raise DegenerateInputError(f"probe point {tuple(z0)} is outside the mesh")
    w0 = U.values[mesh.triangles[tri[0]]].T @ bary[0]
    r = radius_factor * float(np.hypot(*(w_bnd - w0).T).min())

    sub = None
    for _ in range(5):
        try:
            sub = pullback_subdomain(U, z0, r)
            break
        except MeshError:
            r *= 0.9  # grazing level set; shrink and retry
    if sub is None:
        sub = pullback_subdomain(U, z0, r)

    loop = sub.parent_vertices[sub.mesh.loops[0]]
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
        probe.update(
            resolved=False, direction_changes=[], unimodal_all_directions=None
        )
        return probe

    changes = []
    unimodal = []
    for theta in angles:
        vals = math.cos(theta) * U.u1.values[loop] + math.sin(theta) * U.u2.values[loop]
        verdict = unimodality_check(vals, atol=atol)
        changes.append(verdict.direction_changes)
        unimodal.append(verdict.unimodal)
    probe.update(
        resolved=True,
        direction_changes=changes,
        unimodal_all_directions=bool(all(unimodal)),
    )
    return probe
