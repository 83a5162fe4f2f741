import collections
import functools
import itertools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import sparse

from sigmalab import (
    DegenerateInputError,
    MappingField,
    Mesh,
    MeshError,
    NotInjectiveError,
    ScalarField,
    SolverError,
    UnimodalityVerdict,
    analysis,
    beltrami_residual,
    complex_derivatives,
    fd,
    generate_annulus,
    generate_disk,
    generate_rectangle,
    gradient_field,
    injectivity_check,
    jacobian_field,
    lewy_verify,
    pullback_subdomain,
    refine,
    solve_dirichlet,
    stream_function,
    unimodality_check,
)
from sigmalab.coefficients import (
    ROTATION,
    anisotropic_field,
    field_from_descriptor,
    holder_bump_field,
    identity_field,
    meyers_sigma,
    require_elliptic,
)
from sigmalab.analysis import _component_containing
from sigmalab.fem import assemble_stiffness
from sigmalab.oracles import holomorphic_oracle, identity_oracle, meyers_solution
from laminate import laminate
from reference import critical_point_candidates, mapping_field


def samples(mesh, sigma):
    """sigma at the centroids, checked elliptic, as each command passes it."""
    return require_elliptic(sigma, mesh.centroids).samples


def solve(mesh, sigma, g):
    (u,), _ = solve_dirichlet(mesh, samples(mesh, sigma), g)
    return u


def nodal(mesh, f):
    return ScalarField(mesh, np.array([f(x, y) for x, y in mesh.vertices]))


@functools.cache
def coarse_mesh(name):
    """Small meshes for the properties, built once: the unit disk, an annulus
    and the square [-1, 1]^2 at h = 0.125 and, for the laminates, 0.1."""
    return {
        "disk": lambda: generate_disk((0.0, 0.0), 1.0, 0.1),
        "annulus": lambda: generate_annulus((0.0, 0.0), 0.2, 1.0, 0.1),
        "rect": lambda: generate_rectangle((-1.0, -1.0), 2.0, 2.0, 0.125),
        "laminate": lambda: generate_rectangle((-1.0, -1.0), 2.0, 2.0, 0.1),
    }[name]()


# ---------------------------------------------------------------------------
# stream function


def test_stream_of_x1_is_x2(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v, res = stream_function(u, identity_field())
    assert res <= 1e-10
    shift = disk_mesh.vertices[0, 1]
    assert np.allclose(v.values, disk_mesh.vertices[:, 1] - shift, atol=1e-9)


def test_stream_of_anisotropic_constant_gradient(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v, res = stream_function(u, anisotropic_field(2.0, 0.5))
    assert res <= 1e-10
    shift = 2.0 * disk_mesh.vertices[0, 1]
    assert np.allclose(v.values, 2.0 * disk_mesh.vertices[:, 1] - shift, atol=1e-9)


def test_stream_harmonic_conjugate_converges(disk_mesh, fine_disk_mesh):
    errs = []
    for m in (disk_mesh, fine_disk_mesh):
        u = solve(m, identity_field(), lambda x, y: x * x - y * y)
        v, _ = stream_function(u, identity_field())
        exact = 2 * m.vertices[:, 0] * m.vertices[:, 1]
        exact -= exact[0]
        num = np.sqrt(np.sum(m.areas * (v.values[m.triangles].mean(1)
                                        - exact[m.triangles].mean(1)) ** 2))
        den = np.sqrt(np.sum(m.areas * exact[m.triangles].mean(1) ** 2))
        errs.append(float(num / den))
    assert errs[1] < errs[0] / 2.5  # about O(h^2)


def test_stream_zero_field(disk_mesh):
    u = ScalarField(disk_mesh, np.zeros(disk_mesh.num_vertices))
    v, res = stream_function(u, identity_field())
    assert res == 0.0
    assert np.all(v.values == 0.0)


def test_stream_rejects_annulus_by_default(annulus_mesh):
    u = nodal(annulus_mesh, lambda x, y: x)
    with pytest.raises(MeshError):
        stream_function(u, identity_field())
    v, res = stream_function(u, identity_field(), allow_multiply_connected=True)
    assert res <= 1e-8  # x1 has a single-valued conjugate on the annulus


def test_stream_residual_invariances(disk_mesh):
    sigma = holder_bump_field(0.4, 0.1, 0.2, 0.5, 0.3)
    u = solve(disk_mesh, sigma, lambda x, y: x * x - y * y)
    _, res = stream_function(u, sigma)
    _, res_shift = stream_function(
        ScalarField(disk_mesh, u.values + 5.0), sigma
    )
    _, res_scaled = stream_function(
        ScalarField(disk_mesh, 3.0 * u.values), sigma
    )
    assert res_shift == pytest.approx(res, rel=1e-9)
    assert res_scaled == pytest.approx(res, rel=1e-9)  # relative residual


def gradient_operators(mesh):
    """Sparse (nt, nv) maps from nodal values to the x and y components of
    each triangle's gradient, built entry by entry from the basis gradients."""
    nt, nv = mesh.num_triangles, mesh.num_vertices
    G = mesh.basis_gradients
    rows = np.repeat(np.arange(nt), 3)
    cols = mesh.triangles.ravel()
    return [
        sparse.csr_matrix((G[:, :, d].ravel(), (rows, cols)), shape=(nt, nv)) for d in (0, 1)
    ]


def test_stream_solves_the_least_squares_normal_equations(fine_disk_mesh):
    # a nonsymmetric sigma: J sigma grad u is not a discrete gradient, so v
    # is a genuine least-squares fit with a nonzero residual
    m = fine_disk_mesh
    sigma = field_from_descriptor("randnonsym:seed=3")
    u = solve(m, sigma, lambda x, y: x)
    v, res = stream_function(u, sigma)
    assert res > 1e-6
    assert v.values[0] == 0.0  # the anchor
    Dx, Dy = gradient_operators(m)
    W = sparse.diags(m.areas)
    S = sigma.at_points(m.centroids)
    w = np.einsum("ab,tbc,tc->ta", ROTATION, S, gradient_field(u))
    normal = Dx.T @ W @ (Dx @ v.values - w[:, 0]) + Dy.T @ W @ (Dy @ v.values - w[:, 1])
    load = Dx.T @ W @ w[:, 0] + Dy.T @ W @ w[:, 1]
    assert np.abs(normal[1:]).max() <= 1e-10 * np.abs(load).max()


@pytest.mark.usefixtures("fresh_store")
def test_stream_laplacian_is_factored_once_per_mesh(disk_mesh, splu_calls):
    other = coarse_mesh("rect")
    u = nodal(disk_mesh, lambda x, y: x * x - y * y)
    w = nodal(other, lambda x, y: x + 0.5 * y)
    sigma = anisotropic_field(2.0, 0.5, 0.3)
    stream_function(u, sigma)
    stream_function(u, identity_field())
    assert [A.shape[0] for A in splu_calls] == [disk_mesh.num_vertices - 1]
    stream_function(w, sigma)  # a second mesh factors; the first keeps its entry
    stream_function(w, sigma)
    stream_function(u, sigma)
    assert [A.shape[0] for A in splu_calls] == [
        disk_mesh.num_vertices - 1, other.num_vertices - 1
    ]


@pytest.mark.usefixtures("fresh_store")
def test_a_cached_stream_factor_gives_the_bits_of_a_fresh_one(fine_disk_mesh):
    sigma = field_from_descriptor("randnonsym:seed=3")
    u1 = solve(fine_disk_mesh, sigma, lambda x, y: x)
    u2 = solve(fine_disk_mesh, sigma, lambda x, y: y + 0.3 * x * x)
    fresh = stream_function(u2, sigma)  # a miss
    stream_function(u1, sigma)
    cached = stream_function(u2, sigma)  # a hit
    assert np.array_equal(cached[0].values, fresh[0].values)
    assert cached[1] == fresh[1]


@pytest.mark.usefixtures("fresh_store")
def test_a_singular_stream_factor_is_not_cached(disk_mesh, monkeypatch, splu_calls):
    from scipy.sparse import linalg

    u = nodal(disk_mesh, lambda x, y: x)
    real = linalg.splu

    def singular(*args, **kwargs):
        splu_calls.append(args[0])
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(linalg, "splu", singular)
    for _ in range(2):
        with pytest.raises(SolverError, match="stream-function Laplacian is singular"):
            stream_function(u, identity_field())
    assert len(splu_calls) == 2
    monkeypatch.setattr(linalg, "splu", real)
    v, res = stream_function(u, identity_field())
    assert len(splu_calls) == 3
    assert np.abs(v.values - disk_mesh.vertices[:, 1]).max() <= 1e-10 and res <= 1e-10


@pytest.mark.usefixtures("fresh_store")
def test_the_stream_factorization_logs_once_per_mesh(disk_mesh, caplog):
    u = nodal(disk_mesh, lambda x, y: x)
    with caplog.at_level(logging.DEBUG, logger="sigmalab"):
        stream_function(u, identity_field())
        stream_function(u, anisotropic_field(2.0, 0.5))
    records = [r for r in caplog.records if r.name == "sigmalab.analysis"]
    assert [(r.levelno, r.getMessage()) for r in records] == [(
        logging.DEBUG,
        f"stream-function Laplacian factored: {disk_mesh.num_vertices} vertices, "
        f"{disk_mesh.num_vertices - 1} unknowns",
    )]


def test_energy_is_the_centroid_sum(fine_disk_mesh):
    m = fine_disk_mesh
    sigma = field_from_descriptor("randnonsym:seed=3")
    u = solve(m, sigma, lambda x, y: x)
    S = sigma.at_points(m.centroids)
    g = gradient_field(u)
    centroid_sum = np.sum(m.areas * np.einsum("tab,tb,ta->t", S, g, g))
    energy = u.values @ (assemble_stiffness(m, S) @ u.values)
    assert energy == pytest.approx(centroid_sum, rel=1e-12)


# ---------------------------------------------------------------------------
# complex derivatives and Beltrami residual


def test_complex_derivatives_identity_and_conjugate(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v = nodal(disk_mesh, lambda x, y: y)
    fz, fzbar = complex_derivatives(u, v)
    assert np.allclose(fz, 1.0, atol=1e-12)
    assert np.allclose(fzbar, 0.0, atol=1e-12)
    fz, fzbar = complex_derivatives(u, nodal(disk_mesh, lambda x, y: -y))
    assert np.allclose(fz, 0.0, atol=1e-12)
    assert np.allclose(fzbar, 1.0, atol=1e-12)


def test_complex_derivatives_z_squared(fine_disk_mesh):
    m = fine_disk_mesh
    u = nodal(m, lambda x, y: x * x - y * y)
    v = nodal(m, lambda x, y: 2 * x * y)
    fz, fzbar = complex_derivatives(u, v)
    zc = m.centroids[:, 0] + 1j * m.centroids[:, 1]
    assert np.abs(fz - 2 * zc).max() <= m.h
    assert np.abs(fzbar).max() <= m.h


def test_complex_derivatives_mesh_mismatch(disk_mesh, fine_disk_mesh):
    with pytest.raises(MeshError):
        complex_derivatives(
            nodal(disk_mesh, lambda x, y: x), nodal(fine_disk_mesh, lambda x, y: y)
        )


def test_beltrami_residual_exact_holomorphic(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v = nodal(disk_mesh, lambda x, y: y)
    assert beltrami_residual(u, v, samples(disk_mesh, identity_field())) <= 1e-12


def test_beltrami_residual_constant_f_raises(disk_mesh):
    c = nodal(disk_mesh, lambda x, y: 1.0)
    with pytest.raises(DegenerateInputError):
        beltrami_residual(c, c, samples(disk_mesh, identity_field()))


@pytest.mark.parametrize(
    "bad",
    [lambda S: S[1:], lambda S: S[:, 0], lambda S: np.where(S == 1.0, np.nan, S)],
    ids=["too-few", "vectors", "non-finite"],
)
def test_beltrami_residual_refuses_bad_samples(disk_mesh, bad):
    u = nodal(disk_mesh, lambda x, y: x)
    v = nodal(disk_mesh, lambda x, y: y)
    with pytest.raises(SolverError, match="sigma samples"):
        beltrami_residual(u, v, bad(samples(disk_mesh, identity_field())))


def test_beltrami_residual_z2_pipeline_converges(disk_mesh):
    sigma = identity_field()
    res = []
    m = disk_mesh  # h = 0.1, then 0.05
    for _ in range(2):
        u = solve(m, sigma, lambda x, y: x * x - y * y)
        v, _ = stream_function(u, sigma)
        res.append(beltrami_residual(u, v, samples(m, sigma)))
        m = refine(m)
    assert res[0] <= 0.05
    assert res[1] <= res[0] / 1.8


def beltrami_pair(k, m, sigma):
    """(stream_residual, beltrami_residual) as beltrami reports them for
    holo:m=m,component=1 on the disk of radius 2**k at h = 2**(k - 3)."""
    mesh = generate_disk((0.0, 0.0), 2.0**k, 2.0 ** (k - 3))
    S = samples(mesh, sigma)
    (u,), _ = solve_dirichlet(mesh, S, holomorphic_oracle(m).component(0).value)
    v, stream_res = stream_function(u, sigma)
    return stream_res, beltrami_residual(u, v, S)


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(st.integers(-300, 300), st.sampled_from([2, 3]), st.floats(1.0, 10.0),
       st.floats(0.1, 1.0), st.floats(0.0, math.pi))
@example(300, 2, 4.0, 0.25, 0.3)
@example(-300, 3, 4.0, 0.25, 0.3)
@example(120, 3, 1.0, 1.0, 0.0)
@example(-120, 2, 1.0, 1.0, 0.0)
def test_beltrami_residuals_are_invariant_under_power_of_two_scaling(k, m, l1, l2, theta):
    # a power of two scales the mesh, the data and every gradient exactly, and
    # both residuals are relative; unscaled sums of squares overflowed at
    # 2**300 and underflowed at 2**-300 ("f is constant")
    sigma = anisotropic_field(l1, l2, theta)
    assert beltrami_pair(k, m, sigma) == beltrami_pair(0, m, sigma)


# ---------------------------------------------------------------------------
# jacobian and injectivity


def test_jacobian_identity_map(disk_mesh):
    U = mapping_field(identity_oracle(), disk_mesh)
    assert np.allclose(jacobian_field(U), 1.0, atol=1e-12)


def test_jacobian_meyers_matches_formula(annulus_mesh):
    U = mapping_field(meyers_solution(2.0), annulus_mesh)
    det = jacobian_field(U)
    r2 = np.sum(annulus_mesh.centroids**2, axis=1)
    assert (np.abs(det - 2 * r2) / (2 * r2)).max() <= 0.10


def test_jacobian_rank_one_map(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x + 2 * y)
    U = MappingField(u, ScalarField(disk_mesh, u.values.copy()))
    assert np.allclose(jacobian_field(U), 0.0, atol=1e-12)


def test_jacobian_equals_wirtinger_identity(disk_mesh):
    sigma = identity_field()
    u = solve(disk_mesh, sigma, lambda x, y: x * x - y * y)
    v, _ = stream_function(u, sigma)
    U = MappingField(u, v)
    fz, fzbar = complex_derivatives(u, v)
    lhs = jacobian_field(U)
    rhs = np.abs(fz) ** 2 - np.abs(fzbar) ** 2
    assert np.abs(lhs - rhs).max() <= 1e-10


def conductivity(scale, theta, l, tau):
    """scale (R(theta) diag(1, l) R(theta)^T + tau J): elliptic for l > 0,
    with the skew part scale tau J."""
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    return scale * (R @ np.diag([1.0, l]) @ R.T + tau * ROTATION)


@st.composite
def laminate_sides(draw):
    """(S1, S2): contrast up to 1e3, and skew parts of opposite signs, so that
    the skew jump across the interface is at least 0.3 of the larger side."""
    angle, shape, skew = st.floats(0.0, math.pi), st.floats(0.2, 1.0), st.floats(0.3, 2.0)
    e = draw(st.floats(-3.0, 3.0))
    return (
        conductivity(1.0, draw(angle), draw(shape), draw(skew)),
        conductivity(10.0**e, draw(angle), draw(shape), -draw(skew)),
    )


@st.composite
def positive_maps(draw):
    """R(phi) [[a, b], [0, d]] with a, d in [0.2, 2]: det a d > 0."""
    phi = draw(st.floats(0.0, 2 * math.pi))
    a, d = draw(st.floats(0.2, 2.0)), draw(st.floats(0.2, 2.0))
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]]) @ np.array([[a, draw(st.floats(-1.0, 1.0))], [0.0, d]])


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(sides=laminate_sides(), A1=positive_maps(), normal=st.sampled_from([(1.0, 0.0), (1.0, -1.0)]))
@example(  # contrast 20, skew parts -0.7 and 5
    sides=(np.array([[1.0, -0.4], [1.0, 2.0]]), np.array([[20.0, 3.0], [-7.0, 0.5]])),
    A1=np.array([[1.0, 0.2], [-0.1, 1.0]]),
    normal=(1.0, 0.0),
)
def test_a_laminate_map_is_its_own_p1_solution(sides, A1, normal):
    # the interface x = 0 or y = x: generate_rectangle splits each square
    # along its (1, 1) diagonal, so both lines are mesh edges
    mesh = coarse_mesh("laminate")
    S1, S2 = sides
    sigma, A2, exact = laminate(S1, S2, A1, normal)
    S = samples(mesh, sigma)
    # the roundoff bound scales with the contrast: the largest |sigma| over
    # the least eigenvalue of a symmetric part
    contrast = max(np.linalg.norm(M, 2) for M in sides) / min(
        np.linalg.eigvalsh(M + M.T)[0] / 2 for M in sides
    )
    tol = 64 * np.finfo(float).eps * contrast

    # guard the oracle: the skew jump makes the interior block non-symmetric
    i = mesh.interior_vertices
    Aii = assemble_stiffness(mesh, S)[i][:, i].toarray()
    assert np.abs(Aii - Aii.T).max() > 1e-2 * np.abs(Aii).max()

    (u1, u2), _ = solve_dirichlet(mesh, S, exact)
    U = exact(*mesh.vertices.T)
    assert np.abs(np.stack([u1.values, u2.values]) - U).max() <= tol * np.abs(U).max()
    det = np.where(mesh.centroids @ normal > 0, np.linalg.det(A2), np.linalg.det(A1))
    scale = max(np.abs(A1).max(), np.abs(A2).max()) ** 2
    assert np.abs(jacobian_field(MappingField(u1, u2)) - det).max() <= tol / mesh.h * scale
    assert injectivity_check(MappingField(u1, u2)).injective
    # a small det A2 squeezes one side into a strip, where a probe's pullback
    # disk can be finer than the mesh: that probe is unresolved, not an error
    report = lewy_verify(MappingField(u1, u2), directions=8, margin=0.1)
    assert report.passed and report.injective and report.min_abs_det > 0
    assert all(p["unimodal_all_directions"] for p in report.probes if p["resolved"])


def test_injectivity_identity(disk_mesh):
    res = injectivity_check(mapping_field(identity_oracle(), disk_mesh))
    assert res.injective and not res.violations
    assert res.injective is True and res.violations == []


def test_injectivity_z2_double_cover(disk_mesh):
    res = injectivity_check(mapping_field(holomorphic_oracle(2), disk_mesh))
    assert not res.injective
    kinds = {v[0] for v in res.violations}
    assert kinds & {"boundary_self_intersection", "boundary_vertex_collision"}


def test_injectivity_meyers(annulus_mesh):
    res = injectivity_check(mapping_field(meyers_solution(2.0), annulus_mesh))
    assert res.injective


def folded_identity(mesh):
    """The identity with the half plane x < 0 reflected onto x > 0."""
    return MappingField(ScalarField(mesh, np.abs(mesh.vertices[:, 0])),
                        ScalarField(mesh, mesh.vertices[:, 1]))


def test_injectivity_orientation_flip(disk_mesh):
    res = injectivity_check(folded_identity(disk_mesh))
    assert not res.injective
    assert any(v[0] == "triangle_orientation" for v in res.violations)


def dense_segments_properly_intersect(p, q):
    """Reference: the (n, m) proper-intersection mask of every segment of p
    against every segment of q, as injectivity_check computed it before it
    tested candidate pairs only."""

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
    crossing = (d1 * d2 < 0) & (d3 * d4 < 0)
    flat = (d1 == 0) & (d2 == 0) & (d3 == 0) & (d4 == 0)
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


def collision_scale(imgs):
    """The collision distance over 1e-12: the largest side of the images'
    bounding box, their largest coordinate when they are one point, at
    least 1e-300."""
    extent = float(np.max(imgs.max(axis=0) - imgs.min(axis=0)))
    return max(extent or float(np.abs(imgs).max()), 1e-300)


def dense_boundary_violations(imgs, loops):
    """Reference: the boundary violations of injectivity_check from the dense
    L x L distance and crossing matrices of each loop and pair of loops."""
    violations = []
    scale = collision_scale(imgs)
    loop_segments = []
    for li, loop in enumerate(loops):
        pts = imgs[loop]
        d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
        np.fill_diagonal(d2, np.inf)
        for i, j in zip(*np.where(np.triu(d2 < (1e-12 * scale) ** 2, 1))):
            violations.append(("boundary_vertex_collision", li, int(i), int(j)))
        seg = np.stack([pts, np.roll(pts, -1, axis=0)], axis=1)
        loop_segments.append(seg)
        n = len(seg)
        cross = dense_segments_properly_intersect(seg, seg)
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
            cross = dense_segments_properly_intersect(loop_segments[li], loop_segments[lj])
            for i, j in zip(*np.where(cross)):
                violations.append(("boundary_loop_crossing", li, lj, int(i), int(j)))
    return violations


# Coordinates are multiples of 2**-18 below 8, so every orientation is exact
# and a crossing implies overlapping boxes; the small integers give collinear
# overlaps, shared endpoints and repeated vertices.
COORD = st.one_of(st.integers(-3, 3), st.integers(-(2**21), 2**21).map(lambda k: k / 2**18))


@st.composite
def closed_polylines(draw):
    """(images, loops): 1 to 3 loops of 3 to 10 vertices over shuffled image
    rows; some vertices copy an earlier one, some then move along one axis by
    about the collision distance 1e-12 * collision_scale."""
    sizes = draw(st.lists(st.integers(3, 10), min_size=1, max_size=3))
    n = sum(sizes)
    pts = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)), dtype=float)
    for k, source in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        if source < k and draw(st.booleans()):
            pts[k] = pts[source]
    scale = collision_scale(pts)
    for k in range(n):
        shift = draw(st.sampled_from([0.0, 0.0, 0.5, 0.999, 1.001, 2.0, -0.999, -1.001]))
        pts[k, draw(st.integers(0, 1))] += shift * 1e-12 * scale
    order = np.array(draw(st.permutations(range(n))))
    return pts, np.split(order, np.cumsum(sizes)[:-1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_polylines())
# a bowtie, two loops crossing, a collinear overlap and a touching pair, and
# collinear segments of two loops nearer than the collision distance that do
# not touch: their grown boxes overlap, their boxes do not
@example((np.array([[0, 0], [1, 1], [1, 0], [0, 1.0]]), [np.arange(4)]))
@example((np.array([[0, 0], [1, 0], [0, -1], [1 + 2**-40, 0], [3, 0], [2, 1.0]]),
          [np.arange(3), np.arange(3, 6)]))
@example((np.array([[0, 0], [2, 0], [2, 2], [1, 1], [3, 1], [3, 3.0]]), [np.arange(3), np.arange(3, 6)]))
@example((np.array([[0, 0], [2, 0], [1, 0], [3, 0], [3, 1.0]]), [np.arange(5)]))
@example((np.array([[0, 0], [2, 0], [2, 1], [4, 1], [4, 0], [6, 0], [6, 2.0]]), [np.arange(7)]))
def test_boundary_violations_match_dense_reference(polylines):
    imgs, loops = polylines
    got = analysis._boundary_violations(imgs, loops)
    assert got == dense_boundary_violations(imgs, loops)


def test_a_crossing_whose_orientation_product_underflows_is_reported():
    # the two loops' first segments cross at the origin with orientations of
    # about +-4e-171 each way, whose product underflows to -0.0
    imgs = np.array([(-1e-11, -1e-160), (1e-11, 1e-160), (1, 1),
                     (-1e-11, 1e-160), (1e-11, -1e-160), (-1, 1)])
    loops = [np.arange(3), np.arange(3, 6)]
    assert analysis._boundary_violations(imgs, loops) == [
        ("boundary_loop_crossing", 0, 1, 0, 0),
        ("boundary_loop_crossing", 0, 1, 0, 1),
        ("boundary_loop_crossing", 0, 1, 2, 1),
    ]
    assert analysis._segments_properly_intersect(imgs[[0]], imgs[[1]], imgs[[3]], imgs[[4]]).all()


def all_pairs_collisions(pts, scale):
    """Reference: the pairs i < j of the dense distance matrix closer than
    1e-12 * scale, in lexicographic order."""
    d2 = np.sum((pts[:, None, :] - pts[None, :, :]) ** 2, axis=-1)
    i, j = np.nonzero(np.triu(d2 < (1e-12 * scale) ** 2, 1))
    return list(zip(i.tolist(), j.tolist()))


@st.composite
def planted_stacks(draw):
    """(images, loops): 1 to 4 collinear stacks, along an axis or a diagonal,
    whose consecutive points lie 0, 0.5, 0.999, 1.001 or 2 units apart, each
    stack one loop in a drawn order over shuffled image rows. The scale is 1,
    1.75, 1e-140, 1e140 or 1e-170, and the first stack starts at a coordinate
    of that size. The unit is 1e-12 * collision_scale of the stacks' starts:
    where the starts are apart, the collision distance to a relative 5e-11;
    at the smallest scale its square underflows to 0. A lone stack, or
    stacks that start at one point, collide only where the gap is 0."""
    scale = draw(st.sampled_from([1.0, 1.75, 1e-140, 1e140, 1e-170]))
    count = draw(st.integers(1, 4))
    starts = scale * np.array(draw(st.lists(st.tuples(*[st.floats(-1.0, 1.0)] * 2),
                                            min_size=count, max_size=count)))
    starts[0, 0] = draw(st.sampled_from([-1.0, 1.0])) * scale
    unit = 1e-12 * collision_scale(starts)
    stacks = []
    for start in starts:
        direction = np.array(draw(st.sampled_from([(1.0, 0.0), (0.0, 1.0), (0.6, -0.8)])))
        gaps = draw(st.lists(st.sampled_from([0.0, 0.5, 0.999, 1.001, 2.0]), max_size=12))
        steps = np.concatenate([[0.0], np.cumsum(gaps)]) * unit
        stacks.append(start + steps[:, None] * direction)
    pts = np.concatenate(stacks)
    order = np.array(draw(st.permutations(range(len(pts)))))
    row = np.argsort(order)  # the image row of each point
    sizes = [len(stack) for stack in stacks]
    loops = [row[ids][np.array(draw(st.permutations(range(len(ids)))))]
             for ids in np.split(np.arange(len(pts)), np.cumsum(sizes)[:-1])]
    return pts[order], loops


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(planted_stacks())
def test_vertex_collisions_match_all_pairs(case):
    imgs, loops = case
    # at the scale 1e140 nothing overflows (a RuntimeWarning is an error):
    # the crossing test multiplies orientation signs, not orientations
    got = analysis._boundary_violations(imgs, loops)
    scale = collision_scale(imgs)
    for k, loop in enumerate(loops):
        collisions = [v[2:] for v in got if v[:2] == ("boundary_vertex_collision", k)]
        assert collisions == all_pairs_collisions(imgs[loop], scale)


def test_a_boundary_collapsed_to_one_point_collides(rect_mesh):
    # the image's extent is 0, so the collision distance comes from its
    # largest coordinate: every pair of boundary vertices collides
    nv = rect_mesh.num_vertices
    U = MappingField(ScalarField(rect_mesh, np.full(nv, 1e12)),
                     ScalarField(rect_mesh, np.full(nv, -3e11)))
    n = len(rect_mesh.loops[0])
    collisions = [v for v in injectivity_check(U).violations
                  if v[0] == "boundary_vertex_collision"]
    assert collisions == [("boundary_vertex_collision", 0, i, j)
                          for i in range(n) for j in range(i + 1, n)]


@pytest.mark.parametrize(
    "mesh_name, oracle",
    [("disk_mesh", holomorphic_oracle(2)), ("disk_mesh", holomorphic_oracle(3)),
     ("annulus_mesh", holomorphic_oracle(2)), ("annulus_mesh", meyers_solution(2.0))],
)
def test_injectivity_violations_match_dense_reference(request, mesh_name, oracle):
    mesh = request.getfixturevalue(mesh_name)
    U = mapping_field(oracle, mesh)
    res = injectivity_check(U)
    boundary = [v for v in res.violations if v[0] != "triangle_orientation"]
    assert boundary == dense_boundary_violations(U.values, mesh.loops)


@pytest.mark.parametrize("width, height", [(20.0, 0.02), (0.02, 20.0)])
def test_injectivity_memory_on_a_long_boundary(width, height):
    # 4004 boundary segments; the dense matrices peaked at 857 MB here
    mesh = generate_rectangle((0.0, 0.0), width, height, 0.01)
    assert len(mesh.loops[0]) == 4004
    U = mapping_field(identity_oracle(), mesh)
    tracemalloc.start()
    try:
        res = injectivity_check(U)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.injective
    assert peak < 50e6


@functools.cache
def scaling_cases():
    coarse = generate_disk((0.0, 0.0), 1.0, 0.25)
    return [
        mapping_field(holomorphic_oracle(2), coarse),  # 28 violations
        mapping_field(holomorphic_oracle(3), coarse_mesh("disk")),
        mapping_field(holomorphic_oracle(2), coarse_mesh("annulus")),
        mapping_field(meyers_solution(2.0), coarse_mesh("annulus")),
        mapping_field(identity_oracle(), coarse_mesh("rect")),
        folded_identity(coarse_mesh("disk")),
    ]


@settings(max_examples=120, deadline=None, derandomize=True, database=None)
@given(st.integers(0, 5), st.integers(-400, 400))
@example(0, -300)
@example(0, 400)
@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_injectivity_is_invariant_under_power_of_two_scaling(case, k):
    # at the old arithmetic, 2**-300 lost 16 of the coarse disk's 28 z^2
    # violations to underflow, and 2**400 overflowed the crossing products
    U = scaling_cases()[case]
    scaled = MappingField(ScalarField(U.mesh, np.ldexp(U.u1.values, k)),
                          ScalarField(U.mesh, np.ldexp(U.u2.values, k)))
    assert injectivity_check(scaled).violations == injectivity_check(U).violations


# ---------------------------------------------------------------------------
# unimodality


def test_unimodality_cos_theta():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    verdict = unimodality_check(np.cos(theta))
    assert verdict.unimodal and verdict.direction_changes == 2


def test_unimodality_cos_two_theta():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    verdict = unimodality_check(np.cos(2 * theta))
    assert not verdict.unimodal and verdict.direction_changes == 4


def test_unimodality_plateau():
    verdict = unimodality_check([0.0, 1.0, 1.0, 0.0])
    assert verdict.unimodal


def test_unimodality_constant_raises():
    with pytest.raises(DegenerateInputError):
        unimodality_check([2.0, 2.0, 2.0, 2.0])


def test_unimodality_invariances():
    rng = np.random.default_rng(5)
    theta = np.linspace(0, 2 * math.pi, 48, endpoint=False)
    vals = np.cos(theta + 0.7)
    base = unimodality_check(vals)
    added = unimodality_check(vals + 42.0)
    assert added.unimodal == base.unimodal
    noisy = unimodality_check(vals + rng.uniform(-1e-13, 1e-13, len(vals)), atol=1e-9)
    assert noisy.unimodal


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        st.lists(st.integers(-3, 3), min_size=3, max_size=40),
        st.builds(
            lambda n, k, phase: np.cos(k * np.linspace(0, 2 * math.pi, n, endpoint=False) + phase),
            st.integers(3, 64), st.integers(1, 3), st.floats(0, 2 * math.pi),
        ),
    ),
    st.integers(-100, 100),
)
@example(np.cos(np.linspace(0, 2 * math.pi, 48, endpoint=False) + 0.7), 7)
def test_unimodality_cyclic_shift_invariant(vals, shift):
    """A cyclic shift moves plateaus (equal runs, possibly wrapping around)
    but keeps the verdict, the direction changes and the plateau count."""
    vals = np.asarray(vals, dtype=float)
    try:
        base = unimodality_check(vals)
    except DegenerateInputError:
        with pytest.raises(DegenerateInputError):
            unimodality_check(np.roll(vals, shift))
        return
    rolled = unimodality_check(np.roll(vals, shift))
    assert rolled.unimodal == base.unimodal
    assert rolled.direction_changes == base.direction_changes
    assert rolled.group_count == base.group_count


def test_unimodality_arcs_locate_extremes():
    theta = np.linspace(0, 2 * math.pi, 64, endpoint=False)
    verdict = unimodality_check(np.cos(theta))
    assert verdict.fall_arc == (0, 32)  # max at index 0, min at index 32
    assert verdict.rise_arc == (32, 0)


def array_unimodality_check(values, atol=1e-12):
    """Reference: unimodality_check as it was, with numpy scalars in the
    plateau loop and np.roll, np.sign and np.argmax on the anchors."""
    vals = np.asarray(values, dtype=float)
    if vals.ndim != 1 or len(vals) < 3:
        raise DegenerateInputError("need a cyclic sequence of at least 3 values")
    if not np.isfinite(vals).all():
        raise DegenerateInputError("trace contains non-finite values")
    if np.ptp(vals) <= atol:
        raise DegenerateInputError("constant trace: unimodality is undefined")
    anchors, starts = [], []
    for i, v in enumerate(vals):
        if anchors and abs(v - anchors[-1]) <= atol:
            continue
        anchors.append(float(v))
        starts.append(i)
    while len(anchors) > 1 and abs(anchors[-1] - anchors[0]) <= atol:
        anchors.pop()
        starts.pop()
    if len(anchors) < 2:
        raise DegenerateInputError("constant trace after plateau compression")
    a = np.array(anchors)
    diffs = np.sign(np.roll(a, -1) - a)
    changes = int(np.sum(diffs != np.roll(diffs, 1)))
    imax, imin = int(np.argmax(a)), int(np.argmin(a))
    return UnimodalityVerdict(
        unimodal=changes == 2,
        rise_arc=(starts[imin], starts[imax]),
        fall_arc=(starts[imax], starts[imin]),
        direction_changes=changes,
        group_count=len(anchors),
    )


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(
    st.one_of(
        # small integers: plateaus, ties between extremes, constant runs
        st.lists(st.integers(-3, 3), min_size=0, max_size=30),
        st.lists(st.floats(-1e3, 1e3, allow_subnormal=True), min_size=0, max_size=30),
        st.builds(
            lambda n, k, noise, seed: np.cos(k * np.linspace(0, 2 * math.pi, n, endpoint=False))
            + noise * np.random.default_rng(seed).uniform(-1, 1, n),
            st.integers(3, 64), st.integers(1, 3), st.sampled_from([0.0, 1e-13, 1e-3]),
            st.integers(0, 2**16),
        ),
    ),
    st.sampled_from([0.0, 1e-12, 1e-9, 0.01, 0.5, 1.0, 2.5]),
)
@example([0.0, -0.0, 1.0, 1.0, 0.0], 0.0)
@example([1.0, float("inf"), 0.0], 1e-12)
@example([5.0, 5.0, 5.0], 0.0)
def test_unimodality_matches_array_reference(vals, atol):
    try:
        want = array_unimodality_check(vals, atol=atol)
    except DegenerateInputError as exc:
        with pytest.raises(DegenerateInputError) as got:
            unimodality_check(vals, atol=atol)
        assert str(got.value) == str(exc)
        return
    assert unimodality_check(vals, atol=atol) == want


# ---------------------------------------------------------------------------
# pullback subdomains


def located(mesh, z0):
    """The triangle and barycentric weights of a point inside the mesh, as
    Mesh.locate gives them."""
    tri, bary = mesh.locate(np.array([z0], dtype=float))
    assert tri[0] >= 0
    return int(tri[0]), bary[0]


def test_pullback_identity_disk(fine_disk_mesh):
    U = mapping_field(identity_oracle(), fine_disk_mesh)
    sub = pullback_subdomain(U, *located(fine_disk_mesh, (0.0, 0.0)), 0.5)
    area = float(fine_disk_mesh.areas[sub.parent_triangles].sum())
    assert abs(area - math.pi / 4) / (math.pi / 4) < 0.05
    assert len(sub.loops) == 1


def test_pullback_disk_escapes_image(fine_disk_mesh):
    U = mapping_field(identity_oracle(), fine_disk_mesh)
    with pytest.raises(DegenerateInputError):
        pullback_subdomain(U, *located(fine_disk_mesh, (0.0, 0.0)), 2.0)


def test_pullback_meyers(annulus_mesh):
    U = mapping_field(meyers_solution(2.0), annulus_mesh)
    t, bary = located(annulus_mesh, (0.6, 0.0))
    sub = pullback_subdomain(U, t, bary, 0.1)
    assert len(sub.parent_triangles) > 0
    w0 = np.array(sub.center_image)
    imgs = U.values[annulus_mesh.triangles[sub.parent_triangles].ravel()]
    assert (np.hypot(*(imgs - w0).T) <= 0.1 + 1e-12).all()
    assert t in sub.parent_triangles  # contains the probe point


def submesh_pullback_loops(U, t, bary, r):
    """Reference: the boundary loops of pullback_subdomain as it found them
    when it built a submesh Mesh of the kept triangles, in parent vertex ids."""
    if not r > 0:
        raise DegenerateInputError("pullback radius must be positive")
    mesh = U.mesh
    w0, gap = analysis._image_center(U, t, bary)
    if gap <= r:
        raise DegenerateInputError(
            f"target disk of radius {r} is not compactly contained in the image "
            f"(boundary image comes within {gap:.3e} of the center)"
        )
    dist = np.hypot(U.values[:, 0] - w0[0], U.values[:, 1] - w0[1])
    keep_tri = (dist <= r)[mesh.triangles].all(axis=1)
    if not keep_tri.any():
        raise DegenerateInputError(
            f"no triangle has all vertex images inside the radius-{r} disk"
        )
    keep_tri = _component_containing(mesh, keep_tri, t)
    tri_ids = np.where(keep_tri)[0]
    old_vertices = np.unique(mesh.triangles[tri_ids])
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[old_vertices] = np.arange(len(old_vertices))
    sub = Mesh(mesh.vertices[old_vertices], remap[mesh.triangles[tri_ids]], h=mesh.h)
    return [old_vertices[loop] for loop in sub.loops]


def pullback_loops(U, t, bary, r):
    return pullback_subdomain(U, t, bary, r).loops


def pullback_outcome(pullback, U, t, bary, r):
    """The loops as lists, or the type and message of the error raised."""
    try:
        return [loop.tolist() for loop in pullback(U, t, bary, r)]
    except (DegenerateInputError, MeshError) as exc:
        return type(exc), str(exc)


def sent_far(mesh, moved):
    """The identity with the images of the vertices in the mask moved far
    away: their fans leave every pullback, which then has holes, and where
    two fans meet at one vertex alone, a pinched boundary."""
    images = mesh.vertices + 100.0 * moved[:, None]
    return MappingField(ScalarField(mesh, images[:, 0]), ScalarField(mesh, images[:, 1]))


def punctured_identity(seed):
    """sent_far of a seeded 4% of the interior vertices."""

    def make(mesh):
        moved = np.zeros(mesh.num_vertices, dtype=bool)
        inner = mesh.interior_vertices
        moved[inner] = np.random.default_rng(seed).random(len(inner)) < 0.04
        return sent_far(mesh, moved)

    return make


#: maps for every mesh; meyers:alpha=0.5, singular at the origin (a vertex of
#: the disk and of the square), is added on the annulus only
PULLBACK_MAPS = st.one_of(
    st.sampled_from([identity_oracle(), meyers_solution(2.0), holomorphic_oracle(2),
                     holomorphic_oracle(3)]).map(lambda oracle: lambda mesh: mapping_field(oracle, mesh)),
    st.integers(0, 2**16).map(punctured_identity),
)


@st.composite
def pullback_cases(draw):
    """(map, t, bary, r): a located probe, that is a drawn triangle and
    positive barycentric weights, and r a fraction of the gap from the probe's image to
    the boundary image, as the probes of lewy_verify choose it; past 1 the
    target disk is refused."""
    name = draw(st.sampled_from(["disk", "annulus", "rect"]))
    mesh = coarse_mesh(name)
    maps = PULLBACK_MAPS
    if name == "annulus":
        maps = st.one_of(maps, st.just(lambda mesh: mapping_field(meyers_solution(0.5), mesh)))
    U = draw(maps)(mesh)
    t = draw(st.integers(0, mesh.num_triangles - 1))
    w = np.array(draw(st.tuples(*[st.floats(0.01, 1.0)] * 3)))
    bary = w / w.sum()
    fraction = draw(st.floats(0.05, 1.1))
    return U, t, bary, fraction * analysis._image_center(U, t, bary)[1]


@settings(max_examples=400, deadline=None, derandomize=True, database=None)
@given(pullback_cases())
def test_pullback_loops_match_submesh_reference(case):
    got = pullback_outcome(pullback_loops, *case)
    assert got == pullback_outcome(submesh_pullback_loops, *case)


def test_pullback_pinch_raises_like_the_submesh_reference():
    # the fans of v1 = (0.25, 0) and v2 = (0.75, 0) leave the disk; the kept
    # triangles then meet at w = (0.5, 0) alone, which pinches their boundary
    mesh = generate_rectangle((-2.0, -2.0), 4.0, 4.0, 0.25)
    x, y = mesh.vertices.T
    U = sent_far(mesh, (y == 0.0) & ((x == 0.25) | (x == 0.75)))
    probe = located(mesh, (-0.4, 0.1))
    got = pullback_outcome(pullback_loops, U, *probe, 1.5)
    assert got == (MeshError, "boundary is not a disjoint union of simple loops")
    assert got == pullback_outcome(submesh_pullback_loops, U, *probe, 1.5)


def flood_fill_component(mesh, keep_tri, seed_tri):
    """Reference: the kept triangles reached from seed_tri across shared edges."""
    edge_tris = {}
    for t in np.flatnonzero(keep_tri):
        a, b, c = mesh.triangles[t].tolist()
        for u, v in ((a, b), (b, c), (c, a)):
            edge_tris.setdefault((min(u, v), max(u, v)), []).append(int(t))
    adj = {}
    for tris in edge_tris.values():
        if len(tris) == 2:
            adj.setdefault(tris[0], []).append(tris[1])
            adj.setdefault(tris[1], []).append(tris[0])
    component = np.zeros_like(keep_tri)
    component[seed_tri] = True
    stack = [seed_tri]
    while stack:
        for s in adj.get(stack.pop(), ()):
            if not component[s]:
                component[s] = True
                stack.append(s)
    return component


@pytest.mark.parametrize(
    "oracle, z0, r, several",
    [
        (meyers_solution(2.0), (0.6, 0.0), 0.1, False),
        (meyers_solution(2.0), (-0.3, 0.5), 0.25, False),
        (holomorphic_oracle(2), (0.6, 0.1), 0.12, True),
        (holomorphic_oracle(2), (0.6, 0.1), 0.3, True),
        (holomorphic_oracle(2), (0.5, -0.4), 0.6, False),
    ],
)
def test_component_containing_matches_flood_fill(annulus_mesh, oracle, z0, r, several):
    U = mapping_field(oracle, annulus_mesh)
    tri, bary = annulus_mesh.locate(np.array([z0]))
    w0 = U.values[annulus_mesh.triangles[tri[0]]].T @ bary[0]
    keep = (np.hypot(*(U.values - w0).T) <= r)[annulus_mesh.triangles].all(axis=1)
    got = _component_containing(annulus_mesh, keep, int(tri[0]))
    ref = flood_fill_component(annulus_mesh, keep, int(tri[0]))
    assert got.dtype == bool
    assert np.array_equal(got, ref)
    # z -> z^2 pulls a small disk back to two pieces, around z0 and -z0
    assert (ref.sum() < keep.sum()) == several


# ---------------------------------------------------------------------------
# lewy_verify


@pytest.mark.parametrize(
    "name, margin",
    [("disk", 0.1), ("disk", 0.5), ("annulus", 0.05), ("rect", 0.0), ("rect", 0.7)],
)
def test_probe_points_are_located_and_deeper_than_margin_and_2h(name, margin):
    # pullback_subdomain takes these points as located and well inside: the
    # disk's lattice corners lie outside it, the annulus's centre in its hole,
    # 2h alone drops the square's outer ring at margin 0, and margin 0.7
    # leaves the square one point
    mesh = coarse_mesh(name)
    pts, tri, bary = analysis.default_probe_points(mesh, margin)
    depth = max(margin, 2.0 * mesh.h)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    ticks = np.linspace(0.1, 0.9, 5)
    lattice = [lo + np.array([x, y]) * (hi - lo) for y in ticks for x in ticks]
    deep = [z for z in lattice
            if mesh.locate(z[None, :])[0][0] >= 0 and mesh.boundary_distance(z[None, :])[0] > depth]
    # the first deep lattice points, nearest the box centre first
    assert len(pts) == min(5, len(deep))
    assert all(any(np.allclose(p, z, rtol=0, atol=1e-12) for z in deep) for p in pts)
    centre = 0.5 * (lo + hi)
    dist = np.hypot(*(pts - centre).T)
    assert (np.diff(dist) >= -1e-12).all()
    left = [z for z in deep if not np.isclose(np.hypot(*(pts - z).T), 0, atol=1e-12).any()]
    assert all(np.hypot(*(z - centre)) >= dist.max() - 1e-12 for z in left)
    assert (tri >= 0).all() and (mesh.boundary_distance(pts) > depth).all()
    loc_tri, loc_bary = mesh.locate(pts)
    assert np.array_equal(tri, loc_tri) and np.array_equal(bary, loc_bary)
    assert np.allclose(bary @ np.ones(3), 1.0)
    # the weights give the points back from their triangles' corners
    corners = mesh.vertices[mesh.triangles[tri]]
    assert np.allclose(np.einsum("pk,pkd->pd", bary, corners), pts, atol=1e-12)


def test_probe_points_refuse_a_margin_past_every_lattice_point():
    with pytest.raises(DegenerateInputError, match="no lattice probe point"):
        analysis.default_probe_points(coarse_mesh("disk"), 1.0)


def test_lewy_identity(fine_disk_mesh):
    U = mapping_field(identity_oracle(), fine_disk_mesh)
    report = lewy_verify(U, directions=8, margin=0.1)
    assert report.passed
    assert report.min_abs_det == pytest.approx(1.0, abs=1e-12)
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in report.min_abs_grad)
    assert all(p["unimodal_all_directions"] for p in report.probes if p["resolved"])


def test_lewy_meyers_inset_bound(annulus_mesh):
    sigma = meyers_sigma(2.0)
    sol = meyers_solution(2.0)
    (u1, u2), _ = solve_dirichlet(annulus_mesh, samples(annulus_mesh, sigma), sol.value)
    report = lewy_verify(MappingField(u1, u2), directions=8, margin=0.05)
    assert report.passed
    # analytic det at the inner inset radius 0.25 is 2 * 0.0625, minus 10% slack
    assert report.min_abs_det >= 0.1125


def test_lewy_rejects_non_injective(disk_mesh):
    sigma = identity_field()
    sol = holomorphic_oracle(2)
    (u1, u2), _ = solve_dirichlet(disk_mesh, samples(disk_mesh, sigma), sol.value)
    with pytest.raises(NotInjectiveError):
        lewy_verify(MappingField(u1, u2), directions=4, margin=0.1)


def test_lewy_direction_sign_invariance(fine_disk_mesh):
    sigma = holder_bump_field(0.3, 0.2, 0.0, 0.5, 0.4)
    (u1, u2), _ = solve_dirichlet(
        fine_disk_mesh, samples(fine_disk_mesh, sigma), lambda x, y: np.array([x, y])
    )
    U = MappingField(u1, u2)
    g1 = ScalarField(fine_disk_mesh, 1.0 * u1.values + 0.0 * u2.values).values
    g2 = ScalarField(fine_disk_mesh, -1.0 * u1.values + 0.0 * u2.values).values
    assert np.allclose(np.abs(g1), np.abs(g2))
    report = lewy_verify(U, directions=4, margin=0.1)
    assert report.passed


def test_lewy_computes_each_quantity_once(fine_disk_mesh, monkeypatch):
    # gradients of u1 and u2 once each; locate once, for the probe lattice,
    # whose triangles and weights each pullback_subdomain attempt takes (one
    # attempt per probe here); no Mesh is built, since a pullback is its
    # parent's triangles and loops
    sigma = field_from_descriptor("randholder:seed=2024")
    (u1, u2), _ = solve_dirichlet(
        fine_disk_mesh, samples(fine_disk_mesh, sigma), identity_oracle().value
    )
    counts = collections.Counter()

    def counted(owner, name):
        inner = getattr(owner, name)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            return inner(*args, **kwargs)

        monkeypatch.setattr(owner, name, wrapper)

    counted(analysis, "gradient_field")
    counted(analysis, "pullback_subdomain")
    counted(Mesh, "locate")
    counted(Mesh, "__init__")
    report = lewy_verify(MappingField(u1, u2), directions=8, margin=0.1)
    assert report.passed and len(report.probes) == 5
    assert counts == {"gradient_field": 2, "pullback_subdomain": 5, "locate": 1}
    assert counts["__init__"] == 0


def test_lewy_logs_retries_and_unresolved_probes(disk_mesh, monkeypatch, caplog):
    # the first pullback fails once; at h = 0.1 two probes stay unresolved
    U = mapping_field(identity_oracle(), disk_mesh)
    inner = analysis.pullback_subdomain
    calls = []

    def fails_once(*args):
        calls.append(args[3])
        if len(calls) == 1:
            raise MeshError("boundary is not a disjoint union of simple loops")
        return inner(*args)

    monkeypatch.setattr(analysis, "pullback_subdomain", fails_once)
    with caplog.at_level(logging.DEBUG, logger="sigmalab"):
        report = lewy_verify(U, directions=4, margin=0.1)
    records = [r for r in caplog.records if r.name == "sigmalab.analysis"]
    assert all(r.levelno == logging.DEBUG for r in records)
    messages = [r.getMessage() for r in records]
    first = report.probes[0]
    assert messages[0] == (
        f"probe {tuple(first['z0'])}: pullback radius {calls[0]!r} -> {calls[1]!r} "
        "after MeshError: boundary is not a disjoint union of simple loops"
    )
    assert calls[1] == first["radius"] == calls[0] * 0.9
    unresolved = [p for p in report.probes if not p["resolved"]]
    assert len(unresolved) == 2
    assert messages[1:] == [
        f"probe {tuple(p['z0'])} unresolved: tolerance {p['tolerance']!r}, "
        f"radius {p['radius']!r}, trace length {p['trace_length']}"
        for p in unresolved
    ]


def test_lewy_raises_after_six_pullback_attempts(disk_mesh, monkeypatch, caplog):
    # every pullback fails: the first probe tries radii r0 * 0.9^k for
    # k = 0..5, logs the first five failures and lets the sixth propagate
    U = mapping_field(identity_oracle(), disk_mesh)
    calls = []

    def always_fails(*args):
        calls.append(args[3])
        raise MeshError(f"pinched at radius {args[3]!r}")

    monkeypatch.setattr(analysis, "pullback_subdomain", always_fails)
    with caplog.at_level(logging.DEBUG, logger="sigmalab"):
        with pytest.raises(MeshError, match="pinched at radius") as info:
            lewy_verify(U, directions=4, margin=0.1)
    z0, t, bary = (a[0] for a in analysis.default_probe_points(disk_mesh, 0.1))
    r0 = 0.7 * analysis._image_center(U, t, bary)[1]
    assert calls == pytest.approx([r0 * 0.9**k for k in range(6)], rel=1e-14)
    assert str(info.value) == f"pinched at radius {calls[5]!r}"
    messages = [r.getMessage() for r in caplog.records if r.name == "sigmalab.analysis"]
    assert messages == [
        f"probe {tuple(z0.tolist())}: pullback radius {calls[k]!r} -> {calls[k + 1]!r} "
        f"after MeshError: pinched at radius {calls[k]!r}"
        for k in range(5)
    ]


# ---------------------------------------------------------------------------
# Floater's premise: a discrete Rado-Kneser-Choquet theorem


@functools.cache
def hexagonal_patch(n, h):
    """The hexagon of side n of the equilateral lattice of spacing h, centred
    at the origin: 3n(n + 1) + 1 vertices and 6n^2 triangles."""
    axial = [(q, r) for r in range(-n, n + 1) for q in range(-n, n + 1) if abs(q + r) <= n]
    index = {p: k for k, p in enumerate(axial)}
    q, r = np.array(axial, dtype=float).T
    vertices = h * np.column_stack([q + 0.5 * r, 0.5 * math.sqrt(3.0) * r])
    # each lattice cell holds an upward and a downward triangle, counterclockwise
    triangles = [
        [index[p] for p in tri]
        for a, b in itertools.product(range(-n - 1, n + 1), repeat=2)
        for tri in (((a, b), (a + 1, b), (a, b + 1)), ((a + 1, b), (a + 1, b + 1), (a, b + 1)))
        if all(p in index for p in tri)
    ]
    return Mesh(vertices, np.array(triangles), h)


def positive_interior_off_diagonals(mesh, S):
    """How many off-diagonal entries of the interior rows of the stiffness
    matrix are positive."""
    A = assemble_stiffness(mesh, S)[mesh.interior_vertices].tocoo()
    off = mesh.interior_vertices[A.row] != A.col
    return int(np.sum(A.data[off] > 0))


def moved_patch(n, angle, jitter, seed):
    """hexagonal_patch(n, 1 / n), a hexagon of side 1, with each interior
    vertex moved by up to jitter / n along each axis (seeded), then rotated
    by angle about the origin. The boundary stays a convex hexagon."""
    mesh = hexagonal_patch(n, 1.0 / n)
    v = mesh.vertices.copy()
    inner = mesh.interior_vertices
    v[inner] += jitter / n * np.random.default_rng(seed).uniform(-1.0, 1.0, (len(inner), 2))
    c, s = math.cos(angle), math.sin(angle)
    return Mesh(np.column_stack([c * v[:, 0] - s * v[:, 1], s * v[:, 0] + c * v[:, 1]]),
                mesh.triangles, mesh.h)


def assert_floater_conclusions(n, angle, jitter, seed, kind, field_seed, g):
    """Floater (Math. Comp. 72, 2003): if every interior vertex is a convex
    combination of its neighbours, that is no interior off-diagonal is
    positive (the rows sum to zero), and the boundary goes one-to-one onto a
    convex polygon, the P1 map is one-to-one and keeps every orientation.
    The map is the P1 solution with boundary data g on moved_patch(n, angle,
    jitter, seed) for the field kind (seeded by field_seed); the premise is
    taken by assume, and the four conclusions are asserted with no tolerance. The
    hexagon is a polygon loop: lewy_verify runs point location, boundary
    crossings and polygon distances, all three box_pairs queries."""
    mesh = moved_patch(n, angle, jitter, seed)
    descriptor = kind if kind == "identity" else f"{kind}:seed={field_seed}"
    S = samples(mesh, field_from_descriptor(descriptor))
    assume(positive_interior_off_diagonals(mesh, S) == 0)
    (u1, u2), _ = solve_dirichlet(mesh, S, g)
    U = MappingField(u1, u2)
    assert (jacobian_field(U) > 0).all()
    assert injectivity_check(U).injective
    report = lewy_verify(U, directions=8, margin=0.1)
    assert report.passed and report.injective and report.min_abs_det > 0


#: a Floater draw: patch size, rotation, jitter and its seed, field and its seed
FLOATER_DRAW = (
    st.integers(3, 12), st.floats(0.0, 2.0 * math.pi), st.floats(0.0, 0.25),
    st.integers(0, 2**32 - 1),
    st.sampled_from(["identity", "randholder", "randnonsym"]), st.integers(0, 1000),
)


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(*FLOATER_DRAW)
@example(20, 0.0, 0.0, 0, "identity", 0)
@example(20, 0.0, 0.0, 0, "randholder", 3)
@example(20, 0.0, 0.0, 0, "randnonsym", 3)
@example(20, 0.0, 0.0, 0, "randnonsym", 8)
def test_floater_premise_gives_an_injective_map(n, angle, jitter, seed, kind, field_seed):
    assert_floater_conclusions(n, angle, jitter, seed, kind, field_seed,
                               lambda x, y: np.array([x, y]))


def circle_data(a, j):
    """Boundary data moving the point at angle t to the unit-circle point at
    angle t + a sin(j t): monotone in t when |a| j < 1, so the boundary goes
    one-to-one, in order, onto a polygon inscribed in the circle."""
    def g(x, y):
        t = np.arctan2(y, x)
        t = t + a * np.sin(j * t)
        return np.array([np.cos(t), np.sin(t)])
    return g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(*FLOATER_DRAW, st.integers(1, 6), st.floats(-0.9, 0.9))
@example(20, 0.0, 0.0, 0, "randnonsym", 3, 3, 0.9)
@example(3, 0.0, 0.0, 0, "randholder", 1, 1, -0.97)
def test_floater_premise_with_data_along_the_circle(n, angle, jitter, seed, kind, field_seed,
                                                     j, aj):
    # the Floater draw above with boundary data other than the identity: the
    # boundary vertices slide monotonically along the unit circle, a j = aj.
    # Near |a| j = 1 the data crowd the boundary images, and on the coarsest
    # patches a probe's pullback disk can then be smaller than its triangle's
    # image, a resolution limit outside the premise: lewy_verify reports that
    # probe unresolved (the second example). The draw keeps |a| j at most 0.9
    assert_floater_conclusions(n, angle, jitter, seed, kind, field_seed, circle_data(aj / j, j))


#: the square [-1, 1]^2 as a closed path of corners, counterclockwise, with
#: the arc length at each corner
_SQUARE = np.array([[1.0, -1.0], [1.0, 1.0], [-1.0, 1.0], [-1.0, -1.0], [1.0, -1.0]])
_SQUARE_ARC = np.arange(0.0, 9.0, 2.0)


def square_data(phase):
    """Boundary data moving the point at angle t to the point at arc length
    4 (t + phase) / pi along the boundary of the square [-1, 1]^2: monotone
    in t, so the boundary goes one-to-one, in order, onto a convex polygon
    whose vertices lie on the square's sides, in general on no one circle."""
    def g(x, y):
        s = np.mod(4.0 / math.pi * (np.arctan2(y, x) + phase), 8.0)
        return np.array([np.interp(s, _SQUARE_ARC, _SQUARE[:, 0]),
                         np.interp(s, _SQUARE_ARC, _SQUARE[:, 1])])
    return g


@settings(max_examples=100, deadline=None, derandomize=True, database=None)
@given(*FLOATER_DRAW, st.floats(0.0, 2.0 * math.pi))
@example(20, 0.0, 0.0, 0, "randnonsym", 3, 0.0)
def test_floater_premise_with_data_onto_a_square(n, angle, jitter, seed, kind, field_seed,
                                                 phase):
    # the Floater draw above with the boundary going onto a convex polygon
    # that is not inscribed in a circle; the images of a side's vertices are
    # collinear, which the premise allows
    assert_floater_conclusions(n, angle, jitter, seed, kind, field_seed, square_data(phase))


def test_the_side_20_patch_is_1261_vertices_and_meets_the_floater_premise():
    mesh = hexagonal_patch(20, 0.05)
    assert (mesh.num_vertices, mesh.num_triangles) == (1261, 2400)
    assert moved_patch(20, 0.0, 0.0, 0).vertices.tolist() == mesh.vertices.tolist()
    # the explicit examples above would be skipped, not failed, by assume
    for descriptor in ("identity", "randholder:seed=3", "randnonsym:seed=3", "randnonsym:seed=8"):
        assert positive_interior_off_diagonals(mesh, samples(mesh, field_from_descriptor(descriptor))) == 0


def test_anisotropy_breaks_floater_premise():
    # the premise is sufficient, not necessary: this map is one-to-one too
    mesh = hexagonal_patch(20, 0.05)
    S = samples(mesh, field_from_descriptor("aniso:l1=2,l2=0.5,theta=0.3"))
    assert positive_interior_off_diagonals(mesh, S) == 2282


# ---------------------------------------------------------------------------
# critical point candidates


def test_critical_points_affine_empty(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    assert critical_point_candidates(u, 0.5) == []


def test_critical_points_saddle_clusters_at_origin(fine_disk_mesh):
    m = fine_disk_mesh
    u = solve(m, identity_field(), lambda x, y: x * x - y * y)
    cands = critical_point_candidates(u, 0.05)
    assert cands
    for t, norm in cands:
        c = m.centroids[t]
        assert math.hypot(c[0], c[1]) <= 2 * m.h
    norms = [n for _, n in cands]
    assert norms == sorted(norms)


def test_critical_points_unimodal_data_none(fine_disk_mesh):
    sigma = holder_bump_field(0.4, -0.1, 0.2, 0.5, 1.1)
    u = solve(fine_disk_mesh, sigma, lambda x, y: x / np.hypot(x, y))
    assert critical_point_candidates(u, 0.05) == []


def test_directional_gradient_minimum_stable_under_refinement(disk_mesh):
    # unimodal data on a convex image: inset gradient minima must not decay
    sigma = holder_bump_field(0.35, 0.15, -0.1, 0.5, 0.9)
    sol = identity_oracle()
    minima = []
    m = disk_mesh
    for _ in range(2):
        (u1, u2), _ = solve_dirichlet(m, samples(m, sigma), sol.value)
        inset = m.boundary_distance(m.centroids) >= 0.1
        level = []
        for k in range(4):
            theta = math.pi * k / 4
            c, s = math.cos(theta), math.sin(theta)
            g = gradient_field(ScalarField(m, c * u1.values + s * u2.values))
            level.append(float(np.hypot(g[:, 0], g[:, 1])[inset].min()))
        minima.append(level)
        m = refine(m)
    for coarse, fine in zip(*minima):
        assert fine >= 0.9 * coarse


# ---------------------------------------------------------------------------
# value objects that hold arrays compare and hash by identity


def _identity_twins():
    mesh = generate_disk((0.0, 0.0), 1.0, 0.3)
    u = nodal(mesh, lambda x, y: x)
    v = nodal(mesh, lambda x, y: y)
    grid = fd.rectangle_grid((0.0, 0.0), 1.0, 1.0, 0.25)
    return {
        # twins from the unmemoized builder: a repeated call returns one grid
        "GridDomain": lambda: fd.rectangle_grid.__wrapped__((0.0, 0.0), 1.0, 1.0, 0.25),
        "GridField": lambda: fd.GridField(grid, np.zeros((grid.ny, grid.nx))),
        "ScalarField": lambda: nodal(mesh, lambda x, y: x),
        "PullbackSubdomain": lambda: pullback_subdomain(
            MappingField(u, v), *located(mesh, (0.0, 0.0)), 0.5),
    }


@pytest.mark.parametrize(
    "name",
    ["GridDomain", "GridField", "ScalarField", "PullbackSubdomain"],
)
def test_array_holders_compare_and_hash_by_identity(name):
    make = _identity_twins()[name]
    a, b = make(), make()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert hash(a) == hash(a) and len({a, b}) == 2
