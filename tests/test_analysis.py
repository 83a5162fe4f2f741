import collections
import functools
import logging
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy import sparse

from sigmalab import (
    DegenerateInputError,
    MappingField,
    Mesh,
    MeshError,
    NotInjectiveError,
    ScalarField,
    UnimodalityVerdict,
    analysis,
    beltrami_residual,
    complex_derivatives,
    critical_point_candidates,
    energy,
    generate_annulus,
    generate_disk,
    generate_rectangle,
    gradient_field,
    injectivity_check,
    jacobian_field,
    lewy_verify,
    pullback_subdomain,
    quasiconformal_defect,
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
)
from sigmalab.analysis import _component_containing
from sigmalab.oracles import holomorphic_oracle, identity_oracle, meyers_solution


def solve(mesh, sigma, g):
    (u,), _ = solve_dirichlet(mesh, sigma, g)
    return u


def nodal(mesh, f):
    return ScalarField(mesh, np.array([f(x, y) for x, y in mesh.vertices]))


@functools.cache
def coarse_mesh(name):
    """Small meshes for the properties, built once: the unit disk, an annulus
    and the square [-1, 1]^2."""
    return {
        "disk": lambda: generate_disk((0.0, 0.0), 1.0, 0.1),
        "annulus": lambda: generate_annulus((0.0, 0.0), 0.2, 1.0, 0.1),
        "rect": lambda: generate_rectangle((-1.0, -1.0), 2.0, 2.0, 0.125),
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
    w = np.einsum("ab,tbc,tc->ta", ROTATION, S, gradient_field(u).vectors)
    normal = Dx.T @ W @ (Dx @ v.values - w[:, 0]) + Dy.T @ W @ (Dy @ v.values - w[:, 1])
    load = Dx.T @ W @ w[:, 0] + Dy.T @ W @ w[:, 1]
    assert np.abs(normal[1:]).max() <= 1e-10 * np.abs(load).max()


def test_energy_is_the_centroid_sum(fine_disk_mesh):
    m = fine_disk_mesh
    sigma = field_from_descriptor("randnonsym:seed=3")
    u = solve(m, sigma, lambda x, y: x)
    S = sigma.at_points(m.centroids)
    g = gradient_field(u).vectors
    centroid_sum = np.sum(m.areas * np.einsum("tab,tb,ta->t", S, g, g))
    assert energy(u, sigma) == pytest.approx(centroid_sum, rel=1e-12)


# ---------------------------------------------------------------------------
# complex derivatives and Beltrami residual


def test_complex_derivatives_identity_and_conjugate(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v = nodal(disk_mesh, lambda x, y: y)
    cd = complex_derivatives(u, v)
    assert np.allclose(cd.fz, 1.0, atol=1e-12)
    assert np.allclose(cd.fzbar, 0.0, atol=1e-12)
    cd = complex_derivatives(u, nodal(disk_mesh, lambda x, y: -y))
    assert np.allclose(cd.fz, 0.0, atol=1e-12)
    assert np.allclose(cd.fzbar, 1.0, atol=1e-12)


def test_complex_derivatives_z_squared(fine_disk_mesh):
    m = fine_disk_mesh
    u = nodal(m, lambda x, y: x * x - y * y)
    v = nodal(m, lambda x, y: 2 * x * y)
    cd = complex_derivatives(u, v)
    zc = m.centroids[:, 0] + 1j * m.centroids[:, 1]
    assert np.abs(cd.fz - 2 * zc).max() <= m.h
    assert np.abs(cd.fzbar).max() <= m.h


def test_complex_derivatives_mesh_mismatch(disk_mesh, fine_disk_mesh):
    with pytest.raises(MeshError):
        complex_derivatives(
            nodal(disk_mesh, lambda x, y: x), nodal(fine_disk_mesh, lambda x, y: y)
        )


def test_beltrami_residual_exact_holomorphic(disk_mesh):
    u = nodal(disk_mesh, lambda x, y: x)
    v = nodal(disk_mesh, lambda x, y: y)
    assert beltrami_residual(complex_derivatives(u, v), identity_field()) <= 1e-12


def test_beltrami_residual_constant_f_raises(disk_mesh):
    c = nodal(disk_mesh, lambda x, y: 1.0)
    with pytest.raises(DegenerateInputError):
        beltrami_residual(complex_derivatives(c, c), identity_field())


def test_beltrami_residual_z2_pipeline_converges(disk_mesh):
    sigma = identity_field()
    res = []
    m = disk_mesh  # h = 0.1, then 0.05
    for _ in range(2):
        u = solve(m, sigma, lambda x, y: x * x - y * y)
        v, _ = stream_function(u, sigma)
        res.append(beltrami_residual(complex_derivatives(u, v), sigma))
        m = refine(m)
    assert res[0] <= 0.05
    assert res[1] <= res[0] / 1.8


# ---------------------------------------------------------------------------
# quasiconformal defect


def test_qc_defect_identity(disk_mesh):
    cd = complex_derivatives(
        nodal(disk_mesh, lambda x, y: x), nodal(disk_mesh, lambda x, y: y)
    )
    d = quasiconformal_defect(cd, margin=0.1)
    assert d.sup_ratio == pytest.approx(0.0, abs=1e-12)
    assert d.min_jacobian_f == pytest.approx(1.0, abs=1e-12)
    assert not d.near_degenerate


def test_qc_defect_z2_near_origin(fine_disk_mesh):
    m = fine_disk_mesh
    cd = complex_derivatives(
        nodal(m, lambda x, y: x * x - y * y), nodal(m, lambda x, y: 2 * x * y)
    )
    d = quasiconformal_defect(cd, margin=0.1)
    # |fz|^2 = 4|z|^2 at centroids; the smallest lives next to the origin
    r2 = np.sum(m.centroids**2, axis=1)
    expected = float(4 * r2.min())
    assert d.min_jacobian_f > 0
    assert d.min_jacobian_f == pytest.approx(expected, rel=0.5)
    assert d.near_degenerate == (d.min_jacobian_f < 1e-3)


def test_qc_defect_empty_inset(disk_mesh):
    cd = complex_derivatives(
        nodal(disk_mesh, lambda x, y: x), nodal(disk_mesh, lambda x, y: y)
    )
    with pytest.raises(DegenerateInputError):
        quasiconformal_defect(cd, margin=10.0)


def test_qc_defect_meyers_lower_bound(annulus_mesh):
    # analytic |fz|^2 - |fzbar|^2 = det DU = 2|x|^2; margin 0.1 insets to |x| = 0.3
    sigma = meyers_sigma(2.0)
    sol = meyers_solution(2.0)
    u1 = solve(annulus_mesh, sigma, lambda x, y: sol.value(x, y)[0])
    v, _ = stream_function(u1, sigma, allow_multiply_connected=True)
    d = quasiconformal_defect(complex_derivatives(u1, v), margin=0.1)
    assert d.min_jacobian_f >= 2 * 0.3**2 * 0.8  # analytic value minus 20% slack


# ---------------------------------------------------------------------------
# jacobian and injectivity


def test_jacobian_identity_map(disk_mesh):
    U = identity_oracle().mapping_field(disk_mesh)
    assert np.allclose(jacobian_field(U), 1.0, atol=1e-12)


def test_jacobian_meyers_matches_formula(annulus_mesh):
    U = meyers_solution(2.0).mapping_field(annulus_mesh)
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
    cd = complex_derivatives(u, v)
    lhs = jacobian_field(U)
    rhs = np.abs(cd.fz) ** 2 - np.abs(cd.fzbar) ** 2
    assert np.abs(lhs - rhs).max() <= 1e-10


def test_injectivity_identity(disk_mesh):
    res = injectivity_check(identity_oracle().mapping_field(disk_mesh))
    assert res.injective and not res.violations
    assert res.injective is True and res.violations == []


def test_injectivity_z2_double_cover(disk_mesh):
    res = injectivity_check(holomorphic_oracle(2).mapping_field(disk_mesh))
    assert not res.injective
    kinds = {v[0] for v in res.violations}
    assert kinds & {"boundary_self_intersection", "boundary_vertex_collision"}


def test_injectivity_meyers(annulus_mesh):
    res = injectivity_check(meyers_solution(2.0).mapping_field(annulus_mesh))
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


def dense_boundary_violations(imgs, loops):
    """Reference: the boundary violations of injectivity_check from the dense
    L x L distance and crossing matrices of each loop and pair of loops."""
    violations = []
    scale = max(float(np.abs(imgs).max()), 1e-300)
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
    about the collision distance 1e-12 * scale."""
    sizes = draw(st.lists(st.integers(3, 10), min_size=1, max_size=3))
    n = sum(sizes)
    pts = np.array(draw(st.lists(st.tuples(COORD, COORD), min_size=n, max_size=n)), dtype=float)
    for k, source in enumerate(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n))):
        if source < k and draw(st.booleans()):
            pts[k] = pts[source]
    scale = max(float(np.abs(pts).max()), 1e-300)
    for k in range(n):
        shift = draw(st.sampled_from([0.0, 0.0, 0.5, 0.999, 1.001, 2.0, -0.999, -1.001]))
        pts[k, draw(st.integers(0, 1))] += shift * 1e-12 * scale
    order = np.array(draw(st.permutations(range(n))))
    return pts, np.split(order, np.cumsum(sizes)[:-1])


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(closed_polylines())
# a bowtie, two loops crossing, a collinear overlap and a touching pair
@example((np.array([[0, 0], [1, 1], [1, 0], [0, 1.0]]), [np.arange(4)]))
@example((np.array([[0, 0], [2, 0], [2, 2], [1, 1], [3, 1], [3, 3.0]]), [np.arange(3), np.arange(3, 6)]))
@example((np.array([[0, 0], [2, 0], [1, 0], [3, 0], [3, 1.0]]), [np.arange(5)]))
@example((np.array([[0, 0], [2, 0], [2, 1], [4, 1], [4, 0], [6, 0], [6, 2.0]]), [np.arange(7)]))
def test_boundary_violations_match_dense_reference(polylines):
    imgs, loops = polylines
    got = analysis._boundary_violations(imgs, loops)
    assert got == dense_boundary_violations(imgs, loops)


@pytest.mark.parametrize(
    "mesh_name, oracle",
    [("disk_mesh", holomorphic_oracle(2)), ("disk_mesh", holomorphic_oracle(3)),
     ("annulus_mesh", holomorphic_oracle(2)), ("annulus_mesh", meyers_solution(2.0))],
)
def test_injectivity_violations_match_dense_reference(request, mesh_name, oracle):
    mesh = request.getfixturevalue(mesh_name)
    U = oracle.mapping_field(mesh)
    res = injectivity_check(U)
    boundary = [v for v in res.violations if v[0] != "triangle_orientation"]
    assert boundary == dense_boundary_violations(U.values, mesh.loops)


@pytest.mark.parametrize("width, height", [(20.0, 0.02), (0.02, 20.0)])
def test_injectivity_memory_on_a_long_boundary(width, height):
    # 4004 boundary segments; the dense matrices peaked at 857 MB here
    mesh = generate_rectangle((0.0, 0.0), width, height, 0.01)
    assert len(mesh.loops[0]) == 4004
    U = identity_oracle().mapping_field(mesh)
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
        holomorphic_oracle(2).mapping_field(coarse),  # 28 violations
        holomorphic_oracle(3).mapping_field(coarse_mesh("disk")),
        holomorphic_oracle(2).mapping_field(coarse_mesh("annulus")),
        meyers_solution(2.0).mapping_field(coarse_mesh("annulus")),
        identity_oracle().mapping_field(coarse_mesh("rect")),
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


def test_pullback_identity_disk(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    sub = pullback_subdomain(U, (0.0, 0.0), 0.5)
    area = float(fine_disk_mesh.areas[sub.parent_triangles].sum())
    assert abs(area - math.pi / 4) / (math.pi / 4) < 0.05
    assert len(sub.loops) == 1


def test_pullback_disk_escapes_image(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    with pytest.raises(DegenerateInputError):
        pullback_subdomain(U, (0.0, 0.0), 2.0)


def test_pullback_meyers(annulus_mesh):
    U = meyers_solution(2.0).mapping_field(annulus_mesh)
    sub = pullback_subdomain(U, (0.6, 0.0), 0.1)
    assert len(sub.parent_triangles) > 0
    w0 = np.array(sub.center_image)
    imgs = U.values[annulus_mesh.triangles[sub.parent_triangles].ravel()]
    assert (np.hypot(*(imgs - w0).T) <= 0.1 + 1e-12).all()
    tri, _ = annulus_mesh.locate(np.array([[0.6, 0.0]]))
    assert tri[0] in sub.parent_triangles  # contains the probe point


def test_pullback_boundary_point_rejected(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    with pytest.raises(DegenerateInputError):
        pullback_subdomain(U, (1.0, 0.0), 0.1)


def test_pullback_probe_messages_print_plain_floats(fine_disk_mesh):
    # the same text under numpy 1 and 2: no np.float64(...) reprs
    U = identity_oracle().mapping_field(fine_disk_mesh)
    with pytest.raises(DegenerateInputError) as outside:
        pullback_subdomain(U, (5.0, 5.0), 0.1)
    assert str(outside.value) == "probe point (5.0, 5.0) is outside the mesh"
    with pytest.raises(DegenerateInputError) as on_boundary:
        pullback_subdomain(U, (1.0, 0.0), 0.1)
    assert str(on_boundary.value) == "probe point (1.0, 0.0) lies on the boundary"


def submesh_pullback_loops(U, z0, r):
    """Reference: the boundary loops of pullback_subdomain as it found them
    when it built a submesh Mesh of the kept triangles, in parent vertex ids."""
    if not r > 0:
        raise DegenerateInputError("pullback radius must be positive")
    mesh = U.mesh
    z0 = np.asarray(z0, dtype=float)
    tri, bary = mesh.locate(z0[None, :])
    if tri[0] < 0:
        raise DegenerateInputError(f"probe point {tuple(z0.tolist())} is outside the mesh")
    if mesh.boundary_distance(z0[None, :])[0] <= 0.0:
        raise DegenerateInputError(f"probe point {tuple(z0.tolist())} lies on the boundary")
    w0, gap = analysis._image_center(U, tri[0], bary[0])
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
    keep_tri = _component_containing(mesh, keep_tri, int(tri[0]))
    tri_ids = np.where(keep_tri)[0]
    old_vertices = np.unique(mesh.triangles[tri_ids])
    remap = -np.ones(mesh.num_vertices, dtype=np.int64)
    remap[old_vertices] = np.arange(len(old_vertices))
    sub = Mesh(mesh.vertices[old_vertices], remap[mesh.triangles[tri_ids]], h=mesh.h)
    return [old_vertices[loop] for loop in sub.loops]


def pullback_loops(U, z0, r):
    return pullback_subdomain(U, z0, r).loops


def pullback_outcome(pullback, U, z0, r):
    """The loops as lists, or the type and message of the error raised."""
    try:
        return [loop.tolist() for loop in pullback(U, z0, r)]
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
                     holomorphic_oracle(3)]).map(lambda oracle: oracle.mapping_field),
    st.integers(0, 2**16).map(punctured_identity),
)


@st.composite
def pullback_cases(draw):
    """(map, z0, r): z0 anywhere in the box or inside a drawn triangle, r a
    fraction of the gap from U(z0) to the boundary image, as the probes of
    lewy_verify choose it; past 1 the target disk is refused."""
    name = draw(st.sampled_from(["disk", "annulus", "rect"]))
    mesh = coarse_mesh(name)
    maps = PULLBACK_MAPS
    if name == "annulus":
        maps = st.one_of(maps, st.just(meyers_solution(0.5).mapping_field))
    U = draw(maps)(mesh)
    t = draw(st.integers(0, mesh.num_triangles - 1))
    w = np.array(draw(st.tuples(*[st.floats(0.01, 1.0)] * 3)))
    z0 = draw(st.one_of(
        st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).map(np.array),
        st.just(w @ mesh.vertices[mesh.triangles[t]] / w.sum()),
    ))
    fraction = draw(st.floats(0.05, 1.1))
    tri, bary = mesh.locate(z0[None, :])
    gap = analysis._image_center(U, tri[0], bary[0])[1] if tri[0] >= 0 else 1.0
    return U, z0, fraction * gap


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
    got = pullback_outcome(pullback_loops, U, (-0.4, 0.1), 1.5)
    assert got == (MeshError, "boundary is not a disjoint union of simple loops")
    assert got == pullback_outcome(submesh_pullback_loops, U, (-0.4, 0.1), 1.5)


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
    U = oracle.mapping_field(annulus_mesh)
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


def test_lewy_identity(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    report = lewy_verify(U, directions=8, margin=0.1)
    assert report.passed
    assert report.min_abs_det == pytest.approx(1.0, abs=1e-12)
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in report.min_abs_grad)
    assert all(p["unimodal_all_directions"] for p in report.probes if p["resolved"])


def test_lewy_meyers_inset_bound(annulus_mesh):
    sigma = meyers_sigma(2.0)
    sol = meyers_solution(2.0)
    (u1, u2), _ = solve_dirichlet(annulus_mesh, sigma, sol.value)
    report = lewy_verify(MappingField(u1, u2), directions=8, margin=0.05)
    assert report.passed
    # analytic det at the inner inset radius 0.25 is 2 * 0.0625, minus 10% slack
    assert report.min_abs_det >= 0.1125


def test_lewy_rejects_non_injective(disk_mesh):
    sigma = identity_field()
    sol = holomorphic_oracle(2)
    (u1, u2), _ = solve_dirichlet(disk_mesh, sigma, sol.value)
    with pytest.raises(NotInjectiveError):
        lewy_verify(MappingField(u1, u2), directions=4, margin=0.1)


def test_lewy_direction_sign_invariance(fine_disk_mesh):
    sigma = holder_bump_field(0.3, 0.2, 0.0, 0.5, 0.4)
    (u1, u2), _ = solve_dirichlet(fine_disk_mesh, sigma, lambda x, y: np.array([x, y]))
    U = MappingField(u1, u2)
    g1 = np.array([U.directional((1.0, 0.0)).values])
    g2 = np.array([U.directional((-1.0, 0.0)).values])
    assert np.allclose(np.abs(g1), np.abs(g2))
    report = lewy_verify(U, directions=4, margin=0.1)
    assert report.passed


def test_lewy_computes_each_quantity_once(fine_disk_mesh, monkeypatch):
    # gradients of u1 and u2 once each; locate once for the probe lattice and
    # once in each pullback_subdomain attempt, one attempt per probe here; no
    # Mesh is built, since a pullback is its parent's triangles and loops
    sigma = field_from_descriptor("randholder:seed=2024")
    (u1, u2), _ = solve_dirichlet(fine_disk_mesh, sigma, identity_oracle().value)
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
    assert counts == {"gradient_field": 2, "pullback_subdomain": 5, "locate": 1 + 5}
    assert counts["__init__"] == 0


def test_lewy_logs_retries_and_unresolved_probes(disk_mesh, monkeypatch, caplog):
    # the first pullback fails once; at h = 0.1 two probes stay unresolved
    U = identity_oracle().mapping_field(disk_mesh)
    inner = analysis.pullback_subdomain
    calls = []

    def fails_once(*args):
        calls.append(args[2])
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


def test_mapping_interpolate_is_the_scalar_columns(fine_disk_mesh):
    sigma = field_from_descriptor("randholder:seed=7")
    (u1, u2), _ = solve_dirichlet(fine_disk_mesh, sigma, identity_oracle().value)
    U = MappingField(u1, u2)
    rng = np.random.default_rng(3)
    # random points, some outside the unit disk, plus vertices and edge midpoints
    pts = np.concatenate([
        rng.uniform(-1.2, 1.2, size=(2000, 2)),
        fine_disk_mesh.vertices,
        fine_disk_mesh.vertices[fine_disk_mesh.triangles[:, :2]].mean(axis=1),
        [[3.0, 0.0], [0.0, -1.5]],
    ])
    got = U.interpolate(pts)
    want = np.column_stack([u1.interpolate(pts), u2.interpolate(pts)])
    assert np.isnan(got).any() and not np.isnan(got).all()
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


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
        (u1, u2), _ = solve_dirichlet(m, sigma, sol.value)
        U = MappingField(u1, u2)
        inset = m.boundary_distance(m.centroids) >= 0.1
        from sigmalab import gradient_field

        level = []
        for k in range(4):
            theta = math.pi * k / 4
            g = gradient_field(U.directional((math.cos(theta), math.sin(theta)))).vectors
            level.append(float(np.hypot(g[:, 0], g[:, 1])[inset].min()))
        minima.append(level)
        m = refine(m)
    for coarse, fine in zip(*minima):
        assert fine >= 0.9 * coarse
