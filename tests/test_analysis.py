import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmalab import (
    DegenerateInputError,
    MappingField,
    MeshError,
    NotInjectiveError,
    ScalarField,
    beltrami_residual,
    complex_derivatives,
    critical_point_candidates,
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
    anisotropic_field,
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


def test_injectivity_orientation_flip(disk_mesh):
    # fold the map: reflect the image of half the plane
    vals = disk_mesh.vertices.copy()
    vals[:, 0] = np.abs(vals[:, 0])
    U = MappingField(
        ScalarField(disk_mesh, vals[:, 0]), ScalarField(disk_mesh, vals[:, 1])
    )
    res = injectivity_check(U)
    assert not res.injective
    assert any(v[0] == "triangle_orientation" for v in res.violations)


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


# ---------------------------------------------------------------------------
# pullback subdomains


def test_pullback_identity_disk(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    sub = pullback_subdomain(U, (0.0, 0.0), 0.5)
    area = float(sub.mesh.areas.sum())
    assert abs(area - math.pi / 4) / (math.pi / 4) < 0.05
    assert len(sub.mesh.loops) == 1


def test_pullback_disk_escapes_image(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    with pytest.raises(DegenerateInputError):
        pullback_subdomain(U, (0.0, 0.0), 2.0)


def test_pullback_meyers(annulus_mesh):
    U = meyers_solution(2.0).mapping_field(annulus_mesh)
    sub = pullback_subdomain(U, (0.6, 0.0), 0.1)
    assert sub.mesh.num_triangles > 0
    w0 = np.array(sub.center_image)
    imgs = U.values[sub.parent_vertices]
    assert (np.hypot(*(imgs - w0).T) <= 0.1 + 1e-12).all()
    tri, _ = sub.mesh.locate(np.array([[0.6, 0.0]]))
    assert tri[0] >= 0  # contains the probe point


def test_pullback_boundary_point_rejected(fine_disk_mesh):
    U = identity_oracle().mapping_field(fine_disk_mesh)
    with pytest.raises(DegenerateInputError):
        pullback_subdomain(U, (1.0, 0.0), 0.1)


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
    report = lewy_verify(U, identity_field(), directions=8, margin=0.1)
    assert report.passed
    assert report.min_abs_det == pytest.approx(1.0, abs=1e-12)
    assert all(m == pytest.approx(1.0, abs=1e-12) for m in report.min_abs_grad)
    assert all(p["unimodal_all_directions"] for p in report.probes if p["resolved"])


def test_lewy_meyers_inset_bound(annulus_mesh):
    sigma = meyers_sigma(2.0)
    sol = meyers_solution(2.0)
    (u1, u2), _ = solve_dirichlet(annulus_mesh, sigma, sol.value)
    report = lewy_verify(MappingField(u1, u2), sigma, directions=8, margin=0.05)
    assert report.passed
    # analytic det at the inner inset radius 0.25 is 2 * 0.0625, minus 10% slack
    assert report.min_abs_det >= 0.1125


def test_lewy_rejects_non_injective(disk_mesh):
    sigma = identity_field()
    sol = holomorphic_oracle(2)
    (u1, u2), _ = solve_dirichlet(disk_mesh, sigma, sol.value)
    with pytest.raises(NotInjectiveError):
        lewy_verify(MappingField(u1, u2), sigma, directions=4, margin=0.1)


def test_lewy_direction_sign_invariance(fine_disk_mesh):
    sigma = holder_bump_field(0.3, 0.2, 0.0, 0.5, 0.4)
    (u1, u2), _ = solve_dirichlet(fine_disk_mesh, sigma, lambda x, y: np.array([x, y]))
    U = MappingField(u1, u2)
    g1 = np.array([U.directional((1.0, 0.0)).values])
    g2 = np.array([U.directional((-1.0, 0.0)).values])
    assert np.allclose(np.abs(g1), np.abs(g2))
    report = lewy_verify(U, sigma, directions=4, margin=0.1)
    assert report.passed


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
