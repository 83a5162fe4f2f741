import gc
import hashlib
import math
import weakref

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import sparse
from scipy.sparse import linalg

from sigmalab import (
    EllipticityError,
    MeshError,
    ScalarField,
    SolverError,
    generate_annulus,
    generate_disk,
    generate_rectangle,
    gradient_field,
    relative_l2_error,
    solve_dirichlet,
)
from sigmalab import analysis, fd, fem
from sigmalab.coefficients import (
    ROTATION,
    CoefficientField,
    constant_field,
    identity_field,
    meyers_sigma,
    nonsymmetric_field,
    random_nonsymmetric_field,
    require_elliptic,
)
from sigmalab.fem import field_from_text, field_to_text
from sigmalab.mesh import _store
from sigmalab.oracles import meyers_solution
from sigmalab.svgplots import heatmap_svg
from reference import interpolate
from text_mutations import mutated_texts


def samples(mesh, sigma):
    """sigma at the centroids, checked elliptic, as each command passes it."""
    return require_elliptic(sigma, mesh.centroids).samples


def solve(mesh, sigma, g):
    (u,), _ = solve_dirichlet(mesh, samples(mesh, sigma), g)
    return u


def test_affine_data_reproduced_exactly(disk_mesh):
    u = solve(disk_mesh, identity_field(), lambda x, y: x)
    assert np.abs(u.values - disk_mesh.vertices[:, 0]).max() <= 1e-10


@settings(max_examples=30, deadline=None, derandomize=True, database=None)
@given(
    l1=st.floats(0.2, 5.0),
    l2=st.floats(0.2, 5.0),
    theta=st.floats(0.0, math.pi),
    tau=st.floats(-2.0, 2.0),
)
def test_patch_test_affine_columns_exact(disk_mesh, l1, l2, theta, tau):
    # P1 patch test: any constant elliptic sigma, skew part included, keeps
    # affine data exact; 1, x and y go through one three-column solve
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    sigma = constant_field(R @ np.diag([l1, l2]) @ R.T + tau * ROTATION)
    us, residual = solve_dirichlet(
        disk_mesh, samples(disk_mesh, sigma), lambda x, y: np.array([np.ones_like(x), x, y])
    )
    assert residual <= 1e-10
    X, Y = disk_mesh.vertices.T
    for u, exact in zip(us, (np.ones_like(X), X, Y)):
        assert np.abs(u.values - exact).max() <= 1e-10


def test_multi_column_solve_matches_single_solves_bitwise(disk_mesh):
    S = samples(disk_mesh, random_nonsymmetric_field(5))
    g = lambda x, y: np.array([x * x - y * y, np.cos(3 * x), x * y + 0.5])
    us, residual = solve_dirichlet(disk_mesh, S, g)
    singles = [solve_dirichlet(disk_mesh, S, lambda x, y, k=k: g(x, y)[k]) for k in range(3)]
    for u, ((single,), _) in zip(us, singles):
        assert np.array_equal(u.values, single.values)
    assert residual == max(r for _, r in singles)


@pytest.mark.parametrize(
    "g, message",
    [
        (lambda x, y: 1.0, "shape"),
        (lambda x, y: x[:-1], "shape"),
        (lambda x, y: np.zeros((0, len(x))), "shape"),
        (lambda x, y: np.array([[x, y]]), "shape"),
        (lambda x, y: np.where(x > 0.5, np.nan, x), "non-finite"),
        (lambda x, y: np.array([x, np.where(y > 0.5, np.inf, y)]), "non-finite"),
    ],
)
def test_bad_boundary_data_raises(disk_mesh, g, message):
    with pytest.raises(SolverError, match=message):
        solve_dirichlet(disk_mesh, samples(disk_mesh, identity_field()), g)


def test_singular_multi_column_system_raises(disk_mesh, monkeypatch):
    nv = disk_mesh.num_vertices
    zero = lambda mesh, S: sparse.csr_matrix((nv, nv))
    monkeypatch.setattr(fem, "assemble_stiffness", zero)
    with pytest.raises(SolverError, match="singular"):
        solve_dirichlet(
            disk_mesh, samples(disk_mesh, identity_field()), lambda x, y: np.array([x, y])
        )


def einsum_stiffness(mesh, S):
    """The stiffness matrix with K[t] summed by the three-operand einsum."""
    G = mesh.basis_gradients
    K = np.einsum("tia,tab,tjb->tij", G, S, G) * mesh.areas[:, None, None]
    t, nv = mesh.triangles, mesh.num_vertices
    rows, cols = np.repeat(t, 3, axis=1).ravel(), np.tile(t, (1, 3)).ravel()
    return sparse.coo_matrix((K.ravel(), (rows, cols)), shape=(nv, nv)).tocsr()


@st.composite
def meshes_and_samples(draw):
    if draw(st.booleans()):
        radius = draw(st.floats(0.5, 2.0))
        mesh = generate_disk((0.0, 0.0), radius, draw(st.floats(0.1, 0.5)) * radius)
    else:
        r_in = draw(st.floats(0.1, 0.5))
        mesh = generate_annulus((0.0, 0.0), r_in, r_in + draw(st.floats(0.4, 1.5)),
                                draw(st.floats(0.1, 0.35)))
    # every entry drawn on its own, of either sign and across twenty decades,
    # so the samples are nonsymmetric; a few set to hypothesis' own floats
    nt = mesh.num_triangles
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    S = rng.standard_normal((nt, 2, 2)) * 10.0 ** rng.integers(-10, 11, (nt, 2, 2))
    entries = st.tuples(st.integers(0, nt - 1), st.integers(0, 1), st.integers(0, 1),
                        st.floats(-1e100, 1e100))
    for t, a, b, x in draw(st.lists(entries, max_size=6)):
        S[t, a, b] = x
    return mesh, S


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(meshes_and_samples())
def test_stiffness_kernel_is_the_einsum_bit_for_bit(mesh_and_S):
    mesh, S = mesh_and_S
    A, ref = fem.assemble_stiffness(mesh, S), einsum_stiffness(mesh, S)
    for part in ("data", "indices", "indptr"):
        assert np.array_equal(getattr(A, part), getattr(ref, part))


@pytest.mark.usefixtures("fresh_store")
def test_field_sweep_factor_fill_is_bounded(fine_disk_mesh, monkeypatch):
    # disk:r=1 at h=0.05, the field-sweep mesh: MMD on A^T + A fills 41,670
    # L+U nonzeros, COLAMD 56,678
    real, factors = linalg.splu, []

    def recording(*args, **kwargs):
        factors.append(real(*args, **kwargs))
        return factors[-1]

    monkeypatch.setattr(linalg, "splu", recording)
    solve_dirichlet(fine_disk_mesh, samples(fine_disk_mesh, random_nonsymmetric_field(3)),
                    lambda x, y: np.array([x, y]))
    (lu,) = factors
    assert lu.shape == (1141, 1141)
    assert lu.L.nnz + lu.U.nnz <= 45_000


@pytest.mark.usefixtures("fresh_store")
@pytest.mark.parametrize("module", [fem, analysis], ids=["fem", "stream-function"])
def test_factor_solve_agrees_with_scipy_spsolve(disk_mesh, monkeypatch, module):
    systems, real = [], module.spsolve

    def recording(system, b):
        result = real(system, b)  # fem's is (x, solve), analysis's x
        systems.append((system, b, result[0] if module is fem else result))
        return result

    monkeypatch.setattr(module, "spsolve", recording)
    sigma = random_nonsymmetric_field(3)
    (u, _), _ = solve_dirichlet(disk_mesh, samples(disk_mesh, sigma),
                                lambda x, y: np.array([np.cos(2 * x) * y, x * x]))
    analysis.stream_function(u, sigma)
    ((A, b, x),) = systems
    if module is analysis:  # spsolve(mesh, b): the identity's Laplacian, anchored at vertex 0
        A = fem.assemble_stiffness(A, np.tile(np.eye(2), (A.num_triangles, 1, 1)))[1:, 1:]
    ref = linalg.spsolve(A.tocsc(), b).reshape(x.shape)
    assert np.abs(x - ref).max() <= 1e-12 * np.abs(ref).max()


@pytest.mark.usefixtures("fresh_store")
def test_singular_factor_is_solver_error(disk_mesh, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    u = solve(disk_mesh, identity_field(), lambda x, y: x)
    _store.clear()  # the same solve again factors
    monkeypatch.setattr(linalg, "splu", singular)
    with pytest.raises(SolverError, match="stiffness system is singular"):
        solve(disk_mesh, identity_field(), lambda x, y: x)
    with pytest.raises(SolverError, match="stream-function Laplacian is singular"):
        analysis.stream_function(u, identity_field())


class _NaNFactor:
    """A SuperLU stand-in whose solve returns NaN."""

    def __init__(self, A, **kwargs):
        pass

    def solve(self, b):
        return np.full(np.shape(b), np.nan)


@pytest.mark.usefixtures("fresh_store")
@pytest.mark.parametrize(
    "system", ["stiffness system", "finite-difference system", "stream-function Laplacian"]
)
def test_non_finite_solution_is_solver_error_naming_the_system(disk_mesh, monkeypatch, system):
    u = solve(disk_mesh, identity_field(), lambda x, y: x)
    grid = fd.rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    n = int(grid.interior_mask.sum())
    run = {
        "stiffness system": lambda: solve(disk_mesh, identity_field(), lambda x, y: x),
        "finite-difference system": lambda: fd.solve_nondivergence(
            grid, np.tile(np.eye(2), (n, 1, 1)), np.zeros((n, 2)), lambda x, y: x),
        "stream-function Laplacian": lambda: analysis.stream_function(u, identity_field()),
    }[system]
    _store.clear()  # the same solve again factors
    monkeypatch.setattr(linalg, "splu", _NaNFactor)
    with pytest.raises(SolverError, match=f"{system} solve produced non-finite values"):
        run()


def kept_stiffness(mesh):
    """The (A_ib, A_ii, solve) kept for the mesh's stiffness system, or None."""
    entry = _store.get(mesh, {}).get("stiffness system")
    return None if entry is None else entry[1]


@pytest.mark.usefixtures("fresh_store")
@pytest.mark.parametrize("change", ["one ulp", "the sign of a zero"])
def test_samples_of_other_bytes_miss(disk_mesh, splu_calls, change):
    S = samples(disk_mesh, identity_field())
    T = S.copy()
    if change == "one ulp":
        T[7, 0, 0] = np.nextafter(T[7, 0, 0], 2.0)
    else:
        assert S[7, 0, 1] == 0.0 and not np.signbit(S[7, 0, 1])
        T[7, 0, 1] = -0.0
    g = lambda x, y: x * y
    solve_dirichlet(disk_mesh, S, g)
    solve_dirichlet(disk_mesh, S.copy(), g)  # the same bytes in another array hit
    assert len(splu_calls) == 1
    solve_dirichlet(disk_mesh, T, g)
    solve_dirichlet(disk_mesh, T, g)
    solve_dirichlet(disk_mesh, S, g)  # one entry per mesh: T's replaced S's
    assert len(splu_calls) == 3


@pytest.mark.usefixtures("fresh_store")
def test_a_second_mesh_misses_and_the_first_keeps_its_entry(disk_mesh, rect_mesh, splu_calls):
    g = lambda x, y: np.array([x, y])
    (a1, a2), _ = solve_dirichlet(disk_mesh, samples(disk_mesh, identity_field()), g)
    solve_dirichlet(rect_mesh, samples(rect_mesh, identity_field()), g)
    (b1, b2), _ = solve_dirichlet(disk_mesh, samples(disk_mesh, identity_field()), g)
    assert [A.shape[0] for A in splu_calls] == [
        len(disk_mesh.interior_vertices), len(rect_mesh.interior_vertices)
    ]
    assert np.array_equal(a1.values, b1.values) and np.array_equal(a2.values, b2.values)


@pytest.mark.usefixtures("fresh_store")
def test_a_hit_gives_the_bits_of_a_fresh_solve(fine_disk_mesh):
    S = samples(fine_disk_mesh, random_nonsymmetric_field(11))
    g = lambda x, y: y + 0.3 * x * x
    (fresh,), fresh_residual = solve_dirichlet(fine_disk_mesh, S, g)
    _store.clear()
    solve_dirichlet(fine_disk_mesh, S, lambda x, y: np.array([x, y]))  # a miss
    (hit,), hit_residual = solve_dirichlet(fine_disk_mesh, S, g)  # a hit
    assert np.array_equal(hit.values, fresh.values) and hit_residual == fresh_residual


@pytest.mark.usefixtures("fresh_store")
@pytest.mark.parametrize("factor", ["singular", "non-finite"])
def test_a_failed_factor_is_not_kept(disk_mesh, monkeypatch, splu_calls, factor):
    def singular(A, *args, **kwargs):
        splu_calls.append(A)
        raise RuntimeError("Factor is exactly singular")

    def non_finite(A, *args, **kwargs):
        splu_calls.append(A)
        return _NaNFactor(A)

    S = samples(disk_mesh, identity_field())
    real = linalg.splu
    monkeypatch.setattr(linalg, "splu", {"singular": singular, "non-finite": non_finite}[factor])
    for _ in range(2):
        with pytest.raises(SolverError, match="stiffness system"):
            solve_dirichlet(disk_mesh, S, lambda x, y: x)
        assert kept_stiffness(disk_mesh) is None
    monkeypatch.setattr(linalg, "splu", real)
    (u,), _ = solve_dirichlet(disk_mesh, S, lambda x, y: x)
    assert len(splu_calls) == 3
    assert np.abs(u.values - disk_mesh.vertices[:, 0]).max() <= 1e-10


@pytest.mark.usefixtures("fresh_store")
@pytest.mark.parametrize(
    "g, message",
    [(lambda x, y: np.zeros(3), r"boundary data returned shape \(3,\)"),
     (lambda x, y: x / 0.0, "boundary data evaluated to non-finite values")],
)
def test_bad_boundary_data_raise_before_any_factor(disk_mesh, splu_calls, g, message):
    S = samples(disk_mesh, identity_field())
    with np.errstate(divide="ignore"), pytest.raises(SolverError, match=message):
        solve_dirichlet(disk_mesh, S, g)
    assert splu_calls == [] and kept_stiffness(disk_mesh) is None


@pytest.mark.usefixtures("fresh_store")
def test_the_kept_system_is_dropped_before_the_next_is_built(disk_mesh, monkeypatch):
    # holding the old factor while the next was built grew the heap
    g = lambda x, y: x
    solve_dirichlet(disk_mesh, samples(disk_mesh, identity_field()), g)
    old = [weakref.ref(part) for part in kept_stiffness(disk_mesh)]
    real, alive = linalg.splu, []

    def recording(A, *args, **kwargs):
        alive.append([ref() is not None for ref in old])
        return real(A, *args, **kwargs)

    monkeypatch.setattr(linalg, "splu", recording)
    solve_dirichlet(disk_mesh, samples(disk_mesh, random_nonsymmetric_field(4)), g)
    assert alive == [[False, False, False]]


@pytest.mark.usefixtures("fresh_store")
def test_each_name_keeps_its_own_entry():
    mesh = generate_rectangle.__wrapped__((0.0, 0.0), 1.0, 1.0, 0.25)  # no generator memo
    sigma = identity_field()
    (u,), _ = solve_dirichlet(mesh, samples(mesh, sigma), lambda x, y: x)
    analysis.stream_function(u, sigma)
    heatmap_svg(mesh, np.ones(mesh.num_triangles))
    before = dict(_store[mesh])
    solve_dirichlet(mesh, samples(mesh, random_nonsymmetric_field(4)), lambda x, y: x)
    after = _store[mesh]
    assert set(after) == {"stiffness system", "stream-function Laplacian", "svg frame"}
    assert after["stiffness system"] is not before["stiffness system"]
    assert after["stream-function Laplacian"] is before["stream-function Laplacian"]
    assert after["svg frame"] is before["svg frame"]


@pytest.mark.usefixtures("fresh_store")
def test_an_entry_goes_with_its_mesh():
    mesh = generate_rectangle.__wrapped__((0.0, 0.0), 1.0, 1.0, 0.25)  # no generator memo
    sigma = identity_field()
    (u,), _ = solve_dirichlet(mesh, samples(mesh, sigma), lambda x, y: x)
    analysis.stream_function(u, sigma)
    heatmap_svg(mesh, np.ones(mesh.num_triangles))
    assert set(_store[mesh]) == {"stiffness system", "stream-function Laplacian", "svg frame"}
    refs = [weakref.ref(mesh), weakref.ref(kept_stiffness(mesh)[2]),
            weakref.ref(_store[mesh]["stream-function Laplacian"][1]),
            weakref.ref(_store[mesh]["svg frame"][1])]
    del mesh, u
    gc.collect()
    assert [ref() for ref in refs] == [None, None, None, None]
    assert len(_store) == 0


@pytest.mark.parametrize(
    "shape, bad, message",
    [
        ((2, 2), None, "shape"),
        ((None, 2), None, "shape"),
        ((None, 2, 2), np.nan, "non-finite"),
        ((None, 2, 2), np.inf, "non-finite"),
    ],
)
def test_bad_sigma_samples_raise(disk_mesh, shape, bad, message):
    # None stands for the triangle count; bad, when given, goes into one entry
    S = np.ones([disk_mesh.num_triangles if n is None else n for n in shape])
    if bad is not None:
        S[7, 1, 0] = bad
    with pytest.raises(SolverError, match=message):
        solve_dirichlet(disk_mesh, S, lambda x, y: x)


def test_l2_error_is_the_unscaled_quadrature(disk_mesh):
    # the power-of-two scaling is exact: the same bits as the plain sums
    u = solve(disk_mesh, random_nonsymmetric_field(2), lambda x, y: np.cos(2 * x) * y)
    exact = lambda x, y: np.cos(2 * x) * y + 0.01 * x
    uh = u.values[disk_mesh.triangles].mean(axis=1)
    ue = exact(*disk_mesh.centroids.T)
    a = disk_mesh.areas
    plain = float(np.sqrt(np.sum(a * (uh - ue) ** 2) / np.sum(a * ue * ue)))
    assert relative_l2_error(u, exact) == plain


def test_reference_of_wrong_shape_raises(disk_mesh):
    u = ScalarField(disk_mesh, disk_mesh.vertices[:, 0])
    with pytest.raises(SolverError, match="shape"):
        relative_l2_error(u, lambda x, y: np.array([x, y]))


@pytest.mark.parametrize("shape", [(), (2,), "complex"])
def test_relative_l2_is_the_plain_ratio_of_roots(disk_mesh, shape):
    # the power-of-two scalings are exact, and the weights' is even, which
    # the roots take out exactly: the same bits as the plain sums
    rng = np.random.default_rng(3)
    n = disk_mesh.num_triangles
    draw = (lambda: rng.normal(size=n) + 1j * rng.normal(size=n)) if shape == "complex" else (
        lambda: rng.normal(size=(n, *shape)))
    x, ref = draw(), draw()
    sq = lambda z: np.abs(z) ** 2 if np.ndim(z) == 1 else np.sum(z * z, axis=1)
    for w in (disk_mesh.areas, None):
        ww = 1.0 if w is None else w
        plain = float(np.sqrt(np.sum(ww * sq(x))) / np.sqrt(np.sum(ww * sq(ref))))
        assert fem.relative_l2(x, ref, w) == plain
    assert fem.relative_l2(x, 0.0 * ref, disk_mesh.areas) == math.inf
    assert fem.relative_l2(0.0 * x, ref) == 0.0


finite_rows = st.lists(
    st.tuples(st.floats(1.0, 2.0), st.integers(-20, 20), st.booleans()), min_size=1, max_size=12
).map(lambda rows: np.array([(-m if neg else m) * 2.0**e for m, e, neg in rows]))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(finite_rows, finite_rows, st.integers(-1000, 1000), st.integers(-1000, 1000),
       st.integers(-500, 500), st.integers(0, 2**32 - 1))
def test_relative_l2_scales_exactly_by_powers_of_two(x, ref, a, b, half_c, seed):
    n = min(len(x), len(ref))
    x, ref = x[:n], ref[:n]
    w = np.random.default_rng(seed).uniform(0.5, 4.0, n)
    base = fem.relative_l2(x, ref, w)
    scaled = fem.relative_l2(np.ldexp(x, a), np.ldexp(ref, b), np.ldexp(w, 2 * half_c))
    with np.errstate(over="ignore"):  # a - b up to 2000 overflows to inf, as it should
        assert scaled == np.ldexp(base, a - b)
    # weights scaled by an odd power of two go into the roots as a factor
    # sqrt(2), which can move the ratio of the two rounded roots by an ulp
    odd = fem.relative_l2(x, ref, np.ldexp(w, 2 * half_c + 1))
    assert odd == pytest.approx(base, rel=4 * np.finfo(float).eps, abs=0.0)


def test_harmonic_oracle_convergence(disk_mesh, fine_disk_mesh):
    exact = lambda x, y: x * x - y * y
    e1 = relative_l2_error(solve(disk_mesh, identity_field(), exact), exact)
    e2 = relative_l2_error(solve(fine_disk_mesh, identity_field(), exact), exact)
    assert e1 < 0.01
    assert 3.0 <= e1 / e2 <= 5.0


def test_h1_convergence_first_order(disk_mesh, fine_disk_mesh):
    exact = lambda x, y: x * x - y * y

    def h1_err(mesh):
        u = solve(mesh, identity_field(), exact)
        g = gradient_field(u)
        c = mesh.centroids
        ge = np.column_stack([2 * c[:, 0], -2 * c[:, 1]])
        return math.sqrt(float(np.sum(mesh.areas * np.sum((g - ge) ** 2, axis=1))))

    r = h1_err(disk_mesh) / h1_err(fine_disk_mesh)
    assert 1.6 <= r <= 2.6


def test_meyers_annulus_accuracy(annulus_mesh):
    sol = meyers_solution(2.0)
    u1 = solve(annulus_mesh, meyers_sigma(2.0), lambda x, y: sol.value(x, y)[0])
    err = relative_l2_error(u1, lambda x, y: sol.value(x, y)[0])
    # h = 0.05 here; the acceptance suite pins 2% at h = 0.02
    assert err < 0.005


def test_gradient_field_trivial(disk_mesh):
    u = ScalarField(disk_mesh, disk_mesh.vertices[:, 0])
    g = gradient_field(u)
    assert np.allclose(g, [1.0, 0.0], atol=1e-12)
    const = ScalarField(disk_mesh, np.full(disk_mesh.num_vertices, 3.0))
    assert np.allclose(gradient_field(const), 0.0, atol=1e-13)


def test_gradient_matches_meyers_away_from_hole(annulus_mesh):
    sol = meyers_solution(2.0)
    u1 = solve(annulus_mesh, meyers_sigma(2.0), lambda x, y: sol.value(x, y)[0])
    g = gradient_field(u1)
    c = annulus_mesh.centroids
    sel = np.hypot(c[:, 0], c[:, 1]) >= 0.3
    ge = np.array([sol.gradient(x, y)[0] for x, y in c[sel]])
    maxerr = np.abs(g[sel] - ge).max()
    assert maxerr < 2.0 * annulus_mesh.h  # first-order gradient accuracy


def test_energy_cases(disk_mesh):
    # the Dirichlet energy is the stiffness matrix's quadratic form u . A u
    A = fem.assemble_stiffness(disk_mesh, identity_field().at_points(disk_mesh.centroids))
    const = np.full(disk_mesh.num_vertices, 2.0)
    assert const @ (A @ const) == pytest.approx(0.0, abs=1e-13)
    ramp = disk_mesh.vertices[:, 0]
    assert ramp @ (A @ ramp) == pytest.approx(float(disk_mesh.areas.sum()))


def test_solution_minimizes_energy(disk_mesh):
    sigma = identity_field()
    g = lambda x, y: x * x - y * y
    u = solve(disk_mesh, sigma, g)
    A = fem.assemble_stiffness(disk_mesh, sigma.at_points(disk_mesh.centroids))
    e0 = u.values @ (A @ u.values)
    rng = np.random.default_rng(12)
    interior = disk_mesh.interior_vertices
    for _ in range(5):
        pert = np.zeros(disk_mesh.num_vertices)
        pert[interior] = rng.normal(0, 0.05, len(interior))
        w = u.values + pert
        assert w @ (A @ w) >= e0 - 1e-12


def test_discrete_maximum_principle(disk_mesh):
    g = lambda x, y: np.cos(3 * np.arctan2(y, x)) + 0.3 * np.sin(5 * x)
    u = solve(disk_mesh, identity_field(), g)
    b = u.values[disk_mesh.boundary_vertices]
    i = u.values[disk_mesh.interior_vertices]
    assert i.min() >= b.min() - 1e-12
    assert i.max() <= b.max() + 1e-12


def test_linearity(disk_mesh):
    sigma = identity_field()
    g1 = lambda x, y: x * x - y * y
    g2 = lambda x, y: x + 0.5 * y
    lam = 2.75
    u12 = solve(disk_mesh, sigma, lambda x, y: g1(x, y) + lam * g2(x, y))
    u1 = solve(disk_mesh, sigma, g1)
    u2 = solve(disk_mesh, sigma, g2)
    combo = u1.values + lam * u2.values
    scale = np.abs(u12.values).max()
    assert np.abs(u12.values - combo).max() <= 1e-9 * scale


def test_nonsymmetric_rotation_part_is_invisible(disk_mesh):
    # div(J grad u) vanishes identically, so I + tau J solves like I
    g = lambda x, y: x * x - y * y
    u_id = solve(disk_mesh, identity_field(), g)
    u_ns = solve(disk_mesh, nonsymmetric_field(0.35), g)
    scale = np.abs(u_id.values).max()
    assert np.abs(u_id.values - u_ns.values).max() <= 1e-8 * scale


def skew_field(e: float) -> CoefficientField:
    """sigma = [[1 + e phi_y, -e psi_y], [-e phi_x, 1 + e psi_x]] with
    phi = sin 2x cos 3y and psi = 0.

    Both columns are divergence-free, so both components of the identity map
    are sigma-harmonic, with stream functions y + e phi and -(x + e psi)
    (grad v = J sigma grad u). Its skew part varies, unlike that of `nonsym`
    and `randnonsym`, whose constant skew part drops out of div(sigma grad u).
    """

    def ev(X, Y):
        phi_x = 2.0 * np.cos(2.0 * X) * np.cos(3.0 * Y)
        phi_y = -3.0 * np.sin(2.0 * X) * np.sin(3.0 * Y)
        S = np.zeros((len(X), 2, 2))
        S[:, 0, 0] = 1.0 + e * phi_y
        S[:, 1, 0] = -e * phi_x
        S[:, 1, 1] = 1.0
        return S

    return CoefficientField(ev, f"skew:e={e}")


def test_varying_skew_part_converges_to_the_identity_map():
    # a solver that read sigma^T for sigma keeps an error near 0.13 at every h
    sigma = skew_field(0.3)
    errors = []
    for h in (0.1, 0.05, 0.025):
        m = generate_disk((0.0, 0.0), 1.0, h)
        S = samples(m, sigma)
        A = fem.assemble_stiffness(m, S)
        inner = m.interior_vertices
        block = A[inner][:, inner]
        # the oracle itself: the solver sees a non-symmetric system
        assert abs(block - block.T).max() > 1e-3 * abs(block).max()
        (u1, u2), _ = solve_dirichlet(m, S, lambda x, y: np.array([x, y]))
        errors.append(relative_l2_error(u1, lambda x, y: x))
        # sigma's second column is constant, so u2 = y is reproduced exactly
        assert relative_l2_error(u2, lambda x, y: y) < 1e-12
    assert errors[0] / errors[1] >= 3.0 and errors[1] / errors[2] >= 3.0


def skew_identity_map(h):
    """The P1 solve of the identity map under skew_field(0.3) on the unit disk."""
    m = generate_disk((0.0, 0.0), 1.0, h)
    (u1, u2), _ = solve_dirichlet(m, samples(m, skew_field(0.3)), lambda x, y: np.array([x, y]))
    return analysis.MappingField(u1, u2)


def test_varying_skew_part_passes_verify():
    report = analysis.lewy_verify(skew_identity_map(0.05), directions=8, margin=0.1)
    assert report.passed and report.injective
    assert all(p["resolved"] and p["unimodal_all_directions"] for p in report.probes)


def test_varying_skew_part_jacobian_approaches_one():
    # the exact map is the identity, det DU = 1
    errors = [
        float(np.abs(analysis.jacobian_field(skew_identity_map(h)) - 1.0).max())
        for h in (0.1, 0.05, 0.025)
    ]
    assert errors[0] > errors[1] > errors[2]


def test_no_interior_vertices_raises():
    tiny = generate_rectangle((0, 0), 1.0, 1.0, 1.0)  # 4 vertices, 2 triangles
    with pytest.raises(SolverError):
        solve(tiny, identity_field(), lambda x, y: x)


def test_non_elliptic_sigma_raises(disk_mesh):
    with pytest.raises(EllipticityError):
        solve(disk_mesh, constant_field([[1.0, 0], [0, -1.0]]), lambda x, y: x)


def test_field_file_roundtrip(tmp_path, disk_mesh):
    u = solve(disk_mesh, identity_field(), lambda x, y: x * y)
    p1 = tmp_path / "u.txt"
    p2 = tmp_path / "v.txt"
    p1.write_text(field_to_text(u), encoding="utf-8")
    back = field_from_text(p1.read_text(encoding="utf-8"), disk_mesh)
    p2.write_text(field_to_text(back), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.values, u.values)


# sha256 of field_to_text for x*y/3 - y on the h=0.1 disk, recorded before the
# writer became one %-format
FIELD_TEXT_SHA256 = "3fcc80c5a7ddecb6979eee5cce3dc5d6089b96cb026efb504d4ac9925f726ffb"


def test_field_text_bytes_pinned(disk_mesh):
    x, y = disk_mesh.vertices.T
    text = field_to_text(ScalarField(disk_mesh, x * y / 3.0 - y))
    assert hashlib.sha256(text.encode()).hexdigest() == FIELD_TEXT_SHA256


_SMALL = generate_rectangle((0.0, 0.0), 1.0, 1.0, 0.5)  # 9 vertices
_SMALL_TEXT = field_to_text(ScalarField(_SMALL, _SMALL.vertices[:, 0] - 0.25))


@pytest.mark.parametrize(
    "text",
    [
        "field v1\n",
        "field v1\nvalues x\n",
        "field v1\nvalues 9.0\n" + "0\n" * 9,
        "field v1\nvalues 9\n" + "0\n" * 8,
        "field v1\nvalues 9\n" + "0\n" * 8 + "abc\n",
        "field v1\nvalues 9\n" + "0\n" * 8 + "0 1\n",
        "field v1\nvalues 9\n0\n\n" + "0\n" * 8,
        "field v1\nvalues 9\n" + "0 # zero\n" * 9,
        "field v1\nnumbers 9\n" + "0\n" * 9,
        _SMALL_TEXT.replace("field v1", "field v2"),
    ],
)
@pytest.mark.filterwarnings("error::UserWarning")
def test_field_from_text_malformed_is_mesh_error(text):
    with pytest.raises(MeshError):
        field_from_text(text, _SMALL)


def test_field_from_text_non_finite_is_solver_error():
    with pytest.raises(SolverError, match="non-finite"):
        field_from_text("field v1\nvalues 9\n" + "nan\n" * 9, _SMALL)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(mutated_texts([_SMALL_TEXT]), st.text()))
def test_field_from_text_gives_field_or_error(text):
    try:
        u = field_from_text(text, _SMALL)
    except (MeshError, SolverError):
        return
    assert isinstance(u, ScalarField)


def test_field_text_rejects_wrong_count(disk_mesh):
    text = field_to_text(ScalarField(disk_mesh, np.zeros(disk_mesh.num_vertices)))
    small = generate_disk((0, 0), 1.0, 0.3)
    from sigmalab.errors import MeshError

    with pytest.raises(MeshError):
        field_from_text(text, small)


def test_interpolate_affine_exact(disk_mesh):
    u = ScalarField(disk_mesh, 2.0 * disk_mesh.vertices[:, 0] - disk_mesh.vertices[:, 1])
    pts = np.array([[0.1, 0.2], [-0.4, 0.3], [0.0, 0.0]])
    assert np.allclose(interpolate(u, pts), 2 * pts[:, 0] - pts[:, 1], atol=1e-12)
    assert np.isnan(interpolate(u, np.array([[3.0, 0.0]]))[0])
