import hashlib
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmalab import (
    MappingField,
    MeshError,
    ResourceLimitError,
    SolverError,
    fd,
    generate_rectangle,
    jacobian_field,
    mesh,
    solve_dirichlet,
)
from sigmalab.coefficients import (
    CoefficientField,
    constant_field,
    holder_bump_field,
    identity_field,
    meyers_sigma,
)
from sigmalab.fd import (
    GridDomain,
    GridField,
    annulus_grid,
    grid_field_from_text,
    grid_field_to_text,
    grid_from_predicate,
    rectangle_grid,
    solve_nondivergence,
    to_nondivergence,
    zero_drift,
)
from sigmalab.oracles import holomorphic_oracle, meyers_solution
from text_mutations import mutated_texts


def rel_l2(grid, field, exact):
    pts = grid.points(grid.interior_mask)
    ref = exact(*pts.T)
    uh = field.values[grid.interior_mask]
    return float(np.sqrt(np.sum((uh - ref) ** 2) / np.sum(ref**2)))


def test_affine_data_exact():
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    (u,), residual = solve_nondivergence(grid, identity_field(), zero_drift(), lambda x, y: 1 + 2 * x - y)
    pts = grid.points(grid.interior_mask)
    exact = 1 + 2 * pts[:, 0] - pts[:, 1]
    assert np.abs(u.values[grid.interior_mask] - exact).max() <= 1e-10


def test_bilinear_data_exact_for_cross_stencil():
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    (u,), _ = solve_nondivergence(grid, identity_field(), zero_drift(), lambda x, y: x * y)
    pts = grid.points(grid.interior_mask)
    assert np.abs(u.values[grid.interior_mask] - pts[:, 0] * pts[:, 1]).max() <= 1e-9


def test_harmonic_convergence_factor():
    exact = lambda x, y: x * x - y * y

    def err(s):
        grid = rectangle_grid((0, 0), 1.0, 1.0, s)
        (u,), _ = solve_nondivergence(grid, identity_field(), zero_drift(), exact)
        return rel_l2(grid, u, exact)

    # x^2 - y^2 is stencil-exact; use a genuinely curved harmonic instead
    exact = lambda x, y: np.exp(x) * np.cos(y)
    assert err(0.1) / err(0.05) >= 3.0


def test_meyers_annulus_nondivergence():
    sigma = meyers_sigma(2.0)
    b = to_nondivergence(sigma, step=1e-5)
    grid = annulus_grid((0, 0), 0.25, 0.95, 0.04)
    sol = meyers_solution(2.0)
    (u,), _ = solve_nondivergence(grid, sigma, b, lambda x, y: sol.value(x, y)[0])
    err = rel_l2(grid, u, lambda x, y: sol.value(x, y)[0])
    assert err < 0.01


def test_to_nondivergence_cases():
    b = to_nondivergence(identity_field(), step=1e-4)
    assert b.at_points([(0.3, 0.7)])[0] == pytest.approx((0.0, 0.0), abs=1e-12)

    ramp = CoefficientField(
        lambda X, Y: np.eye(2) + X[:, None, None] * [[1.0, 0.0], [0.0, 0.0]],
        symmetric=True,
        descriptor="ramp",
    )
    b = to_nondivergence(ramp, step=1e-4)
    v = b.at_points([(0.2, -0.3)])[0]
    assert v[0] == pytest.approx(1.0, abs=1e-8)
    assert v[1] == pytest.approx(0.0, abs=1e-8)

    b3 = to_nondivergence(meyers_sigma(2.0), step=1e-3)
    b4 = to_nondivergence(meyers_sigma(2.0), step=1e-4)
    d = np.abs(b3.at_points([(0.5, 0.5)]) - b4.at_points([(0.5, 0.5)])).max()
    assert d <= 1e-4


def test_dominance_refusal_names_worst_node():
    # elliptic but cross-dominant: eigenvalues 0.25 and 2.95
    bad = constant_field([[1.0, 1.35], [1.35, 2.2]])
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.25)
    with pytest.raises(SolverError, match="dominance"):
        solve_nondivergence(grid, bad, zero_drift(), lambda x, y: x)


def test_mask_invariants():
    grid = annulus_grid((0, 0), 0.3, 0.9, 0.05)
    im, bm = grid.interior_mask, grid.boundary_mask
    assert not (im & bm).any()
    alive = im | bm
    jj, ii = np.where(im)
    for dj in (-1, 0, 1):
        for di in (-1, 0, 1):
            assert alive[jj + dj, ii + di].all()


GRID_PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)
#: any float, or one in a range where grids (and not only errors) come out
SIZES = st.one_of(st.floats(), st.floats(1e-3, 1e3))
#: the node cap the grid properties run under, so that no example allocates a large grid
SMALL_CAP = 20_000


@GRID_PROPERTY
@given(x0=SIZES, width=SIZES, height=SIZES, spacing=SIZES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@example(x0=0.0, width=math.inf, height=1.0, spacing=0.1)
@example(x0=0.0, width=1.0, height=math.nan, spacing=0.1)
@example(x0=0.0, width=1.0, height=1.0, spacing=1e-300)
@example(x0=0.0, width=1e300, height=1.0, spacing=0.5)
@example(x0=math.inf, width=1.0, height=1.0, spacing=0.1)
@example(x0=0.0, width=1.0, height=1.0, spacing=0.0)
def test_rectangle_grid_gives_grid_or_error(x0, width, height, spacing):
    try:
        with mock.patch.object(mesh, "DEFAULT_VERTEX_CAP", SMALL_CAP):
            grid = rectangle_grid((x0, 0.0), width, height, spacing)
    except (MeshError, ResourceLimitError):
        return
    assert grid.nx * grid.ny <= SMALL_CAP
    assert (grid.nx, grid.ny) == (round(width / spacing) + 1, round(height / spacing) + 1)
    assert grid.interior_mask[1:-1, 1:-1].all() and not grid.boundary_mask[1:-1, 1:-1].any()
    assert (grid.interior_mask | grid.boundary_mask).all()


@GRID_PROPERTY
@given(cx=SIZES, r_in=SIZES, width=SIZES, spacing=SIZES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@example(cx=0.0, r_in=0.25, width=math.inf, spacing=0.1)
@example(cx=0.0, r_in=math.nan, width=1.0, spacing=0.1)
@example(cx=0.0, r_in=0.25, width=0.7, spacing=1e-300)
@example(cx=0.0, r_in=1e307, width=1e308, spacing=1e307)
@example(cx=-math.inf, r_in=0.25, width=0.7, spacing=0.1)
def test_annulus_grid_gives_grid_or_error(cx, r_in, width, spacing):
    r_out = r_in + width
    try:
        with mock.patch.object(mesh, "DEFAULT_VERTEX_CAP", SMALL_CAP):
            grid = annulus_grid((cx, 0.0), r_in, r_out, spacing)
    except (MeshError, ResourceLimitError):
        return
    assert grid.nx * grid.ny <= SMALL_CAP
    X, Y = grid.node_coordinates()
    R = np.hypot(X - cx, Y)[grid.interior_mask | grid.boundary_mask]
    assert grid.interior_mask.any() and ((R >= r_in) & (R <= r_out)).all()


def test_grid_domain_rejects_bad_masks():
    im = np.zeros((4, 4), dtype=bool)
    bm = np.zeros((4, 4), dtype=bool)
    im[1, 1] = True  # neighbors are dead
    with pytest.raises(MeshError):
        GridDomain((0, 0), 0.1, 4, 4, im, bm)


def test_grid_file_roundtrip(tmp_path):
    grid = annulus_grid((0, 0), 0.3, 0.9, 0.1)
    vals = np.zeros((grid.ny, grid.nx))
    alive = grid.interior_mask | grid.boundary_mask
    X, Y = grid.node_coordinates()
    vals[alive] = np.sin(X[alive]) + Y[alive]
    f = GridField(grid, vals)
    p1, p2 = tmp_path / "a.txt", tmp_path / "b.txt"
    p1.write_text(grid_field_to_text(f), encoding="utf-8")
    back = grid_field_from_text(p1.read_text(encoding="utf-8"))
    p2.write_text(grid_field_to_text(back), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.interior_mask, grid.interior_mask)


def test_grid_text_rejects_garbage():
    with pytest.raises(MeshError):
        grid_field_from_text("grid v2\n")


def _annulus_grid_field(spacing):
    grid = annulus_grid((0, 0), 0.3, 0.9, spacing)
    X, Y = grid.node_coordinates()
    return GridField(grid, np.where(grid.interior_mask | grid.boundary_mask, X * Y / 3.0 - Y, np.nan))


# sha256 of grid_field_to_text at spacing 0.1, recorded before the writer
# became one %-format per block
GRID_TEXT_SHA256 = "5e210b38b54c4242df0bb98bfa8116f4e54558a7fd2260db2d21a7309d30ec7c"


def test_grid_text_bytes_pinned():
    text = grid_field_to_text(_annulus_grid_field(0.1))
    assert hashlib.sha256(text.encode()).hexdigest() == GRID_TEXT_SHA256


_SMALL_TEXT = grid_field_to_text(_annulus_grid_field(0.2))  # 14 x 14 nodes
_RECT_TEXT = grid_field_to_text(
    GridField(rectangle_grid((0, 0), 0.3, 0.3, 0.1), np.arange(16.0).reshape(4, 4))
)
_RECT_VALUES = _RECT_TEXT[_RECT_TEXT.index("values"):]


@pytest.mark.parametrize(
    "text",
    [
        "grid v1\n",
        "grid v1\norigin 0 0\nspacing 0.1\n",
        _RECT_TEXT.replace("origin 0.0 0.0", "origin a 0"),
        _RECT_TEXT.replace("origin 0.0 0.0", "origin 0.0"),
        _RECT_TEXT.replace("origin 0.0 0.0", "origin nan 0"),
        _RECT_TEXT.replace("spacing 0.1", "spacing inf"),
        _RECT_TEXT.replace("spacing 0.1", "spacing -0.1"),
        _RECT_TEXT.replace("size 4 4", "size 4 -4"),
        _RECT_TEXT.replace("size 4 4", "size 4.0 4"),
        _RECT_TEXT.replace("size 4 4", "size 4 5"),
        _RECT_TEXT.replace("mask\n", "masks\n"),
        _RECT_TEXT.replace("2 2 2 2\n2 1 1 2", "2 2 2\n2 1 1 2"),
        _SMALL_TEXT.replace("mask\n0 ", "mask\n7 "),
        _RECT_TEXT.replace("2 2 2 2\n2 1 1 2", "2 2 2 2\n2 1.0 1 2"),
        _RECT_TEXT.replace(_RECT_VALUES, _RECT_VALUES.replace(" 5.0 ", " x ")),
        _RECT_TEXT.replace(_RECT_VALUES, _RECT_VALUES.replace("7.0", "7.0 # seven")),
        _RECT_TEXT.replace(_RECT_VALUES, _RECT_VALUES.replace("\n12.0", "\n\n12.0")),
        _RECT_TEXT.replace(_RECT_VALUES, _RECT_VALUES[:-20]),
    ],
)
@pytest.mark.filterwarnings("error::UserWarning")
def test_grid_text_malformed_is_mesh_error(text):
    with pytest.raises(MeshError):
        grid_field_from_text(text)


def test_grid_text_non_finite_is_solver_error():
    with pytest.raises(SolverError, match="non-finite"):
        grid_field_from_text(_RECT_TEXT.replace(" 5.0 ", " inf "))


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(st.one_of(mutated_texts([_SMALL_TEXT, _RECT_TEXT]), st.text()))
def test_grid_field_from_text_gives_field_or_error(text):
    try:
        f = grid_field_from_text(text)
    except (MeshError, SolverError):
        return
    assert isinstance(f, GridField)


def test_predicate_grid_drops_orphans():
    # two inside nodes far from any interior node must be dropped
    def inside(X, Y):
        main = (X > 0.15) & (X < 0.85) & (Y > 0.15) & (Y < 0.85)
        orphan = (X < 0.05) & (Y < 0.05)
        return main | orphan

    grid = grid_from_predicate((0, 0), 0.05, 21, 21, inside)
    assert not (grid.interior_mask[0, 0] or grid.boundary_mask[0, 0])


@pytest.mark.parametrize(
    "g, message",
    [
        (lambda x, y: x[1:], "shape"),
        (lambda x, y: np.array([[x, y]]), "shape"),
        (lambda x, y: np.where(x > 0.5, np.nan, x), "non-finite"),
        (lambda x, y: np.array([x, np.where(y > 0.5, np.inf, y)]), "non-finite"),
    ],
)
def test_bad_boundary_data_raises(g, message):
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    with pytest.raises(SolverError, match=message):
        solve_nondivergence(grid, identity_field(), zero_drift(), g)


def test_two_rows_match_two_single_solves():
    sigma = meyers_sigma(2.0)
    b = to_nondivergence(sigma, step=1e-5)
    grid = annulus_grid((0, 0), 0.25, 0.95, 0.04)
    sol = meyers_solution(2.0)
    pair, residual = solve_nondivergence(grid, sigma, b, sol.value)
    singles = [
        solve_nondivergence(grid, sigma, b, lambda x, y, c=c: sol.value(x, y)[c])
        for c in (0, 1)
    ]
    assert len(pair) == 2
    for f, ((single,), _) in zip(pair, singles):
        assert np.array_equal(f.values, single.values)
    assert residual == max(r for _, r in singles)
    assert residual <= 1e-10


def test_singular_factorization_is_solver_error(monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr(fd, "splu", singular)
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    with pytest.raises(SolverError, match="singular"):
        solve_nondivergence(grid, identity_field(), zero_drift(), lambda x, y: x)


# The nested-dissection numbering of the interior nodes. A key's base-4 digit
# at a level is 0 or 1 for the two halves of a box and 2 for its middle line,
# so two nodes lie on opposite sides of one cut exactly when their digits at
# the most significant place where the keys differ are 0 and 1.


def _digits_where_keys_split(kp, kq):
    top = np.zeros(len(kp), dtype=np.int64)
    for place in range(32):
        top[(kp >> 2 * place) & 3 != (kq >> 2 * place) & 3] = place
    return (kp >> 2 * top) & 3, (kq >> 2 * top) & 3


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    shape=st.one_of(
        st.tuples(st.just("rect"), st.integers(3, 120), st.integers(3, 120)),
        st.tuples(st.just("annulus"), st.floats(0.05, 1.0), st.floats(4, 15)),
    ),
    spacing=st.floats(0.03, 0.1),
)
def test_nested_dissection_key_separates_neighbours(shape, spacing):
    kind, a, b = shape
    if kind == "rect":
        grid = rectangle_grid((0.0, 0.0), (a - 1) * spacing, (b - 1) * spacing, spacing)
    else:
        grid = annulus_grid((0.0, 0.0), a, a + b * spacing, spacing)
    jj, ii = np.where(grid.interior_mask)
    key = fd.nested_dissection_key(ii, jj)
    # distinct keys: the order is a permutation of the nodes that no tie-break decides
    assert len(np.unique(key)) == len(key) == grid.interior_mask.sum()
    position = np.full(grid.interior_mask.shape, -1)
    position[jj, ii] = np.arange(len(key))
    for di, dj in ((1, 0), (0, 1), (1, 1), (1, -1)):
        q = position[jj + dj, ii + di]
        p = np.flatnonzero(q >= 0)
        dp, dq = _digits_where_keys_split(key[p], key[q[p]])
        assert ((dp == 2) | (dq == 2)).all()


_SIGMA = meyers_sigma(2.0)


@pytest.mark.parametrize(
    "grid",
    [rectangle_grid((0.3, 0.2), 1.0, 1.0, 0.02),
     annulus_grid((0.0, 0.0), 0.25, 0.95, 0.02),
     rectangle_grid((0.3, 0.2), 4.0, 0.25, 0.02)],
    ids=["square", "annulus", "thin"],
)
def test_nested_dissection_solve_matches_mmd(monkeypatch, grid):
    b = to_nondivergence(_SIGMA, step=1e-5)
    g = meyers_solution(2.0).value
    pair, _ = solve_nondivergence(grid, _SIGMA, b, g)
    # the reference: row-major numbering, minimum-degree ordering on A + A^T
    real = fd.splu
    monkeypatch.setattr(fd, "nested_dissection_key", lambda ii, jj: np.arange(len(ii)))
    monkeypatch.setattr(
        fd, "splu",
        lambda A, **kw: real(A, permc_spec="MMD_AT_PLUS_A", options=dict(SymmetricMode=True)),
    )
    reference, _ = solve_nondivergence(grid, _SIGMA, b, g)
    for f, r in zip(pair, reference):
        assert np.abs(f.values - r.values).max() <= 1e-12 * np.abs(r.values).max()


def test_readme_solve_nd_fill(monkeypatch):
    factors = []
    real = fd.splu

    def recording(A, **kwargs):
        factors.append(real(A, **kwargs))
        return factors[-1]

    monkeypatch.setattr(fd, "splu", recording)
    grid = annulus_grid((0.0, 0.0), 0.25, 0.95, 0.02)
    solve_nondivergence(grid, _SIGMA, to_nondivergence(_SIGMA, 1e-5), meyers_solution(2.0).value)
    (lu,) = factors
    assert lu.L.nnz + lu.U.nnz <= 345_000


# The paper's second claim on a convex domain: a pair of solutions of one
# non-divergence equation whose boundary data is a homeomorphism onto a convex
# curve has a Jacobian of one sign inside. Pure z^2 data is a poor counter-case:
# for sigma = I the solution is holomorphic and its Jacobian vanishes at the
# branch point without changing sign. z^2 + c conj(z) (a harmonic map for
# sigma = I with Jacobian 4|z|^2 - |c|^2) folds, and its sign change survives a
# smooth perturbation of sigma.

_RECT = rectangle_grid((-0.5, -0.4), 1.0, 0.8, 0.04)  # centred at the origin
_MARGIN = 0.1


def _smooth_sigma(diag, amp, freq):
    a, d, c = diag
    k = freq

    def ev(X, Y):
        s11 = a + amp[0] * np.sin(k[0] * X + k[1] * Y)
        s22 = d + amp[1] * np.cos(k[2] * X - k[3] * Y)
        s12 = c + amp[2] * np.sin(k[4] * X * Y + k[5])
        return np.stack([np.stack([s11, s12], -1), np.stack([s12, s22], -1)], -2)

    return CoefficientField(ev, symmetric=True, descriptor="smooth")


SMOOTH_SIGMAS = st.builds(
    _smooth_sigma,
    st.tuples(st.floats(1.0, 2.0), st.floats(1.0, 2.0), st.floats(-0.3, 0.3)),
    st.tuples(*[st.floats(-0.25, 0.25)] * 3),
    st.tuples(*[st.floats(0.5, 3.0)] * 6),
)


def _central_det(f1, f2):
    """Central-difference det DU at the nodes inside the grid's outer ring,
    with their coordinates X, Y."""
    grid, h = f1.grid, f1.grid.spacing

    def d(u):
        return (u[1:-1, 2:] - u[1:-1, :-2]) / (2 * h), (u[2:, 1:-1] - u[:-2, 1:-1]) / (2 * h)

    (ax, ay), (bx, by) = d(f1.values), d(f2.values)
    X, Y = (c[1:-1, 1:-1] for c in grid.node_coordinates())
    return ax * by - ay * bx, X, Y


def _det_du_on_inset(f1, f2):
    """Central-difference det DU at the nodes at least _MARGIN inside _RECT."""
    det, X, Y = _central_det(f1, f2)
    return det[(np.abs(X) <= 0.5 - _MARGIN) & (np.abs(Y) <= 0.4 - _MARGIN)]


def _convex_data(kind, axes, theta, eps, phase, orientation):
    """Boundary data that is a homeomorphism of the rectangle's boundary onto a
    convex curve: the ellipse by polar angle (monotone reparametrized), or an
    invertible linear map onto a parallelogram."""
    R = np.array([[np.cos(theta), -np.sin(theta)], [np.sin(theta), np.cos(theta)]])
    M = R @ np.diag([axes[0], orientation * axes[1]])

    def g(x, y):
        if kind == "linear":
            return M @ np.array([x, y])
        t = np.arctan2(y, x)
        t = t + eps * np.sin(t + phase)
        return M @ np.array([np.cos(t), np.sin(t)])

    return g


@settings(max_examples=40, deadline=None, derandomize=True, database=None)
@given(
    sigma=SMOOTH_SIGMAS,
    kind=st.sampled_from(["ellipse", "linear"]),
    axes=st.tuples(st.floats(0.5, 2.0), st.floats(0.5, 2.0)),
    theta=st.floats(0.0, 2 * np.pi),
    eps=st.floats(-0.5, 0.5),
    phase=st.floats(0.0, 2 * np.pi),
    orientation=st.sampled_from([1, -1]),
    c_abs=st.floats(0.3, 0.5),
    c_arg=st.floats(0.0, 2 * np.pi),
)
def test_pair_jacobian_sign(sigma, kind, axes, theta, eps, phase, orientation, c_abs, c_arg):
    b = to_nondivergence(sigma, step=1e-5)
    data = _convex_data(kind, axes, theta, eps, phase, orientation)
    (u1, u2), _ = solve_nondivergence(_RECT, sigma, b, data)
    assert (orientation * _det_du_on_inset(u1, u2) > 0).all()

    z2 = holomorphic_oracle(2)
    c = c_abs * np.exp(1j * c_arg)

    def fold(x, y):
        w = c * (x - 1j * y)
        return z2.value(x, y) + np.array([w.real, w.imag])

    (v1, v2), _ = solve_nondivergence(_RECT, sigma, b, fold)
    det = _det_du_on_inset(v1, v2)
    assert (det < 0).any() and (det > 0).any()


def test_pair_jacobian_agrees_with_p1():
    # the same pair solved both ways: the FD pair with b = div sigma and the
    # P1 pair. Their det DU agree in sign at every interior grid node (read
    # from the P1 triangle containing it) and in size 0.1 inside the square;
    # the relative gap measured 0.0195 there. With b = 0 the FD pair is the
    # identity (det 1), which misses the P1 Jacobian by 0.30.
    sigma = holder_bump_field(1.0, 0.5, 0.5, 0.3, 0.7)

    def pair(x, y):
        return np.array([x, y])

    grid = rectangle_grid((0.0, 0.0), 1.0, 1.0, 0.025)
    (f1, f2), _ = solve_nondivergence(grid, sigma, to_nondivergence(sigma, step=1e-5), pair)
    det, X, Y = _central_det(f1, f2)
    p1_mesh = generate_rectangle((0.0, 0.0), 1.0, 1.0, 0.02)
    (u1, u2), _ = solve_dirichlet(p1_mesh, sigma, pair)
    tri, _ = p1_mesh.locate(np.column_stack([X.ravel(), Y.ravel()]))
    assert (tri >= 0).all()
    p1 = jacobian_field(MappingField(u1, u2))[tri].reshape(det.shape)
    assert (np.sign(det) == np.sign(p1)).all()
    inner = (np.minimum(X, 1 - X) >= 0.1) & (np.minimum(Y, 1 - Y) >= 0.1)
    assert (np.abs(det - p1) / np.abs(p1))[inner].max() <= 0.03
