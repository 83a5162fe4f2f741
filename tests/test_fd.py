import numpy as np
import pytest

from sigmalab import MeshError, SolverError
from sigmalab.coefficients import (
    CoefficientField,
    constant_field,
    identity_field,
    meyers_sigma,
)
from sigmalab.fd import (
    GridDomain,
    GridField,
    annulus_grid,
    grid_field_from_text,
    grid_from_predicate,
    read_grid_field,
    rectangle_grid,
    solve_nondivergence,
    to_nondivergence,
    write_grid_field,
    zero_drift,
)
from sigmalab.oracles import meyers_solution


def rel_l2(grid, field, exact):
    pts = grid.points(grid.interior_mask)
    ref = exact(*pts.T)
    uh = field.values[grid.interior_mask]
    return float(np.sqrt(np.sum((uh - ref) ** 2) / np.sum(ref**2)))


def test_affine_data_exact():
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    u = solve_nondivergence(grid, identity_field(), zero_drift(), lambda x, y: 1 + 2 * x - y)
    pts = grid.points(grid.interior_mask)
    exact = 1 + 2 * pts[:, 0] - pts[:, 1]
    assert np.abs(u.values[grid.interior_mask] - exact).max() <= 1e-10


def test_bilinear_data_exact_for_cross_stencil():
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    u = solve_nondivergence(grid, identity_field(), zero_drift(), lambda x, y: x * y)
    pts = grid.points(grid.interior_mask)
    assert np.abs(u.values[grid.interior_mask] - pts[:, 0] * pts[:, 1]).max() <= 1e-9


def test_harmonic_convergence_factor():
    exact = lambda x, y: x * x - y * y

    def err(s):
        grid = rectangle_grid((0, 0), 1.0, 1.0, s)
        u = solve_nondivergence(grid, identity_field(), zero_drift(), exact)
        return rel_l2(grid, u, exact)

    # x^2 - y^2 is stencil-exact; use a genuinely curved harmonic instead
    exact = lambda x, y: np.exp(x) * np.cos(y)
    assert err(0.1) / err(0.05) >= 3.0


def test_meyers_annulus_nondivergence():
    sigma, b = to_nondivergence(meyers_sigma(2.0), step=1e-5)
    grid = annulus_grid((0, 0), 0.25, 0.95, 0.04)
    sol = meyers_solution(2.0)
    u = solve_nondivergence(grid, sigma, b, lambda x, y: sol.value(x, y)[0])
    err = rel_l2(grid, u, lambda x, y: sol.value(x, y)[0])
    assert err < 0.01


def test_to_nondivergence_cases():
    sigma, b = to_nondivergence(identity_field(), step=1e-4)
    assert b.at(0.3, 0.7) == pytest.approx((0.0, 0.0), abs=1e-12)

    ramp = CoefficientField(
        lambda X, Y: np.eye(2) + X[:, None, None] * [[1.0, 0.0], [0.0, 0.0]],
        symmetric=True,
        descriptor="ramp",
    )
    _, b = to_nondivergence(ramp, step=1e-4)
    v = b.at(0.2, -0.3)
    assert v[0] == pytest.approx(1.0, abs=1e-8)
    assert v[1] == pytest.approx(0.0, abs=1e-8)

    _, b3 = to_nondivergence(meyers_sigma(2.0), step=1e-3)
    _, b4 = to_nondivergence(meyers_sigma(2.0), step=1e-4)
    d = np.abs(np.array(b3.at(0.5, 0.5)) - np.array(b4.at(0.5, 0.5))).max()
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
    write_grid_field(f, p1)
    back = read_grid_field(p1)
    write_grid_field(back, p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.values, f.values)
    assert np.array_equal(back.grid.interior_mask, grid.interior_mask)


def test_grid_text_rejects_garbage():
    with pytest.raises(MeshError):
        grid_field_from_text("grid v2\n")


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
        (lambda x, y: np.array([x, y]), "rows"),
        (lambda x, y: x[1:], "shape"),
        (lambda x, y: np.where(x > 0.5, np.nan, x), "non-finite"),
    ],
)
def test_bad_boundary_data_raises(g, message):
    grid = rectangle_grid((0, 0), 1.0, 1.0, 0.1)
    with pytest.raises(SolverError, match=message):
        solve_nondivergence(grid, identity_field(), zero_drift(), g)
