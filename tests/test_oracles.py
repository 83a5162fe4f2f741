import math

import numpy as np
import pytest

from sigmalab import ConfigError, DegenerateInputError, ResourceLimitError
from sigmalab.analysis import injectivity_check
from sigmalab.oracles import (
    costheta_oracle,
    harmonic_oracle,
    holomorphic_oracle,
    identity_oracle,
    meyers_jacobian,
    meyers_solution,
    oracle_from_descriptor,
)
from reference import brute_force_injectivity, interior_lattice, mapping_field


def central_diff_gradient(sol, x, y, step=1e-5):
    if sol.components == 1:
        return np.array(
            [
                (sol.value(x + step, y) - sol.value(x - step, y)) / (2 * step),
                (sol.value(x, y + step) - sol.value(x, y - step)) / (2 * step),
            ]
        )
    return np.column_stack(
        [
            (sol.value(x + step, y) - sol.value(x - step, y)) / (2 * step),
            (sol.value(x, y + step) - sol.value(x, y - step)) / (2 * step),
        ]
    )


def test_meyers_alpha_one_is_identity():
    sol = meyers_solution(1.0)
    for p in [(0.3, 0.4), (-0.5, 0.1)]:
        assert np.allclose(sol.value(*p), p, atol=1e-15)
        assert np.allclose(sol.gradient(*p), np.eye(2), atol=1e-15)


def test_meyers_values():
    sol = meyers_solution(2.0)
    assert np.allclose(sol.value(1.0, 0.0), [1.0, 0.0])
    assert np.allclose(sol.value(0.5, 0.0), [0.25, 0.0])


def test_meyers_gradient_matches_central_differences():
    rng = np.random.default_rng(8)
    sol = meyers_solution(2.0)
    for _ in range(20):
        x, y = rng.uniform(0.2, 0.9), rng.uniform(0.2, 0.9)
        g = sol.gradient(x, y)
        fd = central_diff_gradient(sol, x, y)
        assert np.abs(g - fd).max() <= 1e-7


def test_meyers_radial_modulus():
    # |U(x)| = |x|^alpha for the radial power stretch
    rng = np.random.default_rng(9)
    for alpha in (0.5, 2.0, 3.0):
        sol = meyers_solution(alpha)
        for _ in range(10):
            p = rng.uniform(-1, 1, 2)
            r = math.hypot(*p)
            if r < 0.05:
                continue
            assert np.hypot(*sol.value(*p)) == pytest.approx(r**alpha, rel=1e-12)


def test_meyers_jacobian_formula():
    assert meyers_jacobian(2.0, [(1.0, 0.0)])[0] == pytest.approx(2.0)
    assert meyers_jacobian(1.0, [(0.37, -0.2)])[0] == pytest.approx(1.0)
    assert meyers_jacobian(2.0, [(0.0, 0.0)])[0] == 0.0
    with pytest.raises(DegenerateInputError):
        meyers_jacobian(0.5, [(0.0, 0.0)])


def test_meyers_jacobian_consistent_with_gradient():
    rng = np.random.default_rng(10)
    for alpha in (0.5, 2.0):
        sol = meyers_solution(alpha)
        for _ in range(50):
            p = rng.uniform(-1, 1, 2)
            if math.hypot(*p) < 0.05:
                continue
            det = float(np.linalg.det(sol.gradient(*p)))
            assert det == pytest.approx(meyers_jacobian(alpha, p[None])[0], abs=1e-12 * max(1, det))


def test_holomorphic_values():
    sol = holomorphic_oracle(1)
    assert np.allclose(sol.value(0.3, -0.7), [0.3, -0.7])
    sol2 = holomorphic_oracle(2)
    assert np.allclose(sol2.value(1.0, 1.0), [0.0, 2.0])  # (1+i)^2 = 2i


def test_holomorphic_jacobian_identity():
    # det DU = |m z^(m-1)|^2 for the pair (Re z^m, Im z^m)
    rng = np.random.default_rng(11)
    for m in (1, 2, 3):
        sol = holomorphic_oracle(m)
        for _ in range(10):
            x, y = rng.uniform(-1, 1, 2)
            det = float(np.linalg.det(sol.gradient(x, y)))
            expected = abs(m * complex(x, y) ** (m - 1)) ** 2
            assert det == pytest.approx(expected, abs=1e-12 * max(1.0, expected))


def test_oracle_gradient_invariant_all_kinds():
    rng = np.random.default_rng(12)
    oracles = [
        meyers_solution(2.0),
        holomorphic_oracle(2),
        identity_oracle(),
        harmonic_oracle("re-z2"),
        harmonic_oracle("im-z2"),
        costheta_oracle(),
    ]
    for sol in oracles:
        for _ in range(5):
            x, y = rng.uniform(0.3, 0.8, 2)
            fd = central_diff_gradient(sol, x, y)
            assert np.abs(np.asarray(sol.gradient(x, y)) - fd).max() <= 1e-6


def test_descriptor_resolution():
    assert oracle_from_descriptor("meyers:alpha=2").components == 2
    assert oracle_from_descriptor("meyers:alpha=2,component=1").components == 1
    assert oracle_from_descriptor("holo:m=2").components == 2
    assert oracle_from_descriptor("harmonic:re-z2").components == 1
    assert oracle_from_descriptor("x1").components == 1
    assert oracle_from_descriptor("identity").components == 2
    with pytest.raises(ConfigError):
        oracle_from_descriptor("nope:test=1")


def test_brute_force_identity(disk_mesh):
    U = mapping_field(identity_oracle(), disk_mesh)
    assert brute_force_injectivity(U, 0.1) is True


def test_brute_force_z2_finds_collision(disk_mesh):
    U = mapping_field(holomorphic_oracle(2), disk_mesh)
    assert brute_force_injectivity(U, 0.1) is False


def test_brute_force_budget(disk_mesh):
    with pytest.raises(ResourceLimitError):
        brute_force_injectivity(mapping_field(identity_oracle(), disk_mesh), 0.004)


def test_brute_force_agrees_with_geometric_check(annulus_mesh, disk_mesh):
    cases = [
        (mapping_field(identity_oracle(), disk_mesh), 0.1),
        (mapping_field(holomorphic_oracle(2), disk_mesh), 0.1),
        (mapping_field(meyers_solution(0.5), annulus_mesh), 0.05),
        (mapping_field(meyers_solution(1.0), annulus_mesh), 0.05),
        (mapping_field(meyers_solution(2.0), annulus_mesh), 0.05),
    ]
    for U, step in cases:
        assert brute_force_injectivity(U, step) == injectivity_check(U).injective


def test_interior_lattice_inside(disk_mesh):
    pts = interior_lattice(disk_mesh, 0.2)
    assert len(pts) > 0
    assert (np.hypot(pts[:, 0], pts[:, 1]) <= 1.0 + 1e-9).all()
