"""Property tests of the array evaluation contract.

Each array entry point is compared with a point-by-point reference: the
array path must give what the same computation gives one point at a time,
as a one-row array call.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from sigmalab.coefficients import (
    divergence_of_sigma,
    ellipticity_report,
    random_holder_field,
    random_nonsymmetric_field,
)
from sigmalab.oracles import (
    costheta_oracle,
    harmonic_oracle,
    holomorphic_oracle,
    identity_oracle,
    meyers_jacobian,
    meyers_solution,
)
from reference import library_fields

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

FIELDS = st.one_of(
    st.sampled_from(library_fields()),
    st.integers(0, 2**20).map(random_holder_field),
    st.integers(0, 2**20).map(random_nonsymmetric_field),
)

# away from the origin, where the radial family is discontinuous
POINTS = st.lists(
    st.tuples(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0)).filter(
        lambda p: math.hypot(*p) > 2e-3
    ),
    min_size=1,
    max_size=40,
).map(np.array)

STEPS = st.sampled_from([1e-3, 1e-4, 1e-5])


def _min_sym_eig(m):
    half = 0.5 * (m[0, 1] + m[1, 0])
    mean = 0.5 * (m[0, 0] + m[1, 1])
    return mean - np.hypot(0.5 * (m[0, 0] - m[1, 1]), half)


def reference_report(field, points):
    """The ellipticity estimate as a loop over the points: (K, worst point)."""
    worst, worst_point = math.inf, None
    for x, y in points:
        m = field.at_points([(x, y)])[0]
        det = m[0, 0] * m[1, 1] - m[0, 1] * m[1, 0]
        inv = np.array([[m[1, 1], -m[0, 1]], [-m[1, 0], m[0, 0]]]) / det
        local = min(_min_sym_eig(m), _min_sym_eig(inv))
        if local < worst:
            worst, worst_point = local, (float(x), float(y))
    return 1.0 / worst, worst_point


@PROPERTY
@given(FIELDS, POINTS)
def test_at_points_matches_one_row_calls(field, points):
    S = field.at_points(points)
    assert S.shape == (len(points), 2, 2)
    for k, p in enumerate(points):
        assert np.array_equal(S[k], field.at_points([p])[0])


@PROPERTY
@given(FIELDS, POINTS)
def test_ellipticity_report_matches_point_loop(field, points):
    report = ellipticity_report(field, points)
    K, worst_point = reference_report(field, points)
    assert report.sample_count == len(points)
    assert report.worst_point == worst_point
    assert report.K_estimate == pytest.approx(K, rel=1e-14, abs=0.0)


@PROPERTY
@given(FIELDS, POINTS, STEPS)
def test_divergence_matches_point_calls(field, points, step):
    b = divergence_of_sigma(field, points, step)
    assert b.shape == (len(points), 2)
    for k, p in enumerate(points):
        assert np.array_equal(b[k], divergence_of_sigma(field, p[None], step)[0])


ORACLES = [
    meyers_solution(0.5),
    meyers_solution(2.0),
    holomorphic_oracle(3),
    identity_oracle(),
    harmonic_oracle("x1"),
    harmonic_oracle("im-z2"),
    costheta_oracle(),
    meyers_solution(2.0).component(1),
]


@PROPERTY
@given(st.sampled_from(ORACLES), POINTS)
def test_oracle_arrays_match_point_calls(sol, points):
    X, Y = points.T
    value, gradient = sol.value(X, Y), sol.gradient(X, Y)
    assert np.shape(value) == (2,) * (sol.components - 1) + X.shape
    assert np.shape(gradient) == (2,) * sol.components + X.shape
    for k, (x, y) in enumerate(points):
        # the point axis is the last one; a single point's power may take
        # another libm path than the array's, hence a tolerance of a few ulps
        np.testing.assert_allclose(value[..., k], sol.value(x, y), rtol=1e-14, atol=0)
        np.testing.assert_allclose(gradient[..., k], sol.gradient(x, y), rtol=1e-14, atol=0)


@PROPERTY
@given(st.sampled_from([0.5, 1.0, 2.0, 3.0]), POINTS)
def test_meyers_jacobian_arrays_match_point_calls(alpha, points):
    det = meyers_jacobian(alpha, points)
    assert det.shape == (len(points),)
    for k, p in enumerate(points):
        assert det[k] == pytest.approx(meyers_jacobian(alpha, p[None])[0], rel=1e-14, abs=0.0)
