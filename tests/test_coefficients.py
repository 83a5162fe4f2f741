import math

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmalab import ConfigError, EllipticityError, MeshError, ResourceLimitError
from sigmalab.cli import DOMAINS
from sigmalab.coefficients import (
    FIELDS,
    CoefficientField,
    anisotropic_field,
    constant_field,
    dilatation_bound,
    dilatations,
    divergence_of_sigma,
    ellipticity_report,
    field_from_descriptor,
    holder_bump_field,
    identity_field,
    library_fields,
    meyers_sigma,
    nonsymmetric_field,
    parse_descriptor,
    parse_family,
    random_holder_field,
    random_nonsymmetric_field,
)
from sigmalab.mesh import Mesh
from sigmalab.oracles import ORACLES, AnalyticSolution, oracle_from_descriptor

CIRCLE = [(0.5 * math.cos(t), 0.5 * math.sin(t)) for t in np.linspace(0, 2 * math.pi, 40, endpoint=False)]


def test_identity_K_is_one():
    rep = ellipticity_report(identity_field(), CIRCLE)
    assert rep.K_estimate == pytest.approx(1.0)
    assert rep.elliptic


def test_meyers_K_equals_alpha():
    # eigenvalues are alpha and 1/alpha, so K = alpha
    rep = ellipticity_report(meyers_sigma(2.0), CIRCLE)
    assert rep.K_estimate == pytest.approx(2.0, abs=1e-12)


def test_non_elliptic_reported_not_raised():
    rep = ellipticity_report(constant_field([[1, 0], [0, -1]]), CIRCLE)
    assert not rep.elliptic
    assert rep.min_sym_eig < 0
    assert rep.K_estimate is None


def test_singular_sample_raises():
    with pytest.raises(EllipticityError):
        ellipticity_report(constant_field([[1, 0], [0, 0]]), CIRCLE)


def test_dilatations_identity():
    d = dilatations(np.eye(2))
    assert d.mu == 0 and d.nu == 0


def test_dilatations_diag_hand_value():
    # tr = 2.5, det = 1, denominator 4.5: mu = -1.5/4.5, nu = 0
    d = dilatations(np.diag([2.0, 0.5]))
    assert d.mu == pytest.approx(-1.0 / 3.0)
    assert d.nu == pytest.approx(0.0)


def test_dilatations_meyers_modulus():
    # det = 1 and |s22 - s11 - 2 i s12| = (alpha - 1/alpha) for the symmetric family
    field = meyers_sigma(2.0)
    for p in [(0.3, 0.4), (-0.7, 0.2), (0.5, 0.5)]:
        d = dilatations(field.at(*p))
        assert abs(d.mu) == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert abs(d.nu) == pytest.approx(0.0, abs=1e-14)


def test_dilatation_bound_identity_zero():
    assert dilatation_bound(identity_field(), CIRCLE) == 0.0


def test_dilatation_bound_meyers():
    assert dilatation_bound(meyers_sigma(2.0), CIRCLE) == pytest.approx(1 / 3, abs=1e-9)
    assert dilatation_bound(meyers_sigma(4.0), CIRCLE) == pytest.approx(0.6, abs=1e-9)


def test_meyers_matrix_on_axes():
    f = meyers_sigma(2.0)
    assert np.allclose(f.at(1.0, 0.0), [[0.5, 0.0], [0.0, 2.0]])
    assert np.allclose(f.at(0.0, 1.0), [[2.0, 0.0], [0.0, 0.5]])


def test_meyers_alpha_one_is_identity():
    f = meyers_sigma(1.0)
    for p in CIRCLE[:7]:
        assert np.allclose(f.at(*p), np.eye(2), atol=1e-15)


def test_meyers_origin_raises():
    with pytest.raises(EllipticityError):
        meyers_sigma(2.0).at(0.0, 0.0)


def test_meyers_det_is_one():
    f = meyers_sigma(3.0)
    rng = np.random.default_rng(0)
    for _ in range(25):
        p = rng.uniform(-1, 1, 2)
        if np.hypot(*p) < 1e-3:
            continue
        m = f.at(*p)
        assert np.linalg.det(m) == pytest.approx(1.0, abs=1e-12)


def test_random_elliptic_matrices_have_bound_below_one():
    # SVD-form random matrices, filtered by the pointwise ellipticity test
    rng = np.random.default_rng(42)
    K = 3.0
    accepted = 0
    for _ in range(500):
        t1, t2 = rng.uniform(0, 2 * math.pi, 2)
        lam = rng.uniform(1 / K, K, 2)
        R1 = np.array([[math.cos(t1), -math.sin(t1)], [math.sin(t1), math.cos(t1)]])
        R2 = np.array([[math.cos(t2), -math.sin(t2)], [math.sin(t2), math.cos(t2)]])
        m = R1.T @ np.diag(lam) @ R2
        rep = ellipticity_report(constant_field(m), [(0.0, 0.0)])
        if not rep.elliptic:
            continue
        accepted += 1
        assert dilatations(m).magnitude < 1.0
    assert accepted > 100


def test_dilatations_continuity():
    rng = np.random.default_rng(3)
    base = np.array([[1.5, 0.2], [-0.1, 0.8]])
    d0 = dilatations(base)
    for _ in range(20):
        pert = base + rng.uniform(-1e-9, 1e-9, (2, 2))
        d1 = dilatations(pert)
        assert abs(d1.mu - d0.mu) <= 1e-7
        assert abs(d1.nu - d0.nu) <= 1e-7


def test_divergence_constant_field_is_zero():
    b = divergence_of_sigma(identity_field(), (0.3, 0.4), 1e-4)
    assert abs(b[0]) < 1e-12 and abs(b[1]) < 1e-12


def test_divergence_linear_entry():
    import sigmalab.coefficients as co

    field = co.CoefficientField(
        lambda X, Y: X[:, None, None] * np.eye(2), symmetric=True, descriptor="x*I"
    )
    b = divergence_of_sigma(field, (0.7, -0.2), 1e-4)
    assert b[0] == pytest.approx(1.0, abs=1e-6)
    assert b[1] == pytest.approx(0.0, abs=1e-6)


def test_divergence_meyers_richardson():
    f = meyers_sigma(2.0)
    b3 = divergence_of_sigma(f, (0.5, 0.0), 1e-3)
    b4 = divergence_of_sigma(f, (0.5, 0.0), 1e-4)
    assert max(abs(b3[0] - b4[0]), abs(b3[1] - b4[1])) <= 1e-4


def test_divergence_second_order_decay():
    field = holder_bump_field(0.5, 0.1, -0.2, 0.4, 0.3)
    p = (0.25, 0.15)
    ref = divergence_of_sigma(field, p, 1e-6)

    def err(step):
        b = divergence_of_sigma(field, p, step)
        return math.hypot(b[0] - ref[0], b[1] - ref[1])

    ratio = err(2e-2) / err(1e-2)
    assert 3.0 <= ratio <= 5.0


def test_descriptor_parsing():
    name, params = parse_descriptor("aniso:l1=2,l2=0.5,theta=0.3")
    assert name == "aniso" and params == {"l1": 2.0, "l2": 0.5, "theta": 0.3}
    assert field_from_descriptor("identity").descriptor == "identity"
    assert field_from_descriptor("meyers:alpha=2").descriptor == "meyers:alpha=2.0"
    with pytest.raises(ConfigError):
        field_from_descriptor("unknown:a=1")
    with pytest.raises(ConfigError):
        field_from_descriptor("aniso:l1=junk")
    with pytest.raises(ConfigError):
        field_from_descriptor("meyers")  # missing alpha


TABLES = (FIELDS, ORACLES, DOMAINS)
NAMES = sorted({name for table in TABLES for name in table}) + ["harmonic", "bogus", ""]
KEYS = sorted(
    {k for table in TABLES for f in table.values() for k in f.required + tuple(f.optional)}
) + ["foo"]
#: values that parse, and values that parse to nothing usable
GOOD = st.one_of(st.integers(1, 3).map(str), st.floats(0.2, 3).map(repr))
ANY = st.one_of(
    st.sampled_from(["inf", "-inf", "nan", "1e400", "1.5", "-1", "0", "x", ""]),
    st.integers(-2, 5).map(str),
    st.floats().map(repr),
    GOOD,
)


@st.composite
def descriptors(draw):
    """A name with its family's required keys and some optional ones; half of
    the draws add keys of any family (unknown or repeated ones among them)
    and values of any kind."""
    name = draw(st.sampled_from(NAMES))
    family = next((table[name] for table in TABLES if name in table), None)
    keys = list(family.required) if family else []
    keys += [k for k in (family.optional if family else ()) if draw(st.booleans())]
    values = GOOD
    if draw(st.booleans()):
        keys += draw(st.lists(st.sampled_from(KEYS), max_size=2))
        values = ANY
    items = ",".join(f"{k}={draw(values)}" for k in draw(st.permutations(keys)))
    return f"{name}:{items}" if items else name


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(text=descriptors())
@example(text="meyers:alpha=inf")
@example(text="holder:eps=nan")
@example(text="nonsym:tau=inf")
@example(text="aniso:l1=1e400")
@example(text="costheta:cx=nan")
@example(text="randholder:seed=-1")
@example(text="holo:m=2.5")
@example(text="meyers:alpha=2,component=1.5")
def test_descriptor_gives_object_or_config_error(text):
    for resolve, kind in ((field_from_descriptor, CoefficientField),
                          (oracle_from_descriptor, AnalyticSolution)):
        try:
            assert isinstance(resolve(text), kind)
        except ConfigError:
            pass
    try:
        name, p = parse_family(text, DOMAINS, "domain")
    except ConfigError:
        return
    # a domain that parses may still be too small or too large to mesh
    try:
        assert isinstance(DOMAINS[name].build(p, 0.5), Mesh)
    except (MeshError, ResourceLimitError):
        pass


def test_integral_parameters_reach_builders_as_ints():
    assert field_from_descriptor("randholder:seed=3.0").descriptor == "randholder:seed=3"
    assert oracle_from_descriptor("holo:m=2,component=2.0").descriptor == "holo:m=2#u2"


def test_library_fields_all_elliptic():
    for f in library_fields():
        samples = [p for p in CIRCLE]
        k = dilatation_bound(f, samples)
        assert k < 1.0


def test_seeded_random_fields_reproducible_and_elliptic():
    a = random_holder_field(11)
    b = random_holder_field(11)
    p = (0.3, -0.4)
    assert np.array_equal(a.at(*p), b.at(*p))
    rep = ellipticity_report(a, CIRCLE)
    assert rep.elliptic
    n = random_nonsymmetric_field(5)
    assert not n.symmetric
    assert dilatation_bound(n, CIRCLE) < 1.0


def test_anisotropic_rotation():
    f = anisotropic_field(2.0, 0.5, theta=math.pi / 2)
    # quarter turn swaps the axes
    assert np.allclose(f.at(0, 0), [[0.5, 0], [0, 2.0]], atol=1e-12)
