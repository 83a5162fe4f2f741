"""Coefficient matrices sigma(x), ellipticity checks, and complex dilatations.

A coefficient field is an array evaluator: coordinate arrays (X, Y) of shape
(n,) map to an (n, 2, 2) array of matrices, one per point. The solvers decide
where to sample it (triangle centroids, grid nodes) and sample each set once.
Evaluators must be pure functions so fields can be shared freely.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, NamedTuple, Optional

import numpy as np

from .errors import ConfigError, EllipticityError, NotEllipticError

#: counterclockwise quarter rotation; div(J grad u) vanishes identically
ROTATION = np.array([[0.0, -1.0], [1.0, 0.0]])

_SINGULAR_DET = 1e-12


def _evaluate(evaluator, points, tail: tuple, what: str) -> tuple[np.ndarray, np.ndarray]:
    """(points as (n, 2), evaluator output of shape (n,) + tail), checked finite."""
    P = np.asarray(points, dtype=float).reshape(-1, 2)
    X, Y = np.ascontiguousarray(P.T)
    V = np.asarray(evaluator(X, Y), dtype=float)
    if V.shape != (len(P),) + tail:
        raise EllipticityError(
            f"{what} returned shape {V.shape}, expected {(len(P),) + tail}"
        )
    finite = np.isfinite(V).all(axis=tuple(range(1, V.ndim)))
    _raise_at_first(P, ~finite, f"{what} has non-finite entries")
    return P, V


def _raise_at_first(P: np.ndarray, bad: np.ndarray, message: str) -> None:
    if bad.any():
        x, y = P[int(np.argmax(bad))]
        raise EllipticityError(f"{message} at ({x}, {y})")


@dataclass(frozen=True)
class CoefficientField:
    """Matrix-valued map x -> sigma(x).

    evaluator takes coordinate arrays (X, Y) of shape (n,) and returns an
    (n, 2, 2) array; symmetric is the caller's claim, checked wherever
    matrices are evaluated.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    symmetric: bool
    descriptor: str

    def at_points(self, points) -> np.ndarray:
        P, S = _evaluate(self.evaluator, points, (2, 2), f"field '{self.descriptor}'")
        if self.symmetric:
            _raise_at_first(
                P,
                np.abs(S[:, 0, 1] - S[:, 1, 0]) > 1e-12 * (1.0 + np.abs(S[:, 0, 1])),
                f"field '{self.descriptor}' claims symmetry but sigma12 != sigma21",
            )
        return S


@dataclass(frozen=True)
class VectorField2:
    """Vector-valued map x -> b(x), the lower-order coefficient.

    evaluator takes coordinate arrays (X, Y) of shape (n,) and returns an
    (n, 2) array.
    """

    evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray]
    descriptor: str = ""

    def at_points(self, points) -> np.ndarray:
        return _evaluate(self.evaluator, points, (2,), f"vector field '{self.descriptor}'")[1]


@dataclass(frozen=True)
class EllipticityReport:
    """Sampled ellipticity summary.

    K_estimate is 1 / min(min_sym_eig, min_inv_sym_eig) when the field passes
    (both minima positive) and None otherwise. samples holds sigma at the
    sample points, shape (n, 2, 2).
    """

    K_estimate: Optional[float]
    min_sym_eig: float
    min_inv_sym_eig: float
    sample_count: int
    worst_point: tuple[float, float]
    samples: np.ndarray = field(repr=False, compare=False)

    @property
    def elliptic(self) -> bool:
        return min(self.min_sym_eig, self.min_inv_sym_eig) > 0.0

    def to_dict(self) -> dict:
        return {
            "K_estimate": self.K_estimate,
            "min_sym_eig": self.min_sym_eig,
            "min_inv_sym_eig": self.min_inv_sym_eig,
            "sample_count": self.sample_count,
            "worst_point": list(self.worst_point),
            "elliptic": self.elliptic,
        }


@dataclass(frozen=True)
class DilatationPair:
    mu: complex | np.ndarray
    nu: complex | np.ndarray

    @property
    def magnitude(self) -> float | np.ndarray:
        return abs(self.mu) + abs(self.nu)


def _min_sym_eig(S: np.ndarray) -> np.ndarray:
    # eigenvalues of the symmetric part; only it enters sigma xi . xi
    half = 0.5 * (S[..., 0, 1] + S[..., 1, 0])
    mean = 0.5 * (S[..., 0, 0] + S[..., 1, 1])
    rad = np.hypot(0.5 * (S[..., 0, 0] - S[..., 1, 1]), half)
    return mean - rad


def _exponent(S: np.ndarray) -> np.ndarray:
    """e with the largest |entry| of each matrix of a (..., 2, 2) stack in
    [2**(e - 1), 2**e) (0 for a zero matrix); elementwise maxima, as numpy
    reduces over two trailing axes of length 2 ten times slower."""
    a = np.abs(S)
    top, bottom = np.maximum(a[..., 0, 0], a[..., 0, 1]), np.maximum(a[..., 1, 0], a[..., 1, 1])
    return np.frexp(np.maximum(top, bottom))[1]


def ellipticity_report(field: CoefficientField, sample_points) -> EllipticityReport:
    """Estimate the ellipticity constant K over a sample set.

    Both quadratic-form bounds are sampled: the least eigenvalue of sym(sigma)
    and of sym(sigma^{-1}). Raises on singular or non-finite samples; a
    non-elliptic field is reported, not raised (K_estimate None).
    """
    pts = np.asarray(sample_points, dtype=float).reshape(-1, 2)
    if len(pts) == 0:
        raise EllipticityError("ellipticity check needs a nonempty sample set")
    samples = field.at_points(pts)
    # sigma = 2**shift S, the largest entry of each S in [1, 2); the scaling is
    # exact and keeps det S, S^{-1} and the eigenvalues in range
    shift = _exponent(samples) - 1
    S = np.ldexp(samples, -shift[:, None, None])
    det = S[:, 0, 0] * S[:, 1, 1] - S[:, 0, 1] * S[:, 1, 0]
    # |det sigma| = 4**shift |det S| <= 1e-12; |det S| < 8, so the cap changes no verdict
    singular = np.abs(det) <= np.ldexp(_SINGULAR_DET, np.minimum(-2 * shift, 64))
    _raise_at_first(pts, singular, "sigma is numerically singular")
    # transpose of S^{-1}; only its diagonal and symmetric part are used
    inv_t = S[:, ::-1, ::-1] * [[1.0, -1.0], [-1.0, 1.0]] / det[:, None, None]
    e1 = np.ldexp(_min_sym_eig(S), shift)
    e2 = np.ldexp(_min_sym_eig(inv_t), -shift)
    local = np.minimum(e1, e2)
    i = int(np.argmin(local))
    worst = float(local[i])
    return EllipticityReport(
        K_estimate=1.0 / worst if worst > 0 else None,
        min_sym_eig=float(e1.min()),
        min_inv_sym_eig=float(e2.min()),
        sample_count=len(pts),
        worst_point=(float(pts[i, 0]), float(pts[i, 1])),
        samples=samples,
    )


def require_elliptic(field: CoefficientField, sample_points) -> EllipticityReport:
    """Sample sigma once and check ellipticity there; the report holds the samples.

    A non-elliptic field raises NotEllipticError, which is also a ConfigError.
    """
    report = ellipticity_report(field, sample_points)
    if not report.elliptic:
        raise NotEllipticError(
            f"field '{field.descriptor}' is not elliptic: min symmetric-part "
            f"eigenvalue {min(report.min_sym_eig, report.min_inv_sym_eig):.3e} "
            f"at {report.worst_point}"
        )
    return report


def dilatations(m) -> DilatationPair:
    """Complex dilatations (mu, nu) of a 2x2 matrix or of a stack (..., 2, 2).

    mu = (s22 - s11 - i(s12 + s21)) / (1 + tr + det)
    nu = (1 - det + i(s12 - s21)) / (1 + tr + det)

    With every entry below 2**511 nothing here overflows. A matrix with a
    larger entry is written sigma = S / t, with t the power of two that puts
    that entry in [2**510, 2**511), and both fractions are multiplied through
    by t**2 (at least 2**-1026, so the 1 terms stay exact powers of two).
    """
    m = np.asarray(m, dtype=float)
    shift = np.maximum(_exponent(m) - 511, 0)
    t = np.ldexp(1.0, -shift)
    S = np.ldexp(m, -shift[..., None, None])
    s11, s12, s21, s22 = S[..., 0, 0], S[..., 0, 1], S[..., 1, 0], S[..., 1, 1]
    det = s11 * s22 - s12 * s21
    tt = t * t
    denom = tt + t * (s11 + s22) + det
    if np.any(np.abs(denom) <= 1e-14 * tt):
        raise EllipticityError(
            "1 + tr(sigma) + det(sigma) vanishes; matrix is not elliptic"
        )
    mu = (t * (s22 - s11) - 1j * (t * (s12 + s21))) / denom
    nu = (tt - det + 1j * (t * (s12 - s21))) / denom
    return DilatationPair(mu=mu, nu=nu)


def max_dilatation(samples) -> float:
    """Supremum of |mu| + |nu| over elliptic (n, 2, 2) samples; must come out below 1."""
    k = float(np.max(dilatations(samples).magnitude))
    if not k < 1.0:
        raise EllipticityError(f"dilatation bound {k} is not below 1")
    return k


def divergence_of_sigma(field: CoefficientField, p, step: float) -> np.ndarray:
    """Central-difference row divergence (d1 s11 + d2 s21, d1 s12 + d2 s22)
    at each row of the (n, 2) array p, as an (n, 2) array."""
    if not step > 0:
        raise ConfigError("finite-difference step must be positive")
    pts = np.asarray(p, dtype=float).reshape(-1, 2)
    unresolved = ((pts + step == pts) | (pts - step == pts)).any(axis=1)
    if unresolved.any():
        x, y = pts[np.argmax(unresolved)]
        raise ConfigError(
            f"finite-difference step {step} is below the resolution of the coordinates "
            f"at ({x:.6g}, {y:.6g})"
        )
    # b_j = sum_a d_a s_aj: row a of sigma differenced along axis a
    return sum(
        (field.at_points(pts + e)[:, a] - field.at_points(pts - e)[:, a]) / (2 * step)
        for a, e in enumerate(np.eye(2) * step)
    )


# ---------------------------------------------------------------------------
# built-in field library


def identity_field() -> CoefficientField:
    return constant_field(np.eye(2), descriptor="identity")


def constant_field(matrix, descriptor: str = "const") -> CoefficientField:
    m = np.array(matrix, dtype=float)
    sym = abs(m[0, 1] - m[1, 0]) < 1e-15
    return CoefficientField(
        lambda X, Y: np.tile(m, (len(X), 1, 1)), symmetric=sym, descriptor=descriptor
    )


def anisotropic_field(l1: float, l2: float, theta: float = 0.0) -> CoefficientField:
    """Constant rotated-anisotropic field R diag(l1, l2) R^T."""
    c, s = math.cos(theta), math.sin(theta)
    R = np.array([[c, -s], [s, c]])
    m = R @ np.diag([l1, l2]) @ R.T
    return constant_field(m, descriptor=f"aniso:l1={l1},l2={l2},theta={theta}")


def meyers_sigma(alpha: float) -> CoefficientField:
    """Radial coefficient family with eigenvalues alpha and 1/alpha.

    Entries are homogeneous of degree zero, smooth away from the origin and
    discontinuous there (for alpha != 1). Evaluation at the origin raises.
    """
    if not alpha > 0:
        raise ConfigError("meyers alpha must be positive")
    ai = 1.0 / alpha

    def ev(X, Y):
        r2 = X * X + Y * Y
        if np.any(r2 == 0.0):
            raise EllipticityError("sigma is discontinuous at 0; cannot evaluate there")
        off = (ai - alpha) * X * Y / r2
        s11, s22 = (ai * X * X + alpha * Y * Y) / r2, (alpha * X * X + ai * Y * Y) / r2
        return np.stack([s11, off, off, s22], axis=-1).reshape(-1, 2, 2)

    return CoefficientField(ev, symmetric=True, descriptor=f"meyers:alpha={alpha}")


def _bump(X, Y, cx, cy, w) -> np.ndarray:
    return np.exp(-((X - cx) ** 2 + (Y - cy) ** 2) / (w * w))[:, None, None]


def holder_bump_field(
    eps: float, cx: float, cy: float, w: float, theta: float
) -> CoefficientField:
    """Identity plus a smooth rank-one Gaussian bump: I + eps exp(-|x-c|^2/w^2) dd^T."""
    if eps <= -1.0:
        raise ConfigError("holder bump needs eps > -1 for ellipticity")
    if w <= 0:
        raise ConfigError("holder bump width must be positive")
    d = np.array([math.cos(theta), math.sin(theta)])
    P = np.outer(d, d)
    eye = np.eye(2)

    def ev(X, Y):
        return eye + (eps * _bump(X, Y, cx, cy, w)) * P

    return CoefficientField(
        ev,
        symmetric=True,
        descriptor=f"holder:eps={eps},cx={cx},cy={cy},w={w},theta={theta}",
    )


def nonsymmetric_field(tau: float, base: Optional[CoefficientField] = None) -> CoefficientField:
    """Symmetric base plus tau J; the skew part never enters sigma xi . xi."""
    if base is None:
        base = identity_field()
    skew = tau * ROTATION

    def ev(X, Y):
        return base.evaluator(X, Y) + skew

    return CoefficientField(
        ev, symmetric=False, descriptor=f"nonsym:tau={tau},base={base.descriptor}"
    )


def random_holder_field(seed: int) -> CoefficientField:
    """Seeded smooth symmetric field: identity plus 2-3 nonnegative bumps."""
    if seed < 0:
        raise ConfigError(f"seed must be nonnegative, got {seed}")
    rng = np.random.default_rng(seed)
    nb = int(rng.integers(2, 4))
    bumps = []
    for _ in range(nb):
        c = rng.uniform(-0.7, 0.7, size=2)
        w = rng.uniform(0.3, 0.7)
        eps = rng.uniform(0.1, 0.5)
        th = rng.uniform(0.0, math.pi)
        d = np.array([math.cos(th), math.sin(th)])
        bumps.append((c[0], c[1], w, eps, np.outer(d, d)))
    eye = np.eye(2)

    def ev(X, Y):
        m = np.tile(eye, (len(X), 1, 1))
        for cx, cy, w, eps, P in bumps:
            m += eps * _bump(X, Y, cx, cy, w) * P
        return m

    return CoefficientField(ev, symmetric=True, descriptor=f"randholder:seed={seed}")


def random_nonsymmetric_field(seed: int, tau: Optional[float] = None) -> CoefficientField:
    """Seeded nonsymmetric field: random smooth symmetric part plus tau J."""
    base = random_holder_field(seed)  # refuses a negative seed first
    if tau is None:
        tau = float(np.random.default_rng(seed ^ 0x5EED).uniform(0.05, 0.3))
    if not abs(tau) < 1.0:
        raise ConfigError("need |tau| < 1")
    f = nonsymmetric_field(tau, base)
    return CoefficientField(
        f.evaluator, symmetric=False, descriptor=f"randnonsym:seed={seed},tau={tau}"
    )


# ---------------------------------------------------------------------------
# descriptors, e.g. "meyers:alpha=2" or "aniso:l1=2,l2=0.5,theta=0.3"


class Family(NamedTuple):
    """A descriptor family: its builder, required keys, optional keys with
    their defaults (None: the builder picks) and keys whose values are ints."""

    build: Callable
    required: tuple = ()
    optional: dict = {}
    integers: tuple = ()


def parse_descriptor(text: str) -> tuple[str, dict]:
    """Lowercased name and parameters of "name:key=value,..."; every value is a
    finite float and no key repeats."""
    text = text.strip()
    if not text:
        raise ConfigError("empty descriptor")
    name, _, rest = text.partition(":")
    params: dict[str, float] = {}
    if rest:
        for item in rest.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"malformed descriptor parameter '{item}' in '{text}'")
            if key in params:
                raise ConfigError(f"repeated key '{key}' in descriptor '{text}'")
            try:
                params[key] = float(val)
            except ValueError:
                raise ConfigError(f"non-numeric value '{val}' in descriptor '{text}'")
            if not math.isfinite(params[key]):
                raise ConfigError(f"non-finite value '{val}' in descriptor '{text}'")
    return name.strip().lower(), params


def parse_family(text: str, families: dict, what: str) -> tuple[str, dict]:
    """Name and parameters of a descriptor of one of families, optional
    defaults filled in; unknown names and keys, missing keys and non-integral
    integers are ConfigErrors."""
    name, p = parse_descriptor(text)
    if name not in families:
        raise ConfigError(f"unknown {what} descriptor '{text}'")
    family = families[name]
    if any(k not in p for k in family.required):
        raise ConfigError(f"{name} {what} needs {' and '.join(family.required)}")
    unknown = sorted(set(p) - set(family.required) - set(family.optional))
    if unknown:
        raise ConfigError(f"{name} {what} takes no parameter {', '.join(unknown)}")
    for k in family.integers:
        if k in p:
            if not p[k].is_integer():
                raise ConfigError(f"{name} {what} parameter {k} must be an integer, got {p[k]}")
            p[k] = int(p[k])
    return name, {**family.optional, **p}


#: coefficient descriptors; build(params, descriptor text) gives the field
FIELDS = {
    "identity": Family(lambda p, text: identity_field()),
    "const": Family(lambda p, text: constant_field([[p["a11"], p["a12"]], [p["a21"], p["a22"]]],
                                                   descriptor=text),
                    ("a11", "a12", "a21", "a22")),
    "aniso": Family(lambda p, text: anisotropic_field(p["l1"], p["l2"], p["theta"]),
                    ("l1", "l2"), {"theta": 0.0}),
    "meyers": Family(lambda p, text: meyers_sigma(p["alpha"]), ("alpha",)),
    "holder": Family(lambda p, text: holder_bump_field(p["eps"], p["cx"], p["cy"], p["w"],
                                                       p["theta"]),
                     ("eps",), {"cx": 0.0, "cy": 0.0, "w": 0.5, "theta": 0.0}),
    "nonsym": Family(lambda p, text: nonsymmetric_field(p["tau"]), ("tau",)),
    "randholder": Family(lambda p, text: random_holder_field(p["seed"]), ("seed",), {}, ("seed",)),
    "randnonsym": Family(lambda p, text: random_nonsymmetric_field(p["seed"], p["tau"]),
                         ("seed",), {"tau": None}, ("seed",)),
}


def field_from_descriptor(text: str) -> CoefficientField:
    """Resolve a coefficient descriptor string to a field."""
    name, p = parse_family(text, FIELDS, "field")
    return FIELDS[name].build(p, text)


def library_fields() -> list[CoefficientField]:
    """Representative members of every built-in family, for sweep tests."""
    return [
        identity_field(),
        anisotropic_field(2.0, 0.5),
        anisotropic_field(3.0, 0.8, theta=0.3),
        meyers_sigma(2.0),
        holder_bump_field(0.4, 0.2, -0.1, 0.5, 0.7),
        nonsymmetric_field(0.2),
    ]
