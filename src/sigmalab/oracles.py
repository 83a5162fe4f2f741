"""Closed-form reference solutions and brute-force checkers.

Oracles expose exact gradients next to exact values so that solver error can
be split into value error and derivative error. The brute-force injectivity
scan is the independent counterpart of the discrete geometric check.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .analysis import MappingField
from .errors import ConfigError, DegenerateInputError, ResourceLimitError
from .fem import ScalarField
from .mesh import Mesh
from .coefficients import Family, parse_family

SAMPLE_BUDGET = 50_000


@dataclass(frozen=True)
class AnalyticSolution:
    """Exact value/gradient pair for a scalar function or a planar map.

    value and gradient take floats (x, y) or two arrays of one shape, which
    then forms the trailing axes. For components == 1, value is scalar per
    point and gradient a 2-vector; for components == 2, value is a pair and
    gradient a 2x2 matrix whose leading index picks the component.
    """

    descriptor: str
    components: int
    value: Callable[[np.ndarray, np.ndarray], np.ndarray]
    gradient: Callable[[np.ndarray, np.ndarray], np.ndarray]

    def component(self, k: int) -> "AnalyticSolution":
        if not 0 <= k < self.components:
            raise ConfigError(
                f"oracle '{self.descriptor}' has components 1..{self.components}; "
                f"there is no component {k + 1}"
            )
        if self.components == 1:
            return self
        return AnalyticSolution(
            descriptor=f"{self.descriptor}#u{k + 1}",
            components=1,
            value=lambda x, y, _k=k: self.value(x, y)[_k],
            gradient=lambda x, y, _k=k: self.gradient(x, y)[_k],
        )

    def mapping_field(self, mesh: Mesh) -> MappingField:
        if self.components != 2:
            raise ConfigError("need a pair-valued oracle")
        u1, u2 = self.value(*mesh.vertices.T)
        return MappingField(ScalarField(mesh, u1), ScalarField(mesh, u2))


def _constant(c, x) -> np.ndarray:
    """The constant array c repeated over the point axes of x."""
    return np.multiply.outer(c, np.ones_like(x, dtype=float))


def meyers_solution(alpha: float) -> AnalyticSolution:
    """The radial power-stretch map (u1, u2) = |x|^(alpha-1) (x1, x2)."""
    if not alpha > 0:
        raise ConfigError("alpha must be positive")

    def value(x, y):
        r = np.hypot(x, y)
        if alpha < 1.0 and np.any(r == 0.0):
            raise DegenerateInputError("value is singular at the origin for alpha < 1")
        # alpha >= 1 at the origin: 0 ** (alpha - 1) is finite, the value 0
        s = r ** (alpha - 1.0)
        return np.array([s * x, s * y])

    def gradient(x, y):
        r2 = x * x + y * y
        if np.any(r2 == 0.0):
            raise DegenerateInputError("gradient is singular at the origin")
        s = r2 ** ((alpha - 3.0) / 2.0)
        return np.array(
            [
                [s * (alpha * x * x + y * y), s * (alpha - 1.0) * x * y],
                [s * (alpha - 1.0) * x * y, s * (x * x + alpha * y * y)],
            ]
        )

    return AnalyticSolution(f"meyers:alpha={alpha}", 2, value, gradient)


def meyers_jacobian(alpha: float, p) -> np.ndarray:
    """Exact Jacobian determinant alpha |x|^(2(alpha-1)) of the radial map at
    each row of the (n, 2) array p, as an (n,) array."""
    if not alpha > 0:
        raise ConfigError("alpha must be positive")
    P = np.asarray(p, dtype=float).reshape(-1, 2)
    r = np.hypot(P[:, 0], P[:, 1])
    if alpha < 1.0 and np.any(r == 0.0):
        raise DegenerateInputError(
            "Jacobian diverges at the origin for alpha in (0, 1)"
        )
    # at the origin this is 0 for alpha > 1 and 1 for alpha == 1
    return alpha * r ** (2.0 * (alpha - 1.0))


def holomorphic_oracle(m: int) -> AnalyticSolution:
    """(Re z^m, Im z^m) with gradients from the complex derivative m z^(m-1)."""
    if m < 1:
        raise ConfigError("power m must be a positive integer")

    def value(x, y):
        w = (x + 1j * y) ** m
        return np.array([w.real, w.imag])

    def gradient(x, y):
        d = m * (x + 1j * y) ** (m - 1)
        return np.array([[d.real, -d.imag], [d.imag, d.real]])

    return AnalyticSolution(f"holo:m={m}", 2, value, gradient)


def identity_oracle() -> AnalyticSolution:
    return AnalyticSolution(
        "identity",
        2,
        lambda x, y: np.array([x, y]),
        lambda x, y: _constant(np.eye(2), x),
    )


#: scalar harmonic polynomials by flavor: (value, gradient)
HARMONIC = {
    "x1": (lambda x, y: x, lambda x, y: _constant([1.0, 0.0], x)),
    "x2": (lambda x, y: y, lambda x, y: _constant([0.0, 1.0], x)),
    "re-z2": (lambda x, y: x * x - y * y, lambda x, y: np.array([2.0 * x, -2.0 * y])),
    "im-z2": (lambda x, y: 2.0 * x * y, lambda x, y: np.array([2.0 * y, 2.0 * x])),
}


def harmonic_oracle(kind: str) -> AnalyticSolution:
    """Scalar harmonic polynomials used as boundary data and references."""
    kind = kind.lower()
    if kind not in HARMONIC:
        raise ConfigError(f"unknown harmonic oracle '{kind}'")
    return AnalyticSolution(f"harmonic:{kind}", 1, *HARMONIC[kind])


def costheta_oracle(cx: float = 0.0, cy: float = 0.0) -> AnalyticSolution:
    """cos of the polar angle about (cx, cy); the canonical unimodal trace."""

    def value(x, y):
        r = np.hypot(x - cx, y - cy)
        if np.any(r == 0.0):
            raise DegenerateInputError("angle undefined at the center")
        return (x - cx) / r

    def gradient(x, y):
        dx, dy = x - cx, y - cy
        r = np.hypot(dx, dy)
        if np.any(r == 0.0):
            raise DegenerateInputError("angle undefined at the center")
        return np.array([dy * dy, -dx * dy]) / r**3

    return AnalyticSolution(f"costheta:cx={cx},cy={cy}", 1, value, gradient)


# ---------------------------------------------------------------------------
# descriptor resolution ("meyers:alpha=2", "holo:m=2", "harmonic:re-z2", ...)


#: oracle descriptors; build(params) gives the solution, of which a
#: "component" parameter (1 or 2) picks one
ORACLES = {
    "identity": Family(lambda p: identity_oracle()),
    "meyers": Family(lambda p: meyers_solution(p["alpha"]), ("alpha",), {"component": None},
                     ("component",)),
    "holo": Family(lambda p: holomorphic_oracle(p["m"]), ("m",), {"component": None},
                   ("m", "component")),
    "x1": Family(lambda p: harmonic_oracle("x1")),
    "x2": Family(lambda p: harmonic_oracle("x2")),
    "costheta": Family(lambda p: costheta_oracle(p["cx"], p["cy"]), (), {"cx": 0.0, "cy": 0.0}),
    "z2": Family(lambda p: holomorphic_oracle(2)),
}


def oracle_from_descriptor(text: str) -> AnalyticSolution:
    head = text.split(":", 1)[0].strip().lower()
    if head == "harmonic":
        # flavor is symbolic ("re-z2"), not key=value
        flavor = text.split(":", 1)[1].strip() if ":" in text else ""
        return harmonic_oracle(flavor)
    name, p = parse_family(text, ORACLES, "oracle")
    component = p.pop("component", None)
    sol = ORACLES[name].build(p)
    return sol if component is None else sol.component(component - 1)


# ---------------------------------------------------------------------------
# brute-force injectivity


def interior_lattice(mesh: Mesh, sample_step: float) -> np.ndarray:
    """Axis-aligned lattice clipped to the mesh, symmetric about the origin."""
    if sample_step <= 0:
        raise ConfigError("sample step must be positive")
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    ax = np.arange(math.floor(lo[0] / sample_step), math.ceil(hi[0] / sample_step) + 1)
    ay = np.arange(math.floor(lo[1] / sample_step), math.ceil(hi[1] / sample_step) + 1)
    if len(ax) * len(ay) > 40 * SAMPLE_BUDGET:
        raise ResourceLimitError("sample step is far too small for this domain")
    X, Y = np.meshgrid(ax * sample_step, ay * sample_step, indexing="xy")
    pts = np.column_stack([X.ravel(), Y.ravel()])
    tri, _ = mesh.locate(pts)
    return pts[tri >= 0]


def brute_force_injectivity(U: MappingField, sample_step: float) -> bool:
    """All-pairs image-coincidence scan on an interior lattice.

    Quadratic cost, accepted at desk scale; refuses more than 50000 sample
    points. Two distinct lattice points whose images agree within 1e-9 make
    the verdict False.
    """
    mesh = U.mesh
    lo = mesh.vertices.min(axis=0)
    hi = mesh.vertices.max(axis=0)
    bbox_count = ((hi[0] - lo[0]) / sample_step + 1) * ((hi[1] - lo[1]) / sample_step + 1)
    estimate = bbox_count * float(mesh.areas.sum()) / float(np.prod(hi - lo))
    if estimate > 2 * SAMPLE_BUDGET:
        raise ResourceLimitError(
            f"about {int(estimate)} sample points would exceed the budget of "
            f"{SAMPLE_BUDGET}; increase sample_step"
        )
    pts = interior_lattice(mesh, sample_step)
    if len(pts) > SAMPLE_BUDGET:
        raise ResourceLimitError(
            f"{len(pts)} sample points exceed the budget of {SAMPLE_BUDGET}; "
            "increase sample_step"
        )
    img = U.interpolate(pts)
    tol2 = 1e-9 ** 2
    block = 2048
    n = len(img)
    for lo in range(0, n, block):
        a = img[lo : lo + block]
        for lo2 in range(lo, n, block):
            c = img[lo2 : lo2 + block]
            d2 = np.sum((a[:, None, :] - c[None, :, :]) ** 2, axis=-1)
            near = d2 <= tol2
            if lo2 == lo:
                np.fill_diagonal(near, False)
            if near.any():
                return False
    return True
