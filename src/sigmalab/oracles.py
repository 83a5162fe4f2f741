"""Closed-form reference solutions.

Oracles expose exact gradients next to exact values so that solver error can
be split into value error and derivative error.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DegenerateInputError
from .coefficients import Family, parse_family


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


def _constant(c, x) -> np.ndarray:
    """The constant array c repeated over the point axes of x."""
    return np.multiply.outer(c, np.ones_like(x, dtype=float))


def meyers_solution(alpha: float) -> AnalyticSolution:
    """The radial power-stretch map (u1, u2) = |x|^(alpha-1) (x1, x2)."""
    if not alpha > 0:
        raise ConfigError("alpha must be positive")

    # far from the origin a large alpha overflows to inf or nan; the callers'
    # finiteness checks refuse such values, so numpy need not warn about them
    def value(x, y):
        r = np.hypot(x, y)
        if alpha < 1.0 and np.any(r == 0.0):
            raise DegenerateInputError("value is singular at the origin for alpha < 1")
        # alpha >= 1 at the origin: 0 ** (alpha - 1) is finite, the value 0
        with np.errstate(over="ignore", invalid="ignore"):
            s = r ** (alpha - 1.0)
            return np.array([s * x, s * y])

    def gradient(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
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

    # far from the origin z^m overflows to inf or nan; the callers' finiteness
    # checks refuse such values, so numpy need not warn about them
    def value(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
            w = (x + 1j * y) ** m
        return np.array([w.real, w.imag])

    def gradient(x, y):
        with np.errstate(over="ignore", invalid="ignore"):
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
