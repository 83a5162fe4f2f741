"""Deterministic SVG emitters: contours, quivers, Jacobian heat maps.

Output is plain SVG text with every coordinate written to 4 decimals, so a
given input and option set always yields the same bytes. The emitters are
array code: ``_Canvas.format`` maps whole arrays of points to the viewport
and fills a repeated %-template from ``tolist()`` in one call, with the
float expressions and the rounding the point-by-point emitters used, so the
bytes are those of the point-by-point emitters too.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .fem import ScalarField, TriangleGradientField
from .mesh import Mesh


class _Canvas:
    """Maps data coordinates to a fixed-width SVG viewport (y flipped)."""

    def __init__(self, mesh: Mesh, width: int = 640, pad: float = 0.05):
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        margin = pad * span.max()
        self.lo = lo - margin
        self.span = span + 2 * margin
        self.width = width
        self.height = int(round(width * self.span[1] / self.span[0]))
        self.scale = width / self.span[0]

    def format(self, template: str, *points: np.ndarray) -> str:
        """The template once per row of the (n, 2) point arrays, its %-fields
        filled with the viewport x and y of each array's row in turn."""
        p = np.stack(points, axis=1)
        x = (p[..., 0] - self.lo[0]) * self.scale
        y = self.height - (p[..., 1] - self.lo[1]) * self.scale
        return template * len(p) % tuple(np.stack([x, y], axis=-1).ravel().tolist())

    def header(self) -> str:
        return (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
        )


def _boundary_paths(mesh: Mesh, canvas: _Canvas) -> str:
    parts = []
    for loop in mesh.loops:
        pts = canvas.format("%.4f,%.4f ", mesh.vertices[loop])[:-1]
        parts.append(
            f'<polygon points="{pts}" fill="none" stroke="black" stroke-width="1"/>\n'
        )
    return "".join(parts)


def contour_svg(
    field: ScalarField,
    levels: int | Sequence[float] = 10,
    width: int = 640,
) -> str:
    """Level sets of a P1 field: one line segment per crossed triangle.

    A triangle is crossed when exactly two of its edges have their ends
    strictly on both sides of the level; an end on the level does not count.
    """
    mesh = field.mesh
    vals = field.values
    if isinstance(levels, int):
        if levels < 1:
            raise ConfigError("need at least one contour level")
        vmin, vmax = float(vals.min()), float(vals.max())
        if vmax <= vmin:
            level_values = [vmin]
        else:
            ticks = np.linspace(vmin, vmax, levels + 2)[1:-1]
            level_values = [float(t) for t in ticks]
    else:
        level_values = [float(l) for l in levels]
        if not np.isfinite(level_values).all():
            raise ConfigError("contour levels must be finite")

    canvas = _Canvas(mesh, width)
    out = [canvas.header(), _boundary_paths(mesh, canvas)]
    tri_vals = vals[mesh.triangles]
    tri_pts = mesh.vertices[mesh.triangles]
    for li, level in enumerate(level_values):
        color = f"hsl({int(240 - 240 * li / max(1, len(level_values) - 1))},70%,45%)"
        off = tri_vals - level
        crossed = off * off[:, [1, 2, 0]] < 0
        keep = crossed.sum(axis=1) == 2
        if not keep.any():
            continue
        t, c = np.flatnonzero(keep)[:, None], crossed[keep]
        # the two crossed edges of each kept triangle, in edge order
        a = np.column_stack([np.where(c[:, 0], 0, 1), np.where(c[:, 2], 2, 1)])
        b = (a + 1) % 3
        s = (level - tri_vals[t, a]) / (tri_vals[t, b] - tri_vals[t, a])
        pa, pb = tri_pts[t, a], tri_pts[t, b]
        ends = pa + s[:, :, None] * (pb - pa)
        segs = canvas.format("M%.4f %.4fL%.4f %.4f", ends[:, 0], ends[:, 1])
        out.append(
            f'<path d="{segs}" stroke="{color}" fill="none" stroke-width="1"/>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def quiver_svg(
    grad: TriangleGradientField,
    width: int = 640,
    max_arrows: int = 1500,
) -> str:
    """One arrow per triangle centroid (decimated deterministically when the
    mesh has more triangles than max_arrows)."""
    if not np.isfinite(grad.vectors).all():
        raise ConfigError("quiver vectors must be finite")
    mesh = grad.mesh
    canvas = _Canvas(mesh, width)
    out = [canvas.header(), _boundary_paths(mesh, canvas)]
    vmax = float(grad.norms().max())
    stride = max(1, int(math.ceil(mesh.num_triangles / max_arrows)))
    if vmax > 0:
        arrow = 1.2 * mesh.h * math.sqrt(stride)
        c = mesh.centroids[::stride]
        d = grad.vectors[::stride] * (arrow / vmax)
        tip = c + d
        # math.atan2, not np.arctan2: numpy's SIMD arctan2 can differ from
        # libm's in the last bit, and so could move a written digit
        ang = np.array([math.atan2(y, x) for x, y in d.tolist()])
        # short head strokes
        heads = [
            tip + 0.3 * arrow * np.column_stack([np.cos(ang + da), np.sin(ang + da)])
            for da in (2.6, -2.6)
        ]
        line = (
            '<line x1="%.4f" y1="%.4f" x2="%.4f" y2="%.4f" '
            'stroke="steelblue" stroke-width="1"/>\n'
        )
        out.append(canvas.format(line * 3, c, tip, tip, heads[0], tip, heads[1]))
    out.append("</svg>\n")
    return "".join(out)


def heatmap_svg(mesh: Mesh, values, width: int = 640) -> str:
    """Per-triangle fill with a blue-white-red scale centered at 0.

    Intended for Jacobian fields: sign flips show up as a color flip.
    """
    values = np.asarray(values, dtype=float)
    if values.shape != (mesh.num_triangles,):
        raise ConfigError("need one value per triangle")
    if not np.isfinite(values).all():
        raise ConfigError("heat map values must be finite")
    vmax = float(np.abs(values).max())
    t = np.clip(values / vmax, -1.0, 1.0) if vmax > 0 else np.zeros_like(values)
    # np.rint rounds half to even, as Python's round does
    fade = np.rint(255 * (1 - np.abs(t) * 0.85))
    rgb = np.where(
        (t >= 0)[:, None],
        np.column_stack([np.rint(255 - 90 * t), fade, fade]),
        np.column_stack([fade, fade, np.rint(255 + 107 * t)]),
    ).astype(np.int64)
    canvas = _Canvas(mesh, width)
    # each vertex is formatted once, then gathered per triangle
    pts = np.array(canvas.format("%.4f,%.4f ", mesh.vertices).split(), dtype=object)
    fields = np.column_stack([pts[mesh.triangles], rgb])
    polygon = '<polygon points="%s %s %s" fill="rgb(%d,%d,%d)" stroke="none"/>\n'
    out = [canvas.header(), polygon * len(fields) % tuple(fields.ravel().tolist())]
    out.append(_boundary_paths(mesh, canvas))
    out.append("</svg>\n")
    return "".join(out)
