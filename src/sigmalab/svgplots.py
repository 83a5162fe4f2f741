"""Deterministic SVG emitters: contours and Jacobian heat maps.

Output is plain SVG text with every coordinate written to 4 decimals, so a
given input and option set always yields the same bytes. The emitters are
array code: ``_Frame.format`` maps whole arrays of points to the viewport
and fills a repeated %-template from ``tolist()`` in one call, with the
float expressions and the rounding the point-by-point emitters used, so the
bytes are those of the point-by-point emitters too.

What a drawing takes from its mesh alone, its _Frame, is built once per Mesh
and kept as the mesh's "svg frame" (mesh.kept). A heat map then formats only
its colours, and a contour only its level segments.
"""

from __future__ import annotations

from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import ConfigError
from .fem import ScalarField
from .mesh import Mesh, keep, kept


class _Frame:
    """The mesh-only part of a mesh's SVG files: a viewport 640 px wide (y
    flipped) with a margin of 5% of the mesh's larger extent on every side,
    the header, the boundary paths and, on first use, the heat-map template.
    It holds the mesh's arrays, never the mesh."""

    width = 640

    def __init__(self, mesh: Mesh):
        lo = mesh.vertices.min(axis=0)
        hi = mesh.vertices.max(axis=0)
        span = np.maximum(hi - lo, 1e-12)
        margin = 0.05 * span.max()
        self.lo = lo - margin
        span = span + 2 * margin
        self.height = int(round(self.width * span[1] / span[0]))
        self.scale = self.width / span[0]
        self.header = (
            '<?xml version="1.0" encoding="UTF-8"?>\n'
            f'<svg xmlns="http://www.w3.org/2000/svg" width="{self.width}" '
            f'height="{self.height}" viewBox="0 0 {self.width} {self.height}">\n'
            f'<rect width="{self.width}" height="{self.height}" fill="white"/>\n'
        )
        self.boundary = "".join(
            '<polygon points="%s" fill="none" stroke="black" stroke-width="1"/>\n'
            % self.format("%.4f,%.4f ", mesh.vertices[loop])[:-1]
            for loop in mesh.loops
        )
        self._vertices, self._triangles = mesh.vertices, mesh.triangles

    def format(self, template: str, *points: np.ndarray) -> str:
        """The template once per row of the (n, 2) point arrays, its %-fields
        filled with the viewport x and y of each array's row in turn."""
        p = np.stack(points, axis=1)
        x = (p[..., 0] - self.lo[0]) * self.scale
        y = self.height - (p[..., 1] - self.lo[1]) * self.scale
        return template * len(p) % tuple(np.stack([x, y], axis=-1).ravel().tolist())

    @cached_property
    def heatmap(self) -> str:
        """A heat map's whole file as a template: each triangle's
        '<polygon points="a b c" fill="rgb(' prefix, then a %d,%d,%d field
        for its colour, between the header and the boundary paths with the
        closing tag."""
        # each vertex is formatted once, then gathered per triangle
        pts = np.array(self.format("%.4f,%.4f ", self._vertices).split(), dtype=object)
        polygon = '<polygon points="%s %s %s" fill="rgb(%%d,%%d,%%d)" stroke="none"/>\n'
        polygons = polygon * len(self._triangles) % tuple(pts[self._triangles].ravel().tolist())
        # the header and the boundary paths hold no '%': numbers and fixed text
        return "".join([self.header, polygons, self.boundary, "</svg>\n"])


def _frame(mesh: Mesh) -> _Frame:
    return kept(mesh, "svg frame") or keep(mesh, "svg frame", _Frame(mesh))


def contour_svg(field: ScalarField, levels: int | Sequence[float] = 10) -> str:
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

    frame = _frame(mesh)
    out = [frame.header, frame.boundary]
    tri_vals = vals[mesh.triangles]
    x, y = mesh.corners
    for li, level in enumerate(level_values):
        color = f"hsl({int(240 - 240 * li / max(1, len(level_values) - 1))},70%,45%)"
        # signs, not products: a product of two offsets underflows or overflows
        side = np.sign(tri_vals - level)
        crossed = side * side[:, [1, 2, 0]] < 0
        keep = crossed.sum(axis=1) == 2
        if not keep.any():
            continue
        t, c = np.flatnonzero(keep)[:, None], crossed[keep]
        # the two crossed edges of each kept triangle, in edge order
        a = np.column_stack([np.where(c[:, 0], 0, 1), np.where(c[:, 2], 2, 1)])
        b = (a + 1) % 3
        s = (level - tri_vals[t, a]) / (tri_vals[t, b] - tri_vals[t, a])
        # (k, 2, 2): each kept triangle's two crossing points, each an (x, y)
        ends = np.stack([p[a, t] + s * (p[b, t] - p[a, t]) for p in (x, y)], axis=-1)
        segs = frame.format("M%.4f %.4fL%.4f %.4f", ends[:, 0], ends[:, 1])
        out.append(
            f'<path d="{segs}" stroke="{color}" fill="none" stroke-width="1"/>\n'
        )
    out.append("</svg>\n")
    return "".join(out)


def heatmap_svg(mesh: Mesh, values) -> str:
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
    return _frame(mesh).heatmap % tuple(rgb.ravel().tolist())
