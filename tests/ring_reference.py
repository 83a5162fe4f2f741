"""The ring meshes of disks and annuli as they were built ring by ring: each
ring's points by one call, each band by one merge. The one-pass generators of
sigmalab.mesh must give these vertices and triangles bit for bit.

inner_first=False breaks ties between the two rings' angles the other way, so
that a test can show it would catch a generator with that rule.
"""

import math

import numpy as np


def _ring(center, radius, count, start_id):
    ang = 2.0 * math.pi * np.arange(count) / count
    pts = np.column_stack(
        [center[0] + radius * np.cos(ang), center[1] + radius * np.sin(ang)]
    )
    ids = np.arange(start_id, start_id + count)
    return ids, ang, pts


def _stitch_rings(inner_ids, inner_ang, outer_ids, outer_ang, inner_first):
    """The band between two rings: a merge of their next-vertex angles; each
    step advances the ring whose next vertex has the smaller angle."""
    m, n = len(inner_ids), len(outer_ids)
    ia = np.append(inner_ang, inner_ang[0] + 2.0 * math.pi)
    oa = np.append(outer_ang, outer_ang[0] + 2.0 * math.pi)
    # both lists ascend, so a stable sort of the two is their merge; the list
    # put first wins the ties
    if inner_first:
        order = np.argsort(np.concatenate([ia[1:], oa[1:]]), kind="stable")
    else:
        order = np.argsort(np.concatenate([oa[1:], ia[1:]]), kind="stable")
        order = np.where(order < n, order + m, order - n)
    inner = order < m
    step = np.arange(m + n)
    i = np.where(inner, order, step - (order - m))  # inner pointer before the step
    j = step - i  # outer pointer before the step
    third = np.where(inner, inner_ids[(i + 1) % m], outer_ids[(j + 1) % n])
    return np.column_stack([inner_ids[i % m], outer_ids[j % n], third])


def _stitch(rings, inner_first):
    return [_stitch_rings(*rings[k], *rings[k + 1], inner_first) for k in range(len(rings) - 1)]


def reference_disk(center, radius, h, inner_first=True):
    """(vertices, triangles) of generate_disk(center, radius, h)."""
    n = max(1, round(radius / h))
    verts = [np.array([center], dtype=float)]
    rings = []
    start = 1
    for i in range(1, n + 1):
        ids, ang, pts = _ring(center, radius * i / n, 6 * i, start)
        verts.append(pts)
        rings.append((ids, ang))
        start += 6 * i
    ids1 = rings[0][0]
    tris = [np.column_stack([np.zeros(6, np.int64), ids1, np.roll(ids1, -1)])]
    tris += _stitch(rings, inner_first)
    return np.concatenate(verts), np.concatenate(tris)


def reference_annulus(center, r_in, r_out, h, inner_first=True):
    """(vertices, triangles) of generate_annulus(center, r_in, r_out, h)."""
    n = max(1, round((r_out - r_in) / h))
    radii = [r_in + (r_out - r_in) * i / n for i in range(n + 1)]
    counts = [max(6, round(2.0 * math.pi * r / h)) for r in radii]
    verts, rings = [], []
    start = 0
    for r, m in zip(radii, counts):
        ids, ang, pts = _ring(center, r, m, start)
        verts.append(pts)
        rings.append((ids, ang))
        start += m
    return np.concatenate(verts), np.concatenate(_stitch(rings, inner_first))
