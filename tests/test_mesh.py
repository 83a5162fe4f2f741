import hashlib
import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from sigmalab import (
    MeshError,
    ResourceLimitError,
    generate_annulus,
    generate_disk,
    generate_rectangle,
    read_mesh,
    refine,
)
from sigmalab import mesh as meshmod
from sigmalab.mesh import LOCATE_CHUNK, CircleLoop, Mesh, mesh_from_text, mesh_to_text, read_rows
from ring_reference import reference_annulus, reference_disk
from text_mutations import mutated_texts

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True, database=None)

DOMAINS = {
    "disk": lambda h: generate_disk((0.0, 0.0), 1.0, h),
    "annulus": lambda h: generate_annulus((0.0, 0.0), 0.2, 1.0, h),
    "rect": lambda h: generate_rectangle((0.0, 0.0), 1.75, 1.75, h),
}


def loop_signed_area(mesh, loop):
    p = mesh.vertices[loop]
    x, y = p[:, 0], p[:, 1]
    return 0.5 * np.sum(x * np.roll(y, -1) - np.roll(x, -1) * y)


def euler_characteristic(mesh):
    edges = mesh.edge_table.edges
    return mesh.num_vertices - len(edges) + mesh.num_triangles


def test_disk_invariants(disk_mesh):
    assert disk_mesh.areas.min() > 0
    assert len(disk_mesh.loops) == 1
    assert set(np.unique(disk_mesh.edge_table.counts)) <= {1, 2}


def test_disk_area_close_to_pi():
    m = generate_disk((0, 0), 1.0, 0.1)
    assert abs(m.areas.sum() - math.pi) / math.pi < 0.02


def test_disk_boundary_on_circle(disk_mesh):
    r = np.hypot(*disk_mesh.vertices[disk_mesh.loops[0]].T)
    assert np.abs(r - 1.0).max() < disk_mesh.h**2


def test_disk_rejects_bad_h():
    with pytest.raises(MeshError):
        generate_disk((0, 0), 1.0, 1.5)
    with pytest.raises(MeshError):
        generate_disk((0, 0), -1.0, 0.1)
    with pytest.raises(MeshError):
        generate_disk((0, 0), math.inf, 0.1)


#: a vertex cap that keeps the meshes of the properties below small
SMALL_CAP = 20_000


def test_vertex_cap():
    with mock.patch.object(meshmod, "DEFAULT_VERTEX_CAP", 10_000):
        generate_disk((0, 0), 1.0, 0.025)  # 4921 vertices
        with pytest.raises(ResourceLimitError):
            generate_disk((0, 0), 1.0, 0.01)  # 30,301 vertices


#: any float, or one in a range where meshes (and not only errors) come out
SIZES = st.one_of(st.floats(), st.floats(1e-3, 1e3))
#: a mesh size as a fraction of the domain's size
STEPS = st.one_of(st.floats(), st.floats(0.02, 1.5))


@PROPERTY
@given(size=st.tuples(SIZES, STEPS).map(lambda rs: (rs[0], rs[0] * rs[1])))
@pytest.mark.filterwarnings("error::RuntimeWarning")
@example(size=(math.inf, 1.0))
@example(size=(1.0, 5e-324))
@example(size=(1e300, 1e299))
def test_disk_gives_mesh_or_error(size):
    radius, h = size
    try:
        with mock.patch.object(meshmod, "DEFAULT_VERTEX_CAP", SMALL_CAP):
            m = generate_disk((0.0, 0.0), radius, h)
    except (MeshError, ResourceLimitError):
        return
    assert len(m.loops) == 1 and m.areas.min() > 0
    assert np.allclose(np.hypot(*m.vertices[m.loops[0]].T), radius, rtol=1e-12, atol=0)


@PROPERTY
@given(r_in=SIZES, width=SIZES, step=STEPS)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@example(r_in=0.2, width=math.inf, step=0.1)
@example(r_in=0.2, width=0.8, step=1e-320)
@example(r_in=1e299, width=1e300, step=0.1)
@example(r_in=0.5, width=0.1, step=0.3)
def test_annulus_gives_mesh_or_error(r_in, width, step):
    r_out, h = r_in + width, width * step
    try:
        with mock.patch.object(meshmod, "DEFAULT_VERTEX_CAP", SMALL_CAP):
            m = generate_annulus((0.0, 0.0), r_in, r_out, h)
    except (MeshError, ResourceLimitError):
        return
    assert len(m.loops) == 2 and m.areas.min() > 0
    for loop, radius in zip(m.loops, (r_out, r_in)):
        assert np.allclose(np.hypot(*m.vertices[loop].T), radius, rtol=1e-12, atol=0)


@PROPERTY
@given(width=SIZES, height=SIZES, h=SIZES)
@pytest.mark.filterwarnings("error::RuntimeWarning")
@example(width=math.inf, height=1.0, h=0.5)
@example(width=1.0, height=1.0, h=5e-324)
@example(width=1e300, height=1e300, h=1e299)
def test_rectangle_gives_mesh_or_error(width, height, h):
    try:
        with mock.patch.object(meshmod, "DEFAULT_VERTEX_CAP", SMALL_CAP):
            m = generate_rectangle((0.0, 0.0), width, height, h)
    except (MeshError, ResourceLimitError):
        return
    assert len(m.loops) == 1 and m.areas.min() > 0
    assert np.allclose(m.vertices.max(axis=0), [width, height], rtol=1e-12, atol=0)
    assert m.areas.sum() == pytest.approx(width * height, rel=1e-9)


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_annulus((0, 0), 0.2, 1e15, 1.0),
        lambda: generate_annulus((0, 0), 0.2, 1.0, 5e-324),
        lambda: generate_rectangle((0, 0), 1.0, 1.0, 5e-324),
    ],
)
def test_overflowing_division_count_is_resource_limit(make):
    with pytest.raises(ResourceLimitError):
        make()


@pytest.mark.parametrize(
    "count, written",
    [(1_000_001, "1000001"), (999_999_999, "999999999"), (1_000_000_000, "1.000e9"),
     # past the largest double, so no float can carry it
     (123_456_789 * 10**400, "1.234e408")],
    ids=["7-digits", "9-digits", "10-digits", "409-digits"],
)
def test_cap_message_writes_long_counts_as_a_power_of_ten(count, written):
    with pytest.raises(ResourceLimitError) as info:
        meshmod._check_cap(count)
    assert str(info.value) == (
        f"mesh would need about {written} vertices, above the cap of 1000000; "
        "use a coarser mesh size or spacing"
    )


@pytest.mark.parametrize(
    "make",
    [
        lambda: generate_annulus((0, 0), 0.2, math.inf, 1.0),
        lambda: generate_rectangle((0, 0), math.inf, 1.0, 0.5),
    ],
)
def test_infinite_extent_is_mesh_error(make):
    with pytest.raises(MeshError):
        make()


def test_annulus_two_loops_and_orientation(annulus_mesh):
    assert len(annulus_mesh.loops) == 2
    assert loop_signed_area(annulus_mesh, annulus_mesh.loops[0]) > 0
    assert loop_signed_area(annulus_mesh, annulus_mesh.loops[1]) < 0


def test_annulus_area():
    m = generate_annulus((0, 0), 0.2, 1.0, 0.1)
    exact = math.pi * (1 - 0.04)
    assert abs(m.areas.sum() - exact) / exact < 0.02


def test_annulus_rejects_inverted_radii():
    with pytest.raises(MeshError):
        generate_annulus((0, 0), 1.0, 0.5, 0.05)


def test_euler_characteristic(disk_mesh, annulus_mesh):
    assert euler_characteristic(disk_mesh) == 1
    assert euler_characteristic(annulus_mesh) == 0


def test_rectangle_basics(rect_mesh):
    assert len(rect_mesh.loops) == 1
    assert abs(rect_mesh.areas.sum() - 1.0) < 1e-12
    assert euler_characteristic(rect_mesh) == 1


def test_refine_quadruples_triangles(disk_mesh):
    fine = refine(disk_mesh)
    assert fine.num_triangles == 4 * disk_mesh.num_triangles
    assert fine.areas.min() > 0


def test_refine_improves_disk_area():
    m = generate_disk((0, 0), 1.0, 0.3)
    before = abs(m.areas.sum() - math.pi)
    after = abs(refine(m).areas.sum() - math.pi)
    assert after < before


def test_refine_twice_quarters_h(disk_mesh):
    twice = refine(refine(disk_mesh))
    assert abs(twice.h - disk_mesh.h / 4) <= 0.1 * disk_mesh.h / 4


def test_refine_preserves_boundary_cyclic_order(disk_mesh):
    orig = disk_mesh.loops[0].tolist()
    fine = refine(disk_mesh)
    new = fine.loops[0].tolist()
    filtered = [v for v in new if v in set(orig)]
    # same cyclic order once rotated to the shared starting vertex
    k = filtered.index(orig[0])
    assert filtered[k:] + filtered[:k] == orig


def test_refine_keeps_annulus_orientations(annulus_mesh):
    fine = refine(annulus_mesh)
    assert len(fine.loops) == 2
    assert loop_signed_area(fine, fine.loops[0]) > 0
    assert loop_signed_area(fine, fine.loops[1]) < 0


def test_boundary_loops_cover_each_vertex_once(annulus_mesh):
    assert len(annulus_mesh.loops) == 2
    for loop in annulus_mesh.loops:
        ids = loop.tolist()
        assert len(ids) == len(set(ids))


def test_mesh_constructor_rejects_degenerate_triangle():
    verts = np.array([[0, 0], [1, 0], [2, 0], [0, 1.0]])
    tris = np.array([[0, 1, 2], [0, 2, 3]])  # first triangle is flat
    with pytest.raises(MeshError):
        Mesh(verts, tris, h=1.0)


def test_mesh_constructor_rejects_bad_index():
    verts = np.array([[0, 0], [1, 0], [0, 1.0]])
    with pytest.raises(MeshError):
        Mesh(verts, np.array([[0, 1, 3]]), h=1.0)


def test_mesh_file_roundtrip_bit_exact(tmp_path, annulus_mesh):
    p1 = tmp_path / "a.txt"
    p2 = tmp_path / "b.txt"
    p1.write_text(mesh_to_text(annulus_mesh), encoding="utf-8")
    back = read_mesh(p1)
    p2.write_text(mesh_to_text(back), encoding="utf-8")
    assert p1.read_bytes() == p2.read_bytes()
    assert np.array_equal(back.vertices, annulus_mesh.vertices)
    assert np.array_equal(back.triangles, annulus_mesh.triangles)


def test_mesh_from_text_rejects_garbage():
    with pytest.raises(MeshError):
        mesh_from_text("not a mesh\n")


@pytest.mark.parametrize("name", sorted(DOMAINS))
def test_triangle_neighbours_are_the_interior_edges(name):
    m = DOMAINS[name](0.3)
    edge_tris = {}
    for t, (a, b, c) in enumerate(m.triangles.tolist()):
        for u, v in ((a, b), (b, c), (c, a)):
            edge_tris.setdefault((min(u, v), max(u, v)), []).append(t)
    want = sorted(tuple(ts) for ts in edge_tris.values() if len(ts) == 2)
    assert [tuple(p) for p in m.triangle_neighbours.tolist()] == want


def test_locate_points(disk_mesh):
    rng = np.random.default_rng(7)
    pts = rng.uniform(-0.7, 0.7, size=(50, 2))
    tri, bary = disk_mesh.locate(pts)
    assert (tri >= 0).all()
    assert np.allclose(bary.sum(axis=1), 1.0)
    # interpolating an affine function is exact
    vals = np.einsum(
        "pi,pi->p", disk_mesh.vertices[disk_mesh.triangles[tri]][:, :, 0], bary
    )
    assert np.allclose(vals, pts[:, 0], atol=1e-12)
    outside, _ = disk_mesh.locate(np.array([[2.0, 2.0]]))
    assert outside[0] == -1


def locate_reference(mesh, points):
    """locate by brute force: over all triangles, the lowest index whose
    barycentrics (same expressions) pass the 1e-12 tolerance; a point that is
    not finite fails every comparison."""
    v = mesh.vertices[mesh.triangles][None]
    e1x, e1y = v[..., 1, 0] - v[..., 0, 0], v[..., 1, 1] - v[..., 0, 1]
    e2x, e2y = v[..., 2, 0] - v[..., 0, 0], v[..., 2, 1] - v[..., 0, 1]
    with np.errstate(invalid="ignore"):
        rx, ry = points[:, 0, None] - v[..., 0, 0], points[:, 1, None] - v[..., 0, 1]
        det = e1x * e2y - e2x * e1y
        l1 = (e2y * rx - e2x * ry) / det
        l2 = (-e1y * rx + e1x * ry) / det
        ok = (l1 >= -1e-12) & (l2 >= -1e-12) & (l1 + l2 <= 1.0 + 1e-12)
        first = ok.argmax(axis=1)
        tri = np.where(ok.any(axis=1), first, -1)
        rows = np.arange(len(points))
        l1, l2 = l1[rows, first], l2[rows, first]
        bary = np.where((tri >= 0)[:, None], np.column_stack([1.0 - l1 - l2, l1, l2]), 0.0)
    return tri, bary


#: points no grid cell holds: huge, infinite or not a number
UNPLACEABLE = np.array([[1e300, 0.0], [-1e300, 1e300], [0.0, -1e300], [np.inf, 0.0],
                        [0.0, -np.inf], [np.nan, 0.5], [0.5, np.nan], [np.nan, np.inf]])


def locate_probes(mesh, rng, n):
    """n random points around the mesh, plus vertices, edge midpoints, far
    points and the unplaceable ones."""
    edges = mesh.edge_table.edges
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    return np.concatenate([
        rng.uniform(lo - 0.1, hi + 0.1, size=(n, 2)),
        mesh.vertices[rng.integers(0, mesh.num_vertices, n)],
        0.5 * (mesh.vertices[edges[:, 0]] + mesh.vertices[edges[:, 1]])[rng.integers(0, len(edges), n)],
        rng.uniform(3.0, 4.0, size=(3, 2)),
        UNPLACEABLE[rng.permutation(len(UNPLACEABLE))],
    ])


@PROPERTY
@given(
    st.sampled_from(sorted(DOMAINS)), st.floats(0.15, 0.45), st.integers(0, 1),
    st.integers(0, 2**32 - 1), st.integers(1, 40),
)
def test_locate_matches_brute_force(name, h, levels, seed, n):
    m = DOMAINS[name](h)
    for _ in range(levels):
        m = refine(m)
    pts = locate_probes(m, np.random.default_rng(seed), n)
    tri, bary = m.locate(pts)
    ref_tri, ref_bary = locate_reference(m, pts)
    assert np.array_equal(tri, ref_tri) and np.array_equal(bary, ref_bary)
    one_tri, one_bary = m.locate(pts[:1])
    assert np.array_equal(one_tri, ref_tri[:1]) and np.array_equal(one_bary, ref_bary[:1])


def test_locate_more_points_than_one_chunk(disk_mesh):
    pts = locate_probes(disk_mesh, np.random.default_rng(11), LOCATE_CHUNK // 2 + 100)
    assert len(pts) > LOCATE_CHUNK
    tri, bary = disk_mesh.locate(pts)
    ref_tri, ref_bary = locate_reference(disk_mesh, pts)
    assert np.array_equal(tri, ref_tri) and np.array_equal(bary, ref_bary)


def signed_areas_reference(vertices, triangles):
    """Reference: signed_areas as it was written over vertices[triangles],
    before it took per-column row gathers; the same expression in the same
    order."""
    p = vertices[triangles]
    return 0.5 * (
        (p[:, 1, 0] - p[:, 0, 0]) * (p[:, 2, 1] - p[:, 0, 1])
        - (p[:, 2, 0] - p[:, 0, 0]) * (p[:, 1, 1] - p[:, 0, 1])
    )


@PROPERTY
@given(
    st.lists(st.tuples(*[st.floats(-1e100, 1e100)] * 2), min_size=1, max_size=20),
    st.lists(st.tuples(*[st.integers(0, 19)] * 3), min_size=1, max_size=30),
)
def test_signed_areas_match_the_gathered_reference(points, corners):
    vertices = np.array(points, dtype=float)
    triangles = np.array(corners, dtype=np.int64) % len(vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        got = meshmod.signed_areas(vertices, triangles)
        want = signed_areas_reference(vertices, triangles)
    assert np.array_equal(got, want, equal_nan=True)


def test_boundary_distance(disk_mesh, annulus_mesh):
    d = disk_mesh.boundary_distance(np.array([[0.0, 0.0], [0.5, 0.0]]))
    assert np.allclose(d, [1.0, 0.5], atol=1e-12)
    d = annulus_mesh.boundary_distance(np.array([[0.5, 0.0]]))
    assert np.allclose(d, [0.3], atol=1e-12)


def dense_distance_to_polygon(points, poly):
    """Reference: the distance from each point to every segment of the closed
    polygon, minimized, as boundary_distance computed it before it kept only
    the segments near each point's nearest vertex."""
    a = poly
    b = np.roll(poly, -1, axis=0)
    ab = b - a
    denom = np.einsum("sd,sd->s", ab, ab)
    ap = points[:, None, :] - a[None, :, :]
    s = np.clip(np.einsum("psd,sd->ps", ap, ab) / denom, 0.0, 1.0)
    closest = a[None, :, :] + s[..., None] * ab[None, :, :]
    return np.hypot(*(points[:, None, :] - closest).transpose(2, 0, 1)).min(axis=1)


def star_mesh(radii, jitter, center):
    """A fan of triangles around center over a star polygon, one vertex per radius."""
    n = len(radii)
    ang = 2.0 * math.pi * (np.arange(n) + 0.4 * np.asarray(jitter)) / n
    ring = np.asarray(center) + np.column_stack([radii * np.cos(ang), radii * np.sin(ang)])
    ids = np.arange(1, n + 1)
    tris = np.column_stack([np.zeros(n, np.int64), ids, np.roll(ids, -1)])
    return Mesh(np.concatenate([[center], ring]), tris, h=0.1)


@PROPERTY
@given(
    st.one_of(
        st.builds(
            lambda w, ht, steps, x0, y0: generate_rectangle((x0, y0), w, ht, min(w, ht) / steps),
            st.floats(0.05, 3.0), st.floats(0.05, 3.0), st.integers(1, 12),
            st.floats(-50.0, 50.0), st.floats(-50.0, 50.0),
        ),
        # thin rectangles: the long sides are far apart in segments, close in space
        st.builds(
            lambda w, steps: generate_rectangle((0.0, 0.0), w, 0.02, 0.02 / steps),
            st.floats(0.5, 4.0), st.integers(1, 2),
        ),
        st.integers(3, 40).flatmap(
            lambda n: st.builds(
                star_mesh,
                st.lists(st.floats(0.3, 1.5), min_size=n, max_size=n).map(np.array),
                st.lists(st.floats(0.0, 1.0), min_size=n, max_size=n),
                st.tuples(st.floats(-5.0, 5.0), st.floats(-5.0, 5.0)),
            )
        ),
        # read back from text, an annulus has two polygon loops
        st.floats(0.1, 0.3).map(
            lambda h: mesh_from_text(mesh_to_text(generate_annulus((0.0, 0.0), 0.2, 1.0, h)))
        ),
    ),
    st.integers(0, 2**32 - 1),
)
def test_boundary_distance_matches_dense_reference(mesh, seed):
    rng = np.random.default_rng(seed)
    lo, hi = mesh.vertices.min(axis=0), mesh.vertices.max(axis=0)
    span = hi - lo
    poly = mesh.vertices[np.concatenate(mesh.loops)]
    # inside and outside the box, far away, on vertices, edge midpoints and centroids
    pts = np.concatenate([
        rng.uniform(lo, hi, size=(200, 2)),
        rng.uniform(lo - span, hi + span, size=(100, 2)),
        rng.uniform(lo - 20 * span, hi + 20 * span, size=(20, 2)),
        poly[rng.integers(0, len(poly), 20)],
        0.5 * (poly + np.roll(poly, -1, axis=0))[rng.integers(0, len(poly), 20)],
        mesh.centroids[rng.integers(0, mesh.num_triangles, 100)],
    ])
    want = np.min([dense_distance_to_polygon(pts, mesh.vertices[l]) for l in mesh.loops], axis=0)
    assert mesh.boundary_distance(pts).tolist() == want.tolist()


@pytest.mark.parametrize(
    "mesh",
    [generate_rectangle((0.0, 0.0), 1.0, 0.5, 0.25), star_mesh(np.linspace(0.5, 1.5, 7), np.zeros(7), (0.0, 0.0))],
)
def test_boundary_distance_of_non_finite_points_matches_dense_reference(mesh):
    # no KD-tree takes these: they are measured against every segment, as before
    pts = np.array([[0.5, 0.2], [np.nan, 0.2], [np.inf, 0.3], [0.1, -np.inf], [1e308, -1e308]])
    with np.errstate(invalid="ignore", over="ignore"):
        got = mesh.boundary_distance(pts)
        want = dense_distance_to_polygon(pts, mesh.vertices[mesh.loops[0]])
    assert got.view(np.uint64).tolist() == want.view(np.uint64).tolist()


# sha256 of mesh_to_text at h = 0.2 and 0, 1, 2 refinements, recorded before
# refine, the edge table and the text I/O became array code
MESH_TEXT_SHA256 = {
    "disk": (
        "8b302db3449d4ff9068b744552be622aeaee4077c5ccca94eed184d826b1bb88",
        "fece2b156a65d9e43baa9d8e617455561ce52f7cc8173b6e4f4bf1730f29ccee",
        "133fe9ab31ea7087a492e1485e1accc48edcfbf0c97c0ea8012aaa8a0709fc1c",
    ),
    "annulus": (
        "5426927b99dba7f32d1490d25dc615b62bfe965ab05105aa29837398fb5aab8e",
        "fb02efa7d15f35b75f2acd6ca0bb2a71427b9ab75df7bc20185aead0a111b5cb",
        "0ed9e239592845c68a006daf0a6941cdd9a86bcc811c8ac17147201f48600d45",
    ),
    "rect": (
        "78da486f07e8f8f9f0a97da54e1ea3f51f1dfd1f24c69ade810811befc8e95a1",
        "f4f55ebefe80b13239c7c46d7e6217b1a9927e930c2251afe7b4ed01afafefaf",
        "fb36878be058aa4b8ab19a9c53ab242563330619105e02bd85f37e130ea83585",
    ),
}


# sha256 of mesh_to_text of unrefined disks and annuli centered at the origin,
# (generator, radii, h), recorded before ring stitching became array code
RING_MESH_TEXT_SHA256 = {
    ("disk", (1.0,), 0.05): "223ac908b35517cdd6d213d27b75a79a1a035b77512e4edd7a247500195eb1cb",
    ("disk", (1.0,), 0.029): "11f0e9227bd71189b748e7be1cffce648c4ef0c83a6a6e6f99e2b4e59629b9e1",
    ("disk", (1.0,), 0.0173): "6ce5ff268f922c5e1257e5cc321b87be4a1dd270fc14e125dee3a102ae7e43c0",
    ("annulus", (0.2, 1.0), 0.16): "33f847cb1f4ffa78f673cbe40d5fe3f51385e4d7eea83ab66b332d5f5596c26b",
    ("annulus", (0.2, 1.0), 0.029): "47fe446a5ee7bec54dbcaf44ec42c37e832dfeefb490c30aa9dcbc0817668a09",
    ("annulus", (0.5, 0.6), 0.03): "e8bccb0ab7521248bc797d7e615df45c41f041d9bc11e4cb91a17af7839cf3b2",
}


@pytest.mark.parametrize("key", sorted(RING_MESH_TEXT_SHA256), ids=str)
def test_ring_mesh_text_bytes_pinned(key):
    kind, radii, h = key
    make = generate_disk if kind == "disk" else generate_annulus
    m = make((0.0, 0.0), *radii, h)
    assert hashlib.sha256(mesh_to_text(m).encode()).hexdigest() == RING_MESH_TEXT_SHA256[key]


def assert_matches_reference(make, reference, center, radii, h):
    """make(center, *radii, h) and Mesh over reference(center, *radii, h)
    give the same vertices and triangles bit for bit, or the same MeshError."""
    vertices, triangles = reference(center, *radii, h)
    geom = [CircleLoop(center[0], center[1], r) for r in sorted(radii, reverse=True)]
    try:
        m = make(center, *radii, h)
    except MeshError as exc:
        with pytest.raises(MeshError) as info:
            Mesh(vertices, triangles, h, geom)
        assert str(info.value) == str(exc)
        return
    assert m.vertices.tobytes() == vertices.tobytes()
    assert m.triangles.tobytes() == triangles.tobytes()


#: a size as (mantissa, power of ten); the centre scales with it
SCALED = st.tuples(st.floats(0.5, 2.0), st.integers(-100, 100))
CENTER = st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3))


@PROPERTY
@given(size=SCALED, step=st.floats(0.04, 0.99), center=CENTER)
@example(size=(1.0, 0), step=0.05, center=(0.0, 0.0))
@example(size=(1.0, 0), step=0.0173, center=(0.0, 0.0))
def test_disk_matches_the_per_ring_reference(size, step, center):
    radius = size[0] * 10.0 ** size[1]
    center = (center[0] * 10.0 ** size[1], center[1] * 10.0 ** size[1])
    assert_matches_reference(generate_disk, reference_disk, center, (radius,), radius * step)


@PROPERTY
@given(
    size=SCALED,
    shape=st.one_of(
        # thin annuli: a few rings of nearly equal counts, so that their angles tie
        st.tuples(st.floats(0.02, 0.2), st.floats(0.3, 0.99)),
        st.tuples(st.floats(0.2, 10.0), st.floats(0.04, 0.99)),
    ),
    center=CENTER,
)
@example(size=(0.2, 0), shape=(4.0, 0.029 / 0.8), center=(0.0, 0.0))
@example(size=(0.5, 0), shape=(0.2, 0.3), center=(0.0, 0.0))
def test_annulus_matches_the_per_ring_reference(size, shape, center):
    scale = 10.0 ** size[1]
    r_in = size[0] * scale
    r_out = r_in + r_in * shape[0]
    center = (center[0] * scale, center[1] * scale)
    h = (r_out - r_in) * shape[1]
    assert_matches_reference(generate_annulus, reference_annulus, center, (r_in, r_out), h)


@pytest.mark.parametrize(
    "make, reference, radii, h",
    [(generate_disk, reference_disk, (1.0,), 0.2),
     (generate_disk, reference_disk, (1.0,), 0.05),
     (generate_annulus, reference_annulus, (0.5, 0.6), 0.03),
     (generate_annulus, reference_annulus, (0.2, 1.0), 0.16)],
)
def test_outer_first_ties_fail_the_reference_comparison(make, reference, radii, h):
    # every band ties at 2 pi, where its two rings close
    def outer_first(*args):
        return reference(*args, inner_first=False)

    with pytest.raises(AssertionError):
        assert_matches_reference(make, outer_first, (0.0, 0.0), radii, h)


@PROPERTY
@given(
    st.lists(st.tuples(*[st.floats(-1e300, 1e300)] * 2), min_size=1, max_size=20),
    st.lists(st.tuples(*[st.integers(0, 19)] * 3), min_size=1, max_size=30),
)
def test_centroids_match_the_mean_reference(points, corners):
    vertices = np.array(points, dtype=float)
    triangles = np.array(corners, dtype=np.int64) % len(vertices)
    with np.errstate(over="ignore", invalid="ignore"):
        got = Mesh.centroids.func(SimpleNamespace(vertices=vertices, triangles=triangles))
        want = vertices[triangles].mean(axis=1)
    # equal values; the bits differ only where all three coordinates are -0.0,
    # a triangle on a line, which Mesh refuses
    assert np.array_equal(got, want, equal_nan=True)


@PROPERTY
@given(st.sampled_from(sorted(DOMAINS)), st.floats(0.15, 0.45), st.integers(0, 2),
       st.tuples(st.floats(-1e3, 1e3), st.floats(-1e3, 1e3)))
def test_mesh_centroids_match_the_mean_reference_bit_for_bit(name, h, levels, shift):
    m = DOMAINS[name](h)
    for _ in range(levels):
        m = refine(m)
    m = Mesh(m.vertices + shift, m.triangles, m.h)
    assert m.centroids.tobytes() == m.vertices[m.triangles].mean(axis=1).tobytes()


def triangle_neighbours_reference(mesh):
    """Reference: triangle_neighbours as a row sort of the (first, second)
    directed-edge pairs, then a lexsort of the rows."""
    table = mesh.edge_table
    second = np.empty(len(table.edges), dtype=np.int64)
    rest = np.arange(len(table.inverse)) != table.first[table.inverse]
    second[table.inverse[rest]] = np.flatnonzero(rest)
    inner = table.counts == 2
    pairs = np.sort(np.column_stack([table.first[inner], second[inner]]) // 3, axis=1)
    return pairs[np.lexsort(pairs.T[::-1])]


@PROPERTY
@given(st.sampled_from(sorted(DOMAINS)), st.floats(0.1, 0.45), st.integers(0, 2))
def test_triangle_neighbours_match_the_lexsort_reference(name, h, levels):
    m = DOMAINS[name](h)
    for _ in range(levels):
        m = refine(m)
    assert np.array_equal(m.triangle_neighbours, triangle_neighbours_reference(m))


def loops_reference(mesh, tri_ids):
    """The loops of the triangles tri_ids from an edge table of their own."""
    kept = mesh.triangles[tri_ids]
    table = meshmod.edge_table(kept, mesh.num_vertices)
    f = table.first[table.counts == 1]
    return meshmod._extract_loops(mesh.vertices, kept[f // 3, f % 3], kept[f // 3, (f + 1) % 3])


def pinched_pair(mesh, rng):
    """Two triangles that share one vertex and no edge."""
    t = mesh.triangles
    while True:
        a, b = rng.integers(0, len(t), 2)
        if len(set(t[a].tolist()) & set(t[b].tolist())) == 1:
            return np.array([a, b])


def kept_set(mesh, rng, kind):
    """Distinct triangle ids: a random sample, a disk of centroids, that disk
    with a few triangles or the fan of a vertex taken out, or a pinched pair."""
    nt = mesh.num_triangles
    if kind == "pinched":
        return np.sort(pinched_pair(mesh, rng))
    if kind == "random":
        return np.flatnonzero(rng.random(nt) < rng.uniform(0.02, 1.0))
    c = mesh.centroids
    keep = np.hypot(*(c - c[rng.integers(0, nt)]).T) <= rng.uniform(0.2, 2.0)
    if kind == "holes":
        keep[rng.integers(0, nt, rng.integers(1, 4))] = False
    if kind == "fan":
        keep[np.flatnonzero((mesh.triangles == rng.integers(0, mesh.num_vertices)).any(axis=1))] = False
    return np.flatnonzero(keep)


@PROPERTY
@given(st.sampled_from(sorted(DOMAINS)), st.floats(0.1, 0.4), st.integers(0, 2**32 - 1),
       st.sampled_from(["random", "disk", "holes", "fan", "pinched"]))
def test_loops_of_match_a_fresh_edge_table(name, h, seed, kind):
    m = DOMAINS[name](h)
    tri_ids = kept_set(m, np.random.default_rng(seed), kind)
    if len(tri_ids) == 0:
        tri_ids = np.array([0])
    try:
        want = loops_reference(m, tri_ids)
    except MeshError as exc:
        with pytest.raises(MeshError) as info:
            m.loops_of(tri_ids)
        assert str(info.value) == str(exc)
        return
    assert kind != "pinched"
    got = m.loops_of(tri_ids)
    assert len(got) == len(want) and all(np.array_equal(a, b) for a, b in zip(got, want))


def test_loops_of_a_disk_with_a_hole():
    m = generate_disk((0.0, 0.0), 1.0, 0.2)
    ring = np.flatnonzero(~(m.triangles == 0).any(axis=1))  # every triangle off the centre
    loops = m.loops_of(ring)
    assert [len(l) for l in loops] == [len(m.loops[0]), 6]
    assert np.array_equal(loops[0], m.loops[0])
    assert loop_signed_area(m, loops[1]) < 0
    assert all(np.array_equal(a, b) for a, b in zip(loops, loops_reference(m, ring)))
    assert all(np.array_equal(a, b) for a, b in zip(m.loops_of(np.arange(m.num_triangles)), m.loops))


@pytest.mark.parametrize("name", sorted(MESH_TEXT_SHA256))
def test_mesh_text_bytes_pinned(name):
    m = DOMAINS[name](0.2)
    for digest in MESH_TEXT_SHA256[name]:
        assert hashlib.sha256(mesh_to_text(m).encode()).hexdigest() == digest
        m = refine(m)


def test_edges_are_sorted_unique_rows(annulus_mesh):
    edges, counts = annulus_mesh.edge_table.edges, annulus_mesh.edge_table.counts
    t = annulus_mesh.triangles
    rows = np.sort(np.concatenate([t[:, [0, 1]], t[:, [1, 2]], t[:, [2, 0]]]), axis=1)
    uniq, ref_counts = np.unique(rows, axis=0, return_counts=True)
    assert np.array_equal(edges, uniq)
    assert np.array_equal(counts, ref_counts)


@PROPERTY
@given(
    st.sampled_from(sorted(DOMAINS)), st.floats(0.15, 0.45), st.integers(0, 2)
)
def test_mesh_text_roundtrip_exact(name, h, levels):
    m = DOMAINS[name](h)
    for _ in range(levels):
        m = refine(m)
    back = mesh_from_text(mesh_to_text(m))
    edges = m.edge_table.edges
    d = m.vertices[edges[:, 0]] - m.vertices[edges[:, 1]]
    assert back.h == np.hypot(d[:, 0], d[:, 1]).max() == m.max_edge_length
    assert np.array_equal(back.vertices, m.vertices)
    assert back.vertices.tobytes() == m.vertices.tobytes()
    assert np.array_equal(back.triangles, m.triangles)
    assert len(back.loops) == len(m.loops)
    assert all(np.array_equal(a, b) for a, b in zip(back.loops, m.loops))


@pytest.mark.parametrize("tri", [[0, 1, 2], [1, 2, 0], [2, 0, 1]])
def test_read_h_is_the_longest_edge_wherever_it_sits(tri):
    m = Mesh(np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0]]), np.array([tri]), h=1.0)
    assert mesh_from_text(mesh_to_text(m)).h == m.max_edge_length == math.hypot(1.0, 1.0)


@pytest.mark.parametrize(
    "text",
    [
        "mesh v1\nvertices 1\na b\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1 2\ntriangles 1\n0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary\n",
        "mesh v1\nvertices -3\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 9\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 99999999999999999999\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 2\n0 1 2\n0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 0\n",
        "",
        # ragged, blank, commented and non-integer rows, all-blank sections
        "mesh v1\nvertices 3\n0 0\n1 0 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 2\n\n\n",
        "mesh v1\nvertices 3\n0 0 # origin\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2.0\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 0_2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2e0\n",
        "mesh v1\nvertices 3.0\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\nboundary 3 0 1 2\n",
        "mesh v1\nvertices 3\n0 0\n1 0\n0 1\ntriangles 1\n0 1 2\n"
        "boundary 3 0 1 18446744073709551618\n",
    ],
)
@pytest.mark.filterwarnings("error::UserWarning")
def test_mesh_from_text_malformed_is_mesh_error(text):
    with pytest.raises(MeshError):
        mesh_from_text(text)


@pytest.mark.filterwarnings("error::RuntimeWarning")
def test_mesh_from_text_infinite_coordinates_raise_before_measuring():
    text = (
        "mesh v1\nvertices 3\n1e999 0\n1e999 0\n0 1\n"
        "triangles 1\n0 1 2\nboundary 3 0 1 2\n"
    )
    with pytest.raises(MeshError, match="non-finite vertex coordinates"):
        mesh_from_text(text)


_BASE_TEXTS = [
    mesh_to_text(generate_rectangle((0.0, 0.0), 1.0, 1.0, 0.5)),
    mesh_to_text(generate_annulus((0.0, 0.0), 0.5, 1.0, 0.45)),
]
@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.one_of(mutated_texts(_BASE_TEXTS), st.text()))
def test_mesh_from_text_gives_mesh_or_mesh_error(text):
    try:
        mesh = mesh_from_text(text)
    except MeshError:
        return
    assert isinstance(mesh, Mesh)


_FINITE = st.floats(allow_nan=False, allow_infinity=False)
_INT64 = st.integers(-(2**63), 2**63 - 1)


def _table(elements):
    """1 to 20 rows of elements, all of one width from 1 to 4."""
    return st.integers(1, 4).flatmap(
        lambda w: st.lists(st.lists(elements, min_size=w, max_size=w), min_size=1, max_size=20)
    )


@PROPERTY
@given(_table(_FINITE))
@example([[5e-324, -5e-324, 0.0, -0.0], [1e308, -1e308, 2.2250738585072014e-308, -1.7976931348623157e308]])
def test_read_rows_floats_bit_exact(table):
    rows = [" ".join(map(repr, r)) for r in table]
    values, pos = read_rows(rows, 0, len(rows), len(table[0]), float, "row")
    assert pos == len(rows)
    assert values.tobytes() == np.array(table, dtype=float).tobytes()


@PROPERTY
@given(_table(_INT64))
@example([[-(2**63), 2**63 - 1, 0, -1]])
def test_read_rows_integers_exact(table):
    rows = [" ".join(map(str, r)) for r in table]
    values, _ = read_rows(rows, 0, len(rows), len(table[0]), np.int64, "row")
    assert values.dtype == np.int64
    assert values.tolist() == table


def test_read_rows_random_float_bits_exact():
    rng = np.random.default_rng(2024)
    x = rng.integers(0, 2**64, size=200_000, dtype=np.uint64, endpoint=False).view(float)
    x = x[np.isfinite(x)]
    x = x[: len(x) // 2 * 2].reshape(-1, 2)
    rows = ["%r %r" % (a, b) for a, b in x.tolist()]
    values, _ = read_rows(rows, 0, len(rows), 2, float, "row")
    assert values.tobytes() == x.tobytes()


@pytest.mark.parametrize(
    "token",
    ["1.0", "1_0", "1e3", "+1.5", "inf", "nan", "0x1", "\u0661", "a", "#", "1-2", "--1",
     "9223372036854775808", "-9223372036854775809", "99999999999999999999",
     "00000000000000000000000000001-"],
)
@pytest.mark.filterwarnings("error::UserWarning")
def test_read_rows_rejects_non_integers(token):
    with pytest.raises(MeshError):
        read_rows(["0 " + token], 0, 1, 2, np.int64, "row")


@pytest.mark.filterwarnings("error::UserWarning")
def test_read_rows_integer_leading_zeros_and_signs():
    rows = ["+7 -0", "00000000000000000000000000001 -0009223372036854775808"]
    values, _ = read_rows(rows, 0, 2, 2, np.int64, "row")
    assert values.tolist() == [[7, 0], [1, -(2**63)]]


# ---------------------------------------------------------------------------
# the one-entry generator memo, and read-only meshes

BASE_CALLS = {
    "disk": (generate_disk, ((0.0, 0.0), 1.0, 0.2)),
    "annulus": (generate_annulus, ((0.0, 0.0), 0.2, 1.0, 0.2)),
    "rect": (generate_rectangle, ((0.0, 0.0), 1.0, 2.0, 0.25)),
}


@pytest.mark.parametrize("name", BASE_CALLS)
def test_a_repeated_generator_call_returns_the_same_mesh(name):
    generate, args = BASE_CALLS[name]
    m = generate(*args)
    assert generate(*args) is m
    assert generate(*args) is m


@pytest.mark.parametrize(
    "name, other",
    [
        ("disk", ((0.0, 0.0), 1.0, 0.25)),  # h
        ("disk", ((0.5, 0.0), 1.0, 0.2)),  # centre
        ("disk", ((0.0, -0.0), 1.0, 0.2)),  # a centre equal to the base one, other bits
        ("disk", ((0.0, 0.0), 2.0, 0.2)),  # radius
        ("annulus", ((0.0, 0.0), 0.2, 1.0, 0.25)),  # h
        ("annulus", ((0.0, 0.5), 0.2, 1.0, 0.2)),  # centre
        ("annulus", ((0.0, 0.0), 0.3, 1.0, 0.2)),  # inner radius
        ("annulus", ((0.0, 0.0), 0.2, 1.5, 0.2)),  # outer radius
        ("rect", ((0.0, 0.0), 1.0, 2.0, 0.2)),  # h
        ("rect", ((-0.0, 0.0), 1.0, 2.0, 0.25)),  # corner
        ("rect", ((0.0, 0.0), 1.5, 2.0, 0.25)),  # width
        ("rect", ((0.0, 0.0), 1.0, 1.5, 0.25)),  # height
    ],
)
def test_a_different_generator_call_builds_its_own_mesh(name, other):
    generate, args = BASE_CALLS[name]
    m = generate(*args)
    got = generate(*other)
    assert got is not m
    assert mesh_to_text(got) == mesh_to_text(generate.__wrapped__(*other))


def test_the_generators_share_one_entry_keyed_by_generator():
    annulus = generate_annulus((0.0, 0.0), 0.2, 1.0, 0.2)
    # the same arguments to another generator
    rect = generate_rectangle((0.0, 0.0), 0.2, 1.0, 0.2)
    assert len(rect.loops) == 1
    assert mesh_to_text(rect) == mesh_to_text(generate_rectangle.__wrapped__((0.0, 0.0), 0.2, 1.0, 0.2))
    # one entry: the rectangle replaced the annulus
    assert generate_annulus((0.0, 0.0), 0.2, 1.0, 0.2) is not annulus


def test_array_arguments_are_told_apart_in_every_digit():
    # an array's default repr rounds both centres to 0.12345679
    a = generate_disk(np.array([0.1234567891, 0.0]), 1.0, 0.5)
    b = generate_disk(np.array([0.1234567892, 0.0]), 1.0, 0.5)
    assert b is not a
    assert b.vertices[0].tolist() == [0.1234567892, 0.0]


def test_a_lower_vertex_cap_refuses_a_mesh_built_under_the_default_cap():
    m = generate_disk((0.0, 0.0), 1.0, 0.1)
    with mock.patch.object(meshmod, "DEFAULT_VERTEX_CAP", m.num_vertices - 1):
        with pytest.raises(ResourceLimitError):
            generate_disk((0.0, 0.0), 1.0, 0.1)


def held_arrays(obj, name: str, out: dict) -> dict:
    """Every array held by obj, a Mesh attribute, by its path from the Mesh."""
    if isinstance(obj, np.ndarray):
        out[name] = obj
    elif isinstance(obj, (tuple, list)):
        for i, item in enumerate(obj):
            held_arrays(item, f"{name}[{i}]", out)
    elif isinstance(obj, meshmod._Polygon):
        for attr, value in vars(obj).items():
            held_arrays(value, f"{name}.{attr}", out)
    return out


@pytest.mark.parametrize("source", ["disk", "annulus", "rect", "annulus text"])
def test_every_array_of_a_mesh_is_read_only(source):
    if source == "annulus text":  # two polygon loops
        m = mesh_from_text(mesh_to_text(DOMAINS["annulus"](0.25)))
    else:
        m = DOMAINS[source](0.25)
    # build the caches of locate, boundary_distance and the rest
    m.locate(m.centroids[:5])
    m.boundary_distance(m.centroids[:5])
    for cached in ("basis_gradients", "interior_vertices", "triangle_neighbours"):
        getattr(m, cached)
    arrays = {}
    for attr, value in vars(m).items():
        held_arrays(value, attr, arrays)
    expected = [
        "vertices", "triangles", "_areas", "centroids", "basis_gradients", "boundary_vertices",
        "interior_vertices", "triangle_neighbours", "_triangle_frames", "edge_table[0]",
        "loops[0]", "_vertex_to_triangles[0]", "_vertex_to_triangles[1]", "_vertex_grid[0]",
        "_vertex_grid[1]", "_vertex_grid[4]", "_vertex_grid[5]",
    ]
    if "annulus" in source:
        expected.append("loops[1]")
    if source in ("rect", "annulus text"):
        expected += ["_polygons[0].a", "_polygons[0].ab", "_polygons[0].denom"]
    assert set(expected) <= set(arrays)
    for name, a in arrays.items():
        with pytest.raises(ValueError, match="read-only"):
            a.flat[0] = a.flat[0]
    assert m.areas is m._areas
    for held in (m.loops, m.loop_geometry, m._polygons):
        assert isinstance(held, tuple)
        with pytest.raises(AttributeError):
            held.append(None)
