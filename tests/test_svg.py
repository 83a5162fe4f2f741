import gc
import hashlib
import weakref
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

import reference
from sigmalab import (
    ConfigError,
    ScalarField,
    generate_annulus,
    generate_disk,
    jacobian_field,
)
from sigmalab.cli import main
from sigmalab.mesh import _store, mesh_from_text, mesh_to_text
from sigmalab.oracles import holomorphic_oracle
from sigmalab.svgplots import contour_svg, heatmap_svg
from reference import mapping_field


@pytest.fixture(scope="module")
def sample_field(disk_mesh):
    vals = disk_mesh.vertices[:, 0] ** 2 - disk_mesh.vertices[:, 1] ** 2
    return ScalarField(disk_mesh, vals)


def test_contour_svg_deterministic_and_wellformed(sample_field):
    a = contour_svg(sample_field, levels=8)
    b = contour_svg(sample_field, levels=8)
    assert a == b
    root = ET.fromstring(a)
    assert root.tag.endswith("svg")
    paths = [e for e in root.iter() if e.tag.endswith("path")]
    assert len(paths) >= 4  # several levels actually cross the disk


def test_contour_svg_explicit_levels(sample_field):
    svg = contour_svg(sample_field, levels=[0.0, 0.3])
    assert svg.count("<path") == 2


def test_contour_svg_rejects_zero_levels(sample_field):
    with pytest.raises(ConfigError):
        contour_svg(sample_field, levels=0)


def test_heatmap_svg_sign_colors(disk_mesh):
    U = mapping_field(holomorphic_oracle(2), disk_mesh)
    det = jacobian_field(U)
    svg = heatmap_svg(disk_mesh, det)
    assert svg == heatmap_svg(disk_mesh, det)
    ET.fromstring(svg)
    assert svg.count("<polygon") == disk_mesh.num_triangles + len(disk_mesh.loops)
    # a sign flip must show as different fills
    flipped = heatmap_svg(disk_mesh, -det)
    assert flipped != svg


def test_heatmap_needs_one_value_per_triangle(disk_mesh):
    with pytest.raises(ConfigError):
        heatmap_svg(disk_mesh, np.zeros(3))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_heatmap_rejects_non_finite_values(disk_mesh, bad):
    values = np.ones(disk_mesh.num_triangles)
    values[3] = bad
    with pytest.raises(ConfigError, match="finite"):
        heatmap_svg(disk_mesh, values)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_contour_rejects_non_finite_levels(sample_field, bad):
    with pytest.raises(ConfigError, match="finite"):
        contour_svg(sample_field, levels=[0.0, bad])


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


# sha256 of the SVG files of three README examples, recorded before the
# emitters became array code: the drawing must not change by a byte
README_SVG_SHA256 = {
    "map --domain disk:r=1 --h 0.05 --g identity": (
        "jacobian.svg",
        "e568d9af844be94dd947714dfcf2a9f7f7d748a20c7e6de0c3e5dec5d3cd15bb",
    ),
    "verify --domain disk:r=1 --h 0.03 "
    "--sigma holder:eps=0.4,cx=0.2,cy=-0.1,w=0.5,theta=0.7 "
    "--g identity --margin 0.1 --directions 8": (
        "jacobian.svg",
        "4698559f5ce2478c771d243dc7dad637d0ab702d5046bea1c1bed8e5a9545bce",
    ),
    "solve --domain annulus:rin=0.2,rout=1 --h 0.02 "
    "--sigma meyers:alpha=2 --g oracle": (
        "contour.svg",
        "5b604790f3e3d9f28cffbf85b11958f58ff42e8241a62e1a42ce9a185c5b0fb0",
    ),
}


@pytest.mark.parametrize("argv", sorted(README_SVG_SHA256))
def test_readme_svg_bytes_pinned(tmp_path, argv):
    name, digest = README_SVG_SHA256[argv]
    assert main(argv.split() + ["--out", str(tmp_path / "out")]) == 0
    assert sha256((tmp_path / "out" / name).read_text()) == digest


@pytest.mark.parametrize("r", ["1e-100", "1", "1e100"])
def test_contour_levels_at_extreme_scales(tmp_path, r):
    # products of two offsets near 1e-200 underflowed to zero and drew no
    # level; near 1e200 they overflowed with a RuntimeWarning
    argv = ["solve", "--domain", f"disk:r={r}", "--h", f"{float(r) / 10!r}",
            "--g", "holo:m=2,component=1", "--out", str(tmp_path / "out")]
    assert main(argv) == 0
    assert (tmp_path / "out" / "contour.svg").read_text().count("<path") == 10


def test_svg_bytes_pinned(disk_mesh, sample_field):
    x = disk_mesh.vertices[:, 0]
    centroids = disk_mesh.centroids
    # np.round(x, 1) takes each level below at several vertices, where the
    # edges through them are not crossed
    on_vertices = ScalarField(disk_mesh, np.round(x, 1))
    assert {0.0, 0.3, -0.5} <= set(on_vertices.values.tolist())
    # digests recorded before the emitters became array code
    pins = {
        "contour": (
            contour_svg(sample_field, levels=8),
            "3b1768126415fae6b9de7bf4abfc1bd5e35eaab7f1af26d85b47dc2477cbb03d",
        ),
        "contour through vertices": (
            contour_svg(on_vertices, levels=[-0.5, 0.0, 0.3]),
            "a34ed9687ff68a352e010ffbe3ecf3b344d5a0cdb25cf790046b21b6888ba322",
        ),
        "heatmap both signs": (
            heatmap_svg(disk_mesh, centroids[:, 0] - 0.3 * centroids[:, 1]),
            "dd0cf5dac9dcbf8596320cf82b248e7ec942d93e85fdee29e732cec01454bb4e",
        ),
        "heatmap vmax 0": (
            heatmap_svg(disk_mesh, np.zeros(disk_mesh.num_triangles)),
            "ded74cab1e0d1ce5b301eaca039cf8306447c0838537e5741b0c208eb4ffe8d7",
        ),
    }
    assert {k: sha256(svg) for k, (svg, _) in pins.items()} == {
        k: digest for k, (_, digest) in pins.items()
    }


@pytest.fixture(scope="module")
def heatmap_meshes(disk_mesh):
    # a read-back annulus: two loops and no loop geometry
    annulus = mesh_from_text(mesh_to_text(generate_annulus((0.0, 0.0), 0.2, 1.0, 0.1)))
    return {"disk": disk_mesh, "annulus": annulus}


# both signs, zeros, subnormals and the extremes of the colour scale
HEAT_VALUES = [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 1e300, -1e300, 1.0, -2.5]


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(
    pool=st.lists(
        st.sampled_from(HEAT_VALUES) | st.floats(allow_nan=False, allow_infinity=False),
        min_size=1,
        max_size=6,
    ),
    seed=st.integers(0, 2**32 - 1),
    name=st.sampled_from(["disk", "annulus"]),
)
@example(pool=[0.0, -0.0], seed=0, name="disk")  # vmax = 0
@example(pool=[0.0], seed=0, name="annulus")
@example(pool=[5e-324, -5e-324, 1e-310], seed=1, name="disk")
@example(pool=[1e300, -1e300, 5e-324], seed=2, name="annulus")
def test_heatmap_with_the_kept_frame_matches_the_reference(heatmap_meshes, pool, seed, name):
    mesh = heatmap_meshes[name]
    values = np.random.default_rng(seed).choice(np.array(pool), mesh.num_triangles)
    assert heatmap_svg(mesh, values) == reference.heatmap_svg(mesh, values)


def test_a_second_drawing_on_one_mesh_gives_the_same_bytes(fresh_store, disk_mesh, sample_field):
    det = jacobian_field(mapping_field(holomorphic_oracle(2), disk_mesh))
    # the contour builds the frame, the heat map adds its template
    contour = contour_svg(sample_field, levels=8)
    assert disk_mesh in _store
    heat = heatmap_svg(disk_mesh, det)
    assert heat == reference.heatmap_svg(disk_mesh, det)
    assert heatmap_svg(disk_mesh, det) == heat
    assert contour_svg(sample_field, levels=8) == contour
    assert len(_store) == 1


def test_a_frame_dies_with_its_mesh(fresh_store):
    mesh = generate_disk.__wrapped__((0.0, 0.0), 1.0, 0.3)  # no generator memo
    heatmap_svg(mesh, np.ones(mesh.num_triangles))
    assert mesh in _store
    gone = weakref.ref(mesh)
    del mesh
    gc.collect()
    assert gone() is None
    assert len(_store) == 0


_SMALL_DISK = generate_disk((0.0, 0.0), 1.0, 0.3)


def crossed_triangles(values, triangles, level) -> int:
    """Triangles with exactly two edges whose ends lie strictly on both sides."""
    count = 0
    for tri in triangles.tolist():
        crossings = 0
        for a, b in ((0, 1), (1, 2), (2, 0)):
            va, vb = values[tri[a]], values[tri[b]]
            if va < level < vb or vb < level < va:
                crossings += 1
        count += crossings == 2
    return count


@st.composite
def field_and_levels(draw):
    n = _SMALL_DISK.num_vertices
    # small integers make many vertices share a value, and so many ties
    value = st.integers(-3, 3).map(float) | st.floats(-2.0, 2.0)
    values = draw(st.lists(value, min_size=n, max_size=n))
    level = st.sampled_from(values) | st.floats(-3.5, 3.5)
    return values, draw(st.lists(level, min_size=1, max_size=6))


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(field_and_levels())
# offsets near 1e-216, whose products underflow to zero: 43 crossed triangles
@example(([-1e-216 if i % 3 == 0 else 0.0 for i in range(_SMALL_DISK.num_vertices)], [-6e-217]))
def test_contour_segments_match_a_plain_loop(case):
    values, levels = case
    svg = contour_svg(ScalarField(_SMALL_DISK, np.array(values)), levels=levels)
    paths = [e for e in ET.fromstring(svg).iter() if e.tag.endswith("path")]
    drawn = [(p.get("stroke"), p.get("d").count("M")) for p in paths]
    expected = []
    for li, level in enumerate(levels):
        count = crossed_triangles(values, _SMALL_DISK.triangles, level)
        if count:
            hue = int(240 - 240 * li / max(1, len(levels) - 1))
            expected.append((f"hsl({hue},70%,45%)", count))
    assert drawn == expected
