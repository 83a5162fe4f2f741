import dataclasses
import hashlib
import json
import warnings

import pytest

from sigmalab import cli, coefficients, fd, fem, generate_disk, mesh
from sigmalab.cli import COMMANDS, OPTIONS, build_parser, main
from sigmalab.errors import SigmalabError


def run(tmp_path, *args):
    out = tmp_path / "out"
    code = main(list(args) + ["--out", str(out)])
    return code, out


def test_mesh_command(tmp_path, capsys):
    code, out = run(tmp_path, "mesh", "--domain", "disk:r=1", "--h", "0.2")
    assert code == 0
    assert (out / "mesh.txt").exists()
    assert (out / "config.json").exists()
    assert "vertices" in capsys.readouterr().out


def output_bytes(out):
    return {p.name: p.read_bytes() for p in sorted(out.iterdir())}


@pytest.mark.parametrize("order", [("-0", "0"), ("0", "-0")])
def test_mesh_text_of_a_centre_at_minus_zero_is_kept_apart(tmp_path, order):
    # -0.0 == 0.0: a memo keyed on values would write whichever ran first
    texts = {}
    for cx in order:
        (tmp_path / cx).mkdir()
        code, out = run(tmp_path / cx, "mesh", "--domain", f"disk:r=1,cx={cx}", "--h", "0.5")
        assert code == 0
        texts[cx] = (out / "mesh.txt").read_bytes()
        fresh = mesh.generate_disk.__wrapped__((float(cx), 0.0), 1.0, 0.5)
        assert texts[cx] == mesh.mesh_to_text(fresh).encode()
    assert texts["-0"].splitlines()[2] == b"-0.0 0.0"
    assert texts["0"].splitlines()[2] == b"0.0 0.0"


def test_verify_repeated_in_one_process_writes_the_same_bytes(tmp_path):
    disk = ["--domain", "disk:r=1", "--h", "0.1"]
    options = ["--g", "identity", "--margin", "0.1", "--directions", "8"]
    verify_a = ["verify", *disk, "--sigma", "randholder:seed=3", *options]
    verify_b = ["verify", *disk, "--sigma", "randnonsym:seed=5", *options]
    beltrami = ["beltrami", *disk, "--sigma", "randholder:seed=3", "--g", "x1"]
    outputs = []

    def verify_outputs(k, argv):
        (tmp_path / str(k)).mkdir()
        code, out = run(tmp_path / str(k), *argv)
        assert code == 0
        outputs.append(output_bytes(out))

    # field B after field A on the one memoized mesh, its text and SVG frame
    for k, argv in enumerate([verify_a, beltrami, verify_a, verify_b]):
        verify_outputs(k, argv)
    assert outputs[2] == outputs[0]
    # B again from a cold start: nothing field-specific was kept with the mesh
    mesh._last_build.clear()
    mesh._store.clear()
    verify_outputs(4, verify_b)
    assert outputs[4] == outputs[3]
    assert outputs[3] != outputs[0]


def test_solve_nd_repeated_in_one_process_writes_the_same_bytes(tmp_path, fresh_grids):
    grid = ["--domain", "annulus:rin=0.25,rout=0.95", "--spacing", "0.05"]
    options = ["--g", "oracle", "--b", "auto"]
    solve_a = ["solve-nd", *grid, "--sigma", "meyers:alpha=2", *options]
    solve_b = ["solve-nd", *grid, "--sigma", "meyers:alpha=0.5", *options]
    outputs, grids = [], []
    # A, then B, then A again on the one memoized grid and its plan, then A
    # from a cold start
    for k, argv in enumerate([solve_a, solve_b, solve_a, None]):
        if argv is None:
            fd._last_grid.clear()
            argv = solve_a
        (tmp_path / str(k)).mkdir()
        code, out = run(tmp_path / str(k), *argv)
        assert code == 0
        outputs.append(output_bytes(out))
        (kept,) = fd._last_grid.values()
        grids.append(kept)
    assert grids[0] is grids[1] is grids[2] is not grids[3]
    assert outputs[2] == outputs[0]
    assert outputs[3] == outputs[0]
    assert outputs[1] != outputs[0]


def test_solve_affine_reference(tmp_path, capsys):
    code, out = run(
        tmp_path, "solve", "--domain", "disk:r=1", "--h", "0.1",
        "--sigma", "identity", "--g", "x1",
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["linf_vs_reference"] <= 1e-10
    assert (out / "u.txt").exists()
    assert (out / "contour.svg").exists()
    line = capsys.readouterr().out
    assert "residual" in line


def test_solve_meyers_oracle(tmp_path):
    code, out = run(
        tmp_path, "solve", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.05",
        "--sigma", "meyers:alpha=2", "--g", "oracle", "--no-svg",
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rel_l2_vs_reference"] <= 0.02
    assert not (out / "contour.svg").exists()


def test_solve_rejects_non_elliptic(tmp_path, capsys):
    code, _ = run(
        tmp_path, "solve", "--domain", "disk:r=1", "--h", "0.2",
        "--sigma", "aniso:l1=-1,l2=1",
    )
    assert code == 2
    assert "not elliptic" in capsys.readouterr().err


def test_solve_unknown_descriptor_is_config_error(tmp_path):
    code, _ = run(tmp_path, "solve", "--domain", "disk:r=1", "--sigma", "bogus:x=1")
    assert code == 2


def test_solve_missing_domain_is_config_error(tmp_path):
    assert main(["solve", "--out", str(tmp_path)]) == 2


def test_solve_nd_command(tmp_path):
    code, out = run(
        tmp_path, "solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1",
        "--sigma", "identity", "--g", "x1", "--b", "zero",
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rel_l2_vs_reference"] <= 1e-9
    assert summary["solve_residual"] <= 1e-10
    assert (out / "grid.txt").exists()


def test_solve_nd_singular_factor_exits_3(tmp_path, capsys, monkeypatch):
    def singular(*args, **kwargs):
        raise RuntimeError("Factor is exactly singular")

    monkeypatch.setattr("scipy.sparse.linalg.splu", singular)
    code, out = run(
        tmp_path, "solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1",
        "--sigma", "identity", "--g", "x1", "--b", "zero",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "singular" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.usefixtures("fresh_store")
def test_beltrami_singular_stream_function_exits_3(tmp_path, capsys, monkeypatch):
    # beltrami factors the stiffness system, then the stream-function
    # Laplacian (no earlier call has cached it); SuperLU finds the second
    # exactly singular
    from scipy.sparse import linalg

    real, calls = linalg.splu, []

    def second_singular(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:
            raise RuntimeError("Factor is exactly singular")
        return real(*args, **kwargs)

    monkeypatch.setattr(linalg, "splu", second_singular)
    code, out = run(tmp_path, "beltrami", "--domain", "disk:r=1", "--h", "0.2",
                    "--sigma", "identity", "--g", "x1")
    assert code == 3 and len(calls) == 2
    err = capsys.readouterr().err
    assert "stream-function Laplacian is singular" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.usefixtures("fresh_store")
def test_beltrami_after_verify_solves_through_its_factor(tmp_path, splu_calls):
    # a field-sweep round: verify and beltrami on one field and one disk
    disk = ("--domain", "disk:r=1", "--h", "0.05", "--sigma", "randnonsym:seed=2025")
    code, fresh = run(tmp_path / "fresh", "beltrami", *disk, "--g", "x1")
    assert code == 0 and len(splu_calls) == 2  # the stiffness system and the stream function
    mesh._store.clear()
    code, _ = run(tmp_path / "verify", "verify", *disk, "--g", "identity", "--margin", "0.1",
                  "--directions", "8")
    assert code == 0 and len(splu_calls) == 3
    code, hit = run(tmp_path / "hit", "beltrami", *disk, "--g", "x1")
    assert code == 0 and len(splu_calls) == 4  # the stream function only
    assert output_bytes(hit) == output_bytes(fresh)


def test_mesh_far_above_the_cap_gives_a_short_message(tmp_path, capsys):
    # about 3e320 vertices: the count is written as digits and a power of ten
    code, out = run(tmp_path, "mesh", "--domain", "disk:r=1", "--h", "1e-160")
    assert code == 3
    err = capsys.readouterr().err
    assert len(err) < 200 and "about 3.000e320 vertices, above the cap of 1000000" in err
    assert not out.exists()


@pytest.mark.parametrize(
    "domain, h, message",
    [("annulus:rin=1e307,rout=1e308", "1e307",
      "annulus radius 1e+308 is too large: the ring circumferences overflow"),
     ("annulus:rin=1,rout=1e308", "1e306",
      "annulus radius 1e+308 is too large: the ring circumferences overflow"),
     # radius * i overflows before the division by the ring count
     ("disk:r=1e308", "1e307", "non-finite vertex coordinates"),
     ("disk:r=1.7e308", "1e308", "non-finite vertex coordinates"),
     ("rect:w=1e308,h=1e308", "5e307", "non-finite vertex coordinates"),
     ("disk:r=1e200", "1e199", "triangle areas overflow; vertex coordinates are too large")],
)
def test_mesh_near_the_largest_double_exits_3_in_one_line(tmp_path, capsys, domain, h, message):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "mesh", "--domain", domain, "--h", h)
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == f"numerical failure: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize(
    "domain, spacing", [("rect:w=1,h=1", "1e-300"), ("rect:w=1e300,h=1", "0.5")]
)
def test_solve_nd_oversized_grid_exits_3(tmp_path, capsys, domain, spacing):
    code, out = run(
        tmp_path, "solve-nd", "--domain", domain, "--spacing", spacing,
        "--sigma", "identity", "--g", "x1", "--b", "zero",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "above the cap" in err and "Traceback" not in err
    assert not out.exists()


def test_any_package_error_is_a_numerical_failure(tmp_path, capsys, monkeypatch):
    # a package error class that main names nowhere still exits 3
    class FreshError(SigmalabError):
        pass

    def failing(cfg):
        raise FreshError("fresh failure")

    monkeypatch.setitem(COMMANDS, "mesh", (failing, COMMANDS["mesh"][1]))
    code, out = run(tmp_path, "mesh", "--domain", "disk:r=1", "--h", "0.2")
    assert code == 3
    err = capsys.readouterr().err
    assert "numerical failure: fresh failure" in err and "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "command, g",
    [
        ("map", "holo:m=40"),
        ("verify", "holo:m=40"),
        ("solve", "holo:m=40,component=1"),
        ("unimodal", "holo:m=40,component=2"),
        ("map", "meyers:alpha=2000"),
        ("solve", "meyers:alpha=2000,component=1"),
    ],
)
def test_overflowing_boundary_data_exits_3(tmp_path, capsys, command, g):
    # z^40 and |x|^1999 overflow near x = 1e9; tier-1 turns a numpy RuntimeWarning
    # into an error
    code, out = run(tmp_path, command, "--domain", "disk:r=0.1,cx=1e9", "--h", "0.05", "--g", g)
    assert code == 3
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_overflowing_sigma_exits_3_with_no_warning(tmp_path, capsys):
    # x * x overflows in the meyers evaluator at the drift's difference
    # points x +- 1e300, then 0/0; at_points refuses the values without a
    # numpy RuntimeWarning first
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out = run(tmp_path, "solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1",
                        "--sigma", "meyers:alpha=2", "--g", "oracle", "--fd-step", "1e300")
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert "non-finite" in capsys.readouterr().err
    assert not out.exists()


def test_map_command(tmp_path):
    code, out = run(
        tmp_path, "map", "--domain", "disk:r=1", "--h", "0.15", "--g", "identity",
    )
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["jacobian_min"] > 0.9
    assert (out / "u1.txt").exists() and (out / "u2.txt").exists()
    assert (out / "jacobian.svg").exists()


def test_verify_pass(tmp_path, capsys):
    code, out = run(
        tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.1",
        "--sigma", "holder:eps=0.4,cx=0.2,cy=-0.1,w=0.5,theta=0.7",
        "--g", "identity", "--margin", "0.1", "--directions", "8", "--no-svg",
    )
    assert code == 0
    report = json.loads((out / "lewy_report.json").read_text())
    assert report["passed"] is True
    assert report["min_abs_det"] > 0
    assert "pass" in capsys.readouterr().out


def test_verify_meyers_annulus_inset_minimum(tmp_path):
    code, out = run(
        tmp_path, "verify", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.03",
        "--sigma", "meyers:alpha=2", "--g", "oracle", "--margin", "0.1", "--no-svg",
    )
    assert code == 0
    report = json.loads((out / "lewy_report.json").read_text())
    # analytic det at the inner inset radius 0.3 is 2 * 0.09
    assert abs(report["min_abs_det"] - 0.18) <= 0.15 * 0.18


def test_verify_hypothesis_failure(tmp_path, capsys):
    code, out = run(
        tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.1",
        "--g", "holo:m=2", "--no-svg",
    )
    assert code == 4
    report = json.loads((out / "lewy_report.json").read_text())
    assert report["status"] == "hypothesis-failure"


def test_verify_hypothesis_failure_at_extreme_image_scale(tmp_path, capsys):
    # images near 1e180: the injectivity check works on images scaled by a
    # power of two, so nothing overflows; z^3 is not injective
    code, out = run(
        tmp_path, "verify", "--domain", "disk:r=1e60", "--h", "1e59", "--g", "holo:m=3",
    )
    assert code == 4
    report = json.loads((out / "lewy_report.json").read_text())
    assert report["status"] == "hypothesis-failure"
    assert "hypothesis failure" in capsys.readouterr().out


@pytest.mark.parametrize("x0", ["1e11", "1e12"])
def test_verify_a_square_far_from_the_origin_passes(tmp_path, capsys, x0):
    # the collision distance was 1e-12 times the largest image coordinate,
    # about 1 at 1e12, so boundary vertices 0.1 apart collided: exit 4
    code, out = run(tmp_path, "verify", "--domain", f"rect:w=1,h=1,x0={x0},y0={x0}",
                    "--h", "0.1", "--g", "identity")
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "lewy_report.json").read_text())["injective"] is True


def test_verify_samples_sigma_once(tmp_path, monkeypatch):
    # the solve samples sigma at the centroids and checks it there;
    # lewy_verify reads the solved map only
    calls = []
    build = coefficients.field_from_descriptor

    def counting(text):
        field = build(text)

        def evaluator(X, Y):
            calls.append(len(X))
            return field.evaluator(X, Y)

        return dataclasses.replace(field, evaluator=evaluator)

    monkeypatch.setattr(coefficients, "field_from_descriptor", counting)
    code, _ = run(
        tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.1",
        "--sigma", "randholder:seed=2024", "--g", "identity", "--no-svg",
    )
    assert code == 0
    assert calls == [generate_disk((0.0, 0.0), 1.0, 0.1).num_triangles]


def test_meyers_command(tmp_path, capsys):
    code, out = run(
        tmp_path, "meyers", "--alpha", "2", "--domain", "annulus:rin=0.2,rout=1",
        "--h", "0.08", "--levels", "2",
    )
    assert code == 0
    report = json.loads((out / "convergence.json").read_text())
    rows = report["levels"]
    assert len(rows) == 2
    assert rows[1]["l2_ratio_u1"] >= 3.0
    assert (out / "convergence.txt").exists()


def test_meyers_alpha_one_roundoff(tmp_path):
    code, out = run(
        tmp_path, "meyers", "--alpha", "1", "--domain", "annulus:rin=0.2,rout=1",
        "--h", "0.1", "--levels", "2",
    )
    assert code == 0
    rows = json.loads((out / "convergence.json").read_text())["levels"]
    assert rows[0]["rel_l2_u1"] <= 1e-10  # identity map is affine-exact


def test_meyers_alpha_half_jacobian_grows_inward(tmp_path):
    code, out = run(
        tmp_path, "meyers", "--alpha", "0.5", "--domain", "annulus:rin=0.2,rout=1",
        "--h", "0.05", "--levels", "2",
    )
    assert code == 0
    rows = json.loads((out / "convergence.json").read_text())["levels"]
    means = rows[-1]["jacobian_ring_means"]
    assert all(means[k] > means[k + 1] for k in range(len(means) - 1))


def test_beltrami_command(tmp_path):
    code, out = run(
        tmp_path, "beltrami", "--domain", "disk:r=1", "--h", "0.1",
        "--sigma", "meyers:alpha=2", "--g", "oracle",
    )
    assert code == 0
    report = json.loads((out / "beltrami_report.json").read_text())
    assert report["dilatation_bound"] == pytest.approx(1 / 3, abs=1e-9)
    assert report["beltrami_residual"] < 0.1


@pytest.mark.parametrize(
    "args, descriptor, checks",
    [
        (["solve", "--domain", "disk:r=1", "--h", "0.2"], "randholder:seed=3", 1),
        (["map", "--domain", "disk:r=1", "--h", "0.2", "--g", "identity"], "randholder:seed=3", 1),
        (["verify", "--domain", "disk:r=1", "--h", "0.2", "--g", "identity", "--directions", "4"],
         "randholder:seed=3", 1),
        (["solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1"], "randholder:seed=3", 1),
        (["meyers", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.2", "--levels", "3"],
         "meyers:alpha=2.0", 3),
        (["beltrami", "--domain", "disk:r=1", "--h", "0.1", "--g", "x1"], "randholder:seed=3", 2),
    ],
    ids=["solve", "map", "verify", "solve-nd", "meyers", "beltrami"],
)
def test_sigma_checks_per_command(tmp_path, monkeypatch, args, descriptor, checks):
    # each command checks its sigma once per mesh or grid (meyers once per
    # level) and hands the samples to the solver and, in beltrami, to the
    # Beltrami residual; beltrami's stream function checks it again, and the
    # stream function's Laplacian is assembled from identity samples, which
    # need no check
    checked = []
    report = coefficients.ellipticity_report

    def recording(field, sample_points):
        checked.append(field.descriptor)
        return report(field, sample_points)

    monkeypatch.setattr(coefficients, "ellipticity_report", recording)
    sigma = ["--sigma", descriptor] if args[0] != "meyers" else []
    code, _ = run(tmp_path, *args, *sigma)
    assert code == 0
    assert checked == [descriptor] * checks


#: 1e200 I is elliptic, with eigenvalues 1e200 and 1e-200; its determinant
#: overflows unless each sample is scaled first
HUGE_SIGMA = "const:a11=1e200,a12=0,a21=0,a22=1e200"


def test_solve_at_extreme_sigma_scale(tmp_path, capsys):
    code, out = run(
        tmp_path, "solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", HUGE_SIGMA,
    )
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["rel_l2_vs_reference"] < 1e-14


# a bump exponent that overflows is exp(-inf) = 0, the bump's value in double;
# a spacing of 2e-151 still leaves 1/spacing^2 = 2.5e301 finite
@pytest.mark.parametrize(
    "args",
    [
        ["solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", "holder:eps=0.5,w=1e-160"],
        ["solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", "holder:eps=0.5,cx=1e200"],
        ["solve-nd", "--domain", "rect:w=1e-150,h=1e-150", "--spacing", "2e-151"],
        # nodal values near 1e300: the error's squares are scaled before they overflow
        ["solve-nd", "--domain", "rect:w=1,h=1,x0=1e300", "--spacing", "0.3", "--b", "zero"],
        # areas near 1e-302: the L2 error's squares are scaled before they underflow
        ["solve", "--domain", "disk:r=1e-150", "--h", "3e-151"],
    ],
)
def test_extreme_but_valid_input_solves(tmp_path, capsys, args):
    code, out = run(tmp_path, *args, "--g", "x1")
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["rel_l2_vs_reference"] < 1e-14


def test_a_square_far_from_the_origin_meshes(tmp_path, capsys):
    # a shoelace sum on absolute coordinates cancelled here: exit 3, "outer
    # boundary loop is not counterclockwise"
    code, out = run(tmp_path, "mesh", "--domain", "rect:w=1,h=1,x0=1e8,y0=1e8", "--h", "0.25")
    assert code == 0, capsys.readouterr().err
    assert (out / "mesh.txt").exists()


@pytest.mark.parametrize(
    "r, m, unit",
    [("1e100", 2, 0.04711642365071369), ("1e60", 3, 0.08188128729394668),
     ("1e-100", 3, 0.08188128729394668)],
)
def test_beltrami_residual_at_extreme_scales(tmp_path, capsys, r, m, unit):
    # unscaled sums of squares wrote "nan" at r=1e100 and called the map
    # constant at r=1e-100; unit is the residual on the unit disk
    code, out = run(tmp_path, "beltrami", "--domain", f"disk:r={r}", "--h", f"{float(r) / 10!r}",
                    "--g", f"holo:m={m},component=1")
    assert code == 0, capsys.readouterr().err
    report = json.loads((out / "beltrami_report.json").read_text())
    assert report["beltrami_residual"] == pytest.approx(unit, rel=1e-12)


def test_unimodal_command(tmp_path, capsys):
    code, out = run(
        tmp_path, "unimodal", "--domain", "disk:r=1", "--h", "0.1", "--g", "costheta",
    )
    assert code == 0
    report = json.loads((out / "unimodal_report.json").read_text())
    assert report["verdict"]["unimodal"] is True
    code2, out2 = run(
        tmp_path, "unimodal", "--domain", "disk:r=1", "--h", "0.1",
        "--g", "harmonic:re-z2",
    )
    report2 = json.loads((out2 / "unimodal_report.json").read_text())
    assert report2["verdict"]["unimodal"] is False


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"domain": "disk:r=1", "h": 0.3, "sigma": "identity", "g": "x1"}))
    out = tmp_path / "out"
    code = main(["solve", "--config", str(cfg), "--h", "0.2", "--out", str(out)])
    assert code == 0
    resolved = json.loads((out / "config.json").read_text())
    assert resolved["h"] == 0.2  # flag wins
    assert resolved["domain"] == "disk:r=1"


def test_determinism_byte_identical(tmp_path):
    args = [
        "solve", "--domain", "disk:r=1", "--h", "0.15",
        "--sigma", "holder:eps=0.3,cx=0.1,cy=0.0,w=0.5,theta=0.2",
        "--g", "harmonic:re-z2",
    ]
    out1, out2 = tmp_path / "r1", tmp_path / "r2"
    assert main(args + ["--out", str(out1)]) == 0
    assert main(args + ["--out", str(out2)]) == 0
    for name in ("mesh.txt", "u.txt", "summary.json", "contour.svg", "config.json"):
        b1 = (out1 / name).read_bytes()
        b2 = (out2 / name).read_bytes()
        assert b1 == b2, name


def test_failed_run_leaves_no_files(tmp_path):
    out = tmp_path / "out"
    code = main(
        ["solve", "--domain", "disk:r=1", "--sigma", "aniso:l1=-1,l2=1", "--out", str(out)]
    )
    assert code == 2
    assert not out.exists()


@pytest.mark.parametrize(
    "args, message",
    [
        (["solve-nd", "--domain", "annulus:rout=1"], "annulus domain needs rin and rout"),
        (["solve-nd", "--domain", "rect:w=1"], "rect domain needs w and h"),
        (["unimodal", "--domain", "disk:r=1", "--g", "meyers:alpha=2,component=3"],
         "no component 3"),
        (["unimodal", "--domain", "disk:r=1", "--g", "holo:m=2,component=3"], "no component 3"),
        (["unimodal", "--domain", "disk:r=1", "--g", "meyers:alpha=2,component=0"],
         "no component 0"),
        (["solve", "--domain", "disk:r=1", "--h", "nan"], "option h must be a finite number"),
        (["unimodal", "--domain", "disk:r=1", "--g", "oracle", "--sigma", "meyers"],
         "meyers oracle needs alpha"),
        (["mesh", "--domain", "disk:r=1", {"refine": "a"}], "option refine must be an integer"),
        (["verify", "--domain", "disk:r=1", "--g", "identity", {"directions": 2.5}],
         "option directions must be an integer"),
        (["unimodal", "--domain", "disk:r=1", {"g": 5}], "option g must be a string"),
        (["solve", "--domain", "disk:r=1", {"sigma": 5}], "option sigma must be a string"),
        (["mesh", {"domain": 5}], "option domain must be a string"),
        (["solve-nd", "--domain", "rect:w=1,h=1", {"b": None}], "option b must be a string"),
        (["mesh", "--domain", "disk:r=1", {"h": True}], "option h must be a finite number"),
        (["verify", "--domain", "disk:r=1", "--g", "identity", {"margin": False}],
         "option margin must be a finite number"),
        (["solve", "--domain", "disk:r=1", {"sigmma": "meyers:alpha=2"}],
         "unknown options in config file: ['sigmma']"),
        (["solve", "--domain", "disk:r=1", {"command": "mesh"}],
         "config file is for command 'mesh', not 'solve'"),
        (["solve", "--domain", "disk:r=1", {"svg": "false"}], "option svg must be true or false"),
        (["beltrami", "--domain", "disk:r=1", {"allow_holes": "no"}],
         "option allow_holes must be true or false"),
        # an old config may still name the removed option (meyers fixes it at 0.3)
        (["meyers", "--domain", "annulus:rin=0.2,rout=1", {"jacobian_rmin": 0.3}],
         "unknown options in config file: ['jacobian_rmin']"),
        (["solve", "--domain", "disk:r=1", "--sigma", "randholder:seed=-1"],
         "seed must be nonnegative"),
        (["beltrami", "--domain", "disk:r=1", "--sigma", "meyers:alpha=inf"], "non-finite value"),
        (["beltrami", "--domain", "disk:r=1", "--sigma", "holder:eps=nan"], "non-finite value"),
        (["solve", "--domain", "disk:r=1", "--sigma", "nonsym:tau=inf"], "non-finite value"),
        (["solve", "--domain", "disk:r=1", "--sigma", "aniso:l1=1e400,l2=1"], "non-finite value"),
        (["unimodal", "--domain", "disk:r=1", "--g", "costheta:cx=nan"], "non-finite value"),
        (["solve", "--domain", "disk:r=1", "--sigma", "randholder:seed=1.5"],
         "parameter seed must be an integer"),
        (["map", "--domain", "disk:r=1", "--g", "holo:m=2.5"], "parameter m must be an integer"),
        (["unimodal", "--domain", "disk:r=1", "--g", "meyers:alpha=2,component=1.5"],
         "parameter component must be an integer"),
        (["mesh", "--domain", "disk:r=1,r=2,foo=3"], "repeated key 'r'"),
        (["mesh", "--domain", "disk:r=1,foo=3"], "disk domain takes no parameter foo"),
        (["mesh", "--domain", "disk:r=1", "--h", "0.3", "--refine", "-2"],
         "option refine must be at least 0, got -2"),
        (["verify", "--domain", "disk:r=1", "--h", "0.2", "--g", "identity", "--margin", "-1"],
         "option margin must be at least 0, got -1.0"),
        (["unimodal", "--domain", "disk:r=1", "--h", "0.2", "--atol", "-1"],
         "option atol must be at least 0, got -1.0"),
        (["verify", "--domain", "disk:r=1", "--h", "0.2", "--g", "identity",
          "--directions", "0"], "option directions must be at least 1, got 0"),
        (["unimodal", "--domain", "disk:r=1", "--h", "0.2", "--loop", "-1"],
         "option loop must be at least 0, got -1"),
        (["unimodal", "--domain", "disk:r=1", "--h", "0.2", "--loop", "5"],
         "no boundary loop 5; the mesh has 1"),
        (["meyers", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.2", {"levels": 1}],
         "option levels must be at least 2, got 1"),
        (["mesh", "--domain", "disk:r=1", "--h", "0"], "option h must be greater than 0, got 0.0"),
        (["solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "-0.1"],
         "option spacing must be greater than 0, got -0.1"),
        (["solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1", "--fd-step", "1e-300",
          "--sigma", "meyers:alpha=2", "--g", "oracle"],
         "finite-difference step 1e-300 is below the resolution of the coordinates at (0.1, 0.1)"),
        (["mesh", "--domain", "disk:r=-1", "--h", "0.1"], "disk radius must be positive and finite"),
        (["mesh", "--domain", "annulus:rin=1,rout=0.5", "--h", "0.1"],
         "need 0 < r_in < r_out < inf, got r_in=1.0, r_out=0.5"),
        (["mesh", "--domain", "rect:w=1,h=1", "--h", "5"],
         "mesh size h must satisfy 0 < h <= min(width, height)"),
        (["solve-nd", "--domain", "annulus:rin=1,rout=0.5"],
         "need 0 < r_in < r_out < inf, got r_in=1.0, r_out=0.5"),
        # w * w is 0 or inf, so the bump's exponent would be 0/0 or inf/inf
        (["solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", "holder:eps=0.5,w=1e-300"],
         "holder bump width must be positive with a finite nonzero square, got 1e-300"),
        (["solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", "holder:eps=0.5,w=1e200"],
         "holder bump width must be positive with a finite nonzero square, got 1e+200"),
        # 1/spacing^2, the stencil's factor, is not a finite double
        (["solve-nd", "--domain", "rect:w=1e-300,h=1e-300", "--spacing", "2e-301", "--g", "x1"],
         "grid spacing 2e-301 is too small: 1/spacing^2 is not a finite double"),
        (["solve-nd", "--domain", "rect:w=1e-159,h=1e-159", "--spacing", "2e-160", "--g", "x1"],
         "grid spacing 2e-160 is too small: 1/spacing^2 is not a finite double"),
        # subnormal triangle areas would lose the stiffness entries' digits
        (["solve", "--domain", "disk:r=1e-154", "--h", "3e-155", "--g", "x1"],
         "mesh size h=3e-155 is too small: triangle 0 has area 4.811e-310"),
        # areas that underflow to zero are too small, not degenerate
        (["mesh", "--domain", "disk:r=1e-200", "--h", "1e-201"],
         "mesh size h=1e-201 is too small: triangle 0 has area 0.000e+00"),
        (["mesh", "--domain", "rect:w=1e-200,h=1e-200", "--h", "1e-201"],
         "mesh size h=1e-201 is too small: triangle 0 has area 0.000e+00"),
        # grids with no node whose 8 neighbours are all in the domain
        (["solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "1", "--g", "x1"],
         "grid spacing 1.0 leaves no interior node"),
        (["solve-nd", "--domain", "annulus:rin=0.2,rout=0.3", "--spacing", "0.5", "--g", "x1"],
         "grid spacing 0.5 leaves no interior node"),
        # a stream function on a domain with holes needs --allow-holes
        (["beltrami", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.1",
          "--sigma", "meyers:alpha=2", "--g", "oracle"],
         "stream function needs a simply connected domain; mesh has 2 boundary loops"),
        # the meyers field and its exact solution are centred at the origin
        (["meyers", "--domain", "annulus:rin=0.2,rout=1,cx=0.5", "--h", "0.1",
          "--levels", "2", "--alpha", "0.5"],
         "the meyers reproduction runs on an annulus centred at the origin"),
        (["meyers", "--domain", "annulus:rin=0.2,rout=1,cy=-0.1", "--h", "0.1", "--levels", "2"],
         "the meyers reproduction runs on an annulus centred at the origin"),
    ],
)
def test_malformed_input_is_config_error(tmp_path, capsys, args, message):
    # a dict in args stands for a JSON config file holding it
    config = tmp_path / "config.json"
    for i, arg in enumerate(args):
        if isinstance(arg, dict):
            config.write_text(json.dumps(arg))
            args = args[:i] + ["--config", str(config)] + args[i + 1 :]
    code, out = run(tmp_path, *args)
    assert code == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


#: the holder report's floats in file order, as they were while the P1 solves
#: used scipy's spsolve (COLAMD); SuperLU's symmetric mode on an MMD ordering
#: moved their last bits (at most 2.6e-15 relative) and so the digest
HOLDER_FLOATS_COLAMD = [
    0.1, 0.8803879528228036, 0.9319489328705932, 0.8922743418057594,
    0.8812351768833704, 0.9066421477441284, 0.9503463978494577, 0.9830395511702158,
    0.9940183519423749, 0.967916880944414, 0.10699717583813895, 0.6904220233645737,
    0.2139943516762779, 0.0, 0.0, 0.12043817795656425, 0.43525483599785736,
    0.2408763559131285, 0.0, -0.3999999999999999, 0.11429196369491218,
    0.4333913032450729, 0.22858392738982436, -0.3999999999999999, 0.0,
    0.10874802679648243, 0.43039641951797863, 0.21749605359296487,
    0.40000000000000013, 0.0, 0.11198756367172247, 0.4235855264816406,
    0.22397512734344494, 0.0, 0.40000000000000013,
]


def json_floats(x):
    """The float leaves of parsed JSON, in file order."""
    if isinstance(x, dict):
        x = list(x.values())
    if isinstance(x, list):
        return [f for v in x for f in json_floats(v)]
    return [x] if isinstance(x, float) else []


# sha256 of lewy_report.json; the holder digest was re-recorded when the P1
# factorization changed, and its floats stay within 1e-13 of the old ones
@pytest.mark.parametrize(
    "domain, h, sigma, g, code, digest, floats",
    [("disk:r=1", "0.1", "holder:eps=0.4,cx=0.2,cy=-0.1,w=0.5,theta=0.7", "identity", 0,
      "a6f0662920d13d42fe0df9d51df82e8eda6135fb80937b2fc333617f9648beb9",
      HOLDER_FLOATS_COLAMD),
     # z^2 is not injective: the hypothesis-failure report with its violations
     ("disk:r=1", "0.1", "identity", "holo:m=2", 4,
      "9ae6ddb3feab0d496b06b4428f47b55b6958ead25a5868bdf231028950b807a4", None),
     # a square, where all five probes resolve and every trace is tested
     ("rect:w=2,h=2,x0=-1,y0=-1", "0.05", "meyers:alpha=1.5", "oracle", 0,
      "0ea0b7452adf68b766b9624e9d2b093d87f043de8c6b2be7586dac5bd6849e91", None)],
    ids=["holder", "holo-m2", "rect-meyers"],
)
def test_lewy_report_bytes_pinned(tmp_path, domain, h, sigma, g, code, digest, floats):
    got, out = run(tmp_path, "verify", "--domain", domain, "--h", h,
                   "--sigma", sigma, "--g", g, "--no-svg")
    assert got == code
    report = (out / "lewy_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest
    if floats is not None:
        got_floats = json_floats(json.loads(report))
        assert len(got_floats) == len(floats)
        for new, old in zip(got_floats, floats):
            assert abs(new - old) <= 1e-13 * abs(old)


# sha256 of beltrami_report.json: the README example, a nonsymmetric field on
# the disk and on the annulus (whose stream function needs --allow-holes), and
# an anisotropic field on the unit square
@pytest.mark.parametrize(
    "args, digest",
    [(("--domain", "disk:r=1", "--sigma", "meyers:alpha=2", "--g", "oracle"),
      "b6d3bdacb42495471d7eb93c8c8d609cbe6d206e777cdcff2cfae15d6364d591"),
     (("--domain", "disk:r=1", "--sigma", "randnonsym:seed=5", "--g", "x1"),
      "704c70d194dfa2037ceb0de46b2b0d17b4651061e1c8e7f0df6bbc9c1dcdbe05"),
     (("--domain", "annulus:rin=0.2,rout=1", "--sigma", "randnonsym:seed=5", "--g", "x1",
       "--allow-holes"),
      "b7510861073974e97ddec0f59b939c55dec05444c7028d09dba3c0bfc93c33a5"),
     (("--domain", "rect:w=1,h=1", "--sigma", "aniso:l1=2,l2=0.5,theta=0.3",
       "--g", "costheta:cx=0.5,cy=0.5"),
      "07b375d4c5293a8fee286acfd517e94ffaf850db25d42dd9de14a40fc07d2695")],
    ids=["readme", "randnonsym-disk", "randnonsym-annulus", "aniso-rect"],
)
def test_beltrami_report_bytes_pinned(tmp_path, args, digest):
    code, out = run(tmp_path, "beltrami", "--h", "0.05", *args)
    assert code == 0
    report = (out / "beltrami_report.json").read_bytes()
    assert hashlib.sha256(report).hexdigest() == digest


@pytest.mark.parametrize(
    "args",
    [("solve", "--domain", "disk:r=1", "--h", "0.1", "--g", "costheta", "--no-svg"),
     ("solve", "--domain", "disk:r=1", "--h", "0.1", "--g", "meyers:alpha=0.5,component=1",
      "--no-svg"),
     ("solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1",
      "--g", "costheta:cx=0.5,cy=0.5")],
    ids=["costheta", "meyers-alpha-0.5", "solve-nd-costheta"],
)
def test_reference_undefined_at_a_point_is_nan(tmp_path, capsys, args):
    # the data are fine on the boundary, but the oracle is undefined at an
    # interior vertex or node (the centre): the solve stands, the comparison is nan
    code, out = run(tmp_path, *args)
    assert code == 0
    summary = json.loads((out / "summary.json").read_text())
    assert summary["rel_l2_vs_reference"] == "nan"
    assert summary.get("linf_vs_reference", "nan") == "nan"
    assert "rel_l2_vs_reference=nan" in capsys.readouterr().out


def test_non_string_out_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": 5}))
    assert main(["mesh", "--domain", "disk:r=1", "--config", str(config)]) == 2
    assert "option out must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "content, message",
    [(b"\xff\xfe", "codec can't decode byte 0xff"),
     (b"[" * 100_000 + b"]" * 100_000, "maximum recursion depth"),
     # past the 4300-digit limit of int(); an interpreter without the limit
     # reads the integer and refuses it as h
     (b'{"h": ' + b"1" * 5000 + b"}", "config error: ")],
    ids=["not-utf8", "nested-100000-deep", "5000-digit-integer"],
)
def test_unreadable_config_is_config_error(tmp_path, capsys, content, message):
    config = tmp_path / "config.json"
    config.write_bytes(content)
    code, out = run(tmp_path, "mesh", "--domain", "disk:r=1", "--config", str(config))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("config error: ") and message in err and "Traceback" not in err
    assert not out.exists()


DISK = ["--domain", "disk:r=1", "--h", "0.2"]
RECT_GRID = ["--domain", "rect:w=1,h=1", "--spacing", "0.1"]


@pytest.mark.parametrize(
    "code, args, message",
    [
        (2, ["solve-nd", "--domain", "disk:r=1", "--spacing", "0.1"],
         "domain 'disk:r=1' is not usable as a grid"),
        (2, ["solve", *DISK, "--g", "oracle", "--sigma", "identity"],
         "g=oracle requires a meyers sigma descriptor"),
        (2, ["solve", *DISK, "--g", "identity"],
         "'identity' is a map; this command needs scalar data"),
        (2, ["map", *DISK, "--g", "x1"], "'x1' is scalar; this command needs a two-component map"),
        (2, ["solve-nd", *RECT_GRID, "--b", "foo"],
         "unknown drift descriptor 'foo' (use auto or zero)"),
        (2, ["mesh", *DISK, "--config", "missing.json"], "cannot read config file"),
        (2, ["mesh", *DISK, "--config", "list.json"], "config file must hold a JSON object"),
        (2, ["solve", *DISK, "--sigma", "aniso:l1"], "malformed descriptor parameter 'l1'"),
        (2, ["solve", *DISK, "--sigma", "holder:eps=-1"],
         "holder bump needs eps > -1 for ellipticity"),
        (2, ["solve-nd", *RECT_GRID, "--fd-step", "0"], "option fd_step must be greater than 0"),
        (3, ["verify", *DISK, "--g", "identity", "--margin", "5"],
         "margin 5.0 leaves no interior triangles"),
        # the step is refused where no drift reads it, too
        (2, ["solve-nd", *RECT_GRID, "--b", "zero", "--fd-step", "-1"],
         "option fd_step must be greater than 0, got -1.0"),
    ],
)
def test_refused_input_exits_cleanly_and_writes_nothing(tmp_path, capsys, monkeypatch, code,
                                                        args, message):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "list.json").write_text("[1, 2]")
    assert run(tmp_path, *args) == (code, tmp_path / "out")
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert not (tmp_path / "out").exists()


def test_fd_step_is_refused_before_the_grid_is_built(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("built a grid or sampled sigma before the step was checked")

    monkeypatch.setattr(cli, "build_grid", unreachable)
    monkeypatch.setattr(coefficients, "require_elliptic", unreachable)
    code, out = run(tmp_path, "solve-nd", *RECT_GRID, "--b", "auto", "--fd-step", "0")
    assert code == 2
    err = capsys.readouterr().err
    assert "option fd_step must be greater than 0" in err and "Traceback" not in err
    assert not out.exists()


def test_verify_direction_count_is_refused_before_the_solve(tmp_path, capsys, monkeypatch):
    def unreachable(*args, **kwargs):
        raise AssertionError("sampled or solved before the direction count was checked")

    monkeypatch.setattr(coefficients, "require_elliptic", unreachable)
    monkeypatch.setattr(fem, "solve_dirichlet", unreachable)
    code, out = run(tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.3",
                    "--g", "identity", "--directions", str(10**15))
    assert code == 3
    err = capsys.readouterr().err
    assert "directions" in err and "above the cap" in err and "Traceback" not in err
    assert not out.exists()


def test_beltrami_refuses_holes_before_the_solve(tmp_path, capsys, monkeypatch):
    calls = []
    solve = fem.solve_dirichlet

    def spy(*args, **kwargs):
        calls.append(args)
        return solve(*args, **kwargs)

    monkeypatch.setattr(fem, "solve_dirichlet", spy)
    code, out = run(tmp_path, "beltrami", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.1",
                    "--sigma", "meyers:alpha=2", "--g", "oracle")
    assert (code, len(calls)) == (2, 0)
    err = capsys.readouterr().err
    assert "stream function needs a simply connected domain; mesh has 2 boundary loops" in err
    assert not out.exists()


@pytest.mark.parametrize("directions, code", [(8, 0), (9, 3)])
def test_verify_direction_cap_counts_directions_times_vertices(tmp_path, monkeypatch,
                                                               directions, code):
    nv = generate_disk((0.0, 0.0), 1.0, 0.3).num_vertices
    monkeypatch.setattr(mesh, "DEFAULT_VERTEX_CAP", 8 * nv)
    assert run(tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.3", "--g", "identity",
               "--directions", str(directions), "--no-svg")[0] == code


@pytest.mark.parametrize(
    "sigma, code, message",
    [("aniso:l1=-1,l2=1", 2, "not elliptic"),
     ("const:a11=1,a12=1,a21=1,a22=1", 3, "numerically singular"),
     # k = (c - 1) / (c + 1) with c = 1e200 rounds to 1
     (HUGE_SIGMA, 3, "dilatation bound 1.0 is not below 1")],
)
def test_beltrami_bad_sigma_exit_status(tmp_path, capsys, sigma, code, message):
    got, out = run(tmp_path, "beltrami", "--domain", "disk:r=1", "--h", "0.1", "--sigma", sigma)
    assert got == code
    assert message in capsys.readouterr().err
    assert not out.exists()


#: a command that reads each flag
READER = {"--h": "mesh", "--spacing": "solve-nd", "--alpha": "meyers",
          "--margin": "verify", "--fd-step": "solve-nd", "--atol": "unimodal"}


@pytest.mark.parametrize(
    "flag, value",
    [("--h", "inf"), ("--spacing", "nan"), ("--alpha", "-inf"),
     ("--margin", "nan"), ("--fd-step", "inf"), ("--atol", "nan")],
)
def test_non_finite_option_is_config_error(tmp_path, capsys, flag, value):
    code, _ = run(tmp_path, READER[flag], "--domain", "disk:r=1", f"{flag}={value}")
    assert code == 2
    assert "must be a finite number" in capsys.readouterr().err


def test_oracle_component_one_selects_u1(tmp_path):
    code, out = run(
        tmp_path, "unimodal", "--domain", "disk:r=1", "--h", "0.2",
        "--g", "meyers:alpha=2,component=1",
    )
    assert code == 0
    report = json.loads((out / "unimodal_report.json").read_text())
    assert report["data"] == "meyers:alpha=2.0#u1"
    assert report["verdict"]["unimodal"] is True


def test_parser_is_built_once_and_reused(tmp_path, capsys):
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["mesh", "--bogus"])
    assert exc.value.code == 2
    assert run(tmp_path / "mesh", "mesh", "--domain", "disk:r=1", "--h", "0.3", "--refine", "2")[0] == 0
    verify = ["verify", "--domain", "disk:r=1", "--h", "0.2", "--g", "identity", "--no-svg"]
    code, out = run(tmp_path / "after", *verify)
    # a lone run: a parser that no earlier call has used
    build_parser.cache_clear()
    lone_code, lone = run(tmp_path / "lone", *verify)
    assert code == lone_code
    assert (out / "config.json").read_bytes() == (lone / "config.json").read_bytes()


def test_out_naming_an_existing_file_is_config_error(tmp_path, capsys):
    taken = tmp_path / "taken"
    taken.write_text("")
    assert main(["mesh", "--domain", "disk:r=1", "--h", "0.3", "--out", str(taken)]) == 2
    err = capsys.readouterr().err
    assert f"cannot write outputs to {taken}" in err and "Traceback" not in err
    assert taken.read_text() == ""


def tree(root):
    """Every path under root, each file with its bytes and each directory as None."""
    return {str(p.relative_to(root)): None if p.is_dir() else p.read_bytes()
            for p in sorted(root.rglob("*"))}


SOLVE = ["solve", "--domain", "disk:r=1", "--h", "0.2", "--g", "x1"]


@pytest.mark.parametrize("existing", [False, True], ids=["fresh-out", "existing-out"])
def test_a_failed_write_leaves_out_as_it_was(tmp_path, capsys, monkeypatch, existing):
    # a fresh --out whose parent is fresh too: neither is left behind
    out = tmp_path / "out" if existing else tmp_path / "new" / "out"
    if existing:
        out.mkdir()
        (out / "mesh.txt").write_text("an earlier mesh")
        (out / "notes.txt").write_text("not an output")
    before = tree(tmp_path)
    opened = []

    def second_open_fails(path, *args, **kwargs):
        opened.append(path)
        if len(opened) == 2:
            raise OSError("injected write failure")
        return open(path, *args, **kwargs)

    monkeypatch.setattr(cli, "open", second_open_fails, raising=False)
    assert main(SOLVE + ["--out", str(out)]) == 2
    assert len(opened) == 2
    err = capsys.readouterr().err
    assert f"cannot write outputs to {out}: injected write failure" in err
    assert tree(tmp_path) == before
    # the same run, once the writes succeed, replaces the outputs and nothing else
    monkeypatch.undo()
    assert main(SOLVE + ["--out", str(out)]) == 0
    assert main(SOLVE + ["--out", str(tmp_path / "twin")]) == 0
    written = tree(out)
    assert written.pop("notes.txt", b"not an output") == b"not an output"
    assert written == tree(tmp_path / "twin")
    top = out.relative_to(tmp_path).parts[0]
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted([top, "twin"])


def test_an_output_name_taken_by_a_directory_writes_nothing(tmp_path, capsys):
    out = tmp_path / "pw" / "out"
    (out / "u.txt").mkdir(parents=True)
    assert main(SOLVE + ["--out", str(out)]) == 2
    assert f"cannot write outputs to {out}" in capsys.readouterr().err
    assert tree(tmp_path) == {"pw": None, "pw/out": None, "pw/out/u.txt": None}


#: the options each command reads, besides --out and --config
READS = {
    "mesh": "domain h refine",
    "solve": "domain h sigma g svg",
    "map": "domain h sigma g svg",
    "solve-nd": "domain spacing sigma g b fd_step",
    "verify": "domain h sigma g svg margin directions",
    "meyers": "domain h alpha levels",
    "beltrami": "domain h sigma g allow_holes",
    "unimodal": "domain h g loop atol sigma",
}


def test_each_command_reads_its_options():
    assert {c: set(reads) for c, (_, reads) in COMMANDS.items()} == {
        c: set(reads.split()) for c, reads in READS.items()
    }


#: a config each command runs to completion on a coarse mesh or grid
VALID = {
    "mesh": {"domain": "disk:r=1", "h": 0.3},
    "solve": {"domain": "disk:r=1", "h": 0.3},
    "map": {"domain": "disk:r=1", "h": 0.3, "g": "identity"},
    "solve-nd": {"domain": "rect:w=1,h=1", "spacing": 0.25},
    "verify": {"domain": "disk:r=1", "h": 0.3, "g": "identity"},
    "meyers": {"domain": "annulus:rin=0.2,rout=1", "h": 0.3, "levels": 2},
    "beltrami": {"domain": "disk:r=1", "h": 0.3},
    "unimodal": {"domain": "disk:r=1", "h": 0.3, "g": "costheta"},
}


def _run_config(tmp_path, command, config, flags=()):
    """Exit status of command run on config plus flags (--out unless the
    config sets it), counting argparse's SystemExit; and the output directory."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(config))
    out = tmp_path / "out"
    argv = [command, "--config", str(path), *flags]
    if "out" not in config:
        argv += ["--out", str(out)]
    try:
        return main(argv), out
    except SystemExit as exc:
        return exc.code, out


@pytest.mark.parametrize("command", list(VALID))
def test_valid_config_runs(tmp_path, command):
    assert _run_config(tmp_path, command, VALID[command])[0] == 0


#: values of the wrong type for each option type; null is wrong for every one
WRONG = {str: (5,), float: ("a", True), int: (2.5, "1"), bool: ("false", "no", 0)}
FLAG_VALUE = {str: ["x"], float: ["1"], int: ["1"], bool: []}
#: removed options and the type they had; a config naming one is refused too
REMOVED = {"jacobian_rmin": float}


def _malformed():
    for command, reads in READS.items():
        other = "mesh" if command != "mesh" else "solve"
        for config in ({"sigmma": "meyers:alpha=2"}, {"command": other}):
            yield pytest.param(command, config, [], id=f"{command}-{json.dumps(config)}")
        for name, kind in [(n, opt.type) for n, opt in OPTIONS.items()] + list(REMOVED.items()):
            for value in WRONG[kind] + (None,):
                config = {name: value}
                yield pytest.param(command, config, [], id=f"{command}-{json.dumps(config)}")
            if name not in reads.split() and name != "out":
                flags = ["--" + name.replace("_", "-")] + FLAG_VALUE[kind]
                yield pytest.param(command, {}, flags, id=f"{command}-{' '.join(flags)}")


@pytest.mark.parametrize("command, config, flags", list(_malformed()))
def test_malformed_config_exits_cleanly(tmp_path, capsys, command, config, flags):
    code, out = _run_config(tmp_path, command, {**VALID[command], **config}, flags)
    assert code in (2, 3, 4, 5)
    assert "Traceback" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "args",
    [
        ["mesh", "--domain", "disk:r=1", "--h", "0.2", "--refine", "1"],
        ["solve", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.15",
         "--sigma", "meyers:alpha=2", "--g", "oracle", "--no-svg"],
        ["unimodal", "--domain", "disk:r=1", "--h", "0.2", "--g", "costheta"],
    ],
)
def test_rerun_from_own_config_is_byte_identical(tmp_path, args):
    first, again = tmp_path / "first", tmp_path / "again"
    assert main(args + ["--out", str(first)]) == 0
    assert main([args[0], "--config", str(first / "config.json"), "--out", str(again)]) == 0
    names = sorted(p.name for p in first.iterdir())
    assert names == sorted(p.name for p in again.iterdir())
    for name in names:
        assert (first / name).read_bytes() == (again / name).read_bytes(), name
