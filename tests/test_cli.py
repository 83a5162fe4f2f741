import dataclasses
import hashlib
import json

import pytest

from sigmalab import coefficients, generate_disk
from sigmalab.cli import COMMANDS, OPTIONS, build_parser, main


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

    monkeypatch.setattr("sigmalab.fd.splu", singular)
    code, out = run(
        tmp_path, "solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.1",
        "--sigma", "identity", "--g", "x1", "--b", "zero",
    )
    assert code == 3
    err = capsys.readouterr().err
    assert "singular" in err and "Traceback" not in err
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


def test_beltrami_checks_ellipticity_of_sigma_only(tmp_path, monkeypatch):
    # the report, the solve, the stream function and the Beltrami residual
    # each check the command's sigma; the stream function's Laplacian is
    # assembled from identity samples, which need no check
    checked = []
    report = coefficients.ellipticity_report

    def recording(field, sample_points):
        checked.append(field.descriptor)
        return report(field, sample_points)

    monkeypatch.setattr(coefficients, "ellipticity_report", recording)
    code, _ = run(
        tmp_path, "beltrami", "--domain", "disk:r=1", "--h", "0.1",
        "--sigma", "randholder:seed=3", "--g", "x1",
    )
    assert code == 0
    assert checked == ["randholder:seed=3"] * 4


#: 1e200 I is elliptic, with eigenvalues 1e200 and 1e-200; its determinant
#: overflows unless each sample is scaled first
HUGE_SIGMA = "const:a11=1e200,a12=0,a21=0,a22=1e200"


def test_solve_at_extreme_sigma_scale(tmp_path, capsys):
    code, out = run(
        tmp_path, "solve", "--domain", "disk:r=1", "--h", "0.3", "--sigma", HUGE_SIGMA,
    )
    assert code == 0, capsys.readouterr().err
    assert json.loads((out / "summary.json").read_text())["rel_l2_vs_reference"] < 1e-14


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


# sha256 of lewy_report.json, recorded before lewy_verify read the Jacobian
# from jacobian_field and verify stopped rerunning the injectivity check
@pytest.mark.parametrize(
    "sigma, g, code, digest",
    [("holder:eps=0.4,cx=0.2,cy=-0.1,w=0.5,theta=0.7", "identity", 0,
      "d3b6618587dfbd24d2f5958dec1621789586c0e2a6ac80921b32e4056bfeaba5"),
     # z^2 is not injective: the hypothesis-failure report with its violations
     ("identity", "holo:m=2", 4,
      "9ae6ddb3feab0d496b06b4428f47b55b6958ead25a5868bdf231028950b807a4")],
)
def test_lewy_report_bytes_pinned(tmp_path, sigma, g, code, digest):
    got, out = run(tmp_path, "verify", "--domain", "disk:r=1", "--h", "0.1",
                   "--sigma", sigma, "--g", g, "--no-svg")
    assert got == code
    assert hashlib.sha256((out / "lewy_report.json").read_bytes()).hexdigest() == digest


def test_non_string_out_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": 5}))
    assert main(["mesh", "--domain", "disk:r=1", "--config", str(config)]) == 2
    assert "option out must be a string" in capsys.readouterr().err


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
