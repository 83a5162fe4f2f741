import json

import pytest

from sigmalab.cli import build_parser, main


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


def test_non_string_out_is_config_error(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"out": 5}))
    assert main(["mesh", "--domain", "disk:r=1", "--config", str(config)]) == 2
    assert "option out must be a string" in capsys.readouterr().err


@pytest.mark.parametrize(
    "sigma, code, message",
    [("aniso:l1=-1,l2=1", 2, "not elliptic"),
     ("const:a11=1,a12=1,a21=1,a22=1", 3, "numerically singular")],
)
def test_beltrami_bad_sigma_exit_status(tmp_path, capsys, sigma, code, message):
    got, out = run(tmp_path, "beltrami", "--domain", "disk:r=1", "--h", "0.1", "--sigma", sigma)
    assert got == code
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flag, value",
    [("--h", "inf"), ("--spacing", "nan"), ("--alpha", "-inf"),
     ("--margin", "nan"), ("--fd-step", "inf"), ("--atol", "nan")],
)
def test_non_finite_option_is_config_error(tmp_path, capsys, flag, value):
    code, _ = run(tmp_path, "mesh", "--domain", "disk:r=1", f"{flag}={value}")
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
