"""tools/bench.py, the writer of BENCH_<n>.json, on made-up run results: no
workload runs here."""

import importlib.util
import json
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_bench():
    spec = importlib.util.spec_from_file_location("bench", ROOT / "tools" / "bench.py")
    bench = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench)
    return bench


def result(value):
    """A run.py result line whose every end-to-end metric reads value."""
    metrics = {m["name"]: {"value": value, "unit": m["unit"]} for m in SPEC["end_to_end"]}
    return {"correct": True, "attempted": 12, "failed": 0, "metrics": metrics}


def record(bench, parent_values, change_values):
    pairs = [(result(p), result(c)) for p, c in zip(parent_values, change_values)]
    workloads = {w["name"]: {"2024": bench.summarize(SPEC, pairs)} for w in SPEC["workloads"]}
    return {"workloads": workloads}


def test_the_writers_keys_are_the_benchmarks_names():
    bench = load_bench()
    rec = record(bench, [1.0, 2.0, 3.0], [2.0, 2.0, 4.0])
    assert list(rec["workloads"]) == [w["name"] for w in SPEC["workloads"]]
    for seeds in rec["workloads"].values():
        metrics = seeds["2024"]["metrics"]
        assert list(metrics) == [m["name"] for m in SPEC["end_to_end"]]
        for m in SPEC["end_to_end"]:
            got = metrics[m["name"]]
            keys = ("unit", "better", "bound")
            assert [got[k] for k in keys] == [m[k] for k in keys]
            assert got["parent"]["values"] == [1.0, 2.0, 3.0]
            parent = got["parent"]
            assert (parent["median"], parent["q1"], parent["q3"]) == (2.0, 1.5, 2.5)
            # one tie, which counts for neither side
            assert got["wins"] == (2 if m["better"] == "higher" else 0)
    json.dumps(rec, allow_nan=False)


def test_against_flags_only_a_metric_beyond_its_bound():
    bench = load_bench()
    old = record(bench, [1.0], [1.0])
    lines, flagged = bench.against(record(bench, [1.0], [1.0]), old)
    assert not flagged and len(lines) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    # every metric 30% higher: worse beyond its bound (0.1 or 0.25) where lower is better
    lines, flagged = bench.against(record(bench, [1.0], [1.3]), old)
    lower = {m["name"] for m in SPEC["end_to_end"] if m["better"] == "lower"}
    assert flagged == bool(lower)
    for line in lines:
        name = line.split()[3].rstrip(":")
        assert ("OUTSIDE ITS BOUND" in line) == (name in lower)


def test_against_passes_a_host_shift_and_flags_a_change_side_regression():
    bench = load_bench()
    old = record(bench, [1.0] * 3, [1.0] * 3)
    # a host phase 1.4x apart moves both sides of the newer file: nothing is flagged,
    # and the shift from the older change to this parent reads 1.4
    lines, flagged = bench.against(record(bench, [1.4] * 3, [1.4] * 3), old)
    assert not flagged
    assert all("ratio 1.0000 -> 1.0000" in line and "shift 1.4000" in line for line in lines)
    # in that phase, a change 30% above or below its own parent is worse beyond the
    # bound (0.1 or 0.25) of exactly the metrics for which that direction is worse
    for factor, worse in ((1.3, "lower"), (0.7, "higher")):
        lines, flagged = bench.against(record(bench, [1.4] * 3, [1.4 * factor] * 3), old)
        assert flagged
        flagged_names = {line.split()[3].rstrip(":") for line in lines
                         if "OUTSIDE ITS BOUND" in line}
        assert flagged_names == {m["name"] for m in SPEC["end_to_end"] if m["better"] == worse}


def test_trajectory_multiplies_the_files_ratios_and_names_a_break(tmp_path, capsys):
    bench = load_bench()
    ratios = {37: 1.1, 38: 0.5, 39: 2.0}
    paths = []
    for n, r in ratios.items():
        rec = record(bench, [2.0], [2.0 * r])
        # the made-up src digests chain: each parent ran the change before it
        rec.update(bench=n, parent={"head": "0" * 40, "dirty": False, "src_sha256": f"src{n}"},
                   change={"head": "0" * 40, "dirty": True, "src_sha256": f"src{n + 1}"})
        paths.append(tmp_path / f"BENCH_{n}.json")
        paths[-1].write_text(json.dumps(rec), encoding="utf-8")
    # bench order, not argument order
    assert bench.main(["--trajectory", *map(str, reversed(paths))]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert len(lines) == len(SPEC["workloads"]) * len(SPEC["end_to_end"])
    factors = "x1.1000 (BENCH_37.json 1.100, BENCH_38.json 0.500, BENCH_39.json 2.000)"
    assert all(line.endswith(factors) for line in lines)

    broken = json.loads(paths[1].read_text(encoding="utf-8"))
    broken["parent"]["src_sha256"] = "other"
    paths[1].write_text(json.dumps(broken), encoding="utf-8")
    assert bench.main(["--trajectory", *map(str, paths)]) == 1
    assert capsys.readouterr().out.startswith("BENCH_38.json: its parent is not the code")
