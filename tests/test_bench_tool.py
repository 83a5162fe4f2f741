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
