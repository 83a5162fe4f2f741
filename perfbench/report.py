"""Run every workload and print its metrics, or check run-to-run spread.

    python3 perfbench/report.py                      # all workloads, traced and not
    python3 perfbench/report.py --spread 10          # ten seeds per workload
    python3 perfbench/report.py --baseline           # one traced verify item

The default prints every end-to-end metric by name with its unit, the
fail ratio, every per-layer metric from a traced run, and the tracing
overhead (untraced over traced throughput, both host-adjusted, minus one).

--spread N runs each workload untraced with N seeds and prints, per
end-to-end metric, the distance between the first and third quartile as a
share of the median; a gated metric is compared with a third of its bound.

--baseline traces the ROADMAP's profiled configuration (verify, disk r=1,
h=0.03, randholder:seed=2024) and prints per-call stage times next to the
ROADMAP baseline table.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
import run as bench  # noqa: E402  (caps BLAS threads before numpy loads)
from workloads import DEFAULT_SEED, HELDOUT_SEED  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
RUN_TIMEOUT_S = 180


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """One benchmark process; returns its result line plus the lines before it."""
    cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", f"{seconds:g}", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{' '.join(cmd)} exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    result["lines"] = lines[:-1]
    # every metric the run printed, gated or not: "  name value unit [...]"
    result["all"] = {ln.split()[0]: float(ln.split()[1]) for ln in lines[:-1]
                     if ln.startswith("  ")}
    return result


def report_all(seed: int, seconds: float) -> bool:
    ok = True
    for w in SPEC["workloads"]:
        plain = run(w["name"], seed, seconds, 0)
        traced = run(w["name"], seed, seconds, 1)
        ok &= plain["correct"] and traced["correct"]
        print(f"== {w['name']}: {w['why']}")
        for line in plain["lines"] + traced["lines"][2:]:
            print(f" {line}")
        over = plain["all"]["items_per_s.adjusted"] / traced["all"]["trace.items_per_s"]
        print(f"   {'tracing overhead':<40} {over - 1.0:>22.4f} "
              "(items_per_s.adjusted / trace.items_per_s - 1)")
    return ok


def spread(runs: int, seconds: float, workloads, first_seed: int) -> bool:
    bounds = {m["name"]: m["bound"] for m in SPEC["end_to_end"]}
    ok = True
    for name in workloads:
        values = {}
        for k in range(runs):
            result = run(name, first_seed + 1009 * k, seconds, 0)
            ok &= result["correct"]
            for metric, v in result["all"].items():
                values.setdefault(metric, []).append(v)
        print(f"== {name}: {runs} seeds")
        for metric, vals in values.items():
            q1, med, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med if med else 0.0
            if metric in bounds:
                mark = "ok" if share < bounds[metric] / 3 else "WIDE"
                gate = f"bound/3 {bounds[metric] / 3:.4f}  {mark}"
            else:
                gate = "not gated"
            print(f"   {metric:<16} median {med:>10.5g}  spread {share:7.4f}  {gate}")
    return ok


BASELINE_MS = {  # ROADMAP baseline table, disk h=0.03, randholder:seed=2024
    "coefficients.ellipticity_report": ("ellipticity check", 123),
    "fem.assemble_stiffness": ("assemble_stiffness", 189),
    "fem.spsolve": ("one spsolve", 19),
    "analysis.lewy_verify": ("lewy_verify", 280),
    "mesh.mesh_to_text": ("mesh_to_text", 96),
    "mesh.generate_disk": ("mesh generation", 81),
}


def baseline() -> None:
    import tracing
    from workloads import Item

    pkg = bench.load_package()
    bench.WORK.mkdir(exist_ok=True)
    item = Item(0, (("verify", "--domain", "disk:r=1", "--h", "0.03",
                     "--sigma", "randholder:seed=2024", "--g", "identity",
                     "--margin", "0.1", "--directions", "8"),))
    bench.run_item(pkg, item)  # warm-up, untraced
    tracer = tracing.Tracer()
    with tracing.installed(tracer):
        result = bench.run_item(pkg, item, tracer)
    selfs = tracing.self_times(tracer.spans, tracer.groups.values())
    print(f"verify disk:r=1 h=0.03 randholder:seed=2024, traced, {result.seconds:.3f} s, "
          f"problems={result.problems}")
    print(f"   {'span':<36} {'calls':>5} {'total ms':>9} {'self ms':>9} {'ms/call':>8}  ROADMAP")
    rows = {}
    for s in tracer.spans:
        r = rows.setdefault(s.name, [0, 0.0, 0.0])
        r[0] += 1
        r[1] += s.end - s.start
        r[2] += selfs[s.id]
    for g in tracer.groups.values():
        r = rows.setdefault(g.name, [0, 0.0, 0.0])
        r[0] += g.calls
        r[1] += g.total
        r[2] += selfs[(g.parent, g.name)]
    for name, (calls, total, own) in sorted(rows.items(), key=lambda kv: -kv[1][2]):
        label, ms = BASELINE_MS.get(name, ("", None))
        ref = f"{label} {ms} ms" if ms is not None else ""
        print(f"   {name:<36} {calls:>5} {1e3 * total:>9.1f} {1e3 * own:>9.1f} "
              f"{1e3 * total / calls:>8.2f}  {ref}")
    c = tracer.counts
    print(f"   sigma points {c['coefficients.sigma_points']} over "
          f"{c['coefficients.sites']} centroids: "
          f"{c['coefficients.sigma_points'] / c['coefficients.sites']:g} evaluations per site "
          f"(ROADMAP: 94 ms for one evaluation at every centroid)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED,
                        help=f"first seed (held-out seed for confirming claims: {HELDOUT_SEED})")
    parser.add_argument("--seconds", type=float, default=SPEC["run_seconds"])
    parser.add_argument("--spread", type=int, metavar="N", help="seeds per workload")
    parser.add_argument("--workload", action="append", help="limit --spread to these")
    parser.add_argument("--baseline", action="store_true")
    args = parser.parse_args()
    if args.baseline:
        baseline()
        return 0
    if args.spread:
        names = args.workload or [w["name"] for w in SPEC["workloads"]]
        return 0 if spread(args.spread, args.seconds, names, args.seed) else 1
    return 0 if report_all(args.seed, args.seconds) else 1


if __name__ == "__main__":
    sys.exit(main())
