"""Benchmark a parent commit against this working tree and keep the result as
BENCH_<n>.json at the root of the checkout.

    python3 tools/bench.py --bench 38 --parent 0d079d0
    python3 tools/bench.py --bench 38 --parent 0d079d0 --workload radial-family --pairs 10
    python3 tools/bench.py --bench 38 --parent 0d079d0 --workload radial-family --seed 7919
    python3 tools/bench.py --bench 38 --against BENCH_37.json

A pair is two untraced runs of perfbench/run.py (--trace 0), each in a fresh
process: one on a `git archive` of the parent, one on a copy of the working
tree, with the side that runs first alternating from pair to pair. Every run's last
output line is its JSON result; its "machine" line names the host.

BENCH_<n>.json holds the machine line, both sides' HEADs (and a digest of
the working tree's src/, which may hold uncommitted changes), and, per
workload and seed, each end-to-end metric of BENCHMARK.json: every run's
value, each side's median and quartiles, the pair count and the change's
wins (ties count for neither side). A later run for another workload or seed
is merged into the file when both sides are the same code.

Each file measures its two sides back to back, so its change/parent ratio of
medians cancels the host's speed phase, and raw medians of two files do not:
the host switches between phases about 1.45x apart. --against
BENCH_<m>.json prints, per workload, seed and metric found in both files,
each file's own ratio and their product, and flags each metric whose change
is worse than its own parent by more than its BENCHMARK.json bound. It also
prints the shift from the older file's change medians to this file's parent
medians: when this file's parent ran the older change's src/, that shift is
the host's. The exit status is 1 when a metric is flagged or a run failed a
check.

    python3 tools/bench.py --trajectory BENCH_*.json

prints, per workload, seed and metric, the product of the files' ratios,
which is the change over the whole chain of files in bench order, and names
each file whose parent did not run the src/ of the file before's change; the
exit status is 1 when a file breaks the chain. It runs no benchmark. A file
records its parent's src/ digest; for a file that does not, it is taken from
a `git archive` of the parent's head.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def git(*args, cwd=ROOT) -> str:
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def src_digest(root: Path) -> str:
    """sha256 over the names and bytes of the files under root/src, sorted."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes())
    return digest.hexdigest()


def export(rev: str, into: Path) -> Path:
    """A `git archive` of rev, unpacked into the new directory into."""
    into.mkdir()
    tar = subprocess.run(["git", "archive", "--format=tar", rev], cwd=ROOT, check=True,
                         capture_output=True).stdout
    subprocess.run(["tar", "-x", "-C", str(into)], input=tar, check=True)
    return into


def export_tree(into: Path) -> Path:
    """The working tree's files that git tracks or would track, copied into
    the new directory into. Both sides run from fresh sibling copies: run
    from the working tree itself, the same commit read about 1 MB more
    mesh-roundtrip peak_rss_mb than from its `git archive` (4 of 4 pairs),
    and the same from two fresh copies (2 of 4)."""
    names = git("ls-files", "-z", "--cached", "--others", "--exclude-standard").split("\0")
    for name in filter(None, names):
        if (ROOT / name).is_file():
            (into / name).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / name, into / name)
    return into


def run_once(root: Path, workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    """One untraced run of root's perfbench/run.py: (its machine line, its result)."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", repr(seconds), "--trace", "0"],
        cwd=root, env=env, capture_output=True, text=True, timeout=4 * seconds + 300,
    )
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{root}: run.py exited {proc.returncode}\n{proc.stderr[-2000:]}")
    machine = next(json.loads(line[len("machine "):]) for line in lines
                   if line.startswith("machine "))
    return machine, json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    """The median and quartiles (inclusive method) of values, and the values."""
    q1, med, q3 = (statistics.quantiles(values, n=4, method="inclusive")
                   if len(values) > 1 else values * 3)
    return {"median": med, "q1": q1, "q3": q3, "values": values}


def summarize(spec: dict, pairs: list[tuple[dict, dict]]) -> dict:
    """The record of one workload at one seed from its (parent, change) run
    results: per end-to-end metric of spec, both sides' spread, the pair count
    and the change's wins; and the failed and attempted counts."""
    record = {"pairs": len(pairs), "failed": {}, "attempted": {}, "metrics": {}}
    for k, side in enumerate(("parent", "change")):
        record["failed"][side] = sum(p[k]["failed"] for p in pairs)
        record["attempted"][side] = sum(p[k]["attempted"] for p in pairs)
    for m in spec["end_to_end"]:
        name = m["name"]
        parent = [p[0]["metrics"][name]["value"] for p in pairs]
        change = [p[1]["metrics"][name]["value"] for p in pairs]
        sign = 1 if m["better"] == "higher" else -1
        record["metrics"][name] = {
            "unit": m["unit"],
            "better": m["better"],
            "bound": m["bound"],
            "parent": spread(parent),
            "change": spread(change),
            "wins": sum(sign * (c - p) > 0 for p, c in zip(parent, change)),
        }
    return record


def worse_by(metric: dict, base: float, value: float) -> float:
    """How much worse value is than base, as a fraction of base; negative when better."""
    ratio = value / base
    return 1.0 - ratio if metric["better"] == "higher" else ratio - 1.0


def report(record: dict) -> list[str]:
    """One line per workload, seed and metric of a BENCH record: medians,
    the parent's quartiles, wins, and whether the change is worse than the
    parent by more than the bound, or a gain by the pairs rule (at least nine
    tenths of the pairs won, and the medians further apart than the parent's
    quartiles)."""
    lines = []
    for workload, seeds in record["workloads"].items():
        for seed, rec in seeds.items():
            for name, m in rec["metrics"].items():
                p, c = m["parent"], m["change"]
                verdict = ""
                if worse_by(m, p["median"], c["median"]) > m["bound"]:
                    verdict = "  WORSE THAN ITS BOUND"
                elif (m["wins"] >= 0.9 * rec["pairs"]
                      and abs(c["median"] - p["median"]) > p["q3"] - p["q1"]):
                    verdict = "  gain"
                lines.append(
                    f"{workload} seed {seed} {name}: {p['median']:.4g} -> {c['median']:.4g} "
                    f"{m['unit']} (parent quartiles {p['q1']:.4g}-{p['q3']:.4g}), "
                    f"change wins {m['wins']} of {rec['pairs']}{verdict}"
                )
    return lines


def ratio(metric: dict) -> float:
    """A metric's change/parent ratio of medians, measured in one host phase."""
    return metric["change"]["median"] / metric["parent"]["median"]


def parent_digest(record: dict) -> str:
    """The src_digest of a BENCH record's parent side: the one it records, or
    that of a `git archive` of its head for a file written before it did."""
    side = record["parent"]
    if "src_sha256" in side:
        return side["src_sha256"]
    with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
        return src_digest(export(side["head"], Path(tmp) / "parent"))


def against(new: dict, old: dict) -> tuple[list[str], bool]:
    """Lines comparing, per workload, seed and metric found in both records,
    each record's own change/parent ratio and their product, with the shift
    from old's change median to new's parent median; and whether any
    metric's change in new is worse than new's parent by more than its bound.
    A host shift moves both sides of new alike, so it flags nothing."""
    lines, flagged = [], False
    for workload, seeds in new["workloads"].items():
        for seed, rec in seeds.items():
            base = old["workloads"].get(workload, {}).get(seed)
            if base is None:
                lines.append(f"{workload} seed {seed}: not in the older file")
                continue
            for name, m in rec["metrics"].items():
                if name not in base["metrics"]:
                    continue
                b = base["metrics"][name]
                bad = worse_by(m, m["parent"]["median"], m["change"]["median"]) > m["bound"]
                flagged |= bad
                shift = m["parent"]["median"] / b["change"]["median"]
                lines.append(f"{workload} seed {seed} {name}: ratio {ratio(b):.4f} -> "
                             f"{ratio(m):.4f} (product {ratio(b) * ratio(m):.4f}, "
                             f"shift {shift:.4f}, bound {m['bound']})"
                             + ("  OUTSIDE ITS BOUND" if bad else ""))
    return lines, flagged


def trajectory(files: list[tuple[str, dict]]) -> tuple[list[str], list[str]]:
    """Lines giving, per workload, seed and metric, the product of the
    (name, record) files' change/parent ratios, each file's factor, and the
    files without that row; and the names of the files, taken in bench
    order, whose parent's src digest is not the change's of the file before:
    each breaks the chain."""
    files = sorted(files, key=lambda f: f[1]["bench"])
    broken = [name for (_, prev), (name, rec) in zip(files, files[1:])
              if parent_digest(rec) != prev["change"]["src_sha256"]]
    factors = {}
    for file, rec in files:
        for workload, seeds in rec["workloads"].items():
            for seed, r in seeds.items():
                for name, m in r["metrics"].items():
                    factors.setdefault((workload, seed, name), {})[file] = ratio(m)
    lines = [f"{name}: its parent is not the code of the change before it; the chain "
             f"breaks here" for name in broken]
    for (workload, seed, name), ratios in factors.items():
        missing = [file for file, _ in files if file not in ratios]
        lines.append(f"{workload} seed {seed} {name}: x{math.prod(ratios.values()):.4f} ("
                     + ", ".join(f"{file} {r:.3f}" for file, r in ratios.items()) + ")"
                     + (f"; not in {', '.join(missing)}" if missing else ""))
    return lines, broken


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", type=int, help="n of BENCH_<n>.json")
    parser.add_argument("--parent", help="the parent commit; omit to read BENCH_<n>.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an older BENCH_<m>.json")
    parser.add_argument("--trajectory", type=Path, nargs="+", metavar="BENCH",
                        help="chain these BENCH_<n>.json files; runs no benchmark")
    args = parser.parse_args(argv)
    if args.trajectory:
        files = [(p.name, json.loads(p.read_text(encoding="utf-8"))) for p in args.trajectory]
        lines, broken = trajectory(files)
        print("\n".join(lines))
        return 1 if broken else 0
    if args.bench is None:
        parser.error("need --bench or --trajectory")
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("need --pairs >= 1 and --seconds > 0")
    path = ROOT / f"BENCH_{args.bench}.json"
    failed = False

    if args.parent:
        with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
            roots = {"parent": export(args.parent, Path(tmp) / "parent"),
                     "change": export_tree(Path(tmp) / "change")}
            sides = {
                "parent": {"head": git("rev-parse", args.parent + "^{commit}"), "dirty": False,
                           "src_sha256": src_digest(roots["parent"])},
                "change": {"head": git("rev-parse", "HEAD"),
                           "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                           "src_sha256": src_digest(ROOT)},
            }
            record = {"bench": args.bench, "machine": None, **sides, "workloads": {}}
            if path.exists():
                record = json.loads(path.read_text(encoding="utf-8"))
                if {k: record[k] for k in sides} != sides:
                    sys.exit(f"{path.name} holds other code; remove it or use another --bench")
            for workload in args.workload or names:
                pairs = []
                for k in range(args.pairs):
                    order = ("parent", "change") if k % 2 == 0 else ("change", "parent")
                    result = {}
                    for side in order:
                        machine, result[side] = run_once(roots[side], workload, args.seed,
                                                         args.seconds)
                        if record["machine"] is None:
                            record["machine"] = machine
                        elif machine != record["machine"]:
                            sys.exit(f"the machine line changed: {machine}")
                        value = result[side]["metrics"]["items_per_s.adjusted"]["value"]
                        print(f"{workload} pair {k + 1}/{args.pairs} {side}: "
                              f"correct {result[side]['correct']}, "
                              f"items_per_s.adjusted {value:.4g}", flush=True)
                    pairs.append((result["parent"], result["change"]))
                record["workloads"].setdefault(workload, {})[str(args.seed)] = summarize(
                    spec, pairs)
                path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n",
                                encoding="utf-8")
    record = json.loads(path.read_text(encoding="utf-8"))
    for seeds in record["workloads"].values():
        for rec in seeds.values():
            failed |= any(rec["failed"].values())
    print("\n".join(report(record)))
    if args.against:
        older = json.loads(args.against.read_text(encoding="utf-8"))
        shared = parent_digest(record) == older["change"]["src_sha256"]
        print(f"against {args.against.name}: this file's parent "
              + ("ran its change's src/, so each shift is the host's" if shared else
                 "did not run its change's src/, so each shift mixes host and code"))
        lines, flagged = against(record, older)
        print("\n".join(lines))
        failed |= flagged
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
