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

--against BENCH_<m>.json prints, per workload, seed and metric found in both
files, the ratio of the change's medians, and flags each metric that is
worse than in the older file by more than its BENCHMARK.json bound. The
exit status is 1 when a metric is flagged or a run failed a check.
"""

from __future__ import annotations

import argparse
import hashlib
import json
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


def against(new: dict, old: dict) -> tuple[list[str], bool]:
    """Lines comparing the change's medians of new with those of old, and
    whether any metric is worse than in old by more than its bound."""
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
                a, b = base["metrics"][name]["change"]["median"], m["change"]["median"]
                bad = worse_by(m, a, b) > m["bound"]
                flagged |= bad
                lines.append(f"{workload} seed {seed} {name}: {a:.4g} -> {b:.4g} "
                             f"(ratio {b / a:.4f}, bound {m['bound']})"
                             + ("  OUTSIDE ITS BOUND" if bad else ""))
    return lines, flagged


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--bench", type=int, required=True, help="n of BENCH_<n>.json")
    parser.add_argument("--parent", help="the parent commit; omit to read BENCH_<n>.json")
    parser.add_argument("--workload", action="append", choices=names,
                        help="repeat for several; default: every workload")
    parser.add_argument("--pairs", type=int, default=5)
    parser.add_argument("--seed", type=int, default=2024)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--against", type=Path, help="an older BENCH_<m>.json")
    args = parser.parse_args(argv)
    if args.pairs < 1 or not args.seconds > 0:
        parser.error("need --pairs >= 1 and --seconds > 0")
    path = ROOT / f"BENCH_{args.bench}.json"
    failed = False

    if args.parent:
        sides = {
            "parent": {"head": git("rev-parse", args.parent + "^{commit}"), "dirty": False},
            "change": {"head": git("rev-parse", "HEAD"),
                       "dirty": bool(git("status", "--porcelain", "--untracked-files=no")),
                       "src_sha256": src_digest(ROOT)},
        }
        record = {"bench": args.bench, "machine": None, **sides, "workloads": {}}
        if path.exists():
            record = json.loads(path.read_text(encoding="utf-8"))
            if {k: record[k] for k in sides} != sides:
                sys.exit(f"{path.name} holds other code; remove it or use another --bench")
        with tempfile.TemporaryDirectory(prefix="bench-") as tmp:
            roots = {"parent": export(args.parent, Path(tmp) / "parent"),
                     "change": export_tree(Path(tmp) / "change")}
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
        lines, flagged = against(record, json.loads(args.against.read_text(encoding="utf-8")))
        print(f"against {args.against.name}:")
        print("\n".join(lines))
        failed |= flagged
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
