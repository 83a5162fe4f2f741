"""Which parts of scipy each command loads: scipy is imported where it is
called, so a command loads only what it runs. Each group of commands runs in
a fresh interpreter, since this test process has loaded all of scipy."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import sigmalab

SRC = Path(sigmalab.__file__).resolve().parents[1]

#: runs each argv (a JSON list on argv[1]) through main, with --out under
#: argv[2]; prints the loaded scipy modules as the last line
SCRIPT = """
import json, sys
from sigmalab.cli import main
for i, argv in enumerate(json.loads(sys.argv[1])):
    code = main(argv + ["--out", f"{sys.argv[2]}/{i}"])
    assert code == 0, (argv, code)
print(json.dumps(sorted(m for m in sys.modules if m.startswith("scipy"))))
"""

NO_SOLVE = [
    ["mesh", "--domain", "disk:r=1", "--h", "0.3", "--refine", "1"],
    ["unimodal", "--domain", "disk:r=1", "--h", "0.3", "--g", "costheta"],
]
SOLVES = [
    ["solve", "--domain", "disk:r=1", "--h", "0.3"],
    ["map", "--domain", "disk:r=1", "--h", "0.3", "--g", "identity"],
    ["meyers", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.3", "--levels", "2"],
    ["beltrami", "--domain", "disk:r=1", "--h", "0.3", "--sigma", "meyers:alpha=2",
     "--g", "oracle"],
    ["solve-nd", "--domain", "rect:w=1,h=1", "--spacing", "0.25"],
]
#: point location, boundary collisions, distances to circle and polygon
#: loops (rect) and pullback components are numpy code
VERIFY = [
    ["verify", "--domain", "disk:r=1", "--h", "0.3", "--g", "identity"],
    ["verify", "--domain", "annulus:rin=0.2,rout=1", "--h", "0.1", "--g", "identity"],
    ["verify", "--domain", "rect:w=1,h=1", "--h", "0.1", "--g", "identity"],
]


def _scipy_loaded(tmp_path, argvs) -> list:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", SCRIPT, json.dumps(argvs), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


@pytest.mark.parametrize(
    "argvs, absent, present",
    [(NO_SOLVE, ("scipy.sparse", "scipy.spatial"), []),
     (SOLVES, ("scipy.spatial", "scipy.sparse.csgraph"), ["scipy.sparse.linalg"]),
     (VERIFY, ("scipy.spatial", "scipy.sparse.csgraph"), ["scipy.sparse.linalg"])],
    ids=["mesh-unimodal", "solves", "verify"],
)
def test_commands_load_only_the_scipy_they_call(tmp_path, argvs, absent, present):
    loaded = _scipy_loaded(tmp_path, argvs)
    assert [m for m in loaded if m.startswith(absent)] == []
    assert [m for m in present if m not in loaded] == []
