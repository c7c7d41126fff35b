"""The commands load numpy and scipy.special only.

``scipy.stats`` pulls in scipy's linalg, optimize, sparse, integrate and
interpolate, several hundred modules and about 45 MB of resident memory,
which every command would pay at start-up.  The check runs in a fresh
interpreter, since the test session itself has loaded scipy.stats.
"""

import os
import subprocess
import sys

import ivpower

HEAVY = ("scipy.stats", "scipy.optimize", "scipy.linalg", "scipy.sparse",
         "scipy.integrate", "scipy.interpolate")

SCRIPT = r"""
import json, os, pkgutil, sys
import numpy as np
import ivpower
for info in pkgutil.iter_modules(ivpower.__path__):
    __import__(f"ivpower.{info.name}")
from ivpower import cli
from ivpower.dgp import to_dict
from ivpower.estimation import FitResult
from ivpower.simulation import model3_spec

out = sys.argv[1]
spec = os.path.join(out, "model3.json")
with open(spec, "w") as fh:
    json.dump(to_dict(model3_spec()), fh)
assert cli.main(["dgp-bounds", "--spec", spec, "--x", "0", "--out", out]) == 0
fit = FitResult(params=np.array([0.1, 0.8, -0.4]), names=("alpha", "gamma1", "gamma2"),
                loglik=-1.0, vcov=np.eye(3), converged=True, iterations=1)
assert 0.0 < cli._relevance_pvalue(fit) < 1.0
print(" ".join(sorted(name for name in sys.modules if name.startswith("scipy."))))
"""


def test_commands_leave_heavy_scipy_unloaded(tmp_path):
    src = os.path.dirname(os.path.dirname(os.path.abspath(ivpower.__file__)))
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", SCRIPT, str(tmp_path)], env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
    loaded = set(done.stdout.splitlines()[-1].split())
    assert (tmp_path / "bounds.csv").exists()
    assert "scipy.special" in loaded
    heavy = sorted(name for name in loaded
                   if any(name == pkg or name.startswith(pkg + ".") for pkg in HEAVY))
    assert not heavy, heavy
