"""The narrative demos run end to end.

Demos 01-03 each run from the repository root in a subprocess with
``--fast`` (demo 02 then trains on a reduced grid; the others ignore it) and
must exit 0. Demo 04 runs the full two-model sweep, about ten minutes, and is
left out.
"""

import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..")
SRC = os.path.join(ROOT, "src")


@pytest.mark.parametrize("demo", ["01_propensity_model.py",
                                  "02_train_classifiers.py",
                                  "03_policy_optimization.py"])
def test_demo_exits_0(demo):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [SRC] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    done = subprocess.run([sys.executable, os.path.join("demos", demo), "--fast"],
                          cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=600)
    assert done.returncode == 0, done.stdout + done.stderr
