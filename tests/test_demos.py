"""Every demo runs to completion from a fresh working directory."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir)
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


@pytest.mark.parametrize("demo", DEMOS, ids=os.path.basename)
def test_demo_exits_zero(demo, tmp_path):
    env = {**os.environ, "PYTHONPATH": os.path.abspath(os.path.join(ROOT, "src"))}
    done = subprocess.run([sys.executable, demo], cwd=tmp_path, env=env,
                          capture_output=True, text=True)
    assert done.returncode == 0, done.stderr
