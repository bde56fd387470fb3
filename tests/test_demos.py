"""Each script under demos/ runs to the end and prints something."""

import glob
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(glob.glob(os.path.join(ROOT, "demos", "*.py")))


def test_the_demos_are_found():
    assert len(DEMOS) >= 4


@pytest.mark.parametrize("script", DEMOS, ids=os.path.basename)
def test_demo_runs(script):
    env = {**os.environ, "PYTHONPATH": os.path.join(ROOT, "src")}
    done = subprocess.run([sys.executable, script], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
