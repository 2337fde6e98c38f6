"""The examples that finish in about a second run as scripts and exit 0.

The other four (``quickstart.py``, ``design_space_exploration.py``,
``layer_sensitivity.py``, ``robust_deployment.py``) train models for tens of
seconds and are not gated; the README lists them.
"""

import os
import pathlib
import subprocess
import sys

import pytest

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("script", ("device_physics.py",
                                    "hardware_walkthrough.py",
                                    "pipeline_timing.py"))
def test_example_exits_zero(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(REPO_ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(REPO_ROOT / "examples" / script)],
        cwd=REPO_ROOT, env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr[-2000:]
