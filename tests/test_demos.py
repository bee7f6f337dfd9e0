"""Smoke test of the runnable demos: each must exit 0."""

import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(name for name in os.listdir(os.path.join(ROOT, "demos"))
               if name.endswith(".py"))


def test_all_four_found():
    assert len(DEMOS) == 4


@pytest.mark.parametrize("name", DEMOS)
def test_demo_runs(name, tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [os.path.join(ROOT, "src")]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    proc = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)], cwd=tmp_path,
        env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
