import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
DEMOS = sorted(f for f in os.listdir(os.path.join(ROOT, "demos")) if f.endswith(".py"))


def _run_demo(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


def test_geometry_demo_matches_brute_force():
    out = _run_demo("02_geometry_and_chamfer.py")
    assert "indices identical: True" in out
    assert "distances identical: True" in out


@pytest.mark.parametrize("name", [d for d in DEMOS if not d.startswith("02_")])
def test_demo_runs(name):
    _run_demo(name)
