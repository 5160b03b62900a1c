import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_geometry_demo_matches_brute_force():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, os.path.join(ROOT, "demos", "02_geometry_and_chamfer.py")],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert "indices identical: True" in result.stdout
    assert "distances identical: True" in result.stdout
