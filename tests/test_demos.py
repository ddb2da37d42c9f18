"""Each demo script runs to completion and prints something."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def run_demo(script):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return subprocess.run(
        [sys.executable, str(script)],
        cwd=ROOT,
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )


def test_there_are_demos():
    assert DEMOS


@pytest.mark.parametrize("script", DEMOS, ids=lambda p: p.name)
def test_demo_runs(script):
    proc = run_demo(script)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip()


def test_query_demo_counts_and_boards():
    proc = run_demo(ROOT / "demos" / "query.py")
    assert proc.returncode == 0, proc.stderr
    counts = [line.rsplit(": ", 1)[1] for line in proc.stdout.splitlines() if ": " in line]
    assert counts == ["4", "1", "0", "2"]
    assert proc.stdout.endswith(
        "  (1,5) (2,3) (3,1) (4,6) (5,4) (6,2)\n"
        "  (1,2) (2,4) (3,6) (4,1) (5,3) (6,5)\n"
    )
