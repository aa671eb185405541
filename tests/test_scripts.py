"""Smoke tests: the scripts under scripts/ run against the package."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name):
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name)],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


@pytest.mark.parametrize(
    "name, line",
    [
        (
            "pencil_decision_table.py",
            "  u =    435/2  critical  isomorphic = True (n = 16)",
        ),
        (
            "classification_demo.py",
            "mal2_lambda1     flat=True  elementary=False "
            "HNF-MAL2(alpha=0, c=0, c0=1, lam=1)         "
            "pencil=(c=0, alpha=0, c0=1, c1=15/16)  holo!=formal",
        ),
    ],
    ids=["pencil_decision_table", "classification_demo"],
)
def test_script_runs(name, line):
    out = _run_script(name)
    assert out.returncode == 0, out.stderr
    assert line in out.stdout.splitlines()
