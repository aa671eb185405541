"""Smoke tests: the scripts under scripts/ run against the package."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _run_script(name, *args):
    env = dict(os.environ)
    src = str(ROOT / "src")
    if env.get("PYTHONPATH"):
        src += os.pathsep + env["PYTHONPATH"]
    env["PYTHONPATH"] = src
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
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


def test_edit_sweep_runs():
    out = _run_script(
        "edit_sweep.py", "--order-z", "4", "--order-t", "6", "--fixture", "nf3_4", "--no-raw"
    )
    assert out.returncode == 0, out.stderr
    counts = json.loads(out.stdout)
    # 3 matrices x 4 components x 4 z-orders x 2 t1-parts x 6 t-orders
    assert counts["edits"] == 576
    assert counts["flagged"] + counts["flat"] == 576
    assert counts["flat"] == counts["classify exit 0 on flat"] + counts["classify exit 3 on flat"]
    for cmd in ("prenormal", "formal-nf", "classify"):
        assert counts[f"{cmd} exit 0 on flagged"] == 0
    # the raw-frame fallback gives no verdict on what the pole check refuses
    assert counts["classify exit 0 where prenormal exit 3"] == 0


def test_plane_counts_runs():
    out = _run_script("plane_counts.py", "--items", "5")
    assert out.returncode == 0, out.stderr
    blocks = json.loads(out.stdout)
    assert [b["workload"] for b in blocks] == ["fixture-reports", "dense-roundtrip"]
    for counts in blocks:
        assert (counts["seed"], counts["items"], counts["failed"]) == (5, 5, 0)
        assert counts["planes_built"] > counts["support_scans"] > 0
        assert counts["plane_dot_calls"] > 0
        assert type(counts["gauges_built"]) is int and counts["gauges_built"] >= 0
        assert type(counts["third_der_solves"]) is int and counts["third_der_solves"] >= 0
    # the dense items are moved by gauges and classified back
    assert blocks[1]["gauges_built"] > 0
