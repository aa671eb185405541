"""Record the reference outputs the benchmark checks byte for byte.

    python3 perfbench/record.py

Writes ``perfbench/expected.json``: exit code and SHA-256 of the report for
every fixture-reports request any seed can draw, and the SHA-256 of the
first items' canonical output at the default seed for the other two
workloads.  Every recorded item must first pass its own check.  Re-record
only when a change is meant to alter reports.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

from run import OUT, import_workloads

# Enough items to cover a run at the default seed on the recording machine.
RECORDED_ITEMS = {"dense-roundtrip": 120, "one-variable": 300}


def record_fixture_reports(workloads, workdir: str) -> dict:
    wl = workloads.FixtureReports(workloads.DEFAULT_SEED, {}, workdir)
    names = workloads.fixture_names()
    keys = [[cmd, n] for n in names for cmd in workloads.FIXTURE_COMMANDS]
    keys += [["formal-iso", a, b] for a in names for b in names if a != b]
    for argsets in wl.pool.values():
        keys += argsets
    out = {}
    for key in keys:
        item = wl.key_item(0, key)
        code, text = wl.run(item)
        out[item.key] = [code, workloads.digest(text)]
    return out


def record_items(workloads, name: str) -> list[str]:
    wl = workloads.WORKLOADS[name](workloads.DEFAULT_SEED, {}, OUT)
    digests = []
    for i in range(RECORDED_ITEMS[name]):
        item = wl.item(i)
        result = wl.run(item)
        text = wl.render(item, result)
        if not wl.check(item, result, text):
            raise SystemExit(f"{name} item {i} fails its check; nothing recorded")
        digests.append(workloads.digest(text))
    return digests


def main() -> int:
    workloads = import_workloads()
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="record-", dir=OUT)
    try:
        expected = {"fixture-reports": record_fixture_reports(workloads, workdir)}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name in RECORDED_ITEMS:
        expected[name] = record_items(workloads, name)
    with open(workloads.EXPECTED_PATH, "w", encoding="utf-8") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
