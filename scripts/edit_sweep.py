#!/usr/bin/env python3
"""Single-entry edit sweep over structure documents.

For each document, raise every coefficient of A1, A2 and B by 7, one at a
time (every component, z-order, t1-part and t-order), and run ``verify``,
``prenormal``, ``formal-nf`` and ``classify`` on the result.  An edit is
flagged when ``verify`` calls the edited document non-flat.  Prints the
counts as one JSON object:

    edits, flagged, flat
    <command> exit 3 on flat, <command> exit 0 on flat   (three commands)
    <command> exit 0 on flagged                          (three commands)
    raw classify exit 0 on flagged                       (the raw document)
    classify exit 0 where prenormal exit 3               (any edit)

The documents are the built-in fixtures at the window (default: all 17 at
(6, 6)) and, unless --no-raw, the raw-frame document written by
``connexa malgrange --c0 2 --binf 1/4,2,0,3/4`` at the same window.

    PYTHONPATH=src python scripts/edit_sweep.py [--order-z 6 --order-t 6]
        [--fixture NAME ...] [--no-raw]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import tempfile

from connexa import cli
from connexa.docio import dumps_document, loads_document, structure_to_document
from connexa.fixtures import build_fixture, fixture_names
from connexa.scalars import Scalar, integer

PIPELINES = ("prenormal", "formal-nf", "classify")
RAW_ARGS = ("malgrange", "--c0", "2", "--binf", "1/4,2,0,3/4")


def _run(argv: list[str]) -> tuple[int, str]:
    """The exit code and stdout of one in-process CLI call."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(argv)
    return code, out.getvalue()


def _edits(doc: dict):
    """Every single-entry edit of doc: a copy with one coefficient + 7."""
    for mat in ("A1", "A2", "B"):
        for comp, rows in doc["matrices"][mat].items():
            for k, parts in enumerate(rows):
                for part, row in enumerate(parts):
                    for n, text in enumerate(row):
                        edited = json.loads(json.dumps(doc))
                        cell = edited["matrices"][mat][comp][k][part]
                        cell[n] = str(Scalar.parse(text) + integer(7))
                        yield edited


def sweep(documents: list[tuple[str, dict]], workdir: str) -> dict:
    counts = {"edits": 0, "flagged": 0, "flat": 0}
    for cmd in PIPELINES:
        counts[f"{cmd} exit 3 on flat"] = 0
    for cmd in PIPELINES:
        counts[f"{cmd} exit 0 on flat"] = 0
    for cmd in PIPELINES:
        counts[f"{cmd} exit 0 on flagged"] = 0
    counts["raw classify exit 0 on flagged"] = 0
    counts["classify exit 0 where prenormal exit 3"] = 0
    path = os.path.join(workdir, "edited.json")
    for name, doc in documents:
        for edited in _edits(doc):
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(dumps_document(edited))
            counts["edits"] += 1
            code, out = _run(["verify", path])
            flat = code == 0 and json.loads(out)["verdicts"]["flat"]
            counts["flat" if flat else "flagged"] += 1
            codes = {cmd: _run([cmd, path])[0] for cmd in PIPELINES}
            for cmd, code in codes.items():
                if flat and code in (0, 3):
                    counts[f"{cmd} exit {code} on flat"] += 1
                elif not flat and code == 0:
                    counts[f"{cmd} exit 0 on flagged"] += 1
                    if name == "raw" and cmd == "classify":
                        counts["raw classify exit 0 on flagged"] += 1
            if codes["prenormal"] == 3 and codes["classify"] == 0:
                counts["classify exit 0 where prenormal exit 3"] += 1
    return counts


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--order-z", type=int, default=6)
    ap.add_argument("--order-t", type=int, default=6)
    ap.add_argument(
        "--fixture", action="append", choices=fixture_names(),
        help="sweep this fixture (repeatable; default all)",
    )
    ap.add_argument("--no-raw", action="store_true", help="leave out the raw-frame document")
    args = ap.parse_args()
    nz, nt = args.order_z, args.order_t
    documents = [
        (name, structure_to_document(build_fixture(name, nz, nt)))
        for name in args.fixture or fixture_names()
    ]
    with tempfile.TemporaryDirectory() as workdir:
        if not args.no_raw:
            raw = os.path.join(workdir, "raw.json")
            window = ["--order-z", str(nz), "--order-t", str(nt)]
            if _run([*RAW_ARGS, *window, "--out", raw])[0] != 0:
                raise SystemExit("the raw-frame document could not be written")
            with open(raw, encoding="utf-8") as fh:
                documents.append(("raw", loads_document(fh.read())))
        print(json.dumps(sweep(documents, workdir), indent=1))


if __name__ == "__main__":
    main()
