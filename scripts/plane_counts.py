#!/usr/bin/env python3
"""Machine-independent counts of the plane and gauge layers over benchmark
items.

Runs items 0..N-1 of the benchmark's fixture-reports workload (default: the
99 items of its traced pass at seed 5), then the first 5 items of its
dense-roundtrip workload at the same seed (where the gauge action does
much of the work), against the connexa sources of a checkout, with three
counters wrapped around the plane layer and one around the gauge
constructor, and prints them as a JSON list of one object per workload:

    support_scans    Plane.support calls that scan the window (no support
                     recorded yet); calls that return a recorded one are
                     not counted
    planes_built     calls of Plane._ints, Plane._new and TSeries._ints,
                     the constructors every window goes through
    plane_dot_calls  calls of series.plane_dot, from any module
    gauges_built     connmat.GaugeMap constructions, from any module

Only the items' own work is counted: the workloads' set-up (writing the
fixture documents, building the dense items) runs before the counters
start.  The counts repeat
exactly for a given checkout, seed and item count.

    python scripts/plane_counts.py [--root DIR] [--seed 5] [--items 99]
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import tempfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _counting(counts: dict, key: str, fn, when=None):
    def wrapper(*args, **kwargs):
        if when is None or when(*args):
            counts[key] += 1
        return fn(*args, **kwargs)

    return wrapper


# The dense-roundtrip items counted after the fixture-reports ones.
DENSE_ITEMS = 5


def count(root: str, seed: int, items: int) -> list[dict]:
    sys.path[:0] = [os.path.join(root, "src"), os.path.join(root, "perfbench")]
    import workloads
    from connexa import connmat, series

    keys = ("support_scans", "planes_built", "plane_dot_calls", "gauges_built")
    counts = dict.fromkeys(keys, 0)
    out = []
    with tempfile.TemporaryDirectory() as workdir:
        runs = []
        for name, n in (("fixture-reports", items), ("dense-roundtrip", DENSE_ITEMS)):
            wl = workloads.make(name, seed, workdir)
            runs.append((name, wl, [wl.item(i) for i in range(n)]))
        plane, tseries = series.Plane, series.TSeries
        plane.support = _counting(
            counts, "support_scans", plane.support, lambda p: p._support is None
        )
        for cls, name in ((plane, "_ints"), (plane, "_new"), (tseries, "_ints")):
            fn = cls.__dict__[name].__func__
            setattr(cls, name, staticmethod(_counting(counts, "planes_built", fn)))
        gauge = connmat.GaugeMap
        gauge.__post_init__ = _counting(counts, "gauges_built", gauge.__post_init__)
        dot = series.plane_dot
        wrapped = _counting(counts, "plane_dot_calls", dot)
        for name, mod in list(sys.modules.items()):
            if name.startswith("connexa") and getattr(mod, "plane_dot", None) is dot:
                mod.plane_dot = wrapped
        for name, wl, todo in runs:
            counts.update(dict.fromkeys(counts, 0))
            failed = 0
            for item in todo:
                result = wl.run(item)
                failed += not wl.check(item, result, wl.render(item, result))
            head = {"workload": name, "seed": seed, "items": len(todo), "failed": failed}
            out.append({**head, **counts})
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--root", default=ROOT, help="checkout whose src/ is counted")
    ap.add_argument("--seed", type=int, default=5)
    ap.add_argument("--items", type=int, default=99)
    args = ap.parse_args(argv)
    print(json.dumps(count(os.path.abspath(args.root), args.seed, args.items), indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
