"""connexa benchmark: closed loop, one client, one process, one thread.

    python3 perfbench/run.py --workload dense-roundtrip --seed 3 --seconds 30 --trace 0

Without ``--workload`` every workload runs, each in its own process.
With ``--trace 0`` the run submits items one after another for at least
``--seconds`` seconds and at least MIN_ITEMS items, ending on a whole
batch of the workload's mix, checks every result and reports the
end-to-end metrics.  Item times are scaled to a reference host speed,
measured by a fixed kernel run between items (see hostspeed.py); the
unscaled wall-clock figures are printed above the result line.  With
``--trace 1`` it runs a fixed list of items twice, untraced and then
traced, and reports the per-layer metrics; their counts repeat exactly
for a given seed.  The last line of stdout is one JSON object: correct,
attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback

from hostspeed import HostSpeed

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
# Build and trace outputs stay inside the checkout.
OUT = os.path.join(ROOT, ".bench_build")

WORKLOAD_NAMES = ("fixture-reports", "dense-roundtrip", "one-variable")
# At least ten samples must lie beyond p90.
MIN_ITEMS = 100
SETUP_PROBES = 11
# Items in a traced run, per workload: about 10-30 s untraced plus traced.
TRACE_ITEMS = {"fixture-reports": 99, "dense-roundtrip": 20, "one-variable": 45}

END_TO_END = {
    "items_per_s": "1/s",
    "item_ms_p50": "ms",
    "item_ms_p90": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "passed_ratio": "ratio",
}

_SPAN_METRICS = [
    "series.TSeries.mul.calls", "series.TSeries.mul.self_s",
    "series.ZTSeries.mul.calls", "series.ZTSeries.mul.self_s",
    "series.AffinePoly1.mul.self_s",
    "series.TSeries.invert.self_s", "series.TSeries.compose.self_s",
    "series.TSeries.reverse.total_s",
    "odekit.solve_riccati_unique_c.total_s",
    "odekit.check_convolution_inequality.total_s",
    "odekit.solve_linear_t_ode.total_s",
    "connmat.Mat2.mul.calls", "connmat.Mat2.mul.self_s",
    "connmat.Mat2.inverse.calls", "connmat.Mat2.inverse.total_s",
    "connmat.apply_gauge.calls", "connmat.apply_gauge.total_s",
    "connmat.flatness_residuals.total_s",
    "formalnf.to_prenormal.total_s", "formalnf.formal_normal_form.total_s",
    "origin.birkhoff_reduce.total_s", "origin.birkhoff_iso_decision.total_s",
    "malgrange.malgrange_xy.total_s", "malgrange.classify_holomorphic.total_s",
    "euler.euler_normal_form.total_s", "euler.verify_normalization.total_s",
    "docio.load_structure.total_s", "docio.render.total_s",
]
_MODULES = ["series", "odekit", "connmat", "formalnf", "origin", "malgrange",
            "euler", "docio", "cli"]


def _unit(name: str) -> str:
    return {"calls": "count", "self_s": "s", "total_s": "s"}[name.rsplit(".", 1)[1]]


PER_LAYER = {
    "scalars.mul.calls": "count",
    "scalars.add.calls": "count",
    "scalars.div.calls": "count",
    "scalars.max_bits": "bits",
    **{name: _unit(name) for name in _SPAN_METRICS},
    **{f"{m}.self_s": "s" for m in _MODULES},
    "series.mul_zero_operand_ratio": "ratio",
    "cli.refused_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}


def import_workloads():
    """Import the harness against this checkout's sources, never another copy."""
    sys.path.insert(0, SRC)
    import connexa
    import workloads

    if not os.path.abspath(connexa.__file__).startswith(SRC + os.sep):
        raise ImportError(f"connexa imported from {connexa.__file__}, not {SRC}")
    return workloads


def measure_setup() -> float:
    """Median time from starting a fresh interpreter until it could submit
    its first item: interpreter start, importing connexa and the harness.
    Wall time, unscaled: start-up does not slow with the host the way the
    reference kernel does (see hostspeed.py)."""
    probe = os.path.join(HERE, "probe.py")
    times = []
    for _ in range(SETUP_PROBES):
        t0 = time.perf_counter()
        proc = subprocess.Popen([sys.executable, probe], stdout=subprocess.PIPE, cwd=ROOT)
        try:
            line = proc.stdout.readline()
            t1 = time.perf_counter()
        finally:
            proc.stdout.close()
            proc.wait()
        if line.strip() != b"ready" or proc.returncode != 0:
            raise RuntimeError("setup probe failed")
        times.append(t1 - t0)
    return statistics.median(times)


class Pass:
    """Items submitted one at a time; latencies and check outcomes."""

    def __init__(self, wl):
        self.wl = wl
        self.latencies: list[float] = []
        self.spans: list[tuple[float, float]] = []  # (start, end) per item
        self.failed = 0
        self.results: list[tuple] = []  # (item, result, text) when kept

    def _done(self, t0: float) -> None:
        t1 = time.perf_counter()
        self.latencies.append(t1 - t0)
        self.spans.append((t0, t1))

    def submit(self, item, call, keep=False):
        wl = self.wl
        t0 = time.perf_counter()
        try:
            result = call(item)
        except Exception:  # an item that raises counts as failed
            self._done(t0)
            self.failed += 1
            traceback.print_exc(file=sys.stderr)
            return
        self._done(t0)
        try:
            text = wl.render(item, result)
            ok = wl.check(item, result, text)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok, text = False, ""
        if not ok:
            self.failed += 1
            print(f"check failed: item {item.index} {item.key}", file=sys.stderr)
        if keep:
            self.results.append((item, result, text))


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def _timings(lat_ms: list[float]) -> tuple[float, float, float]:
    """items_per_s, p50 and p90 of per-item latencies in ms."""
    return (
        len(lat_ms) / (sum(lat_ms) / 1000.0),
        statistics.median(lat_ms),
        statistics.quantiles(lat_ms, n=10)[8],
    )


def run_untraced(workloads, name: str, seed: int, seconds: float, workdir: str) -> dict:
    wl = workloads.make(name, seed, workdir)
    setup_s = measure_setup()
    p = Pass(wl)
    speed = HostSpeed()
    speed.probe()
    start = time.perf_counter()
    i = 0
    while i % wl.batch or i < MIN_ITEMS or time.perf_counter() - start < seconds:
        p.submit(wl.item(i), wl.run)
        speed.maybe_probe()
        i += 1
    speed.probe()
    scaled = [speed.scale(x, *span) * 1000.0 for x, span in zip(p.latencies, p.spans)]
    rate, p50, p90 = _timings(scaled)
    wall_rate, wall_p50, wall_p90 = _timings([x * 1000.0 for x in p.latencies])
    print(f"wall clock, unscaled: {wall_rate:.4g} items/s, p50 {wall_p50:.4g} ms, "
          f"p90 {wall_p90:.4g} ms; reference kernel "
          f"median {statistics.median(speed.times) * 1000.0:.4g} ms "
          f"over {len(speed.times)} probes")
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    n = len(scaled)
    metrics = {
        "items_per_s": _metric(rate, "1/s"),
        "item_ms_p50": _metric(p50, "ms"),
        "item_ms_p90": _metric(p90, "ms"),
        "setup_s": _metric(setup_s, "s"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "passed_ratio": _metric(1.0 - p.failed / n, "ratio"),
    }
    return {"attempted": n, "failed": p.failed, "metrics": metrics}


def traced_pass(wl, n: int):
    """Items 0..n-1 with every entry point wrapped; returns (tracer, pass)."""
    from tracer import Patches, Tracer

    tracer = Tracer()
    p = Pass(wl)
    patches = Patches(tracer)
    item_span = tracer.wrap("item", wl.run)

    def call(item):
        tracer.item = item.index
        with patches:
            return item_span(item)

    for i in range(n):
        p.submit(wl.item(i), call, keep=True)
    return tracer, p


def layer_values(workloads, tracer, traced: Pass) -> dict[str, float]:
    stats, counts = tracer.stats, tracer.counts
    values: dict[str, float] = {}
    for metric in _SPAN_METRICS:
        span, field = metric.rsplit(".", 1)
        calls, total_s, self_s = stats.get(span, (0, 0.0, 0.0))
        values[metric] = {"calls": calls, "total_s": total_s, "self_s": self_s}[field]
    modules = tracer.module_totals()
    for m in _MODULES:
        values[f"{m}.self_s"] = modules.get(m, 0.0)
    for op in ("mul", "add", "div"):
        values[f"scalars.{op}.calls"] = counts.get(f"scalars.{op}.calls", 0)
    values["scalars.max_bits"] = max(
        (workloads.max_bits(t) for _i, _r, t in traced.results), default=0
    )
    products = counts.get("series.mul.calls", 0)
    values["series.mul_zero_operand_ratio"] = (
        counts.get("series.mul.zero_operand", 0) / products if products else 0.0
    )
    # Exit codes 2 and 3 are the CLI refusing a document or a precondition;
    # only fixture-reports items are CLI calls.
    refused = 0.0
    if traced.wl.name == "fixture-reports":
        codes = [r[0] for _i, r, _t in traced.results]
        refused = sum(1 for c in codes if c in (2, 3)) / len(codes)
    values["cli.refused_ratio"] = refused
    return values


def write_trace(tracer, name: str, seed: int, n: int):
    """Keep the spans: .bench_build/trace-<workload>-<seed>.json."""
    with open(os.path.join(OUT, f"trace-{name}-{seed}.json"), "w", encoding="utf-8") as fh:
        json.dump({
            "workload": name, "seed": seed, "items": n,
            "spans": [dict(zip(("id", "parent", "item", "name", "start", "end"), s))
                      for s in tracer.spans],
            "stats": {k: dict(zip(("calls", "total_s", "self_s"), v))
                      for k, v in sorted(tracer.stats.items())},
            "counts": tracer.counts,
        }, fh)


def run_traced(workloads, name: str, seed: int, workdir: str) -> dict:
    n = TRACE_ITEMS[name]
    plain = Pass(workloads.make(name, seed, workdir))
    for i in range(n):
        plain.submit(plain.wl.item(i), plain.wl.run)
    tracer, traced = traced_pass(workloads.make(name, seed, workdir), n)
    values = layer_values(workloads, tracer, traced)
    values["trace.overhead_ratio"] = sum(traced.latencies) / sum(plain.latencies)
    write_trace(tracer, name, seed, n)
    metrics = {k: _metric(values[k], unit) for k, unit in PER_LAYER.items()}
    return {
        "attempted": 2 * n,
        "failed": plain.failed + traced.failed,
        "metrics": metrics,
    }


def run_all(args) -> int:
    code = 0
    for name in WORKLOAD_NAMES:
        print(f"== {name}", flush=True)
        cmd = [sys.executable, os.path.abspath(__file__), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        code = max(code, subprocess.run(cmd, cwd=ROOT).returncode)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOAD_NAMES, default=None,
                    help="one workload; all of them when omitted")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.workload is None:
        return run_all(args)
    try:
        workloads = import_workloads()
    except ImportError as exc:
        print(f"cannot import connexa from {SRC}: {exc}", file=sys.stderr)
        return 1
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix="run-", dir=OUT)
    try:
        if args.trace:
            out = run_traced(workloads, args.workload, args.seed, workdir)
        else:
            out = run_untraced(workloads, args.workload, args.seed, args.seconds, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for name, m in out["metrics"].items():
        print(f"{name:45s} {m['value']:.6g} {m['unit']}")
    print(f"{'items attempted':45s} {out['attempted']}")
    print(f"{'items failed':45s} {out['failed']}")
    result = {"correct": out["failed"] == 0, **out}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
