"""Tests of the benchmark itself: span arithmetic, span coverage per
workload, repeatable counts, and agreement with BENCHMARK.json.

    python3 -m pytest -q perfbench
"""

from __future__ import annotations

import json
import os

import pytest

import run
from hostspeed import REF_S, WINDOW_S, HostSpeed
from tracer import Tracer

workloads = run.import_workloads()

# Span -> the workloads it must fire on.  flatness_residuals serves the
# CLI's verify command; no dense-roundtrip item calls it.
FIRES_ON = {
    "series.TSeries.mul": ("dense-roundtrip", "one-variable", "fixture-reports"),
    "series.ZTSeries.mul": ("dense-roundtrip", "fixture-reports"),
    "series.AffinePoly1.mul": ("dense-roundtrip", "fixture-reports"),
    "series.TSeries.invert": ("one-variable",),
    "series.TSeries.compose": ("one-variable",),
    "series.TSeries.reverse": ("one-variable",),
    "odekit.solve_riccati_unique_c": ("one-variable",),
    "odekit.check_convolution_inequality": ("one-variable",),
    "odekit.solve_linear_t_ode": ("one-variable",),
    "connmat.Mat2.mul": ("dense-roundtrip",),
    "connmat.Mat2.inverse": ("dense-roundtrip",),
    "connmat.apply_gauge": ("dense-roundtrip",),
    "connmat.flatness_residuals": ("fixture-reports",),
    "formalnf.to_prenormal": ("dense-roundtrip", "fixture-reports"),
    "formalnf.formal_normal_form": ("dense-roundtrip", "fixture-reports"),
    "origin.birkhoff_reduce": ("dense-roundtrip",),
    "origin.birkhoff_iso_decision": ("dense-roundtrip", "one-variable"),
    "malgrange.malgrange_xy": ("one-variable",),
    "malgrange.classify_holomorphic": ("dense-roundtrip", "fixture-reports"),
    "euler.euler_normal_form": ("one-variable",),
    "euler.verify_normalization": ("one-variable",),
    "docio.load_structure": ("fixture-reports",),
    "docio.render": ("fixture-reports",),
    "cli.main": ("fixture-reports",),
}
# Enough items to reach every kind: one batch of each workload's mix.
SMALL = {"fixture-reports": 99, "dense-roundtrip": 5, "one-variable": 9}


def _ticks(*values):
    it = iter(values)
    return lambda: next(it)


def test_self_time_subtracts_direct_children():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 3.0, 4.0, 6.0, 10.0))
    inner = tracer.wrap("m.inner", lambda: None)
    outer = tracer.wrap("m.outer", lambda: (inner(), inner()))
    outer()
    assert tracer.stats["m.outer"] == [1, 10.0, 6.0]
    assert tracer.stats["m.inner"] == [2, 4.0, 4.0]
    assert tracer.module_totals() == {"m": 10.0}
    by_name = {s[3]: s for s in tracer.spans}
    outer_id = by_name["m.outer"][0]
    assert [s[1] for s in tracer.spans if s[3] == "m.inner"] == [outer_id, outer_id]
    assert by_name["m.outer"][1] is None


def test_latency_is_scaled_by_the_reference_times_around_it():
    # Probes at 0-0.01, 1-1.03, 2-2.02 and 10-10.04: reference times of
    # 0.01, 0.03, 0.02 and 0.04 seconds.
    speed = HostSpeed(clock=_ticks(0.0, 0.01, 1.0, 1.03, 2.0, 2.02, 10.0, 10.04))
    for _ in range(4):
        speed.probe()
    # An item from 0.8 to 1.2 has the first three probes within WINDOW_S,
    # one from 1.2 to 1.8 only the second and third.
    assert WINDOW_S == 1.0
    assert speed.factor(0.8, 1.2) == pytest.approx(REF_S / 0.02)
    assert speed.scale(0.4, 0.8, 1.2) == pytest.approx(0.4 * REF_S / 0.02)
    assert speed.factor(1.2, 1.8) == pytest.approx(REF_S / 0.025)
    # From 5 to 6 no probe is that close: the nearest one each side.
    assert speed.factor(5.0, 6.0) == pytest.approx(REF_S / 0.03)


def test_recursion_counts_inclusive_time_once():
    tracer = Tracer(clock=_ticks(0.0, 1.0, 2.0, 5.0))

    def body(n):
        if n:
            span(n - 1)

    span = tracer.wrap("series.f", body)
    span(1)
    calls, total_s, self_s = tracer.stats["series.f"]
    assert (calls, total_s, self_s) == (2, 5.0, 5.0)
    assert tracer.spans == []  # series spans are aggregated only


def test_patches_are_removed_after_the_item():
    from connexa import cli, connmat, formalnf, malgrange
    from connexa.scalars import Scalar
    from tracer import Patches

    before = (formalnf.apply_gauge, malgrange.apply_gauge, cli.formal_normal_form,
              Scalar.__mul__)
    tracer = Tracer()
    with Patches(tracer):
        assert formalnf.apply_gauge is malgrange.apply_gauge is not before[0]
        assert connmat.apply_gauge is formalnf.apply_gauge
        assert cli.formal_normal_form is not before[2]
    after = (formalnf.apply_gauge, malgrange.apply_gauge, cli.formal_normal_form,
             Scalar.__mul__)
    assert after == before


@pytest.fixture(scope="module")
def traced(tmp_path_factory):
    out = {}
    workdir = str(tmp_path_factory.mktemp("perfbench"))
    for name, n in SMALL.items():
        tracer, p = run.traced_pass(workloads.make(name, 0, workdir), n)
        assert p.failed == 0, name
        out[name] = tracer
    return out


def test_every_named_span_fires_where_it_serves(traced):
    for span, names in FIRES_ON.items():
        for name in names:
            assert traced[name].stats.get(span, [0])[0] > 0, (span, name)


def test_one_variable_makes_no_matrix_or_zt_call(traced):
    stats = traced["one-variable"].stats
    for span in ("connmat.Mat2.mul", "connmat.Mat2.inverse", "connmat.apply_gauge",
                 "connmat.flatness_residuals", "series.ZTSeries.mul",
                 "series.AffinePoly1.mul"):
        assert stats.get(span, [0])[0] == 0, span


@pytest.mark.parametrize("name", ["fixture-reports", "one-variable"])
def test_counts_repeat_exactly(tmp_path, name):
    def counts():
        tracer, p = run.traced_pass(workloads.make(name, 7, str(tmp_path)), 9)
        values = run.layer_values(workloads, tracer, p)
        calls = {k: v[0] for k, v in tracer.stats.items()}
        exact = {k: v for k, v in values.items() if not k.endswith("_s")}
        return calls, tracer.counts, exact

    assert counts() == counts()


def test_benchmark_json_lists_the_reported_metrics():
    path = os.path.join(run.ROOT, "BENCHMARK.json")
    with open(path, encoding="utf-8") as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in bench["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == run.PER_LAYER
