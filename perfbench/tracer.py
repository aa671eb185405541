"""Spans and counters wrapped around connexa's entry points from outside.

The benchmark never edits the program: it replaces the traced methods on
their classes and the traced functions in every ``connexa`` module that
bound them by name (``formalnf``, ``malgrange`` and ``selftest`` hold their
own ``apply_gauge``, ``cli`` its own ``formal_normal_form``), and puts the
originals back when a traced item ends.

A span's self time is its duration minus the time covered by its direct
child spans; its inclusive time is counted once per outermost activation,
so recursion does not count the same interval twice.  ``Scalar``
operations are counted, not timed, so their cost stays in the self time
of the calling series span.
"""

from __future__ import annotations

import importlib
import sys
import time

# (module, owner, attribute, span name).  owner None means a module
# function, rebound wherever it was imported by name.
TRACED = [
    ("series", "TSeries", "__mul__", "series.TSeries.mul"),
    ("series", "TSeries", "invert", "series.TSeries.invert"),
    ("series", "TSeries", "compose", "series.TSeries.compose"),
    ("series", "TSeries", "reverse", "series.TSeries.reverse"),
    ("series", "AffinePoly1", "__mul__", "series.AffinePoly1.mul"),
    ("series", "ZTSeries", "__mul__", "series.ZTSeries.mul"),
    ("odekit", None, "solve_riccati_unique_c", "odekit.solve_riccati_unique_c"),
    ("odekit", None, "check_convolution_inequality",
     "odekit.check_convolution_inequality"),
    ("odekit", None, "solve_linear_t_ode", "odekit.solve_linear_t_ode"),
    ("connmat", "Mat2", "__mul__", "connmat.Mat2.mul"),
    ("connmat", "Mat2", "inverse", "connmat.Mat2.inverse"),
    ("connmat", None, "apply_gauge", "connmat.apply_gauge"),
    ("connmat", None, "flatness_residuals", "connmat.flatness_residuals"),
    ("formalnf", None, "to_prenormal", "formalnf.to_prenormal"),
    ("formalnf", None, "formal_normal_form", "formalnf.formal_normal_form"),
    ("origin", None, "birkhoff_reduce", "origin.birkhoff_reduce"),
    ("origin", None, "birkhoff_iso_decision", "origin.birkhoff_iso_decision"),
    ("malgrange", None, "malgrange_xy", "malgrange.malgrange_xy"),
    ("malgrange", None, "classify_holomorphic", "malgrange.classify_holomorphic"),
    ("euler", None, "euler_normal_form", "euler.euler_normal_form"),
    ("euler", None, "verify_normalization", "euler.verify_normalization"),
    ("docio", None, "load_structure", "docio.load_structure"),
    ("docio", None, "dumps_document", "docio.dumps_document"),
    ("docio", "Report", "render", "docio.render"),
    ("cli", None, "main", "cli.main"),
]

# Series products run ~1e5 times per dense item: they are aggregated, not
# kept as individual span records.
_AGGREGATE_ONLY = "series."

# Scalar operation -> counter name.  Subtraction is an addition.
SCALAR_OPS = [
    ("__mul__", "scalars.mul.calls"),
    ("__add__", "scalars.add.calls"),
    ("__sub__", "scalars.add.calls"),
    ("__truediv__", "scalars.div.calls"),
]

# Series products whose zero operands the zero-skipping short cut serves.
_ZERO_PROBED = ("series.TSeries.mul", "series.ZTSeries.mul")


class Tracer:
    """In-memory spans, per-name aggregates and operation counters."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.stack: list[list] = []  # [start, covered by children, record id]
        self.stats: dict[str, list] = {}  # name -> [calls, total_s, self_s]
        self.spans: list[tuple] = []  # (id, parent id, item, name, start, end)
        self.counts: dict[str, int] = {}
        self.item = None
        self._next_id = 0

    def _stat(self, name: str) -> list:
        return self.stats.setdefault(name, [0, 0.0, 0.0])

    def wrap(self, name: str, fn):
        """Return fn wrapped in a span called ``name``."""
        stat = self._stat(name)
        depth = [0]
        record = not name.startswith(_AGGREGATE_ONLY)
        stack = self.stack
        clock = self.clock

        def span(*args, **kwargs):
            parent = stack[-1][2] if stack else None
            if record:
                rid = self._next_id
                self._next_id += 1
            else:
                rid = parent
            frame = [clock(), 0.0, rid]
            stack.append(frame)
            depth[0] += 1
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                depth[0] -= 1
                stack.pop()
                dur = end - frame[0]
                stat[0] += 1
                stat[2] += dur - frame[1]
                if depth[0] == 0:
                    stat[1] += dur
                if stack:
                    stack[-1][1] += dur
                if record:
                    self.spans.append((rid, parent, self.item, name, frame[0], end))

        return span

    def count(self, name: str, fn):
        """Return fn wrapped in a bare call counter."""
        counts = self.counts
        counts.setdefault(name, 0)

        def counted(a, b):
            counts[name] += 1
            return fn(a, b)

        return counted

    def zero_probe(self, fn):
        """Return a series product that also counts its zero operands."""
        counts = self.counts
        counts.setdefault("series.mul.calls", 0)
        counts.setdefault("series.mul.zero_operand", 0)

        def probed(a, b):
            counts["series.mul.calls"] += 1
            if a.is_zero() or b.is_zero():
                counts["series.mul.zero_operand"] += 1
            return fn(a, b)

        return probed

    def module_totals(self) -> dict[str, float]:
        """Sum of self time over each module's spans."""
        out: dict[str, float] = {}
        for name, (_calls, _total, self_s) in self.stats.items():
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + self_s
        return out


class Patches:
    """The replacements a Tracer needs, installed and removed as a unit."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._swaps: list[tuple] = []  # (holder, attribute, original, replacement)
        mods = {
            name: importlib.import_module(f"connexa.{name}")
            for name in {m for m, _o, _a, _n in TRACED} | {"scalars"}
        }
        for mod, owner, attr, name in TRACED:
            if owner is not None:
                cls = getattr(mods[mod], owner)
                orig = cls.__dict__[attr]
                inner = tracer.zero_probe(orig) if name in _ZERO_PROBED else orig
                self._swaps.append((cls, attr, orig, tracer.wrap(name, inner)))
                continue
            orig = getattr(mods[mod], attr)
            wrapped = tracer.wrap(name, orig)
            for holder in _connexa_modules():
                if holder.__dict__.get(attr) is orig:
                    self._swaps.append((holder, attr, orig, wrapped))
        scalar = mods["scalars"].Scalar
        for attr, name in SCALAR_OPS:
            orig = scalar.__dict__[attr]
            self._swaps.append((scalar, attr, orig, tracer.count(name, orig)))

    def __enter__(self):
        for holder, attr, _orig, new in self._swaps:
            setattr(holder, attr, new)
        return self.tracer

    def __exit__(self, *exc):
        for holder, attr, orig, _new in self._swaps:
            setattr(holder, attr, orig)
        return False


def _connexa_modules():
    return [
        m for name, m in list(sys.modules.items())
        if m is not None and (name == "connexa" or name.startswith("connexa."))
    ]
