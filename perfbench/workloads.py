"""The benchmark's three workloads.

Each workload turns (seed, index) into one item, runs it against connexa,
renders the result as canonical text and checks it.  Item ``i`` depends
only on the seed and ``i``, so a run may stop anywhere and a traced pass
can regenerate the inputs of an untraced one.

* ``fixture-reports`` -- ``connexa.cli.main`` on the built-in fixtures,
  written once as documents at the default (16, 16) window, plus seeded
  argument sets.  Sparse, low-height data: the time goes to document
  parsing, the pipelines and zero skipping.  Every report and exit code
  must match the recording byte for byte at any seed.
* ``dense-roundtrip`` -- dense seeded Q(i) normal forms of the five
  criterion-2 shapes at the (10, 6) window, moved by a seeded gauge and
  classified back.  The gauge action and ``Mat2`` arithmetic dominate.
* ``one-variable`` -- an equal mix of five one-variable problems at
  order 16: an Euler normal form with its replay, ``malgrange_xy``, the
  Riccati family, a pencil decision and the convolution inequality.
  Exercises ``TSeries`` invert/compose/reverse and ``odekit`` and never
  touches ``Mat2`` or ``ZTSeries``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import re
from fractions import Fraction

from connexa import cli, connmat, euler, formalnf, malgrange, odekit, origin
from connexa.fixtures import fixture_names, write_fixtures
from connexa.origin import BirkhoffData, ConstMat
from connexa.scalars import ONE, ZERO, Scalar
from connexa.series import TSeries, ZTSeries

HERE = os.path.dirname(os.path.abspath(__file__))
EXPECTED_PATH = os.path.join(HERE, "expected.json")

DEFAULT_SEED = 0
DOC_WINDOW = (16, 16)  # the CLI's default --order-z / --order-t
DENSE_WINDOW = (10, 6)  # criterion 2's acceptance window
ONE_VAR_ORDER = 16

# Half-integers u = c0*c1 at which a pencil with c1 = 0 on the right is
# isomorphic (criterion 4): the roots of the chain equation for n <= 10.
CRITICAL_U = frozenset(
    Fraction((n - 1) * (2 * n - k), 2) for n in range(2, 11) for k in (1, 3)
)

_INT = re.compile(r"\d+")


def rand_scalar(rng: random.Random, span: int = 4, gauss: bool = True) -> Scalar:
    re_ = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im = Fraction(rng.randint(-span, span), rng.randint(1, 3)) if gauss else Fraction(0)
    return Scalar(re_, im)


def rand_nonzero(rng: random.Random, span: int = 4, gauss: bool = True) -> Scalar:
    while True:
        s = rand_scalar(rng, span, gauss)
        if not s.is_zero():
            return s


def digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def max_bits(text: str) -> int:
    """Largest bit-length of an integer (numerator or denominator) in text."""
    return max((int(m).bit_length() for m in _INT.findall(text)), default=0)


def canonical(obj) -> str:
    return json.dumps(obj, sort_keys=True)


def load_expected() -> dict:
    with open(EXPECTED_PATH, encoding="utf-8") as fh:
        return json.load(fh)


class Item:
    """One request: ``key`` names it, ``args`` feed the call, ``want`` is
    what the check needs beyond the recording."""

    __slots__ = ("index", "kind", "key", "args", "want")

    def __init__(self, index, kind, key, args, want=None):
        self.index = index
        self.kind = kind
        self.key = key
        self.args = args
        self.want = want


class Workload:
    name = ""
    # Items that make up one balanced mix; runs stop only at its boundaries.
    batch = 1

    def __init__(self, seed: int, expected: dict, workdir: str):
        self.seed = seed
        self.expected = expected.get(self.name)

    def rng(self, *tag) -> random.Random:
        return random.Random(":".join([self.name, str(self.seed), *map(str, tag)]))

    def item(self, i: int) -> Item:
        raise NotImplementedError

    def run(self, item: Item):
        """The timed request; returns the raw result."""
        raise NotImplementedError

    def render(self, item: Item, result) -> str:
        raise NotImplementedError

    def check(self, item: Item, result, text: str) -> bool:
        raise NotImplementedError

    def recorded_ok(self, item: Item, text: str) -> bool:
        """Byte-for-byte comparison with the recording at the default seed."""
        if self.seed != DEFAULT_SEED or self.expected is None:
            return True
        if item.index >= len(self.expected):
            return True
        return self.expected[item.index] == digest(text)


# ---------------------------------------------------------------------------
# fixture-reports


def _scalar_list(values) -> str:
    return ",".join(str(v) for v in values)


def _euler_g(rng: random.Random) -> list[Scalar]:
    val = rng.randrange(4)
    return [ZERO] * val + [rand_nonzero(rng, 3)] + [
        rand_scalar(rng, 3) for _ in range(rng.randint(0, 4))
    ]


def _birkhoff_tuples(rng: random.Random) -> tuple[list[Scalar], list[Scalar], bool]:
    """A pencil pair whose verdict criterion 4's rule decides."""
    c, alpha = rand_scalar(rng), rand_scalar(rng)
    c0 = rand_nonzero(rng, 3)
    if rng.random() < 0.5:
        u = Scalar(rng.choice(sorted(CRITICAL_U)), Fraction(0))
    else:
        while True:
            u = Scalar(
                Fraction(rng.randint(-60, 60), rng.choice([3, 5, 7])),
                Fraction(rng.choice([0, 0, 1, -1])),
            )
            if not (u.im == 0 and (u.re in CRITICAL_U or u.re == 0)):
                break
    isomorphic = u.im == 0 and (u.re in CRITICAL_U or u.re == 0)
    sign = ONE if rng.random() < 0.5 else -ONE
    left = [c, alpha, c0, u / c0]
    right = [c, alpha, c0 * sign, ZERO]
    return left, right, isomorphic


def fixture_pool() -> dict[str, list[list[str]]]:
    """Seed-independent argument sets the run's seed draws from; every one
    is in the recording, so reports are checked byte for byte at any seed.
    Values go in ``--opt=value`` form because they may start with a minus."""
    rng = random.Random("fixture-reports:pool")
    pool: dict[str, list[list[str]]] = {}
    for cmd in ("euler-nf", "euler-realizable"):
        pool[cmd] = [
            [cmd, f"--c={rand_scalar(rng)}", f"--g={_scalar_list(_euler_g(rng))}"]
            for _ in range(32)
        ]
    pool["birkhoff-iso"] = []
    for _ in range(32):
        left, right, _iso = _birkhoff_tuples(rng)
        pool["birkhoff-iso"].append(
            ["birkhoff-iso", f"--left={_scalar_list(left)}", f"--right={_scalar_list(right)}"]
        )
    pool["malgrange"] = [
        ["malgrange", f"--c={rand_scalar(rng)}", f"--c0={rand_nonzero(rng)}",
         f"--binf={_scalar_list(rand_scalar(rng) for _ in range(4))}"]
        for _ in range(16)
    ]
    return pool


FIXTURE_COMMANDS = ("verify", "prenormal", "formal-nf", "classify")
# Drawn from the pool per pass of the fixture list.
POOL_DRAWS = {"euler-nf": 4, "euler-realizable": 4, "birkhoff-iso": 4, "malgrange": 2}


def fixture_pass_keys(rng: random.Random, pool) -> list[list[str]]:
    """One pass: every command on every fixture, a seeded ring of
    formal-iso pairs and seeded draws from the argument pool, shuffled.
    Fixture operands are names; ``run`` maps them to document paths."""
    names = fixture_names()
    keys = [[cmd, name] for name in names for cmd in FIXTURE_COMMANDS]
    ring = names[:]
    rng.shuffle(ring)
    keys += [["formal-iso", a, b] for a, b in zip(ring, ring[1:] + ring[:1])]
    for cmd, k in POOL_DRAWS.items():
        keys += rng.sample(pool[cmd], k)
    rng.shuffle(keys)
    return keys


class FixtureReports(Workload):
    name = "fixture-reports"
    batch = len(fixture_names()) * (len(FIXTURE_COMMANDS) + 1) + sum(POOL_DRAWS.values())

    def __init__(self, seed: int, expected: dict, workdir: str):
        super().__init__(seed, expected, workdir)
        self.docdir = os.path.join(workdir, "fixtures")
        if not os.path.isdir(self.docdir):
            write_fixtures(self.docdir, *DOC_WINDOW)
        self.pool = fixture_pool()
        self._pass = (None, None)

    def item(self, i: int) -> Item:
        p, k = divmod(i, self.batch)
        if self._pass[0] != p:
            self._pass = (p, fixture_pass_keys(self.rng(p), self.pool))
        return self.key_item(i, self._pass[1][k])

    def key_item(self, i: int, key: list[str]) -> Item:
        """The request for a key, with fixture names mapped to documents."""
        argv = key
        if key[0] in FIXTURE_COMMANDS or key[0] == "formal-iso":
            argv = [key[0]] + [os.path.join(self.docdir, n + ".json") for n in key[1:]]
        return Item(i, key[0], " ".join(key), argv)

    def run(self, item: Item):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(item.args)
            except SystemExit as exc:  # argparse rejecting the arguments
                code = exc.code
        return code, out.getvalue()

    def render(self, item: Item, result) -> str:
        return result[1]

    def check(self, item: Item, result, text: str) -> bool:
        want = self.expected.get(item.key)
        return want is not None and want == [result[0], digest(text)]


# ---------------------------------------------------------------------------
# dense-roundtrip


DENSE_SHAPES = ("F1", "FR", "NF3-4", "NF3-6", "NF3-8")
_ODD_HALVES = [Fraction(k, 2) for k in (-5, -3, -1, 1, 3, 5)]


def _z_poly(coeffs, nz: int, nt: int) -> ZTSeries:
    return ZTSeries.from_zseries(TSeries.of(coeffs, nz), nz, nt)


def _unit_family_gauge(rng, nz, nt) -> connmat.GaugeMap:
    """A z-polynomial automorphism of the unit-family shape (degree <= 4)."""
    tau1 = [rand_nonzero(rng, 2)] + [rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [rand_scalar(rng, 2) for _ in range(3)]
    return connmat.GaugeMap(connmat.Mat2(
        _z_poly(tau1, nz, nt),
        _z_poly(tau2, nz, nt),
        ZTSeries.zero(nz, nt),
        _z_poly([ZERO] + tau2, nz, nt),
    ))


def _zero_family_gauge(rng, nz, nt) -> connmat.GaugeMap:
    """A z-polynomial automorphism of the A2 = C2 shape (degree <= 4)."""
    tau1 = [rand_nonzero(rng, 2)] + [rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [TSeries.of([rand_scalar(rng, 2) for _ in range(3)], nt) for _ in range(3)]
    zt = TSeries.zero(nt)
    neg_half = -Scalar(Fraction(1, 2), Fraction(0))
    tau3 = [zt] + [t.derivative_exact().scale(neg_half) for t in tau2]
    tau4 = [zt, zt] + [
        t.derivative_exact().derivative_exact().scale(neg_half) for t in tau2
    ]

    def pad(lst):
        return ZTSeries.from_zcoeffs(lst[:nz] + [zt] * max(0, nz - len(lst)), nz)

    return connmat.GaugeMap(
        connmat.Mat2(_z_poly(tau1, nz, nt), pad(tau2), pad(tau3), pad(tau4))
    )


def _scalar_gauge(rng, nz, nt) -> connmat.GaugeMap:
    sigma = TSeries.of([ZERO] + [rand_scalar(rng, 2) for _ in range(4)], nz)
    return connmat.scalar_exp_gauge(sigma, nz, nt)


class DenseRoundtrip(Workload):
    name = "dense-roundtrip"
    batch = len(DENSE_SHAPES)

    def item(self, i: int) -> Item:
        rng = self.rng(i)
        nz, nt = DENSE_WINDOW
        shape = DENSE_SHAPES[i % len(DENSE_SHAPES)]
        params = {"c": rand_scalar(rng), "alpha": rand_scalar(rng)}
        if shape == "F1":
            params["c0"] = rand_nonzero(rng)
            gauge = _unit_family_gauge(rng, nz, nt)
        elif shape == "FR":
            params["r"] = rng.randint(1, 3)
            gauge = _scalar_gauge(rng, nz, nt)
        else:
            if shape == "NF3-4":
                lam = rng.choice(_ODD_HALVES)
            elif shape == "NF3-6":
                lam = rng.randint(1, 3)
            else:
                lam = -rng.randint(1, 3)
            params["lam"] = Scalar(Fraction(lam), Fraction(0))
            gauge = _zero_family_gauge(rng, nz, nt)
        nf = formalnf.NormalFormId(shape, params)
        start = formalnf.build_normal_form(nf, nz, nt)
        elementary = origin.is_elementary(formalnf.to_prenormal(start)[0])
        return Item(i, shape, nf.describe(), (start, gauge), (nf, elementary))

    def run(self, item: Item):
        start, gauge = item.args
        moved = connmat.apply_gauge(start, gauge)
        p, _pre = formalnf.to_prenormal(moved)
        cls = formalnf.formal_normal_form(p)
        holo = malgrange.classify_holomorphic(moved)
        return cls, holo

    def render(self, item: Item, result) -> str:
        cls, holo = result
        pencil = holo.pencil
        return canonical({
            "normal_form": cls.normal_form.describe(),
            "partners": [n.describe() for n in cls.isomorphic_forms],
            "warnings": list(cls.warnings),
            "elementary": holo.elementary,
            "holomorphic": holo.normal_form.describe() if holo.normal_form else None,
            "pencil": None if pencil is None else [
                str(pencil.c), str(pencil.alpha), str(pencil.c0), str(pencil.c1)
            ],
            "invariants": None if holo.invariants is None else [
                str(v) for v in holo.invariants
            ],
        })

    def check(self, item: Item, result, text: str) -> bool:
        cls, holo = result
        nf, elementary = item.want
        back = cls.normal_form == nf or nf in cls.isomorphic_forms
        return back and holo.elementary == elementary and self.recorded_ok(item, text)


# ---------------------------------------------------------------------------
# one-variable


EULER_SHAPES = ("E1", "E3", "E4")


def _euler_input(rng, shape: str, n: int) -> tuple[Scalar, TSeries, int]:
    """A dense g of the given leading shape; for E4 the leading coefficient
    is a rational (r-1)-th power, so the normalizing automorphism exists."""
    if shape == "E1":
        val, lead = 0, rand_nonzero(rng)
    elif shape == "E3":
        val, lead = 1, rand_nonzero(rng)
    else:
        val = rng.randint(2, 3)
        lead = rand_nonzero(rng, 3, gauss=False) ** (val - 1)
    coeffs = [ZERO] * val + [lead] + [rand_scalar(rng) for _ in range(n - val - 1)]
    return rand_scalar(rng), TSeries.of(coeffs, n), val


class OneVariable(Workload):
    """Requests of three shapes in equal numbers: an Euler normal form with
    its replay, the Riccati family of one f for each r in RICCATI_R, and
    the three light problems (``malgrange_xy``, a pencil decision, the
    convolution inequality) together.  Every kind is solved equally often;
    grouping the light problems, which take 0.1-30 ms against 50-400 ms
    for the other two, puts the latency median inside a kind that scales
    like the workload rather than on the smallest calls.  Solving every r
    in one request keeps that median on the Euler requests; one request
    per r would put it among Riccati requests whose cost halves from
    r = 1 to r = 4, where it moves by a tenth from seed to seed."""

    name = "one-variable"
    REQUESTS = (("euler",), ("riccati",), ("malgrange", "birkhoff", "convolution"))
    RICCATI_R = (1, 2, 3, 4)
    # Euler shapes take turns, so every batch holds the same mix.
    batch = len(REQUESTS) * len(EULER_SHAPES)

    def item(self, i: int) -> Item:
        rng = self.rng(i)
        kinds = self.REQUESTS[i % len(self.REQUESTS)]
        turn = i // len(self.REQUESTS)
        parts = tuple(self._problem(rng, i, kind, turn) for kind in kinds)
        return Item(i, "+".join(kinds), parts[0].key, parts)

    def _problem(self, rng, i: int, kind: str, turn: int) -> Item:
        n = ONE_VAR_ORDER
        if kind == "euler":
            shape = EULER_SHAPES[turn % len(EULER_SHAPES)]
            c, g, val = _euler_input(rng, shape, n)
            return Item(i, kind, shape, euler.EulerField(c, g), (shape, val))
        if kind == "malgrange":
            binf = ConstMat(*(rand_scalar(rng) for _ in range(4)))
            return Item(i, kind, kind, (binf, rand_nonzero(rng), n))
        if kind == "riccati":
            f = TSeries.of(
                [rand_nonzero(rng, 3)] + [rand_scalar(rng, 2) for _ in range(4)], n
            )
            family = [(r, rand_scalar(rng, 2)) for r in self.RICCATI_R]
            return Item(i, kind, kind, (f, family))
        if kind == "birkhoff":
            left, right, iso = _birkhoff_tuples(rng)
            return Item(i, kind, kind, (BirkhoffData(*left), BirkhoffData(*right)), iso)
        l = rng.randint(2, 30)
        return Item(i, kind, kind, (l, rng.randint(l, 30)))

    def run(self, item: Item):
        return tuple(self._solve(p) for p in item.args)

    @staticmethod
    def _solve(p: Item):
        kind = p.kind
        if kind == "euler":
            nz = euler.euler_normal_form(p.args)
            replay = None if nz.lam is None else euler.verify_normalization(p.args, nz)
            return nz, replay
        if kind == "malgrange":
            return malgrange.malgrange_xy(*p.args)
        if kind == "riccati":
            f, family = p.args
            return [odekit.solve_riccati_unique_c(f, r, tau_r) for r, tau_r in family]
        if kind == "birkhoff":
            return origin.birkhoff_iso_decision(*p.args)
        return odekit.check_convolution_inequality(*p.args)

    def render(self, item: Item, result) -> str:
        return canonical({p.kind: self._render(p, r) for p, r in zip(item.args, result)})

    @staticmethod
    def _render(p: Item, result) -> dict:
        kind = p.kind
        if kind == "euler":
            nz, replay = result
            return {
                "family": nz.normal_form.family,
                "params": {k: str(v) for k, v in nz.normal_form.params.items()},
                "lam": None if nz.lam is None else [str(c) for c in nz.lam.coeffs],
                "replay": replay,
                "notes": list(nz.notes),
            }
        if kind == "malgrange":
            return {
                "x": [str(c) for c in result.x.coeffs],
                "y": [str(c) for c in result.y.coeffs],
                "closed_form_checked": result.closed_form_checked,
            }
        if kind == "riccati":
            return [{"c": str(sol.c), "tau": [str(c) for c in sol.tau.coeffs]}
                    for sol in result]
        if kind == "birkhoff":
            return {
                "isomorphic": result.isomorphic,
                "certificate": result.certificate,
                "n": result.n,
                "n_bound": result.n_bound,
                "flags": list(result.flags),
            }
        return {k: str(v) for k, v in result.items()}

    def check(self, item: Item, result, text: str) -> bool:
        ok = all(self._check(p, r) for p, r in zip(item.args, result))
        return ok and self.recorded_ok(item, text)

    @staticmethod
    def _check(p: Item, result) -> bool:
        kind = p.kind
        if kind == "euler":
            nz, replay = result
            shape, val = p.want
            form = nz.normal_form
            ok = form.family == shape and (shape != "E4" or form.params["r"] == val)
            return ok and nz.lam is not None and replay is True
        if kind == "malgrange":
            rx, ry = malgrange.xy_residuals(result)
            return rx.is_zero() and ry.is_zero()
        if kind == "riccati":
            return all(odekit.riccati_residual(sol, p.args[0]).is_zero() for sol in result)
        if kind == "birkhoff":
            return result.isomorphic == p.want
        return result["holds"] is True


WORKLOADS = {
    FixtureReports.name: FixtureReports,
    DenseRoundtrip.name: DenseRoundtrip,
    OneVariable.name: OneVariable,
}


def make(name: str, seed: int, workdir: str) -> Workload:
    """A workload checked against the recording; workdir takes its files."""
    return WORKLOADS[name](seed, load_expected(), workdir)
