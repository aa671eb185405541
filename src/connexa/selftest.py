"""The acceptance suite as callable checks.

Each criterion returns (passed, detail).  ``run_all`` drives them in
order; the CLI selftest command and the test suite both use it.  All
randomness is seeded, so reports are reproducible byte for byte.
"""

from __future__ import annotations

import random
from fractions import Fraction

from . import odekit
from .connmat import (
    ConstMat,
    GaugeMap,
    apply_gauge,
    flatness_residuals,
    induced_euler,
    restrict_origin,
    scalar_exp_gauge,
)
from .errors import UnsupportedShapeError
from .euler import EulerField, euler_normal_form, push_forward_g, realizable_by_te
from .fixtures import FIXTURES, build_fixture
from .formalnf import (
    NormalFormId,
    PreNormalForm,
    _mobius_gauge,
    build_normal_form,
    build_prenormal_struct,
    formal_normal_form,
    normal_form_prenormal,
    to_prenormal,
    unit_family_gauge,
    zero_family_gauge,
)
from .malgrange import (
    assign_c1,
    holo_normal_form,
    holo_replay,
    malgrange_xy,
    xy_residuals,
)
from .origin import (
    BirkhoffData,
    OriginRestriction,
    birkhoff_iso_decision,
    cyclic_fuchs,
    is_elementary,
)
from .scalars import HALF, ONE, QUARTER, S, ZERO, Scalar, I, integer
from .series import TSeries, ZTSeries


def _rand_scalar(rng, span=4, gauss=True) -> Scalar:
    re = Fraction(rng.randint(-span, span), rng.randint(1, 3))
    im = Fraction(rng.randint(-span, span), rng.randint(1, 3)) if gauss else Fraction(0)
    return Scalar(re, im)


def _rand_nonzero(rng, span=4) -> Scalar:
    while True:
        s = _rand_scalar(rng, span)
        if not s.is_zero():
            return s


# -- criterion 1 -------------------------------------------------------------


def criterion_flatness_sweep(samples=20, nz=16, nt=16):
    """Every formal normal form is exactly flat at orders (16, 16)."""
    rng = random.Random(101)
    count = 0
    for _ in range(samples):
        tuples = [
            ("F1", {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                    "c0": _rand_scalar(rng)}),
        ]
        for r in range(1, 6):
            tuples.append(
                ("FR", {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng), "r": r})
            )
        base = {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng)}
        tuples.append(("NF3-1", dict(base)))
        tuples.append(("NF3-2", dict(base)))
        tuples.append(("NF3-3", {**base, "lam": S("1/2")}))
        tuples.append(("NF3-3", {**base, "lam": S(0)}))
        tuples.append(("NF3-4", {**base, "lam": S("-3/2")}))
        tuples.append(("NF3-4", {**base, "lam": S(0)}))
        for lam in (1, 2, 3):
            for gamma in (S(0), S(1)):
                tuples.append(
                    ("NF3-5", {**base, "lam": S(lam), "gamma": gamma})
                )
            tuples.append(("NF3-6", {**base, "lam": S(lam)}))
            tuples.append(("NF3-7", {**base, "lam": S(lam)}))
        for lam in (-1, -2, -3):
            tuples.append(("NF3-8", {**base, "lam": S(lam)}))
            tuples.append(("NF3-9", {**base, "lam": S(lam)}))
        for fam, params in tuples:
            s = build_normal_form(NormalFormId(fam, params), nz, nt)
            if not flatness_residuals(s).flat:
                return False, f"non-flat {fam} with {params}"
            count += 1
    return True, f"{count} structures exactly flat at ({nz}, {nt})"


# -- criterion 2 -------------------------------------------------------------


def _random_unit_family_gauge(rng, nz, nt) -> GaugeMap:
    """A z-polynomial automorphism of the unit-family shape (degree <= 4)."""
    tau1 = [_rand_nonzero(rng, 2)] + [_rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [_rand_scalar(rng, 2) for _ in range(3)]  # E column adds a degree
    return unit_family_gauge(TSeries.of(tau1, nz), TSeries.of(tau2, nz), nt)


def _random_zero_family_gauge(rng, nz, nt) -> GaugeMap:
    """A z-polynomial automorphism of the A2 = C2 shape (degree <= 4)."""
    tau1 = [_rand_nonzero(rng, 2)] + [_rand_scalar(rng, 2) for _ in range(4)]
    tau2 = [
        TSeries.of([_rand_scalar(rng, 2) for _ in range(3)], nt)
        for _ in range(3)
    ]
    return zero_family_gauge(TSeries.of(tau1, nz), ZTSeries.from_zcoeffs(tau2, nz))


def _random_scalar_gauge(rng, nz, nt) -> GaugeMap:
    sigma = TSeries.of(
        [ZERO] + [_rand_scalar(rng, 2) for _ in range(4)], nz
    )
    return scalar_exp_gauge(sigma, nz, nt)


def criterion_round_trip(samples=50, nz=10, nt=6):
    """Gauge perturbations of normal forms classify back onto the start."""
    rng = random.Random(202)
    done = 0
    while done < samples:
        kind = done % 5
        if kind == 0:
            nf = NormalFormId(
                "F1",
                {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                 "c0": _rand_nonzero(rng)},
            )
            gauge = _random_unit_family_gauge(rng, nz, nt)
        elif kind == 1:
            nf = NormalFormId(
                "FR",
                {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                 "r": rng.randint(1, 3)},
            )
            gauge = _random_scalar_gauge(rng, nz, nt)
        elif kind == 2:
            nf = NormalFormId(
                "NF3-4",
                {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                 "lam": S(Fraction(rng.randint(-5, 5), 2))},
            )
            if nf.params["lam"].is_integer():
                continue
            gauge = _random_zero_family_gauge(rng, nz, nt)
        elif kind == 3:
            nf = NormalFormId(
                "NF3-6",
                {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                 "lam": S(rng.randint(1, 3))},
            )
            gauge = _random_zero_family_gauge(rng, nz, nt)
        else:
            nf = NormalFormId(
                "NF3-8",
                {"c": _rand_scalar(rng), "alpha": _rand_scalar(rng),
                 "lam": S(-rng.randint(1, 3))},
            )
            gauge = _random_zero_family_gauge(rng, nz, nt)
        start = build_normal_form(nf, nz, nt)
        moved = apply_gauge(start, gauge)
        p, _pre = to_prenormal(moved)
        cls = formal_normal_form(p)
        same = cls.normal_form == nf or any(
            partner == nf for partner in cls.isomorphic_forms
        )
        if not same:
            return False, (
                f"{nf.describe()} came back as {cls.normal_form.describe()}"
            )
        # replay: the logged maps take the pre-normal input to the target
        if cls.net_map is not None:
            out = apply_gauge(build_prenormal_struct(p), cls.net_map)
            target = build_prenormal_struct(cls.target)
            nzc = min(out.orders[0], target.orders[0])
            ntc = min(out.orders[1], target.orders[1])
            if out.truncate(nzc, ntc) != target.truncate(nzc, ntc):
                return False, f"replay mismatch for {nf.describe()}"
        done += 1
    return True, f"{samples} perturbed structures recovered and replayed"


# -- criterion 3 -------------------------------------------------------------


def _random_prenormal(rng, nz, nt) -> PreNormalForm:
    kind = rng.randrange(4)
    c, alpha = _rand_scalar(rng), _rand_scalar(rng)
    if kind == 0:
        # unit family with random tail constants
        zc = [TSeries.var(nt).scale(-HALF) + TSeries.const(_rand_scalar(rng), nt)]
        zc += [TSeries.const(_rand_scalar(rng), nt) for _ in range(3)]
        return PreNormalForm(
            ZTSeries.one(nz - 1, nt), ZTSeries.from_zcoeffs(zc, nz), c, alpha
        )
    if kind == 1:
        nf = NormalFormId("FR", {"c": c, "alpha": alpha, "r": rng.randint(1, 4)})
        return normal_form_prenormal(nf, nz, nt)
    if kind == 2:
        zc = [
            TSeries.of([_rand_scalar(rng, 2) for _ in range(3)], nt)
            for _ in range(4)
        ]
        return PreNormalForm(
            ZTSeries.zero(nz - 1, nt), ZTSeries.from_zcoeffs(zc, nz), c, alpha
        )
    # second-type shapes, exercising non-polynomial f
    params = {"c": c, "alpha": alpha, "c0": _rand_nonzero(rng, 3)}
    family = ("HNF-MAL1", "HNF-MAL3", "HNF-MAL2")[rng.randrange(3)]
    if family == "HNF-MAL2":
        params["lam"] = S(rng.randint(1, 3))
    return normal_form_prenormal(NormalFormId(family, params), nz, nt)


def criterion_elementary_dichotomy(samples=200, nz=8, nt=6):
    """Product test at the origin == twisted valuation test, plus the three
    closed one-variable cases."""
    rng = random.Random(303)
    for idx in range(samples):
        p = _random_prenormal(rng, nz, nt)
        s = build_prenormal_struct(p)
        r = restrict_origin(s)
        lhs = is_elementary(p)
        rhs = cyclic_fuchs(r)
        if lhs != rhs:
            return False, f"disagreement on sample {idx}"
    n = 8
    zero = TSeries.zero(n)
    unit = TSeries.of([1, 1], n)
    # eta(0) != 0, gam(0) = 0 -> regular singular
    r1 = OriginRestriction(unit, unit, unit, TSeries.of([0, 1], n), ZERO, ZERO)
    # eta(0) != 0, gam(0) != 0 -> not regular singular
    r2 = OriginRestriction(unit, unit, unit, unit, ZERO, ZERO)
    # eta == 0 -> regular singular
    r3 = OriginRestriction(zero, unit, unit, unit, ZERO, ZERO)
    if not (cyclic_fuchs(r1) and not cyclic_fuchs(r2) and cyclic_fuchs(r3)):
        return False, "closed one-variable cases failed"
    return True, f"{samples} samples agree; closed cases reproduced"


# -- criterion 4 -------------------------------------------------------------


def criterion_birkhoff_table(outside_samples=50):
    """With the right tuple's z-linear part zero, isomorphy holds exactly on
    the critical half-integer set."""
    critical = set()
    for n in range(2, 11):
        critical.add(Fraction((n - 1) * (2 * n - 1), 2))
        critical.add(Fraction((n - 1) * (2 * n - 3), 2))
    c0 = ONE
    for u in sorted(critical):
        d1 = BirkhoffData(ZERO, ZERO, c0, Scalar(u, Fraction(0)))
        d2 = BirkhoffData(ZERO, ZERO, c0, ZERO)
        rep = birkhoff_iso_decision(d1, d2)
        if not rep.isomorphic:
            return False, f"critical value {u} not recognized"
    rng = random.Random(404)
    tried = 0
    while tried < outside_samples:
        num = rng.randint(-60, 60)
        den = rng.choice([3, 5, 7])
        im = rng.choice([0, 0, 1, -1])
        u = Scalar(Fraction(num, den), Fraction(im))
        if u.im == 0 and u.re in critical:
            continue
        d1 = BirkhoffData(ZERO, ZERO, c0, u)
        d2 = BirkhoffData(ZERO, ZERO, c0, ZERO)
        rep = birkhoff_iso_decision(d1, d2)
        if rep.isomorphic:
            return False, f"value {u} wrongly accepted"
        tried += 1
    return True, f"{len(critical)} critical values accepted, {outside_samples} outside values rejected"


# -- criterion 5 -------------------------------------------------------------


def criterion_malgrange_fidelity(samples=30, order=16):
    """Deformation coordinates have zero residual; closed forms match."""
    rng = random.Random(505)
    for idx in range(samples):
        binf = ConstMat(
            _rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng), _rand_scalar(rng)
        )
        c0 = _rand_nonzero(rng)
        st = malgrange_xy(binf, c0, order)
        rx, ry = xy_residuals(st)
        if not (rx.is_zero() and ry.is_zero()):
            return False, f"nonzero residual on sample {idx}"
    # special shapes, coefficientwise to order 12
    c0 = S(2)
    st = malgrange_xy(ConstMat(ZERO, -(ONE / integer(32)), -QUARTER, c0), c0, 13)
    if not st.closed_form_checked:
        return False, "double-root closed form not checked"
    st = malgrange_xy(ConstMat(ZERO, ZERO, -QUARTER, c0), c0, 13)
    if not st.closed_form_checked:
        return False, "triangular closed form not checked"
    return True, f"{samples} random systems exact; special closed forms match"


# -- criterion 6 -------------------------------------------------------------


def criterion_holo_replay(nz=12, nt=13):
    """The three branch normal forms are reproduced by the logged frame
    change and reparametrization."""
    c = S(1)
    for label, c0, b21 in (
        ("first branch", S(1), S("-1/16")),
        ("second branch", S(1), S("15/16")),
        ("third branch", S(2), S("3/32")),
    ):
        alpha = S("1/2")
        b0o = ConstMat(c, c0, ZERO, ZERO)
        binf = ConstMat(alpha, b21, -QUARTER, c0)
        res = holo_normal_form(b0o, binf, nz, nt)
        if not holo_replay(res):
            return False, f"{label} replay failed"
        if assign_c1(res.normal_form) != b21:
            return False, f"{label} invariant mismatch"
    return True, "all three branches replayed exactly at (12, 12)"


# -- criterion 7 -------------------------------------------------------------


def criterion_euler_suite(nt=16):
    t = TSeries.var(nt)
    cases = [
        (TSeries.const(S(2), nt), "E1", None, True),
        (t.scale(S(3)), "E3", ("c0", S(3)), True),
        (t.pow_int(2) + t.pow_int(3), "E4", ("r", 2), None),
        (t.pow_int(3) + t.pow_int(4), "E4", ("r", 3), False),
    ]
    for g, fam, param, expect_real in cases:
        e = EulerField(S(0), g)
        nzn = euler_normal_form(e)
        nf = nzn.normal_form
        if nf.family != fam:
            return False, f"family mismatch for {fam}"
        if param is not None:
            key, val = param
            got = nf.params[key]
            if (got != val if isinstance(val, Scalar) else got != val):
                return False, f"parameter mismatch for {fam}"
        if expect_real is None:
            expect_real = nf.params["c1"].is_zero()
        if realizable_by_te(nf) != expect_real:
            return False, f"realizability mismatch for {fam}"
        if nzn.lam is None:
            if fam != "E2":
                return False, f"missing automorphism for {fam}"
        else:
            pushed = push_forward_g(e.g, nzn.lam)
            want = nf.g_series(pushed.order)
            n14 = min(14, pushed.order)
            if pushed.truncate(n14) != want.truncate(n14):
                return False, f"push-forward replay failed for {fam}"
    return True, "families, replays and realizability verdicts all match"


# -- criterion 8 -------------------------------------------------------------


def criterion_appendix_suite(riccati_samples=20):
    for l in range(2, 31):
        for b in range(l, 31):
            rep = odekit.check_convolution_inequality(l, b)
            if not rep["holds"]:
                return False, f"inequality fails at l={l}, b={b}"
    rng = random.Random(606)
    deltas = (ONE, I, HALF)
    for idx in range(riccati_samples):
        order = 12
        f = TSeries.of(
            [_rand_nonzero(rng, 3)] + [_rand_scalar(rng, 2) for _ in range(4)],
            order,
        )
        r = rng.randint(1, 4)
        sol = odekit.solve_riccati_unique_c(f, r, _rand_scalar(rng, 2))
        base = odekit.riccati_residual(sol, f)
        if not base.is_zero():
            return False, f"nonzero base residual on sample {idx}"
        tau0 = sol.tau[0]
        for delta in deltas:
            res = odekit.riccati_residual(sol, f, sol.c + delta)
            expected = -(delta * tau0 * tau0 * tau0 * f[0])
            if res[r] != expected or res[r].is_zero():
                return False, f"perturbation not detected on sample {idx}"
    # verdict branches of the quadratic-polynomial system
    order = 6
    t = TSeries.var(order)
    g_generic = TSeries.of([1, 1, 1], order)
    checks = [
        (S(2), t, g_generic, "unique"),
        (S(1), t, TSeries.of([1, 1], order), "solvable-iff-condition"),
        (S(1), t, g_generic, "no-solution"),
        (S(-1), t, TSeries.of([0, 1, 1], order), "solvable-iff-condition"),
        (S(-1), t, g_generic, "no-solution"),
        (S(2), t + TSeries.one(order), g_generic, "unique"),
        (S(1), t + TSeries.one(order), TSeries.of([1, 1], order),
         "solvable-iff-condition"),
        (S(1), t + TSeries.one(order), g_generic, "no-solution"),
        (S(-1), t + TSeries.one(order), TSeries.of([1, 1, 0], order),
         "solvable-iff-condition"),
        (S(-1), t + TSeries.one(order), g_generic, "no-solution"),
        (S(3), t.pow_int(2), g_generic, "unique"),
    ]
    for m, b, g, expected in checks:
        sol = odekit.solve_third_der(
            m,
            odekit.quad_coeffs(b, UnsupportedShapeError, "b is not quadratic"),
            odekit.quad_coeffs(g, UnsupportedShapeError, "g is not quadratic"),
        )
        if sol.verdict != expected:
            return False, f"verdict {sol.verdict} != {expected} for m={m}"
        if sol.x is not None:
            if not odekit.third_der_residual(m, b, TSeries.of(sol.x, order), g).is_zero():
                return False, f"wrong solution for m={m}"
    return True, "inequality table, perturbation detection and verdicts pass"


# -- criterion 9 -------------------------------------------------------------


def criterion_cross_module(nz=8, nt=8, iso_samples=10):
    rng = random.Random(707)
    for name in sorted(FIXTURES):
        s = build_fixture(name, nz, nt)
        e = induced_euler(s)
        nf = euler_normal_form(e).normal_form
        if not realizable_by_te(nf):
            return False, f"fixture {name} induces a non-realizable field"
        p = to_prenormal(s)[0]
        base = is_elementary(p)
        for k in range(iso_samples):
            if k % 2 == 0 or not _fixture_is_zero_family(s):
                sigma = TSeries.of([ZERO] + [_rand_scalar(rng, 2) for _ in range(3)], nz)
                g = scalar_exp_gauge(sigma, nz, nt)
            else:
                g = _mobius_gauge(
                    _rand_nonzero(rng, 2), _rand_nonzero(rng, 2),
                    _rand_scalar(rng, 1), nz, nt
                )
            moved = apply_gauge(s, g)
            p2, _ = to_prenormal(moved)
            if is_elementary(p2) != base:
                return False, f"elementary flag not invariant on {name}"
    return True, "induced fields realizable; elementary flag invariant"


def _fixture_is_zero_family(s) -> bool:
    return s.A2.e.is_zero()


CRITERIA = [
    ("1 normal-form flatness sweep", criterion_flatness_sweep),
    ("2 round-trip normalization", criterion_round_trip),
    ("3 elementary dichotomy", criterion_elementary_dichotomy),
    ("4 birkhoff decision table", criterion_birkhoff_table),
    ("5 malgrange ode fidelity", criterion_malgrange_fidelity),
    ("6 second-type replay", criterion_holo_replay),
    ("7 euler suite", criterion_euler_suite),
    ("8 appendix suite", criterion_appendix_suite),
    ("9 cross-module coherence", criterion_cross_module),
]


def run_all():
    return [(name, *fn()) for name, fn in CRITERIA]
