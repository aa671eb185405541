import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from connexa import cli, origin
from connexa.connmat import Mat2, apply_gauge
from connexa.docio import save_structure
from connexa.errors import ExactFieldError, ReductionFailedError, ShapeError
from connexa.fixtures import build_fixture, fixture_names
from connexa.formalnf import (
    NormalFormId,
    build_normal_form,
    build_prenormal_struct,
    normal_form_prenormal,
    to_prenormal,
)
from connexa.origin import (
    BirkhoffData,
    ConstMat,
    OriginRestriction,
    birkhoff_invariants,
    birkhoff_iso_decision,
    birkhoff_reduce,
    birkhoff_residual,
    cyclic_fuchs,
    irreducibility_check,
    is_elementary,
    normalize_birkhoff,
    restrict_prenormal,
    _chain_n,
)
from connexa.scalars import ONE, QUARTER, S, Scalar, ZERO, integer
from connexa.selftest import _random_prenormal, _random_unit_family_gauge
from connexa.series import Laurent, TSeries

import origin_oracle as oracle
from conftest import rand_nonzero, rand_scalar
from linear_system_oracle import solve_linear_system
from origin_oracle import (
    ZmatReduction,
    _z_gauge,
    conjugate,
    restriction_zmat,
    zmat_coeff,
    zmat_coeffs,
    zmat_from_consts,
)

NZ = NT = 8


def _restrict(s):
    """The origin restriction of a structure, through its pre-normal data."""
    return restrict_prenormal(to_prenormal(s)[0])


def _window(coeffs, nz):
    """The coefficient list B_0 ... B_{nz-1}, padded with zeros."""
    return tuple(coeffs) + (ConstMat.zero(),) * (nz - len(coeffs))


def _residual_is_zero(b_in, red):
    return all(c.is_zero() for c in birkhoff_residual(b_in, red.gauge, red.b0, red.binf))


def test_elementary_product_rule():
    p = normal_form_prenormal(
        NormalFormId("F1", dict(c=S(0), alpha=S(0), c0=S(2))), NZ, NT
    )
    assert not is_elementary(p)  # f(0,0) = 1, b2(0,0) = 2
    p = normal_form_prenormal(
        NormalFormId("F1", dict(c=S(0), alpha=S(0), c0=S(0))), NZ, NT
    )
    assert is_elementary(p)  # b2(0,0) = 0
    p = normal_form_prenormal(
        NormalFormId("NF3-4", dict(c=S(0), alpha=S(0), lam=S(1))), NZ, NT
    )
    assert is_elementary(p)  # f = 0


def test_cyclic_fuchs_closed_cases():
    n = 8
    zero = TSeries.zero(n)
    unit = TSeries.of([1, 1], n)
    val1 = TSeries.of([0, 1], n)
    # eta(0) != 0, gam(0) = 0 -> regular singular
    assert cyclic_fuchs(OriginRestriction(unit, unit, unit, val1, ZERO, ZERO))
    # eta(0) != 0, gam(0) != 0 -> irregular
    assert not cyclic_fuchs(OriginRestriction(unit, unit, unit, unit, ZERO, ZERO))
    # eta == 0 -> logarithmic pole
    assert cyclic_fuchs(OriginRestriction(zero, unit, unit, unit, ZERO, ZERO))


def test_cyclic_fuchs_refuses_a_window_below_2():
    # on an order-1 window the deciding z^-3 coefficient of a0 lies outside
    # it, and the test used to answer True with eta(0) gam(0) != 0
    one = TSeries.one(1)
    for eta in (one, TSeries.zero(1)):
        r = OriginRestriction(eta, one, one, one, ZERO, ZERO)
        with pytest.raises(ShapeError, match="order at least 2, not 1"):
            cyclic_fuchs(r)
    # one short series shrinks the common window
    unit8 = TSeries.of([1, 1], 8)
    r = OriginRestriction(unit8, unit8, TSeries.one(1), unit8, ZERO, ZERO)
    with pytest.raises(ShapeError):
        cyclic_fuchs(r)
    two = TSeries.one(2)
    assert not cyclic_fuchs(OriginRestriction(two, two, two, two, ZERO, ZERO))


def test_restrict_prenormal():
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))), NZ, NT
    )
    r = _restrict(s)
    assert r.c == S(1) and r.alpha == S("1/2")
    assert r.eta == TSeries.const(S(2), NZ)  # b2 at the origin
    assert r.lam == TSeries.const(S("-1/2"), NZ)
    assert r.beta.is_zero()
    assert r.gam == TSeries.one(NZ - 1)
    # reconstruction matches the structure's pole matrix at the origin
    coeffs = r.bz_components()
    n = len(coeffs)
    oc1, oc2, od, oe = (x.truncate(n).coeffs for x in s.B.at_origin())
    assert coeffs == tuple(map(ConstMat, oc1, oc2, od, oe))
    assert [b.c2 for b in coeffs] == list(TSeries.const(S(2), n).coeffs)
    assert [b.d for b in coeffs] == list(TSeries.of([0, "-1/4"], n).coeffs)
    assert [b.e for b in coeffs] == list(TSeries.of([0, 2], n).coeffs)


def test_elementary_matches_twisted_fuchs():
    for family, params, want in [
        ("F1", dict(c0=S(2)), False),
        ("F1", dict(c0=S(0)), True),
        ("FR", dict(r=2), True),
        ("NF3-2", dict(), True),
    ]:
        nf = NormalFormId(family, dict(c=S(1), alpha=S("1/2"), **params))
        p = normal_form_prenormal(nf, NZ, NT)
        r = _restrict(build_prenormal_struct(p))
        assert is_elementary(p) == want
        assert cyclic_fuchs(r) == want
        assert (r.eta[0] * r.gam[0]).is_zero() == want


def test_irreducibility_nonelementary():
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(2))), NZ, NT
    )
    rep = irreducibility_check(_restrict(s))
    assert rep.verdict == "irreducible"


def test_irreducibility_decoupled_case():
    n = 8
    zero = TSeries.zero(n)
    r = OriginRestriction(zero, TSeries.const(S(2), n), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert rep.verdict == "reducible"
    assert "eigen-section" in rep.notes[0]


def test_irreducibility_negative_bound_raises():
    n = 8
    zero = TSeries.zero(n)
    r = OriginRestriction(TSeries.one(n), TSeries.const(S(3), n), zero, zero, ZERO, ZERO)
    with pytest.raises(ShapeError):
        irreducibility_check(r, k_max=-1)
    # k = 0 alone is searched; the witness lies further out
    assert irreducibility_check(r, k_max=0).witness_k is None
    assert irreducibility_check(r).verdict == "reducible"


def test_irreducibility_explicit_witness():
    # eta = 1, gamma = 0, beta = 0, lam = const: g = 0 solves the pencil
    n = 8
    zero = TSeries.zero(n)
    one = TSeries.one(n)
    r = OriginRestriction(one, TSeries.const(S(3), n), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert rep.verdict == "reducible"


def _eigen_residual_vanishes(r, k, w):
    """Whether g = z^k w with w(0) != 0 solves the eigen-section equation
    k z^{k+1} w + z^{k+2} w' - z^{k+1} lam1 w - z^{2k} eta w^2
    - beta z^2/2 + eta gam z = 0 on the search's window: the n orders from
    the lowest of 2k, k + 1 and the first term of the constant part.  Each
    part is formed by series products."""
    if w[0].is_zero():
        return False
    eta, lamz, beta, gam = r.window()
    n = eta.order
    etagam = eta * gam
    lead = [j + 1 for j in range(n) if not etagam[j].is_zero()]
    lead += [j + 2 for j in range(n) if not beta[j].is_zero()]
    o_min = min(2 * k, k + 1, min(lead, default=1))
    lin = w.scale(integer(k)) + w.xdx() - (lamz + TSeries.one(n)) * w
    quad = eta * w * w
    for o in range(o_min, o_min + n):
        acc = ZERO
        if o - k - 1 >= 0:
            acc += lin[o - k - 1]
        if o - 2 * k >= 0:
            acc -= quad[o - 2 * k]
        if 1 <= o <= n:
            acc += etagam[o - 1]
        if 2 <= o <= n + 1:
            acc -= beta[o - 2] * S("1/2")
        if not acc.is_zero():
            return False
    return True


def test_eigen_section_a_zero_root_does_not_hide_the_other():
    # at k = 1 the head quadratic is R0 - R0^2: the root 0, tried first,
    # once ended the search for this k
    n = 6
    zero = TSeries.zero(n)
    r = OriginRestriction(TSeries.one(n), TSeries.const(S(-1), n), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert (rep.verdict, rep.witness_k, rep.witness) == ("reducible", 1, TSeries.one(n))
    assert _eigen_residual_vanishes(r, 1, rep.witness)


def test_eigen_section_a_free_head_at_positive_k_is_taken():
    # at k = 4, k - lam1(0) = 0 and the residual there vanish, so R0 is free
    # and every later weight is j: R0 = 1 gives a witness
    n = 6
    eta = TSeries.of([0, 0, 0, 2, -2, 1], n)
    lam = TSeries.of([3, 0, -2, 0, 1], n)
    zero = TSeries.zero(n)
    r = OriginRestriction(eta, lam, zero, zero, ZERO, ZERO)
    lam1 = lam + TSeries.one(n)
    got = origin._try_eigen_section(4, n, eta, lam1, {}, [])
    assert got[0] == ONE
    assert _eigen_residual_vanishes(r, 4, got)
    assert oracle.try_eigen_section(4, n, eta, lam1, {}, []) is None
    # eta(0) = 0, so the search meets a witness at k = -2 first
    rep = irreducibility_check(r)
    assert (rep.verdict, rep.witness_k) == ("reducible", -2)
    assert _eigen_residual_vanishes(r, -2, rep.witness)


_SEARCH_VALUES = [0, 0, 0, 0, 0, 1, -1, 2, -2, 3, S("1/2"), S(0, 1)]


def _random_search_restriction(rng):
    n = rng.randint(1, 9)

    def ser(zeros):
        return TSeries.of(
            [ZERO if rng.random() < zeros else S(rng.choice(_SEARCH_VALUES)) for _ in range(n)], n
        )

    eta = ser(rng.choice([0.3, 0.6, 0.9]))
    lam = TSeries.of([rng.randint(-4, 6)] + list(ser(0.7).coeffs[1:]), n)
    beta = ser(rng.choice([1.0, 0.8]))
    gam = ser(rng.choice([1.0, 0.8]))
    return OriginRestriction(eta, lam, beta, gam, ZERO, ZERO)


def _fixed_search_class(k, eta, lam1, const_part):
    """Where the old search missed a witness by construction: "low head"
    when eta(0) = 0 at k <= 0, where it took R0 = 0 as the head; "zero
    root" when the head quadratic's first root is 0 and the other is not;
    "free head" when R0 is free at k >= 1; else None."""
    if k <= 0 and eta[0].is_zero():
        return "low head"
    first = min(k + 1, 2 * k)
    c0 = const_part.get(first, ZERO)
    c1 = integer(k) - lam1[0] if first == k + 1 else ZERO
    c2 = -eta[0] if first == 2 * k else ZERO
    if c2.is_zero():
        free = k >= 1 and c1.is_zero() and c0.is_zero()
        return "free head" if free else None
    root = (c1 * c1 - integer(4) * c2 * c0).sqrt()
    hidden = root is not None and not root.is_zero() and root == c1
    return "zero root" if hidden else None


def _search_inputs(r):
    """(n, eta, lam1, const_part) as irreducibility_check hands them to
    each k's solve, or None when eta = 0 ends the search first."""
    eta, lamz, beta, gam = r.window()
    if eta.is_zero():
        return None
    const_part = {}
    for j, coeff in enumerate((eta * gam).coeffs):
        if not coeff.is_zero():
            const_part[j + 1] = const_part.get(j + 1, ZERO) + coeff
    for j, coeff in enumerate(beta.coeffs):
        if not coeff.is_zero():
            const_part[j + 2] = const_part.get(j + 2, ZERO) - coeff * S("1/2")
    return eta.order, eta, lamz + TSeries.one(eta.order), const_part


def test_eigen_section_matches_the_trial_and_backtrack_oracle():
    search = origin._try_eigen_section
    rng = random.Random(2301)
    cases = []
    for _ in range(1200):
        restr = _random_search_restriction(rng)
        inputs = _search_inputs(restr)
        if inputs is not None:
            n = inputs[0]
            cases += [(restr, (k, *inputs, [])) for k in range(-n - 1, n + 2)]
    seen = dict.fromkeys(
        ("pairs", "witness", "notes", "zero root", "free head", "low head", "short"), 0
    )
    for restr, (k, n, eta, lam1, const_part, _notes) in cases:
        got_notes, want_notes = [], []
        got = search(k, n, eta, lam1, const_part, got_notes)
        want = oracle.try_eigen_section(k, n, eta, lam1, const_part, want_notes)
        fixed = _fixed_search_class(k, eta, lam1, const_part)
        if fixed == "low head":  # the old search never solved this head
            assert want is None and not want_notes
        else:
            assert got_notes == want_notes
        if got != want:
            assert want is None and got is not None and fixed is not None, (k, restr)
            seen[fixed] += 1
        if got is not None:
            assert _eigen_residual_vanishes(restr, k, got), (k, restr)
        if n == 1 and k == 1:  # the window ends below the order where R0 enters
            assert got is None
            seen["short"] += 1
        seen["pairs"] += 1
        seen["witness"] += got is not None
        seen["notes"] += bool(got_notes)
    assert seen["pairs"] >= 10_000 and min(seen.values()) >= 20, seen


def _planted_low_head_restriction(rng):
    """A restriction with eta(0) = 0 and a planted eigen-section z^k R at
    k <= 0, and that (k, R): eta has valuation v >= 1 - k, and lam is
    solved from the equation, lam1 = k + zR'/R - z^{k-1} eta R
    + z^{-k-1} (eta gam z - beta z^2/2)/R, on a window three orders wider."""
    k = rng.choice((-2, -1, 0))
    n = rng.randint(2 - k, 8)
    v = rng.randint(1 - k, n - 1)
    wide = n + 3

    def ser(zeros, low=0):
        vals = [ZERO if j < low or rng.random() < zeros else S(rng.choice(_SEARCH_VALUES))
                for j in range(wide)]
        return TSeries.of(vals, wide)

    eta = ser(0.5, v + 1) + TSeries.monomial(S(rng.choice((1, -1, 2, S("1/2"), S(0, 1)))), v, wide)
    w = ser(0.6, 1) + TSeries.const(S(rng.choice((1, -1, 2, -3, S(0, 1)))), wide)
    beta, gam = ser(rng.choice((1.0, 0.6))), ser(rng.choice((1.0, 0.6)))

    def shifted(x, s):  # z^s x, for s possibly negative
        c = x.coeffs
        return TSeries.of(c[-s:] if s < 0 else [ZERO] * s + list(c[: wide - s]), wide)

    const = shifted(eta * gam, 1) - shifted(beta.scale(S("1/2")), 2)
    lam1 = (
        TSeries.const(integer(k), wide)
        + w.xdx().div(w)
        - shifted(eta * w, k - 1)
        + shifted(const, -k - 1).div(w)
    )
    lam = lam1 - TSeries.one(wide)
    window = [x.truncate(n) for x in (eta, lam, beta, gam)]
    return OriginRestriction(*window, ZERO, ZERO), k, w.truncate(n)


def test_eigen_section_with_eta_vanishing_at_0_finds_planted_witnesses():
    # at k <= 0 with eta(0) = 0 the head sits at order min(k + 1, 2k + v):
    # the old search took the order 2k, where every R0 is free, and set R0 = 0
    rng = random.Random(2302)
    old_missed = 0
    for _ in range(150):
        r, k, w = _planted_low_head_restriction(rng)
        assert _eigen_residual_vanishes(r, k, w)  # the planting itself
        rep = irreducibility_check(r, 2)
        assert rep.verdict == "reducible", (k, r)
        assert _eigen_residual_vanishes(r, rep.witness_k, rep.witness), (k, r)
        eta, lamz, beta, gam = r.window()
        const_part = {}
        for j, c in enumerate((eta * gam).coeffs):
            const_part[j + 1] = c
        for j, c in enumerate(beta.coeffs):
            const_part[j + 2] = const_part.get(j + 2, ZERO) - c * S("1/2")
        const_part = {o: c for o, c in const_part.items() if not c.is_zero()}
        lam1 = lamz + TSeries.one(eta.order)
        got = origin._try_eigen_section(k, eta.order, eta, lam1, const_part, [])
        assert got is not None and _eigen_residual_vanishes(r, k, got), (k, r)
        old_missed += oracle.try_eigen_section(k, eta.order, eta, lam1, const_part, []) is None
    assert old_missed >= 100


def test_eigen_section_low_head_example():
    # n = 2, eta = 3z, lam = 2: at k = 0 the head sits at order 1, where
    # -3 R0^2 - 3 R0 = 0 gives R0 = -1
    zero = TSeries.zero(2)
    r = OriginRestriction(TSeries.of([0, 3], 2), TSeries.const(S(2), 2), zero, zero, ZERO, ZERO)
    rep = irreducibility_check(r)
    assert (rep.verdict, rep.witness_k, rep.witness) == ("reducible", 0, TSeries.of([-1, 0], 2))
    assert _eigen_residual_vanishes(r, 0, rep.witness)


def test_birkhoff_reduce_trivial():
    b0 = ConstMat(S(1), S(2), ZERO, ZERO)
    binf = ConstMat(S("1/2"), S(5), -QUARTER, S(2))
    red = birkhoff_reduce(_window([b0, binf], NZ))
    assert red.b0 == b0 and red.binf == binf
    assert red.gauge == _window([ConstMat.identity()], NZ)
    assert "already a pencil" in red.log


def test_birkhoff_reduce_normal_form_restrictions():
    # restriction of the unit-family form: B0 = c C1 + c0 C2,
    # Binf = alpha C1 - D/4 + c0 E
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))), NZ, NT
    )
    red = birkhoff_reduce(_restrict(s).bz_components())
    assert red.b0 == ConstMat(S(1), S(2), ZERO, ZERO)
    assert red.binf == ConstMat(S("1/2"), ZERO, -QUARTER, S(2))
    # restriction of the first second-type form: B0 = c C1 + C2,
    # Binf = alpha C1 + c0^2 E
    s = build_normal_form(
        NormalFormId("HNF-MAL1", dict(c=S(1), alpha=S(0), c0=S(3))), NZ, NT
    )
    red = birkhoff_reduce(_restrict(s).bz_components())
    assert red.b0 == ConstMat(S(1), S(1), ZERO, ZERO)
    assert red.binf == ConstMat(S(0), ZERO, ZERO, S(9))


def test_birkhoff_reduce_gauged(rng):
    for _ in range(6):
        b0 = ConstMat(rand_scalar(rng, 2), rand_nonzero(rng, 2), ZERO, ZERO)
        binf = ConstMat(
            rand_scalar(rng, 2), rand_scalar(rng, 2),
            rand_scalar(rng, 2), rand_nonzero(rng, 2),
        )
        pencil = zmat_from_consts([b0, binf], NZ)
        frame = zmat_from_consts(
            [ConstMat.identity()]
            + [
                ConstMat(*[rand_scalar(rng, 1) for _ in range(4)])
                for _ in range(3)
            ],
            NZ,
        )
        gauged = zmat_coeffs(_z_gauge(pencil, frame))
        red = birkhoff_reduce(gauged)
        assert _residual_is_zero(gauged, red)
        # the head and the trace data are preserved
        assert red.b0.c1 == b0.c1
        i1 = birkhoff_invariants(red.b0, red.binf)
        i2 = birkhoff_invariants(b0, binf)
        assert i1[:3] == i2[:3]


def test_birkhoff_reduce_refuses_other_residues():
    # the origin restriction's residue is c C1 + c0 C2; any other residue,
    # triangular in the other position or not triangular, is refused
    binf = ConstMat(S(0), S(1), ZERO, S(1))
    for b0 in (
        # nilpotent part in E
        ConstMat.from_entries(S(1), S(3), ZERO, S(1)),
        # c Id + N with N not triangular
        ConstMat.from_entries(S(2), S(-1), S(1), S(0)),
        ConstMat.from_entries(S(1), S(-4), S(1), S(-3)),
    ):
        with pytest.raises(ShapeError, match="residue must be c C1 \\+ c0 C2"):
            birkhoff_reduce(_window([b0, binf], NZ))


def test_birkhoff_reduce_rejects_semisimple():
    b0 = ConstMat(S(0), ZERO, S(1), ZERO)  # distinct eigenvalues
    with pytest.raises(ShapeError):
        birkhoff_reduce(_window([b0, ConstMat.identity()], NZ))


def _birkhoff_reduce_global_solve(bz):
    """The frame as one dense linear system in the 4(nz-1) unknowns of
    T_1..T_{nz-1}, solved by Gauss-Jordan elimination with free unknowns
    set to 0, after the C2 shift of Binf is pinned by the order-2
    obstruction: the reference birkhoff_reduce's block recursion is
    checked against."""
    nz = bz.nz
    log = []
    b0 = zmat_coeff(bz, 0)
    if not (b0.d.is_zero() and b0.e.is_zero()):
        raise ShapeError("residue must be c C1 + c0 C2")
    c0 = b0.c2
    coeffs = [zmat_coeff(bz, k) for k in range(nz)]
    if all(c.is_zero() for c in coeffs[2:]):
        return ZmatReduction(b0, coeffs[1], Mat2.identity(nz, 1), ("already a pencil",))
    c2_unit = ConstMat(ZERO, ONE, ZERO, ZERO)

    def order2_obstruction(delta2):
        binf_try = coeffs[1] + c2_unit.scale(delta2)
        t1 = ConstMat(ZERO, ZERO, delta2 / (integer(2) * c0), ZERO)
        return (-t1 + t1 * binf_try - coeffs[1] * t1 - coeffs[2]).e

    e_at_0 = order2_obstruction(ZERO)
    slope = order2_obstruction(ONE) - e_at_0
    if slope.is_zero():
        if not e_at_0.is_zero():
            raise ReductionFailedError(
                "obstruction in the unreachable direction cannot be absorbed",
                order=2,
            )
        delta2 = ZERO
    else:
        delta2 = -e_at_0 / slope
    binf = coeffs[1] + c2_unit.scale(delta2)
    if not delta2.is_zero():
        log.append("z-linear target adjusted along the bracket image")
    nun = 4 * (nz - 1)

    def var(m, comp):  # comp: 0=c1, 1=c2, 2=d, 3=e
        return 4 * (m - 1) + comp

    def mul_basis(comp, right, left):
        unit = [ZERO, ZERO, ZERO, ZERO]
        unit[comp] = ONE
        x = ConstMat(*unit)
        prod = x * right if right is not None else left * x
        return (prod.c1, prod.c2, prod.d, prod.e)

    btilde = {0: b0, 1: binf}
    rows, rhs = [], []
    for m in range(1, nz):
        row_block = [[ZERO] * nun for _ in range(4)]
        const_block = [ZERO, ZERO, ZERO, ZERO]
        if m - 1 >= 1:
            for comp in range(4):
                row_block[comp][var(m - 1, comp)] = integer(m - 1)
        for l in range(0, m + 1):
            bl, ml = coeffs[l], m - l
            if ml == 0:
                for comp, val in enumerate((bl.c1, bl.c2, bl.d, bl.e)):
                    const_block[comp] = const_block[comp] + val
            else:
                for comp in range(4):
                    contrib = mul_basis(comp, None, bl)
                    for out_c in range(4):
                        row_block[out_c][var(ml, comp)] += contrib[out_c]
        for l, btl in btilde.items():
            ml = m - l
            if ml == 0:
                for comp, val in enumerate((btl.c1, btl.c2, btl.d, btl.e)):
                    const_block[comp] = const_block[comp] - val
            elif ml > 0:
                for comp in range(4):
                    contrib = mul_basis(comp, btl, None)
                    for out_c in range(4):
                        row_block[out_c][var(ml, comp)] -= contrib[out_c]
        for comp in range(4):
            rows.append(row_block[comp])
            rhs.append(-const_block[comp])
    solved = solve_linear_system(rows, rhs)
    if solved is None:
        raise ReductionFailedError("global frame system is inconsistent inside the window")
    sol, _free = solved
    tmats = [ConstMat.identity()] + [
        ConstMat(*(sol[var(m, comp)] for comp in range(4))) for m in range(1, nz)
    ]
    tser = zmat_from_consts(tmats, nz)
    if not oracle.birkhoff_residual(bz, tser, b0, binf).is_zero():
        raise ReductionFailedError("frame fails the defining equation")
    log.append("frame found by one global linear solve")
    return ZmatReduction(b0, binf, tser, tuple(log))


BIRKHOFF_NZ = (3, 4, 5, 6, 8, 10, 12, 16)


def _rand_const(rng, span=2):
    return ConstMat(*(rand_scalar(rng, span) for _ in range(4)))


def _random_birkhoff_input(rng, k):
    """A z-only matrix with regular residue: a pencil moved by a random
    z-polynomial frame, in turn with an arbitrary tail beyond z^1, and
    with the residue's nilpotent part in E instead of C2, which the
    reduction refuses."""
    nz = BIRKHOFF_NZ[k % len(BIRKHOFF_NZ)]
    c, n0 = rand_scalar(rng, 2), rand_nonzero(rng, 2)
    if k % 3 == 2:
        b0 = ConstMat.from_entries(c, n0, ZERO, c)  # nilpotent part in E
    else:
        b0 = ConstMat(c, n0, ZERO, ZERO)
    binf = _rand_const(rng)
    tail = [_rand_const(rng, 1) for _ in range(2 + k % 3)] if k % 2 else []
    pencil = zmat_from_consts([b0, binf] + tail, nz)
    frame = zmat_from_consts(
        [ConstMat.identity()] + [_rand_const(rng, 1) for _ in range(1 + k % 4)], nz
    )
    return _z_gauge(pencil, frame)


def test_birkhoff_reduce_matches_global_solve(rng):
    reduced = 0
    for k in range(48):
        bz = _random_birkhoff_input(rng, k)
        coeffs = zmat_coeffs(bz)
        try:
            want = _birkhoff_reduce_global_solve(bz)
        except ShapeError as exc:
            # the residue's nilpotent part in E: the same refusal
            with pytest.raises(ShapeError) as got:
                birkhoff_reduce(coeffs)
            assert str(got.value) == str(exc) == "residue must be c C1 + c0 C2"
            continue
        except ReductionFailedError as exc:
            # binf.e == 0 with an obstruction at z^2: the same refusal
            with pytest.raises(ReductionFailedError) as got:
                birkhoff_reduce(coeffs)
            assert (str(got.value), got.value.order) == (str(exc), exc.order) == (
                "obstruction in the unreachable direction cannot be absorbed", 2
            )
            continue
        red = birkhoff_reduce(coeffs)
        assert (red.b0, red.binf) == (want.b0, want.binf)
        assert zmat_from_consts(red.gauge, bz.nz) == want.gauge
        assert red.log[:-1] == want.log[:-1]
        if want.log[-1] == "already a pencil":
            assert red.log == want.log
        else:
            assert red.log[-1] == "frame found block by block"
            reduced += 1
        assert _residual_is_zero(coeffs, red)
    assert reduced >= 30


def test_birkhoff_reduce_degenerate_pencil_refusals(rng):
    # B_1.e == 0: the E condition has no unknown left to absorb B_2.e
    for nz in (3, 6, 10):
        b0 = ConstMat(rand_scalar(rng), rand_nonzero(rng), ZERO, ZERO)
        b1 = ConstMat(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), ZERO)
        b2 = ConstMat(rand_nonzero(rng), rand_scalar(rng), rand_scalar(rng), ZERO)
        tail = [_rand_const(rng) for _ in range(nz - 3)]
        with pytest.raises(ReductionFailedError) as got:
            birkhoff_reduce((b0, b1, b2 + ConstMat(ZERO, ZERO, ZERO, ONE), *tail))
        assert got.value.order == 2
        assert "unreachable direction" in str(got.value)
        with pytest.raises(ShapeError, match="degenerate pencil"):
            birkhoff_reduce((b0, b1, b2, _rand_const(rng), *tail)[:nz])


def _same_reduction(coeffs, bz):
    """Reduce the coefficient list and check it against the Mat2 oracle on
    the same data packed as ``bz``: the same b0, binf, packed frame and log,
    or the same refusal.  Returns the last log line, or "refused"."""
    try:
        want = oracle.birkhoff_reduce(bz)
    except (ShapeError, ReductionFailedError) as exc:
        with pytest.raises(type(exc)) as got:
            birkhoff_reduce(coeffs)
        assert type(got.value) is type(exc) and str(got.value) == str(exc)
        assert getattr(got.value, "order", None) == getattr(exc, "order", None)
        return "refused"
    red = birkhoff_reduce(coeffs)
    assert (red.b0, red.binf, red.log) == (want.b0, want.binf, want.log)
    assert zmat_from_consts(red.gauge, bz.nz) == want.gauge
    return red.log[-1]


def test_list_reduction_matches_mat2_oracle_on_random_inputs(rng):
    outcomes = []
    for k in range(48):
        bz = _random_birkhoff_input(rng, k)
        outcomes.append(_same_reduction(zmat_coeffs(bz), bz))
    assert outcomes.count("frame found block by block") >= 30


def test_list_reduction_matches_mat2_oracle_on_fixtures():
    outcomes = set()
    for name in fixture_names():
        r = _restrict(build_fixture(name, 8, 8))
        bz = restriction_zmat(r)
        assert r.bz_components() == zmat_coeffs(bz)
        outcomes.add(_same_reduction(r.bz_components(), bz))
    assert outcomes == {"refused", "already a pencil"}


def test_list_reduction_matches_mat2_oracle_on_dense_f1():
    # unit-family forms at criterion 2's window moved by a z-polynomial
    # gauge: the restrictions the dense round trip reduces block by block
    rng = random.Random(909)
    for _ in range(4):
        nf = NormalFormId(
            "F1", {"c": rand_scalar(rng), "alpha": rand_scalar(rng), "c0": rand_nonzero(rng)}
        )
        s = apply_gauge(build_normal_form(nf, 10, 6), _random_unit_family_gauge(rng, 10, 6))
        r = restrict_prenormal(to_prenormal(s)[0])
        bz = restriction_zmat(r)
        assert r.bz_components() == zmat_coeffs(bz)
        assert _same_reduction(r.bz_components(), bz) == "frame found block by block"


def test_list_residual_matches_mat2_residual(rng):
    for k in range(16):
        nz = BIRKHOFF_NZ[k % len(BIRKHOFF_NZ)]
        b_in = tuple(_rand_const(rng) for _ in range(nz))
        t = [_rand_const(rng, 1) for _ in range(nz)]
        b0, binf = _rand_const(rng), _rand_const(rng)
        want = oracle.birkhoff_residual(
            zmat_from_consts(b_in, nz), zmat_from_consts(t, nz), b0, binf
        )
        assert birkhoff_residual(b_in, t, b0, binf) == zmat_coeffs(want)


def test_cyclic_fuchs_matches_generic_rule():
    rng = random.Random(303)  # the samples of acceptance criterion 3
    verdicts = []
    for _ in range(200):
        r = _restrict(build_prenormal_struct(_random_prenormal(rng, 8, 6)))
        verdicts.append(cyclic_fuchs(r))
        assert verdicts[-1] == oracle.cyclic_fuchs(r)
    assert True in verdicts and False in verdicts
    n = 8
    zero, unit, val1 = TSeries.zero(n), TSeries.of([1, 1], n), TSeries.of([0, 1], n)
    for eta, gam in ((unit, val1), (unit, unit), (zero, unit)):
        r = OriginRestriction(eta, unit, unit, gam, ZERO, ZERO)
        assert cyclic_fuchs(r) == oracle.cyclic_fuchs(r)


def test_fuchs_oracle_rule():
    # the generic rule v(a_i) >= i - d that cyclic_fuchs applies at d = 2
    one = TSeries.one(5)
    # d=1, a0 with valuation -1 -> regular
    assert oracle.fuchs_regular_singular(oracle.FuchsProblem((Laurent(-1, one),), 1))
    # d=2, v(a0) = -2, v(a1) = -1 -> regular
    p = oracle.FuchsProblem((Laurent(-2, one), Laurent(-1, one)), 2)
    assert oracle.fuchs_regular_singular(p)
    # d=2, v(a0) = -3 -> not regular
    p = oracle.FuchsProblem((Laurent(-3, one), Laurent(-1, one)), 2)
    assert not oracle.fuchs_regular_singular(p)


def test_cli_classify_reduces_gauged_f1_block_by_block(tmp_path, capsys):
    # no fixture reaches the frame solve: a unit-family form moved by a
    # z-polynomial gauge does, through the CLI's document path
    rng = random.Random(808)
    nf = NormalFormId(
        "F1", {"c": rand_scalar(rng), "alpha": rand_scalar(rng), "c0": rand_nonzero(rng)}
    )
    s = apply_gauge(build_normal_form(nf, 10, 6), _random_unit_family_gauge(rng, 10, 6))
    path = tmp_path / "f1.json"
    save_structure(s, str(path))
    assert cli.main(["classify", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["transform_log"][-1] == "frame found block by block"
    p, _gauge = to_prenormal(s)
    want = _birkhoff_reduce_global_solve(restriction_zmat(restrict_prenormal(p)))
    c, alpha, ssq, u = birkhoff_invariants(want.b0, want.binf)
    assert report["verdicts"]["invariants"] == {
        "c": str(c), "alpha": str(alpha), "c0_squared": str(ssq), "c0_c1": str(u)
    }


def test_normalize_birkhoff():
    data = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), ZERO, S(-1), S(1)),
    )
    # worked pencil: d = -1 -> s = 3/4, c1 = 0 + 3/2 - 9/16 = 15/16
    assert data.c1 == S("15/16") and data.c0 == S(1)
    # already normalized: unchanged
    data = normalize_birkhoff(
        ConstMat(S(1), S(2), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(2)),
    )
    assert data == BirkhoffData(S(1), S(0), S(2), S(3))
    # square-root step: c0 = 1, f = 4 -> new c0 = 2, c1 scaled by 2
    data = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(4)),
    )
    assert data.c0 == S(2) and data.c1 == S(6)
    with pytest.raises(ExactFieldError):
        normalize_birkhoff(
            ConstMat(S(0), S(1), ZERO, ZERO),
            ConstMat(S(0), S(3), -QUARTER, S(2)),
        )
    for b0, binf in (
        (ConstMat(S(0), ZERO, ZERO, ZERO), ConstMat(S(0), S(3), -QUARTER, S(2))),
        (ConstMat(S(0), S(1), ZERO, ZERO), ConstMat(S(0), S(3), -QUARTER, ZERO)),
    ):
        with pytest.raises(ShapeError, match="degenerate pencil"):
            normalize_birkhoff(b0, binf)
    # the invariant route stays available: c0^2 = c0*f, u = c1*f
    c, alpha, ssq, u = birkhoff_invariants(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(2)),
    )
    assert (ssq, u) == (S(2), S(6))


def test_diag_flip_conjugation():
    # diag(1,-1) = D flips the signs of both off-diagonal constants
    d_mat = ConstMat(ZERO, ZERO, ONE, ZERO)
    b0 = ConstMat(S(1), S(2), ZERO, ZERO)
    binf = ConstMat(S(0), S(3), -QUARTER, S(2))
    assert conjugate(b0, d_mat) == ConstMat(S(1), S(-2), ZERO, ZERO)
    assert conjugate(binf, d_mat) == ConstMat(S(0), S(-3), -QUARTER, S(-2))


def test_birkhoff_iso_decision_table():
    d = lambda c0, c1: BirkhoffData(ZERO, ZERO, c0, c1)
    # identical
    assert birkhoff_iso_decision(d(S(1), S(2)), d(S(1), S(2))).isomorphic
    # constant flip
    rep = birkhoff_iso_decision(d(S(1), S(2)), d(S(-1), S(-2)))
    assert rep.isomorphic and "diag" in rep.certificate
    # worked chain values for a vanishing right-hand c1
    rep = birkhoff_iso_decision(d(S(1), S("3/2")), d(S(1), ZERO))
    assert rep.isomorphic and rep.n == 2
    rep = birkhoff_iso_decision(d(S(2), S("5/2")), d(S(2), ZERO))  # u = 5, n = 3
    assert rep.isomorphic and rep.n == 3
    assert not birkhoff_iso_decision(d(S(1), S(1)), d(S(1), ZERO)).isomorphic
    # distinct invariants
    assert not birkhoff_iso_decision(d(S(1), S(1)), d(S(2), S(1))).isomorphic
    assert not birkhoff_iso_decision(
        BirkhoffData(S(1), ZERO, S(1), ZERO), BirkhoffData(S(2), ZERO, S(1), ZERO)
    ).isomorphic
    # the flagged corner: zero c1 on both sides with opposite c0
    rep = birkhoff_iso_decision(d(S(1), ZERO), d(S(-1), ZERO))
    assert rep.isomorphic and rep.flags


def test_birkhoff_iso_symmetry(rng):
    samples = [
        BirkhoffData(ZERO, ZERO, S(1), S("3/2")),
        BirkhoffData(ZERO, ZERO, S(1), ZERO),
        BirkhoffData(ZERO, ZERO, S(-1), ZERO),
        BirkhoffData(ZERO, ZERO, S(2), S(1)),
        BirkhoffData(S(1), S(2), S(1), S(1)),
    ]
    for a in samples:
        assert birkhoff_iso_decision(a, a).isomorphic
        for b in samples:
            assert (
                birkhoff_iso_decision(a, b).isomorphic
                == birkhoff_iso_decision(b, a).isomorphic
            )


def test_normalize_preserves_class():
    # the oracle's conjugations carry B0 + z Binf onto the pencil of the
    # closed-form data
    for b0, binf in (
        (ConstMat(S(0), S(1), ZERO, ZERO), ConstMat(S(0), ZERO, S(-1), S(1))),
        (ConstMat(S(1), S(1), ZERO, ZERO), ConstMat(S(2), S(3), S(1, 1), S(4))),
        (ConstMat(S(0), S(-2), ZERO, ZERO), ConstMat(S(0), S(1), -QUARTER, S(-8))),
    ):
        data = normalize_birkhoff(b0, binf)
        _want, gauges = oracle.normalize_birkhoff(b0, binf)
        assert gauges
        cur0, curi = b0, binf
        for g in gauges:
            cur0 = conjugate(cur0, g)
            curi = conjugate(curi, g)
        assert cur0 == ConstMat(data.c, data.c0, ZERO, ZERO)
        assert curi == ConstMat(data.alpha, data.c1, -QUARTER, data.c0)


_PENCIL_VALUES = [0, 1, -1, 2, -2, 3, S("1/2"), S("-1/3"), S(0, 1), S(1, 1), S(2, -1)]


def _random_pencil(rng, kind):
    """B0 = c C1 + c0 C2 and Binf = alpha C1 + c2 C2 + d D + e E with
    small Gaussian rationals, steered by ``kind``: d = -1/4, e = c0, c0 e
    a square, or free; one head in twenty has a stray D or E part."""
    pick = lambda: S(rng.choice(_PENCIL_VALUES))
    c0, e = pick(), pick()
    d = -QUARTER if kind == "d" else pick()
    if kind == "e = c0":
        e = c0
    elif kind == "square" and not c0.is_zero():
        q = pick()
        e = q * q / c0
    b0 = ConstMat(pick(), c0, ZERO, ZERO)
    if rng.random() < 0.05:
        b0 = b0 + ConstMat(ZERO, ZERO, pick(), pick())
    return b0, ConstMat(pick(), pick(), d, e)


def _outcome(fn, *args):
    """fn(*args), or the type and text of the error it raises."""
    try:
        return fn(*args)
    except (ShapeError, ExactFieldError) as exc:
        return type(exc), str(exc)


def test_closed_form_normalization_matches_the_conjugation_oracle():
    rng = random.Random(2801)
    seen = dict.fromkeys(("d = -1/4", "e = c0", "root taken", "no root", "shape"), 0)
    for k in range(12_000):
        kind = ("d", "e = c0", "square", "free")[k % 4]
        b0, binf = _random_pencil(rng, kind)
        got = _outcome(normalize_birkhoff, b0, binf)
        want = _outcome(lambda *pencil: oracle.normalize_birkhoff(*pencil)[0], b0, binf)
        inv = _outcome(birkhoff_invariants, b0, binf)
        assert inv == _outcome(oracle.birkhoff_invariants, b0, binf), (b0, binf)
        if isinstance(want, tuple) and want[0] is ShapeError:
            # the oracle named the zero c0 or e; the closed form calls both degenerate
            assert got[0] is ShapeError and got == inv, (b0, binf)
            seen["shape"] += 1
            continue
        assert got == want, (b0, binf)
        if isinstance(want, tuple):
            seen["no root"] += 1
            continue
        assert (got.c, got.alpha, got.ssq(), got.u()) == inv
        seen["d = -1/4"] += binf.d == -QUARTER
        seen["e = c0" if binf.e == b0.c2 else "root taken"] += 1
    assert min(seen.values()) >= 500, seen


# Verdicts and witness indices of the eigen-section search over k in
# [-2, 2] on each fixture's origin slice at (6, 6), as returned by the
# earlier (r, k_min, k_max) signature called with (r, -2, 2).
IRREDUCIBILITY_K2 = {
    "f1_r1": ("reducible", None),
    "f1_r2": ("reducible", None),
    "f1_r3": ("reducible", None),
    "fminus1": ("irreducible", None),
    "fminus1_c0zero": ("reducible", None),
    "mal1": ("irreducible", None),
    "mal2_lambda1": ("irreducible", None),
    "mal3": ("irreducible", None),
    "nf3_1": ("reducible", None),
    "nf3_2": ("reducible", None),
    "nf3_3": ("reducible", None),
    "nf3_4": ("reducible", 1),
    "nf3_5": ("reducible", 1),
    "nf3_6": ("reducible", None),
    "nf3_7": ("reducible", None),
    "nf3_8": ("irreducible", None),
    "nf3_9": ("reducible", None),
}


def _search_past_the_window(r, k_max):
    """The search over every k in [-k_max, k_max], as irreducibility_check
    ran it before it stopped at the window order."""
    inputs = _search_inputs(r)
    if inputs is None:
        return irreducibility_check(r, k_max)
    notes = []
    for k in range(-k_max, k_max + 1):
        found = origin._try_eigen_section(k, *inputs, notes)
        if found is not None:
            return origin.IrreducibilityReport("reducible", k, found, tuple(notes))
    verdict = "irreducible" if not notes else "inconclusive"
    return origin.IrreducibilityReport(verdict, None, None, tuple(notes))


def test_irreducibility_symmetric_k_range():
    got = {}
    for name in fixture_names():
        rep = irreducibility_check(_restrict(build_fixture(name, 6, 6)), k_max=2)
        got[name] = (rep.verdict, rep.witness_k)
    assert got == IRREDUCIBILITY_K2
    # no |k| past the window order n adds a witness or a note; eta = 1,
    # lam = 0 and beta = z^(n-1) has its only witness at k = n itself
    restrictions = [
        _restrict(build_fixture(name, nz, 6)) for name in fixture_names() for nz in (4, 6, 9)
    ]
    for n in (2, 6):
        zero = TSeries.zero(n)
        edge = OriginRestriction(TSeries.one(n), zero, TSeries.monomial(ONE, n - 1, n), zero, ZERO, ZERO)
        rep = irreducibility_check(edge)
        assert rep.witness_k == n and _eigen_residual_vanishes(edge, n, rep.witness)
        restrictions.append(edge)
    for r in restrictions:
        n = r.window()[0].order
        want = _search_past_the_window(r, n + 5)
        for k_max in (n, n + 5):
            assert irreducibility_check(r, k_max) == want, (r, k_max)


def _chain_n_with_sweep(usum, udiff, n_max):
    """The chain index with an explicit sweep of the side conditions over
    2 <= r < n: the reference the closed form in _chain_n is checked
    against."""
    bcoef = integer(8) * usum + ONE
    disc = bcoef * bcoef - integer(64) * udiff * udiff
    root = disc.sqrt()
    if root is None:
        return None
    candidates: set[int] = set()
    for sign in (ONE, -ONE):
        msq = (bcoef + root * sign) / integer(8)
        if not msq.is_nonneg_integer():
            continue
        m = isqrt(msq.as_int())
        if m >= 1 and m * m == msq.as_int():
            candidates.add(m + 1)
    sweep_cap = max(n_max, 200_000)
    for n in sorted(candidates):
        nn = integer(n)
        ok = True
        for r in range(2, min(n, sweep_cap + 1)):
            rr = integer(r)
            num = (integer(2 * n - 1)) * (integer(2 * n - 3)) * (nn - ONE) ** 2 - (
                integer(2 * r - 1)
            ) * (integer(2 * r - 3)) * (rr - ONE) ** 2
            den = integer(8 * (n - r) * (n - 2 + r))
            if usum == num / den:
                ok = False
                break
        if ok:
            return n
    return None


def _chain_pairs():
    """Every pair whose quadratic has the two roots m1^2, m2^2
    (0 <= m1 <= m2 < 60, both signs of udiff), then random real and
    Gaussian pairs."""
    pairs = []
    for m1 in range(60):
        for m2 in range(m1, 60):
            usum = S(Fraction(4 * (m1 * m1 + m2 * m2) - 1, 8))
            for sign in (1, -1):
                pairs.append((usum, S(sign * m1 * m2)))
    rng = random.Random(606)

    def rand_value(gauss):
        re = Fraction(rng.randint(-400, 400), rng.choice([1, 2, 4, 8, 16]))
        im = Fraction(rng.randint(-40, 40), rng.choice([1, 2, 4])) if gauss else 0
        return Scalar(re, Fraction(im))

    for k in range(20_000):
        gauss = k % 2 == 1
        pairs.append((rand_value(gauss), rand_value(gauss)))
    return pairs


def test_chain_index_matches_side_condition_sweep():
    admissible = 0
    for usum, udiff in _chain_pairs():
        n = _chain_n(usum, udiff)
        assert n == _chain_n_with_sweep(usum, udiff, 64), (usum, udiff)
        admissible += n is not None
    assert admissible >= 3_000


def test_chain_index_far_out():
    d = lambda c1: BirkhoffData(ZERO, ZERO, ONE, c1)
    rep = birkhoff_iso_decision(d(S("1000004000003/16")), d(S("3/16")))
    assert rep.isomorphic
    assert rep.certificate == "chain condition at n=250001"
    assert rep.n == 250001
    assert rep.n_bound == 62500250003
