import json
import random
from fractions import Fraction
from math import isqrt

import pytest

from connexa import cli
from connexa.connmat import Mat2, apply_gauge, restrict_origin
from connexa.docio import save_structure
from connexa.errors import ExactFieldError, ReductionFailedError, ShapeError
from connexa.fixtures import build_fixture, fixture_names
from connexa.formalnf import (
    NormalFormId,
    build_normal_form,
    normal_form_prenormal,
    to_prenormal,
)
from connexa.malgrange import build_hnf
from connexa.origin import (
    BirkhoffData,
    BirkhoffReduction,
    ConstMat,
    OriginRestriction,
    birkhoff_invariants,
    birkhoff_iso_decision,
    birkhoff_reduce,
    birkhoff_residual,
    cyclic_fuchs,
    irreducibility_check,
    is_elementary,
    is_elementary_restriction,
    normalize_birkhoff,
    restrict_prenormal,
    restriction_zmat,
    zmat_coeff,
    zmat_from_consts,
    _chain_n,
    _z_gauge,
)
from connexa.scalars import ONE, QUARTER, S, Scalar, ZERO, integer
from connexa.selftest import _random_unit_family_gauge
from connexa.series import TSeries

from conftest import rand_nonzero, rand_scalar
from linear_system_oracle import solve_linear_system

NZ = NT = 8


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


def test_elementary_matches_twisted_fuchs():
    for family, params, want in [
        ("F1", dict(c0=S(2)), False),
        ("F1", dict(c0=S(0)), True),
        ("FR", dict(r=2), True),
        ("NF3-2", dict(), True),
    ]:
        nf = NormalFormId(family, dict(c=S(1), alpha=S("1/2"), **params))
        p = normal_form_prenormal(nf, NZ, NT)
        from connexa.formalnf import build_prenormal_struct

        r = restrict_origin(build_prenormal_struct(p))
        assert is_elementary(p) == want
        assert cyclic_fuchs(r) == want
        assert is_elementary_restriction(r) == want


def test_irreducibility_nonelementary():
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S(0), c0=S(2))), NZ, NT
    )
    rep = irreducibility_check(restrict_origin(s))
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


def test_birkhoff_reduce_trivial():
    b0 = ConstMat(S(1), S(2), ZERO, ZERO)
    binf = ConstMat(S("1/2"), S(5), -QUARTER, S(2))
    pencil = zmat_from_consts([b0, binf], NZ)
    red = birkhoff_reduce(pencil)
    assert red.b0 == b0 and red.binf == binf
    assert "already a pencil" in red.log


def test_birkhoff_reduce_normal_form_restrictions():
    # restriction of the unit-family form: B0 = c C1 + c0 C2,
    # Binf = alpha C1 - D/4 + c0 E
    s = build_normal_form(
        NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))), NZ, NT
    )
    red = birkhoff_reduce(restriction_zmat(restrict_origin(s)))
    assert red.b0 == ConstMat(S(1), S(2), ZERO, ZERO)
    assert red.binf == ConstMat(S("1/2"), ZERO, -QUARTER, S(2))
    # restriction of the first second-type form: B0 = c C1 + C2,
    # Binf = alpha C1 + c0^2 E
    s = build_hnf(
        NormalFormId("HNF-MAL1", dict(c=S(1), alpha=S(0), c0=S(3))), NZ, NT
    )
    red = birkhoff_reduce(restriction_zmat(restrict_origin(s)))
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
        gauged = _z_gauge(pencil, frame)
        red = birkhoff_reduce(gauged)
        assert birkhoff_residual(gauged, red.gauge, red.b0, red.binf).is_zero()
        # the head and the trace data are preserved
        assert red.b0.c1 == b0.c1
        i1 = birkhoff_invariants(red.b0, red.binf)
        i2 = birkhoff_invariants(b0, binf)
        assert i1[:3] == i2[:3]


def test_birkhoff_reduce_conjugates_residue():
    # residue given in upper-triangular position
    b0 = ConstMat.from_entries(S(1), S(3), ZERO, S(1))  # nilpotent part in E
    binf = ConstMat(S(0), S(1), ZERO, S(1))
    pencil = zmat_from_consts([b0, binf], NZ)
    red = birkhoff_reduce(pencil)
    assert red.b0.d.is_zero() and red.b0.e.is_zero()
    assert red.b0.c1 == S(1) and not red.b0.c2.is_zero()
    assert birkhoff_residual(pencil, red.gauge, red.b0, red.binf).is_zero()


def test_birkhoff_reduce_rejects_semisimple():
    b0 = ConstMat(S(0), ZERO, S(1), ZERO)  # distinct eigenvalues
    with pytest.raises(ShapeError):
        birkhoff_reduce(zmat_from_consts([b0, ConstMat.identity()], NZ))


def _birkhoff_reduce_global_solve(bz):
    """The frame as one dense linear system in the 4(nz-1) unknowns of
    T_1..T_{nz-1}, solved by Gauss-Jordan elimination with free unknowns
    set to 0, after the C2 shift of Binf is pinned by the order-2
    obstruction: the reference birkhoff_reduce's block recursion is
    checked against."""
    nz = bz.nz
    log = []
    pre = Mat2.identity(nz, 1)
    cur = bz
    res = zmat_coeff(cur, 0)
    if res.d.is_zero() and res.e.is_zero():
        c0 = res.c2
    else:
        nil = res - ConstMat.identity().scale(res.c1)
        m11, m12, m21, m22 = nil.entries()
        v = (ONE, ZERO) if not (m11.is_zero() and m21.is_zero()) else (ZERO, ONE)
        u = (m11 * v[0] + m12 * v[1], m21 * v[0] + m22 * v[1])
        s = ConstMat.from_entries(v[0], u[0], v[1], u[1])
        cur = _z_gauge(cur, zmat_from_consts([s], nz))
        pre = pre * zmat_from_consts([s], nz)
        log.append("residue conjugated to lower-triangular form")
        res = zmat_coeff(cur, 0)
        c0 = res.c2
    b0 = ConstMat(res.c1, c0, ZERO, ZERO)
    coeffs = [zmat_coeff(cur, k) for k in range(nz)]
    if all(c.is_zero() for c in coeffs[2:]):
        return BirkhoffReduction(b0, coeffs[1], pre, tuple(log) + ("already a pencil",))
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
    if not birkhoff_residual(cur, tser, b0, binf).is_zero():
        raise ReductionFailedError("frame fails the defining equation")
    log.append("frame found by one global linear solve")
    return BirkhoffReduction(b0, binf, pre * tser, tuple(log))


BIRKHOFF_NZ = (3, 4, 5, 6, 8, 10, 12, 16)


def _rand_const(rng, span=2):
    return ConstMat(*(rand_scalar(rng, span) for _ in range(4)))


def _random_birkhoff_input(rng, k):
    """A z-only matrix with regular residue: a pencil moved by a random
    z-polynomial frame, in turn with an arbitrary tail beyond z^1, and
    with the residue's nilpotent part in E instead of C2."""
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
        try:
            want = _birkhoff_reduce_global_solve(bz)
        except ReductionFailedError as exc:
            # binf.e == 0 with an obstruction at z^2: the same refusal
            with pytest.raises(ReductionFailedError) as got:
                birkhoff_reduce(bz)
            assert (str(got.value), got.value.order) == (str(exc), exc.order) == (
                "obstruction in the unreachable direction cannot be absorbed", 2
            )
            continue
        red = birkhoff_reduce(bz)
        assert (red.b0, red.binf, red.gauge) == (want.b0, want.binf, want.gauge)
        assert red.log[:-1] == want.log[:-1]
        if want.log[-1] == "already a pencil":
            assert red.log == want.log
        else:
            assert red.log[-1] == "frame found block by block"
            reduced += 1
        assert birkhoff_residual(bz, red.gauge, red.b0, red.binf).is_zero()
    assert reduced >= 30


def test_birkhoff_reduce_degenerate_pencil_refusals(rng):
    # B_1.e == 0: the E condition has no unknown left to absorb B_2.e
    for nz in (3, 6, 10):
        b0 = ConstMat(rand_scalar(rng), rand_nonzero(rng), ZERO, ZERO)
        b1 = ConstMat(rand_scalar(rng), rand_scalar(rng), rand_scalar(rng), ZERO)
        b2 = ConstMat(rand_nonzero(rng), rand_scalar(rng), rand_scalar(rng), ZERO)
        tail = [_rand_const(rng) for _ in range(nz - 3)]
        with pytest.raises(ReductionFailedError) as got:
            birkhoff_reduce(zmat_from_consts([b0, b1, b2 + ConstMat(ZERO, ZERO, ZERO, ONE)] + tail, nz))
        assert got.value.order == 2
        assert "unreachable direction" in str(got.value)
        with pytest.raises(ShapeError, match="degenerate pencil"):
            birkhoff_reduce(zmat_from_consts([b0, b1, b2, _rand_const(rng)] + tail, nz))


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
    data, gauges = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), ZERO, S(-1), S(1)),
    )
    # worked pencil: y = -1 -> s = 3/4, c1 = 0 + 3/2 - 9/16 = 15/16
    assert data.c1 == S("15/16") and data.c0 == S(1)
    assert len(gauges) == 1
    # already normalized: unchanged
    data, gauges = normalize_birkhoff(
        ConstMat(S(1), S(2), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(2)),
    )
    assert data == BirkhoffData(S(1), S(0), S(2), S(3)) and not gauges
    # square-root step: c0 = 1, f = 4 -> new c0 = 2, c1 scaled by 2
    data, gauges = normalize_birkhoff(
        ConstMat(S(0), S(1), ZERO, ZERO),
        ConstMat(S(0), S(3), -QUARTER, S(4)),
    )
    assert data.c0 == S(2) and data.c1 == S(6)
    with pytest.raises(ExactFieldError):
        normalize_birkhoff(
            ConstMat(S(0), S(1), ZERO, ZERO),
            ConstMat(S(0), S(3), -QUARTER, S(2)),
        )
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
    assert b0.conjugate_by(d_mat) == ConstMat(S(1), S(-2), ZERO, ZERO)
    assert binf.conjugate_by(d_mat) == ConstMat(S(0), S(-3), -QUARTER, S(-2))


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
    b0 = ConstMat(S(0), S(1), ZERO, ZERO)
    binf = ConstMat(S(0), ZERO, S(-1), S(1))
    data, gauges = normalize_birkhoff(b0, binf)
    cur0, curi = b0, binf
    for g in gauges:
        cur0 = cur0.conjugate_by(g)
        curi = curi.conjugate_by(g)
    assert cur0 == data.b0_matrix()
    assert curi == data.binf_matrix()


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


def test_irreducibility_symmetric_k_range():
    got = {}
    for name in fixture_names():
        rep = irreducibility_check(restrict_origin(build_fixture(name, 6, 6)), k_max=2)
        got[name] = (rep.verdict, rep.witness_k)
    assert got == IRREDUCIBILITY_K2


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
