"""The gauge action conjugates only the traceless part of each matrix.

``connmat.apply_gauge`` adds each matrix's C1 part back unconjugated,
since T^{-1}(a C1)T = a C1; ``connmat_oracle.apply_gauge`` conjugates the
whole matrix.  The two must agree field for field on every input.
"""

import random

import pytest

import connmat_oracle
from conftest import rand_nonzero, rand_scalar, zt_of_rows
from connexa import cli, formalnf, malgrange, selftest
from connexa.connmat import GaugeMap, Mat2, TEStruct, apply_gauge
from connexa.fixtures import fixture_names, write_fixtures
from connexa.formalnf import NormalFormId, _mobius_gauge, build_normal_form
from connexa.malgrange import malgrange_connection, malgrange_xy
from connexa.origin import ConstMat
from connexa.scalars import S
from connexa.series import AffinePoly1, TSeries, ZTSeries
from connexa.selftest import (
    _random_scalar_gauge,
    _random_unit_family_gauge,
    _random_zero_family_gauge,
)

GAUGES = (_random_unit_family_gauge, _random_zero_family_gauge, _random_scalar_gauge)


def _fields(s: TEStruct):
    """(re, im, den) of both t1-parts of every component, with the kind."""
    planes = [
        (p.nz, p.nt, p.re, p.im, p.den)
        for m in (s.A1, s.A2, s.B)
        for c in (m.c1, m.c2, m.d, m.e)
        for p in (c.const, c.slope)
    ]
    return s.kind, planes


def _same_as_oracle(s: TEStruct, g: GaugeMap) -> TEStruct:
    out = apply_gauge(s, g)
    assert _fields(out) == _fields(connmat_oracle.apply_gauge(s, g))
    return out


def _shape_params(rng, shape: str) -> dict:
    """Parameters of one criterion-2 shape, as selftest draws them."""
    params = {"c": rand_scalar(rng), "alpha": rand_scalar(rng)}
    if shape == "F1":
        params["c0"] = rand_nonzero(rng)
    elif shape == "FR":
        params["r"] = rng.randint(1, 3)
    elif shape == "NF3-4":
        params["lam"] = S(f"{rng.choice((-5, -3, -1, 1, 3, 5))}/2")
    elif shape == "NF3-6":
        params["lam"] = S(rng.randint(1, 3))
    else:
        params["lam"] = S(-rng.randint(1, 3))
    return params


def _rand_zt(rng, nz: int, nt: int, sloped: bool) -> ZTSeries:
    def row():
        return TSeries.of([rand_scalar(rng, 2) for _ in range(nt)], nt)

    zero = TSeries.zero(nt)
    return zt_of_rows(AffinePoly1(row(), row() if sloped else zero) for _ in range(nz))


def _rand_struct(rng, nz: int, nt: int, kind: str = "TE") -> TEStruct:
    """Dense matrices whose C1 parts depend on t2 and carry a t1 slope."""

    def mat():
        return Mat2(
            _rand_zt(rng, nz, nt, True),
            *(_rand_zt(rng, nz, nt, False) for _ in range(3)),
        )

    return TEStruct(mat(), mat(), mat(), kind)


@pytest.mark.parametrize("seed", range(10))
def test_criterion_2_shapes_match_oracle(seed):
    # each normal form at (10, 6) moved by each family's gauge, then the
    # moved structure (A1 no longer C1) moved again
    rng = random.Random(seed)
    for shape in ("F1", "FR", "NF3-4", "NF3-6", "NF3-8"):
        start = build_normal_form(NormalFormId(shape, _shape_params(rng, shape)), 10, 6)
        moved = [_same_as_oracle(start, gauge(rng, 10, 6)) for gauge in GAUGES]
        for m, gauge in zip(moved, GAUGES[1:] + GAUGES[:1]):
            _same_as_oracle(m, gauge(rng, 10, 6))


def test_mobius_base_changes_match_oracle():
    rng = random.Random(11)
    nf = NormalFormId("NF3-2", {"c": S(1), "alpha": S("1/2")})
    start = build_normal_form(nf, 8, 8)
    moved = apply_gauge(start, _random_zero_family_gauge(rng, 8, 8))
    for _ in range(6):
        k, d, e = rand_nonzero(rng, 2), rand_nonzero(rng, 2), rand_scalar(rng, 2)
        for s in (start, moved):
            _same_as_oracle(s, _mobius_gauge(k, d, e, 8, 8))


@pytest.mark.parametrize(
    "s_window, g_window",
    # the structure larger than the gauge, smaller, and larger in z but
    # smaller in t
    [((10, 8), (8, 6)), ((8, 6), (10, 8)), ((6, 9), (9, 5))],
)
def test_mismatched_windows_match_oracle(s_window, g_window):
    # apply_gauge reads A1, A2, B and T in place on the smaller window:
    # each family's gauge and a Mobius base change, on normal forms and on
    # structures already moved at their own window
    rng = random.Random(f"{s_window}{g_window}")
    for i, shape in enumerate(("F1", "FR", "NF3-4", "NF3-6", "NF3-8")):
        start = build_normal_form(NormalFormId(shape, _shape_params(rng, shape)), *s_window)
        moved = _same_as_oracle(start, GAUGES[i % 3](rng, *s_window))
        for s in (start, moved):
            k, d, e = rand_nonzero(rng, 2), rand_nonzero(rng, 2), rand_scalar(rng, 2)
            for g in [gauge(rng, *g_window) for gauge in GAUGES] + [
                _mobius_gauge(k, d, e, *g_window)
            ]:
                assert s.orders != g.tmat.orders
                out = _same_as_oracle(s, g)
                assert out.orders[0] == min(s.orders[0], g_window[0])


def test_gauge_larger_in_t_reads_its_column_past_the_window():
    # T = C1 + z t2^4 E is t2-free on the structure's (6, 4) window, but
    # z d2(T) at t2-degree 3 reads its column 4: the image loses a t-order
    # and equals the image of the uncut structure on the same window
    nf = NormalFormId("F1", {"c": S(1), "alpha": S("1/2"), "c0": S(2)})
    full = build_normal_form(nf, 6, 6)
    z0 = ZTSeries.zero(6, 6)
    zt4 = ZTSeries.z(6, 6) * ZTSeries.from_tpoly(TSeries.monomial(S(1), 4, 6), 6)
    g = GaugeMap(Mat2(ZTSeries.one(6, 6), z0, z0, zt4))
    assert g.tmat.truncate(6, 4).is_t2_free()
    out = _same_as_oracle(full.truncate(6, 4), g)
    assert out.orders == (6, 3)
    assert out == _same_as_oracle(full, g).truncate(6, 3)


def test_raw_frame_shear_and_base_change_match_oracle(monkeypatch):
    # the shear by C1 + x E and the reparametrization that follow it
    calls = []
    monkeypatch.setattr(
        malgrange, "apply_gauge", lambda s, g: calls.append((s, g)) or apply_gauge(s, g)
    )
    binf = ConstMat.from_entries(S("1/4"), S(2), S(0), S("3/4"))
    raw = malgrange_connection(malgrange_xy(binf, S(2), 10), S(1), 8)
    malgrange._reduce_nilpotent_frame(raw)
    assert len(calls) == 2
    assert calls[0][1].lam is None and not calls[0][1].tmat.is_t2_free()
    assert calls[1][1].lam is not None
    for s, g in calls:
        _same_as_oracle(s, g)


def test_identity_gauge_matches_oracle():
    rng = random.Random(12)
    s = _rand_struct(rng, 5, 4)
    assert _same_as_oracle(s, GaugeMap(Mat2.identity(5, 4))) == s


def test_sloped_c1_and_kind_t_match_oracle():
    rng = random.Random(13)
    for kind in ("TE", "T"):
        s = _rand_struct(rng, 5, 4, kind)
        assert not s.A1.c1.is_t2_free() and not s.B.c1.is_t1_free()
        for gauge in GAUGES:
            assert _same_as_oracle(s, gauge(rng, 5, 4)).kind == kind
        _same_as_oracle(s, _mobius_gauge(S(2), S(1), S("1/3"), 5, 4))


def test_pipelines_agree_with_oracle(monkeypatch, tmp_path):
    # every gauge the normalizers, the holomorphic classifier and selftest
    # apply, on the CLI's formal-nf and classify reports of the fixtures
    seen = {}

    def spy(name):
        def run(s, g):
            out = _same_as_oracle(s, g)
            if s.A1 == Mat2.identity(*s.orders):
                assert out.A1 == Mat2.identity(*out.orders)
            seen[name] = seen.get(name, 0) + 1
            return out

        return run

    for module in (formalnf, malgrange, selftest):
        monkeypatch.setattr(module, "apply_gauge", spy(module.__name__))
    write_fixtures(str(tmp_path), 8, 8)
    names = fixture_names()
    assert len(names) == 17
    for name in names:
        for cmd in ("formal-nf", "classify"):
            assert cli.main([cmd, str(tmp_path / f"{name}.json")]) in (0, 3), (cmd, name)
    # the raw deformation frame takes malgrange's shear and base change
    raw = str(tmp_path / "raw.json")
    args = ["malgrange", "--order-z", "8", "--order-t", "8", "--c0", "2"]
    assert cli.main([*args, "--binf", "1/4,2,0,3/4", "--out", raw]) == 0
    assert cli.main(["classify", raw]) == 0
    assert selftest.criterion_round_trip(samples=5)[0]
    assert set(seen) == {"connexa.formalnf", "connexa.malgrange", "connexa.selftest"}
