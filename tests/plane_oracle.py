"""The linear Plane operations without their zero-window early return, for
the oracle tests, and the z-calculus the oracles build from them.

Each function is the body connexa ran before a zero window cost O(1): it
makes its full pass over the window whatever the window holds, and builds
its result through the same constructors (``p._new`` keeps the operand's
class, ``Plane._ints`` builds a Plane).  ``is_zero`` is the old full scan of
the numerators.  ``shift_z``, ``mul_z``, ``at_t0``, ``dz``, ``zdz`` and
``z2dz`` (and ``z_times``, ``dt`` and ``dt1`` below) are the copying
calculus connexa once had on ``Plane``, ``ZTSeries`` and ``Mat2``;
``each`` lifts a plane operation to the latter two.  The package reads
these operators in place, as ``series.plane_dot`` linear terms and
``Plane.column``.
"""

from __future__ import annotations

from connexa.errors import OrderMismatchError
from connexa.series import AffinePoly1, Plane, TSeries, ZTSeries


def is_zero(p: Plane) -> bool:
    return p.den == 1 and not (any(p.re) or any(p.im))


def truncate(p: Plane, nz: int, nt: int) -> Plane:
    w = p.nt
    if nz > p.nz or nt > w:
        raise OrderMismatchError("cannot extend a truncated series")
    if nt == w:
        if nz == p.nz:
            return p
        return p._new(nz, nt, p.re[: nz * nt], p.im[: nz * nt], p.den)
    cut = range(0, nz * w, w)
    return p._new(
        nz,
        nt,
        [x for a in cut for x in p.re[a : a + nt]],
        [y for a in cut for y in p.im[a : a + nt]],
        p.den,
    )


def shift_z(p: Plane, k: int) -> Plane:
    if k == 0:
        return p
    nz, nt = p.nz, p.nt
    if k >= nz:
        return Plane.zero(nz, nt)
    pad = [0] * (k * nt)
    keep = (nz - k) * nt
    return Plane._ints(nz, nt, pad + p.re[:keep], pad + p.im[:keep], p.den)


def mul_z(p: Plane) -> Plane:
    """z * p, exact at z-order nz + 1."""
    pad = [0] * p.nt
    return Plane._ints(p.nz + 1, p.nt, pad + p.re, pad + p.im, p.den, 1)


def at_t0(p: Plane):
    """The z-series of entries (k, 0)."""
    return TSeries._ints(p.re[:: p.nt], p.im[:: p.nt], p.den)


def weighted_rows(p: Plane, k0: int, w0: int, nz: int, pad: int) -> Plane:
    nt = p.nt
    zeros = [0] * (pad * nt)
    src = slice(k0 * nt, (k0 + nz - pad) * nt)
    re = zeros + [x * (w0 + i // nt) for i, x in enumerate(p.re[src])]
    im = zeros + [y * (w0 + i // nt) for i, y in enumerate(p.im[src])]
    return Plane._ints(nz, nt, re, im, p.den)


def dz(p: Plane) -> Plane:
    return weighted_rows(p, 1, 1, p.nz - 1, 0)


def zdz(p: Plane) -> Plane:
    return weighted_rows(p, 0, 0, p.nz, 0)


def z2dz(p: Plane) -> Plane:
    return weighted_rows(p, 0, 0, p.nz, 1)


def derivative(p: Plane) -> Plane:
    nt = p.nt
    return p._new(
        p.nz,
        nt - 1,
        [(i % nt) * x for i, x in enumerate(p.re) if i % nt],
        [(i % nt) * y for i, y in enumerate(p.im) if i % nt],
        p.den,
    )


def derivative_exact(p: Plane) -> Plane:
    nt = p.nt
    if any(p.re[nt - 1 :: nt]) or any(p.im[nt - 1 :: nt]):
        raise OrderMismatchError("same-order derivative needs a vanishing top coefficient")
    return p._new(
        p.nz,
        nt,
        [(i % nt) * x for i, x in enumerate(p.re[1:] + [0], 1)],
        [(i % nt) * y for i, y in enumerate(p.im[1:] + [0], 1)],
        p.den,
    )


def each(fn, x):
    """fn on both t1-part planes of a ZTSeries, or of every component of a
    Mat2."""
    if isinstance(x, ZTSeries):
        p = x.planes
        return ZTSeries._of(AffinePoly1(fn(p.const), fn(p.slope)))
    return x.map(lambda c: each(fn, c))


def z_times(x, k: int = 1):
    """z^k * x on the same window, for a ZTSeries or a Mat2."""
    return each(lambda p: shift_z(p, k), x)


def dt(x):
    """d/dt2 of a ZTSeries or a Mat2: the t2-order drops by one."""
    return each(derivative, x)


def dt1(c: ZTSeries) -> ZTSeries:
    """d/dt1 of const + t1 * slope: the slope."""
    slope = c.planes.slope
    return ZTSeries._of(AffinePoly1(slope, Plane.zero(*slope.order)))
