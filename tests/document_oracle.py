"""Reference document loader, for the oracle tests.

``_zt_from_json`` is the row-wise reader connexa once ran: every literal
goes through ``Scalar.parse``, every z-slot becomes an ``AffinePoly1`` of
two ``TSeries`` rows, and the rows are stacked into the two planes.  ``_zt_to_json``
is the writer it ran: a ``TSeries`` row and a ``Scalar`` per entry.  The
package now reads each component straight into its two integer planes and
writes rows from their numerators; the tests check it against these.
``flat_plane_from_json`` is the plane reader that came between: it flattens
every plane and counts its "0" literals, where the package now skips the
all-"0" rows whole; its structures and its error texts are the package's.
``slotwise_zt_from_json`` reads a component with it after checking the type
and length of every z-slot, where the package now finds the all-"0" slots
in one comparison each and checks and reads only the others.
"""

from __future__ import annotations

from itertools import chain, compress, repeat
from math import lcm
from operator import ne
from typing import Any

from connexa.docio import MAX_DEN_BITS, _ints_from_json, _literal
from connexa.errors import DocumentError
from connexa.scalars import Scalar
from connexa.series import AffinePoly1, Plane, TSeries, ZTSeries
from conftest import zt_of_rows


def _ts_from_json(data: Any, nt: int) -> TSeries:
    if not isinstance(data, list) or len(data) != nt:
        raise DocumentError("coefficient array has the wrong length")
    return TSeries(tuple(Scalar.parse(str(x)) for x in data))


def _zt_from_json(data: Any, nz: int, nt: int) -> ZTSeries:
    if not isinstance(data, list) or len(data) != nz:
        raise DocumentError("z-coefficient array has the wrong length")
    rows = []
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError("each z-slot must be [const, slope]")
        rows.append(
            AffinePoly1(_ts_from_json(entry[0], nt), _ts_from_json(entry[1], nt))
        )
    return zt_of_rows(rows)


def _zt_to_json(z: ZTSeries) -> list[list[list[str]]]:
    rows = (z[k] for k in range(z.nz))
    return [[[str(c) for c in r.const.coeffs], [str(c) for c in r.slope.coeffs]] for r in rows]


def flat_plane_from_json(rows: list[list], nt: int, where: str) -> Plane:
    data = list(chain.from_iterable(rows))
    n = len(data)
    if data.count("0") == n:
        return Plane.zero(len(rows), nt)
    live = list(compress(range(n), map(ne, data, repeat("0"))))
    vals = list(map(data.__getitem__, live))
    ints = _ints_from_json(vals)
    if ints is not None:
        return Plane._at(len(rows), nt, zip(live, ints, repeat(0)), 1)
    cs = [_literal(x) for x in vals]
    den = 1
    for c in cs:
        den = lcm(den, c.d)
        if den.bit_length() > MAX_DEN_BITS:
            raise DocumentError(
                f"{where}: common denominator exceeds the budget of {MAX_DEN_BITS} bits"
            )
    entries = [(i, c.a * (den // c.d), c.b * (den // c.d)) for i, c in zip(live, cs)]
    return Plane._at(len(rows), nt, entries, den)



def slotwise_zt_from_json(data: Any, nz: int, nt: int, where: str) -> ZTSeries:
    if not isinstance(data, list) or len(data) != nz:
        raise DocumentError("z-coefficient array has the wrong length")
    for entry in data:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError("each z-slot must be [const, slope]")
        for row in entry:
            if not isinstance(row, list) or len(row) != nt:
                raise DocumentError("coefficient array has the wrong length")
    return ZTSeries(
        flat_plane_from_json([e[0] for e in data], nt, f"{where} constant part"),
        flat_plane_from_json([e[1] for e in data], nt, f"{where} t1-slope"),
    )
