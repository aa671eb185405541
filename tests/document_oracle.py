"""Reference document loader, for the oracle tests.

``_zt_from_json`` is the row-wise reader connexa once ran: every literal
goes through ``Scalar.parse``, every z-slot becomes an ``AffinePoly1`` of
two ``TSeries`` rows, and ``ZTSeries(rows)`` stacks them.  ``_zt_to_json``
is the writer it ran: a ``TSeries`` row and a ``Scalar`` per entry.  The
package now reads each component straight into its two integer planes and
writes rows from their numerators; the tests check it against these.
"""

from __future__ import annotations

from typing import Any

from connexa.errors import DocumentError
from connexa.scalars import Scalar
from connexa.series import AffinePoly1, TSeries, ZTSeries


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
    return ZTSeries(tuple(rows))


def _zt_to_json(z: ZTSeries) -> list[list[list[str]]]:
    rows = (z[k] for k in range(z.nz))
    return [[[str(c) for c in r.const.coeffs], [str(c) for c in r.slope.coeffs]] for r in rows]
