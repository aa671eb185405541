"""Structure documents (a self-describing JSON tree) and reports.

Matrices are stored in the {C1, C2, D, E} basis, z-major, then t1-degree,
then t2-power; scalars use the text form "p/q+r/s*i".
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from typing import Any

from .connmat import Mat2, TEStruct
from .errors import DocumentError
from .scalars import Scalar
from .series import AffinePoly1, TSeries, ZTSeries

FORMAT_TAG = "connexa-structure/1"

# Largest window order, for documents and --order-z/--order-t alike: four
# times the largest window any test, fixture or selftest criterion uses
# (16).  A dense product costs O(nz^2 nt^2), so without a cap one document
# or argument can start a run that never ends in practice.
MAX_ORDER = 64

# Window order of the built-in fixtures and the series commands when no
# --order-z/--order-t is given; a document always keeps its own window.
DEFAULT_ORDER = 16


def _ts_to_json(t: TSeries) -> list[str]:
    return [str(c) for c in t.coeffs]


def _ts_from_json(data: Any, nt: int) -> TSeries:
    if not isinstance(data, list) or len(data) != nt:
        raise DocumentError("coefficient array has the wrong length")
    return TSeries(tuple(Scalar.parse(str(x)) for x in data))


def _zt_to_json(z: ZTSeries) -> list[list[list[str]]]:
    rows = (z[k] for k in range(z.nz))
    return [[_ts_to_json(a.const), _ts_to_json(a.slope)] for a in rows]


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


def _mat_to_json(m: Mat2) -> dict:
    return {
        "c1": _zt_to_json(m.c1),
        "c2": _zt_to_json(m.c2),
        "d": _zt_to_json(m.d),
        "e": _zt_to_json(m.e),
    }


def _mat_from_json(data: Any, nz: int, nt: int) -> Mat2:
    if not isinstance(data, dict):
        raise DocumentError("matrix entry must be an object")
    comps = {}
    for key in ("c1", "c2", "d", "e"):
        if key not in data:
            raise DocumentError(f"matrix is missing the {key!r} component")
        comps[key] = _zt_from_json(data[key], nz, nt)
    return Mat2(**comps)


def structure_to_document(s: TEStruct) -> dict:
    nz, nt = s.orders
    return {
        "format": FORMAT_TAG,
        "kind": s.kind,
        "orders": {"nz": nz, "nt": nt, "t1_degree": 1},
        "matrices": {
            "A1": _mat_to_json(s.A1),
            "A2": _mat_to_json(s.A2),
            "B": _mat_to_json(s.B),
        },
    }


def structure_from_document(doc: Any) -> TEStruct:
    if not isinstance(doc, dict):
        raise DocumentError("document root must be an object")
    if doc.get("format") != FORMAT_TAG:
        raise DocumentError(f"unknown format tag {doc.get('format')!r}")
    kind = doc.get("kind", "TE")
    if kind not in ("TE", "T"):
        raise DocumentError(f"bad kind {kind!r}")
    orders = doc.get("orders")
    if not isinstance(orders, dict):
        raise DocumentError("missing orders")
    try:
        nz = int(orders["nz"])
        nt = int(orders["nt"])
    except (KeyError, ValueError, TypeError) as exc:
        raise DocumentError("orders must carry integer nz/nt") from exc
    if nz < 1 or nt < 1:
        raise DocumentError("orders nz/nt must be positive")
    if nz > MAX_ORDER or nt > MAX_ORDER:
        raise DocumentError(f"orders nz/nt must be at most {MAX_ORDER}")
    t1_degree = orders.get("t1_degree", 1)
    if not isinstance(t1_degree, int):
        raise DocumentError("t1_degree must be an integer")
    if t1_degree > 1:
        raise DocumentError("documents with t1-degree above 1 are rejected")
    mats = doc.get("matrices")
    if not isinstance(mats, dict):
        raise DocumentError("missing matrices")
    try:
        a1 = _mat_from_json(mats["A1"], nz, nt)
        a2 = _mat_from_json(mats["A2"], nz, nt)
        b = _mat_from_json(mats["B"], nz, nt)
    except KeyError as exc:
        raise DocumentError(f"missing matrix {exc}") from exc
    return TEStruct(a1, a2, b, kind)


def dumps_document(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=1)


def loads_document(text: str) -> dict:
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError(f"invalid JSON: {exc}") from exc


def save_structure(s: TEStruct, path: str):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_document(structure_to_document(s)))


def load_structure(path: str) -> TEStruct:
    with open(path, encoding="utf-8") as fh:
        return structure_from_document(loads_document(fh.read()))


@dataclass
class Report:
    """Deterministic machine-readable command output."""

    command: str
    verdicts: dict = field(default_factory=dict)
    normal_forms: list = field(default_factory=list)
    transform_log: list = field(default_factory=list)
    residuals_zero: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    flags: list = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "command": self.command,
            "verdicts": self.verdicts,
            "normal_forms": self.normal_forms,
            "transform_log": self.transform_log,
            "residuals_zero": self.residuals_zero,
            "warnings": self.warnings,
            "flags": self.flags,
        }

    def render(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=1)
