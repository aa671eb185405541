"""Structure documents (a self-describing JSON tree) and reports.

Matrices are stored in the {C1, C2, D, E} basis, z-major, then t1-degree,
then t2-power; scalars use the text form "p/q+r/s*i".
"""

from __future__ import annotations

import json
import re
import sys
from dataclasses import dataclass, field
from itertools import compress, repeat
from math import lcm
from operator import ne
from typing import Any

from .connmat import Mat2, TEStruct
from .errors import DocumentError
from .scalars import Scalar, integer
from .series import MAX_ORDER, Plane, ZTSeries, _scalar

FORMAT_TAG = "connexa-structure/1"

# Largest common denominator, in bits, of one plane of a document.  The
# reader puts a plane over the lcm of its literals' denominators, and
# distinct denominators multiply, so without a cap a small document can
# carry a height that makes every later product crawl.  Fixtures reach 82
# bits and `malgrange` output at order 64 reaches 352.
MAX_DEN_BITS = 4096

# Window order of the built-in fixtures and the series commands when no
# --order-z/--order-t is given; a document always keeps its own window.
DEFAULT_ORDER = 16


def _plane_to_json(p: Plane) -> list[list[str]]:
    """The z-rows of p as literal arrays, written from its numerators.  A
    plane the reader would refuse is refused here: one whose common
    denominator passes ``MAX_DEN_BITS``, or with a literal past the int/str
    conversion limit."""
    nt, den = p.nt, p.den
    if den.bit_length() > MAX_DEN_BITS:  # p is canonical: den is that lcm
        raise DocumentError(
            f"a plane's common denominator exceeds the budget of {MAX_DEN_BITS}"
            " bits; no document is written"
        )
    rows = []
    try:
        for a in range(0, p.nz * nt, nt):
            re, im = p.re[a : a + nt], p.im[a : a + nt]
            if any(re) or any(im):
                rows.append([str(_scalar(x, y, den)) for x, y in zip(re, im)])
            else:
                rows.append(["0"] * nt)
    except ValueError:  # str() of an int past the limit
        raise DocumentError(
            "a coefficient exceeds the int/str conversion limit of"
            f" {sys.get_int_max_str_digits()} digits; no document is written"
        ) from None
    return rows


def _zt_to_json(z: ZTSeries) -> list[list[list[str]]]:
    return [list(slot) for slot in zip(_plane_to_json(z.const), _plane_to_json(z.slope))]


# Coefficient arrays of plain integers, joined with ",": the integer
# literals of Scalar.parse (int() alone would also take " 1" and "1_0").
_INT_ROW = re.compile(r"-?[0-9]+(?:,-?[0-9]+)*")


def _ints_from_json(data: list) -> list[int] | None:
    """The literals of ``data`` as ints, or None unless every one is a str
    of plain integer text within the int/str conversion limit."""
    try:
        if _INT_ROW.fullmatch(",".join(data)):
            return list(map(int, data))
    except (TypeError, ValueError):
        pass  # a literal that is no str, holds a comma, or has too many digits
    return None


def _literal(x) -> Scalar:
    """A coefficient: Scalar text or a JSON integer, not a bool or float."""
    if type(x) is int:
        return integer(x)
    if type(x) is str:
        return Scalar.parse(x)
    raise DocumentError("coefficient must be a string or an integer")


def _plane_from_json(rows: list[tuple[int, list]], nz: int, nt: int, where: str) -> Plane:
    """The nz x nt plane whose z-row k holds the literals ``row`` for each
    pair (k, row) of ``rows``, and is zero at every other k.  A row equal
    to the all-"0" row is skipped whole, and of the others only the non-"0"
    literals are read.  If all are plain integers they are read by int(),
    else each goes through ``_literal`` and the plane is placed at the lcm
    of their denominators, which is canonical again and at most
    ``MAX_DEN_BITS`` bits."""
    zero = ["0"] * nt
    live: list[int] = []
    vals: list = []
    for k, row in rows:
        if row != zero:
            mask = list(map(ne, row, zero))
            live += compress(range(k * nt, k * nt + nt), mask)
            vals += compress(row, mask)
    if not live:
        return Plane.zero(nz, nt)
    ints = _ints_from_json(vals)
    if ints is not None:
        return Plane._at(nz, nt, zip(live, ints, repeat(0)), 1)
    cs = [_literal(x) for x in vals]
    den = 1
    for c in cs:  # refused as soon as the budget is passed, so never slow
        den = lcm(den, c.d)
        if den.bit_length() > MAX_DEN_BITS:
            raise DocumentError(
                f"{where}: common denominator exceeds the budget of {MAX_DEN_BITS} bits"
            )
    entries = [(i, c.a * (den // c.d), c.b * (den // c.d)) for i, c in zip(live, cs)]
    return Plane._at(nz, nt, entries, den)


def _zt_from_json(data: Any, nz: int, nt: int, where: str) -> ZTSeries:
    """The component whose z-slots are ``data``.  The slots equal to the
    all-"0" slot, well-formed by that equality, are found in one pass and
    skipped; only the others are checked and read."""
    if not isinstance(data, list) or len(data) != nz:
        raise DocumentError("z-coefficient array has the wrong length")
    zero = ["0"] * nt
    ks = list(compress(range(nz), map(ne, data, repeat([zero, zero]))))
    if not ks:
        return ZTSeries.zero(nz, nt)
    slots = list(map(data.__getitem__, ks))
    for entry in slots:
        if not isinstance(entry, list) or len(entry) != 2:
            raise DocumentError("each z-slot must be [const, slope]")
        for row in entry:
            if not isinstance(row, list) or len(row) != nt:
                raise DocumentError("coefficient array has the wrong length")
    return ZTSeries(
        _plane_from_json(
            [(k, e[0]) for k, e in zip(ks, slots)], nz, nt, f"{where} constant part"
        ),
        _plane_from_json(
            [(k, e[1]) for k, e in zip(ks, slots)], nz, nt, f"{where} t1-slope"
        ),
    )


def _mat_to_json(m: Mat2) -> dict:
    return {
        "c1": _zt_to_json(m.c1),
        "c2": _zt_to_json(m.c2),
        "d": _zt_to_json(m.d),
        "e": _zt_to_json(m.e),
    }


def _mat_from_json(data: Any, nz: int, nt: int, name: str) -> Mat2:
    if not isinstance(data, dict):
        raise DocumentError("matrix entry must be an object")
    comps = {}
    for key in ("c1", "c2", "d", "e"):
        if key not in data:
            raise DocumentError(f"matrix is missing the {key!r} component")
        comps[key] = _zt_from_json(data[key], nz, nt, f"{name}.{key}")
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
    nz, nt = orders.get("nz"), orders.get("nt")
    # JSON integers only: int() would read 4.7 as 4, and true is an int
    if type(nz) is not int or type(nt) is not int:
        raise DocumentError("orders must carry integer nz/nt")
    if nz < 1 or nt < 1:
        raise DocumentError("orders nz/nt must be positive")
    if nz > MAX_ORDER or nt > MAX_ORDER:
        raise DocumentError(f"orders nz/nt must be at most {MAX_ORDER}")
    t1_degree = orders.get("t1_degree", 1)
    if type(t1_degree) is not int or t1_degree < 0:
        raise DocumentError("t1_degree must be a nonnegative integer")
    if t1_degree > 1:
        raise DocumentError("documents with t1-degree above 1 are rejected")
    mats = doc.get("matrices")
    if not isinstance(mats, dict):
        raise DocumentError("missing matrices")
    try:
        a1, a2, b = (_mat_from_json(mats[k], nz, nt, k) for k in ("A1", "A2", "B"))
    except KeyError as exc:
        raise DocumentError(f"missing matrix {exc}") from exc
    if t1_degree == 0:
        for name, m in (("A1", a1), ("A2", a2), ("B", b)):
            if not m.is_t1_free():
                raise DocumentError(f"t1_degree is 0 but {name} depends on t1")
    return TEStruct(a1, a2, b, kind)


def dumps_document(doc: dict) -> str:
    """The text of ``json.dumps(doc, sort_keys=True, indent=1)`` for a tree
    whose dicts have str keys.

    That call runs the pure-Python encoder, as any indent does.  This one
    appends each container's text to one list, and writes a list of strs,
    such as a coefficient row, as one join; other leaves go to json.dumps."""
    out: list[str] = []
    _dump(doc, "\n", out)
    return "".join(out)


_ASCII = json.encoder.encode_basestring_ascii


def _dump(o, nl: str, out: list[str]):
    """Append the text of o to out; nl is the newline and indent of the
    line o starts on, and each level indents one space more."""
    if isinstance(o, str):
        out.append(_ASCII(o))
    elif isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + " "
        if isinstance(o[0], str):
            try:
                out.append("[" + inner + ("," + inner).join(map(_ASCII, o)) + nl + "]")
                return
            except TypeError:  # not every item is a str
                pass
        sep = "[" + inner
        for x in o:
            out.append(sep)
            _dump(x, inner, out)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + " "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            out.append(sep + _ASCII(k) + ": ")  # a key that is no str: TypeError
            _dump(v, inner, out)
            sep = "," + inner
        out.append(nl + "}")
    else:
        out.append(json.dumps(o))


def loads_document(text: str) -> dict:
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:
        # ValueError covers JSONDecodeError and a number literal past the
        # int/str conversion limit; RecursionError, arrays nested too deep
        raise DocumentError(f"invalid JSON: {exc}") from exc


def save_structure(s: TEStruct, path: str):
    text = dumps_document(structure_to_document(s))  # a refusal opens no file
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(text)


def load_structure(path: str) -> TEStruct:
    try:
        with open(path, encoding="utf-8") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise DocumentError(f"{path} is not UTF-8 text: {exc}") from exc
    except OSError as exc:
        raise DocumentError(f"cannot read {path}: {exc.strerror or exc}") from exc
    return structure_from_document(loads_document(text))


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
        return dumps_document(self.to_dict())
