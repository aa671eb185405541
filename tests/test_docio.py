"""The document loader: components read straight into integer planes,
checked against the row-wise oracle, and hostile documents refused."""

import contextlib
import copy
import io
import json
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import document_oracle
from connexa import cli, docio
from connexa.docio import (
    dumps_document,
    load_structure,
    loads_document,
    structure_from_document,
    structure_to_document,
)
from connexa.errors import DocumentError
from connexa.fixtures import build_fixture, fixture_names
from connexa.scalars import Scalar
from connexa.series import AffinePoly1, Plane, TSeries, ZTSeries

from conftest import rand_scalar
from test_cli import SMALL_WINDOWS

# A literal past the int/str conversion limit of 4,300 digits.
LONG = "7" * 5000

# Literals on both sides of the integer fast path: text int() reads but the
# ASCII-digit rule does not, text only Scalar.parse reads, JSON values that
# are no str, and what no reader takes.
odd_literals = st.sampled_from(
    [
        "0", "-0", "007", "-007", "1_0", " 1", "1 ", "+1", "٣", "１",
        "", "-", "--1", "1/2+3*i", "-3/4*i", "i", "1/0", "1e400", "1,2",
        LONG, "-" + LONG, True, False, 1.5, 2, None, [1], [], {"a": 1},
    ]
)
int_literals = st.integers(-(10**30), 10**30).map(str)
fraction_literals = st.builds(
    lambda p, q, r, s: str(Scalar.parse(f"{p}/{q}") + Scalar.parse(f"{r}/{s}*i")),
    st.integers(-50, 50),
    st.integers(1, 12),
    st.integers(-50, 50),
    st.integers(1, 12),
)
literals = st.one_of(int_literals, int_literals, fraction_literals, odd_literals)


@st.composite
def components(draw):
    """A component's z-slots, mostly integer rows, a few mixed or of the
    wrong length."""
    nz, nt = draw(st.integers(1, 3)), draw(st.integers(1, 4))

    def row():
        n = draw(st.sampled_from([nt] * 8 + [nt - 1, nt + 1]))
        pool = draw(st.sampled_from([int_literals, int_literals, literals]))
        return draw(st.lists(pool, min_size=n, max_size=n))

    return [[row(), row()] for _ in range(nz)], nz, nt


@given(components())
@settings(max_examples=400, deadline=None)
def test_planes_match_row_oracle(case):
    data, nz, nt = case
    try:
        want = document_oracle._zt_from_json(data, nz, nt)
    except DocumentError:
        with pytest.raises(DocumentError):
            docio._zt_from_json(data, nz, nt, "A1.c1")
        return
    assert docio._zt_from_json(data, nz, nt, "A1.c1") == want


def test_writer_matches_row_oracle():
    # every component of every fixture, and dense rational windows with
    # zero rows, are written as the row-wise writer wrote them
    comps = [
        c
        for name in fixture_names()
        for m in (lambda s: (s.A1, s.A2, s.B))(build_fixture(name, 16, 16))
        for c in (m.c1, m.c2, m.d, m.e)
    ]
    rnd = random.Random(7)
    for _ in range(30):
        nz, nt = rnd.randint(1, 4), rnd.randint(1, 5)

        def row():
            if rnd.random() < 0.3:
                return TSeries.zero(nt)
            return TSeries.of([rand_scalar(rnd, 5) for _ in range(nt)], nt)

        comps.append(ZTSeries([AffinePoly1(row(), row()) for _ in range(nz)]))
    for c in comps:
        data = docio._zt_to_json(c)
        assert data == document_oracle._zt_to_json(c)
        got = docio._zt_from_json(data, c.nz, c.nt, "A1.c1")
        assert got == c
        for p in (got.planes.const, got.planes.slope):
            # the support recorded while reading is the one a scan finds
            assert p.support() == Plane._ints(p.nz, p.nt, p.re, p.im, p.den).support()


def _plain(x) -> bool:
    return isinstance(x, str) and x.lstrip("-").isdigit() and x.isascii()


def test_integer_literals_build_no_scalar(monkeypatch):
    # only the non-"0" literals of the planes that hold a literal other than
    # a plain integer go through Scalar.parse, and no row becomes a TSeries
    doc = structure_to_document(build_fixture("nf3_4", 8, 8))
    want = structure_from_document(copy.deepcopy(doc))
    parsed = []
    parse = Scalar.parse

    def counting_parse(text):
        parsed.append(text)
        return parse(text)

    def no_row(self, coeffs):
        raise AssertionError("a TSeries row was built")

    monkeypatch.setattr(Scalar, "parse", staticmethod(counting_parse))
    monkeypatch.setattr(TSeries, "__init__", no_row)
    assert structure_from_document(doc) == want
    planes = [
        [x for slot in comp for x in slot[part]]
        for mat in doc["matrices"].values()
        for comp in mat.values()
        for part in (0, 1)
    ]
    mixed = [plane for plane in planes if not all(map(_plain, plane))]
    assert 0 < len(mixed) < len(planes)
    live = [x for plane in mixed for x in plane if x != "0"]
    assert 0 < len(live) < sum(map(len, mixed))
    assert parsed == live


# -- zero planes --------------------------------------------------------------


def _zero_slots(nz, nt, at=None, value=None):
    """A component's z-slots of "0" literals, with ``value`` at (k, part, n)."""
    data = [[["0"] * nt, ["0"] * nt] for _ in range(nz)]
    if at is not None:
        k, part, n = at
        data[k][part][n] = value
    return data


@pytest.mark.parametrize("value", [None, 0, "-0", "00", "1/2", "-3/4*i"])
def test_zero_planes_match_row_oracle(value):
    # all-"0" planes take the zero path; a JSON 0, "-0", "00" or one
    # rational among the zeros takes the int() or Scalar path
    nz, nt = 3, 4
    for at in ((0, 0, 0), (1, 0, 2), (2, 1, 3)):
        data = _zero_slots(nz, nt, None if value is None else at, value)
        want = document_oracle._zt_from_json(data, nz, nt)
        got = docio._zt_from_json(data, nz, nt, "A1.c1")
        assert got == want
        for p, q in zip((got.planes.const, got.planes.slope), (want.planes.const, want.planes.slope)):
            assert type(p) is Plane and p.order == (nz, nt)
            assert (p.re, p.im, p.den) == (q.re, q.im, q.den)
            assert p.is_zero() == q.is_zero()
            assert p.support() == q.support()


def _fields(p: Plane):
    return type(p), p.order, p.re, p.im, p.den, p.support()


def _cut(doc: dict, nz: int, nt: int) -> dict:
    """The document of the nz x nt window of ``doc``'s coefficients."""
    out = copy.deepcopy(doc)
    out["orders"].update(nz=nz, nt=nt)
    for mat in out["matrices"].values():
        for c, slots in mat.items():
            mat[c] = [[row[:nt] for row in slot] for slot in slots[:nz]]
    return out


FIXTURE_DOCUMENTS = {
    name: structure_to_document(build_fixture(name, 16, 16)) for name in fixture_names()
}


@pytest.mark.parametrize("nz, nt", SMALL_WINDOWS + [(16, 16)])
def test_fixture_documents_match_row_oracle(nz, nt):
    # every component of every fixture document, cut to the window, reads
    # as the row-wise reader read it, field for field, the recorded
    # support included
    for name, full in FIXTURE_DOCUMENTS.items():
        doc = _cut(full, nz, nt)
        got = structure_from_document(doc)
        for m in ("A1", "A2", "B"):
            for c in ("c1", "c2", "d", "e"):
                want = document_oracle._zt_from_json(doc["matrices"][m][c], nz, nt)
                have = getattr(getattr(got, m), c)
                for p, q in zip((have.planes.const, have.planes.slope),
                                (want.planes.const, want.planes.slope)):
                    assert _fields(p) == _fields(q), (name, m, c)


def _component(read, *args):
    """The planes' fields ``read`` makes of a component, or its error text."""
    try:
        z = read(*args)
    except DocumentError as exc:
        return str(exc)
    return _fields(z.planes.const), _fields(z.planes.slope)


def _package_plane(rows, nt, where):
    """``docio._plane_from_json`` on every row of ``rows``, keyed by its z-order."""
    return docio._plane_from_json(list(enumerate(rows)), len(rows), nt, where)


def _read(read, rows, nt):
    """The plane ``read`` makes of ``rows``, or the error it raises."""
    try:
        return _fields(read(rows, nt, "A1.c1 constant part"))
    except DocumentError as exc:
        return str(exc)


# Values among "0" literals: zeros the "0" test does not see, rationals, and
# JSON values no reader takes.
AMONG_ZEROS = [0, "-0", "00", "7", "1/2", "-3/4*i", False, None, 0.0, [0], ["0"], "0 "]


def test_zero_rows_between_live_rows_match_the_flat_reader(tmp_path):
    # all-"0" rows between, above and below live rows, and one value among
    # the zeros of any row, give the flat reader's plane or its error text,
    # and a refused plane exits 2 with that text
    nt = 3
    live = [["1", "0", "-2"], ["0", "5/3", "0"]]
    zero = ["0"] * nt
    layouts = [
        [live[0], zero, zero, live[1]],
        [zero, live[0], zero, zero, live[1], zero],
        [zero, zero, live[1]],
        [live[0], zero],
        [zero, zero, zero],
    ]
    refused = 0
    for rows in layouts:
        for value in [None] + AMONG_ZEROS:
            for k in range(len(rows)) if value is not None else [None]:
                for n in range(nt):
                    case = [list(r) for r in rows]
                    if k is not None:
                        case[k][n] = value
                    want = _read(document_oracle.flat_plane_from_json, case, nt)
                    assert _read(_package_plane, case, nt) == want, case
                    if isinstance(want, str):
                        refused += 1
                        doc = copy.deepcopy(BASE)
                        doc["matrices"]["A1"]["c1"] = [[r, zero] for r in case]
                        doc["orders"]["nz"] = len(case)
                        for m in ("A1", "A2", "B"):
                            for c in ("c1", "c2", "d", "e"):
                                if (m, c) != ("A1", "c1"):
                                    doc["matrices"][m][c] = [[zero, zero]] * len(case)
                        target = tmp_path / "doc.json"
                        target.write_text(dumps_document(doc))
                        code, out, err = _verify(target)
                        assert (code, out, err) == (2, "", f"parse error: {want}\n")
    assert refused
    # a row of the wrong length is refused before any plane is read
    for bad in (["0"] * (nt - 1), ["0"] * (nt + 1)):
        with pytest.raises(DocumentError, match="^coefficient array has the wrong length$"):
            docio._zt_from_json([[zero, zero], [bad, zero]], 2, nt, "A1.c1")


@pytest.mark.parametrize("value", [False, 0.0, None])
def test_zero_plane_with_a_bad_literal_exits_2(tmp_path, value):
    target = tmp_path / "doc.json"
    for literal, want in (("0", 0), (value, 2)):
        doc = copy.deepcopy(BASE)
        doc["matrices"]["A2"]["e"] = _zero_slots(3, 3, (1, 0, 2), literal)
        target.write_text(dumps_document(doc))
        code, out, err = _verify(target)
        assert code == want, err
    assert out == "" and err.startswith("parse error: ")


# -- hostile documents --------------------------------------------------------

RAW = "@@raw@@"  # a node replaced by raw JSON text after serialising
DEEP = "[" * 200_000 + "]" * 200_000
LONG_NUMBER = "9" * 5000  # a JSON number past the conversion limit

BAD_LITERALS = [
    "", "-", "--1", "1/0", "1e400", "1E2", "1+2", "i*i", "1/2/3", "0x10",
    "1,2", "nan", "inf", LONG, True, False, None, [1], [], {},
]
# Raw JSON text for any node: deep nesting and numbers past the limit.
BAD_RAW = [DEEP, LONG_NUMBER, "-" + LONG_NUMBER]
BAD_ORDER = [True, False, 3.0, 4.7, "3", None, [3], {}, 0, -1, 65]
BAD_T1_DEGREE = [True, False, 1.0, "1", None, [1], {}, 2]
BAD_NODE = ["x", 3, 1.5, None, True, [], {}]

# A small document with integer and fraction rows: nz = nt = 3, so every
# array and every wrapped node has a length the loader refuses.
BASE = structure_to_document(build_fixture("nf3_4", 3, 3))


def _paths(node, path=()):
    """(path, kind) of every node below the root."""
    if isinstance(node, dict):
        for key, value in node.items():
            sub = path + (key,)
            if isinstance(value, (dict, list)):
                yield sub, type(value).__name__
                yield from _paths(value, sub)
            elif path == ("orders",):
                yield sub, "t1_degree" if key == "t1_degree" else "order"
            elif len(path) > 1:
                yield sub, "literal"
            else:
                yield sub, key  # format or kind
    else:
        for idx, value in enumerate(node):
            sub = path + (idx,)
            yield sub, "list" if isinstance(value, list) else "literal"
            if isinstance(value, list):
                yield from _paths(value, sub)


PATHS = list(_paths(BASE))
LITERAL_PATHS = [p for p, kind in PATHS if kind == "literal"]
ARRAY_PATHS = [p for p, kind in PATHS if kind == "list"]
# Keys a document cannot do without: "kind" and "t1_degree" have defaults.
REQUIRED = [("format",), ("orders",), ("matrices",), ("orders", "nz"), ("orders", "nt")] + [
    p for p, _ in PATHS if p[0] == "matrices" and len(p) in (2, 3)
]


def _set(doc, path, value):
    parent = doc
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value


def _get(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _text(doc, raw=None) -> bytes:
    text = dumps_document(doc)
    if raw is not None:
        text = text.replace(json.dumps(RAW), raw)
    return text.encode("utf-8")


@st.composite
def hostile_documents(draw):
    """Bytes of a document with one fault: a type, a length, a literal, a
    nesting or an encoding that the loader must refuse."""
    doc = copy.deepcopy(BASE)
    kind = draw(
        st.sampled_from(["literal", "raw", "length", "type", "missing", "nest", "encoding"])
    )
    if kind == "literal":
        _set(doc, draw(st.sampled_from(LITERAL_PATHS)), draw(st.sampled_from(BAD_LITERALS)))
    elif kind == "raw":
        _set(doc, draw(st.sampled_from([p for p, _ in PATHS])), RAW)
        return _text(doc, draw(st.sampled_from(BAD_RAW)))
    elif kind == "length":
        array = _get(doc, draw(st.sampled_from(ARRAY_PATHS)))
        if draw(st.booleans()):
            array.pop()
        else:
            array.append(copy.deepcopy(array[-1]))
    elif kind == "type":
        path, node = draw(st.sampled_from(PATHS))
        bad = {
            "literal": BAD_LITERALS,
            "order": BAD_ORDER,
            "t1_degree": BAD_T1_DEGREE,
            "kind": ["X", None, 1, ["TE"]],
        }.get(node, BAD_NODE)
        _set(doc, path, draw(st.sampled_from(bad)))
    elif kind == "missing":
        path = draw(st.sampled_from(REQUIRED))
        del _get(doc, path[:-1])[path[-1]]
    elif kind == "nest":
        path, _ = draw(st.sampled_from(PATHS + [((), "root")]))
        node = _get(doc, path)
        for _ in range(draw(st.sampled_from([1, 2, 50]))):
            node = [node]
        if not path:
            return _text(node)
        _set(doc, path, node)
    else:
        text = dumps_document(doc)
        how = draw(st.sampled_from(["utf-16", "utf-32", "latin-1", "byte", "cut"]))
        if how == "byte":  # the text is ASCII; no UTF-8 has these bytes after ASCII
            at = draw(st.integers(0, len(text)))
            byte = bytes([draw(st.sampled_from([0x80, 0xBF, 0xC0, 0xFF]))])
            return text[:at].encode() + byte + text[at:].encode()
        if how == "cut":
            return text[: draw(st.integers(0, len(text) - 1))].encode()
        if how == "latin-1":  # é is the one byte 0xE9, a lead byte left unfinished
            at = draw(st.integers(0, len(text)))
            return (text[:at] + "é" + text[at:]).encode("latin-1")
        return text.encode(how)
    return _text(doc)


def _verify(path) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(["verify", str(path)])
    return code, out.getvalue(), err.getvalue()


@given(hostile_documents())
@settings(
    max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
def test_hostile_documents_exit_2(tmp_path, data):
    target = tmp_path / "hostile.json"
    target.write_bytes(data)
    code, out, err = _verify(target)
    assert (code, out) == (2, ""), err
    assert err.startswith("parse error: ") and err.count("\n") == 1


def doc_with(doc, path, value):
    doc = copy.deepcopy(doc)
    _set(doc, path, value)
    return doc


# The known reproducers, once each: nesting, encoding and long numbers used
# to end in a traceback (exit 1); a float or a bool in orders was read as
# some other integer.
REPRODUCERS = {
    "nested_200000_deep": DEEP.encode(),
    "nested_literal": _text(doc_with(BASE, ("matrices", "A1", "c1", 0, 0, 0), RAW), DEEP),
    "not_utf8": b"\xff\xfe{}",
    "long_number_coefficient": _text(
        doc_with(BASE, ("matrices", "B", "e", 1, 0, 2), RAW), LONG_NUMBER
    ),
    "long_number_nz": _text(doc_with(BASE, ("orders", "nz"), RAW), LONG_NUMBER),
    "nz_float": _text(doc_with(BASE, ("orders", "nz"), 4.7)),
    "nz_true": _text(doc_with(BASE, ("orders", "nz"), True)),
    "t1_degree_true": _text(doc_with(BASE, ("orders", "t1_degree"), True)),
}


@pytest.mark.parametrize("name", sorted(REPRODUCERS))
def test_hostile_reproducers_exit_2(tmp_path, name):
    target = tmp_path / f"{name}.json"
    target.write_bytes(REPRODUCERS[name])
    with pytest.raises(DocumentError):
        load_structure(str(target))
    out = subprocess.run(
        [sys.executable, "-m", "connexa.cli", "verify", str(target)],
        capture_output=True,
        text=True,
    )
    assert out.returncode == 2
    assert out.stderr.startswith("parse error: ")
    assert "Traceback" not in out.stderr


def test_loads_document_refuses_what_json_cannot_hold():
    for text in (DEEP, "[" + LONG_NUMBER + "]", '{"nz": -' + LONG_NUMBER + "}"):
        with pytest.raises(DocumentError, match="invalid JSON"):
            loads_document(text)


def test_directory_as_document_exits_2(tmp_path):
    with pytest.raises(DocumentError, match="cannot read"):
        load_structure(str(tmp_path))
    code, out, err = _verify(tmp_path)
    assert (code, out) == (2, "")
    assert err == f"parse error: cannot read {tmp_path}: Is a directory\n"


def test_orders_hold_json_integers():
    for key, value in (("nz", 4.7), ("nz", 3.0), ("nz", True), ("nz", "3"),
                       ("nt", False), ("t1_degree", True), ("t1_degree", 1.0)):
        with pytest.raises(DocumentError, match="integer"):
            structure_from_document(doc_with(BASE, ("orders", key), value))
    structure_from_document(copy.deepcopy(BASE))  # the unmutated base loads


# A0 = the first coefficient of BASE's A1.c1, a plain literal.
A0 = ("matrices", "A1", "c1", 0, 0, 0)


def test_json_integer_coefficients_load_as_integers():
    for value in (0, 7, -3, 10**40):
        got = structure_from_document(doc_with(BASE, A0, value))
        assert got == structure_from_document(doc_with(BASE, A0, str(value)))


def test_other_json_numbers_are_refused_as_coefficients():
    # a float used to load or not depending on its repr ("1e-05", "1e+16"),
    # and true/null failed as an "exponent" in "True"/"None"
    for value in (0.0001, 0.00001, 1e15, 1e16, 1.5, 2.0, True, False, None):
        with pytest.raises(DocumentError, match="coefficient must be a string or an integer"):
            structure_from_document(doc_with(BASE, A0, value))


@pytest.mark.parametrize("text", ["1_0", " 1", "1 ", "+1", "1.", ".5", "٣", "１", "1/2 + i"])
def test_literals_outside_the_printed_form_exit_2(tmp_path, text):
    target = tmp_path / "doc.json"
    target.write_text(dumps_document(doc_with(BASE, A0, text)), encoding="utf-8")
    code, out, err = _verify(target)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: bad scalar literal")


def test_negative_t1_degree_exits_2(tmp_path):
    for value in (-1, -5):
        with pytest.raises(DocumentError, match="t1_degree must be a nonnegative integer"):
            structure_from_document(doc_with(BASE, ("orders", "t1_degree"), value))
        target = tmp_path / "doc.json"
        target.write_text(dumps_document(doc_with(BASE, ("orders", "t1_degree"), value)))
        assert _verify(target)[0] == 2


def _over_denominators(*dens) -> dict:
    """f1_r2 at (4, 4) with A1.c2's first constant z-row set to 1/q for q
    in ``dens``."""
    doc = structure_to_document(build_fixture("f1_r2", 4, 4))
    row = doc["matrices"]["A1"]["c2"][0][0]
    row[: len(dens)] = [f"1/{q}" for q in dens]
    return doc


def test_plane_height_budget(tmp_path):
    # two literals well within the int/str limit whose denominators
    # multiply: a plane over MAX_DEN_BITS bits is refused, naming the
    # matrix and the component, and verify exits 2
    three = 3 ** (docio.MAX_DEN_BITS // 4)
    at = docio.MAX_DEN_BITS - three.bit_length()
    inside = structure_from_document(_over_denominators(2**at, three))
    assert inside.A1.c2.planes.const.den.bit_length() == docio.MAX_DEN_BITS
    outside = _over_denominators(2 ** (at + 1), three)
    with pytest.raises(DocumentError) as err:
        structure_from_document(outside)
    assert str(err.value) == (
        f"A1.c2 constant part: common denominator exceeds the budget of {docio.MAX_DEN_BITS} bits"
    )
    target = tmp_path / "outside.json"
    target.write_text(dumps_document(outside))
    code, out, err = _verify(target)
    assert (code, out) == (2, "") and err.startswith("parse error: A1.c2 constant part")


# -- near the zero-component fast path ----------------------------------------


def _z(nt):
    return ["0"] * nt


# Components of BASE's window (3, 3) that equal or nearly equal the all-"0"
# block, and the text of the refusal each met before the block was read
# whole (None: it loads as the zero component).
NEAR_ZERO_BLOCKS = {
    "one z-slot too many": (_zero_slots(4, 3), "z-coefficient array has the wrong length"),
    "one z-slot too few": (_zero_slots(2, 3), "z-coefficient array has the wrong length"),
    "no z-slot": ([], "z-coefficient array has the wrong length"),
    "rows one t-order long": (_zero_slots(3, 4), "coefficient array has the wrong length"),
    "rows one t-order short": (_zero_slots(3, 2), "coefficient array has the wrong length"),
    "JSON 0 literals": ([[[0] * 3, [0] * 3]] * 3, None),
    "one JSON 0 among the strs": (_zero_slots(3, 3, (1, 0, 0), 0), None),
    "a str slot": ([[_z(3), _z(3)], "0", [_z(3), _z(3)]], "each z-slot must be [const, slope]"),
    "an object slot": (
        [[_z(3), _z(3)], {"0": _z(3)}, [_z(3), _z(3)]], "each z-slot must be [const, slope]"
    ),
    "a slot of one row": ([[_z(3), _z(3)], [_z(3)], [_z(3), _z(3)]], "each z-slot must be [const, slope]"),
    "a slot of three rows": ([[_z(3), _z(3)], [_z(3)] * 3, [_z(3), _z(3)]], "each z-slot must be [const, slope]"),
    "a str row": ([[_z(3), "000"], [_z(3), _z(3)], [_z(3), _z(3)]], "coefficient array has the wrong length"),
    "a row of rows": ([[[_z(3)], _z(3)]] * 3, "coefficient array has the wrong length"),
    "an object component": ({"0": 0}, "z-coefficient array has the wrong length"),
    "a str component": ("0", "z-coefficient array has the wrong length"),
}


@pytest.mark.parametrize("name", sorted(NEAR_ZERO_BLOCKS))
def test_components_near_the_zero_block_keep_their_verdict(tmp_path, name):
    value, refusal = NEAR_ZERO_BLOCKS[name]
    zero_doc = doc_with(BASE, ("matrices", "A2", "e"), _zero_slots(3, 3))
    assert structure_from_document(zero_doc).A2.e == ZTSeries.zero(3, 3)
    target = tmp_path / "doc.json"
    target.write_text(dumps_document(doc_with(BASE, ("matrices", "A2", "e"), value)))
    code, out, err = _verify(target)
    if refusal is None:
        assert load_structure(str(target)) == structure_from_document(zero_doc)
        assert (code, err) == (0, "")
    else:
        assert (code, out, err) == (2, "", f"parse error: {refusal}\n")
    # the reader gives both oracles' component, or their refusal text
    got = _component(docio._zt_from_json, value, 3, 3, "A2.e")
    assert got == _component(document_oracle.slotwise_zt_from_json, value, 3, 3, "A2.e")
    assert got == _component(document_oracle._zt_from_json, value, 3, 3)


@st.composite
def components_with_zero_slots(draw):
    """A component of all-"0" slots among slots from ``components``, some
    of the wrong type or length: which slots are checked and read must not
    change which refusal comes first."""
    data, nz, nt = draw(components())
    zero = [["0"] * nt, ["0"] * nt]
    odd = st.sampled_from([zero[:1], zero * 2, "0", None, [["0"] * (nt + 1), zero[1]]])
    slots = [draw(st.sampled_from([zero, zero, slot]) | odd) for slot in data]
    return slots, len(slots), nt


@given(components_with_zero_slots())
@settings(max_examples=300, deadline=None)
def test_reader_refuses_as_the_slotwise_reader(case):
    data, nz, nt = case
    got = _component(docio._zt_from_json, data, nz, nt, "A1.c1")
    assert got == _component(document_oracle.slotwise_zt_from_json, data, nz, nt, "A1.c1")


def _pool_documents(monkeypatch):
    """The benchmark's malgrange documents, printed by the CLI at (64, 64)."""
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    docs = []
    for argv in workloads.fixture_pool()["malgrange"]:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv + ["--order-z", "64", "--order-t", "64"]) == 0
        docs.append(json.loads(out.getvalue()))
    return docs


def test_reader_matches_the_oracles_on_fixture_and_pool_documents(monkeypatch):
    # every component of every fixture and malgrange pool document at
    # (64, 64), cut to every window (n, n) up to 16 and four beyond, reads
    # as the slot-wise reader reads it, field for field, and up to 8 as the
    # row-wise reader does
    docs = [structure_to_document(build_fixture(n, 64, 64)) for n in fixture_names()]
    docs += _pool_documents(monkeypatch)
    comps = [c for doc in docs for mat in doc["matrices"].values() for c in mat.values()]
    assert len(comps) == 12 * 33
    for n in [*range(1, 17), 24, 32, 48, 64]:
        for comp in comps:
            data = [[row[:n] for row in slot] for slot in comp[:n]]
            got = _component(docio._zt_from_json, data, n, n, "A1.c1")
            assert got == _component(document_oracle.slotwise_zt_from_json, data, n, n, "A1.c1")
            if n <= 8:
                assert got == _component(document_oracle._zt_from_json, data, n, n)


# -- the writer ---------------------------------------------------------------


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


@pytest.mark.parametrize("nz, nt", SMALL_WINDOWS + [(16, 16)])
def test_writer_matches_json_dumps_on_fixtures(nz, nt):
    for full in FIXTURE_DOCUMENTS.values():
        doc = _cut(full, nz, nt)
        assert dumps_document(doc) == _json_dumps(doc)


def test_writer_matches_json_dumps_on_the_malgrange_pool(monkeypatch):
    # the benchmark's malgrange arguments, each document printed by the CLI
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    argvs = workloads.fixture_pool()["malgrange"]
    assert len(argvs) == 16
    for argv in argvs:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert cli.main(argv) == 0
        text = out.getvalue()
        assert text == _json_dumps(json.loads(text)) + "\n"


json_leaves = (
    st.none() | st.booleans() | st.integers(-(10**30), 10**30) | st.floats() | st.text()
)
json_trees = st.recursive(
    json_leaves,
    lambda kids: st.lists(kids, max_size=4)
    | st.lists(st.text(), max_size=4)
    | st.dictionaries(st.text(), kids, max_size=4),
    max_leaves=30,
)


@given(json_trees, st.dictionaries(st.text(), json_trees, max_size=3))
@settings(max_examples=300, deadline=None)
def test_writer_matches_json_dumps_on_any_tree(tree, verdicts):
    # empty containers, lists of strs (written as one join) and mixed lists,
    # non-ASCII and control characters, ints, floats, bools and None
    assert dumps_document(tree) == _json_dumps(tree)
    rep = docio.Report("x", verdicts=verdicts, normal_forms=[tree], warnings=["é\x00\n"])
    assert rep.render() == _json_dumps(rep.to_dict())
