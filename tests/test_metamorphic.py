"""Metamorphic checks of the document commands: verdicts that must not
depend on the coefficient window, or on the order of formal-iso's operands,
and no verdict on a document that ``verify`` calls non-flat."""

import contextlib
import io
import json
import random

from connexa import cli
from connexa.docio import dumps_document, loads_document, structure_to_document
from connexa.fixtures import build_fixture, fixture_names
from connexa.scalars import Scalar, integer

NAMES = fixture_names()
HOLOMORPHIC_ONLY = {"mal1", "mal2_lambda1", "mal3"}
NOT_NORMALIZED = "precondition violation: underlying family is not in a normalized shape\n"


def _verdict(*argv):
    """Exit code, then the report's verdicts and flags or the refusal."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    if code in (0, 4):
        report = json.loads(out.getvalue())
        return code, report["verdicts"], report["flags"]
    return code, err.getvalue()


def _exit_code(*argv):
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(list(argv))


def _at(nz, nt, cmd, *argv):
    return _verdict(cmd, "--order-z", str(nz), "--order-t", str(nt), *argv)


def test_verdicts_are_stable_across_windows():
    for name in NAMES:
        for cmd in ("formal-nf", "classify"):
            first = _at(5, 5, cmd, name)
            assert first[0] in (0, 3), (cmd, name)
            for w in (6, 8, 12, 16):
                assert _at(w, w, cmd, name) == first, (cmd, name, w)
    # below t-order 5 the zero-family pipeline refuses the NF3 fixtures
    for name in NAMES:
        for cmd in ("formal-nf", "classify"):
            got = _at(4, 4, cmd, name)
            if name.startswith("nf3_"):
                assert got == (
                    3, "precondition violation: t-order too small for the zero-family pipeline\n"
                ), (cmd, name)
            elif cmd == "formal-nf" and name in HOLOMORPHIC_ONLY:
                assert got == (3, NOT_NORMALIZED)
            else:
                assert got[0] == 0, (cmd, name)


def test_formal_iso_is_symmetric_and_reflexive():
    got = {(a, b): _at(6, 6, "formal-iso", a, b) for a in NAMES for b in NAMES}
    assert len(got) == 289
    for a, b in got:
        assert got[a, b] == got[b, a], (a, b)
    for a in NAMES:
        if a in HOLOMORPHIC_ONLY:
            assert got[a, a] == (3, NOT_NORMALIZED)
        else:
            assert got[a, a] == (
                0, {"isomorphic": True, "witness": "equal forms (identity gauge)"}, []
            )


def _edit(doc, mat, comp, k, part, n, path):
    """Write doc with one coefficient raised by 7 to path."""
    doc = json.loads(json.dumps(doc))
    row = doc["matrices"][mat][comp][k][part]
    row[n] = str(Scalar.parse(row[n]) + integer(7))
    path.write_text(dumps_document(doc))
    return str(path)


def test_no_verdict_on_a_sample_of_flagged_edits(tmp_path):
    # 200 seeded single-entry edits at (6, 6), half at the top z-order and
    # two thirds in the top two t-orders, on the fixtures and the raw-frame
    # malgrange document: no document command exits 0 on an edit that
    # verify flags
    nz = nt = 6
    raw = tmp_path / "raw.json"
    window = ("--order-z", str(nz), "--order-t", str(nt))
    assert _exit_code(
        "malgrange", *window, "--c0", "2", "--binf", "1/4,2,0,3/4", "--out", str(raw)
    ) == 0
    docs = [structure_to_document(build_fixture(name, nz, nt)) for name in NAMES]
    docs.append(loads_document(raw.read_text()))
    rng = random.Random(18)
    flagged = 0
    for i in range(200):
        doc = rng.choice(docs)
        mat = rng.choice(("A1", "A2", "B"))
        comp = rng.choice(sorted(doc["matrices"][mat]))
        k = nz - 1 if rng.random() < 0.5 else rng.randrange(nz)
        n = rng.choice((nt - 2, nt - 1)) if rng.random() < 2 / 3 else rng.randrange(nt)
        part = rng.randrange(2)
        path = _edit(doc, mat, comp, k, part, n, tmp_path / f"edit{i}.json")
        got = _verdict("verify", path)
        if got[0] == 0 and got[1]["flat"]:
            continue
        flagged += 1
        for cmd in ("prenormal", "formal-nf", "classify"):
            assert _exit_code(cmd, path) != 0, (cmd, i, mat, comp, k, part, n)
    assert flagged > 100


def test_prenormal_refuses_top_z_order_pole_edits(tmp_path):
    # B.e at z^5 t^5 and A2.e at z^5 t^4: verify cannot see these in the
    # NF3 fixtures, the pole check's E component at z^6 does
    for name in NAMES:
        if not name.startswith("nf3_"):
            continue
        doc = structure_to_document(build_fixture(name, 6, 6))
        for mat, n in (("B", 5), ("A2", 4)):
            path = _edit(doc, mat, "e", 5, 0, n, tmp_path / f"{name}_{mat}.json")
            assert _exit_code("prenormal", path) == 3, (name, mat)


def _edited_fixture(name, nz, nt, mat, comp, k, part, n, tmp_path):
    doc = structure_to_document(build_fixture(name, nz, nt))
    return _edit(doc, mat, comp, k, part, n, tmp_path / f"{name}_{mat}_{comp}_{k}_{part}_{n}.json")


# flat top-t-order edits that the pole check refuses: (fixture, window, entry)
IDENTITY_FRAME_EDITS = [
    ("nf3_4", (4, 6), ("A1", "c1", 3, 0, 5)),
    ("nf3_4", (4, 6), ("A1", "c2", 3, 0, 5)),
    ("nf3_4", (4, 6), ("B", "c1", 3, 0, 5)),
    ("nf3_4", (4, 6), ("B", "c1", 3, 1, 5)),
    ("nf3_4", (4, 6), ("B", "e", 3, 0, 5)),
    ("nf3_4", (4, 6), ("A2", "c2", 0, 0, 5)),
] + [(name, (6, 6), ("B", "e", 5, 0, 5)) for name in NAMES if name.startswith("nf3_")]


def test_classify_keeps_the_pre_normal_refusal_of_an_identity_frame(tmp_path):
    # A2 = C2 up to the top t-order reads as a raw frame with x = 0 and
    # y = 1 there, whose reduction only drops that t-order: classify
    # refuses with prenormal's error instead of classifying what is left
    for name, (nz, nt), entry in IDENTITY_FRAME_EDITS:
        path = _edited_fixture(name, nz, nt, *entry, tmp_path)
        got = _verdict("verify", path)
        assert got[0] == 0 and got[1]["flat"], (name, entry)
        refusal = _verdict("prenormal", path)
        assert refusal[0] == 3, (name, entry)
        assert _verdict("classify", path) == refusal, (name, entry)


def test_classify_reads_a_genuine_raw_frame(tmp_path):
    # A2 = (1 + 7 t2^n) C2 below the top t-order is a raw frame y C2 whose
    # base change is not the identity: classify reads it, and NF3-1 keeps
    # its class under the reparametrization
    want = _at(6, 6, "classify", "nf3_1")
    assert want[0] == 0
    for n in range(5):
        path = _edited_fixture("nf3_1", 6, 6, "A2", "c2", 0, 0, n, tmp_path)
        assert _verdict("prenormal", path)[0] == 3, n
        assert _verdict("classify", path) == want, n
