"""Metamorphic checks of the document commands: verdicts that must not
depend on the coefficient window, or on the order of formal-iso's operands."""

import contextlib
import io
import json

from connexa import cli
from connexa.fixtures import fixture_names

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


def _at(nz, nt, *argv):
    return _verdict("--order-z", str(nz), "--order-t", str(nt), *argv)


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
