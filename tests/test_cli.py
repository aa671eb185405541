import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from connexa import cli, docio, selftest
from connexa.connmat import Mat2, TEStruct
from connexa.docio import (
    dumps_document,
    load_structure,
    loads_document,
    save_structure,
    structure_from_document,
    structure_to_document,
)
from connexa.errors import DocumentError
from connexa.fixtures import build_fixture, fixture_names, write_fixtures
from connexa.formalnf import (
    NormalFormId,
    PreNormalForm,
    build_normal_form,
    build_prenormal_struct,
)
from connexa.scalars import S, Scalar, integer
from connexa.series import AffinePoly1, TSeries, ZTSeries

from conftest import rand_scalar
from test_origin import IRREDUCIBILITY_K2


def _json_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=1)


@pytest.fixture(autouse=True)
def writer_matches_json_dumps(monkeypatch):
    """Every report and document the CLI writes in this process is the text
    of ``json.dumps(sort_keys=True, indent=1)``."""
    write = docio.dumps_document

    def checked(obj):
        text = write(obj)
        assert text == _json_dumps(obj)
        return text

    monkeypatch.setattr(docio, "dumps_document", checked)
    monkeypatch.setattr(cli, "dumps_document", checked)


def _run(*args):
    """The CLI in a subprocess; a report or document it prints is the text
    of ``json.dumps(sort_keys=True, indent=1)`` and a newline."""
    out = subprocess.run(
        [sys.executable, "-m", "connexa.cli", *args],
        capture_output=True,
        text=True,
    )
    if out.stdout.startswith("{"):
        assert out.stdout == _json_dumps(json.loads(out.stdout)) + "\n"
    return out


def test_round_trip_fixtures():
    for name in fixture_names():
        s = build_fixture(name, 6, 6)
        doc = structure_to_document(s)
        text = dumps_document(doc)
        back = structure_from_document(loads_document(text))
        assert back == s
        assert dumps_document(structure_to_document(back)) == text


def test_round_trip_random_documents(rng):
    for _ in range(100):
        nz, nt = rng.randint(2, 4), rng.randint(2, 4)

        def r_zt():
            rows = []
            for _ in range(nz):
                rows.append(
                    AffinePoly1(
                        TSeries.of([rand_scalar(rng, 3) for _ in range(nt)], nt),
                        TSeries.of([rand_scalar(rng, 3) for _ in range(nt)], nt),
                    )
                )
            return ZTSeries(tuple(rows))

        s = TEStruct(
            Mat2(r_zt(), r_zt(), r_zt(), r_zt()),
            Mat2(r_zt(), r_zt(), r_zt(), r_zt()),
            Mat2(r_zt(), r_zt(), r_zt(), r_zt()),
            "TE",
        )
        text = dumps_document(structure_to_document(s))
        back = structure_from_document(loads_document(text))
        assert back == s


def test_document_rejections():
    with pytest.raises(DocumentError):
        structure_from_document({"format": "nope"})
    doc = structure_to_document(build_fixture("nf3_1", 4, 4))
    doc["orders"]["t1_degree"] = 2
    with pytest.raises(DocumentError):
        structure_from_document(doc)


def _t1_degree_text(doc):
    doc["orders"]["t1_degree"] = "x"


def _nz_zero(doc):
    doc["orders"]["nz"] = 0
    for mat in doc["matrices"].values():
        for key in mat:
            mat[key] = []


def _scalar_zero_denominator(doc):
    doc["matrices"]["A1"]["c1"][0][0][0] = "1/0"


def _scalar_exponent(doc):
    doc["matrices"]["A1"]["c1"][0][0][0] = "1e400"


def _nz_above_cap(doc):
    # refused at the door, before any coefficient array is read
    doc["orders"]["nz"] = 65


@pytest.mark.parametrize(
    "mutate",
    [_t1_degree_text, _nz_zero, _scalar_zero_denominator, _scalar_exponent, _nz_above_cap],
)
def test_cli_malformed_document_exits_2(tmp_path, mutate):
    doc = structure_to_document(build_fixture("nf3_1", 4, 4))
    mutate(doc)
    target = tmp_path / "bad.json"
    target.write_text(dumps_document(doc))
    out = _run("verify", str(target))
    assert out.returncode == 2
    assert "parse error" in out.stderr
    assert "Traceback" not in out.stderr


def test_cli_t1_degree_zero_with_a_t1_slope_exits_2(tmp_path):
    # f1_r2's B has a t1-slope, so it cannot be declared t1-free
    doc = structure_to_document(build_fixture("f1_r2", 4, 4))
    doc["orders"]["t1_degree"] = 0
    target = tmp_path / "bad.json"
    target.write_text(dumps_document(doc))
    out = _run("classify", str(target))
    assert (out.returncode, out.stdout) == (2, "")
    assert out.stderr == "parse error: t1_degree is 0 but B depends on t1\n"


def test_cli_t1_free_document_declared_degree_zero_loads(tmp_path):
    doc = structure_to_document(build_fixture("f1_r2", 4, 4))
    doc["orders"]["t1_degree"] = 0
    for mat in doc["matrices"].values():
        for comp in mat.values():
            for slot in comp:
                slot[1] = ["0"] * len(slot[1])
    s = structure_from_document(doc)
    assert all(m.is_t1_free() for m in (s.A1, s.A2, s.B))
    target = tmp_path / "free.json"
    target.write_text(dumps_document(doc))
    out = _run("verify", str(target))
    assert out.returncode == 0
    assert json.loads(out.stdout)["verdicts"]["flat"] is False


def test_cli_verify_fixture():
    out = _run("verify", "--order-z", "6", "--order-t", "6", "f1_r2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["verdicts"]["flat"] is True


def test_cli_classify_and_determinism():
    args = ("classify", "--order-z", "8", "--order-t", "8", "mal2_lambda1")
    out1 = _run(*args)
    out2 = _run(*args)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout  # byte-identical reports
    data = json.loads(out1.stdout)
    assert data["verdicts"]["pencil"]["c1"] == "15/16"
    assert data["verdicts"]["normal_form"].startswith("HNF-MAL2")


def test_cli_classify_names_the_real_cause(tmp_path):
    # B's C1 part depends on t2: the raw-frame fallback cannot help, and
    # the report names the pre-normal check, not the fallback's A2 profile
    doc = structure_to_document(build_fixture("f1_r2", 6, 6))
    doc["matrices"]["B"]["c1"][0][0][1] = "7"
    target = tmp_path / "bc1.json"
    target.write_text(dumps_document(doc))
    out = _run("classify", str(target))
    assert out.returncode == 3
    assert out.stderr == "precondition violation: B's C1 part must not depend on t2\n"


def test_cli_classify_refuses_a_non_flat_document(tmp_path):
    # the raw-frame fallback drops one t2-order, so it never saw an edit in
    # the top one: a document verify calls non-flat is refused with the
    # pre-normal check's cause, not classified
    raw = tmp_path / "raw.json"
    out = _run(
        "malgrange", "--order-z", "6", "--order-t", "6",
        "--c0", "2", "--binf", "1/4,2,0,3/4", "--out", str(raw),
    )
    assert out.returncode == 0
    assert _main("classify", str(raw))[0] == 0  # the unedited frame classifies
    nf3 = structure_to_document(build_fixture("nf3_4", 6, 6))
    edits = (
        # (document, matrix, component, z-order, t-order, flagged, cause)
        (nf3, "A1", "c1", 1, 5, "base", "A1 must be C1"),
        (loads_document(raw.read_text()), "B", "e", 5, 4, "pole_2", "A2 must be C2 + z f E"),
    )
    for doc, mat, comp, k, n, flagged, cause in edits:
        doc = json.loads(json.dumps(doc))
        row = doc["matrices"][mat][comp][k][0]
        row[n] = str(Scalar.parse(row[n]) + integer(7))
        target = tmp_path / f"{mat}_{comp}_{k}_{n}.json"
        target.write_text(dumps_document(doc))
        code, out, err = _main("verify", str(target))
        assert code == 0 and json.loads(out)["residuals_zero"][flagged] is False
        for cmd in ("prenormal", "formal-nf", "classify"):
            code, out, err = _main(cmd, str(target))
            assert (code, out) == (3, ""), (cmd, mat, comp, k, n)
            assert err == f"precondition violation: {cause}\n"


def test_cli_classify_below_z_order_3_names_the_window():
    code, out, err = _main("classify", "--order-z", "2", "--order-t", "6", "mal1")
    assert (code, out) == (3, "")
    assert err == (
        "precondition violation: origin pencil reduction needs z-order at "
        "least 3, not 2\n"
    )
    code, out, _err = _main("classify", "--order-z", "3", "--order-t", "6", "mal1")
    assert code == 0 and json.loads(out)["verdicts"]["elementary"] is False


def test_cli_pole_e_component_is_checked_at_the_top_z_order(tmp_path):
    # B.e of f1_r2 written at (6, 6), raised by 7 at z^5 t^0 (the top z-order)
    # or at z^2 t^5 (the top t-order): verify calls the document non-flat,
    # and the pipelines refuse it instead of classifying it as FR
    edits = (
        (5, 0, "E component does not match z b4"),
        (2, 5, "E component does not match z^3 dz(f) + 2 z f B.d"),
    )
    for k, n, cause in edits:
        doc = structure_to_document(build_fixture("f1_r2", 6, 6))
        row = doc["matrices"]["B"]["e"][k][0]
        row[n] = str(Scalar.parse(row[n]) + integer(7))
        target = tmp_path / f"e_{k}_{n}.json"
        target.write_text(dumps_document(doc))
        code, out, err = _main("verify", str(target))
        assert code == 0 and err == ""
        assert json.loads(out)["residuals_zero"] == {
            "base": True, "pole_1": True, "pole_2": False
        }
        for cmd in ("prenormal", "formal-nf", "classify"):
            code, out, err = _main(cmd, str(target))
            assert (code, out) == (3, ""), (cmd, k, n)
            assert err == f"precondition violation: {cause}\n"


def test_cli_formal_nf_and_iso(tmp_path):
    out = _run("formal-nf", "--order-z", "8", "--order-t", "8", "fminus1")
    data = json.loads(out.stdout)
    assert data["verdicts"]["normal_form"].startswith("F1")
    out = _run(
        "formal-iso", "--order-z", "8", "--order-t", "8", "nf3_3", "nf3_3"
    )
    data = json.loads(out.stdout)
    assert data["verdicts"]["isomorphic"] is True


def test_cli_euler_and_exit_codes():
    out = _run("euler-nf", "--g", "2")
    assert json.loads(out.stdout)["verdicts"]["family"] == "E1"
    out = _run("euler-realizable", "--order-t", "10", "--g", "0,0,1")
    data = json.loads(out.stdout)
    assert data["verdicts"]["family"] == "E4"
    assert data["verdicts"]["realizable"] is True
    # flagged decision exits 4
    out = _run("birkhoff-iso", "--left", "0,0,1,0", "--right", "0,0,-1,0")
    assert out.returncode == 4
    # parse error exits 2
    out = _run("verify", "no_such_fixture_name")
    assert out.returncode == 2
    # precondition violation exits 3
    out = _run("birkhoff-iso", "--left", "0,0,0,0", "--right", "0,0,1,0")
    assert out.returncode == 3


def test_cli_euler_gaussian_root():
    # 2 + 11i = (2 + i)^3, the leading coefficient of an E4 field with r = 4
    out = _run("euler-nf", "--g", "0,0,0,0,2+11*i")
    data = json.loads(out.stdout)
    assert out.returncode == 0
    assert data["verdicts"]["automorphism_found"] is True
    assert data["warnings"] == []


def test_cli_exponent_literal_exits_2():
    # the text form has no exponent; "1e400" would be a 401-digit integer.
    # An empty part is no literal either: dropping it would read "0,,1" as t
    for g in ("1e400,1", "1,1E400*i", "0,,1", ",1", "1,2,"):
        out = _run("euler-nf", f"--g={g}")
        assert out.returncode == 2
        assert "parse error" in out.stderr
        assert "Traceback" not in out.stderr


def test_cli_series_longer_than_order_exits_2():
    out = _run("euler-nf", "--order-t", "2", "--g", "1,2,3")
    assert out.returncode == 2
    assert "parse error" in out.stderr
    assert "Traceback" not in out.stderr


@pytest.mark.parametrize("flag", ["--order-z", "--order-t"])
def test_cli_order_below_one_exits_2(flag):
    # the cap, 4 x the default window of 16, refuses runs without bound
    for value, message in (
        ("0", "order must be at least 1"),
        ("-1", "order must be at least 1"),
        ("65", "order must be at most 64"),
        ("100000", "order must be at most 64"),
    ):
        out = _run("malgrange", flag, value, "--c0", "1", "--binf", "0,0,0,0")
        assert out.returncode == 2
        assert message in out.stderr
        assert "Traceback" not in out.stderr
    out = _run("malgrange", flag, "64", "--help")
    assert out.returncode == 0


@pytest.mark.parametrize(
    "argv, kind",
    [
        (("malgrange", "--order-z", "{}", "--c0", "1", "--binf", "0,0,0,0"), "positive_int"),
        (("euler-nf", "--order-t", "{}", "--g", "1"), "positive_int"),
        (("classify", "--kmax", "{}", "mal1"), "nonnegative_int"),
    ],
    ids=["order-z", "order-t", "kmax"],
)
def test_cli_integer_flags_take_ascii_digits_only(argv, kind):
    # int() reads "1_6" as 16 and also accepts padding, a "+" sign and
    # non-ASCII digits; a flag value is an optional "-" and ASCII digits
    for value in ("1_6", " 8", "8 ", "+8", "\u0668", "\uff18", "8.0", "0x8", ""):
        code, out, err = _main(*(a.format(value) for a in argv))
        assert (code, out) == (2, ""), value
        assert f"invalid {kind} value: {value!r}" in err
        assert "Traceback" not in err
    code, out, err = _main(*(a.format("08") for a in argv))
    assert (code, err) == (0, "")


def _main(*argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(list(argv))
        except SystemExit as exc:  # argparse refused the command line
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_cli_kmax_heads_the_classify_log_of_every_structure():
    # the elementary branch once returned before the search ran, so --kmax
    # left its report unchanged
    elementary = 0
    for name in fixture_names():
        code, plain, _err = _main("classify", "--order-z", "6", "--order-t", "6", name)
        code_k, searched, _err = _main(
            "classify", "--order-z", "6", "--order-t", "6", "--kmax", "2", name
        )
        assert code == code_k == 0
        plain, searched = json.loads(plain), json.loads(searched)
        head = searched["transform_log"].pop(0)
        assert head == f"eigen-section search: {IRREDUCIBILITY_K2[name][0]}", name
        if plain["verdicts"]["elementary"]:
            assert searched == plain, name
            elementary += 1
    assert elementary == 13


def test_cli_kmax_finds_the_eigen_section_of_an_elementary_structure(tmp_path):
    # f = 0, b2 = 2 t2 + 3z: eta(0) = b2(0, 0) = 0, and R = -1 at k = 0
    # solves the equation (z * 3 - 3z * 1 = 0), so the search is no
    # certificate of irreducibility here
    nz, nt = 6, 6
    b2 = ZTSeries.t2(nz, nt).scale(integer(2)) + ZTSeries.z_monomial(integer(3), 1, nz, nt)
    p = PreNormalForm(ZTSeries.zero(nz - 1, nt), b2, S(0), S(0))
    doc = tmp_path / "f0.json"
    save_structure(build_prenormal_struct(p), str(doc))
    code, plain, _err = _main("classify", str(doc))
    code_k, searched, _err = _main("classify", "--kmax", "2", str(doc))
    assert code == code_k == 0
    plain, searched = json.loads(plain), json.loads(searched)
    assert plain["verdicts"]["elementary"]
    assert searched["transform_log"].pop(0) == "eigen-section search: reducible"
    assert searched == plain


def test_cli_kmax_past_the_window_order_changes_nothing():
    # no eigen-section exists for |k| past the origin window order, and the
    # search stops there: a ten-digit bound once ran for hours
    code, wide, _err = _main("classify", "--kmax", "1000000000", "fminus1")
    assert (code, wide) == _main("classify", "--kmax", "16", "fminus1")[:2]
    assert json.loads(wide)["transform_log"][0] == "eigen-section search: irreducible"


# classify's report on f = 2, b2 = 1 - t2/2 at (6, 6): c0^2 = 2 has no
# root in Q(i), so the pencil is reported by its invariants alone
NO_ROOT_REPORT = """{
 "command": "classify",
 "flags": [],
 "normal_forms": [],
 "residuals_zero": {},
 "transform_log": [
  "already a pencil"
 ],
 "verdicts": {
  "elementary": false,
  "invariants": {
   "alpha": "0",
   "c": "0",
   "c0_c1": "0",
   "c0_squared": "2"
  }
 },
 "warnings": [
  "normalized c0 needs sqrt(2) outside Q(i); use the invariant route instead"
 ]
}
"""


def test_cli_classify_reports_invariants_when_c0_has_no_root(tmp_path):
    nz, nt = 6, 6
    f = ZTSeries.const(integer(2), nz - 1, nt)
    b2 = ZTSeries.one(nz, nt) - ZTSeries.t2(nz, nt).scale(S("1/2"))
    doc = tmp_path / "no_root.json"
    save_structure(build_prenormal_struct(PreNormalForm(f, b2, S(0), S(0))), str(doc))
    assert _main("classify", str(doc)) == (0, NO_ROOT_REPORT, "")


def test_cli_order_flags_must_match_a_document(tmp_path):
    # a document keeps its declared window: a flag that differs exits 2
    # naming that window, instead of being ignored
    target = tmp_path / "f1_r2.json"
    save_structure(build_fixture("f1_r2", 6, 6), str(target))
    mismatched = (("--order-z", "8"), ("--order-t", "5"), ("--order-z", "6", "--order-t", "7"))
    for flags in mismatched:
        for cmd in ("verify", "prenormal", "formal-nf", "classify"):
            code, out, err = _main(cmd, *flags, str(target))
            assert code == 2, (flags, cmd)
            assert "(nz, nt) = (6, 6)" in err
            assert out == ""
        code, _out, err = _main("formal-iso", *flags, "nf3_3", str(target))
        assert code == 2 and "(nz, nt) = (6, 6)" in err
    # flags equal to the window, or none, report on the document's window
    plain = _main("classify", str(target))
    assert plain[0] == 0
    assert _main("classify", "--order-z", "6", "--order-t", "6", str(target)) == plain
    assert _main("classify", "--order-t", "6", str(target)) == plain
    assert _main("classify", "--order-z", "6", "--order-t", "6", "f1_r2") == plain


def test_cli_orders_default_to_16_without_flags(tmp_path):
    # fixtures and the series commands still default to the (16, 16) window
    # (euler-nf reads no z-order)
    z16, t16 = ("--order-z", "16"), ("--order-t", "16")
    for flags, argv in (
        (z16 + t16, ("verify", "nf3_2")),
        (z16 + t16, ("formal-nf", "nf3_2")),
        (t16, ("euler-nf", "--g", "0,1")),
        (z16 + t16, ("malgrange", "--c0", "1", "--binf", "0,1,0,1/2")),
    ):
        assert _main(*argv) == _main(argv[0], *flags, *argv[1:])
    code, out, _err = _main("write-fixtures", str(tmp_path))
    assert code == 0
    doc = loads_document((tmp_path / "nf3_2.json").read_text())
    assert doc["orders"]["nz"] == doc["orders"]["nt"] == 16


DOCUMENT_COMMANDS = {"verify", "prenormal", "formal-nf", "formal-iso", "classify"}

# Each window or search flag, a value for it, and the commands that read it.
FLAG_READERS = {
    ("--order-z", "6"): DOCUMENT_COMMANDS | {"malgrange", "write-fixtures"},
    ("--order-t", "6"): DOCUMENT_COMMANDS
    | {"malgrange", "euler-nf", "euler-realizable", "write-fixtures"},
    ("--kmax", "2"): {"classify"},
}


def test_cli_flags_a_command_does_not_read_exit_2(tmp_path):
    # every (flag, command) pair: a flag the command reads runs (exit 0),
    # one it does not read is refused by the parser instead of silently
    # ignored, and so is every flag before the command
    doc = str(tmp_path / "f1_r2.json")
    save_structure(build_fixture("f1_r2", 6, 6), doc)
    runs = {  # one quick run of each command, on the (6, 6) document
        "verify": ("verify", doc),
        "prenormal": ("prenormal", doc),
        "formal-nf": ("formal-nf", doc),
        "formal-iso": ("formal-iso", doc, doc),
        "classify": ("classify", doc),
        "birkhoff-iso": ("birkhoff-iso", "--left", "0,0,1,0", "--right", "0,0,1,1"),
        "malgrange": ("malgrange", "--c0", "1", "--binf", "0,1,0,1/2",
                      "--out", str(tmp_path / "universal.json")),
        "euler-nf": ("euler-nf", "--g", "0,1"),
        "euler-realizable": ("euler-realizable", "--g", "0,0,1"),
        "selftest": ("selftest",),
        "write-fixtures": ("write-fixtures", str(tmp_path / "fixtures")),
    }
    refused = 0
    for (flag, value), readers in FLAG_READERS.items():
        for command, (name, *rest) in runs.items():
            code, out, err = _main(name, flag, value, *rest)
            if command in readers:
                assert code == 0, (flag, command, err)
            else:
                assert (code, out) == (2, ""), (flag, command)
                assert f"error: unrecognized arguments: {flag}" in err
                assert "Traceback" not in err
                refused += 1
            code, out, err = _main(flag, value, name, *rest)
            assert (code, out) == (2, ""), (flag, command)
            assert "Traceback" not in err
    assert refused == 16  # of the 33 pairs, 17 are read
    for argv in (("--fixtures", ".", "verify", doc), ("verify", "--fixtures", ".", doc)):
        code, out, err = _main(*argv)
        assert (code, out) == (2, "") and "Traceback" not in err


def test_cli_unwritable_paths_exit_2(tmp_path):
    # nothing can be created under a regular file: one line, exit 2
    blocker = tmp_path / "file"
    blocker.write_text("")
    for argv in (
        ("malgrange", "--c0", "1", "--binf", "0,1,0,1/2", "--out", str(blocker / "x.json")),
        ("write-fixtures", "--order-z", "4", "--order-t", "4", str(blocker / "x")),
    ):
        code, out, err = _main(*argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("I/O error: ") and err.count("\n") == 1


def test_cli_negative_kmax_exits_2():
    # no k would be searched, so no verdict may be reported
    out = _run("classify", "--order-z", "8", "--order-t", "8", "--kmax", "-1", "mal1")
    assert out.returncode == 2
    assert "bound must be at least 0" in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_cli_nmax_is_not_an_option():
    out = _run("--nmax", "5", "classify", "mal1")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "--nmax" not in _run("--help").stdout


def test_cli_selftest_reports_every_criterion():
    code, out, err = _main("selftest")
    assert code == 0
    verdicts = json.loads(out)["verdicts"]
    assert [name for name, _fn in selftest.CRITERIA] + ["all"] == list(verdicts)
    assert len(verdicts) == 10 and all(v is True for v in verdicts.values())
    assert err.count("pass  ") == 9 and "FAIL" not in err


def test_cli_selftest_exits_1_on_a_failed_criterion(monkeypatch):
    # every criterion is stubbed so the run is quick; the fourth fails
    criteria = [(name, lambda: (True, "stub")) for name, _fn in selftest.CRITERIA]
    failing = criteria[3][0]
    criteria[3] = (failing, lambda: (False, "forced failure"))
    monkeypatch.setattr(selftest, "CRITERIA", criteria)
    code, out, err = _main("selftest")
    assert code == cli.EXIT_FAILED == 1
    verdicts = json.loads(out)["verdicts"]
    assert verdicts["all"] is False
    assert [name for name, passed in verdicts.items() if not passed] == [failing, "all"]
    assert f"FAIL  {failing}  forced failure\n" in err


def test_cli_selftest_fast_is_not_an_option():
    out = _run("selftest", "--fast")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr


# Windows too small for some fixture: each run either completes or is
# refused as a precondition violation, never with an escaped exception.
SMALL_WINDOWS = [
    (1, 16), (2, 16), (3, 16), (16, 1), (16, 2), (16, 3), (16, 4), (1, 1), (2, 2)
]


def test_cli_small_windows_never_raise():
    codes = {}
    for nz, nt in SMALL_WINDOWS:
        for name in fixture_names():
            for cmd in ("verify", "prenormal", "formal-nf", "classify"):
                argv = [cmd, "--order-z", str(nz), "--order-t", str(nt), name]
                with contextlib.redirect_stdout(io.StringIO()):
                    with contextlib.redirect_stderr(io.StringIO()):
                        code = cli.main(argv)
                assert code in (0, 3, 4), argv
                codes[code] = codes.get(code, 0) + 1
    assert sum(codes.values()) == 4 * 17 * 9
    assert codes[0] and codes[3]


def test_cli_malgrange_document(tmp_path):
    target = tmp_path / "univ.json"
    out = _run(
        "malgrange", "--order-z", "6", "--order-t", "6",
        "--c", "1", "--c0", "2",
        "--binf", "0,2,0,1/2", "--out", str(target),
    )
    assert out.returncode == 0
    verify = _run("verify", str(target))
    assert json.loads(verify.stdout)["verdicts"]["flat"] is True


@pytest.mark.parametrize("binf", ["0,0,0,0", "0,1,0,1/2"])
def test_cli_malgrange_refuses_z_order_one(tmp_path, binf):
    # the document at z-order 1 was once written (binf = 0), though every
    # document command refuses it, or refused with a series-internal text
    target = tmp_path / "univ.json"
    code, out, err = _main(
        "malgrange", "--order-z", "1", "--c0", "1", f"--binf={binf}", "--out", str(target)
    )
    assert (code, out) == (3, "")
    assert err == (
        "precondition violation: the universal deformation needs z-order"
        " at least 2, not 1\n"
    )
    assert not target.exists()
    code, _out, err = _main("malgrange", "--order-z", "2", "--c0", "1", f"--binf={binf}")
    assert (code, err) == (0, "")


def test_cli_malgrange_writes_only_documents_that_load(tmp_path):
    # the writer refuses what the reader refuses: a plane over a common
    # denominator past MAX_DEN_BITS, or a literal past the int/str
    # conversion limit, once escaped as a traceback from the writer
    big = f"{3**620}/{7**350}"  # 296-digit numerator and denominator
    mid = f"{3**84}/{7**48}"  # 41 digits over 41: enough at the largest window
    cases = [
        ((), "2", "0,2,0,1/2", 0),
        ((), f"{3**40}/{7**20}", f"1/{3**20},{5**30}/7,{2**50}/11,1/13", 0),
        ((), big, ",".join([f"{3**150}/{7**85}"] * 4), 2),
        ((), str(2**2040), f"1,{2**2000},2,3", 2),  # integers only, 615 digits
        (("--order-t", "64"), mid, ",".join([mid] * 4), 2),
    ]
    for i, (window, c0, binf, want) in enumerate(cases):
        target = tmp_path / f"m{i}.json"
        code, out, err = _main(
            "malgrange", *window, f"--c0={c0}", f"--binf={binf}", "--out", str(target)
        )
        assert (code, out) == (want, ""), (i, err)
        if code == 0:
            load_structure(str(target))
        else:
            assert err.startswith("parse error: ") and err.count("\n") == 1, err
            assert ("4096 bits" in err) != ("4300 digits" in err), err
            assert not target.exists()


# Exit code and stdout digest of every fixture report at the CLI's default
# (16, 16) window, as recorded for the benchmark.
RECORDED = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def test_fixture_reports_match_recording(tmp_path):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))["fixture-reports"]
    write_fixtures(str(tmp_path), 16, 16)
    checked = 0
    for name in fixture_names():
        for cmd in ("verify", "prenormal", "formal-nf", "classify"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(
                io.StringIO()
            ):
                code = cli.main([cmd, str(tmp_path / f"{name}.json")])
            digest = hashlib.sha256(out.getvalue().encode("utf-8")).hexdigest()
            assert [code, digest] == recorded[f"{cmd} {name}"], (cmd, name)
            checked += 1
    assert checked == 68


WINDOW_WARNING = "resonant order beyond the z-window; tail coefficient reported as 0"


def test_cli_normal_form_below_its_resonant_order(tmp_path):
    # NF3-4 with the integral slope 3 reads back as NF3-5(lam=3), whose
    # resonant monomial z^3 t2^2 lies outside a z-window of 3: the target
    # drops it, and the window warning says so
    for nz, lam, warned in ((3, 3, True), (4, 3, False), (6, 10**30, True)):
        nfid = NormalFormId("NF3-4", dict(c=S(0), alpha=S(0), lam=S(lam)))
        target = tmp_path / f"nf3_4_{nz}_{lam}.json"
        save_structure(build_normal_form(nfid, nz, 6), str(target))
        code, out, _err = _main("verify", str(target))
        assert code == 0 and json.loads(out)["verdicts"]["flat"] is True
        for cmd in ("formal-nf", "classify"):
            code, out, err = _main(cmd, str(target))
            assert (code, err) == (0, ""), (cmd, nz)
            report = json.loads(out)
            assert report["verdicts"]["normal_form"] == (
                f"NF3-5(alpha=0, c=0, gamma=0, lam={lam})"
            )
            assert report["warnings"] == ([WINDOW_WARNING] if warned else [])


def test_cli_fixture_below_its_resonant_order():
    # nf3_6 is NF3-6(lam=2): at --order-z 2 its z^2 t2^2 monomial is
    # outside the window, which reads as NF3-7 with the window warning
    window = ("--order-z", "2", "--order-t", "6")
    code, out, _err = _main("verify", *window, "nf3_6")
    assert code == 0 and json.loads(out)["verdicts"]["flat"] is True
    for cmd in ("formal-nf", "classify"):
        code, out, err = _main(cmd, *window, "nf3_6")
        assert (code, err) == (0, ""), cmd
        report = json.loads(out)
        assert report["verdicts"]["normal_form"] == "NF3-7(alpha=0, c=0, lam=2)"
        assert report["warnings"] == [WINDOW_WARNING]


def _height(text: str) -> int:
    """Bits of the literals' real and imaginary numerators and denominators."""
    xs = [Scalar.parse(p) for p in text.split(",")]
    return sum(x.a.bit_length() + x.b.bit_length() + x.d.bit_length() for x in xs)


# Each scalar argument, with one literal {} that fills the budget, and the
# rest of a command line that runs quickly at the budget.
BUDGETED = [
    ("--g", "{}", ("euler-nf",)),
    ("--g", "0,0,1,{}/3", ("euler-realizable",)),
    ("--c", "{}", ("euler-nf", "--g=1")),
    ("--c", "-{}*i", ("malgrange", "--c0=1", "--binf=0,2,0,1/2")),
    ("--c0", "1/{}", ("malgrange", "--binf=0,2,0,1/2")),
    ("--binf", "0,{},0,1/2", ("malgrange", "--c0=1")),
    ("--left", "{},0,1,0", ("birkhoff-iso", "--right=1,0,1,0")),
    ("--right", "1,0,{},0", ("birkhoff-iso", "--left=1,0,1,0")),
]


@pytest.mark.parametrize("flag, value, command", BUDGETED, ids=[b[0] for b in BUDGETED])
def test_scalar_argument_height_budget(monkeypatch, flag, value, command):
    # at MAX_ARG_BITS the command runs; one bit past it, it exits 2 with one
    # line naming the budget before any computation starts
    rest = value.format(1)
    base = _height(rest) - 1  # the literal 1 contributes one numerator bit
    at = value.format(2 ** (cli.MAX_ARG_BITS - base - 1))
    past = value.format(2 ** (cli.MAX_ARG_BITS - base))
    assert (_height(at), _height(past)) == (cli.MAX_ARG_BITS, cli.MAX_ARG_BITS + 1)
    code, out, err = _main(*command, f"{flag}={at}")
    assert (code, err) == (0, "") and out
    for name in ("euler_normal_form", "malgrange_xy", "birkhoff_iso_decision"):
        monkeypatch.setattr(cli, name, None)  # computing now raises TypeError
    code, out, err = _main(*command, f"{flag}={past}")
    assert (code, out) == (2, "")
    assert err == f"parse error: {flag} exceeds the height budget of {cli.MAX_ARG_BITS} bits\n"


def test_benchmark_argument_pool_is_within_the_budget(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
    import workloads

    pool = workloads.fixture_pool()
    seen = 0
    for argvs in pool.values():
        for argv in argvs:
            for arg in argv[1:]:
                flag, value = arg.split("=", 1)
                assert _height(value) <= cli.MAX_ARG_BITS // 20, arg
                seen += 1
    assert seen == 32 * 2 * 2 + 32 * 2 + 16 * 3


def test_malgrange_arguments_once_refused_by_the_writer_stop_at_the_budget(monkeypatch):
    # arguments that once ran malgrange to the end and were then refused by
    # its writer now stop at the argument budget, before malgrange_xy
    monkeypatch.setattr(cli, "malgrange_xy", None)  # computing now raises TypeError
    big = f"{3**620}/{7**350}"
    cases = [
        ("--binf", big, ",".join([big] * 4)),
        ("--binf", str(7**1800), f"1,{7**1800},2,3"),
        ("--c0", str(7**1800), "0,2,0,1/2"),
    ]
    for flag, c0, binf in cases:
        code, out, err = _main("malgrange", f"--c0={c0}", f"--binf={binf}")
        assert (code, out) == (2, "")
        assert err == f"parse error: {flag} exceeds the height budget of {cli.MAX_ARG_BITS} bits\n"
