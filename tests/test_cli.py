import contextlib
import hashlib
import io
import json
import subprocess
import sys
from pathlib import Path

import pytest

from connexa import cli
from connexa.connmat import Mat2, TEStruct
from connexa.docio import (
    dumps_document,
    loads_document,
    save_structure,
    structure_from_document,
    structure_to_document,
)
from connexa.errors import DocumentError
from connexa.fixtures import build_fixture, fixture_names, write_fixtures
from connexa.series import AffinePoly1, TSeries, ZTSeries

from conftest import rand_scalar


def _run(*args):
    return subprocess.run(
        [sys.executable, "-m", "connexa.cli", *args],
        capture_output=True,
        text=True,
    )


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


def test_cli_verify_fixture():
    out = _run("--order-z", "6", "--order-t", "6", "verify", "f1_r2")
    assert out.returncode == 0
    data = json.loads(out.stdout)
    assert data["verdicts"]["flat"] is True


def test_cli_classify_and_determinism():
    args = ("--order-z", "8", "--order-t", "8", "classify", "mal2_lambda1")
    out1 = _run(*args)
    out2 = _run(*args)
    assert out1.returncode == 0
    assert out1.stdout == out2.stdout  # byte-identical reports
    data = json.loads(out1.stdout)
    assert data["verdicts"]["pencil"]["c1"] == "15/16"
    assert data["verdicts"]["normal_form"].startswith("HNF-MAL2")


def test_cli_formal_nf_and_iso(tmp_path):
    out = _run("--order-z", "8", "--order-t", "8", "formal-nf", "fminus1")
    data = json.loads(out.stdout)
    assert data["verdicts"]["normal_form"].startswith("F1")
    out = _run(
        "--order-z", "8", "--order-t", "8", "formal-iso", "nf3_3", "nf3_3"
    )
    data = json.loads(out.stdout)
    assert data["verdicts"]["isomorphic"] is True


def test_cli_euler_and_exit_codes():
    out = _run("euler-nf", "--g", "2")
    assert json.loads(out.stdout)["verdicts"]["family"] == "E1"
    out = _run("--order-t", "10", "euler-realizable", "--g", "0,0,1")
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
    out = _run("--order-t", "2", "euler-nf", "--g", "1,2,3")
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
        out = _run(flag, value, "malgrange", "--c0", "1", "--binf", "0,0,0,0")
        assert out.returncode == 2
        assert message in out.stderr
        assert "Traceback" not in out.stderr
    out = _run(flag, "64", "--help")
    assert out.returncode == 0


def _main(*argv):
    """cli.main in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue(), err.getvalue()


def test_cli_order_flags_must_match_a_document(tmp_path):
    # a document keeps its declared window: a flag that differs exits 2
    # naming that window, instead of being ignored
    target = tmp_path / "f1_r2.json"
    save_structure(build_fixture("f1_r2", 6, 6), str(target))
    mismatched = (("--order-z", "8"), ("--order-t", "5"), ("--order-z", "6", "--order-t", "7"))
    for flags in mismatched:
        for cmd in ("verify", "prenormal", "formal-nf", "classify"):
            code, out, err = _main(*flags, cmd, str(target))
            assert code == 2, (flags, cmd)
            assert "(nz, nt) = (6, 6)" in err
            assert out == ""
        code, _out, err = _main(*flags, "formal-iso", "nf3_3", str(target))
        assert code == 2 and "(nz, nt) = (6, 6)" in err
    # flags equal to the window, or none, report on the document's window
    plain = _main("classify", str(target))
    assert plain[0] == 0
    assert _main("--order-z", "6", "--order-t", "6", "classify", str(target)) == plain
    assert _main("--order-t", "6", "classify", str(target)) == plain
    assert _main("--order-z", "6", "--order-t", "6", "classify", "f1_r2") == plain


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
        assert _main(*argv) == _main(*flags, *argv)
    code, out, _err = _main("write-fixtures", str(tmp_path))
    assert code == 0
    doc = loads_document((tmp_path / "nf3_2.json").read_text())
    assert doc["orders"]["nz"] == doc["orders"]["nt"] == 16


DOCUMENT_COMMANDS = {"verify", "prenormal", "formal-nf", "formal-iso", "classify"}

# Each global flag, a value for it, and the commands that read it.
FLAG_READERS = {
    ("--order-z", "6"): DOCUMENT_COMMANDS | {"malgrange", "write-fixtures"},
    ("--order-t", "6"): DOCUMENT_COMMANDS
    | {"malgrange", "euler-nf", "euler-realizable", "write-fixtures"},
    ("--kmax", "2"): {"classify"},
    ("--fixtures", "."): DOCUMENT_COMMANDS,
}


def test_cli_flags_a_command_does_not_read_exit_2(tmp_path):
    # every (flag, command) pair: a flag the command reads runs (exit 0),
    # one it does not read is refused instead of silently ignored
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
        "selftest": ("selftest", "--fast"),
        "write-fixtures": ("write-fixtures", str(tmp_path / "fixtures")),
    }
    refused = 0
    for (flag, value), readers in FLAG_READERS.items():
        for command, argv in runs.items():
            code, out, err = _main(flag, value, *argv)
            if command in readers:
                assert code == 0, (flag, command, err)
            else:
                assert code == 2, (flag, command)
                assert err == f"parse error: {flag} has no effect on {command}\n"
                assert out == ""
                refused += 1
    assert refused == 22  # of the 44 pairs, 22 are read


def test_cli_negative_kmax_exits_2():
    # no k would be searched, so no verdict may be reported
    out = _run("--order-z", "8", "--order-t", "8", "--kmax", "-1", "classify", "mal1")
    assert out.returncode == 2
    assert "bound must be at least 0" in out.stderr
    assert "Traceback" not in out.stderr
    assert out.stdout == ""


def test_cli_nmax_is_not_an_option():
    out = _run("--nmax", "5", "classify", "mal1")
    assert out.returncode == 2
    assert "Traceback" not in out.stderr
    assert "--nmax" not in _run("--help").stdout


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
                argv = ["--order-z", str(nz), "--order-t", str(nt), cmd, name]
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
        "--order-z", "6", "--order-t", "6",
        "malgrange", "--c", "1", "--c0", "2",
        "--binf", "0,2,0,1/2", "--out", str(target),
    )
    assert out.returncode == 0
    verify = _run("verify", str(target))
    assert json.loads(verify.stdout)["verdicts"]["flat"] is True


def test_cli_fixtures_dir(tmp_path):
    write_fixtures(str(tmp_path), 6, 6)
    out = _run("--fixtures", str(tmp_path), "verify", "nf3_5")
    assert out.returncode == 0
    # environment variable route
    import os

    env = dict(os.environ)
    env["CONNEXA_FIXTURES"] = str(tmp_path)
    res = subprocess.run(
        [sys.executable, "-m", "connexa.cli", "verify", "nf3_5.json"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert res.returncode == 0


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
