"""Batch front door: parse structure documents, run pipelines, emit reports.

Each command declares the flags it reads, so a flag it does not read is a
parse error.  Exit codes: 0 success, 1 a failed selftest criterion, 2 parse
error or a path that cannot be read or written, 3 precondition violation,
4 known criterion discrepancy flagged by a decision certificate.
"""

from __future__ import annotations

import argparse
import re
import sys
from functools import cache

from . import selftest
from .connmat import ConstMat, flatness_residuals
from .docio import (
    DEFAULT_ORDER,
    Report,
    dumps_document,
    structure_to_document,
)
from .errors import DocumentError, ExactAlgebraError
from .euler import EulerField, euler_normal_form, realizable_by_te, frobenius_realizable
from .fixtures import resolve_structure, write_fixtures
from .formalnf import formal_iso_decision, formal_normal_form, to_prenormal
from .malgrange import classify_holomorphic, malgrange_connection, malgrange_xy
from .origin import BirkhoffData, birkhoff_iso_decision
from .scalars import Scalar
from .series import MAX_ORDER, TSeries

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_PARSE = 2
EXIT_PRECONDITION = 3
EXIT_FLAGGED = 4


# Largest height, in bits, of one scalar argument (--g, --c, --c0, --binf,
# --left, --right): the bit lengths of every literal's canonical real and
# imaginary numerators and denominator, summed.  Time grows with it, not
# only with the orders: 64 --g coefficients of 400 digits over 400 digits
# keep euler-nf busy for minutes at --order-t 64, and the slowest --g found
# within the budget, t2^3 + t2^4/q with q of 2,040 bits, about 10 s on a
# 2-vCPU host.  The benchmark's argument pool stays under 100 bits.
MAX_ARG_BITS = 2048


def _parse_scalars(flag: str, parts: list[str]) -> list[Scalar]:
    """The literals of an argument, parsed and refused past the height
    budget before the command computes anything."""
    xs = [Scalar.parse(p) for p in parts]
    if sum(x.a.bit_length() + x.b.bit_length() + x.d.bit_length() for x in xs) > MAX_ARG_BITS:
        raise DocumentError(f"{flag} exceeds the height budget of {MAX_ARG_BITS} bits")
    return xs


def _parse_scalar(flag: str, text: str) -> Scalar:
    return _parse_scalars(flag, [text])[0]


def _parse_series(text: str, order: int) -> TSeries:
    parts = text.split(",")  # every part is parsed: an empty one is refused
    if len(parts) > order:
        raise DocumentError(f"{len(parts)} coefficients exceed the order {order}")
    return TSeries.of(_parse_scalars("--g", parts), order)


_INTEGER = re.compile(r"-?[0-9]+")


def _integer(text: str) -> int:
    """A decimal integer in ASCII digits: int() alone would also read
    "1_6", " 8" and non-ASCII digits."""
    if not _INTEGER.fullmatch(text):
        raise ValueError(text)
    return int(text)


def positive_int(text: str) -> int:
    n = _integer(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"order must be at least 1, not {n}")
    if n > MAX_ORDER:
        raise argparse.ArgumentTypeError(
            f"order must be at most {MAX_ORDER}, not {n}"
        )
    return n


def nonnegative_int(text: str) -> int:
    n = _integer(text)
    if n < 0:
        raise argparse.ArgumentTypeError(f"bound must be at least 0, not {n}")
    return n


def _nf_entry(nfid) -> dict:
    return {
        "family": nfid.family,
        "params": {k: str(v) for k, v in sorted(nfid.params.items())},
    }


def _emit(report: Report, code: int = EXIT_OK) -> int:
    print(report.render())
    if code == EXIT_OK and report.flags:
        return EXIT_FLAGGED
    return code


def cmd_verify(args) -> int:
    s = resolve_structure(args.path, args.order_z, args.order_t)
    rep = flatness_residuals(s)
    out = Report("verify")
    out.verdicts["flat"] = rep.flat
    out.residuals_zero = {
        "base": rep.rt.is_zero(),
        "pole_1": rep.rz1.is_zero() if rep.rz1 is not None else None,
        "pole_2": rep.rz2.is_zero() if rep.rz2 is not None else None,
    }
    return _emit(out)


def cmd_prenormal(args) -> int:
    s = resolve_structure(args.path, args.order_z, args.order_t)
    p, sigma = to_prenormal(s)
    out = Report("prenormal")
    out.verdicts["c"] = str(p.c)
    out.verdicts["alpha"] = str(p.alpha)
    f00, b200 = p.at_origin()
    out.verdicts["f_at_origin"] = str(f00)
    out.verdicts["b2_at_origin"] = str(b200)
    # to_prenormal refuses data off the pole check, which implies the master equation
    out.residuals_zero["master_equation"] = True
    out.transform_log.append(
        "identity" if sigma.is_zero() else "scalar exponential gauge clearing the trace tail"
    )
    return _emit(out)


def cmd_formal_nf(args) -> int:
    s = resolve_structure(args.path, args.order_z, args.order_t)
    cls = formal_normal_form(to_prenormal(s)[0])
    out = Report("formal-nf")
    out.normal_forms.append(_nf_entry(cls.normal_form))
    for partner in cls.isomorphic_forms:
        out.normal_forms.append(_nf_entry(partner))
    out.verdicts["normal_form"] = cls.normal_form.describe()
    out.verdicts["isomorphic_partners"] = len(cls.isomorphic_forms)
    out.transform_log = list(cls.step_kinds)
    out.warnings = list(cls.warnings)
    return _emit(out)


def cmd_formal_iso(args) -> int:
    sa = resolve_structure(args.path_a, args.order_z, args.order_t)
    sb = resolve_structure(args.path_b, args.order_z, args.order_t)
    na = formal_normal_form(to_prenormal(sa)[0]).normal_form
    nb = formal_normal_form(to_prenormal(sb)[0]).normal_form
    dec = formal_iso_decision(na, nb)
    out = Report("formal-iso")
    out.normal_forms = [_nf_entry(na), _nf_entry(nb)]
    out.verdicts["isomorphic"] = dec.isomorphic
    out.verdicts["witness"] = dec.witness
    out.flags = list(dec.flags)
    return _emit(out)


def cmd_classify(args) -> int:
    s = resolve_structure(args.path, args.order_z, args.order_t)
    rep = classify_holomorphic(s, k_max=args.kmax)
    out = Report("classify")
    out.verdicts["elementary"] = rep.elementary
    if rep.normal_form is not None:
        out.normal_forms.append(_nf_entry(rep.normal_form))
        out.verdicts["normal_form"] = rep.normal_form.describe()
    if rep.pencil is not None:
        out.verdicts["pencil"] = {
            "c": str(rep.pencil.c),
            "alpha": str(rep.pencil.alpha),
            "c0": str(rep.pencil.c0),
            "c1": str(rep.pencil.c1),
        }
    if rep.invariants is not None:
        c, alpha, ssq, u = rep.invariants
        out.verdicts["invariants"] = {
            "c": str(c),
            "alpha": str(alpha),
            "c0_squared": str(ssq),
            "c0_c1": str(u),
        }
    if rep.formal_vs_holo is not None:
        out.verdicts["isomorphic_to_formal_normal_form"] = rep.formal_vs_holo.isomorphic
        out.flags.extend(rep.formal_vs_holo.flags)
    out.warnings = list(rep.warnings)
    out.transform_log = list(rep.notes)
    return _emit(out)


def cmd_birkhoff_iso(args) -> int:
    left = _parse_scalars("--left", args.left.split(","))
    right = _parse_scalars("--right", args.right.split(","))
    if len(left) != 4 or len(right) != 4:
        raise DocumentError("tuples must be c,alpha,c0,c1")
    d1 = BirkhoffData(*left)
    d2 = BirkhoffData(*right)
    rep = birkhoff_iso_decision(d1, d2)
    out = Report("birkhoff-iso")
    out.verdicts["isomorphic"] = rep.isomorphic
    out.verdicts["certificate"] = rep.certificate
    out.verdicts["n"] = rep.n
    out.verdicts["n_bound"] = rep.n_bound
    out.flags = list(rep.flags)
    return _emit(out)


def cmd_malgrange(args) -> int:
    entries = _parse_scalars("--binf", args.binf.split(","))
    if len(entries) != 4:
        raise DocumentError("binf must be b11,b12,b21,b22")
    c0, c = _parse_scalar("--c0", args.c0), _parse_scalar("--c", args.c)
    st = malgrange_xy(ConstMat.from_entries(*entries), c0, args.order_t)
    s = malgrange_connection(st, c, args.order_z)
    text = dumps_document(structure_to_document(s))
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)
    return EXIT_OK


def _euler_report(args):
    """Parse --c and --g, normalize the Euler field, and start the report
    with its family and parameters."""
    g = _parse_series(args.g, args.order_t)
    nz = euler_normal_form(EulerField(_parse_scalar("--c", args.c), g))
    out = Report(args.command)
    out.verdicts["family"] = nz.normal_form.family
    out.verdicts["params"] = {
        k: str(v) for k, v in sorted(nz.normal_form.params.items())
    }
    return out, nz


def cmd_euler_nf(args) -> int:
    out, nz = _euler_report(args)
    out.verdicts["automorphism_found"] = nz.lam is not None
    out.warnings = list(nz.notes)
    return _emit(out)


def cmd_euler_realizable(args) -> int:
    out, nz = _euler_report(args)
    out.verdicts["realizable"] = realizable_by_te(nz.normal_form)
    out.verdicts["frobenius_realizable"] = frobenius_realizable(nz.normal_form)
    return _emit(out)


def cmd_selftest(args) -> int:
    results = selftest.run_all()
    out = Report("selftest")
    ok = True
    for name, passed, detail in results:
        line = f"{'pass' if passed else 'FAIL'}  {name}  {detail}"
        print(line, file=sys.stderr)
        out.verdicts[name] = passed
        ok = ok and passed
    out.verdicts["all"] = ok
    print(out.render())
    return EXIT_OK if ok else EXIT_FAILED


def cmd_write_fixtures(args) -> int:
    paths = write_fixtures(args.directory, args.order_z, args.order_t)
    out = Report("write-fixtures")
    out.verdicts["written"] = len(paths)
    return _emit(out)


def _window(default: int | None, *axes: str) -> argparse.ArgumentParser:
    """A parent parser with the truncation-order flags of axes ("z", "t2")."""
    keeps = "; a document keeps its own, and a different value exits 2"
    p = argparse.ArgumentParser(add_help=False)
    for axis in axes:
        p.add_argument(
            f"--order-{axis[0]}",
            type=positive_int,
            default=default,
            help=f"{axis} truncation order (default {DEFAULT_ORDER})"
            + (keeps if default is None else ""),
        )
    return p


@cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after.  Each
    command declares exactly the flags it reads."""
    ap = argparse.ArgumentParser(
        prog="connexa",
        description="Exact classification of rank-2 pole-order-1 structures "
        "over the nilpotent base germ",
    )
    document = [_window(None, "z", "t2")]  # None: a document keeps its own window
    window = [_window(DEFAULT_ORDER, "z", "t2")]
    t_window = [_window(DEFAULT_ORDER, "t2")]
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", parents=document, help="flatness residuals of a document")
    p.add_argument("path")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("prenormal", parents=document, help="reduce to pre-normal shape")
    p.add_argument("path")
    p.set_defaults(fn=cmd_prenormal)

    p = sub.add_parser("formal-nf", parents=document, help="formal normal form")
    p.add_argument("path")
    p.set_defaults(fn=cmd_formal_nf)

    p = sub.add_parser("formal-iso", parents=document, help="formal isomorphism decision")
    p.add_argument("path_a")
    p.add_argument("path_b")
    p.set_defaults(fn=cmd_formal_iso)

    p = sub.add_parser("classify", parents=document, help="full holomorphic classification")
    p.add_argument(
        "--kmax",
        type=nonnegative_int,
        default=None,
        help="eigen-section search bound, |k| <= min(kmax, origin window order)",
    )
    p.add_argument("path")
    p.set_defaults(fn=cmd_classify)

    p = sub.add_parser("birkhoff-iso", help="pencil isomorphism from tuples")
    p.add_argument("--left", required=True, help="c,alpha,c0,c1")
    p.add_argument("--right", required=True, help="c,alpha,c0,c1")
    p.set_defaults(fn=cmd_birkhoff_iso)

    p = sub.add_parser("malgrange", parents=window, help="universal-deformation constructor")
    p.add_argument("--c", default="0")
    p.add_argument("--c0", required=True)
    p.add_argument("--binf", required=True, help="entries b11,b12,b21,b22")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_malgrange)

    p = sub.add_parser("euler-nf", parents=t_window, help="Euler-field normal form")
    p.add_argument("--c", default="0")
    p.add_argument("--g", required=True, help="comma-separated t2 coefficients")
    p.set_defaults(fn=cmd_euler_nf)

    p = sub.add_parser("euler-realizable", parents=t_window, help="realizability decision")
    p.add_argument("--c", default="0")
    p.add_argument("--g", required=True)
    p.set_defaults(fn=cmd_euler_realizable)

    p = sub.add_parser("selftest", help="run the acceptance suite")
    p.set_defaults(fn=cmd_selftest)

    p = sub.add_parser("write-fixtures", parents=window, help="materialize built-in fixtures")
    p.add_argument("directory")
    p.set_defaults(fn=cmd_write_fixtures)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except DocumentError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as exc:  # an output path that cannot be written
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except ExactAlgebraError as exc:
        print(f"precondition violation: {exc}", file=sys.stderr)
        return EXIT_PRECONDITION


if __name__ == "__main__":
    sys.exit(main())
