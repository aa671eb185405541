"""Named example structures shipped with the package."""

from __future__ import annotations

import os

from .connmat import TEStruct
from .docio import DEFAULT_ORDER, load_structure, save_structure
from .errors import DocumentError
from .formalnf import NormalFormId, build_normal_form
from .scalars import S


# Built-in fixture name -> the normal form it is built as.
FIXTURES = {
    "fminus1": NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(2))),
    "fminus1_c0zero": NormalFormId("F1", dict(c=S(1), alpha=S("1/2"), c0=S(0))),
    "f1_r1": NormalFormId("FR", dict(c=S(1), alpha=S("1/2"), r=1)),
    "f1_r2": NormalFormId("FR", dict(c=S(1), alpha=S("1/2"), r=2)),
    "f1_r3": NormalFormId("FR", dict(c=S(0), alpha=S(1), r=3)),
    "nf3_1": NormalFormId("NF3-1", dict(c=S(1), alpha=S(0))),
    "nf3_2": NormalFormId("NF3-2", dict(c=S(0), alpha=S(1))),
    "nf3_3": NormalFormId("NF3-3", dict(c=S(0), alpha=S(0), lam=S("1/2"))),
    "nf3_4": NormalFormId("NF3-4", dict(c=S(1), alpha=S("1/3"), lam=S("3/2"))),
    "nf3_5": NormalFormId("NF3-5", dict(c=S(0), alpha=S(0), lam=S(1), gamma=S(1))),
    "nf3_6": NormalFormId("NF3-6", dict(c=S(0), alpha=S(0), lam=S(2))),
    "nf3_7": NormalFormId("NF3-7", dict(c=S(0), alpha=S(0), lam=S(1))),
    "nf3_8": NormalFormId("NF3-8", dict(c=S(0), alpha=S(0), lam=S(-1))),
    "nf3_9": NormalFormId("NF3-9", dict(c=S(0), alpha=S(0), lam=S(-2))),
    "mal1": NormalFormId("HNF-MAL1", dict(c=S(0), alpha=S(0), c0=S(1))),
    "mal2_lambda1": NormalFormId(
        "HNF-MAL2", dict(c=S(0), alpha=S(0), c0=S(1), lam=S(1))
    ),
    "mal3": NormalFormId("HNF-MAL3", dict(c=S(0), alpha=S(0), c0=S(1))),
}


def fixture_names() -> list[str]:
    return sorted(FIXTURES)


def build_fixture(name: str, nz: int, nt: int) -> TEStruct:
    try:
        nfid = FIXTURES[name]
    except KeyError:
        raise DocumentError(f"unknown fixture {name!r}") from None
    return build_normal_form(nfid, nz, nt)


def resolve_structure(
    name_or_path: str, nz: int | None = None, nt: int | None = None
) -> TEStruct:
    """A path to a document, or a built-in fixture name.

    A built-in fixture is built at the window (nz, nt), DEFAULT_ORDER where
    an order is None.  A document keeps the window it declares, and an
    order given for it must agree with that window.
    """
    if os.path.exists(name_or_path):
        return _load_at(name_or_path, nz, nt)
    if name_or_path in FIXTURES:
        return build_fixture(
            name_or_path,
            DEFAULT_ORDER if nz is None else nz,
            DEFAULT_ORDER if nt is None else nt,
        )
    raise DocumentError(f"no such file or fixture: {name_or_path!r}")


def _load_at(path: str, nz: int | None, nt: int | None) -> TEStruct:
    s = load_structure(path)
    dz, dt = s.orders
    if (nz is not None and nz != dz) or (nt is not None and nt != dt):
        raise DocumentError(
            f"{path} declares the window (nz, nt) = ({dz}, {dt}); "
            "--order-z/--order-t must match it or be left out"
        )
    return s


def write_fixtures(directory: str, nz: int, nt: int) -> list[str]:
    os.makedirs(directory, exist_ok=True)
    written = []
    for name in fixture_names():
        path = os.path.join(directory, name + ".json")
        save_structure(build_fixture(name, nz, nt), path)
        written.append(path)
    return written
