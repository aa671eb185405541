#!/usr/bin/env python3
"""Run the full classification stack over the shipped fixtures.

Prints, per fixture: flatness, elementary flag, formal/holomorphic normal
form, the pencil invariants where they exist, and the induced rescaling
field with its realizability verdict.
"""

from __future__ import annotations

import argparse

from connexa.connmat import flatness_residuals
from connexa.euler import euler_normal_form, induced_euler, realizable_by_te
from connexa.fixtures import build_fixture, fixture_names
from connexa.malgrange import classify_holomorphic


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--order-z", type=int, default=10)
    ap.add_argument("--order-t", type=int, default=10)
    args = ap.parse_args()
    nz, nt = args.order_z, args.order_t

    for name in fixture_names():
        s = build_fixture(name, nz, nt)
        flat = flatness_residuals(s).flat
        rep = classify_holomorphic(s)
        e = induced_euler(s)
        enf = euler_normal_form(e).normal_form
        pencil = ""
        if rep.pencil is not None:
            pencil = (
                f"  pencil=(c={rep.pencil.c}, alpha={rep.pencil.alpha}, "
                f"c0={rep.pencil.c0}, c1={rep.pencil.c1})"
            )
            pencil += (
                "  holo==formal"
                if rep.formal_vs_holo.isomorphic
                else "  holo!=formal"
            )
        nf = rep.normal_form.describe() if rep.normal_form else "-"
        print(
            f"{name:16s} flat={flat}  elementary={rep.elementary!s:5s} "
            f"{nf:42s}{pencil}"
        )
        print(
            f"{'':16s} induced field: {enf.family} "
            f"{ {k: str(v) for k, v in sorted(enf.params.items())} } "
            f"realizable={realizable_by_te(enf)}"
        )


if __name__ == "__main__":
    main()
