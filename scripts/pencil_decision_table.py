#!/usr/bin/env python3
"""Tabulate the pencil isomorphism decision against a zero right-hand c1.

For each candidate product u = c0*c1 the verdict is true exactly when
u = (n-1)(2n-1)/2 or (n-1)(2n-3)/2 for some integer n >= 2.  The script
prints the critical set up to a bound and spot-checks values between the
critical points.
"""

from __future__ import annotations

import argparse
from fractions import Fraction

from connexa.origin import BirkhoffData, birkhoff_iso_decision
from connexa.scalars import ONE, Scalar, ZERO


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--nmax", type=int, default=16)
    args = ap.parse_args()

    print(f"{'n':>3} {'(n-1)(2n-1)/2':>16} {'(n-1)(2n-3)/2':>16}")
    critical = set()
    for n in range(2, args.nmax + 1):
        hi = Fraction((n - 1) * (2 * n - 1), 2)
        lo = Fraction((n - 1) * (2 * n - 3), 2)
        critical |= {hi, lo}
        print(f"{n:>3} {str(hi):>16} {str(lo):>16}")

    right = BirkhoffData(ZERO, ZERO, ONE, ZERO)
    print("\nverdicts (left tuple (0, 0, 1, u) vs right (0, 0, 1, 0)):")
    probes = sorted(critical) + [
        Fraction(1), Fraction(2), Fraction(1, 3), Fraction(7, 4)
    ]
    for u in sorted(set(probes)):
        left = BirkhoffData(ZERO, ZERO, ONE, Scalar(u, Fraction(0)))
        rep = birkhoff_iso_decision(left, right)
        mark = "critical" if u in critical else "        "
        print(f"  u = {str(u):>8}  {mark}  isomorphic = {rep.isomorphic}"
              + (f" (n = {rep.n})" if rep.n else ""))


if __name__ == "__main__":
    main()
