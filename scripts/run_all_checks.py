#!/usr/bin/env python3
"""Check every identity of the verification table over its standard grid,
then the bordered binomial Pfaffians over theirs, and print one line each.
A Pfaffian tuple matches when its sign-adjusted Pfaffian equals the product
and Pf(M)^2 = det(M), as in acceptance criterion 07.

    PYTHONPATH=src python3 scripts/run_all_checks.py

Exits 0 when every tuple matches and 1 otherwise.
"""

import sys
import time
from dataclasses import replace

from scpp.pfaffian import corollary_matrix, exact_determinant, pfaffian_check
from scpp.verify import IDENTITIES, PFAFFIAN_GRID


def sweep(label, check, tuples):
    start = time.perf_counter()
    total = bad = 0
    for values in tuples:
        total += 1
        if not check(values).match:
            bad += 1
            print(f"  MISMATCH {label} {values}")
    status = "ok" if bad == 0 else f"{bad} MISMATCHES"
    print(f"{label:20s} {total:5d} tuples  {status:14s} {time.perf_counter() - start:6.1f}s")
    return bad


def pfaffian_and_determinant(values):
    """``pfaffian_check``, matching only if also Pf(M)^2 = det(M); the
    prefactor is a sign, so the checked value squares to Pf(M)^2."""
    check = pfaffian_check(*values)
    det = exact_determinant(corollary_matrix(*values)[0].entries)
    return replace(check, match=check.match and check.pfaffian**2 == det)


def main() -> int:
    failures = 0
    for name, row in IDENTITIES.items():
        failures += sweep(name, row.run, row.grid)
    failures += sweep("pfaffian", pfaffian_and_determinant, PFAFFIAN_GRID)
    print("all checks passed" if failures == 0 else f"{failures} total mismatches")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
