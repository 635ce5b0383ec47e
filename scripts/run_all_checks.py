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

from scpp.pfaffian import PfaffianCheck, corollary_matrix, exact_determinant, pfaffian
from scpp.products import middle_line_product
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
    """The sign-adjusted Pfaffian of one build of M against the product,
    matching only if also Pf(M)^2 = det(M)."""
    matrix, prefactor = corollary_matrix(*values)
    pf = pfaffian(matrix)
    product = middle_line_product(*values[1:])
    match = prefactor * pf == product and pf * pf == exact_determinant(matrix.entries)
    return PfaffianCheck(*values, prefactor * pf, product, match)


def main() -> int:
    failures = 0
    for name, row in IDENTITIES.items():
        failures += sweep(name, row.run, row.grid)
    failures += sweep("pfaffian", pfaffian_and_determinant, PFAFFIAN_GRID)
    print("all checks passed" if failures == 0 else f"{failures} total mismatches")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
