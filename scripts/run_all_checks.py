#!/usr/bin/env python3
"""Check every identity of the verification table over its standard grid,
the bordered binomial Pfaffians last, and print one line each.

    PYTHONPATH=src python3 scripts/run_all_checks.py

Exits 0 when every tuple matches and 1 otherwise.
"""

import sys
import time

from scpp.verify import IDENTITIES


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


def main() -> int:
    failures = 0
    for name, row in IDENTITIES.items():
        failures += sweep(name, row.run, row.grid)
    print("all checks passed" if failures == 0 else f"{failures} total mismatches")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
