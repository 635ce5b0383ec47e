#!/usr/bin/env python3
"""Check every identity of the verification table over its standard grid,
the bordered binomial Pfaffians last, and print one line each.

    PYTHONPATH=src python3 scripts/run_all_checks.py

A tuple whose check raises an exception of ``scpp.verify.FAILURES`` is
printed as an error and counted, and the sweep goes on.  Exits 0 when
every tuple matches and 1 otherwise.
"""

import sys
import time

from scpp.verify import FAILURES, IDENTITIES, failure


def sweep(label, check, tuples):
    start = time.perf_counter()
    total = mismatched = errors = 0
    for values in tuples:
        total += 1
        try:
            if not check(values).match:
                mismatched += 1
                print(f"  MISMATCH {label} {values}")
        except tuple(FAILURES) as exc:
            errors += 1
            print(f"  ERROR {label} {values}: {failure(exc)[1]}")
    status = f"{mismatched} MISMATCHES, {errors} ERRORS" if mismatched or errors else "ok"
    print(f"{label:20s} {total:5d} tuples  {status:14s} {time.perf_counter() - start:6.1f}s")
    return mismatched + errors


def main() -> int:
    failures = sum(sweep(name, row.run, row.grid) for name, row in IDENTITIES.items())
    print("all checks passed" if failures == 0 else f"{failures} tuples failed")
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
