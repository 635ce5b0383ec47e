"""Command-line interface: counting, evaluation, and verification sweeps.

All output is byte-deterministic for a fixed invocation: JSON keys are
sorted, big integers are rendered as decimal strings, and reports carry
no timings.  Exit codes: 0 on success and on verifications that match, 1
on a verification mismatch, 2 on errors.  An error prints one JSON line
``{"error": {"code": ..., "message": ...}}`` on stdout, with code
``usage`` (a missing parameter, or ``--method`` given for an identity
with a single route), ``bad-parity``, ``budget-exceeded`` or
``invalid-parameter`` (a parameter out of range, including a ``--budget``
below 1, which every subcommand rejects before doing any work, and a
``sweep --workers`` below 1).

``verify`` and ``sweep`` read their identities, parameter flags and
``--method`` choices from ``scpp.verify.IDENTITIES``.  A sweep emits one
line per tuple, whose ``status`` is ``ok`` (checked; ``match`` tells the
outcome), ``skipped`` (outside the identity's cases), ``budget-exceeded``
(the tuple passed ``--budget``) or ``error`` (an arithmetic failure); the
last three carry a ``reason``.  A tuple that fails does not stop the
others.  The closing summary line counts ``checked``, ``matched``,
``mismatched``, ``skipped`` and ``failed`` (budget-exceeded or error).  A
sweep exits 2 if any tuple failed, else 1 if any mismatched, else 0.

``--budget`` caps the work units that enumeration and expansion charge:
the brute-force ``count`` targets, and ``verify`` and ``sweep`` of every
identity but ``bridge``.  The closed-form ``count`` targets, ``schur``,
``pfaffian`` and the ``bridge`` identity accept the flag and reject a
value below 1, but charge nothing, so no value stops them.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import Counter
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict
from fractions import Fraction
from itertools import product as _cartesian
from typing import Sequence

from scpp.budget import BudgetExceededError, WorkBudget
from scpp.partitions import partition
from scpp.pfaffian import CASES, pfaffian_check
from scpp.plane_partitions import (
    SignedCount,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
)
from scpp.products import (
    ParityError,
    box_count,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import (
    hook_content_rectangular,
    schur_tableau_sum,
    specialize_alternating,
)
from scpp.verify import _BOX, _LINE, IDENTITIES, METHODS, Identity


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# serialization

def _cell(v) -> str:
    if isinstance(v, dict):
        return ";".join(f"{a}={b}" for a, b in sorted(v.items()))
    return str(v)


def _render(payload: dict | list[dict], fmt: str) -> str:
    if fmt == "json":
        if isinstance(payload, list):
            return "\n".join(json.dumps(p, sort_keys=True) for p in payload)
        return json.dumps(payload, sort_keys=True)
    rows = payload if isinstance(payload, list) else [payload]
    if fmt == "csv":
        keys = sorted({k for row in rows for k in row})
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(keys)
        writer.writerows([_cell(row.get(k, "")) for k in keys] for row in rows)
        return buf.getvalue().removesuffix("\n")
    # text
    return "\n".join("  ".join(f"{k}={_cell(row[k])}" for k in sorted(row)) for row in rows)


def _emit(text: str, out: str | None) -> None:
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _value_str(v) -> str:
    if isinstance(v, Fraction) and v.denominator != 1:
        return f"{v.numerator}/{v.denominator}"
    return str(int(v))


# ---------------------------------------------------------------------------
# subcommand handlers

# count target -> (function, its parameters, whether it enumerates and so
# takes the work budget)
COUNT_TARGETS = {
    "box": (box_count, _BOX, False),
    "box-brute": (count_pp, _BOX, True),
    "scpp": (sc_count, _BOX, False),
    "scpp-brute": (count_scpp, _BOX, True),
    "scpp-signed": (count_scpp_signed, _BOX, True),
    "signed-product": (signed_enumeration_product, _BOX, False),
    "signed-all-even": (signed_enumeration_all_even, _BOX, False),
    "middle-line": (middle_line_product, _LINE, False),
    "middle-line-brute": (count_scpp_middle_line, _LINE, True),
}


def _values(args, names: Sequence[str], what: str) -> list[int]:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for {what}")
    return [getattr(args, name) for name in names]


def _budget(args) -> WorkBudget | None:
    return WorkBudget(args.budget) if args.budget is not None else None


def _handle_count(args) -> tuple[dict, int]:
    count, names, enumerates = COUNT_TARGETS[args.target]
    values = _values(args, names, "this target")
    value = count(*values, _budget(args)) if enumerates else count(*values)
    if isinstance(value, SignedCount):
        return {
            "negative": str(value.negative),
            "positive": str(value.positive),
            "signed_total": str(value.signed_total),
        }, 0
    return {"value": str(value)}, 0


def _handle_schur(args) -> tuple[dict, int]:
    action = args.action
    if action == "evaluate":
        shape = partition(int(x) for x in args.shape.split(",") if x != "")
        poly = schur_tableau_sum(shape, args.n)
        if args.at is None:
            terms = [
                [list(e), str(c)] for e, c in sorted(poly.terms.items())
            ]
            return {"nvars": args.n, "terms": terms}, 0
        point = [Fraction(x) for x in args.at.split(",")] if args.at else []
        if len(point) != args.n:
            raise UsageError("evaluation point must have exactly n coordinates")
        return {"value": _value_str(poly.evaluate(point))}, 0
    if action == "hook-content":
        coeffs = hook_content_rectangular(args.gamma, args.alpha, args.n)
        return {"coefficients": [str(c) for c in coeffs]}, 0
    # alternating
    return {"value": str(specialize_alternating(args.gamma, args.alpha, args.m))}, 0


def _handle_pfaffian(args) -> tuple[dict, int]:
    check = pfaffian_check(args.case, args.a, args.b, args.c1, args.c2)
    payload = {
        "match": check.match,
        "pfaffian": str(check.pfaffian),
        "product": str(check.product),
    }
    return payload, 0 if check.match else 1


def _identity(args) -> Identity:
    """The table row of ``args.identity``, after checking that ``--method``
    applies to it."""
    row = IDENTITIES[args.identity]
    if args.method is not None and not row.takes_method:
        raise UsageError(f"--method does not apply to identity {args.identity}")
    return row


def _handle_verify(args) -> tuple[dict, int]:
    row = _identity(args)
    values = _values(args, row.params, f"identity {args.identity}")
    report = row.run(values, _budget(args), args.method)
    return asdict(report), 0 if report.match else 1


# ---------------------------------------------------------------------------
# sweeps

def _parse_range(spec: str) -> list[int]:
    spec = spec.strip()
    if "," in spec:
        return [int(x) for x in spec.split(",") if x != ""]
    if ".." in spec:
        lohi, _, step = spec.partition(":")
        lo, _, hi = lohi.partition("..")
        step_v = int(step) if step else 1
        if step_v <= 0:
            raise UsageError("range step must be positive")
        return list(range(int(lo), int(hi) + 1, step_v))
    return [int(spec)]


def _parse_grid(sets: Sequence[str], config_path: str | None) -> dict[str, list[int]]:
    grid: dict[str, list[int]] = {}
    if config_path:
        with open(config_path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {raw!r}")
                key, _, value = line.partition("=")
                grid[key.strip()] = _parse_range(value)
    for item in sets:
        if "=" not in item:
            raise UsageError(f"bad --set value {item!r}")
        key, _, value = item.partition("=")
        grid[key.strip()] = _parse_range(value)
    return grid


def _sweep_tuple(task) -> dict:
    """Check one tuple of a sweep; a tuple that fails is recorded, not raised."""
    identity, params, budget_cap, method = task
    budget = WorkBudget(budget_cap) if budget_cap is not None else None
    try:
        report = IDENTITIES[identity].run(tuple(params.values()), budget, method)
    except BudgetExceededError as exc:
        status, reason = "budget-exceeded", str(exc)
    except ArithmeticError as exc:
        status, reason = "error", str(exc)
    except ValueError as exc:  # a ParityError too: outside the identity's cases
        status, reason = "skipped", str(exc)
    else:
        return {**asdict(report), "status": "ok"}
    return {"identity": identity, "parameters": params, "status": status, "reason": reason}


def _handle_sweep(args) -> tuple[list[dict], int]:
    names = _identity(args).params
    grid = _parse_grid(args.set or [], args.config)
    missing = [n for n in names if n not in grid]
    if missing:
        raise UsageError(f"missing grid ranges for: {', '.join(missing)}")
    extra = [k for k in grid if k not in names]
    if extra:
        raise UsageError(f"unknown parameters for {args.identity}: {', '.join(extra)}")

    tuples = sorted(_cartesian(*(grid[n] for n in names)))
    tasks = [
        (args.identity, dict(zip(names, values)), args.budget, args.method)
        for values in tuples
    ]
    if args.workers > 1:
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_tuple, tasks))
    else:
        results = [_sweep_tuple(t) for t in tasks]

    statuses = Counter(r["status"] for r in results)
    matched = sum(1 for r in results if r["status"] == "ok" and r["match"])
    mismatched = statuses["ok"] - matched
    failed = statuses["budget-exceeded"] + statuses["error"]
    summary = {
        "identity": args.identity,
        "status": "summary",
        "checked": statuses["ok"],
        "matched": matched,
        "mismatched": mismatched,
        "skipped": statuses["skipped"],
        "failed": failed,
    }
    return results + [summary], 2 if failed else 1 if mismatched else 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument(
        "--budget", type=int, default=None,
        help="work-unit cap on enumeration and expansion; closed-form counts, "
        "schur, pfaffian and the bridge identity charge nothing",
    )
    parser.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then reused."""
    parser = argparse.ArgumentParser(
        prog="scpp",
        description="Exact counting and identity verification for box-bounded plane partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="closed-form and brute-force counts")
    p_count.add_argument("target", choices=tuple(COUNT_TARGETS))
    p_count.add_argument("--a", type=int, required=True)
    p_count.add_argument("--b", type=int, required=True)
    p_count.add_argument("--c", type=int, default=None)
    p_count.add_argument("--c1", type=int, default=None)
    p_count.add_argument("--c2", type=int, default=None)
    _add_common(p_count)

    p_schur = sub.add_parser("schur", help="Schur polynomial queries")
    p_schur.add_argument("action", choices=("evaluate", "hook-content", "alternating"))
    p_schur.add_argument("--shape", default="", help="comma-separated partition")
    p_schur.add_argument("--n", type=int, default=0, help="variable count")
    p_schur.add_argument("--at", default=None, help="comma-separated rational point")
    p_schur.add_argument("--gamma", type=int, default=0)
    p_schur.add_argument("--alpha", type=int, default=0)
    p_schur.add_argument("--m", type=int, default=0)
    _add_common(p_schur)

    p_pf = sub.add_parser("pfaffian", help="evaluate one bordered binomial Pfaffian")
    p_pf.add_argument("--case", choices=CASES, required=True)
    p_pf.add_argument("--a", type=int, required=True)
    p_pf.add_argument("--b", type=int, required=True)
    p_pf.add_argument("--c1", type=int, required=True)
    p_pf.add_argument("--c2", type=int, required=True)
    _add_common(p_pf)

    p_verify = sub.add_parser("verify", help="check one identity at one tuple")
    p_verify.add_argument("identity", choices=sorted(IDENTITIES))
    for flag in dict.fromkeys(name for row in IDENTITIES.values() for name in row.params):
        p_verify.add_argument(f"--{flag}", type=int, default=None)
    p_verify.add_argument("--method", choices=METHODS, default=None)
    _add_common(p_verify)

    p_sweep = sub.add_parser("sweep", help="run one identity over a parameter grid")
    p_sweep.add_argument("identity", choices=sorted(IDENTITIES))
    p_sweep.add_argument(
        "--set",
        action="append",
        metavar="key=range",
        help="grid range, e.g. a=0..6:2 or c1=0,2,4 (repeatable)",
    )
    p_sweep.add_argument("--config", default=None, help="file of key=range lines")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--method", choices=METHODS, default=None)
    _add_common(p_sweep)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    handler = {
        "count": _handle_count,
        "schur": _handle_schur,
        "pfaffian": _handle_pfaffian,
        "verify": _handle_verify,
        "sweep": _handle_sweep,
    }[args.command]
    try:
        # checked here because the closed-form counts, schur, pfaffian and the
        # bridge identity take --budget but charge nothing
        if args.budget is not None and args.budget <= 0:
            raise ValueError("budget cap must be positive")
        if getattr(args, "workers", 1) < 1:
            raise ValueError("worker count must be positive")
        payload, code = handler(args)
    except BudgetExceededError as exc:
        _emit(_render({"error": {"code": "budget-exceeded", "message": str(exc)}}, "json"), None)
        return 2
    except ParityError as exc:
        _emit(_render({"error": {"code": "bad-parity", "message": str(exc)}}, "json"), None)
        return 2
    except UsageError as exc:
        _emit(_render({"error": {"code": "usage", "message": str(exc)}}, "json"), None)
        return 2
    except (ValueError, ArithmeticError) as exc:
        _emit(_render({"error": {"code": "invalid-parameter", "message": str(exc)}}, "json"), None)
        return 2
    _emit(_render(payload, args.format), args.out)
    return code


if __name__ == "__main__":
    sys.exit(main())
