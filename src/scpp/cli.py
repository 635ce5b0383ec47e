"""Command-line interface: counting, evaluation, and verification sweeps.

All output is byte-deterministic for a fixed invocation: JSON keys are
sorted, big integers are rendered as decimal strings, and reports carry
no timings.  Exit codes: 0 on success and on verifications that match, 1
on a verification mismatch, 2 on errors.  An error prints one JSON line
``{"error": {"code": ..., "message": ...}}`` on stdout, whose message is
the exception's text, or its class name when that is empty.  A check's
exception is coded by ``scpp.verify.FAILURES``: ``budget-exceeded``,
``bad-parity``, ``error`` (an arithmetic failure, memory exhaustion or a
failed internal consistency check) or ``invalid-parameter`` (a parameter
out of range; also a ``--budget`` below 1, which every subcommand rejects
before any work, a ``sweep --workers`` below 1, a ``--shape`` part that
is not an integer, an ``--at`` coordinate that is not a rational number
or has a zero denominator, a sweep range that does not parse, and a
``--config`` or ``--out`` file that cannot be read or written).  Code
``usage`` is every error argparse finds, a flag that ``count``,
``pfaffian`` or ``verify`` needs or a range that ``sweep`` needs not
given, ``--method`` for an identity with a single route, a sweep range
that lists no value, and a parameter given twice by ``--set`` or
``--config``; ``schur`` reads a missing flag as 0 and a missing
``--shape`` as the empty shape.

``verify`` and ``sweep`` read their identities, parameter flags and
``--method`` choices from ``scpp.verify.IDENTITIES``.  A sweep emits one
line per tuple, whose ``status`` is ``ok`` (checked; ``match`` tells the
outcome), ``skipped`` (code ``bad-parity`` or ``invalid-parameter``:
outside the identity's cases), ``budget-exceeded`` or ``error``; the last
three carry a ``reason``.  A tuple that fails does not stop the others.
The closing summary line counts ``checked``, ``matched``,
``mismatched``, ``skipped`` and ``failed`` (budget-exceeded or error).  A
sweep exits 2 if any tuple failed, else 1 if any mismatched, else 0.  Its
grid comes from ``--config`` lines and ``--set`` flags, ``key=range`` each;
a ``--set`` overrides the same key in the config file, and giving one
parameter twice in either is a usage error.

``--budget`` caps the work units that enumeration and expansion charge:
the brute-force ``count`` targets, ``verify`` and ``sweep`` (a sweep caps
each tuple on its own), and ``schur evaluate`` and ``alternating``; by
default ``DEFAULT_NODE_CAP`` units.  ``pfaffian`` charges dim^3 units for
its elimination before it builds the matrix, and ``verify pfaffian`` 2
dim^3, for the Pfaffian and the determinant.  The closed-form ``count``
targets and ``schur hook-content`` take the flag and reject a value below
1, but charge nothing.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import sys
from collections import Counter
from fractions import Fraction
from itertools import product as _cartesian
from typing import Sequence

from scpp.budget import DEFAULT_NODE_CAP, WorkBudget
from scpp.partitions import partition
from scpp.pfaffian import CASES, corollary_pfaffian
from scpp.plane_partitions import (
    SignedCount,
    count_pp,
    count_scpp,
    count_scpp_middle_line,
    count_scpp_signed,
)
from scpp.products import (
    box_count,
    middle_line_product,
    sc_count,
    signed_enumeration_all_even,
    signed_enumeration_product,
)
from scpp.schur import (
    checked_shape,
    hook_content_rectangular,
    schur_tableau_sum,
    schur_value,
    specialize_alternating,
)
from scpp.verify import _BOX, _LINE, FAILURES, IDENTITIES, METHODS, Identity, failure


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """A parser, and its subparsers, whose errors ``main`` reports as usage."""

    def error(self, message: str):
        raise UsageError(message)


# ---------------------------------------------------------------------------
# serialization

def _cell(v) -> str:
    if isinstance(v, dict):
        return ";".join(f"{a}={b}" for a, b in sorted(v.items()))
    if isinstance(v, list):
        return json.dumps(v)  # as the json format prints it
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


def _values(args, names: Sequence[str], what: str) -> list:
    for name in names:
        if getattr(args, name) is None:
            raise UsageError(f"--{name} is required for {what}")
    return [getattr(args, name) for name in names]


def _handle_count(args, budget: WorkBudget) -> tuple[dict, int]:
    count, names, enumerates = COUNT_TARGETS[args.target]
    values = _values(args, names, "this target")
    value = count(*values, budget) if enumerates else count(*values)
    if isinstance(value, SignedCount):
        return {
            "negative": str(value.negative),
            "positive": str(value.positive),
            "signed_total": str(value.signed_total),
        }, 0
    return {"value": str(value)}, 0


def _parsed(kind, name: str, index: int, text: str):
    """Item ``index`` (from 1) of a comma-separated flag, parsed by ``kind``;
    ``name`` names the flag and its items in the error."""
    try:
        return kind(text)
    except ZeroDivisionError:
        raise ValueError(f"{name} {index} ({text}) has a zero denominator") from None
    except ValueError:
        what = "an integer" if kind is int else "a rational number"
        raise ValueError(f"{name} {index} ({text}) is not {what}") from None


def _handle_schur(args, budget: WorkBudget) -> tuple[dict, int]:
    action = args.action
    if action == "evaluate":
        parts = enumerate(args.shape.split(","), 1)
        shape = partition(_parsed(int, "--shape part", i, x) for i, x in parts if x != "")
        shape = checked_shape(shape, args.n)  # before the point is read
        if args.at is None:
            poly = schur_tableau_sum(shape, args.n, budget)
            terms = [[list(e), str(c)] for e, c in poly.sorted_terms()]
            return {"nvars": args.n, "terms": terms}, 0
        coords = args.at.split(",") if args.at else []
        point = [_parsed(Fraction, "--at coordinate", i, x) for i, x in enumerate(coords, 1)]
        if len(point) != args.n:
            raise UsageError("evaluation point must have exactly n coordinates")
        return {"value": _value_str(schur_value(shape, point, budget))}, 0
    if action == "hook-content":
        coeffs = hook_content_rectangular(args.gamma, args.alpha, args.n)
        return {"coefficients": [str(c) for c in coeffs]}, 0
    # alternating
    return {"value": str(specialize_alternating(args.gamma, args.alpha, args.m, budget))}, 0


def _handle_pfaffian(args, budget: WorkBudget) -> tuple[dict, int]:
    case, *line = _values(args, ("case", *_LINE), "pfaffian")
    _, value = corollary_pfaffian(case, *line, budget)
    product = middle_line_product(*line)
    match = value == product
    return {"match": match, "pfaffian": str(value), "product": str(product)}, 0 if match else 1


def _identity(args) -> Identity:
    """The table row of ``args.identity``, after checking that ``--method``
    applies to it."""
    row = IDENTITIES[args.identity]
    if args.method is not None and row.sweep is None:
        raise UsageError(f"--method does not apply to identity {args.identity}")
    return row


def _handle_verify(args, budget: WorkBudget) -> tuple[dict, int]:
    row = _identity(args)
    values = _values(args, row.params, f"identity {args.identity}")
    report = row.run(values, budget, args.method)
    # a shallow dict of the fields: asdict would deep-copy each
    return dict(vars(report)), 0 if report.match else 1


# ---------------------------------------------------------------------------
# sweeps

def _parse_range(name: str, spec: str) -> list[int]:
    """The values of parameter ``name`` that ``spec`` lists; an empty list
    is a usage error, since a sweep over it would check nothing, and a spec
    that is not a list, a range or a number is an invalid parameter."""
    spec = spec.strip()

    def number(text: str) -> int:
        try:
            return int(text)
        except ValueError:
            raise ValueError(f"bad range for {name}: {spec!r}") from None

    if "," in spec:
        values = [number(x) for x in spec.split(",") if x != ""]
    elif ".." in spec:
        lohi, _, step = spec.partition(":")
        lo, _, hi = lohi.partition("..")
        step_v = number(step) if step else 1
        if step_v <= 0:
            raise UsageError("range step must be positive")
        values = list(range(number(lo), number(hi) + 1, step_v))
    else:
        values = [number(spec)]
    if not values:
        raise UsageError(f"empty range for {name}: {spec!r}")
    return values


def _parse_grid(sets: Sequence[str], config_path: str | None) -> dict[str, list[int]]:
    """The range of each parameter: from ``--config``, then from ``--set``,
    which overrides a config key; each gives a parameter at most once."""
    grid: dict[str, list[int]] = {}
    if config_path:
        with open(config_path) as fh:
            for raw in fh:
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise UsageError(f"bad config line {raw.rstrip()!r}")
                key, _, value = line.partition("=")
                key = key.strip()
                if key in grid:
                    raise UsageError(f"--config gives {key} more than once")
                grid[key] = _parse_range(key, value)
    given = set()
    for item in sets:
        if "=" not in item:
            raise UsageError(f"bad --set value {item!r}")
        key, _, value = item.partition("=")
        key = key.strip()
        if key in given:
            raise UsageError(f"--set gives {key} more than once")
        given.add(key)
        grid[key] = _parse_range(key, value)
    return grid


def _sweep_tuple(task) -> dict:
    """Check one tuple of a sweep: a failure is recorded, not raised, and a
    tuple outside the identity's cases is skipped."""
    identity, params, cap, method = task
    try:
        report = IDENTITIES[identity].run(tuple(params.values()), WorkBudget(cap), method)
    except tuple(FAILURES) as exc:
        code, reason = failure(exc)
        status = "skipped" if code in ("bad-parity", "invalid-parameter") else code
        return {"identity": identity, "parameters": params, "status": status, "reason": reason}
    return {**vars(report), "status": "ok"}


def _handle_sweep(args, budget: WorkBudget) -> tuple[list[dict], int]:
    names = _identity(args).params
    grid = _parse_grid(args.set or [], args.config)
    missing = [n for n in names if n not in grid]
    if missing:
        raise UsageError(f"missing grid ranges for: {', '.join(missing)}")
    extra = [k for k in grid if k not in names]
    if extra:
        raise UsageError(f"unknown parameters for {args.identity}: {', '.join(extra)}")

    tasks = [
        (args.identity, dict(zip(names, values)), budget.cap, args.method)
        for values in sorted(_cartesian(*(grid[n] for n in names)))
    ]
    if args.workers > 1:
        # imported here: it pulls in multiprocessing, which a serial run never needs
        from concurrent.futures import ProcessPoolExecutor
        with ProcessPoolExecutor(max_workers=args.workers) as pool:
            results = list(pool.map(_sweep_tuple, tasks))
    else:
        results = [_sweep_tuple(t) for t in tasks]

    statuses = Counter(r["status"] for r in results)
    matched = sum(1 for r in results if r["status"] == "ok" and r["match"])
    mismatched = statuses["ok"] - matched
    failed = statuses["budget-exceeded"] + statuses["error"]
    summary = {
        "identity": args.identity, "status": "summary", "checked": statuses["ok"], "failed": failed,
        "matched": matched, "mismatched": mismatched, "skipped": statuses["skipped"],
    }
    return results + [summary], 2 if failed else 1 if mismatched else 0


# ---------------------------------------------------------------------------
# argument parsing

def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--format", choices=("json", "csv", "text"), default="json")
    parser.add_argument(
        "--budget", type=int, default=DEFAULT_NODE_CAP,
        help="work-unit cap on enumeration, expansion and pfaffian elimination "
        "(default %(default)s); closed-form counts and schur hook-content charge nothing",
    )
    parser.add_argument("--out", default=None, help="write output to a file")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built on first use and then reused."""
    parser = _Parser(
        prog="scpp",
        description="Exact counting and identity verification for box-bounded plane partitions.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="closed-form and brute-force counts")
    p_count.add_argument("target", choices=tuple(COUNT_TARGETS))
    for flag in dict.fromkeys(name for _, names, _ in COUNT_TARGETS.values() for name in names):
        p_count.add_argument(f"--{flag}", type=int, default=None)
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
    p_pf.add_argument("--case", choices=CASES, default=None)
    for flag in _LINE:
        p_pf.add_argument(f"--{flag}", type=int, default=None)
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
        help="grid range, e.g. a=0..6:2 or c1=0,2,4; once per parameter, "
        "and it overrides the same key in --config",
    )
    p_sweep.add_argument("--config", default=None, help="file of key=range lines")
    p_sweep.add_argument("--workers", type=int, default=1)
    p_sweep.add_argument("--method", choices=METHODS, default=None)
    _add_common(p_sweep)

    return parser


# main's error codes: a UsageError (a ValueError) first, then FAILURES and OSError
_ERROR_CODES = {UsageError: "usage", **FAILURES, OSError: "invalid-parameter"}


def main(argv: Sequence[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
        handler = {
            "count": _handle_count,
            "schur": _handle_schur,
            "pfaffian": _handle_pfaffian,
            "verify": _handle_verify,
            "sweep": _handle_sweep,
        }[args.command]
        budget = WorkBudget(args.budget)
        if getattr(args, "workers", 1) < 1:
            raise ValueError("worker count must be positive")
        payload, code = handler(args, budget)
        _emit(_render(payload, args.format), args.out)
    except tuple(_ERROR_CODES) as exc:
        error, message = failure(exc, _ERROR_CODES)
        _emit(_render({"error": {"code": error, "message": message}}, "json"), None)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
