"""The scpp benchmark: one command that runs a workload, checks every
output and prints every metric.

    python3 bench/run.py --workload {enum,schur,pfaffian} --seed N --seconds S --trace {0,1}

Each pass is a fresh interpreter (``bench/child.py``) that runs every op
of the workload once, as a ``scpp verify`` invocation would: caches start
cold and peak memory belongs to that pass alone.  Passes repeat until the
next one would end after ``--seconds``; with ``--trace 1`` untraced and
traced passes alternate, at least one of each.  Metrics are medians over
passes; per-op percentiles pool the ops of every untraced pass.

Every time is reported at nominal host speed (``bench/reference.py``): it
is scaled by the time a fixed reference loop took right around it, since
the shared host's speed drifts by up to a factor of 1.8 within seconds.
The measured wall times go to the record in ``bench/runs/`` beside them.

An op fails if it raises, exits non-zero, reports ``match: false``, or
prints bytes that differ from its line in ``bench/expected.json``.  The
last line of stdout is the JSON result; a fuller record, with the seed,
goes to ``bench/runs/``.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import reference
import tracing
import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
RUNS = BENCH / "runs"
EXPECTED = BENCH / "expected.json"
SETUP_PROBES = 8  # set-up-only interpreters per run, besides each pass's own set-up
PASS_TIMEOUT_S = 150


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to an op failing)."""


def _spawn(workload: str, seed: int, pass_no: int, *flags: str) -> tuple[float, subprocess.Popen]:
    """Start a pass and wait for its ``ready`` line; returns (set-up s at
    nominal host speed, process)."""
    argv = [sys.executable, str(BENCH / "child.py"), "--workload", workload]
    argv += ["--seed", str(seed), "--pass", str(pass_no)]
    before = reference.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(argv + list(flags), cwd=ROOT, stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup_s = time.perf_counter() - start
    if line.strip() != "ready":
        _finish(proc)
        raise BenchError("pass ended before it was ready")
    return reference.scale(setup_s, before, reference.sample()), proc


def _pass(workload: str, seed: int, pass_no: int, limit: int | None, traced: bool, out: Path):
    flags = ["--out", str(out)]
    if limit is not None:
        flags += ["--limit", str(limit)]
    if traced:
        flags.append("--trace")
    setup_s, proc = _spawn(workload, seed, pass_no, *flags)
    _finish(proc)
    with open(out) as fh:
        record = json.load(fh)
    out.unlink()
    record["setup_s"] = setup_s
    return record


def _finish(proc: subprocess.Popen) -> None:
    """Wait for a started pass to end; it is killed if it overruns."""
    try:
        proc.communicate(timeout=PASS_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
            proc.wait()
    if proc.returncode != 0:
        raise BenchError(f"pass exited with code {proc.returncode}")


def _setup_probe(workload: str, seed: int, pass_no: int) -> float:
    setup_s, proc = _spawn(workload, seed, pass_no, "--setup-only")
    _finish(proc)
    return setup_s


def at_nominal_speed(metrics: dict, factor: float, units: dict) -> dict:
    """Scale the per-layer times and rates of a traced pass, measured in
    wall time, by the pass's host speed factor."""
    power = {"s": 1, "1/s": -1}
    return {name: value * factor ** power.get(units[name], 0) for name, value in metrics.items()}


def check_ops(record: dict, ops: list, expected: dict) -> list[str]:
    """Failures of one pass, one line each."""
    failures = []
    if len(record["ops"]) != len(ops):
        return [f"pass ran {len(record['ops'])} ops, expected {len(ops)}"]
    for op, (key, _ms, code, out, error) in zip(ops, record["ops"]):
        why = None
        if key != " ".join(op):
            why = "ran a different op"
        elif error is not None:
            why = error
        elif code != 0:
            why = f"exit code {code}"
        elif out != expected.get(key):
            why = "output differs from the expected line"
        else:
            try:
                if json.loads(out).get("match") is not True:
                    why = "match is not true"
            except ValueError:
                why = "output is not JSON"
        if why:
            failures.append(f"{key}: {why}")
    return failures


def run_workload(
    workload: str,
    seed: int,
    seconds: float,
    trace: bool,
    limit: int | None = None,
    expected: dict | None = None,
) -> dict:
    """Run one workload; returns the full record, whose ``result`` is the
    line the benchmark prints."""
    if expected is None:
        with open(EXPECTED) as fh:
            expected = json.load(fh)
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    RUNS.mkdir(exist_ok=True)
    scratch = RUNS / f"pass-{os.getpid()}.json"

    start = time.perf_counter()
    setups = [_setup_probe(workload, seed, k) for k in range(SETUP_PROBES)]
    plain, traced, failures = [], [], []
    longest = 0.0
    for pass_no in itertools.count():
        want_traced = trace and len(traced) < len(plain)
        t0 = time.perf_counter()
        record = _pass(workload, seed, pass_no, limit, want_traced, scratch)
        longest = max(longest, time.perf_counter() - t0)
        ops = workloads.ops_for(workload, seed, pass_no)[:limit]
        failures += check_ops(record, ops, expected)
        (traced if want_traced else plain).append(record)
        if trace and not traced:
            continue
        if time.perf_counter() - start + longest > seconds:
            break

    setups += [r["setup_s"] for r in plain]
    latencies = [op[1] for r in plain for op in r["ops"]]
    attempted = sum(len(r["ops"]) for r in plain + traced)
    verify_s = statistics.median(r["verify_s"] for r in plain)
    if trace:
        per_pass = [
            at_nominal_speed(
                tracing.layer_metrics(r["spans"], r["verify_wall_s"]),
                r["verify_s"] / r["verify_wall_s"],
                units,
            )
            for r in traced
        ]
        metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
        traced_verify_s = statistics.median(r["verify_s"] for r in traced)
        metrics["trace.overhead_s"] = traced_verify_s - verify_s
        metrics["fail_frac"] = len(failures) / attempted
        unobserved = traced[0]["unobserved"]
    else:
        deciles = statistics.quantiles(latencies, n=10, method="inclusive")
        metrics = {
            "setup_s": statistics.median(setups),
            "verify_s": verify_s,
            "op_p50_ms": statistics.median(latencies),
            "op_p90_ms": deciles[8],
            "peak_rss_mb": statistics.median(r["peak_rss_kb"] for r in plain) / 1024.0,
        }
        traced_verify_s = None
        unobserved = []

    result = {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }
    return {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "limit": limit,
        "passes": {"plain": len(plain), "traced": len(traced)},
        "verify_s": {"plain": verify_s, "traced": traced_verify_s},
        "verify_wall_s": {
            "plain": statistics.median(r["verify_wall_s"] for r in plain),
            "traced": statistics.median(r["verify_wall_s"] for r in traced) if traced else None,
        },
        "reference_s": statistics.median(x for r in plain + traced for x in r["reference_s"]),
        "ops_per_pass": len(ops),
        "samples": {"setup": len(setups), "latency": len(latencies)},
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "unobserved_targets": unobserved,
        "unobserved_layers": tracing.unobserved_layers(unobserved),
        "failures": failures[:20],
        "result": result,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        record = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark could not run: {exc}", file=sys.stderr)
        return 2
    if record["unobserved_layers"]:
        print(f"unobserved layers: {', '.join(record['unobserved_layers'])}", file=sys.stderr)
    for line in record["failures"]:
        print(f"failed: {line}", file=sys.stderr)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(RUNS / name, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
    print(json.dumps(record["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
