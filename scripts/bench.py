#!/usr/bin/env python3
"""Run the benchmark on every workload over a fixed list of seeds and write
the medians and quartiles of its metrics to ``BENCH_<tag>.json``.

    python3 scripts/bench.py --tag NAME

Each run is ``python3 bench/run.py --workload W --seed S --seconds 40``,
one at a time, in the repository that holds this script.  Every workload
and seed gets an untraced run, whose end-to-end metrics are summarised,
and a run with ``--trace 1``, whose per-layer metrics are summarised the
same way.  The file is written at the repository root with the commit
(``-dirty`` when the tracked files differ from it), the git tree ids of
``src`` and ``bench`` as measured (compare them with
``git rev-parse <commit>:src``), the host and the Python version.

A file records one tree at one time.  Host speed drifts between runs made
far apart, so two files are not compared metric by metric: a claimed gain
rests on interleaved parent/change pairs.  Seed 7 is not in the list: it
is kept for checking a claimed gain on a seed the change was not tuned on.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("enum", "schur", "pfaffian")
SEEDS = (1, 2, 3, 4, 5)
SECONDS = 40


def summarize(results: list[dict]) -> dict:
    """Median and quartiles of each metric over the result lines of
    ``bench/run.py``, with the unit and the number of runs."""
    out = {}
    for name in results[0]["metrics"]:
        values = sorted(r["metrics"][name]["value"] for r in results)
        if len(values) > 1:
            q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        else:
            q1 = median = q3 = values[0]
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": median,
            "q1": q1,
            "q3": q3,
            "runs": len(values),
        }
    return out


def run_bench(workload: str, seed: int, trace: bool) -> dict:
    """The result line of one ``bench/run.py`` run."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed)]
    argv += ["--seconds", str(SECONDS), "--trace", "1" if trace else "0"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:])} exited {done.returncode}: {done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])


def workload_record(results: list[dict], traced: list[dict]) -> dict:
    """Summary of one workload's runs: outcome counts and metric statistics."""
    everything = results + traced
    return {
        "seeds": list(SEEDS),
        "attempted": sum(r["attempted"] for r in everything),
        "failed": sum(r["failed"] for r in everything),
        "correct": all(r["correct"] for r in everything),
        "end_to_end": summarize(results),
        "per_layer": summarize(traced),
    }


def _git(*args: str) -> str:
    return subprocess.run(
        ["git", *args], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.strip()


def _measured_trees() -> dict:
    """Tree ids of ``src`` and ``bench`` in the working tree.  ``git stash
    create`` records uncommitted changes to tracked files without touching
    the working tree or any ref; it prints nothing when there are none."""
    ref = _git("stash", "create") or "HEAD"
    return {part: _git("rev-parse", f"{ref}:{part}") for part in ("src", "bench")}


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tag", required=True, help="the file is named BENCH_<tag>.json")
    args = parser.parse_args(argv)
    workloads = {}
    for workload in WORKLOADS:
        results = [run_bench(workload, seed, False) for seed in SEEDS]
        traced = [run_bench(workload, seed, True) for seed in SEEDS]
        workloads[workload] = workload_record(results, traced)
        print(f"{workload}: done", file=sys.stderr)
    bench = {
        "tag": args.tag,
        "commit": _git("describe", "--always", "--dirty", "--abbrev=40"),
        "trees": _measured_trees(),
        "host": {
            "cpu": _cpu_model(),
            "nproc": os.cpu_count(),
            "machine": platform.machine(),
            "system": platform.system(),
        },
        "python": platform.python_version(),
        "command": f"bench/run.py --workload W --seed S --seconds {SECONDS}",
        "workloads": workloads,
    }
    path = ROOT / f"BENCH_{args.tag}.json"
    with open(path, "w") as fh:
        json.dump(bench, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(path)
    return 0 if all(w["correct"] for w in workloads.values()) else 1


if __name__ == "__main__":
    sys.exit(main())
