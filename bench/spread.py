"""Run-to-run spread of the end-to-end metrics, as the acceptance check takes it.

    python3 bench/spread.py --runs 10 [--workload W ...] [--first-seed N]

Runs ``bench/run.py`` once per seed (seeds N, N+1, ...) on each workload
and prints, for every end-to-end metric, the median and the distance
between the first and third quartiles as a share of the median, next to
the metric's bound.  A spread at or above a third of the bound is marked.
"""

import argparse
import json
import statistics
import subprocess
import sys

import run


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workload", action="append", choices=names)
    parser.add_argument("--first-seed", type=int, default=1)
    args = parser.parse_args()
    steady = True
    for workload in args.workload or names:
        values: dict[str, list[float]] = {}
        for seed in range(args.first_seed, args.first_seed + args.runs):
            argv = spec["command"] + [
                "--workload", workload, "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]), "--trace", "0",
            ]
            proc = subprocess.run(argv, cwd=run.ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                print(f"{workload} seed {seed}: {result['failed']} failed ops", file=sys.stderr)
                steady = False
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
        for metric in spec["end_to_end"]:
            vals = values[metric["name"]]
            median = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / median
            mark = "" if share < metric["bound"] / 3 else "  <-- not below bound/3"
            if mark and metric["name"] != "setup_s":
                steady = False
            print(
                f"{workload:9s} {metric['name']:12s} median {median:10.4f} {metric['unit']:3s}"
                f" spread {share:.3f} bound {metric['bound']}{mark}"
            )
            print(f"{'':9s} {'':12s} values {[round(v, 4) for v in vals]}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
