"""Record a point of the benchmark trajectory: the untraced and traced
results of every workload, with the host they ran on.

    python3 bench/baseline.py OUT.json

Each workload runs untraced and traced with seed 1, and traced again with
seed 2.  The seed check requires that both seeds fail no op and give the
same ``pp.objects`` and ``schur.calls`` totals, since a seed only changes
the order and orientation of the ops.  Exits 1 if the check fails.
"""

import json
import os
import platform
import subprocess
import sys

import run

SEEDS = (1, 2)
INVARIANT = ("pp.objects", "schur.calls")


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _commit() -> str:
    try:
        proc = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=run.ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return "unknown"
    return proc.stdout.strip()


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    seconds = spec["run_seconds"]
    workloads, seed_check, ok = {}, {}, True
    for workload in (w["name"] for w in spec["workloads"]):
        untraced = run.run_workload(workload, SEEDS[0], seconds, False)
        traced = [run.run_workload(workload, seed, seconds, True) for seed in SEEDS]
        workloads[workload] = {"untraced": untraced, "traced": traced[0], "traced_seed2": traced[1]}
        totals = [{k: t["result"]["metrics"][k]["value"] for k in INVARIANT} for t in traced]
        failed = [t["result"]["failed"] for t in traced]
        same = totals[0] == totals[1] and not any(failed)
        seed_check[workload] = {"seeds": list(SEEDS), "failed": failed, "totals": totals, "ok": same}
        ok = ok and same and untraced["result"]["correct"]
        print(f"{workload}: seed check {'ok' if same else 'FAILED'}", file=sys.stderr)
    record = {
        "commit": _commit(),
        "host": {
            "nproc": os.cpu_count(),
            "cpu": _cpu_model(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "run_seconds": seconds,
        "seed_check": seed_check,
        "workloads": workloads,
    }
    with open(argv[0], "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
