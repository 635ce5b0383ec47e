"""Record the expected stdout line of every op any seed can draw.

    python3 bench/record_expected.py

Runs each op of each workload's universe once and writes
``bench/expected.json``, keyed by the op's argv joined with spaces.  It
refuses to record an op that fails, so the file only ever holds lines of
verifications that match.  Rerun it only when a change to the CLI output
is intended; otherwise the benchmark counts a changed line as a failed op.
"""

import json
import sys

import child
import workloads


def main() -> int:
    expected = {}
    for workload in sorted(workloads.WORKLOADS):
        for op in workloads.universe(workload):
            code, out, error = child.run_op(op)
            key = " ".join(op)
            if code != 0 or error is not None or json.loads(out).get("match") is not True:
                print(f"not recorded, the op fails: {key}: {error or out}", file=sys.stderr)
                return 1
            expected[key] = out
        print(f"{workload}: {len(workloads.universe(workload))} ops", file=sys.stderr)
    with open(child.ROOT / "bench" / "expected.json", "w") as fh:
        json.dump(expected, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
