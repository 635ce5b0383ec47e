"""Self-test of the benchmark harness.

    python3 bench/selftest.py

Checks that the self time of nested spans is computed as documented,
that times are scaled to nominal host speed as documented, that tracing
reports layers it cannot find as unobserved, that an untraced run emits
every end-to-end metric and a traced run every per-layer metric with the
unit BENCHMARK.json declares, and that one
corrupted expected line makes the run count a failed op, which proves the
correctness check can fail.  The runs use the first few ops of one seed.
Exits 0 when every check holds.
"""

import json
import sys

import reference
import run
import tracing
import workloads

WORKLOAD, SEED, LIMIT = "pfaffian", 1, 8


def check_self_time(problems: list[str]) -> None:
    spans = [
        ["cli/main", 0.0, 10.0, -1, 0, None],
        ["verify/verify_scpp_count", 1.0, 9.0, 0, 0, None],
        ["pp.count/count_scpp", 2.0, 5.0, 1, 0, 7],
        ["pp.count/count_scpp", 3.0, 4.0, 2, 0, 3],
        ["products/sc_count", 6.0, 6.5, 1, 0, None],
    ]
    want = {
        "cli.self_s": 2.0,
        "verify.self_s": 4.5,
        "pp.count_s": 3.0,
        "pp.count_calls": 1,
        "pp.objects": 7,
        "products.s": 0.5,
        "trace.unattributed_s": 2.0,
    }
    got = tracing.layer_metrics(spans, verify_s=12.0)
    for name, value in want.items():
        if got[name] != value:
            problems.append(f"layer_metrics: {name} is {got[name]}, expected {value}")


def check_scaling(problems: list[str]) -> None:
    # a host running the reference loop at half the nominal speed halves every time
    slow = 2 * reference.NOMINAL_S
    if reference.scale(3.0, slow, slow) != 1.5:
        problems.append("reference.scale does not scale by the nominal over the sampled loop time")
    got = run.at_nominal_speed({"t": 3.0, "rate": 2.0, "n": 7}, 0.5, {"t": "s", "rate": "1/s", "n": "count"})
    if got != {"t": 1.5, "rate": 4.0, "n": 7}:
        problems.append(f"at_nominal_speed scaled a traced pass to {got}")


def check_unobserved(problems: list[str]) -> None:
    # this process never imports scpp, so no target can be found
    tracer = tracing.Tracer()
    tracer.install()
    if tracing.unobserved_layers(tracer.unobserved) != list(tracing.LAYERS):
        problems.append("install: missing targets were not all reported as unobserved")


def check_metrics(problems: list[str], spec: dict) -> None:
    for trace, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.run_workload(WORKLOAD, SEED, 0, trace, limit=LIMIT)["result"]
        want = {m["name"]: m["unit"] for m in spec[section]}
        got = {name: m["unit"] for name, m in result["metrics"].items()}
        if got != want:
            problems.append(f"{section}: emitted {sorted(got.items())}, declared {sorted(want.items())}")
        if any(not isinstance(m["value"], (int, float)) for m in result["metrics"].values()):
            problems.append(f"{section}: a metric value is not a number")
        if not result["correct"] or result["failed"]:
            problems.append(f"{section}: the unmodified run failed {result['failed']} ops")


def check_corrupted_line(problems: list[str]) -> None:
    with open(run.EXPECTED) as fh:
        expected = json.load(fh)
    key = " ".join(workloads.ops_for(WORKLOAD, SEED)[0])
    expected[key] = expected[key].replace('"match": true', '"match": false')
    result = run.run_workload(WORKLOAD, SEED, 0, False, limit=LIMIT, expected=expected)["result"]
    if result["correct"] or result["failed"] == 0:
        problems.append("a corrupted expected line did not make the op fail")


def main() -> int:
    with open(run.ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    problems: list[str] = []
    check_self_time(problems)
    check_scaling(problems)
    check_unobserved(problems)
    check_metrics(problems, spec)
    check_corrupted_line(problems)
    for line in problems:
        print(f"FAIL {line}")
    print("selftest:", "failed" if problems else "ok")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
