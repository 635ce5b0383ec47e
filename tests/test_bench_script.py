import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", ROOT / "scripts" / "bench.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _result(verify_s, p50, failed=0):
    return {
        "correct": failed == 0,
        "attempted": 10,
        "failed": failed,
        "metrics": {
            "verify_s": {"value": verify_s, "unit": "s"},
            "op_p50_ms": {"value": p50, "unit": "ms"},
        },
    }


def test_summarize_takes_median_and_inclusive_quartiles(bench):
    results = [_result(v, p) for v, p in [(5.0, 2.0), (1.0, 4.0), (3.0, 6.0), (2.0, 8.0), (4.0, 10.0)]]
    summary = bench.summarize(results)
    assert summary["verify_s"] == {"unit": "s", "median": 3.0, "q1": 2.0, "q3": 4.0, "runs": 5}
    assert summary["op_p50_ms"] == {"unit": "ms", "median": 6.0, "q1": 4.0, "q3": 8.0, "runs": 5}


def test_summarize_interpolates_between_runs(bench):
    summary = bench.summarize([_result(v, 1.0) for v in (1.0, 2.0, 4.0, 8.0)])
    assert summary["verify_s"]["median"] == 3.0
    assert summary["verify_s"]["q1"] == 1.75
    assert summary["verify_s"]["q3"] == 5.0


def test_summarize_single_run(bench):
    summary = bench.summarize([_result(2.5, 7.0)])
    assert summary["verify_s"] == {"unit": "s", "median": 2.5, "q1": 2.5, "q3": 2.5, "runs": 1}


def test_workload_record_counts_failures_of_every_run(bench):
    plain = [_result(1.0, 1.0), _result(2.0, 1.0)]
    traced = [_result(3.0, 1.0, failed=1)]
    record = bench.workload_record(plain, traced)
    assert record["attempted"] == 30
    assert record["failed"] == 1
    assert record["correct"] is False
    assert record["end_to_end"]["verify_s"]["median"] == 1.5
    assert record["per_layer"]["verify_s"]["runs"] == 1


def test_seven_is_kept_out_of_the_seeds(bench):
    assert 7 not in bench.SEEDS
