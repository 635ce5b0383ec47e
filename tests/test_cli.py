import argparse
import csv
import dataclasses
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from scpp import partitions
from scpp.cli import build_parser, main
from scpp.verify import IDENTITIES

ROOT = Path(__file__).resolve().parent.parent


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_count_box(capsys):
    code, out = run_cli(capsys, "count", "box", "--a", "2", "--b", "2", "--c", "2")
    assert code == 0
    assert out.strip() == '{"value": "20"}'


def test_count_brute_matches_closed_form(capsys):
    code, out = run_cli(capsys, "count", "box-brute", "--a", "3", "--b", "2", "--c", "3")
    closed_code, closed_out = run_cli(capsys, "count", "box", "--a", "3", "--b", "2", "--c", "3")
    assert code == closed_code == 0
    assert out == closed_out


def test_count_scpp_signed(capsys):
    code, out = run_cli(capsys, "count", "scpp-signed", "--a", "2", "--b", "3", "--c", "3")
    assert code == 0
    assert json.loads(out) == {"negative": "5", "positive": "4", "signed_total": "-1"}


def test_count_middle_line(capsys):
    code, out = run_cli(
        capsys, "count", "middle-line-brute", "--a", "3", "--b", "3", "--c1", "4", "--c2", "2"
    )
    assert code == 0
    assert json.loads(out)["value"] == "18"


def test_schur_evaluate(capsys):
    code, out = run_cli(
        capsys, "schur", "evaluate", "--shape", "2,2", "--n", "4", "--at", "1,1,1,1"
    )
    assert code == 0
    assert json.loads(out) == {"value": "20"}


def test_schur_evaluate_fractions(capsys):
    code, out = run_cli(
        capsys, "schur", "evaluate", "--shape", "1", "--n", "2", "--at", "1/2,1/3"
    )
    assert code == 0
    assert json.loads(out) == {"value": "5/6"}


def test_schur_polynomial_terms(capsys):
    code, out = run_cli(capsys, "schur", "evaluate", "--shape", "2,1", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"nvars": 2, "terms": [[[1, 2], "1"], [[2, 1], "1"]]}


def test_schur_hook_content(capsys):
    code, out = run_cli(capsys, "schur", "hook-content", "--gamma", "1", "--alpha", "1", "--n", "2")
    assert code == 0
    assert json.loads(out) == {"coefficients": ["0", "1", "1"]}


def test_schur_alternating(capsys):
    code, out = run_cli(capsys, "schur", "alternating", "--gamma", "2", "--alpha", "2", "--m", "4")
    assert code == 0
    assert json.loads(out) == {"value": "4"}


@pytest.mark.parametrize(
    "flags",
    [
        ("evaluate", "--shape", "10000000", "--n", "3"),
        ("evaluate", "--shape", "10000000", "--n", "3", "--at", "1,2,3"),
        ("alternating", "--gamma", "10000000", "--alpha", "1", "--m", "3"),
    ],
)
def test_schur_charges_the_strips_before_listing_them(monkeypatch, capsys, flags):
    # the first level has 10^7 + 1 strips: the charge stops the descent before
    # any is listed, so a tree that lists first fails here instead of allocating
    def listing(*ranges):
        raise AssertionError("listed strips past the cap")

    monkeypatch.setattr(partitions, "_cartesian", listing)
    code, out = run_cli(capsys, "schur", *flags, "--budget", "1000")
    assert code == 2
    assert json.loads(out) == {
        "error": {"code": "budget-exceeded", "message": "work budget exceeded: 1001 nodes > cap 1000"}
    }


@pytest.mark.parametrize(
    ("flags", "expected"),
    [
        (("--n", "2"), {"nvars": 2, "terms": []}),
        (("--n", "2", "--at", "1,1"), {"value": "0"}),
    ],
)
def test_schur_lists_no_strips_of_a_shape_with_too_many_rows(monkeypatch, capsys, flags, expected):
    # (2*10^9, 1, 1) has no strips in 2 variables, and its charge is 0: listing
    # them anyway would copy its first row range, 2*10^9 values, into a tuple
    real = partitions._cartesian

    def listing(*ranges):
        assert all(ranges) and sum(map(len, ranges)) < 1000, "listed the strips of an empty range"
        return real(*ranges)

    monkeypatch.setattr(partitions, "_cartesian", listing)
    code, out = run_cli(capsys, "schur", "evaluate", "--shape", "2000000000,1,1", *flags)
    assert code == 0
    assert json.loads(out) == expected


def test_pfaffian_check(capsys):
    code, out = run_cli(
        capsys, "pfaffian", "--case", "even-even", "--a", "2", "--b", "2", "--c1", "2", "--c2", "2"
    )
    assert code == 0
    assert out.strip() == '{"match": true, "pfaffian": "4", "product": "4"}'


def test_verify_exit_codes(capsys):
    code, out = run_cli(
        capsys, "verify", "schurid1", "--gamma1", "1", "--gamma2", "1", "--alpha", "1", "--n", "2"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["match"] is True
    assert payload["identity"] == "schurid1"
    assert "elapsed" not in payload


def test_verify_missing_parameter(capsys):
    code, out = run_cli(capsys, "verify", "box", "--a", "2", "--b", "2")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


def test_bad_parity_is_exit_2(capsys):
    code, out = run_cli(
        capsys, "count", "middle-line", "--a", "2", "--b", "3", "--c1", "2", "--c2", "2"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "bad-parity"


def test_budget_exceeded_is_exit_2(capsys):
    code, out = run_cli(
        capsys, "count", "box-brute", "--a", "3", "--b", "3", "--c", "3", "--budget", "10"
    )
    assert code == 2
    assert json.loads(out)["error"]["code"] == "budget-exceeded"


def test_output_is_byte_deterministic(capsys):
    args = ("verify", "schurid2", "--gamma1", "2", "--gamma2", "1", "--alpha", "1", "--n", "2")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second


def test_out_file(tmp_path, capsys):
    target = tmp_path / "result.json"
    code, out = run_cli(
        capsys, "count", "box", "--a", "1", "--b", "1", "--c", "1", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert target.read_text() == '{"value": "2"}\n'


def test_sweep_with_flags(capsys):
    code, out = run_cli(
        capsys, "sweep", "scpp", "--set", "a=1..2", "--set", "b=2", "--set", "c=2,3"
    )
    assert code == 0
    lines = out.strip().splitlines()
    summary = json.loads(lines[-1])
    assert summary["status"] == "summary"
    assert summary["checked"] == 4
    assert summary["matched"] == 4
    assert summary["mismatched"] == 0
    # deterministic ordering: tuples sorted by parameter values
    params = [tuple(json.loads(l)["parameters"].values()) for l in lines[:-1]]
    assert params == sorted(params)


def test_sweep_skips_inadmissible_tuples(capsys):
    code, out = run_cli(
        capsys, "sweep", "signed", "--set", "a=2", "--set", "b=2..3", "--set", "c=3"
    )
    assert code == 0
    lines = [json.loads(l) for l in out.strip().splitlines()]
    statuses = {tuple(l.get("parameters", {}).values()): l["status"] for l in lines[:-1]}
    assert statuses[(2, 2, 3)] == "skipped"
    assert statuses[(2, 3, 3)] == "ok"
    assert lines[-1]["skipped"] == 1


def test_sweep_with_config_file(tmp_path, capsys):
    config = tmp_path / "grid.cfg"
    config.write_text("a=2..4:2\nb=2\n# comment line\nc=2\n")
    code, out = run_cli(capsys, "sweep", "box", "--config", str(config))
    assert code == 0
    lines = out.strip().splitlines()
    assert json.loads(lines[-1])["checked"] == 2


def test_sweep_with_workers_matches_serial(capsys):
    args = ("sweep", "schurid1", "--set", "gamma1=0..1", "--set", "gamma2=0..1",
            "--set", "alpha=1", "--set", "n=1..2")
    _, serial = run_cli(capsys, *args)
    _, parallel = run_cli(capsys, *args, "--workers", "2")
    assert serial == parallel
    assert json.loads(serial.strip().splitlines()[-1])["skipped"] == 2  # gamma1 < gamma2


def test_sweep_rejects_unknown_parameters(capsys):
    code, out = run_cli(capsys, "sweep", "box", "--set", "a=1", "--set", "b=1", "--set", "z=1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


def test_sweep_missing_parameter_range(capsys):
    code, out = run_cli(capsys, "sweep", "box", "--set", "a=1")
    assert code == 2
    assert json.loads(out)["error"]["code"] == "usage"


def test_csv_format(capsys):
    code, out = run_cli(
        capsys, "verify", "box", "--a", "2", "--b", "2", "--c", "2", "--format", "csv"
    )
    assert code == 0
    header, row = out.strip().splitlines()
    assert header.split(",")[0] == "identity"
    assert row.startswith("box,")


@pytest.mark.parametrize(
    "argv",
    [
        "schur hook-content --gamma 2 --alpha 1 --n 3",
        "schur evaluate --shape 2,1 --n 2",
        "sweep box --set a=1 --set b=1..2 --set c=1",
    ],
)
def test_csv_rows_have_as_many_cells_as_the_header(capsys, argv):
    code, out = run_cli(capsys, *argv.split(), "--format", "csv")
    assert code == 0
    header, *rows = csv.reader(io.StringIO(out))
    assert rows
    assert all(len(row) == len(header) for row in rows), (header, rows)
    # a list-valued cell is the JSON text of the list the json format prints
    _, as_json = run_cli(capsys, *argv.split())
    records = [json.loads(line) for line in as_json.splitlines()]
    for record, row in zip(records, rows, strict=True):
        for key, cell in zip(header, row):
            if isinstance(record.get(key), list):
                assert json.loads(cell) == record[key]


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    run_cli(capsys, "count", "box", "--a", "1", "--b", "1", "--c", "1")
    run_cli(capsys, "count", "box", "--a", "2", "--b", "2", "--c", "2")
    assert build_parser.cache_info().misses == 1


@pytest.mark.parametrize(
    "argv",
    [
        "sweep box --set a=1 --set b=1 --set c=1 --config {tmp}/missing.cfg",
        "count box --a 1 --b 1 --c 1 --out {tmp}/missing/x.json",
    ],
)
def test_file_errors_are_invalid_parameters(tmp_path, capsys, argv):
    code, out = run_cli(capsys, *argv.format(tmp=tmp_path).split())
    assert code == 2
    error = json.loads(out)["error"]
    assert error["code"] == "invalid-parameter"
    assert str(tmp_path / "missing") in error["message"]


def test_text_format(capsys):
    code, out = run_cli(
        capsys, "verify", "box", "--a", "2", "--b", "2", "--c", "2", "--format", "text"
    )
    assert code == 0
    assert "match=True" in out


# exact stdout and exit code of one call per identity, count target, schur
# action and error code, recorded before the verification table was introduced;
# since then the sweep summary also counts failed tuples, a count target
# called without one of its parameters is a usage error instead of a crash,
# every subcommand rejects a --budget below 1, sweep rejects --workers below
# 1, --method is a usage error for an identity with a single route, and a
# --budget stops the counts and the weight check on a box too large to list;
# a count or a weight check without --budget stops at the default cap on
# such a box, and scpp-signed rejects a negative side as scpp-brute does.
# The three evaluation-sweep lines for schurid2 at (2, 1, 2, 3), recorded
# before the sweep evaluated each prefix once, pin its hashes and its
# budget: 6 glued terms plus one unit for each of the 8^4 = 4,096 points.
# The csv hook-content line was re-recorded when a list-valued csv or text
# cell began to carry the JSON text of the list, and the text evaluate line
# was recorded then.  The last three lines were recorded when every charging
# route began to charge the default cap without --budget and verify began to
# check n before charging: a schurid sweep over 22^6 points stops before it
# builds a polynomial, and n = -1 is an invalid parameter whatever the cap.
# The zero-denominator --at line was recorded when its message began to
# name the coordinate.  The last five lines were recorded when a sweep
# range that lists no value became a usage error, when an --at coordinate
# that is not a rational number began to be named, and when the bridge and
# the alternating value began to come from the value kernel: the largest
# rectangle of the wider bridge grid, on an all-odd box, so the value is 0.
# The next two lines were recorded when a second --set of one parameter
# became a usage error and a range that does not parse began to be named.
# The last three were recorded when a missing --a of count and a missing
# flag of pfaffian became usage errors, as any other missing parameter
# was, and a --shape part that is not an integer began to be named.
# The last two were recorded when an argument argparse rejects (a flag
# value it cannot parse, a missing positional) became a JSON usage line.
GOLDEN = [
    ('verify box --a 2 --b 2 --c 2', 0, '{"identity": "box", "lhs": "20", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 2, "c": 2}, "rhs": "20"}\n'),
    ('verify scpp --a 2 --b 3 --c 2', 0, '{"identity": "scpp", "lhs": "6", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 3, "c": 2}, "rhs": "6"}\n'),
    ('verify middle-line --a 3 --b 3 --c1 4 --c2 2', 0, '{"identity": "middle-line", "lhs": "18", "match": true, "method": "enumeration", "parameters": {"a": 3, "b": 3, "c1": 4, "c2": 2}, "rhs": "18"}\n'),
    ('verify signed --a 2 --b 3 --c 3', 0, '{"identity": "signed", "lhs": "1", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 3, "c": 3}, "rhs": "1"}\n'),
    ('verify signed --a 2 --b 2 --c 2', 0, '{"identity": "signed-all-even", "lhs": "2", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 2, "c": 2}, "rhs": "2"}\n'),
    ('verify schurid1 --gamma1 2 --gamma2 1 --alpha 1 --n 2 --method full-expansion', 0, '{"identity": "schurid1", "lhs": "7d8c95372e027a68", "match": true, "method": "full-expansion", "parameters": {"alpha": 1, "gamma1": 2, "gamma2": 1, "n": 2}, "rhs": "7d8c95372e027a68"}\n'),
    ('verify schurid1 --gamma1 2 --gamma2 1 --alpha 1 --n 2 --method evaluation-sweep', 0, '{"identity": "schurid1", "lhs": "e573d8e7f81f74c0", "match": true, "method": "evaluation-sweep", "parameters": {"alpha": 1, "gamma1": 2, "gamma2": 1, "n": 2}, "rhs": "e573d8e7f81f74c0"}\n'),
    ('verify schurid2 --gamma1 1 --gamma2 1 --alpha 1 --n 2', 0, '{"identity": "schurid2", "lhs": "19923d77ea944797", "match": true, "method": "full-expansion", "parameters": {"alpha": 1, "gamma1": 1, "gamma2": 1, "n": 2}, "rhs": "19923d77ea944797"}\n'),
    ('verify schurid2 --gamma1 1 --gamma2 1 --alpha 1 --n 2 --method evaluation-sweep', 0, '{"identity": "schurid2", "lhs": "672d8115202ebff5", "match": true, "method": "evaluation-sweep", "parameters": {"alpha": 1, "gamma1": 1, "gamma2": 1, "n": 2}, "rhs": "672d8115202ebff5"}\n'),
    ('verify schurid2 --gamma1 2 --gamma2 1 --alpha 2 --n 3 --method evaluation-sweep', 0, '{"identity": "schurid2", "lhs": "469ea84f7340846c", "match": true, "method": "evaluation-sweep", "parameters": {"alpha": 2, "gamma1": 2, "gamma2": 1, "n": 3}, "rhs": "469ea84f7340846c"}\n'),
    ('verify schurid2 --gamma1 2 --gamma2 1 --alpha 2 --n 3 --method evaluation-sweep --budget 4101', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 4102 nodes > cap 4101"}}\n'),
    ('verify schurid2 --gamma1 2 --gamma2 1 --alpha 2 --n 3 --method evaluation-sweep --budget 4102', 0, '{"identity": "schurid2", "lhs": "469ea84f7340846c", "match": true, "method": "evaluation-sweep", "parameters": {"alpha": 2, "gamma1": 2, "gamma2": 1, "n": 3}, "rhs": "469ea84f7340846c"}\n'),
    ('verify square-reduction --gamma 1 --alpha 1 --n 2', 0, '{"identity": "square-reduction", "lhs": "df748c6d1e674427", "match": true, "method": "full-expansion", "parameters": {"alpha": 1, "gamma": 1, "n": 2}, "rhs": "df748c6d1e674427"}\n'),
    ('verify weight --a 2 --b 2 --c 2', 0, '{"identity": "weight", "lhs": "components=1;sign_flips_ok=True", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 2, "c": 2}, "rhs": "components=1;sign_flips_ok=True"}\n'),
    ('verify bridge --gamma 1 --alpha 2 --m 4', 0, '{"identity": "bridge", "lhs": "ones=6;alternating=-2", "match": true, "method": "evaluation", "parameters": {"alpha": 2, "gamma": 1, "m": 4}, "rhs": "ones=6;alternating=-2"}\n'),
    ('verify box --a 1 --b 2 --c 1 --format csv', 0, 'identity,lhs,match,method,parameters,rhs\nbox,3,True,enumeration,a=1;b=2;c=1,3\n'),
    ('verify box --a 1 --b 2 --c 1 --format text', 0, 'identity=box  lhs=3  match=True  method=enumeration  parameters=a=1;b=2;c=1  rhs=3\n'),
    ('count box --a 2 --b 3 --c 4', 0, '{"value": "490"}\n'),
    ('count box-brute --a 2 --b 3 --c 2', 0, '{"value": "50"}\n'),
    ('count scpp --a 2 --b 3 --c 4', 0, '{"value": "18"}\n'),
    ('count scpp-brute --a 2 --b 3 --c 4', 0, '{"value": "18"}\n'),
    ('count scpp-signed --a 2 --b 3 --c 3', 0, '{"negative": "5", "positive": "4", "signed_total": "-1"}\n'),
    ('count signed-product --a 2 --b 3 --c 3', 0, '{"value": "1"}\n'),
    ('count signed-all-even --a 2 --b 2 --c 4', 0, '{"value": "3"}\n'),
    ('count middle-line --a 3 --b 3 --c1 4 --c2 2', 0, '{"value": "18"}\n'),
    ('count middle-line-brute --a 3 --b 3 --c1 4 --c2 2', 0, '{"value": "18"}\n'),
    ('schur evaluate --shape 2,1 --n 2', 0, '{"nvars": 2, "terms": [[[1, 2], "1"], [[2, 1], "1"]]}\n'),
    # the branching rule lists only the strips whose shape fits in n - 1 rows
    ('schur evaluate --shape 2147483647 --n 1', 0, '{"nvars": 1, "terms": [[[2147483647], "1"]]}\n'),
    # the descent of (2, 1) in 2 variables lists 2 strips, then 1 for each of (2) and (1)
    ('schur evaluate --shape 2,1 --n 2 --budget 3', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 4 nodes > cap 3"}}\n'),
    ('schur evaluate --shape 2,1 --n 2 --budget 4', 0, '{"nvars": 2, "terms": [[[1, 2], "1"], [[2, 1], "1"]]}\n'),
    ('schur evaluate --shape 2,2 --n 3 --at 1,1/2,-1', 0, '{"value": "5/4"}\n'),
    ('schur hook-content --gamma 2 --alpha 1 --n 3', 0, '{"coefficients": ["0", "0", "1", "1", "2", "1", "1"]}\n'),
    ('schur hook-content --gamma 2 --alpha 1 --n 3 --format csv', 0, 'coefficients\n"[""0"", ""0"", ""1"", ""1"", ""2"", ""1"", ""1""]"\n'),
    ('schur evaluate --shape 1 --n 2 --format text', 0, 'nvars=2  terms=[[[0, 1], "1"], [[1, 0], "1"]]\n'),
    ('schur alternating --gamma 2 --alpha 2 --m 5', 0, '{"value": "6"}\n'),
    ('pfaffian --case a-odd --a 3 --b 2 --c1 4 --c2 2', 0, '{"match": true, "pfaffian": "9", "product": "9"}\n'),
    ('verify box --a 2 --b 2', 2, '{"error": {"code": "usage", "message": "--c is required for identity box"}}\n'),
    ('count middle-line --a 2 --b 3 --c1 2 --c2 2', 2, '{"error": {"code": "bad-parity", "message": "a even with b odd is not a covered case"}}\n'),
    ('count box-brute --a 3 --b 3 --c 3 --budget 10', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 11 nodes > cap 10"}}\n'),
    ('count box --a -1 --b 2 --c 2', 2, '{"error": {"code": "invalid-parameter", "message": "box sides must be nonnegative"}}\n'),
    ('count box --a 1 --b 1', 2, '{"error": {"code": "usage", "message": "--c is required for this target"}}\n'),
    ('count middle-line --a 3 --b 3', 2, '{"error": {"code": "usage", "message": "--c1 is required for this target"}}\n'),
    ('verify schurid1 --gamma1 1 --gamma2 2 --alpha 1 --n 1', 2, '{"error": {"code": "invalid-parameter", "message": "gamma1 must be at least gamma2"}}\n'),
    ('schur evaluate --shape 1 --n 2 --at 1', 2, '{"error": {"code": "usage", "message": "evaluation point must have exactly n coordinates"}}\n'),
    ('count box-brute --a 3 --b 3 --c 3 --budget 0', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('count box --a 3 --b 3 --c 3 --budget -1', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('schur evaluate --shape 1 --n 1 --budget 0', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('pfaffian --case a-odd --a 3 --b 2 --c1 4 --c2 2 --budget -1', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('verify box --a 1 --b 1 --c 1 --budget 0', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('sweep box --set a=1 --set b=1 --set c=1 --budget 0', 2, '{"error": {"code": "invalid-parameter", "message": "budget cap must be positive"}}\n'),
    ('count box-brute --a 1 --b 40 --c 40 --budget 10', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 11 nodes > cap 10"}}\n'),
    ('count scpp-signed --a 2 --b 40 --c 40 --budget 10', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 11 nodes > cap 10"}}\n'),
    ('count middle-line-brute --a 2 --b 40 --c1 40 --c2 40 --budget 10', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 11 nodes > cap 10"}}\n'),
    ('verify weight --a 3 --b 40 --c 40 --budget 10', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 11 nodes > cap 10"}}\n'),
    ('count box-brute --a 1 --b 20 --c 20', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 100000001 nodes > cap 100000000"}}\n'),
    ('verify weight --a 2 --b 20 --c 20', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 100000001 nodes > cap 100000000"}}\n'),
    ('count scpp-signed --a -1 --b 1 --c 1', 2, '{"error": {"code": "invalid-parameter", "message": "box sides must be nonnegative"}}\n'),
    ('sweep box --set a=1 --set b=1 --set c=1 --workers 0', 2, '{"error": {"code": "invalid-parameter", "message": "worker count must be positive"}}\n'),
    ('verify box --a 1 --b 1 --c 1 --method evaluation-sweep', 2, '{"error": {"code": "usage", "message": "--method does not apply to identity box"}}\n'),
    ('sweep bridge --set gamma=1 --set alpha=1 --set m=2 --method full-expansion', 2, '{"error": {"code": "usage", "message": "--method does not apply to identity bridge"}}\n'),
    ('sweep middle-line --set a=2..3 --set b=2..3 --set c1=2 --set c2=0..2:2', 0, '{"identity": "middle-line", "lhs": "2", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 2, "c1": 2, "c2": 0}, "rhs": "2", "status": "ok"}\n{"identity": "middle-line", "lhs": "4", "match": true, "method": "enumeration", "parameters": {"a": 2, "b": 2, "c1": 2, "c2": 2}, "rhs": "4", "status": "ok"}\n{"identity": "middle-line", "parameters": {"a": 2, "b": 3, "c1": 2, "c2": 0}, "reason": "a even with b odd is not a covered case", "status": "skipped"}\n{"identity": "middle-line", "parameters": {"a": 2, "b": 3, "c1": 2, "c2": 2}, "reason": "a even with b odd is not a covered case", "status": "skipped"}\n{"identity": "middle-line", "lhs": "2", "match": true, "method": "enumeration", "parameters": {"a": 3, "b": 2, "c1": 2, "c2": 0}, "rhs": "2", "status": "ok"}\n{"identity": "middle-line", "lhs": "6", "match": true, "method": "enumeration", "parameters": {"a": 3, "b": 2, "c1": 2, "c2": 2}, "rhs": "6", "status": "ok"}\n{"identity": "middle-line", "lhs": "3", "match": true, "method": "enumeration", "parameters": {"a": 3, "b": 3, "c1": 2, "c2": 0}, "rhs": "3", "status": "ok"}\n{"identity": "middle-line", "lhs": "9", "match": true, "method": "enumeration", "parameters": {"a": 3, "b": 3, "c1": 2, "c2": 2}, "rhs": "9", "status": "ok"}\n{"checked": 6, "failed": 0, "identity": "middle-line", "matched": 6, "mismatched": 0, "skipped": 2, "status": "summary"}\n'),
    ('verify schurid1 --gamma1 3 --gamma2 3 --alpha 3 --n 5 --method evaluation-sweep', 2, '{"error": {"code": "budget-exceeded", "message": "work budget exceeded: 100000001 nodes > cap 100000000"}}\n'),
    ('verify schurid1 --gamma1 1 --gamma2 1 --alpha 1 --n -1 --budget 1', 2, '{"error": {"code": "invalid-parameter", "message": "variable count must be nonnegative"}}\n'),
    ('verify square-reduction --gamma 1 --alpha 1 --n -1 --budget 1', 2, '{"error": {"code": "invalid-parameter", "message": "variable count must be nonnegative"}}\n'),
    ('schur evaluate --shape 1 --n 1 --at 1/0', 2, '{"error": {"code": "invalid-parameter", "message": "--at coordinate 1 (1/0) has a zero denominator"}}\n'),
    ('sweep bridge --set gamma=1 --set alpha=1 --set m=3..1', 2, '{"error": {"code": "usage", "message": "empty range for m: \'3..1\'"}}\n'),
    ('sweep bridge --set gamma=1 --set alpha=1 --set m=,', 2, '{"error": {"code": "usage", "message": "empty range for m: \',\'"}}\n'),
    ('schur evaluate --shape 1 --n 1 --at x', 2, '{"error": {"code": "invalid-parameter", "message": "--at coordinate 1 (x) is not a rational number"}}\n'),
    ('schur evaluate --shape 1 --n 2 --at ,', 2, '{"error": {"code": "invalid-parameter", "message": "--at coordinate 1 () is not a rational number"}}\n'),
    ('schur alternating --gamma 5 --alpha 5 --m 12', 0, '{"value": "0"}\n'),
    ('sweep bridge --set gamma=1 --set alpha=1 --set m=1 --set m=2', 2, '{"error": {"code": "usage", "message": "--set gives m more than once"}}\n'),
    ('sweep bridge --set gamma=1 --set alpha=1 --set m=1..3,5', 2, '{"error": {"code": "invalid-parameter", "message": "bad range for m: \'1..3,5\'"}}\n'),
    ('count box --b 1 --c 1', 2, '{"error": {"code": "usage", "message": "--a is required for this target"}}\n'),
    ('pfaffian --case a-odd --a 1 --b 1 --c1 2', 2, '{"error": {"code": "usage", "message": "--c2 is required for pfaffian"}}\n'),
    ('schur evaluate --shape 1,x --n 2', 2, '{"error": {"code": "invalid-parameter", "message": "--shape part 2 (x) is not an integer"}}\n'),
    ('count box --a x --b 1 --c 1', 2, '{"error": {"code": "usage", "message": "argument --a: invalid int value: \'x\'"}}\n'),
    ('verify', 2, '{"error": {"code": "usage", "message": "the following arguments are required: identity"}}\n'),
]


@pytest.mark.parametrize(("argv", "code", "out"), GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, code, out):
    # every line, an error included, is on stdout; stderr stays empty
    assert main(argv.split()) == code
    assert capsys.readouterr() == (out, "")


def test_importing_the_cli_loads_no_process_pool():
    # only a sweep with --workers above 1 imports the pool
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    code = "import sys, scpp.cli; print('concurrent.futures' in sys.modules)"
    done = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60
    )
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr


_FORMATS = ("json", "csv", "text")
_METHODS = ("full-expansion", "evaluation-sweep")
_NAMES = ("box", "bridge", "middle-line", "schurid1", "schurid2", "scpp", "signed",
          "square-reduction", "weight")
_COMMON = {"-h": None, "--format": _FORMATS, "--budget": None, "--out": None}
HELP_FLAGS = {
    "count": {"target": ("box", "box-brute", "scpp", "scpp-brute", "scpp-signed",
                         "signed-product", "signed-all-even", "middle-line",
                         "middle-line-brute"),
              **dict.fromkeys(("--a", "--b", "--c", "--c1", "--c2"))},
    "schur": {"action": ("evaluate", "hook-content", "alternating"),
              **dict.fromkeys(("--shape", "--n", "--at", "--gamma", "--alpha", "--m"))},
    "pfaffian": {"--case": ("even-even", "a-odd", "ab-odd"),
                 **dict.fromkeys(("--a", "--b", "--c1", "--c2"))},
    "verify": {"identity": _NAMES, "--method": _METHODS, **dict.fromkeys(
        ("--a", "--b", "--c", "--c1", "--c2", "--gamma", "--gamma1", "--gamma2",
         "--alpha", "--n", "--m"))},
    "sweep": {"identity": _NAMES, "--method": _METHODS,
              **dict.fromkeys(("--set", "--config", "--workers"))},
}


@pytest.mark.parametrize("command", sorted(HELP_FLAGS))
def test_subcommand_flags_and_choices(command):
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    got = {
        (a.option_strings[0] if a.option_strings else a.dest): a.choices and tuple(a.choices)
        for a in sub.choices[command]._actions
    }
    assert got == {**_COMMON, **HELP_FLAGS[command]}


@pytest.mark.parametrize("command", ["count", "pfaffian"])
def test_each_missing_integer_flag_is_one_usage_line(capsys, command):
    # every integer flag without a default is a parameter that some call
    # needs; leaving it out of such a call is one JSON usage line on stdout
    # that names it, and argparse prints nothing on stderr
    parser = build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    actions = sub.choices[command]._actions
    flags = [a.option_strings[0] for a in actions if a.type is int and a.default is None]
    if command == "count":
        heads = [["count", t] for t in next(a for a in actions if a.dest == "target").choices]
    else:
        heads = [["pfaffian", "--case", "a-odd"]]
    reported = set()
    for head in heads:
        for flag in flags:
            main(head + [x for f in flags if f != flag for x in (f, "2")])
            captured = capsys.readouterr()
            assert captured.err == ""
            error = json.loads(captured.out).get("error", {})
            if error.get("code") == "usage":
                assert captured.out.count("\n") == 1
                assert error["message"].startswith(f"{flag} is required for ")
                reported.add(flag)
    assert reported == set(flags)


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_isolates_budget_failures(capsys, workers):
    code, out = run_cli(
        capsys, "sweep", "box", "--set", "a=1..3", "--set", "b=3", "--set", "c=3",
        "--budget", "30", "--workers", workers,
    )
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 2
    assert [l["status"] for l in lines[:-1]] == ["ok", "budget-exceeded", "budget-exceeded"]
    assert lines[0]["match"] is True
    assert lines[1]["reason"] == "work budget exceeded: 31 nodes > cap 30"
    assert lines[-1] == {
        "identity": "box", "status": "summary", "checked": 1, "matched": 1,
        "mismatched": 0, "skipped": 0, "failed": 2,
    }


@pytest.mark.parametrize(
    "argv",
    [
        "sweep schurid1 --set gamma1=1 --set gamma2=1 --set alpha=1 --set n=-1",
        "sweep square-reduction --set gamma=1 --set alpha=1 --set n=-1",
    ],
)
def test_sweep_skips_a_negative_variable_count(capsys, argv):
    # n is checked before any work is charged, so even a cap of 1 skips it
    code, out = run_cli(capsys, *argv.split(), "--budget", "1")
    line, summary = [json.loads(l) for l in out.splitlines()]
    assert code == 0
    assert (line["status"], line["reason"]) == ("skipped", "variable count must be nonnegative")
    assert (summary["skipped"], summary["failed"]) == (1, 0)


def _divide_by_zero(a, b, c, budget=None):
    raise ZeroDivisionError("division by zero")


@pytest.mark.parametrize("workers", ["1", "2"])
def test_sweep_records_arithmetic_errors(capsys, monkeypatch, workers):
    row = IDENTITIES["box"]
    # sweep workers are forked, so they see the patched row too
    monkeypatch.setitem(IDENTITIES, "box", dataclasses.replace(row, verify=_divide_by_zero))
    code, out = run_cli(
        capsys, "sweep", "box", "--set", "a=1", "--set", "b=1..2", "--set", "c=1",
        "--workers", workers,
    )
    lines = [json.loads(l) for l in out.strip().splitlines()]
    assert code == 2
    assert [(l["status"], l["reason"]) for l in lines[:-1]] == [("error", "division by zero")] * 2
    assert (lines[-1]["checked"], lines[-1]["failed"]) == (0, 2)


def test_an_empty_range_in_a_config_file_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "grid.txt"
    config.write_text("gamma = 1\nalpha = 1  # one row\nm = 4..2\n")
    code, out = run_cli(capsys, "sweep", "bridge", "--config", str(config))
    assert code == 2
    assert json.loads(out)["error"] == {"code": "usage", "message": "empty range for m: '4..2'"}


def test_a_set_overrides_the_same_key_in_a_config_file(capsys, tmp_path):
    config = tmp_path / "grid.txt"
    config.write_text("gamma = 1\nalpha = 1\nm = 1..3\n")
    code, out = run_cli(capsys, "sweep", "bridge", "--config", str(config), "--set", "m=2")
    lines = [json.loads(line) for line in out.splitlines()]
    assert code == 0
    assert [l["parameters"]["m"] for l in lines[:-1]] == [2]
    assert lines[-1]["checked"] == 1


def test_a_key_given_twice_in_a_config_file_is_a_usage_error(capsys, tmp_path):
    config = tmp_path / "grid.txt"
    config.write_text("gamma = 1\nalpha = 1\nm = 1\nm = 2\n")
    code, out = run_cli(capsys, "sweep", "bridge", "--config", str(config))
    assert code == 2
    assert json.loads(out)["error"] == {"code": "usage", "message": "--config gives m more than once"}


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        # the shape is checked before the point is read, as the polynomial route did
        ("--shape 2147483648 --n 1 --at 1", "shape part 2147483648 is not below 2147483648"),
        ("--shape 2147483648 --n 1", "shape part 2147483648 is not below 2147483648"),
        ("--shape 1 --n -1 --at x", "variable count must be nonnegative"),
        ("--shape 1,2 --n 2 --at x", "parts must be weakly decreasing, got (1, 2)"),
        ("--shape 1 --n 2 --at 1,2/x", "--at coordinate 2 (2/x) is not a rational number"),
    ],
)
def test_schur_evaluate_checks_the_shape_before_the_point(capsys, argv, message):
    code, out = run_cli(capsys, "schur", "evaluate", *argv.split())
    assert code == 2
    assert json.loads(out)["error"] == {"code": "invalid-parameter", "message": message}
