import argparse
import csv
import dataclasses
import io
import json

import pytest

from scpp.cli import build_parser, main
from scpp.verify import IDENTITIES


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


def test_main_builds_the_parser_once(capsys):
    build_parser.cache_clear()
    run_cli(capsys, "count", "box", "--a", "1", "--b", "1", "--c", "1")
    run_cli(capsys, "count", "box", "--a", "2", "--b", "2", "--c", "2")
    assert build_parser.cache_info().misses == 1


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
# The csv hook-content line was recorded when csv cells began to be quoted
# as needed, so a list-valued field stays one cell.
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
    ('schur evaluate --shape 2,2 --n 3 --at 1,1/2,-1', 0, '{"value": "5/4"}\n'),
    ('schur hook-content --gamma 2 --alpha 1 --n 3', 0, '{"coefficients": ["0", "0", "1", "1", "2", "1", "1"]}\n'),
    ('schur hook-content --gamma 2 --alpha 1 --n 3 --format csv', 0, 'coefficients\n"[\'0\', \'0\', \'1\', \'1\', \'2\', \'1\', \'1\']"\n'),
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
]


@pytest.mark.parametrize(("argv", "code", "out"), GOLDEN, ids=[g[0] for g in GOLDEN])
def test_golden_output(capsys, argv, code, out):
    assert run_cli(capsys, *argv.split()) == (code, out)


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
