import dataclasses
import importlib.util
import os
import subprocess
import sys
from pathlib import Path

import scpp.verify
from scpp.verify import IDENTITIES

ROOT = Path(__file__).resolve().parent.parent


def test_run_checks_every_table_row():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == list(IDENTITIES)
    assert lines[-2].split()[:4] == ["pfaffian", "555", "tuples", "ok"]
    assert all(" tuples  ok " in line for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_pfaffian_sweep_checks_the_determinant(monkeypatch, capsys):
    path = ROOT / "scripts" / "run_all_checks.py"
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    row = IDENTITIES["pfaffian"]
    tuples = list(row.grid)[::28]  # 20 tuples, all three cases
    assert script.sweep("pfaffian", row.run, tuples) == 0
    # a determinant that disagrees with Pf^2 must count as a mismatch
    monkeypatch.setattr(scpp.verify, "exact_determinant", lambda rows: -1)
    assert script.sweep("pfaffian", row.run, tuples) == 20
    assert capsys.readouterr().out.count("MISMATCH pfaffian") == 20
    # and one that raises is an error: printed, counted, and the sweep goes on
    def broken(rows):
        raise RuntimeError("elimination failed")

    monkeypatch.setattr(scpp.verify, "exact_determinant", broken)
    monkeypatch.setattr(script, "IDENTITIES", {"pfaffian": dataclasses.replace(row, grid=tuples)})
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:-2] == [f"  ERROR pfaffian {t}: elimination failed" for t in tuples]
    assert lines[-2].split()[:6] == ["pfaffian", "20", "tuples", "0", "MISMATCHES,", "20"]
    assert lines[-1] == "20 tuples failed"
