import importlib.util
import os
import subprocess
import sys
from pathlib import Path

from scpp.verify import IDENTITIES, PFAFFIAN_GRID

ROOT = Path(__file__).resolve().parent.parent


def test_run_checks_every_table_row():
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_all_checks.py")],
        capture_output=True, text=True, env=env, timeout=300,
    )
    assert done.returncode == 0, done.stdout + done.stderr
    lines = done.stdout.splitlines()
    assert [line.split()[0] for line in lines[:-1]] == [*IDENTITIES, "pfaffian"]
    assert all(" tuples  ok " in line for line in lines[:-1])
    assert lines[-1] == "all checks passed"


def test_pfaffian_sweep_checks_the_determinant(monkeypatch, capsys):
    path = ROOT / "scripts" / "run_all_checks.py"
    spec = importlib.util.spec_from_file_location("run_all_checks", path)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    tuples = list(PFAFFIAN_GRID)[:20]
    assert script.sweep("pfaffian", script.pfaffian_and_determinant, tuples) == 0
    # a determinant that disagrees with Pf^2 must count as a mismatch
    monkeypatch.setattr(script, "exact_determinant", lambda rows: -1)
    assert script.sweep("pfaffian", script.pfaffian_and_determinant, tuples) == 20
    assert capsys.readouterr().out.count("MISMATCH pfaffian") == 20
