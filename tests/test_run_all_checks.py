import os
import subprocess
import sys
from pathlib import Path

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
    assert [line.split()[0] for line in lines[:-1]] == [*IDENTITIES, "pfaffian"]
    assert all(" tuples  ok " in line for line in lines[:-1])
    assert lines[-1] == "all checks passed"
