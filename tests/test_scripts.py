"""Smoke runs of the scripts under scripts/, as subprocesses."""

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("argv, last_line", [
    (["theorem_sweep.py", "--samples", "2", "--pairs", "2"],
     r"all corpus sets verified exactly"),
    (["roundtrip_census.py", "--max-d", "3", "--n-max", "4"],
     r"17 normal forms round-tripped in \d+\.\d\ds"),
], ids=["theorem_sweep", "roundtrip_census"])
def test_script_runs_to_its_closing_line(argv, last_line):
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / argv[0]), *argv[1:]],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr
    assert re.fullmatch(last_line, done.stdout.splitlines()[-1])


@pytest.mark.parametrize("option", ["--samples", "--pairs"])
def test_theorem_sweep_refuses_an_empty_sweep(option):
    # --samples 0 --pairs 0 printed "all corpus sets verified exactly"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    done = subprocess.run([sys.executable, str(ROOT / "scripts" / "theorem_sweep.py"), option, "0"],
                          cwd=ROOT, env=env, capture_output=True, text=True, timeout=60)
    assert done.returncode == 2 and done.stdout == ""
    assert done.stderr.splitlines()[-1].endswith(
        f"error: {option} must be at least 1: a sweep over none checks nothing")
