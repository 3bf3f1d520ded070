"""Tests of the benchmark harness itself (not of unsharpjoint).

Run with ``python -m pytest perfbench``.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
RUN = HERE / "run.py"


def test_smoke_emits_every_metric_and_self_times_add_up():
    proc = subprocess.run([sys.executable, str(RUN), "--smoke"], capture_output=True, text=True,
                          timeout=300, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stdout[-3000:] + proc.stderr[-3000:]
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == {"smoke": "ok", "problems": []}


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "qubit", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], capture_output=True, text=True,
                          timeout=180, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
