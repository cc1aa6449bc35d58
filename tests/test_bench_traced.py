"""Each bench workload, traced, on a short run: the harness exits 0 (its
coverage guard exits 3 when a traced run records no call of an expected
layer) and reports every checked item correct."""

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("workload", ["certify", "verify", "sample"])
def test_traced_run_exits_0_and_is_correct(workload):
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "7",
            "--seconds", "0.2", "--trace", "1"]
    done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stdout[-2000:] + done.stderr[-2000:]
    assert json.loads(done.stdout.splitlines()[-1])["correct"] is True
