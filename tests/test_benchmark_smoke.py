"""The benchmark in ``perfbench/`` still runs against the library: a
one-second ``qubit-horizon`` run exits 0, passes its output checks and its
CLI cross-check.  Its timings are not checked."""

import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def test_qubit_horizon_run_is_correct():
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "qubit-horizon",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert any(line.startswith("# cli_cross_check passed") for line in lines)
