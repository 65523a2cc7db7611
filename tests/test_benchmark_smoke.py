"""The benchmark in ``perfbench/`` still runs against the library: one-second
runs of an untraced ``qubit-horizon`` and a traced ``short-batch`` exit 0,
pass their output checks and their CLI cross-check.  Their timings are not
checked."""

import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_benchmark(workload, trace):
    """Run a one-second benchmark; returns its result line as a dict."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "1", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert result["correct"] is True
    assert result["failed"] == 0
    assert any(line.startswith("# cli_cross_check passed") for line in lines)
    return result


def test_qubit_horizon_run_is_correct():
    run_benchmark("qubit-horizon", trace=0)


def test_traced_short_batch_run_is_correct():
    # the traced probe reads SpeedProfile.origin_times: 240 origin samples
    # next to the 65 grid points of a 64-step trajectory
    metrics = run_benchmark("short-batch", trace=1)["metrics"]
    assert metrics["geometry.origin_share"]["value"] == pytest.approx(240 / 305, rel=1e-12)
