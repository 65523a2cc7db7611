import json
import os
import subprocess
import sys

import numpy as np
import pytest

import qslpath
from qslpath.cli import REPORT_HEADER, SWEEP_HEADER, main


def run_cli(*argv):
    return main(list(argv))


def read_csv(path):
    lines = path.read_text().strip().split("\n")
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]
            if not line.startswith("#")]
    footers = [line for line in lines[1:] if line.startswith("#")]
    return header, rows, footers


class TestRun:
    def test_damping_geodesic_row(self, tmp_path, capsys):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "amplitude-damping", "--gamma", "1.0",
                       "--tau", "1.386294", "--steps", "4000", "--out", str(out))
        assert code == 0
        header, rows, _ = read_csv(out)
        assert ",".join(header) == REPORT_HEADER
        row = rows[0]
        assert abs(float(row["path_length"]) - np.pi / 3) < 1e-4
        assert row["verdict"] == "attainable"
        assert float(row["tau_min"]) == pytest.approx(1.386294, rel=1e-3)

    def test_spiral_unattainable(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "spiral", "--gamma", "0.5", "--omega", "5",
                       "--tau", "2", "--steps", "8000", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["verdict"] == "unattainable"
        assert float(rows[0]["tau_av"]) < 2.0

    def test_frozen_precession(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "precession", "--omega", "0",
                       "--tau", "1", "--steps", "64", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert float(rows[0]["bures_angle"]) < 1e-7
        assert float(rows[0]["tau_min"]) == 0.0

    def test_tau_list_many_rows(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "pure-dephasing", "--tau-list", "0.5,1.0,2.0",
                       "--steps", "500", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert [float(r["tau"]) for r in rows] == [0.5, 1.0, 2.0]

    def test_stdout_when_no_out(self, capsys):
        code = run_cli("run", "--model", "precession", "--omega", "2",
                       "--tau", "1", "--steps", "64")
        assert code == 0
        captured = capsys.readouterr().out
        assert captured.startswith(REPORT_HEADER)

    def test_init_bloch_triple(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "amplitude-damping", "--init", "0,0,-1",
                       "--tau", "1", "--steps", "200", "--out", str(out))
        assert code == 0

    def test_init_mixed_gives_nan_norm_bounds(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "amplitude-damping", "--init", "0,0,0",
                       "--tau", "1", "--steps", "200", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["tau_op"] == "nan"

    def test_init_matrix_file(self, tmp_path):
        state = tmp_path / "state.json"
        state.write_text(json.dumps({
            "dim": 2,
            "matrix": [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [1.0, 0.0]],
        }))
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "amplitude-damping", "--init", str(state),
                       "--tau", "1", "--steps", "200", "--out", str(out))
        assert code == 0

    def test_custom_model_file(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "name": "my-damping",
            "dim": 2,
            "hamiltonian": [[0.0, 0.0]] * 4,
            "jumps": [{"matrix": [[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]],
                       "rate": 1.0}],
        }))
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", str(model), "--init", "excited",
                       "--tau", "1", "--steps", "500", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["model"] == "my-damping"
        assert rows[0]["gamma"] == "nan"

    def test_deterministic_output(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for out in (a, b):
            assert run_cli("run", "--model", "spiral", "--gamma", "0.5", "--omega", "5",
                           "--tau-list", "1,2", "--steps", "400", "--out", str(out)) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "model": "pure-dephasing", "gamma": 1.0, "tau": 1.0, "steps": 200,
        }))
        out = tmp_path / "run.csv"
        code = run_cli("run", "--config", str(cfg), "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["model"] == "pure-dephasing"

    def test_flags_override_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "pure-dephasing", "tau": 1.0, "steps": 200}))
        out = tmp_path / "run.csv"
        code = run_cli("run", "--config", str(cfg), "--tau", "2.0", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert float(rows[0]["tau"]) == 2.0

    def test_attainability_tolerance_flag(self, tmp_path):
        out = tmp_path / "run.csv"
        code = run_cli("run", "--model", "spiral", "--gamma", "0.5", "--omega", "5",
                       "--tau", "2", "--steps", "1000", "--atol-attainable", "10.0",
                       "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["verdict"] == "attainable"
        assert float(rows[0]["tolerance"]) == 10.0


class TestConfigErrors:
    def test_unknown_model(self, tmp_path, capsys):
        out = tmp_path / "never.csv"
        code = run_cli("run", "--model", "warp-drive", "--tau", "1", "--out", str(out))
        assert code == 2
        assert not out.exists()
        assert "unknown model" in capsys.readouterr().err

    def test_bad_steps(self, tmp_path):
        out = tmp_path / "never.csv"
        code = run_cli("run", "--model", "spiral", "--tau", "1", "--steps", "4",
                       "--out", str(out))
        assert code == 2
        assert not out.exists()

    def test_missing_tau(self):
        assert run_cli("run", "--model", "spiral") == 2

    def test_negative_rate(self):
        assert run_cli("run", "--model", "spiral", "--gamma", "-1", "--tau", "1") == 2

    @pytest.mark.parametrize("argv,field", [
        (["run", "--model", "spiral", "--gamma", "nan", "--tau", "1"], "--gamma"),
        (["run", "--model", "spiral", "--gamma", "inf", "--tau", "1"], "--gamma"),
        (["run", "--model", "spiral", "--omega", "nan", "--tau", "1"], "--omega"),
        (["run", "--model", "spiral", "--tau", "nan"], "--tau"),
        (["run", "--model", "spiral", "--tau", "inf"], "--tau"),
        (["run", "--model", "spiral", "--tau-list", "1,nan"], "--tau-list"),
        (["epsilon-sweep", "--model", "pure-dephasing", "--tau", "nan"], "--tau"),
        (["epsilon-sweep", "--model", "pure-dephasing", "--tau", "inf"], "--tau"),
        (["divergence-scan", "--model", "spiral", "--tau-list", "1,inf"], "--tau-list"),
    ])
    def test_non_finite_numbers_rejected(self, argv, field, tmp_path, capsys):
        out = tmp_path / "never.csv"
        assert run_cli(*argv, "--out", str(out)) == 2
        assert not out.exists()
        assert field in capsys.readouterr().err

    def test_non_finite_config_rate_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text('{"model": "spiral", "gamma": NaN, "tau": 1.0}')
        assert run_cli("run", "--config", str(cfg)) == 2
        assert "--gamma" in capsys.readouterr().err

    def test_non_descending_eps(self):
        assert run_cli("epsilon-sweep", "--model", "pure-dephasing", "--tau", "1",
                       "--eps-list", "1e-3,1e-2") == 2

    def test_sweep_needs_stationary_state(self):
        assert run_cli("epsilon-sweep", "--model", "precession", "--tau", "1",
                       "--steps", "200") == 2

    def test_bad_init(self):
        assert run_cli("run", "--model", "spiral", "--tau", "1", "--init", "0.9,0.9") == 2
        assert run_cli("run", "--model", "spiral", "--tau", "1", "--init", "2,0,0") == 2

    def test_custom_model_needs_init(self, tmp_path):
        model = tmp_path / "model.json"
        model.write_text(json.dumps({
            "dim": 2, "hamiltonian": [[0.0, 0.0]] * 4, "jumps": [],
        }))
        assert run_cli("run", "--model", str(model), "--tau", "1") == 2

    def test_unknown_config_key(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model": "spiral", "tau": 1.0, "steeps": 3}))
        assert run_cli("run", "--config", str(cfg)) == 2

    def test_unstable_run_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "boom.csv"
        code = run_cli("run", "--model", "amplitude-damping", "--gamma", "50",
                       "--tau", "10", "--steps", "16", "--out", str(out))
        assert code == 3
        assert "step" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ("run", "--model", "spiral", "--tau", "1", "--steps", "1000000000"),
        ("epsilon-sweep", "--model", "spiral", "--tau", "1", "--steps", "1000000000"),
        # only the largest horizon's 10**9 steps pass the cap
        ("divergence-scan", "--model", "spiral", "--tau-list", "1,2000000", "--steps", "500"),
        # steps per unit time times the horizon overflows a float
        ("divergence-scan", "--model", "spiral", "--tau-list", "1,2", "--steps", "9" * 401),
        ("divergence-scan", "--model", "spiral", "--tau-list", "1,1e308", "--steps", "500"),
    ], ids=["run", "epsilon-sweep", "divergence-scan", "divergence-scan-huge-steps",
            "divergence-scan-huge-horizon"])
    def test_oversized_trajectory_rejected(self, argv, capsys, forbid_large_arrays):
        assert run_cli(*argv) == 2
        assert "--steps" in capsys.readouterr().err


class TestEpsilonSweep:
    def test_dephasing_slope(self, tmp_path):
        out = tmp_path / "sweep.csv"
        eps = ",".join(f"1e-{k}" for k in range(1, 9))
        code = run_cli("epsilon-sweep", "--model", "pure-dephasing", "--gamma", "1.0",
                       "--tau", "12", "--steps", "24000", "--eps-list", eps,
                       "--out", str(out))
        assert code == 0
        header, rows, footers = read_csv(out)
        assert ",".join(header) == SWEEP_HEADER
        xs = [np.log(1.0 / float(r["epsilon"])) for r in rows]
        ts = [float(r["T"]) for r in rows]
        slope = np.polyfit(xs, ts, 1)[0]
        assert slope == pytest.approx(0.5, rel=0.05)
        assert footers and footers[0].startswith("# floor_epsilon=")

    def test_big_threshold_crosses_immediately(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("epsilon-sweep", "--model", "pure-dephasing", "--tau", "2",
                       "--steps", "2000", "--eps-list", "0.6", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert float(rows[0]["T"]) == 0.0

    def test_saturated_flag_below_floor(self, tmp_path):
        out = tmp_path / "sweep.csv"
        code = run_cli("epsilon-sweep", "--model", "pure-dephasing", "--tau", "8",
                       "--steps", "8000", "--eps-list", "1e-2,1e-18", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert rows[0]["saturated"] == "false"
        assert rows[1]["saturated"] == "true"


class TestDivergenceScan:
    def test_spiral_growth(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("divergence-scan", "--model", "spiral", "--gamma", "0.5",
                       "--omega", "5", "--tau-list", "2,4,8,16", "--steps", "400",
                       "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        ops = [float(r["tau_op"]) for r in rows]
        assert all(b > a for a, b in zip(ops, ops[1:]))
        assert all(r["verdict"] == "unattainable" for r in rows)

    def test_damping_attainable_rows(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("divergence-scan", "--model", "amplitude-damping",
                       "--tau-list", "2,4,8", "--steps", "400", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert all(r["verdict"] == "attainable" for r in rows)

    def test_single_row(self, tmp_path):
        out = tmp_path / "scan.csv"
        code = run_cli("divergence-scan", "--model", "spiral", "--tau-list", "2",
                       "--steps", "400", "--out", str(out))
        assert code == 0
        _, rows, _ = read_csv(out)
        assert len(rows) == 1

    def test_unstable_scan_is_numerical_failure(self, tmp_path, capsys):
        out = tmp_path / "boom.csv"
        code = run_cli("divergence-scan", "--model", "amplitude-damping", "--gamma", "5000",
                       "--tau-list", "1,2", "--steps", "16", "--out", str(out))
        assert code == 3
        assert "step" in capsys.readouterr().err
        assert not out.exists()

    def test_unsorted_rejected(self):
        assert run_cli("divergence-scan", "--model", "spiral",
                       "--tau-list", "4,2", "--steps", "400") == 2


class TestOtherCommands:
    def test_models_lists_catalog(self, capsys):
        assert run_cli("models") == 0
        text = capsys.readouterr().out
        for name in ("amplitude-damping", "pure-dephasing", "precession", "spiral"):
            assert name in text

    def test_entry_point_help(self):
        # the child imports the same package as this test process
        src = os.path.dirname(os.path.dirname(qslpath.__file__))
        path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
        proc = subprocess.run(
            [sys.executable, "-m", "qslpath.cli", "--help"],
            capture_output=True, text=True, env=dict(os.environ, PYTHONPATH=path),
        )
        assert proc.returncode == 0
        assert "epsilon-sweep" in proc.stdout


def test_verify_passes(capsys):
    assert run_cli("verify") == 0
    out = capsys.readouterr().out
    assert out.count("PASS") == 7
    assert "FAIL" not in out
