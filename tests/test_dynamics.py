import json

import numpy as np
import pytest

from qslpath import (
    IntegrationError,
    LindbladModel,
    ModelError,
    StateError,
    StationaryStateError,
    amplitude_damping,
    catalog,
    evolve,
    lindblad_rhs,
    model_from_dict,
    load_model,
    precession,
    pure_dephasing,
    spiral,
    state_to_bloch,
    stationary_state,
    trace_distance,
)
from qslpath.dynamics import EXCITED_STATE, PLUS_STATE, SIGMA_MINUS
from conftest import random_density

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MIXED = 0.5 * np.eye(2, dtype=complex)


class TestGenerator:
    def test_frozen(self):
        model = LindbladModel(name="frozen", dim=2,
                              hamiltonian=np.zeros((2, 2), dtype=complex), jumps=[])
        assert np.allclose(lindblad_rhs(model, MIXED), 0.0)

    def test_damping_from_excited(self):
        g = 1.7
        out = lindblad_rhs(amplitude_damping(g), EXCITED_STATE)
        assert np.allclose(out, g * np.diag([1.0, -1.0]))

    def test_precession_velocity(self):
        # H = (omega/2) sigma_z turns the Bloch vector at rate omega about z
        w = 2.0
        out = lindblad_rhs(precession(w), PLUS_STATE)
        vel = [float(np.trace(out @ p).real) for p in
               (np.array([[0, 1], [1, 0]]), np.array([[0, -1j], [1j, 0]]), np.diag([1, -1]))]
        assert np.allclose(vel, [0.0, w, 0.0], atol=1e-12)

    def test_hermitian_traceless(self, rng):
        for _ in range(20):
            dim = int(rng.integers(2, 5))
            g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            model = LindbladModel(
                name="random", dim=dim, hamiltonian=0.5 * (g + g.conj().T),
                jumps=[(rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim)), 0.5)],
            )
            out = lindblad_rhs(model, random_density(rng, dim))
            assert np.max(np.abs(out - out.conj().T)) < 1e-12
            assert abs(np.trace(out)) < 1e-12

    def test_dimension_mismatch(self, rng):
        with pytest.raises(StateError):
            lindblad_rhs(amplitude_damping(1.0), random_density(rng, 3))


class TestEvolve:
    def test_initial_point_unchanged(self):
        model = amplitude_damping(1.0)
        traj = evolve(model, model.rho0, 1.0, 64)
        assert np.array_equal(traj.states[0], model.rho0)
        assert traj.times[0] == 0.0

    def test_damping_half_life(self):
        model = amplitude_damping(1.0)
        traj = evolve(model, model.rho0, np.log(2.0), 2000)
        pops = np.real(np.diag(traj.states[-1]))
        assert np.max(np.abs(pops - 0.5)) < 1e-6

    def test_precession_circle(self):
        model = precession(1.0)
        traj = evolve(model, model.rho0, 2.0, 2000)
        for i in (500, 1000, 2000):
            t = traj.times[i]
            expected = np.array([np.cos(t), np.sin(t), 0.0])
            assert np.max(np.abs(state_to_bloch(traj.states[i]) - expected)) < 1e-6

    def test_dephasing_coherence_decay(self):
        model = pure_dephasing(0.8)
        traj = evolve(model, model.rho0, 2.0, 2000)
        x = state_to_bloch(traj.states[-1])[0]
        assert abs(x - np.exp(-2 * 0.8 * 2.0)) < 1e-6

    @pytest.mark.parametrize("gamma,omega", [(1.0, 0.0), (0.5, 5.0), (0.2, 1.0)])
    def test_matches_catalog_oracle(self, gamma, omega):
        model = spiral(gamma, omega)
        traj = evolve(model, model.rho0, min(4.0, 8.0 / max(gamma, 0.1)), 2000)
        worst = max(
            trace_distance(traj.states[i], model.oracles.state(traj.times[i]))
            for i in range(0, len(traj.times), 40)
        )
        assert worst < 1e-6

    def test_trace_preservation_and_positivity(self):
        for model in catalog(gamma=1.0, omega=3.0):
            traj = evolve(model, model.rho0, 3.0, 1000)
            traces = np.einsum("ijj->i", traj.states).real
            assert np.max(np.abs(traces - 1.0)) < 1e-8
            eigs = np.linalg.eigvalsh(traj.states)
            assert eigs.min() > -1e-8
            dtr = np.abs(np.einsum("ijj->i", traj.derivatives))
            assert dtr.max() < 1e-10

    def test_contractivity_toward_fixed_point(self):
        for model in (amplitude_damping(1.0), pure_dephasing(1.0), spiral(0.5, 5.0)):
            rho_f, _ = stationary_state(model)
            traj = evolve(model, model.rho0, 4.0, 500)
            d = [trace_distance(s, rho_f) for s in traj.states]
            assert all(b <= a + 1e-9 for a, b in zip(d, d[1:]))

    def test_rk4_convergence_order(self):
        model = amplitude_damping(1.0)
        errors = []
        for steps in (64, 128, 256):
            traj = evolve(model, model.rho0, 2.0, steps)
            worst = max(
                trace_distance(traj.states[i], model.oracles.state(traj.times[i]))
                for i in range(0, steps + 1, max(1, steps // 16))
            )
            errors.append(worst)
        exponents = [np.log2(a / b) for a, b in zip(errors, errors[1:])]
        assert all(3.5 <= e <= 4.5 for e in exponents)

    def test_unstable_run_raises_with_step(self):
        model = amplitude_damping(50.0)
        with pytest.raises(IntegrationError) as err:
            evolve(model, model.rho0, 10.0, 16)
        assert err.value.step is not None

    def test_rejects_bad_grid(self):
        model = amplitude_damping(1.0)
        with pytest.raises(ModelError):
            evolve(model, model.rho0, 1.0, 8)
        with pytest.raises(ModelError):
            evolve(model, model.rho0, -1.0, 64)

    @pytest.mark.parametrize("tau", [float("nan"), float("inf")])
    def test_rejects_non_finite_horizon(self, tau):
        model = amplitude_damping(1.0)
        with pytest.raises(ModelError) as err:
            evolve(model, model.rho0, tau, 64)
        assert "tau" in str(err.value)

    def test_rejects_invalid_initial_state(self):
        model = amplitude_damping(1.0)
        with pytest.raises(StateError):
            evolve(model, np.diag([0.7, 0.7]).astype(complex), 1.0, 64)


class TestStationaryState:
    def test_damping(self):
        rho_f, asymptotic = stationary_state(amplitude_damping(2.0))
        assert np.allclose(rho_f, KET0)
        assert asymptotic

    def test_dephasing(self):
        rho_f, asymptotic = stationary_state(pure_dephasing(1.0))
        assert np.allclose(rho_f, MIXED)
        assert asymptotic

    def test_unitary_has_none(self):
        with pytest.raises(StationaryStateError):
            stationary_state(precession(1.0))

    def test_propagation_fallback(self):
        # same dynamics as amplitude damping but without the analytic entry
        bare = LindbladModel(
            name="bare-damping", dim=2,
            hamiltonian=np.zeros((2, 2), dtype=complex),
            jumps=[(SIGMA_MINUS, 1.0)],
        )
        rho_f, asymptotic = stationary_state(bare)
        assert trace_distance(rho_f, KET0) < 1e-9
        assert asymptotic


class TestCatalog:
    def test_contains_four_models(self):
        names = [m.name for m in catalog()]
        assert names == ["amplitude-damping", "pure-dephasing", "precession", "spiral"]

    def test_spiral_reduces_to_dephasing(self):
        a = evolve(spiral(0.7, 0.0), PLUS_STATE, 2.0, 500)
        b = evolve(pure_dephasing(0.7), PLUS_STATE, 2.0, 500)
        worst = max(trace_distance(x, y) for x, y in zip(a.states[::50], b.states[::50]))
        assert worst < 1e-12

    def test_spiral_radius(self):
        model = spiral(0.6, 4.0)
        traj = evolve(model, model.rho0, 2.0, 1000)
        for i in (250, 500, 1000):
            r = np.linalg.norm(state_to_bloch(traj.states[i]))
            assert abs(r - np.exp(-2 * 0.6 * traj.times[i])) < 1e-7

    def test_damping_length_closed_form(self, rng):
        # independent check of the arccos closed form by brute quadrature
        from conftest import brute_force_length
        g, t = 1.4, 1.1
        model = amplitude_damping(g)
        brute = brute_force_length(model.oracles.speed, t)
        assert abs(brute - np.arccos(np.exp(-0.5 * g * t))) < 5e-4
        assert model.oracles.path_length(t) == pytest.approx(np.arccos(np.exp(-0.5 * g * t)))

    def test_rejects_negative_rates(self):
        with pytest.raises(ModelError):
            amplitude_damping(-1.0)
        with pytest.raises(ModelError):
            spiral(1.0, -2.0)

    @pytest.mark.parametrize("build", [
        lambda: amplitude_damping(float("nan")),
        lambda: pure_dephasing(float("inf")),
        lambda: precession(float("nan")),
        lambda: spiral(float("nan"), 1.0),
        lambda: spiral(1.0, float("inf")),
    ])
    def test_rejects_non_finite_rates(self, build):
        with pytest.raises(ModelError):
            build()

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")])
    def test_constructor_rejects_non_finite_rate(self, rate):
        with pytest.raises(ModelError) as err:
            LindbladModel(name="bad", dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                          jumps=[(SIGMA_MINUS, rate)])
        assert "jumps[0]" in str(err.value)

    def test_constructor_rejects_non_finite_operator(self):
        op = SIGMA_MINUS.copy()
        op[0, 0] = np.nan
        with pytest.raises(ModelError) as err:
            LindbladModel(name="bad", dim=2, hamiltonian=np.zeros((2, 2), dtype=complex),
                          jumps=[(op, 1.0)])
        assert "jumps[0]" in str(err.value)


class TestModelWireFormat:
    def wire(self, m):
        return [[float(x.real), float(x.imag)] for x in np.asarray(m).reshape(-1)]

    def test_round_trip(self):
        ref = spiral(0.5, 5.0)
        doc = {
            "name": "rebuilt",
            "dim": 2,
            "hamiltonian": self.wire(ref.hamiltonian),
            "jumps": [{"matrix": self.wire(op), "rate": rate} for op, rate in ref.jumps],
        }
        model = model_from_dict(doc)
        a = evolve(model, PLUS_STATE, 1.0, 200)
        b = evolve(ref, PLUS_STATE, 1.0, 200)
        assert trace_distance(a.states[-1], b.states[-1]) < 1e-12

    def test_nested_rows_accepted(self):
        doc = {
            "dim": 2,
            "hamiltonian": [[[0.0, 0.0], [0.5, 0.0]], [[0.5, 0.0], [0.0, 0.0]]],
            "jumps": [],
        }
        model = model_from_dict(doc)
        assert np.allclose(model.hamiltonian, 0.5 * np.array([[0, 1], [1, 0]]))

    def test_load_from_file(self, tmp_path):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({
            "dim": 2,
            "hamiltonian": self.wire(np.zeros((2, 2))),
            "jumps": [{"matrix": self.wire(SIGMA_MINUS), "rate": 1.0}],
        }))
        model = load_model(str(path))
        traj = evolve(model, EXCITED_STATE, np.log(2.0), 1000)
        assert abs(traj.states[-1][1, 1].real - 0.5) < 1e-6

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d.update(dim=1), "dim"),
        (lambda d: d.update(dim="two"), "dim"),
        (lambda d: d.pop("hamiltonian"), "hamiltonian"),
        (lambda d: d.update(hamiltonian=[[1.0, 0.0]] * 3), "hamiltonian"),
        (lambda d: d.update(hamiltonian=[[0.0, 0.0], [1.0, 0.0], [0.0, 0.0], [0.0, 0.0]]),
         "hamiltonian"),
        (lambda d: d["jumps"][0].update(rate=-2.0), "jumps[0].rate"),
        (lambda d: d["jumps"][0].update(matrix=[["x", 0]] * 4), "jumps[0].matrix"),
    ])
    def test_field_diagnostics(self, mutate, field):
        doc = {
            "dim": 2,
            "hamiltonian": self.wire(np.zeros((2, 2))),
            "jumps": [{"matrix": self.wire(SIGMA_MINUS), "rate": 1.0}],
        }
        mutate(doc)
        with pytest.raises(ModelError) as err:
            model_from_dict(doc)
        assert field in str(err.value)

    @pytest.mark.parametrize("mutate,field", [
        (lambda d: d["jumps"][0].update(rate=float("nan")), "jumps[0].rate"),
        (lambda d: d["jumps"][0].update(rate=float("inf")), "jumps[0].rate"),
        (lambda d: d["jumps"][0].update(matrix=[[float("nan"), 0.0]] * 4), "jumps[0].matrix"),
        (lambda d: d.update(hamiltonian=[[float("inf"), 0.0]] * 4), "hamiltonian"),
    ])
    def test_non_finite_fields_rejected(self, mutate, field):
        self.test_field_diagnostics(mutate, field)

    def test_bad_json_reports_line(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"dim": 2,\n  "hamiltonian": }')
        with pytest.raises(ModelError) as err:
            load_model(str(path))
        assert "line 2" in str(err.value)
