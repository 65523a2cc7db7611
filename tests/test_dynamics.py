import json
import time

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
from qslpath import dynamics
from qslpath.dynamics import (
    EXCITED_STATE,
    MAX_TRAJECTORY_BYTES,
    PLUS_STATE,
    SIGMA_MINUS,
    _gksl_rhs,
    _integrate,
    _liouvillian,
    _require_storage,
    _rk4_step,
)
from conftest import random_density

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
MIXED = 0.5 * np.eye(2, dtype=complex)
DIMS = range(2, 9)


def random_model(rng, dim):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    jumps = [
        ((rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(dim),
         float(rng.uniform(0.1, 1.0)))
        for _ in range(int(rng.integers(1, 3)))
    ]
    return LindbladModel(name=f"random-{dim}", dim=dim,
                         hamiltonian=0.5 * (g + g.conj().T), jumps=jumps)


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


def transition(i, j, dim):
    """The jump operator |i><j|."""
    op = np.zeros((dim, dim), dtype=complex)
    op[i, j] = 1.0
    return op


def gksl_reference(model, rho0, tau, steps, renormalize):
    """States and derivatives of the four-evaluation RK4 loop on the GKSL
    right-hand side, with the same symmetrization and renormalization."""
    rhs = _gksl_rhs(model)
    h = tau / steps
    rho = rho0
    states = [rho]
    for _ in range(steps):
        rho = _rk4_step(rhs, rho, rhs(rho), h)
        if renormalize:
            rho = rho / rho.trace().real
        states.append(rho)
    states = np.array(states)
    return states, rhs(states)


def propagated_limit(model, rho0):
    """The fixed point reached by propagating ``rho0`` in checkpoints of
    length 1/max(rate) until successive ones agree to 1e-12."""
    span = 1.0 / max(rate for _, rate in model.jumps)
    rho = rho0
    for _ in range(10_000):
        nxt = _integrate(model, rho, span, 256, set()).states[-1]
        if trace_distance(rho, nxt) < 1e-12:
            return nxt
        rho = nxt
    raise AssertionError(f"{model.name}: propagation did not converge")


def integration_cases():
    rng = np.random.default_rng(7)
    cases = []
    for model in catalog(gamma=1.0, omega=3.0):
        cases.append((model, model.rho0, 2.0, f"{model.name}-pure"))
        cases.append((model, random_density(rng, 2), 2.0, f"{model.name}-mixed"))
    for dim in DIMS:
        model = random_model(rng, dim)
        cases.append((model, random_pure(rng, dim), 0.5, f"random-{dim}-pure"))
        cases.append((model, random_density(rng, dim), 1.0, f"random-{dim}-mixed"))
    return cases


INTEGRATION_CASES = integration_cases()


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


class TestLiouvillian:
    @pytest.mark.parametrize("model,rho,tau,label", INTEGRATION_CASES,
                             ids=[case[-1] for case in INTEGRATION_CASES])
    def test_matches_lindblad_rhs(self, model, rho, tau, label):
        expected = lindblad_rhs(model, rho)
        got = (_liouvillian(model) @ rho.reshape(-1)).reshape(rho.shape)
        assert np.max(np.abs(got - expected)) <= 1e-14 * max(1.0, np.max(np.abs(expected)))

    @pytest.mark.parametrize("renormalize", [True, False])
    @pytest.mark.parametrize("model,rho0,tau,label", INTEGRATION_CASES,
                             ids=[case[-1] for case in INTEGRATION_CASES])
    def test_propagator_matches_gksl_steps(self, model, rho0, tau, label, renormalize):
        steps = 200
        traj = _integrate(model, rho0, tau, steps, set(), renormalize)
        states, derivs = gksl_reference(model, rho0, tau, steps, renormalize)
        assert np.max(np.abs(traj.states - states)) <= 1e-13 * np.max(np.abs(states))
        assert np.max(np.abs(traj.derivatives - derivs)) <= 1e-13 * np.max(np.abs(derivs))


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

    def test_storage_cap_rejects_before_allocating(self, forbid_large_arrays):
        model = LindbladModel(name="dim8", dim=8,
                              hamiltonian=np.zeros((8, 8), dtype=complex), jumps=[])
        with pytest.raises(ModelError) as err:
            evolve(model, np.eye(8, dtype=complex) / 8, 1.0, 10**9)
        message = str(err.value)
        assert "steps = 1000000000" in message
        assert str(32 * (10**9 + 1) * 64) in message

    def test_storage_cap_boundary(self):
        assert MAX_TRAJECTORY_BYTES == 2**30
        most = MAX_TRAJECTORY_BYTES // (32 * 64) - 1
        _require_storage(8, most)
        with pytest.raises(ModelError):
            _require_storage(8, most + 1)

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

    def test_slow_ladder(self):
        # |2> -> |1> at rate 1e-6, |1> -> |0> at rate 1: propagation in
        # checkpoints of length 1 needs ~1e7 of them to settle
        ladder = LindbladModel(
            name="slow-ladder", dim=3, hamiltonian=np.zeros((3, 3), dtype=complex),
            jumps=[(transition(0, 1, 3), 1.0), (transition(1, 2, 3), 1e-6)],
        )
        start = time.perf_counter()
        rho_f, asymptotic = stationary_state(ladder)
        assert time.perf_counter() - start < 1.0
        assert np.max(np.abs(rho_f - np.diag([1.0, 0.0, 0.0]))) < 1e-12
        assert asymptotic

    def test_degenerate_kernel_is_limit_from_maximally_mixed(self):
        # |2> is untouched, so the kernel has more than one dimension; the
        # limit from I/3 keeps |2>'s third and moves |1>'s third to |0>
        model = LindbladModel(
            name="one-jump", dim=3, hamiltonian=np.zeros((3, 3), dtype=complex),
            jumps=[(transition(0, 1, 3), 1.0)],
        )
        rho_f, asymptotic = stationary_state(model)
        assert np.max(np.abs(rho_f - np.diag([2.0, 0.0, 1.0]) / 3.0)) < 1e-12
        assert asymptotic

    def test_residual_check(self, monkeypatch):
        # with a zero tolerance no computed state is exactly in the kernel
        monkeypatch.setattr(dynamics, "KERNEL_RTOL", 0.0)
        with pytest.raises(StationaryStateError) as err:
            stationary_state(random_model(np.random.default_rng(5), 3))
        assert "kernel" in str(err.value)

    @pytest.mark.parametrize("dim", DIMS)
    def test_agrees_with_propagation(self, dim):
        model = random_model(np.random.default_rng(100 + dim), dim)
        rho_f, asymptotic = stationary_state(model)
        expected = propagated_limit(model, np.eye(dim, dtype=complex) / dim)
        assert trace_distance(rho_f, expected) < 1e-9
        assert np.max(np.abs(rho_f - rho_f.conj().T)) == 0.0
        assert abs(np.trace(rho_f) - 1.0) < 1e-14
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

    def test_spiral_length_oracle_matches_midpoint_rule(self):
        """The Gauss-Legendre spiral length agrees to 1e-12 with composite
        midpoint in s = sqrt(t) on 200000 cells, the oracle's former rule,
        once Richardson extrapolation against 400000 cells removes that
        rule's own h^2 error (up to 1.5e-11 on this grid).  Grid: the
        rates and horizons of the tests and of the benchmark's scans."""
        def midpoint(speed, t, cells):
            edges = np.linspace(0.0, np.sqrt(t), cells + 1)
            mids = 0.5 * (edges[:-1] + edges[1:])
            return float(np.sum(2.0 * mids * speed(mids * mids)) * (edges[1] - edges[0]))

        rng = np.random.default_rng(11)
        cases = [(0.5, 5.0, t) for t in (0.01, 1.0, 2.0, 3.0, 8.0)]
        cases += [(g, w, 10.0 / g) for g in (0.2, 1.0, 5.0) for w in (0.2, 1.0, 5.0)]
        cases += [(g, w, t) for g in (0.2, 2.0) for w in (1.0, 8.0) for t in (2.0, 4.0, 8.0)]
        cases += [(float(rng.uniform(0.2, 2.0)), float(rng.uniform(1.0, 8.0)), t)
                  for _ in range(8) for t in (2.0, 4.0, 8.0)]
        for g, w, t in cases:
            model = spiral(g, w)
            coarse = midpoint(model.oracles.speed, t, 200_000)
            fine = midpoint(model.oracles.speed, t, 400_000)
            assert abs(model.oracles.path_length(t) - (4.0 * fine - coarse) / 3.0) < 1e-12, (g, w, t)

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
