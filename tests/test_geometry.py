import dataclasses

import numpy as np
import pytest

from qslpath import (
    FrozenDynamicsError,
    LindbladModel,
    StateError,
    amplitude_damping,
    average_speed,
    bloch_to_state,
    bures_angle,
    catalog,
    cumulative_path_integral,
    evolve,
    path_length,
    precession,
    pure_dephasing,
    qfi_rate,
    qfi_rate_bloch,
    schatten_norm,
    speed_profile,
    spiral,
)
from qslpath.geometry import bloch_velocity
from qslpath.states import eigh
from conftest import brute_force_length, random_density

FROZEN = LindbladModel(name="frozen", dim=2,
                       hamiltonian=np.zeros((2, 2), dtype=complex), jumps=[])
MIXED = 0.5 * np.eye(2, dtype=complex)


def lengths_for(model, tau, steps):
    traj = evolve(model, model.rho0, tau, steps)
    return traj, path_length(speed_profile(traj))


class TestQfiRate:
    def test_zero_derivative(self, rng):
        assert qfi_rate(MIXED, np.zeros((2, 2), dtype=complex)) == 0.0

    def test_damping_half_life(self):
        # populations (1/2, 1/2) moving at dp = -1/2: classical value 1
        rho = MIXED
        drho = 0.5 * np.diag([1.0, -1.0]).astype(complex)
        assert qfi_rate(rho, drho) == pytest.approx(1.0, abs=1e-12)

    def test_precession_pure_state(self):
        w = 3.0
        model = precession(w)
        from qslpath import lindblad_rhs
        drho = lindblad_rhs(model, model.rho0)
        assert qfi_rate(model.rho0, drho) == pytest.approx(w * w, abs=1e-8)

    def test_classical_reduction(self, rng):
        for _ in range(20):
            p = rng.uniform(0.05, 1.0, size=3)
            p = p / p.sum()
            dp = rng.normal(size=3)
            dp -= dp.mean()
            rho = np.diag(p).astype(complex)
            drho = np.diag(dp).astype(complex)
            classical = np.sum(dp * dp / p)
            assert qfi_rate(rho, drho) == pytest.approx(classical, rel=1e-10)

    def test_agrees_with_bloch_form(self, rng):
        for _ in range(100):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0 - 2e-3)
            vdot = rng.normal(size=3)
            rho = bloch_to_state(v)
            drho = 0.5 * (
                vdot[0] * np.array([[0, 1], [1, 0]])
                + vdot[1] * np.array([[0, -1j], [1j, 0]])
                + vdot[2] * np.diag([1, -1])
            ).astype(complex)
            spectral = qfi_rate(rho, drho)
            closed = qfi_rate_bloch(v, vdot)
            assert spectral == pytest.approx(closed, rel=1e-6)

    def test_agrees_with_bloch_form_near_purity(self, rng):
        # looser budget here: the support cutoff starts to matter
        for _ in range(50):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * (1.0 - 1e-6)
            vdot = rng.normal(size=3)
            spectral = qfi_rate(bloch_to_state(v), 0.5 * (
                vdot[0] * np.array([[0, 1], [1, 0]])
                + vdot[1] * np.array([[0, -1j], [1j, 0]])
                + vdot[2] * np.diag([1, -1])
            ).astype(complex))
            closed = qfi_rate_bloch(v, vdot)
            assert abs(spectral - closed) / closed < 1e-4


class TestQfiRateBloch:
    def test_zero(self):
        assert qfi_rate_bloch(np.array([0.3, 0.0, 0.0]), np.zeros(3)) == 0.0

    def test_spiral_closed_form(self):
        g, w = 0.5, 5.0
        for t in (0.2, 1.0, 2.5):
            r = np.exp(-2 * g * t)
            v = r * np.array([np.cos(w * t), np.sin(w * t), 0.0])
            vdot = np.array([
                -2 * g * r * np.cos(w * t) - r * w * np.sin(w * t),
                -2 * g * r * np.sin(w * t) + r * w * np.cos(w * t),
                0.0,
            ])
            expected = r**2 * (4 * g**2 + w**2) + 4 * g**2 * r**4 / (1 - r**2)
            assert qfi_rate_bloch(v, vdot) == pytest.approx(expected, rel=1e-12)

    def test_dephasing_radial_motion(self):
        g, t = 1.0, 0.7
        x = np.exp(-2 * g * t)
        got = qfi_rate_bloch(np.array([x, 0, 0]), np.array([-2 * g * x, 0, 0]))
        assert got == pytest.approx(4 * g**2 * x**2 / (1 - x**2), rel=1e-12)

    def test_pure_tangential_ok(self):
        assert qfi_rate_bloch(np.array([1.0, 0, 0]), np.array([0, 2.0, 0])) == 4.0

    def test_pure_radial_ill_posed(self):
        with pytest.raises(StateError):
            qfi_rate_bloch(np.array([1.0, 0, 0]), np.array([1.0, 0, 0]))


class TestSpeedProfile:
    def test_frozen(self):
        traj = evolve(FROZEN, MIXED, 1.0, 64)
        prof = speed_profile(traj)
        assert np.all(prof.speed == 0.0)
        assert np.all(prof.norm_speed_tr == 0.0)

    def test_precession_constant(self):
        model = precession(2.0)
        prof = speed_profile(evolve(model, model.rho0, 2.0, 200))
        assert np.max(np.abs(prof.speed - 1.0)) < 1e-9

    def test_damping_speed_closed_form(self):
        model = amplitude_damping(1.0)
        traj = evolve(model, model.rho0, 2.0, 1000)
        prof = speed_profile(traj)
        mid = slice(100, 1000)
        expected = model.oracles.speed(traj.times[mid])
        assert np.max(np.abs(prof.speed[mid] - expected)) < 1e-6

    def test_speed_is_half_sqrt_qfi(self):
        model = spiral(0.3, 2.0)
        prof = speed_profile(evolve(model, model.rho0, 1.0, 100))
        assert np.array_equal(prof.speed, 0.5 * np.sqrt(prof.qfi))

    def test_norm_ordering_pointwise(self):
        for model in catalog(gamma=0.8, omega=4.0):
            prof = speed_profile(evolve(model, model.rho0, 2.0, 300))
            assert np.all(prof.norm_speed_op <= prof.norm_speed_hs)
            assert np.all(prof.norm_speed_hs <= prof.norm_speed_tr)

    def test_initial_purity(self):
        model = amplitude_damping(1.0)
        prof = speed_profile(evolve(model, model.rho0, 1.0, 64))
        assert prof.initial_purity == pytest.approx(1.0)
        prof = speed_profile(evolve(model, MIXED, 1.0, 64))
        assert prof.initial_purity == pytest.approx(0.5)


class TestPathLength:
    def test_zero_speed(self):
        traj = evolve(FROZEN, MIXED, 1.0, 64)
        pl = path_length(speed_profile(traj))
        assert np.all(pl.length == 0.0)

    def test_precession_linear(self):
        w, tau = 1.5, 2.0
        model = precession(w)
        pl = path_length(speed_profile(evolve(model, model.rho0, tau, 400)))
        assert np.max(np.abs(pl.length - 0.5 * w * pl.times)) < 1e-6

    def test_damping_pi_third(self):
        model = amplitude_damping(1.0)
        _, pl = lengths_for(model, np.log(4.0), 4000)
        assert abs(pl.length[-1] - np.pi / 3.0) < 1e-4

    def test_monotone_exact(self):
        model = spiral(0.5, 5.0)
        _, pl = lengths_for(model, 3.0, 2000)
        assert np.all(np.diff(pl.length) >= 0.0)
        assert pl.length[0] == 0.0

    @pytest.mark.parametrize("model,tau", [
        (amplitude_damping(1.0), 4.0),
        (pure_dephasing(1.0), 4.0),
        (precession(1.0), 4.0),
        (spiral(0.5, 5.0), 2.0),
    ])
    def test_quadrature_accuracy(self, model, tau):
        _, pl = lengths_for(model, tau, 4000)
        assert abs(pl.length[-1] - model.oracles.path_length(tau)) < 1e-4

    @pytest.mark.parametrize("model", [amplitude_damping(1.0), pure_dephasing(1.0)])
    def test_geodesic_saturation(self, model):
        traj, pl = lengths_for(model, 4.0, 4000)
        for i in range(0, len(traj.times), 100):
            b = bures_angle(traj.states[0], traj.states[i])
            assert abs(pl.length[i] - b) < 1e-4

    def test_path_inequality_on_catalog(self):
        for model in catalog(gamma=1.0, omega=5.0):
            traj, pl = lengths_for(model, 4.0, 2000)
            for i in range(0, len(traj.times), 50):
                b = bures_angle(traj.states[0], traj.states[i])
                assert b <= pl.length[i] + 1e-4

    def test_norm_integrals_closed_form(self):
        # damping: integral of the operator norm speed is 1 - e^{-g t}
        g, tau = 1.0, 2.0
        model = amplitude_damping(g)
        _, pl = lengths_for(model, tau, 2000)
        assert pl.norm_integral("op")[-1] == pytest.approx(1 - np.exp(-g * tau), abs=1e-5)
        assert pl.norm_integral("tr")[-1] == pytest.approx(2 * (1 - np.exp(-g * tau)), abs=1e-5)

    def test_rejects_non_finite_interior(self):
        times = np.linspace(0.0, 1.0, 11)
        values = np.ones(11)
        values[5] = np.inf
        with pytest.raises(StateError) as err:
            cumulative_path_integral(times, values)
        assert "5" in str(err.value)

    def test_brute_force_agreement_spiral(self):
        model = spiral(0.5, 5.0)
        _, pl = lengths_for(model, 2.0, 4000)
        brute = brute_force_length(model.oracles.speed, 2.0)
        assert abs(pl.length[-1] - brute) < 5e-4


class TestAverageSpeed:
    def test_precession(self):
        model = precession(3.0)
        pl = path_length(speed_profile(evolve(model, model.rho0, 1.0, 200)))
        assert average_speed(pl, 1.0) == pytest.approx(1.5, abs=1e-9)

    def test_zero_dynamics(self):
        pl = path_length(speed_profile(evolve(FROZEN, MIXED, 1.0, 64)))
        assert average_speed(pl, 1.0) == 0.0

    def test_damping_value(self):
        tau = np.log(4.0)
        model = amplitude_damping(1.0)
        pl = path_length(speed_profile(evolve(model, model.rho0, tau, 4000)))
        assert average_speed(pl, tau) == pytest.approx((np.pi / 3) / tau, abs=1e-4)

    def test_zero_horizon_rejected(self):
        model = precession(1.0)
        pl = path_length(speed_profile(evolve(model, model.rho0, 1.0, 64)))
        with pytest.raises(FrozenDynamicsError):
            average_speed(pl, 0.0)

    def test_off_grid_rejected(self):
        model = precession(1.0)
        pl = path_length(speed_profile(evolve(model, model.rho0, 1.0, 64)))
        with pytest.raises(ValueError):
            average_speed(pl, 0.513)


def test_bloch_velocity_helper():
    drho = 0.5 * np.array([[1.0, 2.0 - 1j], [2.0 + 1j, -1.0]], dtype=complex)
    assert np.allclose(bloch_velocity(drho), [2.0, 1.0, 1.0])


def random_model_trajectory(rng, dim, steps, near_pure=False):
    """Trajectory of a random dim-``dim`` Lindblad model; ``near_pure``
    starts from a state with purity about 1 - 2e-6."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    j = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    jumps = [(j / np.sqrt(dim), 0.5)]
    model = LindbladModel(name="random", dim=dim, hamiltonian=0.5 * (g + g.conj().T),
                          jumps=jumps)
    rho0 = random_density(rng, dim)
    if near_pure:
        _, v = np.linalg.eigh(rho0)
        p = np.full(dim, 1e-6 / (dim - 1))
        p[-1] = 1.0 - 1e-6
        rho0 = (v * p) @ v.conj().T
    return evolve(model, rho0, 1.0, steps)


def jacobi_reference(states, derivs):
    """Speeds and Schatten norms point by point through the single-matrix
    Jacobi helpers, independent of the stacked LAPACK path."""
    speed, norms = [], []
    for rho, drho in zip(states, derivs):
        spec = eigh(rho)
        p = np.maximum(spec.eigenvalues, 0.0)
        m = spec.eigenvectors.conj().T @ drho @ spec.eigenvectors
        denom = p[:, None] + p[None, :]
        mask = denom > 1e-12
        speed.append(0.5 * np.sqrt(2.0 * np.sum(np.abs(m[mask]) ** 2 / denom[mask])))
        norms.append([schatten_norm(drho, which) for which in ("op", "hs", "tr")])
    return np.array(speed), np.array(norms).T


class TestBatchedSpectra:
    """The stacked LAPACK speeds against a per-point Jacobi reference, and
    the per-block validation against the single-matrix validators."""

    def assert_matches_reference(self, traj):
        prof = speed_profile(traj)
        speed, (op, hs, tr) = jacobi_reference(traj.states, traj.derivatives)
        np.testing.assert_allclose(prof.speed, speed, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(prof.norm_speed_op, op, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(prof.norm_speed_hs, hs, rtol=1e-9, atol=0.0)
        np.testing.assert_allclose(prof.norm_speed_tr, tr, rtol=1e-9, atol=0.0)

    def test_near_pure_starts(self):
        model = spiral(0.5, 5.0)
        self.assert_matches_reference(
            evolve(model, bloch_to_state([1.0 - 1e-6, 0.0, 0.0]), 2.0, 400))
        model = amplitude_damping(1.0)
        start = np.diag([1e-8, 1.0 - 1e-8]).astype(complex)
        self.assert_matches_reference(evolve(model, start, 2.0, 400))

    def test_damping_as_t_goes_to_zero(self):
        model = amplitude_damping(1.0)
        self.assert_matches_reference(evolve(model, model.rho0, 1e-3, 64))

    def test_spiral(self):
        model = spiral(0.5, 5.0)
        self.assert_matches_reference(evolve(model, model.rho0, 2.0, 600))

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_models(self, rng, dim):
        self.assert_matches_reference(random_model_trajectory(rng, dim, 64))
        self.assert_matches_reference(random_model_trajectory(rng, dim, 64, near_pure=True))

    def test_spans_several_blocks(self):
        # 1201 grid points: two full blocks and a partial one
        model = spiral(0.3, 2.0)
        traj = evolve(model, model.rho0, 3.0, 1200)
        prof = speed_profile(traj)
        expected = 0.5 * np.sqrt(np.array(
            [qfi_rate(r, d) for r, d in zip(traj.states, traj.derivatives)]))
        np.testing.assert_allclose(prof.speed, expected, rtol=1e-12, atol=0.0)

    def test_origin_samples_shape(self):
        model = amplitude_damping(1.0)
        prof = speed_profile(evolve(model, model.rho0, 1.0, 64))
        assert prof.origin_cells == 16
        assert len(prof.origin_times) == 16 * 15
        assert np.all(np.diff(prof.origin_times) > 0.0)

    @pytest.mark.parametrize("index", [37, 600])
    @pytest.mark.parametrize("corrupt,words", [
        (lambda rho: rho + np.array([[0.0, 1e-6], [0.0, 0.0]]), "not Hermitian"),
        (lambda rho: rho * (1.0 + 1e-8), "trace"),
        (lambda rho: np.diag([1.0 + 1e-6, -1e-6]).astype(complex), "negative eigenvalue"),
        (lambda rho: np.where(np.eye(2, dtype=bool), np.nan, rho), "non-finite"),
    ])
    def test_corrupted_state_names_grid_index(self, corrupt, words, index):
        model = spiral(0.5, 5.0)
        traj = evolve(model, model.rho0, 2.0, 700)
        states = traj.states.copy()
        states[index] = corrupt(states[index])
        with pytest.raises(StateError) as err:
            speed_profile(dataclasses.replace(traj, states=states))
        assert f"grid index {index}:" in str(err.value)
        assert words in str(err.value)

    def test_first_bad_point_wins(self):
        model = spiral(0.5, 5.0)
        traj = evolve(model, model.rho0, 2.0, 700)
        states = traj.states.copy()
        states[600, 0, 0] = np.nan
        states[550] *= 1.0 + 1e-8
        with pytest.raises(StateError) as err:
            speed_profile(dataclasses.replace(traj, states=states))
        assert "grid index 550: qfi_rate state: trace" in str(err.value)

    def test_corrupted_derivative_names_grid_index(self):
        model = spiral(0.5, 5.0)
        traj = evolve(model, model.rho0, 2.0, 700)
        derivs = traj.derivatives.copy()
        derivs[515] += 1e-6 * np.eye(2)
        with pytest.raises(StateError) as err:
            speed_profile(dataclasses.replace(traj, derivatives=derivs))
        assert "grid index 515: qfi_rate derivative has trace" in str(err.value)
