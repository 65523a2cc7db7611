import dataclasses

import numpy as np
import pytest

from qslpath import (
    FrozenDynamicsError,
    InconsistencyError,
    LindbladModel,
    PurityError,
    StateError,
    amplitude_damping,
    bloch_to_state,
    build_report,
    classify_attainability,
    deffner_lutz,
    divergence_scan,
    evolve,
    path_length,
    precession,
    pure_dephasing,
    report_for_model,
    speed_profile,
    spiral,
    stationary_state,
    stopping_time_curve,
    tau_av,
    tau_from_speed_functional,
    tau_min,
    trace_distance,
)
from qslpath.bounds import _trace_distances
from conftest import random_density, random_trajectory

FROZEN = LindbladModel(name="frozen", dim=2,
                       hamiltonian=np.zeros((2, 2), dtype=complex), jumps=[])
MIXED = 0.5 * np.eye(2, dtype=complex)


def lengths_for(model, rho0, tau, steps):
    traj = evolve(model, rho0, tau, steps)
    return traj, path_length(speed_profile(traj))


class TestTauMin:
    def test_zero_distance(self):
        model = amplitude_damping(1.0)
        _, pl = lengths_for(model, model.rho0, 1.0, 64)
        assert tau_min(pl, 0.0) == 0.0

    @pytest.mark.parametrize("tau", [0.5, np.log(4.0), 3.0])
    def test_geodesic_identity(self, tau):
        # on the damping path, length(t) equals the distance from the start
        # for every t, so reaching distance B(tau) takes exactly tau
        model = amplitude_damping(1.0)
        traj, pl = lengths_for(model, model.rho0, tau, 4000)
        from qslpath import bures_angle
        b = bures_angle(traj.states[0], traj.states[-1])
        assert abs(tau_min(pl, b) - tau) < 1e-3 * tau

    def test_spiral_vs_brute_force(self):
        # independent oracle: fine midpoint quadrature of the closed-form
        # speed, then invert the cumulative table
        g, w, tau = 0.5, 5.0, 2.0
        model = spiral(g, w)
        traj, pl = lengths_for(model, model.rho0, tau, 8000)
        from qslpath import bures_angle
        b = bures_angle(traj.states[0], traj.states[-1])

        cells = 1_000_000
        edges = np.linspace(0.0, tau, cells + 1)
        mids = 0.5 * (edges[:-1] + edges[1:])
        cumulative = np.cumsum(model.oracles.speed(mids)) * (tau / cells)
        idx = int(np.searchsorted(cumulative, b))
        expected = mids[idx]

        got = tau_min(pl, b)
        assert got < tau
        assert abs(got - expected) < 1e-3

    def test_inconsistent_distance_rejected(self):
        model = amplitude_damping(1.0)
        _, pl = lengths_for(model, model.rho0, 1.0, 64)
        with pytest.raises(InconsistencyError):
            tau_min(pl, pl.length[-1] + 0.1)

    def test_clamps_within_tolerance(self):
        model = amplitude_damping(1.0)
        _, pl = lengths_for(model, model.rho0, 1.0, 64)
        assert tau_min(pl, pl.length[-1] + 1e-5) == 1.0

    def test_error_bound_is_cell_width(self):
        model = spiral(0.5, 5.0)
        _, pl = lengths_for(model, model.rho0, 2.0, 2000)
        t, bound = tau_min(pl, 0.5, with_bound=True)
        assert bound == pytest.approx(2.0 / 2000)
        assert 0.0 < t < 2.0


class TestTauAv:
    def test_geodesic_collapse(self):
        tau = np.log(4.0)
        model = amplitude_damping(1.0)
        traj, pl = lengths_for(model, model.rho0, tau, 4000)
        from qslpath import bures_angle
        b = bures_angle(traj.states[0], traj.states[-1])
        assert abs(tau_av(pl, b, tau) - tau) < 1e-3 * tau

    def test_frozen(self):
        _, pl = lengths_for(FROZEN, MIXED, 1.0, 64)
        assert tau_av(pl, 0.0, 1.0) == 0.0

    def test_zero_length_with_distance_rejected(self):
        _, pl = lengths_for(FROZEN, MIXED, 1.0, 64)
        with pytest.raises(InconsistencyError):
            tau_av(pl, 0.3, 1.0)

    def test_identity_with_ratio(self, rng):
        for _ in range(20):
            traj = random_trajectory(rng)
            report = build_report(traj)
            assert abs(report.tau_av - report.ratio * report.tau) < 1e-12 * report.tau

    def test_never_exceeds_horizon(self, rng):
        for _ in range(10):
            traj = random_trajectory(rng)
            report = build_report(traj)
            assert report.tau_av <= report.tau + 1e-12
            assert report.tau_min <= report.tau + traj.times[1]


class TestDeffnerLutz:
    @pytest.mark.parametrize("gamma", [0.5, 1.0, 2.0])
    def test_damping_closed_forms(self, gamma):
        tau = 2.0 / gamma
        model = amplitude_damping(gamma)
        traj, pl = lengths_for(model, model.rho0, tau, 4000)
        from qslpath import bures_angle
        b = bures_angle(traj.states[0], traj.states[-1])
        assert deffner_lutz(pl, b, tau, "op") == pytest.approx(tau, rel=1e-3)
        assert deffner_lutz(pl, b, tau, "hs") == pytest.approx(tau / np.sqrt(2), rel=1e-3)
        assert deffner_lutz(pl, b, tau, "tr") == pytest.approx(tau / 2, rel=1e-3)

    def test_precession_quarter_turn(self):
        w = 2.0
        tau = np.pi / (2 * w)
        model = precession(w)
        traj, pl = lengths_for(model, model.rho0, tau, 2000)
        from qslpath import bures_angle
        b = bures_angle(traj.states[0], traj.states[-1])
        assert deffner_lutz(pl, b, tau, "op") == pytest.approx(1.0 / w, rel=1e-6)

    def test_ordering_on_catalog(self):
        from qslpath import catalog
        for model in catalog(gamma=0.7, omega=2.0):
            report = report_for_model(model, model.rho0, 1.5, 1000)
            assert report.tau_op >= report.tau_hs >= report.tau_tr

    def test_mixed_start_rejected(self):
        model = amplitude_damping(1.0)
        _, pl = lengths_for(model, MIXED, 1.0, 200)
        with pytest.raises(PurityError) as err:
            deffner_lutz(pl, 0.3, 1.0, "op")
        assert "0.5" in str(err.value)

    def test_frozen_rejected(self):
        _, pl = lengths_for(FROZEN, np.diag([1.0, 0.0]).astype(complex), 1.0, 64)
        with pytest.raises(FrozenDynamicsError):
            deffner_lutz(pl, 0.0, 1.0, "op")

    def test_extension_hook(self):
        assert tau_from_speed_functional(np.pi / 4, 0.5) == pytest.approx(1.0)
        with pytest.raises(FrozenDynamicsError):
            tau_from_speed_functional(0.1, 0.0)


class TestAttainability:
    def test_damping_attainable(self):
        report = report_for_model(amplitude_damping(1.0), amplitude_damping(1.0).rho0,
                                  np.log(4.0), 4000)
        assert report.verdict.attainable
        assert report.verdict.gap < 1e-4

    def test_dephasing_attainable(self):
        model = pure_dephasing(1.0)
        report = report_for_model(model, model.rho0, 2.0, 4000)
        assert report.verdict.attainable

    def test_spiral_unattainable_gap_grows_with_omega(self):
        gaps = []
        for w in (1.0, 3.0, 6.0):
            model = spiral(0.5, w)
            report = report_for_model(model, model.rho0, 2.0, 4000)
            assert not report.verdict.attainable
            gaps.append(report.verdict.gap)
        assert gaps[0] < gaps[1] < gaps[2]

    def test_verdict_matches_gap(self, rng):
        for _ in range(10):
            traj = random_trajectory(rng)
            report = build_report(traj)
            assert report.verdict.attainable == (report.verdict.gap <= report.verdict.tolerance)
            assert report.verdict.gap >= 0.0

    def test_inconsistent_pair_rejected(self):
        with pytest.raises(InconsistencyError):
            classify_attainability(0.5, 0.1, tol=1e-3)


class TestStoppingTime:
    def make_curve(self, gamma=1.0, tau=10.0, steps=20000, eps=None):
        model = pure_dephasing(gamma)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, tau, steps)
        if eps is None:
            eps = [10.0 ** (-k) for k in range(0, 21)]
        return stopping_time_curve(traj, rho_f, eps), traj

    def test_threshold_above_initial_distance(self):
        curve, _ = self.make_curve(eps=[1.0, 0.6])
        assert curve.times[0] == 0.0
        assert curve.times[1] == 0.0  # initial distance is 1/2 < 0.6

    def test_closed_form_crossings(self):
        gamma = 1.0
        curve, traj = self.make_curve(gamma=gamma)
        h = traj.times[1]
        for e, t, sat in zip(curve.epsilons, curve.times, curve.saturated):
            if sat or np.isnan(t) or e >= 0.5:
                continue
            expected = np.log(1.0 / (2.0 * e)) / (2.0 * gamma)
            assert abs(t - expected) <= h + 1e-12

    def test_saturation_below_floor(self):
        model = pure_dephasing(1.0)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, 10.0, 20000)
        curve = stopping_time_curve(traj, rho_f, [1e-2, 1e-20])
        assert not curve.saturated[0]
        assert curve.saturated[1]
        assert curve.floor_epsilon >= 4.0 * np.finfo(float).eps

    def test_monotone_among_reached(self):
        curve, _ = self.make_curve()
        reached = curve.times[~np.isnan(curve.times)]
        assert np.all(np.diff(reached) >= 0.0)

    def test_unreached_reported_not_raised(self):
        curve, _ = self.make_curve(tau=1.0, steps=1000, eps=[1e-1, 1e-6])
        assert np.isnan(curve.times[1])

    def test_validates_threshold_list(self):
        model = pure_dephasing(1.0)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, 1.0, 64)
        with pytest.raises(ValueError):
            stopping_time_curve(traj, rho_f, [1e-2, 1e-2])
        with pytest.raises(ValueError):
            stopping_time_curve(traj, rho_f, [-1e-2])


class TestDivergenceScan:
    def test_spiral_bound_grows_and_tau_min_converges(self):
        model = spiral(0.5, 5.0)
        reports = divergence_scan(model, model.rho0, [2.0, 4.0, 8.0, 16.0], 500)
        ops = [r.tau_op for r in reports]
        assert all(b > a for a, b in zip(ops, ops[1:]))
        assert abs(reports[3].tau_min - reports[2].tau_min) < 1e-3
        assert all(not r.verdict.attainable for r in reports)

    def test_damping_all_attainable(self):
        model = amplitude_damping(1.0)
        reports = divergence_scan(model, model.rho0, [2.0, 4.0, 8.0], 500)
        for r in reports:
            assert r.verdict.attainable
            assert abs(r.tau_min - r.tau) < 1e-3 * r.tau
            assert abs(r.tau_av - r.tau) < 1e-3 * r.tau

    def test_single_horizon(self):
        model = spiral(0.5, 5.0)
        reports = divergence_scan(model, model.rho0, [2.0], 500)
        assert len(reports) == 1

    def test_rejects_unsorted(self):
        model = spiral(0.5, 5.0)
        with pytest.raises(ValueError):
            divergence_scan(model, model.rho0, [4.0, 2.0], 500)


class TestBoundReport:
    def test_frozen_dynamics_row(self):
        report = build_report(evolve(FROZEN, np.diag([1.0, 0.0]).astype(complex), 1.0, 64))
        assert report.bures == 0.0
        assert report.length == 0.0
        assert report.tau_min == 0.0
        assert report.tau_av == 0.0
        assert np.isnan(report.ratio)
        assert np.isnan(report.tau_op)
        assert report.verdict.attainable

    def test_mixed_start_has_nan_norm_bounds(self):
        model = amplitude_damping(1.0)
        report = build_report(evolve(model, MIXED, 1.0, 200))
        assert np.isnan(report.tau_op)
        assert not np.isnan(report.tau_min)
        assert not np.isnan(report.tau_av)


class TestBatchedTraceDistance:
    """Stacked LAPACK trace distances against the per-point Jacobi helper,
    and per-block validation of the trajectory states."""

    def assert_matches_reference(self, traj, rho_f):
        got = _trace_distances(traj.states, rho_f)
        expected = np.array([trace_distance(rho, rho_f) for rho in traj.states])
        np.testing.assert_allclose(got, expected, rtol=1e-9, atol=0.0)
        eps = [0.4, 0.2, 0.1, 0.05]
        curve = stopping_time_curve(traj, rho_f, eps)
        for e, t in zip(eps, curve.times):
            below = expected < e
            assert (np.isnan(t) and not below.any()) or t == traj.times[np.argmax(below)]

    def test_near_pure_start(self):
        model = spiral(0.5, 5.0)
        rho_f, _ = stationary_state(model)
        self.assert_matches_reference(
            evolve(model, bloch_to_state([1.0 - 1e-6, 0.0, 0.0]), 2.0, 600), rho_f)

    def test_damping_as_t_goes_to_zero(self):
        model = amplitude_damping(1.0)
        rho_f, _ = stationary_state(model)
        self.assert_matches_reference(evolve(model, model.rho0, 1e-3, 64), rho_f)

    def test_spiral_over_several_blocks(self):
        model = spiral(0.5, 5.0)
        rho_f, _ = stationary_state(model)
        self.assert_matches_reference(evolve(model, model.rho0, 3.0, 1200), rho_f)

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_random_models(self, rng, dim):
        g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        j = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        model = LindbladModel(name="random", dim=dim, hamiltonian=0.5 * (g + g.conj().T),
                              jumps=[(j / np.sqrt(dim), 0.5)])
        traj = evolve(model, random_density(rng, dim), 1.0, 64)
        self.assert_matches_reference(traj, random_density(rng, dim))

    def test_tiny_distances_follow_closed_form(self):
        # D(t) = exp(-2 gamma t) / 2 on the dephasing path from |+><+|; the
        # stacked solver resolves it well below 1e-13 where Jacobi's
        # off-diagonal threshold rounded it to zero
        model = pure_dephasing(1.0)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, 20.0, 20000)
        got = _trace_distances(traj.states, rho_f)
        closed = 0.5 * np.exp(-2.0 * traj.times)
        resolved = closed > 1e-15
        np.testing.assert_allclose(got[resolved], closed[resolved], rtol=1e-6)
        eps = [1e-14, 1e-15]
        curve = stopping_time_curve(traj, rho_f, eps)
        for e, t in zip(eps, curve.times):
            assert abs(t - np.log(1.0 / (2.0 * e)) / 2.0) <= traj.times[1] + 1e-12

    @pytest.mark.parametrize("index", [37, 600])
    @pytest.mark.parametrize("corrupt,words", [
        (lambda rho: rho + np.array([[0.0, 1e-6], [0.0, 0.0]]), "not Hermitian"),
        (lambda rho: rho * (1.0 + 1e-8), "trace"),
        (lambda rho: np.diag([1.0 + 1e-6, -1e-6]).astype(complex), "negative eigenvalue"),
        (lambda rho: np.where(np.eye(2, dtype=bool), np.nan, rho), "non-finite"),
    ])
    def test_corrupted_state_names_grid_index(self, corrupt, words, index):
        model = pure_dephasing(1.0)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, 2.0, 700)
        states = traj.states.copy()
        states[index] = corrupt(states[index])
        with pytest.raises(StateError) as err:
            stopping_time_curve(dataclasses.replace(traj, states=states), rho_f, [0.1])
        assert f"grid index {index}:" in str(err.value)
        assert words in str(err.value)

    def test_non_finite_thresholds_rejected(self):
        model = pure_dephasing(1.0)
        rho_f, _ = stationary_state(model)
        traj = evolve(model, model.rho0, 1.0, 64)
        with pytest.raises(ValueError):
            stopping_time_curve(traj, rho_f, [1e-2, float("nan")])
