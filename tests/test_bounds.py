import dataclasses

import numpy as np
import pytest

from qslpath import (
    FrozenDynamicsError,
    InconsistencyError,
    IntegrationError,
    LindbladModel,
    ModelError,
    PurityError,
    StateError,
    amplitude_damping,
    bloch_to_state,
    build_report,
    catalog,
    classify_attainability,
    deffner_lutz,
    divergence_scan,
    evolve,
    path_length,
    precession,
    pure_dephasing,
    qfi_rate,
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
from qslpath import bounds, dynamics
from qslpath.bounds import _trace_distances
from qslpath.states import POSITIVITY_FAIL, PSD_TOL
from conftest import random_density, random_hermitian, random_trajectory

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


def separate_reports(model, rho0, taus, steps_per_unit):
    """One integration and one report per horizon, the reference the scan
    must match bit for bit."""
    return [
        build_report(evolve(model, rho0, tau, max(16, int(round(steps_per_unit * tau)))))
        for tau in taus
    ]


def report_values(report):
    values = dataclasses.astuple(report)
    return np.array(values[:-1] + values[-1], dtype=float)


def assert_same_reports(got, want):
    assert len(got) == len(want)
    for a, b in zip(got, want):
        assert a.steps == b.steps
        # every field exactly equal; NaN (norm bounds of mixed starts) matches NaN
        np.testing.assert_array_equal(report_values(a), report_values(b))


def random_model(rng, dim):
    jumps = [
        ((rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))) / np.sqrt(dim),
         float(rng.uniform(0.1, 1.0)))
        for _ in range(2)
    ]
    return LindbladModel(name="random", dim=dim,
                         hamiltonian=random_hermitian(rng, dim), jumps=jumps)


def random_pure(rng, dim):
    psi = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    psi = psi / np.linalg.norm(psi)
    return np.outer(psi, psi.conj())


class TestScanIntegratesOnce:
    @pytest.mark.parametrize("model", catalog(0.5, 5.0), ids=lambda m: m.name)
    def test_catalog_matches_separate_integration(self, model):
        taus = [2.0, 4.0, 8.0, 16.0]
        assert_same_reports(divergence_scan(model, model.rho0, taus, 500),
                            separate_reports(model, model.rho0, taus, 500))

    @pytest.mark.parametrize("taus,steps_per_unit", [
        ([0.01, 0.05, 2.0], 500),   # the first horizon sits on the 16-step floor
        ([0.3, 0.7, 1.1], 333),     # spacings that differ in the last bits
    ], ids=["step-floor", "off-grid"])
    def test_fallback_horizons_match_separate_integration(self, taus, steps_per_unit):
        model = spiral(0.5, 5.0)
        assert_same_reports(divergence_scan(model, model.rho0, taus, steps_per_unit),
                            separate_reports(model, model.rho0, taus, steps_per_unit))

    @pytest.mark.parametrize("dim", range(2, 9))
    @pytest.mark.parametrize("start", ["pure", "mixed"])
    def test_random_models_match_separate_integration(self, dim, start):
        rng = np.random.default_rng(100 * dim + (start == "pure"))
        model = random_model(rng, dim)
        rho0 = random_pure(rng, dim) if start == "pure" else random_density(rng, dim)
        taus = [0.25, 0.5, 0.75]
        assert_same_reports(divergence_scan(model, rho0, taus, 200),
                            separate_reports(model, rho0, taus, 200))

    def count_integrations(self, monkeypatch):
        calls = []

        def counted(real):
            def call(model, rho0, tau, steps, *args, **kwargs):
                calls.append(steps)
                return real(model, rho0, tau, steps, *args, **kwargs)
            return call

        monkeypatch.setattr(bounds, "_integrate", counted(bounds._integrate))
        monkeypatch.setattr(bounds, "evolve", counted(bounds.evolve))
        return calls

    def test_shared_scan_integrates_once(self, monkeypatch):
        calls = self.count_integrations(monkeypatch)
        model = spiral(0.5, 5.0)
        divergence_scan(model, model.rho0, [1.0, 2.0, 4.0], 500)
        assert calls == [2000]

    def test_one_integration_per_grid_spacing(self, monkeypatch):
        calls = self.count_integrations(monkeypatch)
        model = spiral(0.5, 5.0)
        taus = [0.01, 0.05, 0.1, 2.0]
        steps = [max(16, int(round(500 * tau))) for tau in taus]
        divergence_scan(model, model.rho0, taus, 500)
        assert len(calls) == len({tau / n for tau, n in zip(taus, steps)}) > 1

    def test_positivity_checked_at_every_horizons_checkpoints(self, monkeypatch):
        seen = []
        real = dynamics._check_positivity

        def record(rho, step):
            seen.append(step)
            real(rho, step)

        monkeypatch.setattr(dynamics, "_check_positivity", record)
        model = spiral(0.5, 5.0)
        taus = [1.0, 1.5, 3.0]
        separate = set()
        for tau in taus:
            evolve(model, model.rho0, tau, int(500 * tau))
            separate |= set(seen)
            seen.clear()
        divergence_scan(model, model.rho0, taus, 500)
        assert sorted(seen) == sorted(separate)

    def test_positivity_loss_raises(self):
        model = amplitude_damping(5000.0)
        with pytest.raises(IntegrationError):
            divergence_scan(model, model.rho0, [1.0, 2.0], 16)

    def test_storage_cap_uses_largest_horizon(self, monkeypatch, forbid_large_arrays):
        calls = self.count_integrations(monkeypatch)
        model = spiral(0.5, 5.0)
        with pytest.raises(ModelError) as err:
            divergence_scan(model, model.rho0, [1.0, 2e6], 500)
        assert "steps = 1000000000" in str(err.value)
        assert calls == []

    @pytest.mark.parametrize("tau_list,steps_per_unit", [
        ([1.0, 2.0], 10**400),
        ([1.0, 1e308], 500),
    ], ids=["huge-steps", "huge-horizon"])
    def test_step_count_overflow_rejected(self, monkeypatch, tau_list, steps_per_unit):
        calls = self.count_integrations(monkeypatch)
        model = spiral(0.5, 5.0)
        with pytest.raises(ModelError) as err:
            divergence_scan(model, model.rho0, tau_list, steps_per_unit)
        assert "steps" in str(err.value)
        assert calls == []


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


def one_jump_pure_case(seed, dim, jump_scale):
    """A random model with one jump ``jump_scale * j`` at rate 0.5, drawn as
    in ``test_geometry.random_model_trajectory``, and a random pure start."""
    rng = np.random.default_rng(seed)
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    j = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    model = LindbladModel(name="random", dim=dim, hamiltonian=0.5 * (g + g.conj().T),
                          jumps=[(jump_scale * j, 0.5)])
    return model, random_pure(rng, dim)


class TestPositivityContract:
    """States the integrator produces are accepted by every layer down to
    the eigenvalue ``evolve`` accepts; inputs stay at ``PSD_TOL``."""

    @pytest.mark.parametrize("seed,dim,jump_scale,tau,steps", [
        (3, 8, 1.0 / np.sqrt(8.0), 1.0, 64),
        (6, 7, 1.5, 5.0, 2000),
    ], ids=["dim8-64-steps", "dim7-2000-steps"])
    def test_first_step_from_pure_start(self, seed, dim, jump_scale, tau, steps):
        # the first RK4 step pushes the start's zero eigenvalues below
        # -PSD_TOL, though not to -POSITIVITY_FAIL
        model, pure = one_jump_pure_case(seed, dim, jump_scale)
        traj = evolve(model, pure, tau, steps)
        lowest = np.linalg.eigvalsh(traj.states[1])[0]
        assert -POSITIVITY_FAIL < lowest < -PSD_TOL
        report = build_report(traj)
        assert 0.0 < report.tau_min <= tau
        curve = stopping_time_curve(traj, traj.states[-1], [0.5, 0.1])
        assert np.all(np.isfinite(curve.times))

    def test_trajectory_accepts_what_evolve_accepts(self):
        model = spiral(0.5, 5.0)
        traj = evolve(model, model.rho0, 2.0, 64)
        states = traj.states.copy()
        states[5] = np.diag([1.0 + 5e-7, -5e-7]).astype(complex)
        speed_profile(dataclasses.replace(traj, states=states))
        _trace_distances(states, MIXED)
        with pytest.raises(StateError, match="negative eigenvalue"):
            qfi_rate(states[5], traj.derivatives[5])

    @pytest.mark.parametrize("dim", range(2, 9))
    def test_norm_bounds_on_random_pure_starts(self, dim):
        # Deffner-Lutz bounds are lower bounds on the evolution time, and
        # the operator norm is the smallest Schatten norm
        tau = 1.0
        for seed in range(4):
            model, pure = one_jump_pure_case(100 * dim + seed, dim, 1.0 / np.sqrt(dim))
            report = report_for_model(model, pure, tau, 64)
            assert report.tau_op <= tau + 1e-3
            assert report.tau_op >= report.tau_hs >= report.tau_tr > 0.0


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
