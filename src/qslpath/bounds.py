"""Speed-limit time estimates, attainability classification, and the
stopping-time / precision-floor analysis.

Given a trajectory over [0, tau] with Bures angle B between its endpoints
and cumulative path length l(t):

* ``tau_min`` is the time at which the path has traveled a length equal to
  the geodesic distance B: the smallest t* with l(t*) = B.  Because the
  geodesic is never longer than the path, t* <= tau always; equality holds
  exactly when the path is a geodesic.
* ``tau_av`` = B / (mean speed) = (B / l(tau)) * tau.  Same structure: it
  equals tau iff the path is a geodesic, and is strictly smaller (hence
  not attainable by this dynamics) otherwise.
* ``deffner_lutz`` bounds: sin^2(B) / Lambda_x with Lambda_x the
  time-averaged Schatten norm of the generator derivative
  (x in {op, hs, tr}); valid for pure initial states.  Since the operator
  norm is the smallest of the three, tau_op >= tau_hs >= tau_tr.

A value of tau_min or tau_av computed on a non-geodesic path is a valid
lower bound but is *unattainable* by that dynamics; the classifier makes
the call by comparing the traveled length against the geodesic distance.

``stopping_time_curve`` measures, for a descending ladder of thresholds
eps, the first grid time at which the trace distance to a target state
drops below eps, and flags entries below the arithmetic resolution of the
trajectory: on models whose target is approached only asymptotically, the
threshold ladder eventually probes nothing but floating-point noise.
"""

import math
from dataclasses import dataclass, replace

import numpy as np

from .dynamics import MIN_STEPS, _check_run, _checkpoints, _integrate, evolve
from .errors import FrozenDynamicsError, InconsistencyError, ModelError, PurityError
from .geometry import average_speed, grid_index, path_length, speed_profile
from .states import (
    STACK_BLOCK,
    _density_stack,
    _raise_first_fault,
    _trace_distance_stack,
    bures_angle,
    require_density_matrix,
)

__all__ = [
    "AttainabilityVerdict",
    "BoundReport",
    "StoppingTimeCurve",
    "build_report",
    "classify_attainability",
    "deffner_lutz",
    "divergence_scan",
    "report_for_model",
    "stopping_time_curve",
    "tau_av",
    "tau_from_speed_functional",
    "tau_min",
]

DEFAULT_ATOL = 1e-3
PURITY_TOL = 1e-8


@dataclass(frozen=True)
class AttainabilityVerdict:
    """Whether the trajectory's speed-limit estimates are attainable by the
    trajectory itself: they are exactly when the traveled path length
    matches the geodesic distance between the endpoints, up to
    ``tolerance``.  ``gap`` is the (clamped nonnegative) excess length."""

    attainable: bool
    gap: float
    tolerance: float

    @property
    def kind(self):
        return "attainable" if self.attainable else "unattainable"


def classify_attainability(bures, total_length, tol=DEFAULT_ATOL):
    """Classify a (geodesic distance, path length) pair.

    Raises :class:`InconsistencyError` if the geodesic distance exceeds the
    path length by more than ``tol`` (that would contradict the path-length
    inequality and indicates an upstream numerical bug).
    """
    gap = total_length - bures
    if gap < -tol:
        raise InconsistencyError(
            f"geodesic distance {bures} exceeds path length {total_length} "
            f"by more than the tolerance {tol}"
        )
    gap = max(gap, 0.0)
    return AttainabilityVerdict(attainable=gap <= tol, gap=gap, tolerance=tol)


def tau_min(pl, bures, tol=DEFAULT_ATOL, with_bound=False):
    """Smallest time at which the cumulative path length reaches ``bures``.

    Located by bisection on the monotone cumulative table plus linear
    interpolation inside the bracketing cell; the interpolation error is
    bounded by one cell width, returned alongside when
    ``with_bound=True``.  ``bures`` may exceed the total length by at most
    ``tol`` (clamped to the horizon); more raises
    :class:`InconsistencyError`.
    """
    times = pl.times
    length = pl.length
    cell = float(times[1] - times[0])
    total = float(length[-1])
    if bures > total + tol:
        raise InconsistencyError(
            f"geodesic distance {bures} exceeds total path length {total} "
            f"by more than the tolerance {tol}"
        )
    # Clip into the table range: values in (total, total + tol] are
    # quadrature slack on geodesic paths, not a longer journey.
    target = min(max(bures, 0.0), total)
    idx = int(np.searchsorted(length, target, side="left"))
    if idx == 0:
        return (0.0, cell) if with_bound else 0.0
    lo, hi = length[idx - 1], length[idx]
    if hi > lo:
        t = times[idx - 1] + (times[idx] - times[idx - 1]) * (target - lo) / (hi - lo)
    else:
        t = times[idx - 1]
    t = float(min(t, times[-1]))
    return (t, cell) if with_bound else t


def tau_av(pl, bures, tau, tol=DEFAULT_ATOL):
    """Mean-speed estimate B / v_avg = (B / l(tau)) * tau, never exceeding
    the horizon.

    Zero length with zero geodesic distance is frozen dynamics and returns
    0; zero length with a positive distance is contradictory and raises
    :class:`InconsistencyError`.
    """
    i = grid_index(pl.times, tau) if tau > 0.0 else 0
    total = float(pl.length[i]) if tau > 0.0 else 0.0
    if total <= 0.0:
        if bures <= tol:
            return 0.0
        raise InconsistencyError(
            f"zero path length with geodesic distance {bures}"
        )
    if bures > total + tol:
        raise InconsistencyError(
            f"geodesic distance {bures} exceeds path length {total} "
            f"by more than the tolerance {tol}"
        )
    value = bures / average_speed(pl, tau)
    return float(min(value, tau))


def tau_from_speed_functional(bures, averaged_speed):
    """Extension hook for additional bound families: sin^2(B) / Lambda for
    a caller-supplied time-averaged speed functional Lambda.

    The three Schatten choices are built in via :func:`deffner_lutz`;
    callers with a different speed notion (e.g. a quantumness measure)
    supply their own average.
    """
    if averaged_speed <= 0.0:
        raise FrozenDynamicsError(
            f"averaged speed {averaged_speed} is not positive (frozen dynamics)"
        )
    return float(math.sin(bures) ** 2 / averaged_speed)


def deffner_lutz(pl, bures, tau, which):
    """Norm-speed bound sin^2(B) / Lambda_x with
    Lambda_x = (1/tau) * integral of the Schatten-x norm of drho/dt.

    Restricted to pure initial states (purity above 1 - 1e-8); the three
    variants order as tau_op >= tau_hs >= tau_tr because the underlying
    norms order the opposite way.
    """
    if pl.initial_purity <= 1.0 - PURITY_TOL:
        raise PurityError(
            f"bound requires a pure initial state; purity is {pl.initial_purity}"
        )
    if tau <= 0.0:
        raise FrozenDynamicsError("bound undefined for tau = 0")
    i = grid_index(pl.times, tau)
    lam = float(pl.norm_integral(which)[i]) / tau
    return tau_from_speed_functional(bures, lam)


@dataclass(frozen=True)
class BoundReport:
    """All speed-limit estimates for one trajectory horizon.

    ``ratio`` = B / l(tau) clamped to 1 (NaN for frozen dynamics);
    ``tau_op``/``tau_hs``/``tau_tr`` are NaN when the initial state is
    mixed or the dynamics is frozen, since the norm-speed bound does not
    apply there.
    """

    tau: float
    steps: int
    bures: float
    length: float
    ratio: float
    tau_min: float
    tau_av: float
    tau_op: float
    tau_hs: float
    tau_tr: float
    verdict: AttainabilityVerdict


def build_report(traj, atol=DEFAULT_ATOL):
    """Assemble the :class:`BoundReport` for a trajectory."""
    return _report(traj.states[0], traj.states[-1], traj.steps, speed_profile(traj), atol)


def _report(first, last, steps, profile, atol):
    """The :class:`BoundReport` of a trajectory of ``steps`` steps from
    ``first`` to ``last`` with speed profile ``profile``."""
    pl = path_length(profile)
    bures = bures_angle(first, last)
    total = float(pl.length[-1])
    tau = float(profile.times[-1])
    verdict = classify_attainability(bures, total, tol=atol)
    ratio = min(bures / total, 1.0) if total > 0.0 else float("nan")
    t_min = tau_min(pl, bures, tol=atol)
    t_av = tau_av(pl, bures, tau, tol=atol)
    dl = {"op": float("nan"), "hs": float("nan"), "tr": float("nan")}
    if pl.initial_purity > 1.0 - PURITY_TOL and pl.norm_integral("op")[-1] > 0.0:
        for which in dl:
            dl[which] = deffner_lutz(pl, bures, tau, which)
    return BoundReport(
        tau=tau,
        steps=steps,
        bures=bures,
        length=total,
        ratio=ratio,
        tau_min=t_min,
        tau_av=t_av,
        tau_op=dl["op"],
        tau_hs=dl["hs"],
        tau_tr=dl["tr"],
        verdict=verdict,
    )


def report_for_model(model, rho0, tau, steps, atol=DEFAULT_ATOL):
    """Evolve ``model`` and report in one call."""
    traj = evolve(model, rho0, tau, steps)
    return build_report(traj, atol=atol)


@dataclass(frozen=True)
class StoppingTimeCurve:
    """First-crossing times of the trace distance to a target state.

    ``times[i]`` is the first grid time with D < ``epsilons[i]`` (NaN when
    the threshold is not reached within the horizon).  ``floor_epsilon``
    is the smallest threshold distinguishable from arithmetic noise on
    this trajectory: the median absolute successive change of D over the
    final tenth of the grid, floored at 4 machine epsilons.  Entries with
    eps below it are flagged ``saturated``: their crossing times say more
    about the arithmetic than about the dynamics.
    """

    epsilons: np.ndarray
    times: np.ndarray
    saturated: np.ndarray
    floor_epsilon: float


def _trace_distances(states, rho_f):
    """Trace distance of every state of an ``(N, d, d)`` stack to
    ``rho_f``, ``STACK_BLOCK`` states per LAPACK call; a state that is not
    a density matrix raises :class:`StateError` naming its grid index."""
    distance = np.empty(len(states))
    for lo in range(0, len(states), STACK_BLOCK):
        block = states[lo:lo + STACK_BLOCK]
        _, _, faults = _density_stack(block, "state", "grid index", lo, trajectory=True)
        _raise_first_fault(faults, "grid index", lo)
        distance[lo:lo + len(block)] = _trace_distance_stack(block, rho_f, "grid index", lo)
    return distance


def stopping_time_curve(traj, rho_f, epsilons):
    """Measure threshold-crossing times of D(rho_t, rho_f) along a
    trajectory for a positive, strictly descending threshold list."""
    rho_f = require_density_matrix(rho_f, name="target state")
    eps = np.asarray(epsilons, dtype=float)
    if eps.ndim != 1 or len(eps) == 0:
        raise ValueError("epsilons must be a non-empty 1-d list")
    if not np.all(np.isfinite(eps)):
        raise ValueError("epsilons must be finite")
    if np.any(eps <= 0.0):
        raise ValueError("epsilons must be positive")
    if np.any(np.diff(eps) >= 0.0):
        raise ValueError("epsilons must be strictly descending")

    distance = _trace_distances(traj.states, rho_f)

    tail = distance[-max(2, len(distance) // 10):]
    noise = float(np.median(np.abs(np.diff(tail))))
    floor = max(4.0 * np.finfo(float).eps, noise)

    times = np.full(len(eps), np.nan)
    for i, e in enumerate(eps):
        below = distance < e
        if below.any():
            times[i] = traj.times[int(np.argmax(below))]
    return StoppingTimeCurve(
        epsilons=eps,
        times=times,
        saturated=eps < floor,
        floor_epsilon=floor,
    )


def _horizon_steps(tau, steps_per_unit):
    """Step count of one :func:`divergence_scan` horizon; a count too large
    for a float raises :class:`ModelError`."""
    try:
        return max(MIN_STEPS, int(round(steps_per_unit * tau)))
    except OverflowError:
        raise ModelError(
            f"steps per unit time times the horizon {tau} overflows a float"
        ) from None


def _profile_prefix(profile, tau, steps):
    """The part of ``profile`` over its first ``steps`` cells, on the grid
    :func:`~qslpath.dynamics.evolve` gives horizon ``tau``.  Only the grid
    arrays are sliced: the origin samples lie in the first ``ORIGIN_CELLS``
    cells, inside every prefix of at least ``MIN_STEPS`` cells."""
    n = steps + 1
    return replace(
        profile,
        times=np.linspace(0.0, tau, n),
        qfi=profile.qfi[:n],
        speed=profile.speed[:n],
        norm_speed_op=profile.norm_speed_op[:n],
        norm_speed_hs=profile.norm_speed_hs[:n],
        norm_speed_tr=profile.norm_speed_tr[:n],
    )


def divergence_scan(model, rho0, tau_list, steps_per_unit, atol=DEFAULT_ATOL):
    """One :class:`BoundReport` per horizon in the ascending ``tau_list``.

    The step count scales with the horizon so every scan shares the same
    grid spacing; on models whose stationary state is approached only
    asymptotically this exposes the characteristic split: the norm-speed
    bounds grow without bound with the horizon while ``tau_min``
    stabilizes at a finite (unattainable) value.

    Horizons whose spacing ``tau / steps`` agrees to the last bit share one
    trajectory, integrated to the longest of them with the positivity
    checkpoints of each, and one speed profile; each reads its report from
    the prefix, which equals a separate ``evolve`` and :func:`build_report`
    bit for bit.  A horizon with another spacing, such as one on the
    16-step floor, is integrated on its own.
    """
    taus = list(tau_list)
    if any(b <= a for a, b in zip(taus, taus[1:])):
        raise ValueError("tau_list must be strictly ascending")
    steps = []
    for tau in taus:
        steps.append(_horizon_steps(tau, steps_per_unit))
        rho0 = _check_run(model, rho0, tau, steps[-1])
    shared = {}
    for k, (tau, n) in enumerate(zip(taus, steps)):
        shared.setdefault(tau / n, []).append(k)
    reports = [None] * len(taus)
    for group in shared.values():
        checkpoints = set().union(*(_checkpoints(steps[k]) for k in group))
        longest = group[-1]
        traj = _integrate(model, rho0, taus[longest], steps[longest], checkpoints)
        profile = speed_profile(traj)
        for k in group:
            prefix = _profile_prefix(profile, taus[k], steps[k])
            reports[k] = _report(traj.states[0], traj.states[steps[k]], steps[k], prefix, atol)
    return reports
