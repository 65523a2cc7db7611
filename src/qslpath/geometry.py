"""Evolution speed, path length, and norm-speed integrals along a trajectory.

The instantaneous Bures speed of an evolving state is sqrt(zeta)/2, where
zeta is the quantum Fisher information of the time parameter, computed
spectrally:

    zeta = 2 * sum_{j,k : p_j + p_k > eta} |<j|drho|k>|^2 / (p_j + p_k)

with {p_j, |j>} the eigensystem of rho and eta = 1e-12 the support cutoff
(eigenvalue pairs below eta belong to directions outside the support and
are excluded).  Along a trajectory the spectra come from LAPACK over
stacks of grid points, validated one block at a time.  For diagonal
families this reduces to the classical Fisher information sum over
dp_j^2 / p_j; for qubits there is an independent closed form in Bloch
coordinates used for cross-validation.

Path lengths are cumulative integrals of the speed over the trajectory
grid.  Trajectories that start at a pure state and immediately lose purity
have an integrable speed singularity ~ t^{-1/2} at t = 0, so the
quadrature runs in the substituted variable s = sqrt(t): the transformed
integrand g(s) = 2 s f(s^2) is smooth down to s = 0 for both singular and
regular speeds.  Interior cells use the trapezoid rule on the (nonuniform)
s grid; the first cell integrates the quadratic through the first three
interior nodes, so the grid value at t = 0 (where the spectral formula
cannot see the support change) is never used.  Cell increments are clamped
at zero, making the cumulative length exactly nondecreasing.
"""

from dataclasses import dataclass

import numpy as np

from .dynamics import _gksl_rhs
from .errors import StateError
from .states import (
    STACK_BLOCK,
    TRACE_TOL,
    _density_stack,
    _hermitian_faults,
    _lapack,
    _norms_from_eigenvalues,
    _raise_first_fault,
    _require_square,
    purity,
)

__all__ = [
    "PathLength",
    "SpeedProfile",
    "average_speed",
    "cumulative_path_integral",
    "path_length",
    "qfi_rate",
    "qfi_rate_bloch",
    "speed_profile",
]

SUPPORT_CUTOFF = 1e-12
PURE_BLOCH_TOL = 1e-9


def _validated_eigh(rho, drho, label=None, first=0):
    """Eigendecomposition of an ``(N, d, d)`` stack of states, after the
    checks :func:`qfi_rate` makes on each (state, derivative) pair.

    The first failing pair raises :class:`StateError`, prefixed
    ``"<label> <first + k>: "`` when a label is given; the positivity check
    reads the eigenvalues of the same LAPACK call.
    """
    w, v, faults = _density_stack(rho, "qfi_rate state", label, first, vectors=True)
    d_tr = np.trace(drho, axis1=1, axis2=2).real
    _raise_first_fault(
        faults
        + _hermitian_faults(drho, "qfi_rate derivative")
        + [(np.abs(d_tr) > TRACE_TOL,
            lambda k: f"qfi_rate derivative has trace {d_tr[k]:.3e}, expected 0")],
        label,
        first,
    )
    return w, v


def _qfi(w, v, drho, support_cutoff):
    """Fisher information of each state (eigenvalues ``w``, eigenvectors
    ``v``) moving with derivative ``drho``, over a stack."""
    p = np.maximum(w, 0.0)
    m = v.conj().swapaxes(1, 2) @ drho @ v
    denom = p[:, :, None] + p[:, None, :]
    mask = denom > support_cutoff
    terms = np.abs(m) ** 2 / np.where(mask, denom, 1.0)
    return np.maximum(2.0 * np.sum(terms, axis=(1, 2), where=mask), 0.0)


def qfi_rate(rho, drho, support_cutoff=SUPPORT_CUTOFF):
    """Quantum Fisher information of the time parameter for state ``rho``
    moving with generator derivative ``drho``.

    Nonnegative; the Bures speed is sqrt of this over 2.
    """
    rho = _require_square(rho, "qfi_rate state")[None]
    drho = _require_square(drho, "qfi_rate derivative")[None]
    if drho.shape != rho.shape:
        raise StateError(
            f"qfi_rate derivative has shape {drho.shape[1:]}, state {rho.shape[1:]}"
        )
    w, v = _validated_eigh(rho, drho)
    return float(_qfi(w, v, drho, support_cutoff)[0])


def _speed_samples(states, derivs, label):
    """Fisher information and the (op, hs, tr) Schatten norms of the
    derivative at every point of a stack, ``STACK_BLOCK`` points per LAPACK
    call; invalid points raise with ``label`` and their index."""
    n = len(states)
    qfi = np.empty(n)
    norms = np.empty((3, n))
    for lo in range(0, n, STACK_BLOCK):
        hi = min(lo + STACK_BLOCK, n)
        rho, drho = states[lo:hi], derivs[lo:hi]
        w, v = _validated_eigh(rho, drho, label, lo)
        qfi[lo:hi] = _qfi(w, v, drho, SUPPORT_CUTOFF)
        norms[:, lo:hi] = _norms_from_eigenvalues(
            _lapack(np.linalg.eigvalsh, drho, label, lo)
        )
    return qfi, norms


def qfi_rate_bloch(r, rdot):
    """Qubit Fisher information from Bloch coordinates:
    |rdot|^2 + (r . rdot)^2 / (1 - |r|^2), the second term dropped in the
    pure-state limit |r| = 1.

    Serves as an independent cross-check of :func:`qfi_rate`.
    """
    r = np.asarray(r, dtype=float)
    rdot = np.asarray(rdot, dtype=float)
    if r.shape != (3,) or rdot.shape != (3,):
        raise StateError("Bloch vectors must have 3 components")
    r2 = float(r @ r)
    if r2 > 1.0 + 1e-10:
        raise StateError(f"Bloch vector has norm {np.sqrt(r2):.12f} > 1")
    radial = float(r @ rdot)
    tangential = float(rdot @ rdot)
    if r2 >= 1.0 - 2.0 * PURE_BLOCH_TOL:
        if abs(radial) > PURE_BLOCH_TOL:
            raise StateError(
                f"ill-posed: |r| = 1 with radial velocity {radial:.3e}"
            )
        return tangential
    return tangential + radial * radial / (1.0 - r2)


ORIGIN_CELLS = 16
ORIGIN_SUBSTEPS = 16


@dataclass(frozen=True)
class SpeedProfile:
    """Per-grid-point speeds along a trajectory.

    ``qfi`` is the Fisher-information rate, ``speed`` = sqrt(qfi)/2 its
    Bures speed, and ``norm_speed_{op,hs,tr}`` the Schatten norms of the
    generator derivative.  ``initial_purity`` is Tr(rho_0^2), recorded so
    bound formulas restricted to pure starts can enforce their domain.

    ``origin_times`` and friends hold extra speed samples inside the first
    few grid cells (sub-nodes uniform in sqrt(t)), where a near-singular
    speed can vary on scales the main grid cannot resolve; the quadrature
    consumes them when present.  ``origin_cells`` counts the refined cells.
    """

    times: np.ndarray
    qfi: np.ndarray
    speed: np.ndarray
    norm_speed_op: np.ndarray
    norm_speed_hs: np.ndarray
    norm_speed_tr: np.ndarray
    initial_purity: float
    origin_cells: int = 0
    origin_times: np.ndarray = None
    origin_speed: np.ndarray = None
    origin_norm_op: np.ndarray = None
    origin_norm_hs: np.ndarray = None
    origin_norm_tr: np.ndarray = None


def _refined_origin(traj, cells, substeps):
    """Speed samples at sqrt(t)-uniform sub-nodes inside the first
    ``cells`` grid cells, excluding the grid nodes themselves.

    States at sub-nodes are reached by short RK4 steps restarted from the
    stored grid state of each cell, so the samples stay consistent with
    the trajectory to integrator accuracy.  All cells advance together as
    one stack, each with its own step sizes.
    """
    rhs = _gksl_rhs(traj.model)
    s_nodes = np.sqrt(traj.times[: cells + 1])
    sub_s = np.linspace(s_nodes[:-1], s_nodes[1:], substeps + 1, axis=1)
    sub_t = sub_s * sub_s
    rho = traj.states[:cells].copy()
    t_now = traj.times[:cells]
    sub_states = np.empty((cells, substeps - 1) + rho.shape[1:], dtype=complex)
    for j in range(1, substeps):
        t_next = sub_t[:, j]
        dt = (t_next - t_now)[:, None, None]
        k1 = rhs(rho)
        k2 = rhs(rho + (0.5 * dt) * k1)
        k3 = rhs(rho + (0.5 * dt) * k2)
        k4 = rhs(rho + dt * k3)
        rho = rho + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
        rho = rho / np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        t_now = t_next
        sub_states[:, j - 1] = rho
    states = sub_states.reshape((-1,) + rho.shape[1:])
    qfi, (nop, nhs, ntr) = _speed_samples(states, rhs(states), "origin sample")
    return sub_t[:, 1:-1].reshape(-1), 0.5 * np.sqrt(qfi), nop, nhs, ntr


def speed_profile(traj, origin_cells=ORIGIN_CELLS, origin_substeps=ORIGIN_SUBSTEPS):
    """Evaluate Fisher-information and Schatten-norm speeds at every grid
    point of a trajectory, plus refined samples near the origin.

    An invalid state or derivative raises :class:`StateError` naming its
    grid index."""
    n = len(traj.times)
    qfi, (op, hs, tr) = _speed_samples(traj.states, traj.derivatives, "grid index")
    cells = min(origin_cells, n - 1)
    if cells > 0 and origin_substeps > 1:
        o_times, o_speed, o_op, o_hs, o_tr = _refined_origin(traj, cells, origin_substeps)
    else:
        cells = 0
        o_times = o_speed = o_op = o_hs = o_tr = None
    return SpeedProfile(
        times=traj.times,
        qfi=qfi,
        speed=0.5 * np.sqrt(qfi),
        norm_speed_op=op,
        norm_speed_hs=hs,
        norm_speed_tr=tr,
        initial_purity=purity(traj.states[0]),
        origin_cells=cells,
        origin_times=o_times,
        origin_speed=o_speed,
        origin_norm_op=o_op,
        origin_norm_hs=o_hs,
        origin_norm_tr=o_tr,
    )


def cumulative_path_integral(times, values):
    """Cumulative integral of ``values`` over the uniform grid ``times``
    via the trapezoid rule in s = sqrt(t), with a quadratic first cell.

    ``values[0]`` is never used (it may encode a support-change artifact
    or a genuine endpoint singularity); the first cell integrates the
    parabola through the first three interior s-nodes.  Increments are
    clamped at zero, so the result is exactly nondecreasing.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 4:
        raise ValueError("need at least 4 grid points for the path quadrature")
    if not np.all(np.isfinite(values[1:])):
        bad = int(np.flatnonzero(~np.isfinite(values[1:]))[0] + 1)
        raise StateError(f"non-finite speed at interior grid index {bad}")
    s = np.sqrt(times)
    g = 2.0 * s * values
    increments = np.empty(len(times) - 1)
    increments[1:] = np.diff(s)[1:] * (g[1:-1] + g[2:]) / 2.0
    s1, s2, s3 = s[1], s[2], s[3]

    def quad_weight(a, b, c):
        # integral over [0, s1] of the Lagrange basis ((s-b)(s-c)) / ((a-b)(a-c))
        return (s1**3 / 3.0 - (b + c) * s1**2 / 2.0 + b * c * s1) / ((a - b) * (a - c))

    increments[0] = (
        g[1] * quad_weight(s1, s2, s3)
        + g[2] * quad_weight(s2, s1, s3)
        + g[3] * quad_weight(s3, s1, s2)
    )
    np.maximum(increments, 0.0, out=increments)
    out = np.empty(len(times))
    out[0] = 0.0
    np.cumsum(increments, out=out[1:])
    return out


@dataclass(frozen=True)
class PathLength:
    """Cumulative Bures length and norm-speed integrals on the trajectory
    grid.  ``length[i]`` is the path length traveled up to ``times[i]``."""

    times: np.ndarray
    length: np.ndarray
    norm_integral_op: np.ndarray
    norm_integral_hs: np.ndarray
    norm_integral_tr: np.ndarray
    initial_purity: float

    def norm_integral(self, which):
        try:
            return {
                "op": self.norm_integral_op,
                "hs": self.norm_integral_hs,
                "tr": self.norm_integral_tr,
            }[which]
        except KeyError:
            raise ValueError(f"unknown norm {which!r}; use 'op', 'hs' or 'tr'") from None


def _interleave(profile, values, origin_values):
    """Merge grid values with refined origin samples into one ascending
    grid; returns (times, values, indices of the original grid nodes)."""
    cells = profile.origin_cells
    n = len(profile.times)
    if cells == 0 or origin_values is None:
        return profile.times, values, np.arange(n)
    per_cell = len(origin_values) // cells + 1
    times = [profile.times[:1]]
    merged = [values[:1]]
    for i in range(cells):
        lo = i * (per_cell - 1)
        hi = lo + per_cell - 1
        times.append(profile.origin_times[lo:hi])
        merged.append(origin_values[lo:hi])
        times.append(profile.times[i + 1 : i + 2])
        merged.append(values[i + 1 : i + 2])
    times.append(profile.times[cells + 1 :])
    merged.append(values[cells + 1 :])
    times = np.concatenate(times)
    merged = np.concatenate(merged)
    node_index = np.empty(n, dtype=int)
    node_index[: cells + 1] = np.arange(cells + 1) * per_cell
    node_index[cells + 1 :] = cells * per_cell + np.arange(1, n - cells)
    return times, merged, node_index


def _cumulative_on_grid(profile, values, origin_values):
    times, merged, node_index = _interleave(profile, values, origin_values)
    return cumulative_path_integral(times, merged)[node_index]


def path_length(profile):
    """Integrate a :class:`SpeedProfile` into a :class:`PathLength`.

    The Bures length and the three norm-speed integrals share the same
    quadrature rule so the bound family is internally consistent; refined
    origin samples, when the profile carries them, sharpen the table
    inside the first few cells.
    """
    return PathLength(
        times=profile.times,
        length=_cumulative_on_grid(profile, profile.speed, profile.origin_speed),
        norm_integral_op=_cumulative_on_grid(
            profile, profile.norm_speed_op, profile.origin_norm_op
        ),
        norm_integral_hs=_cumulative_on_grid(
            profile, profile.norm_speed_hs, profile.origin_norm_hs
        ),
        norm_integral_tr=_cumulative_on_grid(
            profile, profile.norm_speed_tr, profile.origin_norm_tr
        ),
        initial_purity=profile.initial_purity,
    )


def grid_index(times, t):
    """Index of grid time ``t``, matched to within a relative 1e-9."""
    times = np.asarray(times)
    i = int(np.argmin(np.abs(times - t)))
    if abs(times[i] - t) > 1e-9 * max(1.0, abs(t)):
        raise ValueError(f"time {t} is not on the trajectory grid")
    return i


def average_speed(pl, tau):
    """Mean Bures speed over [0, tau]: length(tau) / tau.

    ``tau`` must lie on the grid and be positive.
    """
    from .errors import FrozenDynamicsError

    if tau <= 0.0:
        raise FrozenDynamicsError("average speed undefined for tau = 0")
    i = grid_index(pl.times, tau)
    return float(pl.length[i] / pl.times[i])


def bloch_velocity(drho):
    """Bloch-vector velocity of a qubit derivative (plumbing for the
    cross-validation tests)."""
    drho = np.asarray(drho, dtype=complex)
    if drho.shape != (2, 2):
        raise StateError("Bloch velocity needs a 2x2 derivative")
    from .states import SIGMA_X, SIGMA_Y, SIGMA_Z

    return np.array(
        [
            float(np.trace(drho @ SIGMA_X).real),
            float(np.trace(drho @ SIGMA_Y).real),
            float(np.trace(drho @ SIGMA_Z).real),
        ]
    )
