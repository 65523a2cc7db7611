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

from .dynamics import _liouvillian
from .errors import FrozenDynamicsError, StateError
from .states import (
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
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


def _validated_eigh(rho, drho, label=None, first=0, trajectory=False):
    """Eigendecomposition of an ``(N, d, d)`` stack of states, after the
    checks :func:`qfi_rate` makes on each (state, derivative) pair, with
    the positivity test of integrator output for ``trajectory`` states.

    The first failing pair raises :class:`StateError`, prefixed
    ``"<label> <first + k>: "`` when a label is given; the positivity check
    reads the eigenvalues of the same LAPACK call.
    """
    w, v, faults = _density_stack(
        rho, "qfi_rate state", label, first, vectors=True, trajectory=trajectory)
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
        w, v = _validated_eigh(rho, drho, label, lo, trajectory=True)
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
    """Per-grid-point speeds along a trajectory, plus refined samples near
    the origin.

    ``qfi`` is the Fisher-information rate, ``speed`` = sqrt(qfi)/2 its
    Bures speed, and ``norm_speed_{op,hs,tr}`` the Schatten norms of the
    generator derivative.  ``initial_purity`` is Tr(rho_0^2), recorded so
    bound formulas restricted to pure starts can enforce their domain.

    ``origin_times`` holds the ``ORIGIN_SUBSTEPS - 1`` sub-nodes (uniform in
    sqrt(t)) strictly inside each of the first ``ORIGIN_CELLS`` grid cells,
    cell by cell, where a near-singular speed can vary on scales the grid
    cannot resolve.  ``origin_samples`` is the ``(4, M)`` array of the
    speed and the op, hs and tr norm speeds at those times, in that order.
    """

    times: np.ndarray
    qfi: np.ndarray
    speed: np.ndarray
    norm_speed_op: np.ndarray
    norm_speed_hs: np.ndarray
    norm_speed_tr: np.ndarray
    initial_purity: float
    origin_times: np.ndarray
    origin_samples: np.ndarray


def _refined_origin(traj, cells):
    """Times, states and generator derivatives at the sqrt(t)-uniform
    sub-nodes inside the first ``cells`` grid cells (see
    :class:`SpeedProfile`), excluding the grid nodes themselves.

    States at sub-nodes are reached by short RK4 steps restarted from the
    stored grid state of each cell, so the samples stay consistent with
    the trajectory to integrator accuracy.  All cells advance together as
    one ``(cells, d^2)`` stack of vectorized states, each with its own step
    ``h``: a step is RK4 for the Liouvillian L in Horner form,
    v + h L (v + (h/2) L (v + (h/3) L (v + (h/4) L v))), followed by
    Hermitian symmetrization and trace renormalization.  The derivatives
    at all sub-nodes are one product with L.
    """
    gen_t = np.ascontiguousarray(_liouvillian(traj.model).T)
    n = traj.model.dim
    s_nodes = np.sqrt(traj.times[: cells + 1])
    sub_s = np.linspace(s_nodes[:-1], s_nodes[1:], ORIGIN_SUBSTEPS + 1, axis=1)
    sub_t = sub_s * sub_s
    # each cell starts at its stored grid time, not at that time's sqrt squared
    steps = np.diff(np.column_stack([traj.times[:cells], sub_t[:, 1:-1]]), axis=1)
    sub_states = np.empty((cells, ORIGIN_SUBSTEPS - 1, n, n), dtype=complex)
    v = traj.states[:cells].reshape(cells, n * n)
    for j in range(ORIGIN_SUBSTEPS - 1):
        h = steps[:, j, None]
        w = v + (h / 4.0) * (v @ gen_t)
        w = v + (h / 3.0) * (w @ gen_t)
        w = v + (h / 2.0) * (w @ gen_t)
        rho = (v + h * (w @ gen_t)).reshape(cells, n, n)
        rho = 0.5 * (rho + rho.conj().swapaxes(1, 2))
        rho /= np.trace(rho, axis1=1, axis2=2).real[:, None, None]
        sub_states[:, j] = rho
        v = rho.reshape(cells, n * n)
    states = sub_states.reshape(-1, n, n)
    derivs = (states.reshape(-1, n * n) @ gen_t).reshape(states.shape)
    return sub_t[:, 1:-1].reshape(-1), states, derivs


def speed_profile(traj):
    """Evaluate Fisher-information and Schatten-norm speeds at every grid
    point of a trajectory, plus the refined samples at sub-nodes of its
    first ``ORIGIN_CELLS`` cells (fewer if the grid is shorter).

    An invalid state or derivative raises :class:`StateError` naming its
    grid index (``origin sample k`` for a sub-node)."""
    qfi, (op, hs, tr) = _speed_samples(traj.states, traj.derivatives, "grid index")
    origin_times, states, derivs = _refined_origin(traj, min(ORIGIN_CELLS, len(traj.times) - 1))
    origin_qfi, origin_norms = _speed_samples(states, derivs, "origin sample")
    return SpeedProfile(
        times=traj.times,
        qfi=qfi,
        speed=0.5 * np.sqrt(qfi),
        norm_speed_op=op,
        norm_speed_hs=hs,
        norm_speed_tr=tr,
        initial_purity=purity(traj.states[0]),
        origin_times=origin_times,
        origin_samples=np.vstack([0.5 * np.sqrt(origin_qfi), origin_norms]),
    )


def cumulative_path_integral(times, values):
    """Cumulative integral of ``values`` over the grid ``times`` via the
    trapezoid rule in s = sqrt(t), with a quadratic first cell.

    ``values`` is one series or a stack of them along its last axis, each
    integrated on its own.  ``values[..., 0]`` is never used (it may encode
    a support-change artifact or a genuine endpoint singularity); the first
    cell integrates the parabola through the first three interior s-nodes.
    Increments are clamped at zero, so the result is exactly nondecreasing.
    """
    times = np.asarray(times, dtype=float)
    values = np.asarray(values, dtype=float)
    if len(times) < 4:
        raise ValueError("need at least 4 grid points for the path quadrature")
    interior = np.isfinite(values[..., 1:])
    if not np.all(interior):
        bad = int(np.argwhere(~interior)[0][-1] + 1)
        raise StateError(f"non-finite speed at interior grid index {bad}")
    s = np.sqrt(times)
    g = 2.0 * s * values
    increments = np.empty(values.shape[:-1] + (len(times) - 1,))
    increments[..., 1:] = np.diff(s)[1:] * (g[..., 1:-1] + g[..., 2:]) / 2.0
    s1, s2, s3 = s[1], s[2], s[3]

    def quad_weight(a, b, c):
        # integral over [0, s1] of the Lagrange basis ((s-b)(s-c)) / ((a-b)(a-c))
        return (s1**3 / 3.0 - (b + c) * s1**2 / 2.0 + b * c * s1) / ((a - b) * (a - c))

    increments[..., 0] = (
        g[..., 1] * quad_weight(s1, s2, s3)
        + g[..., 2] * quad_weight(s2, s1, s3)
        + g[..., 3] * quad_weight(s3, s1, s2)
    )
    np.maximum(increments, 0.0, out=increments)
    out = np.empty(values.shape)
    out[..., 0] = 0.0
    np.cumsum(increments, axis=-1, out=out[..., 1:])
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


def path_length(profile):
    """Integrate a :class:`SpeedProfile` into a :class:`PathLength`.

    The grid and origin samples are merged into one ascending grid, on
    which the Bures speed and the three norm speeds are integrated in one
    pass, so the bound family is internally consistent; the origin samples
    sharpen the table inside the first few cells.  Grid node ``k`` sits at
    merged index ``k + (ORIGIN_SUBSTEPS - 1) * min(k, ORIGIN_CELLS)``.
    """
    k = np.arange(len(profile.times))
    node = k + (ORIGIN_SUBSTEPS - 1) * np.minimum(k, ORIGIN_CELLS)
    merged = np.empty((5, len(k) + len(profile.origin_times)))
    merged[:, node] = [
        profile.times,
        profile.speed,
        profile.norm_speed_op,
        profile.norm_speed_hs,
        profile.norm_speed_tr,
    ]
    merged[:, np.delete(np.arange(merged.shape[1]), node)] = np.vstack(
        [profile.origin_times, profile.origin_samples]
    )
    length, op, hs, tr = cumulative_path_integral(merged[0], merged[1:])[:, node]
    return PathLength(
        times=profile.times,
        length=length,
        norm_integral_op=op,
        norm_integral_hs=hs,
        norm_integral_tr=tr,
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
    return np.array(
        [
            float(np.trace(drho @ SIGMA_X).real),
            float(np.trace(drho @ SIGMA_Y).real),
            float(np.trace(drho @ SIGMA_Z).real),
        ]
    )
