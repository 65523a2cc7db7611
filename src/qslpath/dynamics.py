"""Lindblad models, fixed-step trajectory integration, and the model catalog.

The generator is the standard GKSL form (hbar = 1)

    drho/dt = -i [H, rho] + sum_k gamma_k (L_k rho L_k' - 0.5 {L_k' L_k, rho})

integrated with classical fixed-step RK4 on a uniform grid.  Fixed step is
deliberate: the grid is shared with the quadrature and root-finding layers,
so accuracy is bought with steps and verified by a convergence-order test.

Trajectories step with the Liouvillian: on row-major vectorized states
(vec(A X B) = (A kron B^T) vec X) the generator is the d^2 x d^2 matrix

    L = -i (H kron I - I kron H^T)
        + sum_k gamma_k (L_k kron L_k* - 0.5 (L_k' L_k kron I + I kron (L_k' L_k)^T))

and, the equation being linear and autonomous, one classical RK4 step of
size h is exactly the matrix P = I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24.
Both are built once per integration, so a step is one product with P and
a stored derivative one product with L (T. F. Havel, J. Math. Phys. 44,
534 (2003)).  Each stored state is re-symmetrized and trace-renormalized;
the generator derivative at every grid point is stored alongside the state
(derivatives are never finite-differenced, the Fisher-information speed is
too sensitive to that noise).  L is the only form of the generator in
the package: :func:`lindblad_rhs` is one product with it, and the origin
sub-steps of :mod:`qslpath.geometry` take the same RK4 step in Horner form,
v + h L (v + (h/2) L (v + (h/3) L (v + (h/4) L v))), on a stack of states
with per-state steps.  The stationary state of a non-catalog model is the
limit in the kernel of L.

The catalog ships four qubit models whose closed forms serve as oracles:

* ``amplitude-damping``: L = |0><1| at rate gamma, H = 0, start |1><1|.
  Populations relax as (1 - e^{-gt}, e^{-gt}); the path is a Bures geodesic
  with length arccos(e^{-gt/2}).
* ``pure-dephasing``: L = sigma_z at rate gamma, H = 0, start |+><+|.
  Bloch x(t) = e^{-2gt}; also a geodesic, length arccos(e^{-2gt})/2.
* ``precession``: H = (omega/2) sigma_z, no jumps, start |+><+|.  Constant
  speed omega/2.
* ``spiral``: precession plus dephasing.  The Bloch vector spirals inward,
  e^{-2gt} (cos wt, sin wt, 0); for omega > 0 the path is not a geodesic
  and the stationary state I/2 is reached only as t -> infinity.  This is
  the representative "finite geodesic distance, infinite approach time"
  model used by the divergence and stopping-time experiments.
"""

import json
import logging
import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError, ModelError, StateError, StationaryStateError
from .states import (
    POSITIVITY_FAIL,
    SIGMA_Z,
    bloch_to_state,
    eigh_values,
    require_density_matrix,
    require_hermitian,
)

__all__ = [
    "LindbladModel",
    "ModelOracles",
    "Trajectory",
    "amplitude_damping",
    "catalog",
    "evolve",
    "lindblad_rhs",
    "matrix_from_wire",
    "model_by_name",
    "model_from_dict",
    "load_model",
    "precession",
    "pure_dephasing",
    "spiral",
    "stationary_state",
]

log = logging.getLogger(__name__)

MIN_STEPS = 16
RENORM_WARN = 1e-6
# Largest trajectory :func:`evolve` will store, in bytes: its states and
# derivatives take 32 * (steps + 1) * dim**2 (two complex128 arrays), all
# allocated up front.  1 GiB allows about 8.4 million steps at dim 2 and
# 524 thousand at dim 8.
MAX_TRAJECTORY_BYTES = 2**30
# Singular values of the Liouvillian up to this fraction of the largest
# span its kernel in :func:`stationary_state`.
KERNEL_RTOL = 1e-12

SIGMA_MINUS = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)  # |0><1|
PLUS_STATE = 0.5 * np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
EXCITED_STATE = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
MIXED_QUBIT = 0.5 * np.eye(2, dtype=complex)


@dataclass(frozen=True)
class ModelOracles:
    """Closed-form handles for a catalog model evolved from its canonical
    initial state.  ``speed`` is the instantaneous Bures speed; all handles
    accept a scalar time or an ndarray."""

    state: Callable[[float], np.ndarray]
    speed: Callable[[np.ndarray], np.ndarray]
    path_length: Callable[[float], float]
    bures_from_start: Callable[[float], float]


@dataclass(frozen=True)
class LindbladModel:
    """A Hamiltonian plus weighted jump operators.

    ``jumps`` is a list of ``(operator, rate)`` pairs with rates >= 0.
    ``rho0`` is the canonical initial state for catalog models (None for
    user-supplied models).  ``stationary`` / ``stationary_is_asymptotic``
    record the analytic fixed point when one is known; ``oracles`` carries
    the closed forms used as test oracles.  ``gamma``/``omega`` are report
    metadata (NaN when not meaningful).
    """

    name: str
    dim: int
    hamiltonian: np.ndarray
    jumps: list
    rho0: Optional[np.ndarray] = None
    stationary: Optional[np.ndarray] = None
    stationary_is_asymptotic: bool = False
    oracles: Optional[ModelOracles] = None
    gamma: float = float("nan")
    omega: float = float("nan")

    def __post_init__(self):
        require_hermitian(self.hamiltonian, name=f"{self.name}: hamiltonian")
        if self.hamiltonian.shape[0] != self.dim:
            raise ModelError(
                f"{self.name}: hamiltonian is {self.hamiltonian.shape[0]}x"
                f"{self.hamiltonian.shape[0]} but dim = {self.dim}"
            )
        for k, (op, rate) in enumerate(self.jumps):
            if np.asarray(op).shape != (self.dim, self.dim):
                raise ModelError(f"{self.name}: jumps[{k}] has shape {np.asarray(op).shape}")
            if not np.all(np.isfinite(op)):
                raise ModelError(f"{self.name}: jumps[{k}] operator has non-finite entries")
            _require_rate(rate, f"{self.name}: jumps[{k}] rate")


def _require_rate(value, what):
    """Reject a rate or frequency that is negative, NaN or infinite."""
    if not math.isfinite(value):
        raise ModelError(f"{what} {value} is not finite")
    if value < 0:
        raise ModelError(f"{what} {value} is negative")


def lindblad_rhs(model, rho):
    """Generator derivative drho/dt for ``rho`` under ``model``.

    The result, L vec(rho) reshaped (see :func:`_liouvillian`), is
    Hermitian and traceless up to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise StateError(
            f"state shape {rho.shape} does not match model dimension {model.dim}"
        )
    return (_liouvillian(model) @ rho.reshape(-1)).reshape(rho.shape)


@dataclass(frozen=True)
class Trajectory:
    """A uniform-grid trajectory: states and generator derivatives at
    ``times[i] = i * tau / steps``.

    ``max_renormalization`` is the largest |trace - 1| seen before the
    per-step renormalization (a health indicator, not an error).
    """

    model: LindbladModel
    tau: float
    steps: int
    times: np.ndarray
    states: np.ndarray
    derivatives: np.ndarray
    max_renormalization: float = 0.0


def _check_positivity(rho, step):
    w = eigh_values(rho)
    if w[0] <= -POSITIVITY_FAIL:
        raise IntegrationError(
            f"state lost positivity at step {step}: min eigenvalue {w[0]:.3e}",
            step=step,
        )


def _require_storage(dim, steps):
    """Reject a step count whose trajectory would exceed
    :data:`MAX_TRAJECTORY_BYTES`, before anything is allocated."""
    nbytes = 32 * (steps + 1) * dim * dim
    if nbytes > MAX_TRAJECTORY_BYTES:
        raise ModelError(
            f"steps = {steps} at dimension {dim} would store {nbytes} bytes of "
            f"trajectory, over the {MAX_TRAJECTORY_BYTES}-byte limit"
        )


def _check_run(model, rho0, tau, steps):
    """The input checks of :func:`evolve`; returns the validated ``rho0``."""
    if not (math.isfinite(tau) and tau > 0):
        raise ModelError(f"horizon tau must be positive and finite, got {tau}")
    if steps < MIN_STEPS:
        raise ModelError(f"steps must be at least {MIN_STEPS}, got {steps}")
    _require_storage(model.dim, steps)
    rho0 = require_density_matrix(rho0, name="initial state")
    if rho0.shape != (model.dim, model.dim):
        raise StateError(
            f"initial state dimension {rho0.shape[0]} does not match model "
            f"dimension {model.dim}"
        )
    return rho0


def _checkpoints(steps):
    """The steps at which :func:`evolve` checks positivity: every
    ``steps // 64``-th (at most 64) and the last."""
    every = max(1, steps // 64)
    return set(range(every, steps + 1, every)) | {steps}


def _liouvillian(model):
    """The GKSL generator of ``model`` as a ``(d^2, d^2)`` matrix ``L`` on
    row-major vectorized states, ``vec(drho/dt) = L vec(rho)``.

    Built term by term from vec(A X B) = (A kron B^T) vec(X).
    """
    ham = model.hamiltonian
    eye = np.eye(model.dim)
    gen = -1.0j * (np.kron(ham, eye) - np.kron(eye, ham.T))
    for op, rate in model.jumps:
        if rate > 0.0:
            op = np.asarray(op, dtype=complex)
            opdop = op.conj().T @ op
            gen = gen + rate * (
                np.kron(op, op.conj()) - 0.5 * (np.kron(opdop, eye) + np.kron(eye, opdop.T))
            )
    return gen


def _rk4_propagator(gen, h):
    """One classical RK4 step of size ``h`` for the linear equation
    ``dv/dt = gen v``: the matrix I + hL + (hL)^2/2 + (hL)^3/6 + (hL)^4/24,
    in nested (Horner) form."""
    eye = np.eye(gen.shape[0])
    hl = h * gen
    return eye + hl @ (eye + (hl / 2.0) @ (eye + (hl / 3.0) @ (eye + hl / 4.0)))


def _integrate(model, rho0, tau, steps, checkpoints, renormalize=True):
    """The RK4 loop of :func:`evolve` on inputs :func:`_check_run` has
    passed, checking positivity after each step in ``checkpoints``.

    Each step is one product with the RK4 propagator of the Liouvillian,
    followed by Hermitian symmetrization and trace renormalization; each
    stored derivative is one product with the Liouvillian.  The states
    depend on ``tau`` only through the step ``tau / steps``, so runs with
    the same step agree bit for bit on their common prefix.
    """
    h = tau / steps
    n = model.dim
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, n, n), dtype=complex)
    derivs = np.empty((steps + 1, n, n), dtype=complex)
    flat_states = states.reshape(steps + 1, n * n)
    flat_derivs = derivs.reshape(steps + 1, n * n)

    gen = _liouvillian(model)
    gen_t = np.ascontiguousarray(gen.T)
    prop_t = np.ascontiguousarray(_rk4_propagator(gen, h).T)
    max_renorm = 0.0
    states[0] = rho0
    flat_derivs[0] = flat_states[0] @ gen_t
    for i in range(steps):
        rho = (flat_states[i] @ prop_t).reshape(n, n)
        # the real diagonal, and so the trace, is unchanged by symmetrization
        tr = rho.trace().real
        if not math.isfinite(tr):
            raise IntegrationError(f"state diverged at step {i + 1}", step=i + 1)
        drift = abs(tr - 1.0)
        if drift > max_renorm:
            max_renorm = drift
            if drift > RENORM_WARN:
                log.warning(
                    "renormalization factor %.3e at step %d of %s",
                    tr, i + 1, model.name,
                )
        np.multiply(rho + rho.conj().T, 0.5 / tr if renormalize else 0.5, out=states[i + 1])
        flat_derivs[i + 1] = flat_states[i + 1] @ gen_t
        if i + 1 in checkpoints:
            _check_positivity(states[i + 1], i + 1)
    return Trajectory(
        model=model,
        tau=float(tau),
        steps=int(steps),
        times=times,
        states=states,
        derivatives=derivs,
        max_renormalization=max_renorm,
    )


def evolve(model, rho0, tau, steps, renormalize=True):
    """Integrate ``model`` from ``rho0`` over ``[0, tau]`` with ``steps``
    RK4 steps, returning a :class:`Trajectory`.

    Each accepted state is re-symmetrized and (by default) trace-
    renormalized; the renormalization factor is logged if it ever drifts
    past 1e-6.  Positivity is checked at up to 64 checkpoints and at the
    final state; a smallest eigenvalue at or below ``-POSITIVITY_FAIL``
    (see :mod:`qslpath.states`) raises :class:`IntegrationError` carrying
    the step index.  ``renormalize=False`` exposes the raw integrator for
    drift measurements.  A trajectory that would store more than
    :data:`MAX_TRAJECTORY_BYTES` raises :class:`ModelError` before any
    allocation.
    """
    rho0 = _check_run(model, rho0, tau, steps)
    return _integrate(model, rho0, tau, steps, _checkpoints(steps), renormalize)


def stationary_state(model):
    """Stationary state of ``model`` and whether it is only reached
    asymptotically.

    Catalog models answer from their analytic entry.  Otherwise the answer
    is the limit that propagating the maximally mixed state reaches: the
    projection of vec(I/d) onto the kernel of the Liouvillian along its
    range, built from biorthogonal left and right null bases of its SVD
    (the kernel may have more than one dimension).  The returned flag is
    then True, making the asymptotic nature of the limit explicit.  Models
    without jumps have no attractor, and a result that the Liouvillian does
    not map to zero within ``KERNEL_RTOL`` times its largest singular value
    fails the residual check; both raise :class:`StationaryStateError`.
    """
    if model.stationary is not None:
        return model.stationary.copy(), model.stationary_is_asymptotic
    if not any(rate > 0.0 for _, rate in model.jumps):
        raise StationaryStateError(
            f"{model.name}: unitary dynamics has no stationary state"
        )
    d = model.dim
    gen = _liouvillian(model)
    u, sv, vh = np.linalg.svd(gen)
    tol = KERNEL_RTOL * sv[0]
    k = max(1, int(np.count_nonzero(sv <= tol)))
    right = vh[-k:].conj().T
    left = u[:, -k:].conj().T
    start = np.eye(d, dtype=complex).reshape(-1) / d
    failure = StationaryStateError(
        f"{model.name}: the Liouvillian kernel does not give a stationary state"
    )
    try:
        rho = (right @ np.linalg.solve(left @ right, left @ start)).reshape(d, d)
    except np.linalg.LinAlgError:
        raise failure from None
    rho = 0.5 * (rho + rho.conj().T)
    rho = rho / rho.trace().real
    if not np.max(np.abs(gen @ rho.reshape(-1))) <= tol:
        raise failure
    return rho, True


# ---------------------------------------------------------------------------
# Catalog
# ---------------------------------------------------------------------------


def amplitude_damping(gamma):
    """Decay |1> -> |0> at rate gamma, canonical start |1><1|."""
    _require_rate(gamma, "amplitude-damping: rate")

    def state(t):
        e = np.exp(-gamma * t)
        return np.array([[1.0 - e, 0.0], [0.0, e]], dtype=complex)

    def speed(t):
        t = np.asarray(t, dtype=float)
        e = np.exp(-gamma * t)
        denom = np.clip(1.0 - e, 1e-300, None)
        return np.where(t == 0.0, np.inf, 0.5 * gamma * np.sqrt(e / denom))

    def length(t):
        return float(np.arccos(np.exp(-0.5 * gamma * t)))

    return LindbladModel(
        name="amplitude-damping",
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=[(SIGMA_MINUS, gamma)],
        rho0=EXCITED_STATE.copy(),
        stationary=np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex),
        stationary_is_asymptotic=True,
        oracles=ModelOracles(state, speed, length, length),
        gamma=gamma,
        omega=0.0,
    )


def pure_dephasing(gamma):
    """Coherence decay under L = sigma_z at rate gamma, canonical start
    |+><+|.  Bloch x(t) = e^{-2 gamma t}, populations frozen."""
    _require_rate(gamma, "pure-dephasing: rate")

    def state(t):
        return bloch_to_state([np.exp(-2.0 * gamma * t), 0.0, 0.0])

    def speed(t):
        t = np.asarray(t, dtype=float)
        e2 = np.exp(-2.0 * gamma * t)
        denom = np.sqrt(np.clip(1.0 - e2 * e2, 1e-300, None))
        return np.where(t == 0.0, np.inf, gamma * e2 / denom)

    def length(t):
        return float(0.5 * np.arccos(np.exp(-2.0 * gamma * t)))

    return LindbladModel(
        name="pure-dephasing",
        dim=2,
        hamiltonian=np.zeros((2, 2), dtype=complex),
        jumps=[(SIGMA_Z.copy(), gamma)],
        rho0=PLUS_STATE.copy(),
        stationary=MIXED_QUBIT.copy(),
        stationary_is_asymptotic=True,
        oracles=ModelOracles(state, speed, length, length),
        gamma=gamma,
        omega=0.0,
    )


def precession(omega):
    """Unitary rotation under H = (omega/2) sigma_z, canonical start
    |+><+|.  The Bloch vector turns at angular rate omega, so the Bures
    speed is the constant omega/2."""
    _require_rate(omega, "precession: frequency")

    def state(t):
        return bloch_to_state([np.cos(omega * t), np.sin(omega * t), 0.0])

    def speed(t):
        t = np.asarray(t, dtype=float)
        return np.full_like(t, 0.5 * omega)

    def length(t):
        return float(0.5 * omega * t)

    def bures(t):
        return float(np.arccos(abs(np.cos(0.5 * omega * t))))

    return LindbladModel(
        name="precession",
        dim=2,
        hamiltonian=0.5 * omega * SIGMA_Z,
        jumps=[],
        rho0=PLUS_STATE.copy(),
        oracles=ModelOracles(state, speed, length, bures),
        gamma=0.0,
        omega=omega,
    )


def _composite_gauss_legendre(panels, order):
    """Nodes and weights of ``panels`` equal ``order``-point Gauss-Legendre
    panels on [0, 1].

    Golub-Welsch: the nodes on [-1, 1] are the eigenvalues of the Jacobi
    matrix of the Legendre recurrence, the weights twice the squared first
    components of its eigenvectors.
    """
    k = np.arange(1.0, order)
    beta = k / np.sqrt(4.0 * k * k - 1.0)
    x, vecs = np.linalg.eigh(np.diag(beta, 1) + np.diag(beta, -1))
    w = 2.0 * vecs[0] ** 2
    left = np.arange(panels)[:, None] / panels
    return (left + (x + 1.0) / (2 * panels)).ravel(), np.tile(w / (2 * panels), panels)


# The spiral length oracle's rule on [0, 1] in s / sqrt(t).
SPIRAL_NODES, SPIRAL_WEIGHTS = _composite_gauss_legendre(32, 16)


def _spiral_speed(gamma, omega):
    def speed(t):
        t = np.asarray(t, dtype=float)
        r = np.exp(-2.0 * gamma * t)
        # 1 - r^2 through expm1: the subtraction loses all digits as t -> 0
        radial = 4.0 * gamma**2 * r**4 / np.clip(-np.expm1(-4.0 * gamma * t), 1e-300, None)
        zeta = r * r * (4.0 * gamma**2 + omega**2) + np.where(t == 0.0, 0.0, radial)
        out = 0.5 * np.sqrt(zeta)
        if gamma > 0.0:
            out = np.where(t == 0.0, np.inf, out)
        return out

    return speed


def spiral(gamma, omega):
    """Precession plus dephasing: Bloch e^{-2 gamma t} (cos wt, sin wt, 0)
    from |+><+|.  For omega > 0 the path is not a geodesic and the
    maximally mixed stationary state is reached only as t -> infinity."""
    _require_rate(gamma, "spiral: rate")
    _require_rate(omega, "spiral: frequency")

    def state(t):
        r = np.exp(-2.0 * gamma * t)
        return bloch_to_state([r * np.cos(omega * t), r * np.sin(omega * t), 0.0])

    speed = _spiral_speed(gamma, omega)

    def length(t):
        # No elementary antiderivative for omega > 0; integrate the
        # closed-form speed in s = sqrt(t), where the integrand
        # 2 s * speed(s^2) is analytic down to s = 0, by composite
        # Gauss-Legendre (its nodes never touch s = 0).
        if t == 0.0:
            return 0.0
        s = np.sqrt(t) * SPIRAL_NODES
        return float(np.sqrt(t) * np.dot(SPIRAL_WEIGHTS, 2.0 * s * speed(s * s)))

    def bures(t):
        x = np.exp(-2.0 * gamma * t) * np.cos(omega * t)
        return float(np.arccos(np.sqrt(0.5 * (1.0 + x))))

    return LindbladModel(
        name="spiral",
        dim=2,
        hamiltonian=0.5 * omega * SIGMA_Z,
        jumps=[(SIGMA_Z.copy(), gamma)],
        rho0=PLUS_STATE.copy(),
        stationary=MIXED_QUBIT.copy() if gamma > 0 else None,
        stationary_is_asymptotic=gamma > 0,
        oracles=ModelOracles(state, speed, length, bures),
        gamma=gamma,
        omega=omega,
    )


CATALOG_BUILDERS = {
    "amplitude-damping": lambda gamma, omega: amplitude_damping(gamma),
    "pure-dephasing": lambda gamma, omega: pure_dephasing(gamma),
    "precession": lambda gamma, omega: precession(omega),
    "spiral": spiral,
}


def catalog(gamma=1.0, omega=1.0):
    """The four built-in qubit models instantiated at the given rates."""
    return [build(gamma, omega) for build in CATALOG_BUILDERS.values()]


def model_by_name(name, gamma=1.0, omega=1.0):
    """Look up a catalog model by name."""
    try:
        build = CATALOG_BUILDERS[name]
    except KeyError:
        known = ", ".join(sorted(CATALOG_BUILDERS))
        raise ModelError(f"unknown model {name!r}; known models: {known}") from None
    return build(gamma, omega)


# ---------------------------------------------------------------------------
# JSON wire format
# ---------------------------------------------------------------------------


def matrix_from_wire(obj, dim, where):
    """Parse a matrix from the wire format: a row-major list of dim*dim
    [re, im] pairs (a nested list of dim rows of dim pairs is also
    accepted).  ``where`` names the field in diagnostics."""
    if not isinstance(obj, list):
        raise ModelError(f"{where}: expected a list, got {type(obj).__name__}")
    if len(obj) == dim and all(
        isinstance(row, list) and len(row) == dim and
        all(isinstance(e, list) for e in row)
        for row in obj
    ):
        flat = [e for row in obj for e in row]
    else:
        flat = obj
    if len(flat) != dim * dim:
        raise ModelError(
            f"{where}: expected {dim * dim} [re, im] entries for dim {dim}, "
            f"got {len(flat)}"
        )
    out = np.empty(dim * dim, dtype=complex)
    for i, entry in enumerate(flat):
        if (
            not isinstance(entry, list)
            or len(entry) != 2
            or not all(isinstance(x, (int, float)) and math.isfinite(x) for x in entry)
        ):
            raise ModelError(
                f"{where}[{i}]: expected an [re, im] pair of finite numbers, got {entry!r}"
            )
        out[i] = complex(entry[0], entry[1])
    return out.reshape(dim, dim)


def model_from_dict(doc):
    """Build a :class:`LindbladModel` from a parsed JSON document.

    Schema: ``{"dim": n, "hamiltonian": [[re, im], ...],
    "jumps": [{"matrix": [...], "rate": g}, ...], "name": optional}``.
    Violations raise :class:`ModelError` naming the offending field.
    """
    if not isinstance(doc, dict):
        raise ModelError(f"model document: expected an object, got {type(doc).__name__}")
    dim = doc.get("dim")
    if not isinstance(dim, int) or not 2 <= dim <= 8:
        raise ModelError(f"dim: expected an integer in 2..8, got {dim!r}")
    if "hamiltonian" not in doc:
        raise ModelError("hamiltonian: missing")
    ham = matrix_from_wire(doc["hamiltonian"], dim, "hamiltonian")
    try:
        ham = require_hermitian(ham, name="hamiltonian")
    except StateError as exc:
        raise ModelError(str(exc)) from None
    jumps_doc = doc.get("jumps", [])
    if not isinstance(jumps_doc, list):
        raise ModelError(f"jumps: expected a list, got {type(jumps_doc).__name__}")
    jumps = []
    for k, jd in enumerate(jumps_doc):
        if not isinstance(jd, dict):
            raise ModelError(f"jumps[{k}]: expected an object")
        if "matrix" not in jd:
            raise ModelError(f"jumps[{k}].matrix: missing")
        op = matrix_from_wire(jd["matrix"], dim, f"jumps[{k}].matrix")
        rate = jd.get("rate")
        if not isinstance(rate, (int, float)) or not math.isfinite(rate) or rate < 0:
            raise ModelError(f"jumps[{k}].rate: expected a finite number >= 0, got {rate!r}")
        jumps.append((op, float(rate)))
    name = doc.get("name", "custom")
    if not isinstance(name, str):
        raise ModelError(f"name: expected a string, got {name!r}")
    return LindbladModel(name=name, dim=dim, hamiltonian=ham, jumps=jumps)


def load_model(path):
    """Load a model from a JSON file (see :func:`model_from_dict`)."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ModelError(f"{path}: invalid JSON at line {exc.lineno}: {exc.msg}") from None
    return model_from_dict(doc)
