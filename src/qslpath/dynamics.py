"""Lindblad models, fixed-step trajectory integration, and the model catalog.

The generator is the standard GKSL form (hbar = 1)

    drho/dt = -i [H, rho] + sum_k gamma_k (L_k rho L_k' - 0.5 {L_k' L_k, rho})

integrated with classical fixed-step RK4 on a uniform grid.  Fixed step is
deliberate: the grid is shared with the quadrature and root-finding layers,
so accuracy is bought with steps and verified by a convergence-order test.
Each stored state is re-symmetrized and trace-renormalized; the generator
derivative at every grid point is stored alongside the state (derivatives
are never finite-differenced, the Fisher-information speed is too sensitive
to that noise).

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
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .errors import IntegrationError, ModelError, StateError, StationaryStateError
from .states import (
    SIGMA_Z,
    bloch_to_state,
    eigh_values,
    require_density_matrix,
    require_hermitian,
    trace_distance,
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
POSITIVITY_FAIL = 1e-6

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


def _gksl_rhs(model):
    """The GKSL generator of ``model`` as a function of ``rho``.

    The returned closure accepts one ``(d, d)`` state or an ``(N, d, d)``
    stack; jump products are formed once here, outside the callers' loops.
    """
    ham = model.hamiltonian
    terms = []
    for op, rate in model.jumps:
        if rate > 0.0:
            op = np.asarray(op, dtype=complex)
            opd = op.conj().T
            terms.append((op, opd, opd @ op, rate))

    def rhs(rho):
        out = -1.0j * (ham @ rho - rho @ ham)
        for op, opd, opdop, rate in terms:
            out = out + rate * (op @ rho @ opd - 0.5 * (opdop @ rho + rho @ opdop))
        return out

    return rhs


def lindblad_rhs(model, rho):
    """Generator derivative drho/dt for ``rho`` under ``model``.

    The result is Hermitian and traceless up to rounding.
    """
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (model.dim, model.dim):
        raise StateError(
            f"state shape {rho.shape} does not match model dimension {model.dim}"
        )
    return _gksl_rhs(model)(rho)


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
    if w[0] < -POSITIVITY_FAIL:
        raise IntegrationError(
            f"state lost positivity at step {step}: min eigenvalue {w[0]:.3e}",
            step=step,
        )


def evolve(model, rho0, tau, steps, renormalize=True):
    """Integrate ``model`` from ``rho0`` over ``[0, tau]`` with ``steps``
    RK4 steps, returning a :class:`Trajectory`.

    Each accepted state is re-symmetrized and (by default) trace-
    renormalized; the renormalization factor is logged if it ever drifts
    past 1e-6.  Positivity is checked at up to 64 checkpoints and at the
    final state; a violation raises :class:`IntegrationError` carrying the
    step index.  ``renormalize=False`` exposes the raw integrator for
    drift measurements.
    """
    if not (math.isfinite(tau) and tau > 0):
        raise ModelError(f"horizon tau must be positive and finite, got {tau}")
    if steps < MIN_STEPS:
        raise ModelError(f"steps must be at least {MIN_STEPS}, got {steps}")
    rho0 = require_density_matrix(rho0, name="initial state")
    if rho0.shape != (model.dim, model.dim):
        raise StateError(
            f"initial state dimension {rho0.shape[0]} does not match model "
            f"dimension {model.dim}"
        )

    h = tau / steps
    n = model.dim
    times = np.linspace(0.0, tau, steps + 1)
    states = np.empty((steps + 1, n, n), dtype=complex)
    derivs = np.empty((steps + 1, n, n), dtype=complex)

    rhs = _gksl_rhs(model)
    check_every = max(1, steps // 64)
    max_renorm = 0.0
    rho = rho0.copy()
    states[0] = rho
    derivs[0] = rhs(rho)
    for i in range(steps):
        k1 = derivs[i]
        k2 = rhs(rho + (0.5 * h) * k1)
        k3 = rhs(rho + (0.5 * h) * k2)
        k4 = rhs(rho + h * k3)
        rho = rho + (h / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        rho = 0.5 * (rho + rho.conj().T)
        tr = rho.trace().real
        if not np.isfinite(tr):
            raise IntegrationError(f"state diverged at step {i + 1}", step=i + 1)
        drift = abs(tr - 1.0)
        if drift > max_renorm:
            max_renorm = drift
            if drift > RENORM_WARN:
                log.warning(
                    "renormalization factor %.3e at step %d of %s",
                    tr, i + 1, model.name,
                )
        if renormalize:
            rho = rho / tr
        states[i + 1] = rho
        derivs[i + 1] = rhs(rho)
        if (i + 1) % check_every == 0:
            _check_positivity(rho, i + 1)
    _check_positivity(rho, steps)
    return Trajectory(
        model=model,
        tau=float(tau),
        steps=int(steps),
        times=times,
        states=states,
        derivatives=derivs,
        max_renormalization=max_renorm,
    )


def stationary_state(model, checkpoint_budget=10_000):
    """Stationary state of ``model`` and whether it is only reached
    asymptotically.

    Catalog models answer from their analytic entry.  Otherwise the
    maximally mixed state is propagated in checkpoints of length
    1/max(rate) until successive checkpoints agree to 1e-12 in trace
    distance; the returned flag is then True, making the asymptotic nature
    of the limit explicit.  Models without jumps have no attractor and
    raise :class:`StationaryStateError`.
    """
    if model.stationary is not None:
        return model.stationary.copy(), model.stationary_is_asymptotic
    rates = [rate for _, rate in model.jumps if rate > 0.0]
    if not rates:
        raise StationaryStateError(
            f"{model.name}: unitary dynamics has no stationary state"
        )
    span = 1.0 / max(rates)
    rho = np.eye(model.dim, dtype=complex) / model.dim
    for _ in range(checkpoint_budget):
        traj = evolve(model, rho, span, 256)
        nxt = traj.states[-1]
        if trace_distance(rho, nxt) < 1e-12:
            return nxt, True
        rho = nxt
    raise StationaryStateError(
        f"{model.name}: no convergence within {checkpoint_budget} checkpoints"
    )


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


def _spiral_speed(gamma, omega):
    def speed(t):
        t = np.asarray(t, dtype=float)
        r = np.exp(-2.0 * gamma * t)
        radial = 4.0 * gamma**2 * r**4 / np.clip(1.0 - r * r, 1e-300, None)
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
        # closed-form speed on a fine grid in s = sqrt(t), where the
        # integrand 2 s * speed(s^2) is smooth down to s = 0.
        if t == 0.0:
            return 0.0
        edges = np.linspace(0.0, np.sqrt(t), 200_001)
        mids = 0.5 * (edges[:-1] + edges[1:])
        return float(np.sum(2.0 * mids * speed(mids * mids)) * (edges[1] - edges[0]))

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
