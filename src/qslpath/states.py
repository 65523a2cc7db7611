"""Complex Hermitian linear algebra and state-space metrics.

States are plain ``numpy`` arrays of ``complex`` with shape ``(d, d)``,
``2 <= d <= 8``.  Validators (:func:`require_hermitian`,
:func:`require_density_matrix`) raise :class:`~qslpath.errors.StateError`
rather than silently repairing bad input; the one sanctioned repair is
clamping eigenvalues in ``(-PSD_TOL, 0)`` to zero, since fixed-step
integration routinely produces harmless tiny negatives.

The single-matrix helpers (:func:`eigh`, :func:`eigh_values`, the
metrics) use a cyclic Jacobi iteration for complex Hermitian matrices.  At
these dimensions it is robust, dependency-free, and exact in one sweep for
qubits; tests cross-check it against ``numpy.linalg``.  Trajectory-wide
spectra go through LAPACK (``numpy.linalg.eigh``/``eigvalsh``) over
``(N, d, d)`` stacks of at most :data:`STACK_BLOCK` matrices, validated by
the same checks, tolerances and messages as the single-matrix validators.
"""

import numpy as np
from dataclasses import dataclass

from .errors import EigensolverError, StateError

__all__ = [
    "SIGMA_X",
    "SIGMA_Y",
    "SIGMA_Z",
    "Spectrum",
    "bloch_to_state",
    "bures_angle",
    "eigh",
    "eigh_values",
    "fidelity",
    "matrix_sqrt",
    "purity",
    "require_density_matrix",
    "require_hermitian",
    "schatten_norm",
    "state_to_bloch",
    "trace_distance",
]

SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
SIGMA_Y = np.array([[0.0, -1.0j], [1.0j, 0.0]], dtype=complex)
SIGMA_Z = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)

HERMITIAN_TOL = 1e-12
TRACE_TOL = 1e-10
PSD_TOL = 1e-10
ARCCOS_SLACK = 1e-8

MIN_DIM = 2
MAX_DIM = 8

# Matrices per LAPACK call when a whole trajectory is diagonalized; bounds
# the stacked temporaries independently of the grid length.
STACK_BLOCK = 512


def _require_square(a, name):
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise StateError(f"{name}: expected a square matrix, got shape {a.shape}")
    d = a.shape[0]
    if not MIN_DIM <= d <= MAX_DIM:
        raise StateError(f"{name}: unsupported dimension {d} (need {MIN_DIM}..{MAX_DIM})")
    return a


def _hermitian_faults(a, name):
    """The checks of :func:`require_hermitian` over an ``(N, d, d)`` stack,
    in order: a list of (failure mask, message for matrix k)."""
    finite = np.isfinite(a).all(axis=(1, 2))
    dev = np.abs(a - a.conj().swapaxes(1, 2)).max(axis=(1, 2))
    diag_imag = np.abs(np.diagonal(a, axis1=1, axis2=2).imag).max(axis=1)
    return [
        (~finite, lambda k: f"{name}: non-finite entries"),
        (dev > HERMITIAN_TOL, lambda k: f"{name}: not Hermitian (max deviation {dev[k]:.3e})"),
        (diag_imag > HERMITIAN_TOL,
         lambda k: f"{name}: diagonal has imaginary part {diag_imag[k]:.3e}"),
    ]


def _density_faults(rho, min_eigenvalues, name):
    """The checks of :func:`require_density_matrix` over a stack whose
    smallest eigenvalues are already known."""
    tr = np.trace(rho, axis1=1, axis2=2)
    bad_trace = (np.abs(tr.real - 1.0) > TRACE_TOL) | (np.abs(tr.imag) > HERMITIAN_TOL)
    return _hermitian_faults(rho, name) + [
        (bad_trace, lambda k: f"{name}: trace is {tr[k]}, expected 1"),
        (min_eigenvalues < -PSD_TOL,
         lambda k: f"{name}: negative eigenvalue {min_eigenvalues[k]:.3e}"),
    ]


def _raise_first_fault(faults, label=None, first=0):
    """Raise :class:`StateError` for the first matrix failing any check,
    with the message of its first failed check in list order, prefixed
    ``"<label> <first + k>: "`` when a label is given."""
    bad = np.stack([mask for mask, _ in faults])
    hit = bad.any(axis=0)
    if hit.any():
        k = int(np.argmax(hit))
        message = faults[int(np.argmax(bad[:, k]))][1](k)
        raise StateError(message if label is None else f"{label} {first + k}: {message}")


def _lapack(solver, a, label=None, first=0):
    """``solver(a)`` for a ``numpy.linalg`` routine over an ``(N, d, d)``
    stack; a ``LinAlgError`` becomes an :class:`EigensolverError` naming
    the first matrix that fails on its own."""
    try:
        return solver(a)
    except np.linalg.LinAlgError as exc:
        k = 0
        for k in range(len(a)):
            try:
                solver(a[k])
            except np.linalg.LinAlgError:
                break
        where = "" if label is None else f"{label} {first + k}: "
        raise EigensolverError(f"{where}LAPACK eigensolver failed: {exc}") from exc


def _density_stack(rho, name, label=None, first=0, vectors=False):
    """LAPACK spectrum of an ``(N, d, d)`` stack of states with the checks
    of :func:`require_density_matrix` on each: ``(w, v, faults)``, where
    ``v`` is None unless ``vectors`` and ``faults`` goes to
    :func:`_raise_first_fault`.  Non-finite matrices are swapped for the
    identity before the solver sees them; their fault comes first."""
    finite = np.isfinite(rho).all(axis=(1, 2))
    rho_safe = rho if finite.all() else np.where(finite[:, None, None], rho, np.eye(rho.shape[1]))
    if vectors:
        w, v = _lapack(np.linalg.eigh, rho_safe, label, first)
    else:
        w, v = _lapack(np.linalg.eigvalsh, rho_safe, label, first), None
    return w, v, _density_faults(rho, w[:, 0], name)


def require_hermitian(a, name="matrix"):
    """Validate and return ``a`` as a complex Hermitian matrix.

    Checks shape, supported dimension, finite entries, Hermiticity to
    ``1e-12`` in max-norm, and real diagonal to ``1e-12``.
    """
    a = _require_square(a, name)
    _raise_first_fault(_hermitian_faults(a[None], name))
    return a


def require_density_matrix(rho, name="state"):
    """Validate and return ``rho`` as a density matrix.

    On top of Hermiticity: unit trace (real part to ``1e-10``, imaginary
    part to ``1e-12``) and positive semidefiniteness up to ``-1e-10``.
    """
    rho = require_hermitian(rho, name=name)
    _raise_first_fault(_density_faults(rho[None], eigh_values(rho)[:1], name))
    return rho


@dataclass(frozen=True)
class Spectrum:
    """Eigendecomposition of a Hermitian matrix.

    ``eigenvalues`` are real and ascending; ``eigenvectors`` holds the
    matching unit eigenvectors as columns of a unitary matrix.
    """

    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


def _jacobi(a, want_vectors, tol=1e-13, max_sweeps=100):
    """Cyclic Jacobi diagonalization of a complex Hermitian matrix.

    The stopping threshold is on the largest off-diagonal magnitude,
    scaled by the input magnitude when that exceeds unity so that large
    matrices are not asked to beat the rounding floor.
    """
    n = a.shape[0]
    a = np.array(a, dtype=complex)
    scale = np.max(np.abs(a))
    threshold = tol * max(1.0, scale)
    v = np.eye(n, dtype=complex) if want_vectors else None
    for _ in range(max_sweeps):
        off = 0.0
        for p in range(n - 1):
            for q in range(p + 1, n):
                m = abs(a[p, q])
                if m <= threshold:
                    continue
                off = max(off, m)
                phase = a[p, q] / m
                zeta = (a[p, p].real - a[q, q].real) / (2.0 * m)
                if zeta != 0.0:
                    t = np.sign(zeta) / (abs(zeta) + np.hypot(1.0, zeta))
                else:
                    t = 1.0
                c = 1.0 / np.sqrt(1.0 + t * t)
                s = t * c
                sp = s * phase
                spc = s * phase.conjugate()
                colp = a[:, p].copy()
                colq = a[:, q].copy()
                a[:, p] = c * colp + spc * colq
                a[:, q] = -sp * colp + c * colq
                rowp = a[p, :].copy()
                rowq = a[q, :].copy()
                a[p, :] = c * rowp + sp * rowq
                a[q, :] = -spc * rowp + c * rowq
                a[p, q] = 0.0
                a[q, p] = 0.0
                a[p, p] = a[p, p].real
                a[q, q] = a[q, q].real
                if want_vectors:
                    vp = v[:, p].copy()
                    vq = v[:, q].copy()
                    v[:, p] = c * vp + spc * vq
                    v[:, q] = -sp * vp + c * vq
        if off == 0.0:
            w = a.diagonal().real.copy()
            order = np.argsort(w, kind="stable")
            if want_vectors:
                return w[order], v[:, order]
            return w[order], None
    residual = float(np.max(np.abs(a - np.diag(a.diagonal()))))
    raise EigensolverError(
        f"Jacobi sweep budget ({max_sweeps}) exhausted with off-diagonal "
        f"residual {residual:.3e}",
        residual=residual,
    )


def eigh(a):
    """Eigendecomposition of a Hermitian matrix via cyclic Jacobi rotations.

    Returns a :class:`Spectrum` with ascending eigenvalues.  Raises
    :class:`EigensolverError` if the sweep budget (100) is exhausted before
    the off-diagonal max-norm falls below 1e-13.
    """
    a = require_hermitian(a)
    w, v = _jacobi(a, want_vectors=True)
    return Spectrum(eigenvalues=w, eigenvectors=v)


def eigh_values(a):
    """Eigenvalues only (ascending) of a Hermitian matrix; skips the
    eigenvector accumulation of :func:`eigh`."""
    a = np.asarray(a, dtype=complex)
    w, _ = _jacobi(a, want_vectors=False)
    return w


def _clamped_psd_eigs(w, name):
    if w[0] < -PSD_TOL:
        raise StateError(f"{name}: negative eigenvalue {w[0]:.3e}, not PSD")
    return np.maximum(w, 0.0)


def matrix_sqrt(a):
    """Principal square root of a positive-semidefinite Hermitian matrix.

    Eigenvalues in ``(-1e-10, 0)`` are clamped to zero; anything more
    negative raises :class:`StateError`.
    """
    a = require_hermitian(a, name="matrix_sqrt input")
    spec = eigh(a)
    w = _clamped_psd_eigs(spec.eigenvalues, "matrix_sqrt input")
    v = spec.eigenvectors
    return (v * np.sqrt(w)) @ v.conj().T


def purity(rho):
    """Tr(rho^2) as a real number."""
    rho = np.asarray(rho, dtype=complex)
    return float(np.sum(np.abs(rho) ** 2).real)


def fidelity(rho, sigma):
    """Square-root fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)) in [0, 1].

    This is the convention under which arccos of the fidelity is the Bures
    angle: orthogonal pure states give 0, identical states give 1, and for
    pure rho = |psi><psi| the value reduces to sqrt(<psi|sigma|psi>).
    """
    rho = require_density_matrix(rho, name="fidelity arg 1")
    sigma = require_density_matrix(sigma, name="fidelity arg 2")
    s = matrix_sqrt(rho)
    m = s @ sigma @ s
    m = 0.5 * (m + m.conj().T)
    w = _clamped_psd_eigs(eigh_values(m), "fidelity inner product")
    # Rank cutoff: rounding noise in genuinely zero eigenvalues of the
    # product sits near eps * w_max and would leak sqrt(eps)-sized terms
    # into the trace; exact zeros are what rank-deficient pairs produce.
    w[w < 16.0 * np.finfo(float).eps * w[-1]] = 0.0
    f = float(np.sum(np.sqrt(w)))
    if f > 1.0 + ARCCOS_SLACK:
        raise StateError(f"fidelity {f} exceeds 1 beyond numerical slack")
    return min(max(f, 0.0), 1.0)


def bures_angle(rho, sigma):
    """Bures angle arccos(fidelity) in [0, pi/2]; the geodesic distance
    between two density matrices under the Bures metric."""
    return float(np.arccos(fidelity(rho, sigma)))


def trace_distance(rho, sigma):
    """Trace distance 0.5 * sum |eigenvalues(rho - sigma)| in [0, 1]."""
    rho = np.asarray(rho, dtype=complex)
    sigma = np.asarray(sigma, dtype=complex)
    delta = rho - sigma
    delta = 0.5 * (delta + delta.conj().T)
    w = eigh_values(delta)
    return float(0.5 * np.sum(np.abs(w)))


def _norms_from_eigenvalues(w):
    """(op, hs, tr) Schatten norms of Hermitian matrices from their
    eigenvalues along the last axis; the op <= hs <= tr ordering is exact
    post-eigensolve."""
    absw = np.abs(w)
    op = np.max(absw, axis=-1)
    hs = np.sqrt(np.sum(absw * absw, axis=-1))
    tr = np.sum(absw, axis=-1)
    return op, hs, tr


def schatten_norm(a, which):
    """Schatten norm of a Hermitian matrix.

    ``which`` selects ``"op"`` (largest absolute eigenvalue), ``"hs"``
    (Hilbert-Schmidt) or ``"tr"`` (trace norm).
    """
    a = require_hermitian(a, name="schatten_norm input")
    op, hs, tr = _norms_from_eigenvalues(eigh_values(a))
    try:
        return float({"op": op, "hs": hs, "tr": tr}[which])
    except KeyError:
        raise ValueError(f"unknown Schatten norm {which!r}; use 'op', 'hs' or 'tr'") from None


def bloch_to_state(v):
    """Qubit density matrix 0.5 * (I + x sx + y sy + z sz) from a Bloch
    vector of length at most 1."""
    v = np.asarray(v, dtype=float)
    if v.shape != (3,):
        raise StateError(f"Bloch vector must have 3 components, got shape {v.shape}")
    r2 = float(v @ v)
    if r2 > 1.0 + PSD_TOL:
        raise StateError(f"Bloch vector has norm {np.sqrt(r2):.12f} > 1")
    x, y, z = v
    return 0.5 * np.array(
        [[1.0 + z, x - 1.0j * y], [x + 1.0j * y, 1.0 - z]], dtype=complex
    )


def state_to_bloch(rho):
    """Bloch vector (x, y, z) of a qubit density matrix."""
    rho = np.asarray(rho, dtype=complex)
    if rho.shape != (2, 2):
        raise StateError(f"unsupported dimension {rho.shape[0]} for Bloch conversion")
    x = float(np.trace(rho @ SIGMA_X).real)
    y = float(np.trace(rho @ SIGMA_Y).real)
    z = float(np.trace(rho @ SIGMA_Z).real)
    return np.array([x, y, z])
