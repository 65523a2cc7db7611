import math

import numpy as np
import pytest

LARGE_ARRAY = 10**7


@pytest.fixture
def rng():
    return np.random.default_rng(20250810)


@pytest.fixture
def forbid_large_arrays(monkeypatch):
    """Make ``numpy.linspace`` and ``numpy.empty`` refuse arrays of more
    than 10**7 elements, so a test of an oversized request fails where the
    code under test would otherwise allocate it."""

    def guard(make, count):
        def guarded(*args, **kwargs):
            n = count(*args, **kwargs)
            if n > LARGE_ARRAY:
                raise AssertionError(f"numpy.{make.__name__} asked for {n} elements")
            return make(*args, **kwargs)

        return guarded

    monkeypatch.setattr(np, "linspace", guard(np.linspace, lambda start, stop, num=50, *a, **k: num))
    monkeypatch.setattr(np, "empty", guard(
        np.empty, lambda shape, *a, **k: shape if isinstance(shape, int) else math.prod(shape)))


def random_density(rng, dim, min_eigenvalue=0.0):
    """Random full-rank density matrix, optionally with a floor on the
    smallest eigenvalue (mix with the maximally mixed state)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    rho = rho / np.trace(rho).real
    if min_eigenvalue > 0.0:
        w = np.linalg.eigvalsh(rho)
        if w[0] < min_eigenvalue:
            mix = (min_eigenvalue - w[0]) * dim / (1.0 - dim * w[0])
            rho = (1.0 - mix) * rho + mix * np.eye(dim) / dim
    return rho


def random_hermitian(rng, dim, scale=1.0):
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    return scale * 0.5 * (g + g.conj().T)


def brute_force_length(speed, tau, cells=1_000_000):
    """Plain composite-midpoint integral of a (possibly endpoint-singular)
    speed callable over [0, tau]; deliberately shares nothing with the
    production quadrature."""
    edges = np.linspace(0.0, tau, cells + 1)
    mids = 0.5 * (edges[:-1] + edges[1:])
    return float(np.sum(speed(mids)) * (tau / cells))


def random_trajectory(rng, steps=64):
    """Trajectory of a random Lindblad model from a random mixed state."""
    from qslpath import LindbladModel, evolve

    dim = int(rng.integers(2, 5))
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    jumps = []
    for _ in range(int(rng.integers(1, 3))):
        j = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
        jumps.append((j / np.sqrt(dim), float(rng.uniform(0.1, 1.0))))
    model = LindbladModel(name="random", dim=dim,
                          hamiltonian=0.5 * (g + g.conj().T), jumps=jumps)
    rho0 = random_density(rng, dim)
    tau = float(rng.uniform(0.5, 2.0))
    return evolve(model, rho0, tau, steps)
