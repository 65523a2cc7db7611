import numpy as np
import pytest

from qslpath import (
    SIGMA_X,
    SIGMA_Z,
    StateError,
    bloch_to_state,
    bures_angle,
    eigh,
    fidelity,
    matrix_sqrt,
    purity,
    schatten_norm,
    state_to_bloch,
    trace_distance,
)
from qslpath.states import _lapack, require_density_matrix
from conftest import random_density, random_hermitian

KET0 = np.array([[1.0, 0.0], [0.0, 0.0]], dtype=complex)
KET1 = np.array([[0.0, 0.0], [0.0, 1.0]], dtype=complex)
MIXED = 0.5 * np.eye(2, dtype=complex)


class TestEigh:
    def test_identity(self):
        spec = eigh(np.eye(2, dtype=complex))
        assert np.allclose(spec.eigenvalues, [1.0, 1.0])

    def test_diagonal(self):
        spec = eigh(SIGMA_Z)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])

    def test_pauli_x(self):
        spec = eigh(SIGMA_X)
        assert np.allclose(spec.eigenvalues, [-1.0, 1.0])
        # eigenvectors are (|0> -+ |1>)/sqrt(2) up to phase
        minus, plus = spec.eigenvectors[:, 0], spec.eigenvectors[:, 1]
        assert abs(abs(np.vdot(minus, [1, -1] / np.sqrt(2))) - 1.0) < 1e-12
        assert abs(abs(np.vdot(plus, [1, 1] / np.sqrt(2))) - 1.0) < 1e-12

    def test_reconstruction_and_unitarity(self, rng):
        for dim in range(2, 9):
            for _ in range(10):
                a = random_hermitian(rng, dim)
                spec = eigh(a)
                v, w = spec.eigenvectors, spec.eigenvalues
                assert np.max(np.abs(v @ np.diag(w) @ v.conj().T - a)) < 1e-10
                assert np.max(np.abs(v.conj().T @ v - np.eye(dim))) < 1e-10
                assert np.all(np.diff(w) >= 0)

    def test_matches_reference_solver(self, rng):
        for dim in (2, 4, 8):
            a = random_hermitian(rng, dim)
            assert np.allclose(eigh(a).eigenvalues, np.linalg.eigvalsh(a), atol=1e-11)

    def test_rejects_non_hermitian(self):
        with pytest.raises(StateError):
            eigh(np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex))

    def test_rejects_unsupported_dimension(self, rng):
        with pytest.raises(StateError):
            eigh(random_hermitian(rng, 9))

    def test_sweep_budget_error_carries_residual(self, rng):
        from qslpath import EigensolverError
        from qslpath.states import _jacobi

        a = random_hermitian(rng, 4)
        with pytest.raises(EigensolverError) as err:
            _jacobi(a, want_vectors=False, max_sweeps=1)
        assert err.value.residual is not None
        assert err.value.residual > 0.0


class TestMatrixSqrt:
    def test_identity(self):
        assert np.allclose(matrix_sqrt(np.eye(3, dtype=complex)), np.eye(3))

    def test_diagonal(self):
        root = matrix_sqrt(np.diag([4.0, 9.0]).astype(complex))
        assert np.allclose(root, np.diag([2.0, 3.0]))

    def test_mixed_qubit(self):
        a = 0.5 * (np.eye(2) + 0.6 * SIGMA_X)
        root = matrix_sqrt(a)
        assert np.max(np.abs(root @ root - a)) < 1e-8
        assert np.allclose(np.sort(eigh(root).eigenvalues), np.sqrt([0.2, 0.8]), atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(StateError):
            matrix_sqrt(SIGMA_Z)


class TestFidelity:
    def test_identical(self, rng):
        rho = random_density(rng, 3)
        assert abs(fidelity(rho, rho) - 1.0) < 1e-8

    def test_orthogonal_pure(self):
        assert fidelity(KET0, KET1) < 1e-8

    def test_pure_vs_mixed(self):
        assert abs(fidelity(KET0, MIXED) - 1.0 / np.sqrt(2.0)) < 1e-10

    def test_symmetry(self, rng):
        for dim in (2, 3, 4):
            for _ in range(20):
                rho, sigma = random_density(rng, dim), random_density(rng, dim)
                assert abs(fidelity(rho, sigma) - fidelity(sigma, rho)) < 1e-10

    def test_pure_state_reduction(self, rng):
        for _ in range(20):
            psi = rng.normal(size=3) + 1j * rng.normal(size=3)
            psi = psi / np.linalg.norm(psi)
            rho = np.outer(psi, psi.conj())
            sigma = random_density(rng, 3)
            expected = np.sqrt(np.real(psi.conj() @ sigma @ psi))
            assert abs(fidelity(rho, sigma) - expected) < 1e-9


class TestBuresAngle:
    def test_zero_for_identical(self, rng):
        rho = random_density(rng, 2)
        assert bures_angle(rho, rho) < 1e-7

    def test_orthogonal_pure(self):
        assert abs(bures_angle(KET0, KET1) - np.pi / 2) < 1e-8

    def test_pure_vs_mixed(self):
        assert abs(bures_angle(KET0, MIXED) - np.pi / 4) < 1e-10


class TestTraceDistance:
    def test_zero(self, rng):
        rho = random_density(rng, 4)
        assert trace_distance(rho, rho) < 1e-12

    def test_orthogonal_pure(self):
        assert abs(trace_distance(KET0, KET1) - 1.0) < 1e-12

    def test_pure_vs_mixed(self):
        assert abs(trace_distance(KET0, MIXED) - 0.5) < 1e-12

    def test_symmetry(self, rng):
        rho, sigma = random_density(rng, 3), random_density(rng, 3)
        assert abs(trace_distance(rho, sigma) - trace_distance(sigma, rho)) < 1e-12

    def test_fuchs_van_de_graaf(self, rng):
        for _ in range(100):
            dim = int(rng.integers(2, 5))
            rho, sigma = random_density(rng, dim), random_density(rng, dim)
            f = fidelity(rho, sigma)
            d = trace_distance(rho, sigma)
            assert 1.0 - f <= d + 1e-9
            assert d <= np.sqrt(max(0.0, 1.0 - f * f)) + 1e-9

    @pytest.mark.parametrize("axis", [0, 1, 2])
    def test_tiny_distance_along_each_axis(self, axis):
        # D(rho, I/2) = |r| / 2 for a qubit with Bloch vector r, up to the
        # rounding of 1 + z on the diagonal; an off-diagonal entry of 2e-14
        # must not read as zero
        r = np.zeros(3)
        r[axis] = 4e-14
        assert trace_distance(bloch_to_state(r), MIXED) == pytest.approx(2e-14, rel=1e-2, abs=0.0)


class TestSchattenNorm:
    def test_zero(self):
        z = np.zeros((2, 2), dtype=complex)
        assert all(schatten_norm(z, w) == 0.0 for w in ("op", "hs", "tr"))

    def test_pauli_z(self):
        assert schatten_norm(SIGMA_Z, "op") == pytest.approx(1.0)
        assert schatten_norm(SIGMA_Z, "hs") == pytest.approx(np.sqrt(2.0))
        assert schatten_norm(SIGMA_Z, "tr") == pytest.approx(2.0)

    def test_damping_derivative(self):
        # derivative of the damping path has eigenvalues +- g e^{-gt}
        g, t = 1.3, 0.4
        drho = g * np.exp(-g * t) * np.diag([1.0, -1.0]).astype(complex)
        assert schatten_norm(drho, "op") == pytest.approx(g * np.exp(-g * t))
        assert schatten_norm(drho, "hs") == pytest.approx(np.sqrt(2) * g * np.exp(-g * t))
        assert schatten_norm(drho, "tr") == pytest.approx(2 * g * np.exp(-g * t))

    def test_ordering(self, rng):
        for _ in range(50):
            dim = int(rng.integers(2, 9))
            a = random_hermitian(rng, dim)
            op, hs, tr = (schatten_norm(a, w) for w in ("op", "hs", "tr"))
            assert op <= hs <= tr

    def test_unknown_norm(self):
        with pytest.raises(ValueError):
            schatten_norm(SIGMA_Z, "nuclear")


class TestBloch:
    def test_maximally_mixed(self):
        assert np.allclose(bloch_to_state(np.zeros(3)), MIXED)

    def test_poles(self):
        assert np.allclose(bloch_to_state(np.array([0.0, 0.0, 1.0])), KET0)
        assert np.allclose(bloch_to_state(np.array([0.0, 0.0, -1.0])), KET1)

    def test_partial_polarization(self):
        rho = bloch_to_state(np.array([0.6, 0.0, 0.0]))
        assert np.allclose(np.sort(eigh(rho).eigenvalues), [0.2, 0.8])

    def test_round_trip(self, rng):
        for _ in range(20):
            v = rng.normal(size=3)
            v = v / np.linalg.norm(v) * rng.uniform(0.0, 1.0)
            assert np.max(np.abs(state_to_bloch(bloch_to_state(v)) - v)) < 1e-12

    def test_rejects_long_vector(self):
        with pytest.raises(StateError):
            bloch_to_state(np.array([1.1, 0.0, 0.0]))

    def test_rejects_wrong_dimension(self, rng):
        with pytest.raises(StateError):
            state_to_bloch(random_density(rng, 3))


def test_purity():
    assert purity(KET0) == pytest.approx(1.0)
    assert purity(MIXED) == pytest.approx(0.5)


def test_lapack_failure_names_first_failing_matrix():
    from qslpath import EigensolverError

    def solver(a):
        if np.any(a[..., 0, 0] == 7.0):
            raise np.linalg.LinAlgError("Eigenvalues did not converge")
        return np.linalg.eigvalsh(a)

    stack = np.stack([np.eye(2, dtype=complex)] * 6)
    stack[4, 0, 0] = 7.0
    with pytest.raises(EigensolverError) as err:
        _lapack(solver, stack, "grid index", 512)
    assert "grid index 516:" in str(err.value)


def test_validators_reject_non_finite_entries():
    rho = np.array([[1.0, np.nan], [np.nan, 0.0]], dtype=complex)
    with pytest.raises(StateError) as err:
        require_density_matrix(rho)
    assert "non-finite" in str(err.value)
