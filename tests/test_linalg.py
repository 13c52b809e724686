"""Tests for the dense linear-algebra core."""

import inspect

import numpy as np
import pytest
from numpy import kron

import gatecap
from gatecap.linalg import (
    DimensionMismatchError,
    NotUnitaryError,
    PAULI_Y,
    PAULI_Z,
    check_state,
    check_unitary,
    eig_unitary,
    haar_random_unitary,
    unitarity_defect,
)


def test_kron_identities():
    assert np.allclose(kron(np.eye(2), np.eye(2)), np.eye(4))


def test_kron_sz_identity():
    assert np.allclose(kron(PAULI_Z, np.eye(2)), np.diag([1, 1, -1, -1]))


def test_kron_sy_sy_antidiagonal():
    expected = np.zeros((4, 4))
    expected[0, 3], expected[1, 2], expected[2, 1], expected[3, 0] = -1, 1, 1, -1
    assert np.allclose(kron(PAULI_Y, PAULI_Y), expected)


def test_kron_mixed_product_property():
    rng = np.random.default_rng(5)
    a, b, c, d = (haar_random_unitary(2, rng) for _ in range(4))
    assert np.max(np.abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d))) <= 1e-12


def test_eig_unitary_identity():
    assert np.allclose(eig_unitary(np.eye(4, dtype=complex)), 0.0)


def test_eig_unitary_diagonal_phases():
    # -1 - 0j has angle -pi; the phases lie in (-pi, pi], so it reads pi.
    for minus_one in (-1, complex(-1, -0.0)):
        phases = eig_unitary(np.diag([1, 1j, minus_one, -1j]).astype(complex))
        assert np.allclose(phases, [-np.pi / 2, 0.0, np.pi / 2, np.pi])
        assert phases[-1] == np.pi


def test_eig_unitary_reconstruction():
    # The phases are the whole spectrum: their sum and product give tr U and det U.
    rng = np.random.default_rng(11)
    for _ in range(50):
        u = haar_random_unitary(4, rng)
        phases = eig_unitary(u)
        assert np.all(np.diff(phases) >= 0)
        assert abs(np.sum(np.exp(1j * phases)) - np.trace(u)) <= 1e-14
        assert abs(np.prod(np.exp(1j * phases)) - np.linalg.det(u)) <= 1e-14


@pytest.mark.parametrize("delta", [0.0, 1e-14, 1e-12, 1e-11, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6])
def test_eig_unitary_near_degenerate_phases(delta):
    # Phase pairs (t, -t + delta) share their cosine and (p, p + delta) their
    # eigenvalue, to within delta.
    rng = np.random.default_rng(211)
    for _ in range(50):
        t, p = rng.uniform(-np.pi, np.pi, 2)
        v = haar_random_unitary(4, rng)
        phases = np.array([t, -t + delta, p, p + delta])
        u = (v * np.exp(1j * phases)) @ v.conj().T
        # Sorted phases match by a cyclic shift, as points on the circle.
        got, want = np.exp(1j * eig_unitary(u)), np.exp(1j * np.sort(phases))
        assert min(np.max(np.abs(np.roll(got, k) - want)) for k in range(4)) <= 1e-14


def test_eig_unitary_rejects_non_unitary():
    with pytest.raises(NotUnitaryError):
        eig_unitary(np.ones((4, 4), dtype=complex))


def test_haar_deterministic_per_seed():
    u1 = haar_random_unitary(4, np.random.default_rng(7))
    u2 = haar_random_unitary(4, np.random.default_rng(7))
    assert np.array_equal(u1, u2)


def test_haar_is_unitary():
    rng = np.random.default_rng(9)
    for dim in (2, 4):
        assert unitarity_defect(haar_random_unitary(dim, rng)) <= 1e-12


def test_haar_first_moment():
    # <|U[0,0]|^2> = 1/dim for Haar measure.
    rng = np.random.default_rng(13)
    samples = np.array([np.abs(haar_random_unitary(2, rng)[0, 0]) ** 2
                        for _ in range(20000)])
    # variance of |U00|^2 for dim 2 is 1/12; 3 sigma of the mean
    assert abs(samples.mean() - 0.5) <= 3 * np.sqrt(1 / 12 / samples.size)


def test_check_state_rejects_unnormalized():
    with pytest.raises(ValueError):
        check_state(np.array([1.0, 1.0, 0.0, 0.0]), 4)


def test_check_unitary_rejects_bad_dimension():
    with pytest.raises(DimensionMismatchError):
        check_unitary(np.eye(3, dtype=complex))
    with pytest.raises(DimensionMismatchError, match="dimension 4, got 2"):
        check_state(np.array([1.0, 0.0]), 4)


def test_check_unitary_rejects_a_defect_that_overflows():
    # Finite entries whose U^dag U overflows: the defect is NaN, which no
    # comparison with the tolerance may let through.
    u = np.eye(4, dtype=complex)
    u[0, 0] = 1e308 + 1e308j
    with pytest.raises(NotUnitaryError):
        check_unitary(u)


def test_check_unitary_rejects_non_square():
    with pytest.raises(DimensionMismatchError):
        check_unitary(np.ones((2, 3)))


def test_no_tolerance_parameters():
    # Tolerances are the constants of linalg's policy, not per-call knobs.
    for name in gatecap.__all__:
        obj = getattr(gatecap, name)
        if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
            params = inspect.signature(obj).parameters
            assert not {"tol", "atol"} & set(params), name
