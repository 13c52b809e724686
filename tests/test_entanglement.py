"""Tests for entanglement measures and closed-form capacities."""

import numpy as np
import pytest
from numpy import kron

from gatecap.entanglement import (
    binary_entropy,
    capacities_closed_form,
    concurrence,
    concurrence_conjugate_form,
    entropy_of_entanglement,
    is_perfect_entangler,
)
from gatecap.linalg import DimensionMismatchError, haar_random_unitary

BELL = np.array([1, 0, 0, 1]) / np.sqrt(2)
PI_4 = np.pi / 4


def test_binary_entropy_limits():
    assert binary_entropy(0.0) == 0.0
    assert binary_entropy(1.0) == 0.0
    assert binary_entropy(0.5) == 1.0
    assert abs(binary_entropy((1 + np.sqrt(0.5)) / 2) - 0.6009) <= 1e-4


def test_binary_entropy_rejects_out_of_range():
    with pytest.raises(ValueError):
        binary_entropy(1.5)


def test_concurrence_product_and_bell():
    assert concurrence(np.array([1, 0, 0, 0], dtype=complex)) == 0.0
    assert abs(concurrence(BELL) - 1.0) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        concurrence(np.array([1, 0], dtype=complex))


def test_concurrence_schmidt_form():
    theta = np.pi / 8
    psi = np.array([np.cos(theta), 0, 0, np.sin(theta)])
    assert abs(concurrence(psi) - np.sin(2 * theta)) <= 1e-12


def test_concurrence_forms_agree():
    rng = np.random.default_rng(41)
    for _ in range(200):
        psi = haar_random_unitary(4, rng)[:, 0]
        assert abs(concurrence(psi) - concurrence_conjugate_form(psi)) <= 1e-12
    with pytest.raises(DimensionMismatchError):
        concurrence_conjugate_form(np.array([1, 0], dtype=complex))


def test_concurrence_local_invariance():
    rng = np.random.default_rng(43)
    for _ in range(50):
        psi = haar_random_unitary(4, rng)[:, 0]
        dressed = kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)) @ psi
        assert abs(concurrence(dressed) - concurrence(psi)) <= 1e-12


def test_concurrence_zero_on_kron_products():
    rng = np.random.default_rng(47)
    for _ in range(50):
        psi = kron(haar_random_unitary(2, rng)[:, 0], haar_random_unitary(2, rng)[:, 0])
        assert concurrence(psi) <= 1e-12


def test_entropy_values():
    assert entropy_of_entanglement(np.array([1, 0, 0, 0], dtype=complex)) == 0.0
    assert abs(entropy_of_entanglement(BELL) - 1.0) <= 1e-12
    theta = np.pi / 8
    psi = np.array([np.cos(theta), 0, 0, np.sin(theta)])
    assert abs(entropy_of_entanglement(psi) - 0.6009) <= 1e-4
    with pytest.raises(DimensionMismatchError):
        entropy_of_entanglement(np.array([1, 0], dtype=complex))


def test_entropy_matches_concurrence_form():
    rng = np.random.default_rng(53)
    for _ in range(200):
        psi = haar_random_unitary(4, rng)[:, 0]
        c = concurrence(psi)
        want = binary_entropy((1 + np.sqrt(max(1 - c * c, 0.0))) / 2)
        assert abs(entropy_of_entanglement(psi) - want) <= 1e-10


def test_perfect_entangler_cases():
    assert is_perfect_entangler([PI_4, 0, 0])
    assert not is_perfect_entangler([np.pi / 8, 0, 0])
    assert not is_perfect_entangler([PI_4, PI_4, PI_4])


def test_perfect_entangler_takes_either_sign_of_az():
    # ay + az <= pi/4 holds for the last triple; ay + |az| does not.
    assert is_perfect_entangler([PI_4, np.pi / 8, -np.pi / 16])
    assert not is_perfect_entangler([PI_4, PI_4 - 0.01, 0.1])
    assert not is_perfect_entangler([PI_4, PI_4 - 0.01, -0.1])


def test_capacities_identity():
    caps = capacities_closed_form([0, 0, 0])
    assert caps.c_max_prod == 0.0
    assert caps.c_max == 0.0
    assert caps.e_max_prod == 0.0
    assert not caps.perfect_entangler


def test_capacities_pi8():
    caps = capacities_closed_form([np.pi / 8, 0, 0])
    assert abs(caps.c_max_prod - 0.70711) <= 1e-5
    assert abs(caps.c_max - 0.84090) <= 1e-5
    assert abs(caps.e_max_prod - 0.6009) <= 1e-4


def test_capacities_swap_triple():
    caps = capacities_closed_form([PI_4, PI_4, PI_4])
    assert caps.c_max_prod <= 1e-12
    assert not caps.perfect_entangler


def test_capacities_perfect_entangler():
    caps = capacities_closed_form([PI_4, np.pi / 16, 0])
    assert caps.c_max_prod == 1.0
    assert caps.e_max_prod == 1.0
    assert caps.perfect_entangler


def test_capacities_mirror_invariance():
    rng = np.random.default_rng(59)
    for _ in range(50):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        az = rng.uniform(0, ay)
        plus = capacities_closed_form([ax, ay, az])
        minus = capacities_closed_form([ax, ay, -az])
        assert plus == minus


def test_capacity_sqrt_link():
    rng = np.random.default_rng(61)
    for _ in range(50):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        caps = capacities_closed_form([ax, ay, rng.uniform(-ay, ay)])
        assert abs(caps.c_max - np.sqrt(caps.c_max_prod)) <= 1e-15
