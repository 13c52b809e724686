"""Tests of the benchmark's independent reference (no gatecap import).

Run from the repository root:  python3 -m pytest -q perfbench/test_reference.py
"""

import numpy as np
import pytest

import reference as ref

SIN_PI_4 = np.sin(np.pi / 4)


@pytest.mark.parametrize("name, c, dist", [
    ("identity", 0.0, 1.0),
    ("cnot", 1.0, 0.0),
    ("swap", 0.0, 1.0),
])
def test_named_gates(name, c, dist):
    c_ref, d_ref = ref.spectral_reference(ref.interaction_unitary(ref.NAMED[name]))
    assert c_ref == pytest.approx(c, abs=1e-12)
    assert d_ref == pytest.approx(dist, abs=1e-12)


def test_pi_over_8_gate():
    # (pi/8, 0, 0): the spectrum of U_d^2 is {e^{+-i pi/4}}, so c = D = sin(pi/4).
    c_ref, d_ref = ref.spectral_reference(ref.interaction_unitary((np.pi / 8, 0.0, 0.0)))
    assert c_ref == pytest.approx(SIN_PI_4, abs=1e-12)
    assert d_ref == pytest.approx(SIN_PI_4, abs=1e-12)


def test_identity_and_swap_invariants():
    # G1 = 1, G2 = 3 for the identity class; G1 = -1, G2 = -3 for SWAP.
    g1, g2 = ref.makhlin_invariants(np.eye(4))
    assert g1 == pytest.approx(1.0, abs=1e-12) and g2 == pytest.approx(3.0, abs=1e-12)
    g1, g2 = ref.makhlin_invariants(ref.interaction_unitary(ref.NAMED["swap"]))
    assert g1 == pytest.approx(-1.0, abs=1e-12) and g2 == pytest.approx(-3.0, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_invariance_under_local_dressing(seed):
    rng = np.random.default_rng(seed)
    d = ref.random_region_triple(rng, perfect=bool(seed % 2))
    u_d = ref.interaction_unitary(d)
    u = np.exp(1j * rng.uniform(0, 2 * np.pi)) * ref.dress(u_d, rng)
    assert np.allclose(ref.spectral_reference(u), ref.spectral_reference(u_d), atol=1e-12)
    for a, b in zip(ref.makhlin_invariants(u), ref.makhlin_invariants(u_d)):
        assert abs(a - b) <= 1e-12


@pytest.mark.parametrize("seed", range(5))
def test_identity_of_the_paper_holds_for_the_reference(seed):
    c_ref, d_ref = ref.spectral_reference(ref.haar_unitary(4, np.random.default_rng(seed)))
    assert c_ref**2 + d_ref**2 == pytest.approx(1.0, abs=1e-12)


def test_haar_unitary_is_unitary_and_seeded():
    u = ref.haar_unitary(4, np.random.default_rng(7))
    assert np.allclose(u.conj().T @ u, np.eye(4), atol=1e-14)
    assert np.array_equal(u, ref.haar_unitary(4, np.random.default_rng(7)))


def test_concurrence():
    assert ref.concurrence(np.kron([1, 1j], [0.6, 0.8]) / np.sqrt(2)) == pytest.approx(0, abs=1e-15)
    assert ref.concurrence(np.array([1, 0, 0, 1]) / np.sqrt(2)) == pytest.approx(1, abs=1e-15)


def test_region_and_perfect_entangler():
    assert ref.in_region((np.pi / 4, np.pi / 8, -np.pi / 8), 0.0)
    assert not ref.in_region((np.pi / 4 + 1e-9, 0, 0), 1e-12)
    assert not ref.in_region((0.1, 0.2, 0.0), 1e-12)
    assert ref.is_perfect_entangler(ref.NAMED["cnot"])
    assert not ref.is_perfect_entangler(ref.NAMED["swap"])
    rng = np.random.default_rng(0)
    for perfect in (True, False):
        d = ref.random_region_triple(rng, perfect)
        assert ref.in_region(d, 0.0) and ref.is_perfect_entangler(d) == perfect


@pytest.mark.parametrize("seed", range(3))
def test_checks_accept_the_truth_and_reject_a_perturbed_triple(seed):
    rng = np.random.default_rng(seed)
    d = ref.random_region_triple(rng, perfect=bool(seed % 2))
    u = ref.dress(ref.interaction_unitary(d), rng)
    c_ref, d_ref = ref.spectral_reference(u)
    assert ref.check_decomposition(u, d, c_ref, [d_ref], 1e-8)
    for k in range(3):
        wrong = d.copy()
        wrong[k] += 1e-6
        with pytest.raises(ref.Mismatch):
            ref.check_decomposition(u, wrong, c_ref, [d_ref], 1e-8)
    with pytest.raises(ref.Mismatch):
        ref.check_decomposition(u, d, c_ref + 1e-6, [d_ref], 1e-8)
    with pytest.raises(ref.Mismatch):
        ref.check_decomposition(u, d, c_ref, [d_ref + 1e-6], 1e-8)


def test_region_check_flags_a_triple_just_past_the_face():
    # The values and invariants are right, only the region inequality fails:
    # the check returns False rather than raising.
    outside = np.array([ref.PI_4 + 1e-9, 0.2, -0.1])
    u = ref.interaction_unitary(outside)
    c_ref, d_ref = ref.spectral_reference(u)
    assert not ref.check_decomposition(u, outside, c_ref, [d_ref], 1e-8)
