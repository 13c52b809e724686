"""Tests for the canonical (Cartan) decomposition and Weyl reduction."""

import numpy as np
import pytest
from numpy import kron

from gatecap.canonical import (
    _canonical_triple,
    _kron_factor,
    canonical_unitary,
    cartan_decompose,
    eigenphase_vector,
    eigenphases,
    in_weyl_region,
)
from gatecap.distinguishability import d_min_geometric
from gatecap.linalg import (
    I2,
    PAULI_Z,
    PAULIS,
    UNITARITY_TOL,
    NotUnitaryError,
    eig_unitary,
    haar_random_unitary,
    unitarity_defect,
)

PI_4 = np.pi / 4


def _cnot():
    m = np.eye(4, dtype=complex)
    m[2:, 2:] = [[0, 1], [1, 0]]
    return m


def _swap():
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[3, 3] = m[1, 2] = m[2, 1] = 1
    return m


def test_canonical_unitary_identity():
    assert np.allclose(canonical_unitary([0, 0, 0]), np.eye(4))


def test_canonical_unitary_swap_phase():
    u = canonical_unitary([PI_4, PI_4, PI_4])
    assert np.max(np.abs(u - np.exp(-1j * PI_4) * _swap())) <= 1e-12


def test_canonical_unitary_is_unitary():
    assert unitarity_defect(canonical_unitary([0.3, 0.2, -0.1])) <= 1e-12


def test_eigenphase_formulas():
    assert np.allclose(eigenphases([0, 0, 0]), 0.0)
    assert np.allclose(eigenphases([np.pi / 8, 0, 0]),
                       [-np.pi / 8, -np.pi / 8, np.pi / 8, np.pi / 8])
    assert np.allclose(eigenphases([PI_4, PI_4, PI_4]),
                       [-3 * PI_4, PI_4, PI_4, PI_4])


def test_eigenphases_sum_to_zero():
    rng = np.random.default_rng(2)
    for _ in range(20):
        d = rng.uniform(-PI_4, PI_4, 3)
        assert abs(np.sum(eigenphase_vector(d))) <= 1e-12


def test_eigenphases_match_matrix_spectrum():
    rng = np.random.default_rng(8)
    for _ in range(50):
        d = np.sort(rng.uniform(0, PI_4, 3))[::-1]
        got = eig_unitary(canonical_unitary(d))
        want = np.sort(np.angle(np.exp(-1j * eigenphase_vector(d))))
        assert np.max(np.abs(got - want)) <= 1e-10


def test_decompose_identity():
    form = cartan_decompose(np.eye(4, dtype=complex))
    assert np.max(np.abs(form.d)) <= 1e-10
    assert form.residual <= 1e-9


def test_decompose_cnot():
    form = cartan_decompose(_cnot())
    assert np.allclose(form.d, [PI_4, 0, 0], atol=1e-9)
    assert form.residual <= 1e-9


def test_decompose_swap():
    form = cartan_decompose(_swap())
    assert np.allclose(form.d, [PI_4, PI_4, PI_4], atol=1e-9)


def test_round_trip_weyl_vectors():
    rng = np.random.default_rng(17)
    for _ in range(50):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        az = rng.uniform(-ay, ay)
        d = np.array([ax, ay, az])
        form = cartan_decompose(canonical_unitary(d))
        assert np.allclose(np.abs(form.d), np.abs(d), atol=1e-10)
        assert form.residual <= 1e-9


def test_round_trip_haar():
    rng = np.random.default_rng(23)
    for _ in range(100):
        u = haar_random_unitary(4, rng)
        form = cartan_decompose(u)
        assert form.residual <= 1e-9
        assert in_weyl_region(form.d)
        for local in (form.x_a, form.x_b, form.y_a, form.y_b):
            assert unitarity_defect(local) <= 1e-10


def test_local_invariance():
    rng = np.random.default_rng(29)
    d = np.array([np.pi / 8, np.pi / 16, 0])
    base = canonical_unitary(d)
    for _ in range(20):
        locals_ = [haar_random_unitary(2, rng) for _ in range(4)]
        dressed = kron(locals_[0], locals_[1]) @ base @ kron(locals_[2], locals_[3])
        form = cartan_decompose(dressed)
        assert np.max(np.abs(form.d - d)) <= 1e-9


def _dress(d, rng):
    return (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
            @ canonical_unitary(d)
            @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))


# Magic basis, written out here so the invariants below do not depend on the
# module's constant.
_MAGIC = np.array([[1, 0, 0, 1j], [0, 1j, 1, 0], [0, 1j, -1, 0], [1, 0, 0, -1j]]) / np.sqrt(2)


def _makhlin_invariants(u):
    """Local invariants G1, G2 of a 4x4 unitary from its magic-basis M^T M."""
    m = _MAGIC.conj().T @ u @ _MAGIC
    mm = m.T @ m
    det = np.linalg.det(u)
    tr = np.trace(mm)
    return tr * tr / (16 * det), (tr * tr - np.trace(mm @ mm)) / (4 * det)


DEGENERATE_CLASSES = {
    "identity": [0, 0, 0],
    "cnot": [PI_4, 0, 0],
    "b": [PI_4, np.pi / 8, 0],
    "controlled_sqrt_x": [np.pi / 8, 0, 0],
    "swap": [PI_4, PI_4, PI_4],
    "sqrt_swap": [np.pi / 8, np.pi / 8, np.pi / 8],
    "iswap": [PI_4, PI_4, 0],
    "sqrt_swap_dag": [np.pi / 8, np.pi / 8, -np.pi / 8],
}


@pytest.mark.parametrize("name", sorted(DEGENERATE_CLASSES))
def test_decompose_near_degenerate_classes(name):
    rng = np.random.default_rng(401)
    for eps in (0.0, 1e-14, 1e-12, 1e-10, 1e-9, 1e-8, 1e-7, 1e-6, 1e-5, 1e-4):
        for _ in range(8):
            d = np.array(DEGENERATE_CLASSES[name]) + eps * rng.uniform(-1, 1, 3)
            u = _dress(d, rng)
            form = cartan_decompose(u)
            d_min_geometric(u)
            assert form.residual <= 1e-9, (name, eps)
            assert in_weyl_region(form.d), (name, eps, form.d)
            g_in = _makhlin_invariants(u)
            g_out = _makhlin_invariants(canonical_unitary(form.d))
            assert max(abs(g_in[0] - g_out[0]), abs(g_in[1] - g_out[1])) <= 1e-12, (name, eps)


@pytest.mark.parametrize("delta", [1e-12, 1e-11, 1e-10])
def test_decompose_every_input_the_unitarity_gate_accepts(delta):
    # Haar gates and dressed named classes, each entry moved by at most
    # delta / 2.  M^T M is then unitary and symmetric only to about the
    # defect, and its own defect can exceed the input's by a few times; the
    # decomposition and the geometric D_min must still succeed, the first
    # with an error of the defect's order, and the eigenphases may move by
    # no more.
    rng = np.random.default_rng(12)
    gates = [haar_random_unitary(4, rng) for _ in range(300)]
    gates += [_dress(d, rng) for d in DEGENERATE_CLASSES.values() for _ in range(10)]
    for u in gates:
        e = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        v = u + e * (delta / 2) / np.max(np.abs(e))
        if unitarity_defect(v) > UNITARITY_TOL:
            with pytest.raises(NotUnitaryError):
                cartan_decompose(v)
            continue
        form = cartan_decompose(v)
        d_min_geometric(v)
        assert form.residual <= 10 * delta, (delta, form.residual)
        # Sorted phases match by a cyclic shift, as points on the circle.
        z_u, z_v = np.exp(1j * eig_unitary(u)), np.exp(1j * eig_unitary(v))
        assert min(np.max(np.abs(np.roll(z_v, k) - z_u)) for k in range(4)) <= 10 * delta


def _near_face(face, eps, rng):
    """A triple within eps of one face of the region, or of the
    perfect-entangler face ax + ay = pi/4 from either side."""
    ax, ay = rng.uniform(0.45, 0.7), rng.uniform(0.1, 0.4)
    if face == "ax=ay":
        ay = ax - eps
    elif face == "ax=pi/4":
        ax = PI_4 - eps
    elif face == "ax+ay=pi/4":
        ay = PI_4 - ax + eps * rng.choice([-1, 1])
    az = rng.uniform(-ay, ay)
    if face == "ay=|az|":
        az = rng.choice([-1, 1]) * (ay - eps)
    return np.array([ax, ay, az])


def test_decompose_clean_gates_to_round_off():
    # Exactly unitary inputs rebuild to a few ulps: Haar draws, and dressed
    # gates just off the faces, where two eigenphases of M^T M nearly meet.
    rng = np.random.default_rng(7)
    gates = [haar_random_unitary(4, rng) for _ in range(300)]
    rng = np.random.default_rng(47)
    for face in ("ax=ay", "ay=|az|", "ax=pi/4", "ax+ay=pi/4"):
        for eps in (1e-14, 1e-12, 1e-10, 1e-8, 1e-6, 1e-4):
            gates += [_dress(_near_face(face, eps, rng), rng) for _ in range(10)]
    for u in gates:
        assert cartan_decompose(u).residual <= 5e-15


def test_decompose_face_tie_break():
    # Just below the ax = pi/4 face the triple is its own representative,
    # az < 0 included; on the face the representative with az >= 0 is chosen.
    rng = np.random.default_rng(43)
    for _ in range(20):
        ay = rng.uniform(0.1, 0.7)
        az = rng.uniform(0, ay)
        below = np.array([PI_4 - 5e-10, ay, -az])
        form = cartan_decompose(_dress(below, rng))
        assert in_weyl_region(form.d), form.d
        assert np.max(np.abs(form.d - below)) <= 1e-10
        form = cartan_decompose(_dress([PI_4, ay, -az], rng))
        assert in_weyl_region(form.d), form.d
        assert np.max(np.abs(form.d - [PI_4, ay, az])) <= 1e-10


def _reduced(raw):
    """The standard-region triple that the decomposition finds for U_d(raw)."""
    return cartan_decompose(canonical_unitary(raw)).d


def test_reduce_to_weyl_examples():
    # (raw, representative); together the triples take every branch of the
    # reduction, both on the triple alone and through the decomposition.
    pi_2, pi_8 = np.pi / 2, np.pi / 8
    examples = [
        ([pi_8, PI_4, 0], [PI_4, pi_8, 0]),
        ([PI_4 + pi_2, 0, 0], [PI_4, 0, 0]),
        ([pi_8, pi_8, -np.pi / 16], [pi_8, pi_8, -np.pi / 16]),
        # shifts down from beyond pi/4 and 3pi/4, up from beyond -pi/4 and -3pi/4
        ([0.3 - np.pi, 0.2 + np.pi, 0.1], [0.3, 0.2, 0.1]),
        ([0.3, 0.2 + pi_2, 0.1 - pi_2], [0.3, 0.2, 0.1]),
        # each of the three conditional swaps
        ([0.1, 0.2 - pi_2, 0.3 + pi_2], [0.3, 0.2, 0.1]),
        ([0.2, 0.3, 0.1], [0.3, 0.2, 0.1]),
        ([0.3, 0.1, 0.2], [0.3, 0.2, 0.1]),
        # each pair negation, and both
        ([-0.3, 0.2, 0.1], [0.3, 0.2, -0.1]),
        ([0.3, -0.2, 0.1], [0.3, 0.2, -0.1]),
        ([-0.3, -0.2, 0.1], [0.3, 0.2, 0.1]),
        # components exactly at -pi/4 and pi/4
        ([-PI_4, 0.2, 0.1], [PI_4, 0.2, 0.1]),
        ([0.2, PI_4, -PI_4], [PI_4, PI_4, 0.2]),
        # exact ties |v_j| = |v_k|
        ([0.3, -0.3, 0.1], [0.3, 0.3, -0.1]),
        ([-0.2, 0.2, 0.2], [0.2, 0.2, -0.2]),
        ([0.1, -0.3, 0.3], [0.3, 0.3, -0.1]),
        # the tie-break on the ax = pi/4 face with az < 0
        ([PI_4, 0.3, -0.2], [PI_4, 0.3, 0.2]),
        ([-PI_4, 0.3, -0.2], [PI_4, 0.3, 0.2]),
    ]
    for raw, want in examples:
        assert np.allclose(_canonical_triple(raw), want, atol=1e-12), raw
        assert np.allclose(_reduced(raw), want, atol=1e-12), raw


def test_reduce_to_weyl_preserves_sin_multiset():
    rng = np.random.default_rng(31)
    for _ in range(100):
        raw = rng.uniform(-np.pi, np.pi, 3)
        d = _reduced(raw)
        assert in_weyl_region(d)
        got = np.sort(np.abs(np.sin(
            eigenphase_vector(d)[:, None] - eigenphase_vector(d)[None, :])).ravel())
        want = np.sort(np.abs(np.sin(
            eigenphase_vector(raw)[:, None] - eigenphase_vector(raw)[None, :])).ravel())
        assert np.max(np.abs(got - want)) <= 1e-10


def test_mirror_identity():
    d = np.array([np.pi / 8, np.pi / 8, -np.pi / 16])
    mirrored = d * [1, 1, -1]
    sz1 = kron(PAULI_Z, np.eye(2))
    lhs = sz1 @ canonical_unitary(d) @ sz1
    rhs = canonical_unitary(mirrored).conj().T
    assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_kron_factor_round_trip():
    # Factors with zero entries (Paulis, a Hadamard, diagonal phases), which
    # a split that pivots on one entry of m must work round, and Haar factors.
    rng = np.random.default_rng(37)
    hadamard = np.array([[1, 1], [1, -1]]) / np.sqrt(2)
    phases = np.diag([1, np.exp(0.7j)])
    pairs = [(p, q) for p in (I2, *PAULIS) for q in (I2, *PAULIS)]
    pairs += [(hadamard, hadamard), (phases, hadamard), (phases, phases), (PAULIS[0], hadamard)]
    pairs += [(haar_random_unitary(2, rng), haar_random_unitary(2, rng)) for _ in range(20)]
    for a, b in pairs:
        m = np.exp(1j * rng.uniform(-np.pi, np.pi)) * kron(a, b)
        fa, fb = _kron_factor(m)
        assert unitarity_defect(fa) <= 1e-14 and unitarity_defect(fb) <= 1e-14
        g = np.vdot(kron(fa, fb), m)
        g /= abs(g)
        assert abs(abs(g) - 1) <= 1e-15
        assert np.max(np.abs(g * kron(fa, fb) - m)) <= 1e-14


def test_decompose_rejects_non_unitary():
    with pytest.raises(ValueError):
        cartan_decompose(np.ones((4, 4), dtype=complex))
