"""Tests for the spectral-hull distinguishability machinery."""

import numpy as np
import pytest
from numpy import kron

from gatecap.canonical import MAGIC, MAGIC_DAG, canonical_unitary
from gatecap.capacities import verify_relation1, verify_relation2
from gatecap.distinguishability import (
    d_min_canonical,
    d_min_geometric,
    hull_min_distance,
    hull_optimal_weights,
    verify_theorem,
    verify_theorem_quartic,
)
from gatecap.entanglement import capacities_closed_form, is_perfect_entangler
from gatecap.linalg import NotUnitaryError, eig_unitary, haar_random_unitary
from test_oracle import SPECIAL_CLASSES, _near_class_gates

PI_4 = np.pi / 4


def test_hull_single_point():
    assert hull_min_distance([0, 0, 0, 0]) == 1.0


def test_hull_antipodal():
    assert hull_min_distance([0, np.pi]) == 0.0


def test_hull_chord():
    assert abs(hull_min_distance([-PI_4, PI_4]) - np.cos(PI_4)) <= 1e-12


def test_hull_rejects_empty():
    with pytest.raises(ValueError):
        hull_min_distance([])


def test_hull_optimal_weights_attain_distance():
    rng = np.random.default_rng(67)
    for _ in range(50):
        phases = rng.uniform(-np.pi, np.pi, 4)
        weights, d_min = hull_optimal_weights(phases)
        assert weights.min() >= 0
        assert abs(weights.sum() - 1) <= 1e-12
        attained = np.abs(np.sum(weights * np.exp(1j * phases)))
        assert abs(attained - d_min) <= 1e-9


# p0 and the last point q = fl(p0 + pi) close a seam gap that rounds to just
# below pi, although q is not past p0's antipode: a triangle built from the
# points either side of that antipode would take p0 twice.
_P0 = 0.1
_NEAR_ANTIPODE = _P0 + np.pi


@pytest.mark.parametrize("phases", [
    pytest.param([0.7, 0.7, 0.7, 0.7], id="one-repeated-point"),
    pytest.param([0.3, 0.3, 2.0, 2.0], id="duplicates-outside"),
    pytest.param([0.0, 0.0, 2.0, 4.0, 4.0], id="duplicates-inside"),
    pytest.param([0.0, np.pi], id="antipodal-pair"),
    pytest.param([0.0, np.pi, 2.0, 4.5], id="antipodal-pair-on-triangle-edge"),
    pytest.param([-np.pi / 2, np.pi / 2, np.pi], id="largest-gap-exactly-pi"),
    pytest.param([0.0, np.pi / 2, np.pi, 3 * np.pi / 2], id="square"),
    pytest.param([-1e-12, 1e-12, 3e-12], id="scaled-1e-12"),
    pytest.param([1e-12, 2e-12, 1e-12 + np.pi], id="scaled-1e-12-with-antipode"),
    pytest.param([_P0, 1.5, _NEAR_ANTIPODE], id="seam-gap-just-below-pi"),
])
def test_hull_optimal_weights_edge_cases(phases):
    if phases[0] == _P0:
        assert (_P0 + 2 * np.pi) - _NEAR_ANTIPODE < np.pi
        assert _NEAR_ANTIPODE - _P0 <= np.pi
    phases = np.array(phases)
    weights, d_min = hull_optimal_weights(phases)
    assert d_min == hull_min_distance(phases)
    assert weights.min() >= 0
    assert abs(weights.sum() - 1) <= 1e-12
    assert abs(np.abs(np.sum(weights * np.exp(1j * phases))) - d_min) <= 1e-12


def test_hull_optimal_weights_seeded_corpus():
    # Sets of 1-5 phases with exact duplicates, antipodes and near-antipodes.
    rng = np.random.default_rng(89)
    for _ in range(500):
        phases = list(rng.uniform(-np.pi, np.pi, rng.integers(1, 4)))
        for _ in range(rng.integers(0, 3)):
            base = phases[rng.integers(len(phases))]
            phases.append(base + rng.choice([0.0, np.pi, np.pi + rng.uniform(-1e-9, 1e-9)]))
        phases = np.array(phases[:5])
        weights, d_min = hull_optimal_weights(phases)
        assert weights.min() >= 0
        assert abs(weights.sum() - 1) <= 1e-12
        assert abs(np.abs(np.sum(weights * np.exp(1j * phases))) - d_min) <= 1e-12


def test_d_min_canonical_cases():
    assert d_min_canonical([PI_4, 0, 0]) == 0.0
    assert abs(d_min_canonical([np.pi / 8, 0, 0]) - np.cos(PI_4)) <= 1e-12
    assert abs(d_min_canonical([PI_4, PI_4, PI_4]) - 1.0) <= 1e-12


def test_d_min_closed_matches_geometry():
    rng = np.random.default_rng(71)
    for _ in range(200):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, rng.uniform(-ay, ay)])
        assert abs(d_min_canonical(d) - d_min_geometric(canonical_unitary(d))) <= 1e-10


def test_d_min_geometric_reads_a_dressed_gate():
    # Local factors and a global phase leave the spectrum of S U^T S U, up to
    # a rotation, and so the hull distance unchanged.
    rng = np.random.default_rng(89)
    for _ in range(100):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, rng.uniform(-ay, ay)])
        u = (np.exp(1j * rng.uniform(-np.pi, np.pi))
             * kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
             @ canonical_unitary(d)
             @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
        assert abs(d_min_canonical(d) - d_min_geometric(u)) <= 1e-10


def _magic_basis_reference(u):
    """D_min and the Makhlin invariants G1, G2 of u from M^T M, M = u in the
    magic basis: a route to both that does not form S U^T S U."""
    m = MAGIC_DAG @ u @ MAGIC
    mm = m.T @ m
    tr = np.trace(mm)
    det = np.linalg.det(u)
    g = np.array([tr * tr / (16 * det), (tr * tr - np.trace(mm @ mm)) / (4 * det)])
    return hull_min_distance(np.angle(np.linalg.eigvals(mm))), g


def test_spin_flipped_square_reads_what_the_magic_basis_reads():
    # MAGIC MAGIC^T = -S, so M^T M is similar to S U^T S U and has the same
    # traces; the two routes differ by round-off alone.
    from gatecap.cli import _makhlin_invariants

    rng = np.random.default_rng(7)
    gates = [haar_random_unitary(4, rng) for _ in range(300)]
    gates += [u for name in sorted(SPECIAL_CLASSES) for _, _, u in _near_class_gates(name)]
    for k, u in enumerate(gates):
        d_min, g = _magic_basis_reference(u)
        assert abs(d_min_geometric(u) - d_min) <= 1e-14, k
        assert np.max(np.abs(_makhlin_invariants(u) - g)) <= 1e-14, k


def test_d_min_geometric_rejects_a_complex_orthogonal_non_unitary():
    # M = cosh(t) I + sinh(t) Y on one block has M^T M = I, the spectrum of
    # the identity, yet the gate it stands for is not unitary.
    c, s = np.cosh(1.0), np.sinh(1.0)
    m = np.eye(4, dtype=complex)
    m[:2, :2] = [[c, 1j * s], [-1j * s, c]]
    assert np.max(np.abs(m.T @ m - np.eye(4))) <= 1e-12
    with pytest.raises(NotUnitaryError):
        d_min_geometric(MAGIC @ m @ MAGIC_DAG)


def test_verify_theorem_examples():
    assert verify_theorem([0, 0, 0]).residual <= 1e-12
    assert verify_theorem([np.pi / 8, 0, 0]).residual <= 1e-12
    assert verify_theorem([np.pi / 8, 0, 0], route="geometric").residual <= 1e-12


def test_verify_theorem_quartic():
    assert verify_theorem_quartic([np.pi / 8, 0, 0]).residual <= 1e-12
    assert verify_theorem_quartic([0.2, 0.1, -0.05], route="geometric").residual <= 1e-9


@pytest.mark.parametrize("check", [verify_theorem, verify_theorem_quartic])
def test_verify_theorem_unknown_route(check):
    with pytest.raises(ValueError):
        check([0, 0, 0], route="mystery")


# Every function that reads an interaction triple through the closed forms,
# the relations included.
_READERS_OF_D = {
    "is_perfect_entangler": is_perfect_entangler,
    "capacities_closed_form": capacities_closed_form,
    "d_min_canonical": d_min_canonical,
    "verify_theorem_closed": verify_theorem,
    "verify_theorem_geometric": lambda d: verify_theorem(d, route="geometric"),
    "verify_theorem_quartic_closed": verify_theorem_quartic,
    "verify_theorem_quartic_geometric": lambda d: verify_theorem_quartic(d, route="geometric"),
    "verify_relation1": verify_relation1,
    "verify_relation2": verify_relation2,
}


@pytest.mark.parametrize("reader", sorted(_READERS_OF_D))
@pytest.mark.parametrize("d", [(PI_4 + 0.2, 0, 0), (0.3, 0.2, -0.25), (0, 0, PI_4)],
                         ids=["ax_beyond_pi_4", "az_beyond_ay", "az_only"])
def test_closed_forms_reject_a_triple_outside_the_region(reader, d):
    # Outside 0 <= |az| <= ay <= ax <= pi/4 the closed forms read a triple
    # wrongly: (pi/4 + 0.2, 0, 0) passed as a perfect entangler with D_min 0,
    # where U_d's own D_min is 0.389 and its product capacity 0.921.
    with pytest.raises(ValueError, match="outside the region"):
        _READERS_OF_D[reader](d)


@pytest.mark.parametrize("reader", sorted(_READERS_OF_D))
def test_closed_forms_accept_a_triple_just_outside_the_region(reader):
    # The faces hold to ANGLE_TOL (1e-12): 1e-13 beyond ax = pi/4 and beyond
    # ay = |az| is read as on them.
    _READERS_OF_D[reader]((PI_4 + 1e-13, 0.2, -0.2 - 1e-13))


def test_perfect_entangler_iff_zero_distance():
    rng = np.random.default_rng(73)
    for _ in range(200):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, rng.uniform(0, ay)])
        assert is_perfect_entangler(d) == (d_min_canonical(d) <= 1e-10)


def test_unit_distance_implies_degenerate_square():
    d = [PI_4, PI_4, PI_4]
    assert d_min_canonical(d) == 1.0
    u_d = canonical_unitary(d)
    phases = eig_unitary(u_d @ u_d)
    assert np.max(phases) - np.min(phases) <= 1e-8


def test_mirror_symmetry_of_d_min():
    rng = np.random.default_rng(79)
    for _ in range(50):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        az = rng.uniform(0, ay)
        assert d_min_canonical([ax, ay, -az]) == d_min_canonical([ax, ay, az])


def test_theorem_on_haar_samples():
    from gatecap.canonical import cartan_decompose

    rng = np.random.default_rng(83)
    for _ in range(100):
        form = cartan_decompose(haar_random_unitary(4, rng))
        assert verify_theorem(form.d, route="geometric").residual <= 1e-9
