"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Criteria 1-3 and 5-9 are exact-identity or route-agreement properties.
Criterion 4 gates three searches against the closed forms: the product
search against c_max_prod, the unrestricted search (sqrt of the largest
tangle gain C(U psi)^2 - C(psi)^2) against c_max, and the concurrence-gain
search (largest C(U psi) - C(psi)) against c_max_prod.
"""

import numpy as np
import pytest
from numpy import kron

from gatecap.canonical import (
    canonical_unitary,
    cartan_decompose,
)
from gatecap.capacities import verify_relation1, verify_relation2
from gatecap.distinguishability import (
    d_min_canonical,
    d_min_geometric,
    verify_theorem,
    verify_theorem_quartic,
)
from gatecap.entanglement import (
    binary_entropy,
    capacities_closed_form,
    concurrence,
    concurrence_conjugate_form,
    entropy_of_entanglement,
)
from gatecap.linalg import haar_random_unitary
from gatecap.oracle import (
    max_concurrence_product,
    max_concurrence_unrestricted,
    max_delta_concurrence,
    min_probe_overlap,
)

PI_4 = np.pi / 4


def _report(criterion: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {criterion}: {'PASS' if ok else 'FAIL'} ({detail})")


def _random_weyl(rng):
    ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
    return np.array([ax, ay, rng.uniform(-ay, ay)])


def test_criterion_1_main_theorem():
    """[C_max^prod]^2 + [D_min(U_d^2)]^2 = 1 over 1000 Haar samples."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        d = cartan_decompose(haar_random_unitary(4, rng)).d
        worst = max(worst, verify_theorem(d, route="geometric").residual)
    ok = worst <= 1e-9
    _report(1, ok, f"max residual {worst:.3e}, gate 1e-09")
    assert ok


def test_criterion_2_quartic_form():
    """[C_max]^4 + [D_min]^2 = 1 over the same sampling scheme."""
    rng = np.random.default_rng(1001)
    worst = 0.0
    for _ in range(1000):
        d = cartan_decompose(haar_random_unitary(4, rng)).d
        worst = max(worst, verify_theorem_quartic(d, route="geometric").residual)
    ok = worst <= 1e-9
    _report(2, ok, f"max residual {worst:.3e}, gate 1e-09")
    assert ok


def test_criterion_3_route_agreement():
    """Closed form vs hull geometry vs direct probe search."""
    rng = np.random.default_rng(1003)
    worst_hull = 0.0
    for _ in range(1000):
        d = _random_weyl(rng)
        worst_hull = max(worst_hull,
                         abs(d_min_canonical(d) - d_min_geometric(canonical_unitary(d))))
    worst_probe = 0.0
    for _ in range(50):
        d = _random_weyl(rng)
        u_d = canonical_unitary(d)
        got = min_probe_overlap(u_d @ u_d).value
        worst_probe = max(worst_probe, abs(got - d_min_canonical(d)))
    ok = worst_hull <= 1e-10 and worst_probe <= 1e-6
    _report(3, ok, f"hull {worst_hull:.3e} gate 1e-10; probe {worst_probe:.3e} gate 1e-06")
    assert ok


def test_criterion_4_oracle_vs_closed_form():
    """Product, unrestricted and concurrence-gain searches vs the closed forms."""
    rng = np.random.default_rng(1004)
    worst_prod = 0.0
    worst_unrestricted = 0.0
    worst_delta = 0.0
    for _ in range(50):
        u = haar_random_unitary(4, rng)
        caps = capacities_closed_form(cartan_decompose(u).d)
        worst_prod = max(worst_prod, abs(max_concurrence_product(u).value - caps.c_max_prod))
        worst_unrestricted = max(worst_unrestricted,
                                 abs(max_concurrence_unrestricted(u).value - caps.c_max))
        worst_delta = max(worst_delta, abs(max_delta_concurrence(u).value - caps.c_max_prod))
    ok = worst_prod <= 1e-3 and worst_unrestricted <= 1e-2 and worst_delta <= 1e-3
    detail = (f"prod {worst_prod:.3e} gate 1e-03; unrestricted vs c_max "
              f"{worst_unrestricted:.3e} gate 1e-02; delta vs prod {worst_delta:.3e} gate 1e-03")
    _report(4, ok, detail)
    assert ok, detail


def test_criterion_5_decomposition_round_trip():
    """Reconstruction and local-unitary invariance over 1000 Haar samples."""
    rng = np.random.default_rng(1005)
    worst_residual = 0.0
    worst_invariance = 0.0
    for _ in range(1000):
        u = haar_random_unitary(4, rng)
        form = cartan_decompose(u)
        worst_residual = max(worst_residual, form.residual)
        dressed = (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
                   @ u
                   @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
        d2 = cartan_decompose(dressed).d
        worst_invariance = max(worst_invariance, float(np.max(np.abs(form.d - d2))))
    ok = worst_residual <= 1e-9 and worst_invariance <= 1e-9
    _report(5, ok, f"residual {worst_residual:.3e}; invariance {worst_invariance:.3e}; gate 1e-09")
    assert ok


def test_criterion_6_concurrence_equivalence():
    """Reduced-density and spin-flip concurrence forms over 1000 states."""
    rng = np.random.default_rng(1006)
    worst_c = 0.0
    worst_e = 0.0
    for _ in range(1000):
        psi = haar_random_unitary(4, rng)[:, 0]
        c = concurrence(psi)
        worst_c = max(worst_c, abs(c - concurrence_conjugate_form(psi)))
        want = binary_entropy((1 + np.sqrt(max(1 - c * c, 0.0))) / 2)
        worst_e = max(worst_e, abs(entropy_of_entanglement(psi) - want))
    ok = worst_c <= 1e-12 and worst_e <= 1e-10
    _report(6, ok, f"concurrence {worst_c:.3e} gate 1e-12; entropy {worst_e:.3e} gate 1e-10")
    assert ok


def test_criterion_7_mirror_reduction():
    """Flipping the sign of alpha_z preserves capacities and D_min."""
    rng = np.random.default_rng(1007)
    sz1 = kron(np.diag([1, -1]).astype(complex), np.eye(2))
    worst_matrix = 0.0
    exact = True
    for _ in range(100):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, -rng.uniform(0, ay)])
        mirrored = d * [1, 1, -1]
        exact = exact and capacities_closed_form(d) == capacities_closed_form(mirrored)
        exact = exact and d_min_canonical(d) == d_min_canonical(mirrored)
        lhs = sz1 @ canonical_unitary(d) @ sz1
        rhs = canonical_unitary(mirrored).conj().T
        worst_matrix = max(worst_matrix, float(np.max(np.abs(lhs - rhs))))
    ok = exact and worst_matrix <= 1e-12
    _report(7, ok, f"capacities exact {exact}; matrix identity {worst_matrix:.3e} gate 1e-12")
    assert ok


def test_criterion_8_capacity_relations():
    """Relations E + max C1 = 1 and E = max C_inf over 50 random triples."""
    rng = np.random.default_rng(1008)
    worst_r1 = 0.0
    worst_r2 = 0.0
    for _ in range(50):
        d = _random_weyl(rng)
        worst_r2 = max(worst_r2, verify_relation2(d).relation_residual)
        worst_r1 = max(worst_r1, verify_relation1(d).relation_residual)
    ok = worst_r1 <= 1e-3 and worst_r2 <= 1e-3
    _report(8, ok, f"relation1 {worst_r1:.3e}; relation2 {worst_r2:.3e}; gate 1e-03")
    assert ok


def test_criterion_9_spot_values():
    """Named triples reproduce the documented values."""
    caps = capacities_closed_form([np.pi / 8, 0, 0])
    checks = [
        abs(caps.c_max_prod - np.sin(PI_4)) <= 1e-9,
        abs(d_min_canonical([np.pi / 8, 0, 0]) - np.cos(PI_4)) <= 1e-9,
        abs(caps.e_max_prod - 0.6009) <= 1e-4,
    ]
    swap_caps = capacities_closed_form([PI_4, PI_4, PI_4])
    checks.append(swap_caps.c_max_prod <= 1e-12)
    checks.append(abs(d_min_canonical([PI_4, PI_4, PI_4]) - 1.0) <= 1e-12)
    cnot = np.eye(4, dtype=complex)
    cnot[2:, 2:] = [[0, 1], [1, 0]]
    form = cartan_decompose(cnot)
    checks.append(bool(np.max(np.abs(form.d - [PI_4, 0, 0])) <= 1e-9))
    checks.append(capacities_closed_form(form.d).perfect_entangler)
    ok = all(checks)
    _report(9, ok, f"{sum(checks)}/{len(checks)} spot checks")
    assert ok
