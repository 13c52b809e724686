"""Entanglement measures for two-qubit pure states and closed-form capacities.

Concurrence and entropy of entanglement for pure states, the
perfect-entangler test on the interaction triple, and the closed forms for
the maximum concurrence a unitary can generate from product inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import PI_4, _as_triple, _weyl_triple, eigenphase_vector
from .linalg import SIGMA_YY, check_state


@dataclass(frozen=True)
class CapacityReport:
    """Closed-form entangling capacities of a two-qubit unitary.

    ``c_max_prod`` is the maximum output concurrence over product inputs,
    ``c_max`` its square root (the unrestricted pure-state capacity: the
    square root of the largest tangle gain C(U psi)^2 - C(psi)^2 over all
    pure inputs), and ``e_max_prod`` the corresponding maximum entropy of
    entanglement.  The plain gain max [C(U psi) - C(psi)] equals
    ``c_max_prod``, not ``c_max``.
    """

    c_max_prod: float
    c_max: float
    e_max_prod: float
    perfect_entangler: bool


def binary_entropy(x: float) -> float:
    """-x log2 x - (1-x) log2 (1-x), with 0 log 0 = 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"binary_entropy requires x in [0, 1], got {x}")
    total = 0.0
    for p in (x, 1.0 - x):
        if p > 0.0:
            total -= p * np.log2(p)
    return float(total)


def _amplitude_matrix(state: np.ndarray) -> np.ndarray:
    # |Psi> = sum_ab R[a,b] |ab>; the reduced state of A is R R^dag.
    return state.reshape(2, 2)


def concurrence(state) -> float:
    """Concurrence of a two-qubit pure state, 2 sqrt(det rho_A).

    With rho_A = R R^dag for the amplitude matrix R, det rho_A = |det R|^2,
    so the value is computed as 2 |det R|; this avoids the square root
    amplifying round-off into ~1e-8 on (near-)product states.
    """
    state = check_state(state, 4)
    r = _amplitude_matrix(state)
    return min(2.0 * float(np.abs(np.linalg.det(r))), 1.0)


def concurrence_conjugate_form(state) -> float:
    """Concurrence via the spin-flip overlap |<Psi| sy (x) sy |Psi*>|."""
    state = check_state(state, 4)
    return min(float(np.abs(state @ SIGMA_YY @ state)), 1.0)


def entropy_of_entanglement(state) -> float:
    """Von Neumann entropy (base 2) of the reduced single-qubit state."""
    state = check_state(state, 4)
    r = _amplitude_matrix(state)
    q = np.linalg.eigvalsh(r @ r.conj().T)
    total = 0.0
    for p in q:
        if p > 0.0:
            total -= p * np.log2(p)
    return float(total)


def is_perfect_entangler(d) -> bool:
    """Whether U_d maps some product state to a maximally entangled state.

    True iff ax + ay >= pi/4 and ay + |az| <= pi/4, with the boundary
    counting as satisfied.  d must lie in the region
    0 <= |az| <= ay <= ax <= pi/4 (to ``ANGLE_TOL``), where the test and
    every closed form built on it hold; a triple outside raises ValueError.
    """
    ax, ay, az = _weyl_triple(d)
    return (ax + ay >= PI_4) and (ay + abs(az) <= PI_4)


def capacities_closed_form(d) -> CapacityReport:
    """Closed-form entangling capacities of U_d.

    Perfect entanglers have capacity 1; otherwise the product capacity is
    the largest |sin| of an eigenphase difference, and the unrestricted
    capacity ``c_max`` is its square root, the square root of the largest
    tangle gain C(U psi)^2 - C(psi)^2 over pure inputs.  The largest plain
    gain C(U psi) - C(psi) equals ``c_max_prod``.

    Either sign of az is taken as it is: (sz (x) 1) U_d (sz (x) 1) is the
    adjoint of U_d with az negated, so flipping az negates the set of
    eigenphases, which leaves every |sin| of a difference, the
    perfect-entangler test and the minimum overlap unchanged.  A triple
    outside the standard region raises ValueError (see
    ``is_perfect_entangler``).
    """
    d = _as_triple(d)
    if is_perfect_entangler(d):
        return CapacityReport(c_max_prod=1.0, c_max=1.0, e_max_prod=1.0,
                              perfect_entangler=True)
    lam = eigenphase_vector(d)
    diffs = lam[:, None] - lam[None, :]
    c_prod = float(np.max(np.abs(np.sin(diffs))))
    c_prod = min(c_prod, 1.0)
    c_max = float(np.sqrt(c_prod))
    e_prod = binary_entropy((1.0 + np.sqrt(max(1.0 - c_prod * c_prod, 0.0))) / 2.0)
    return CapacityReport(c_max_prod=c_prod, c_max=c_max, e_max_prod=e_prod,
                          perfect_entangler=False)
