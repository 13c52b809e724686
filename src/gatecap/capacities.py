"""Two-pure-state classical capacities and their entangling-capacity links.

Closed forms for the first-order capacity (per-carrier decoding) and the
collective-decoding capacity of a binary pure-state source, plus the two
relations tying them to the maximum entropy of entanglement a canonical
two-qubit operator can generate from product inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import _as_triple, _weyl_triple, canonical_unitary
from .entanglement import binary_entropy, capacities_closed_form
from .linalg import SIGMA_YY, check_state
from .oracle import SearchConfig, max_concurrence_product, min_probe_overlap


@dataclass(frozen=True)
class SignalPair:
    """Two signal states and their recomputed overlap."""

    psi1: np.ndarray
    psi2: np.ndarray
    overlap: float


@dataclass(frozen=True)
class CapacityRelationReport:
    """Residual of one capacity relation for a given interaction triple."""

    e_max_prod: float
    capacity_term: float
    relation_residual: float
    note: str = ""


def _check_overlap(s: float) -> float:
    if not 0.0 <= s <= 1.0:
        raise ValueError(f"overlap must lie in [0, 1], got {s}")
    return float(s)


def c1_two_pure(overlap: float) -> float:
    """First-order capacity of two equiprobable pure states of given overlap.

    1 - h((1 + sqrt(1 - s^2)) / 2); decreasing in the overlap.
    """
    s = _check_overlap(overlap)
    return 1.0 - binary_entropy((1.0 + np.sqrt(max(1.0 - s * s, 0.0))) / 2.0)


def c_inf_two_pure(overlap: float) -> float:
    """Collective-decoding capacity of two equiprobable pure states.

    h((1 + s) / 2); decreasing in the overlap and never below the
    first-order capacity.
    """
    s = _check_overlap(overlap)
    return binary_entropy((1.0 + s) / 2.0)


def ensemble_entropy_two_pure(p1: float, overlap: float) -> float:
    """Von Neumann entropy of a two-pure-state ensemble.

    h((1 + sqrt((p1 - p2)^2 + 4 p1 p2 s^2)) / 2) with p2 = 1 - p1;
    maximized at p1 = 1/2, where it reproduces the collective capacity.
    """
    if not 0.0 <= p1 <= 1.0:
        raise ValueError(f"p1 must lie in [0, 1], got {p1}")
    s = _check_overlap(overlap)
    p2 = 1.0 - p1
    radius = np.sqrt((p1 - p2) ** 2 + 4.0 * p1 * p2 * s * s)
    return binary_entropy((1.0 + min(radius, 1.0)) / 2.0)


def relation1_signals(d, psi_a, psi_b) -> SignalPair:
    """Signal pair whose overlap equals the output concurrence.

    psi1 = U_d (psi_a (x) psi_b); psi2 applies the adjoint to the
    conjugated product state and spin-flips the result.  The overlap of
    the pair then equals the concurrence of psi1 by the spin-flip form.
    """
    psi_a = check_state(psi_a, 2)
    psi_b = check_state(psi_b, 2)
    u_d = canonical_unitary(_as_triple(d))
    product = np.kron(psi_a, psi_b)
    psi1 = u_d @ product
    psi2 = SIGMA_YY @ (u_d.conj().T @ np.conj(product))
    overlap = float(np.abs(np.vdot(psi1, psi2)))
    return SignalPair(psi1=psi1, psi2=psi2, overlap=overlap)


def verify_relation1(d) -> CapacityRelationReport:
    """Check E_max^prod + C_1 = 1 with both terms at the same extremal pair.

    The first-order capacity term is evaluated at the concurrence-maximizing
    product input found by the oracle, where the signal overlap equals the
    product entangling capacity; an unconstrained maximization of C_1 would
    instead saturate trivially at any zero-concurrence input.  A triple
    outside the standard region raises ValueError before the search.
    """
    d = _weyl_triple(d)
    u_d = canonical_unitary(d)
    search = max_concurrence_product(u_d)
    state = search.argmax_state
    # Split the product maximizer back into qubit factors: the reshaped
    # amplitude matrix of a product state is rank one.
    u, s, vh = np.linalg.svd(state.reshape(2, 2))
    psi_a = u[:, 0]
    psi_b = vh[0, :]
    pair = relation1_signals(d, psi_a, psi_b)
    capacity_term = c1_two_pure(min(pair.overlap, 1.0))
    e_prod = capacities_closed_form(d).e_max_prod
    return CapacityRelationReport(
        e_max_prod=e_prod,
        capacity_term=capacity_term,
        relation_residual=abs(e_prod + capacity_term - 1.0),
        note="capacity term evaluated at the concurrence-maximizing product input",
    )


def verify_relation2(d, cfg: SearchConfig = SearchConfig()) -> CapacityRelationReport:
    """Check E_max^prod = max C_inf for signals U_d^dag phi vs U_d phi.

    The collective capacity is maximized by minimizing the probe overlap
    |<phi| U_d^2 |phi>|, which the oracle solves; the maximum equals
    h((1 + minimum overlap) / 2).  A triple outside the standard region
    raises ValueError before the search.
    """
    d = _weyl_triple(d)
    u_d = canonical_unitary(d)
    search = min_probe_overlap(u_d @ u_d, cfg)
    capacity_term = c_inf_two_pure(min(search.value, 1.0))
    e_prod = capacities_closed_form(d).e_max_prod
    return CapacityRelationReport(
        e_max_prod=e_prod,
        capacity_term=capacity_term,
        relation_residual=abs(e_prod - capacity_term),
        note="collective capacity maximized via probe-overlap minimization",
    )
