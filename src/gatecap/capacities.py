"""Two-pure-state classical capacities and their entangling-capacity links.

Closed forms for the first-order capacity (per-carrier decoding) and the
collective-decoding capacity of a binary pure-state source, plus the two
relations tying them to the maximum entropy of entanglement a canonical
two-qubit operator can generate from product inputs.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import _weyl_triple, canonical_unitary
from .entanglement import binary_entropy, capacities_closed_form
from .oracle import SearchConfig, max_concurrence_product, min_probe_overlap


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


def verify_relation1(d) -> CapacityRelationReport:
    """Check E_max^prod + C_1 = 1 with both terms at the same extremal pair.

    The signals psi1 = U_d (a (x) b) and psi2 = (sy (x) sy) conj(psi1) have
    overlap C(psi1), so C_1 is evaluated at the product search's value, the
    largest concurrence over product inputs; an unconstrained maximization
    of C_1 would instead saturate trivially at any zero-concurrence input.
    A triple outside the standard region raises ValueError before the
    search.
    """
    d = _weyl_triple(d)
    search = max_concurrence_product(canonical_unitary(d))
    capacity_term = c1_two_pure(search.value)
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
