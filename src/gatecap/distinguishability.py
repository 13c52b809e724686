"""Distinguishability of unitary pairs via the spectral convex hull.

The minimum overlap min_phi |<phi| S^dag T |phi>| equals the distance from
the origin to the convex hull of the eigenvalues of V = S^dag T.  For the
canonical operator this distance has closed forms in the interaction
triple, and together with the closed-form capacities it satisfies

    (product capacity)^2 + (minimum overlap of U_d vs U_d^dag)^2 = 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .canonical import _as_triple, canonical_unitary
from .entanglement import CapacityReport, capacities_closed_form, is_perfect_entangler
from .linalg import ANGLE_TOL, check_unitary, spin_flipped_square


@dataclass(frozen=True)
class TheoremResidual:
    """One evaluation of the capacity-distinguishability identity."""

    c_prod_sq: float
    d_min_sq: float
    residual: float
    route: str


def _largest_gap(phases):
    """Sort phases on [0, 2pi); return (order, wrapped, gaps, k).

    ``wrapped = phases mod 2pi`` in ascending order, ``gaps[k]`` runs from
    ``wrapped[k]`` to the next point (the last gap across the seam back to
    ``wrapped[0]``), and ``k`` indexes the largest gap.
    """
    phases = np.asarray(phases, dtype=float).ravel()
    if phases.size == 0:
        raise ValueError("the hull requires at least one phase")
    if not np.all(np.isfinite(phases)):
        raise ValueError("phases contain non-finite values")
    wrapped = np.mod(phases, 2 * np.pi)
    order = np.argsort(wrapped)
    wrapped = wrapped[order]
    gaps = np.diff(np.append(wrapped, wrapped[0] + 2 * np.pi))
    return order, wrapped, gaps, int(np.argmax(gaps))


def hull_min_distance(phases) -> float:
    """Distance from the origin to the convex hull of points exp(i*theta).

    The origin lies inside the hull iff no circular gap between consecutive
    points exceeds pi; otherwise the nearest hull feature is the chord
    closing the largest gap, at distance -cos(gap/2).
    """
    _, _, gaps, k = _largest_gap(phases)
    if gaps[k] <= np.pi + ANGLE_TOL:
        return 0.0
    return float(-np.cos(gaps[k] / 2))


def hull_optimal_weights(phases):
    """A probability vector over the given phases attaining the hull minimum.

    Returns ``(weights, d_min)`` with |sum_j w_j exp(i theta_j)| = d_min.
    Within ``ANGLE_TOL`` of a largest gap of pi the chord midpoint is
    used, which lies that close to the origin.
    """
    order, wrapped, gaps, k = _largest_gap(phases)
    d_min = hull_min_distance(phases)
    weights = np.zeros(order.size)
    if gaps[k] >= np.pi - ANGLE_TOL:
        # Midpoint of the chord closing the largest gap (for a single
        # repeated point both ends are the same point).
        weights[order[k]] += 0.5
        weights[order[(k + 1) % order.size]] += 0.5
        return weights, d_min
    # Every gap is shorter than pi by the margin above, so the antipode of
    # the first point lies strictly between two later points j and j + 1,
    # and those three points span a triangle containing the origin.
    j = int(np.searchsorted(wrapped - wrapped[0], np.pi, side="right")) - 1
    corners = order[[0, j, j + 1]]
    theta = wrapped[[0, j, j + 1]]
    a = np.vstack([np.cos(theta), np.sin(theta), np.ones(3)])
    w = np.clip(np.linalg.solve(a, [0.0, 0.0, 1.0]), 0.0, None)
    weights[corners] = w / w.sum()
    return weights, d_min


def d_min_canonical(d) -> float:
    """Closed-form minimum overlap between U_d and its adjoint.

    Zero for perfect entanglers; otherwise cos(2(ax+ay)) when the first
    perfect-entangler inequality fails and -cos(2(ay+|az|)) when the second
    does.  A triple outside the standard region raises ValueError (see
    ``is_perfect_entangler``).
    """
    ax, ay, az = _as_triple(d)
    if is_perfect_entangler((ax, ay, az)):
        return 0.0
    if ax + ay < np.pi / 4:
        return float(np.cos(2 * (ax + ay)))
    return float(-np.cos(2 * (ay + abs(az))))


def d_min_geometric(u) -> float:
    """Minimum overlap of U_d vs its adjoint, read from a gate U ~ U_d.

    S U^T S U (``spin_flipped_square``) has the spectrum of U_d^2 up to a
    global phase, which only rotates the hull, so no decomposition of U is
    needed.  ``u`` is checked first: a non-unitary U can give a unitary
    S U^T S U.  That product is not checked again: its defect can exceed
    that of ``u`` by a few times.
    """
    sg = spin_flipped_square(check_unitary(u))
    return hull_min_distance(np.angle(np.linalg.eigvals(sg)))


def _d_min(d, route: str) -> float:
    if route == "closed":
        return d_min_canonical(d)
    if route == "geometric":
        return d_min_geometric(canonical_unitary(d))
    raise ValueError(f"unknown route {route!r}; expected 'closed' or 'geometric'")


def _residual(caps: CapacityReport, d_min: float, route: str,
              quartic: bool = False) -> TheoremResidual:
    """The identity's residual from closed-form capacities and one D_min.

    Quadratic: c_max_prod^2 + D_min^2 = 1; quartic: c_max^4 + D_min^2 = 1.
    """
    c_term = caps.c_max ** 4 if quartic else caps.c_max_prod * caps.c_max_prod
    d_sq = d_min * d_min
    return TheoremResidual(c_prod_sq=c_term, d_min_sq=d_sq,
                           residual=abs(c_term + d_sq - 1.0), route=route)


def verify_theorem(d, route: str = "closed") -> TheoremResidual:
    """Check (product capacity)^2 + (minimum overlap)^2 = 1 for one triple.

    ``route`` selects how the minimum overlap is computed: "closed" uses the
    closed form in the triple, "geometric" the convex hull of the actual
    spectrum of U_d squared.  A triple outside the standard region raises
    ValueError on both routes.
    """
    return _residual(capacities_closed_form(d), _d_min(d, route), route)


def verify_theorem_quartic(d, route: str = "closed") -> TheoremResidual:
    """Check (unrestricted capacity)^4 + (minimum overlap)^2 = 1."""
    return _residual(capacities_closed_form(d), _d_min(d, route), route, quartic=True)
