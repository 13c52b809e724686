"""Canonical (Cartan) decomposition of two-qubit unitaries.

Any 4x4 unitary factors as exp(i*phi) (X_A (x) X_B) U_d (Y_A (x) Y_B),
where U_d = exp[-i(ax XX + ay YY + az ZZ)] and the interaction vector
d = (ax, ay, az) can be brought into the region

    0 <= |az| <= ay <= ax <= pi/4

by local-unitary symmetry moves.  This module builds U_d in closed form,
extracts d from an arbitrary unitary through the spectrum of M^T M in the
magic basis (Makhlin, 2002), drives d into that region by moves on the
triple alone, and reads the local factors off one match of U_d's
magic-basis spectrum.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    ANGLE_TOL,
    RECONSTRUCTION_TOL,
    DecompositionError,
    check_unitary,
    wrap_angle,
)

PI_2 = np.pi / 2
PI_4 = np.pi / 4

# Magic (Bell-type) basis: columns (|00>+|11>)/sqrt2, i(|01>+|10>)/sqrt2,
# (|01>-|10>)/sqrt2, i(|00>-|11>)/sqrt2.  In this basis the XX, YY, ZZ
# generators are simultaneously diagonal and local unitaries become real
# orthogonal matrices.
MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / np.sqrt(2)
MAGIC_DAG = MAGIC.conj().T

# The 24 orderings of a magic diagonal, and the two powers of i that a
# symmetry move can leave on it beyond signs.
_ORDERINGS = np.array(list(itertools.permutations(range(4))))
_QUARTER_TURNS = np.array([1, 1j])


@dataclass(frozen=True)
class CanonicalForm:
    """Result of the canonical decomposition of a 4x4 unitary.

    Satisfies  U = exp(i*global_phase) (x_a (x) x_b) @ U_d(d) @ (y_a (x) y_b)
    with ``d`` in the region 0 <= |az| <= ay <= ax <= pi/4.
    """

    x_a: np.ndarray
    x_b: np.ndarray
    y_a: np.ndarray
    y_b: np.ndarray
    d: np.ndarray
    global_phase: float
    residual: float

    def to_json(self) -> dict:
        from .serialization import matrix_to_json

        return {
            "d": [float(v) for v in self.d],
            "global_phase": float(self.global_phase),
            "XA": matrix_to_json(self.x_a),
            "XB": matrix_to_json(self.x_b),
            "YA": matrix_to_json(self.y_a),
            "YB": matrix_to_json(self.y_b),
            "residual": float(self.residual),
        }


def _as_triple(d) -> np.ndarray:
    d = np.asarray(d, dtype=float).ravel()
    if d.shape != (3,):
        raise ValueError(f"expected an interaction triple (ax, ay, az), got shape {d.shape}")
    if not np.all(np.isfinite(d)):
        raise ValueError("interaction triple contains non-finite values")
    return d


def in_weyl_region(d) -> bool:
    """Whether d satisfies 0 <= |az| <= ay <= ax <= pi/4 to ``ANGLE_TOL``."""
    ax, ay, az = _as_triple(d)
    return (abs(az) <= ay + ANGLE_TOL) and (ay <= ax + ANGLE_TOL) and (ax <= PI_4 + ANGLE_TOL)


def _weyl_triple(d) -> np.ndarray:
    """d as a triple, checked by ``in_weyl_region``: the closed forms hold only there.

    Raises ValueError for a triple outside the region.
    """
    d = _as_triple(d)
    if not in_weyl_region(d):
        raise ValueError(f"triple {tuple(float(v) for v in d)} lies outside the region "
                         "0 <= |az| <= ay <= ax <= pi/4")
    return d


def eigenphase_vector(d) -> np.ndarray:
    """The four canonical eigenphases (l1, l2, l3, l4) of U_d, unsorted.

    U_d has eigenvalues exp(-i*l_j) with
        l4 = ax + ay - az,  l3 = ax - ay + az,
        l2 = -ax + ay + az, l1 = -ax - ay - az.
    """
    ax, ay, az = _as_triple(d)
    return np.array([
        -ax - ay - az,
        -ax + ay + az,
        ax - ay + az,
        ax + ay - az,
    ])


def eigenphases(d) -> np.ndarray:
    """Canonical eigenphases sorted ascending; they always sum to zero."""
    return np.sort(eigenphase_vector(d))


def _magic_diagonal(d) -> np.ndarray:
    """Eigenvalues of U_d on the magic-basis columns, exp(-i(l3, l4, l1, l2))."""
    l1, l2, l3, l4 = eigenphase_vector(d)
    return np.exp(-1j * np.array([l3, l4, l1, l2]))


def canonical_unitary(d) -> np.ndarray:
    """exp[-i(ax XX + ay YY + az ZZ)] built in the magic eigenbasis."""
    return (MAGIC * _magic_diagonal(d)) @ MAGIC_DAG


def _compose(phase, x_a, x_b, d, y_a, y_b) -> np.ndarray:
    """exp(i*phase) (x_a (x) x_b) U_d (y_a (x) y_b)."""
    return np.exp(1j * phase) * np.kron(x_a, x_b) @ canonical_unitary(d) @ np.kron(y_a, y_b)


def _canonical_triple(raw) -> np.ndarray:
    """Drive an arbitrary triple into the region 0 <= |az| <= ay <= ax <= pi/4.

    The moves are pi/2 shifts of one component, swaps of two and sign flips
    of a pair; each is a local-unitary symmetry of U_d up to a phase.
    Tie-break at ax = pi/4 (within ``ANGLE_TOL``, the tolerance of
    ``in_weyl_region``): the representative with az >= 0 is chosen.
    """
    v = np.array(_as_triple(raw))
    for k in range(3):
        while v[k] <= -PI_4:
            v[k] += PI_2
        while v[k] > PI_4:
            v[k] -= PI_2
    for j, k in ((0, 1), (1, 2), (0, 1)):
        if abs(v[j]) < abs(v[k]):
            v[j], v[k] = v[k], v[j]
    if v[0] < 0:
        v[[0, 2]] *= -1
    if v[1] < 0:
        v[[1, 2]] *= -1
    if v[0] > PI_4 - ANGLE_TOL and v[2] < 0:
        v[0] -= PI_2
        v[[0, 2]] *= -1
    return v


def _kron_factor(m: np.ndarray):
    """Split a 4x4 matrix that is a phase times a tensor product.

    Rearranged so that entry ((i, j), (k, l)) is m[2i + k, 2j + l], a product
    a (x) b becomes the rank-one matrix vec(a) vec(b)^T, so its top singular
    pair holds both factors (Van Loan and Pitsianis, 1993); each is rounded
    to the nearest unitary.  Returns (g, a, b) with a, b unitary 2x2 and
    |g| = 1; m = g * kron(a, b) when m has that form, which the caller's
    reconstruction gate judges.
    """
    u, _, vh = np.linalg.svd(m.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4))
    ua, _, va = np.linalg.svd(u[:, 0].reshape(2, 2))
    ub, _, vb = np.linalg.svd(vh[0].reshape(2, 2))
    a = ua @ va
    b = ub @ vb
    g = np.vdot(np.kron(a, b).ravel(), m.ravel())
    return g / abs(g), a, b


def _magic_eigenbasis(m2: np.ndarray) -> np.ndarray:
    """Real orthogonal eigenbasis P of M^T M = P diag(exp(i theta)) P^T.

    Re(exp(-i phi) M^T M) is real symmetric with the same eigenvectors and
    eigenvalues cos(theta_k - phi); two of those tie only where phi bisects
    theta_j and theta_k modulo pi.  phi is put halfway across the widest gap
    between the six bisectors, which is at least pi/6, so every pair stays
    at least sin(pi/12) times as far apart as in M^T M, and one eigh of the
    symmetrised real part is the basis.
    """
    theta = np.angle(np.linalg.eigvals(m2))
    bisectors = np.sort(np.mod([(a + b) / 2 for a, b in itertools.combinations(theta, 2)], np.pi))
    gaps = np.diff(np.append(bisectors, bisectors[0] + np.pi))
    widest = np.argmax(gaps)
    h = (np.exp(-1j * (bisectors[widest] + gaps[widest] / 2)) * m2).real
    return np.linalg.eigh((h + h.T) / 2)[1]


def cartan_decompose(u: np.ndarray) -> CanonicalForm:
    """Canonical decomposition of a 4x4 unitary.

    The input is normalized to unit determinant (the principal fourth root
    of det(U) becomes the global phase) and transformed to the magic basis,
    M = k1 diag(a) p^T with k1, p real orthogonal and p the eigenbasis of
    M^T M from one eigh.  The triple read off a is driven into the standard
    region on its own.  The local factors then come from one match of
    spectra: the moves only reorder the magic diagonal t of U_d(d), flip its
    signs and multiply it by a power of i, so a = g s t[perm] with g in
    {1, i}, and the best of the 2 x 24 candidates gives k1 diag(s) Q and
    (p Q)^T, both real orthogonal with unit determinant, as the two local
    factors.
    Raises ``DecompositionError`` when the result does not reconstruct
    ``u`` to ``RECONSTRUCTION_TOL``.
    """
    u = check_unitary(u)

    det = np.linalg.det(u)
    phase0 = np.angle(det) / 4  # principal fourth root, phase in (-pi/4, pi/4]
    u_su = u * np.exp(-1j * phase0)

    m = MAGIC_DAG @ u_su @ MAGIC
    m2 = m.T @ m
    p = _magic_eigenbasis(m2)
    eigvals = np.einsum("ij,ik,kj->j", p, m2, p)

    mu = np.angle(eigvals) / 2
    total = float(np.sum(mu))
    if round(total / np.pi) % 2:
        mu[0] -= np.pi
    # Eigenvalues of U_d in magic column order are exp(-i(l3, l4, l1, l2)),
    # so lam[j] = -mu[j] and the pairwise sums recover the triple.
    lam = -mu
    d = _canonical_triple(np.array([lam[0] + lam[1], lam[1] + lam[3], lam[0] + lam[3]]) / 2)

    a = np.exp(1j * mu)
    k1 = np.real(m @ p @ np.diag(np.conj(a)))
    ratio = a / (_QUARTER_TURNS[:, None, None] * _magic_diagonal(d)[_ORDERINGS])
    signs = np.where(ratio.real < 0, -1.0, 1.0)
    g, k = np.unravel_index(np.argmin(np.max(np.abs(ratio - signs), axis=2)), ratio.shape[:2])
    q = np.eye(4)[_ORDERINGS[k]]
    if np.linalg.det(p) * np.linalg.det(q) < 0:
        q[:, 0] *= -1

    g1, x_a, x_b = _kron_factor(MAGIC @ (k1 * signs[g, k]) @ q @ MAGIC_DAG)
    g2, y_a, y_b = _kron_factor(MAGIC @ (p @ q).T @ MAGIC_DAG)
    phase = float(wrap_angle(phase0 + np.angle(_QUARTER_TURNS[g]) + np.angle(g1) + np.angle(g2)))

    residual = float(np.max(np.abs(_compose(phase, x_a, x_b, d, y_a, y_b) - u)))
    if not residual <= RECONSTRUCTION_TOL:
        raise DecompositionError(
            f"reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")
    return CanonicalForm(x_a=x_a, x_b=x_b, y_a=y_a, y_b=y_b,
                         d=d, global_phase=phase, residual=residual)
