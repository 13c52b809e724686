"""Canonical (Cartan) decomposition of two-qubit unitaries.

Any 4x4 unitary factors as exp(i*phi) (X_A (x) X_B) U_d (Y_A (x) Y_B),
where U_d = exp[-i(ax XX + ay YY + az ZZ)] and the interaction vector
d = (ax, ay, az) can be brought into the region

    0 <= |az| <= ay <= ax <= pi/4

by local-unitary symmetry moves.  This module builds U_d in closed form,
extracts d and the local factors from an arbitrary unitary, and provides
the sign-mirror for negative az.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    ANGLE_TOL,
    I2,
    PAULIS,
    RECONSTRUCTION_TOL,
    DecompositionError,
    check_unitary,
    dagger,
    simultaneous_diagonalize,
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

# pi/2 rotations about each axis; conjugating both qubits by the axis-k
# rotation swaps the interaction strengths of the other two axes.
_AXIS_SWAPPERS = tuple(
    np.cos(PI_4) * I2 - 1j * np.sin(PI_4) * sigma for sigma in PAULIS
)


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

    def reconstruct(self) -> np.ndarray:
        return _compose(self.global_phase, self.x_a, self.x_b, self.d, self.y_a, self.y_b)

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


def canonical_unitary(d) -> np.ndarray:
    """exp[-i(ax XX + ay YY + az ZZ)] built in the magic eigenbasis."""
    l1, l2, l3, l4 = eigenphase_vector(d)
    # Magic-basis columns diagonalize the generator with eigenvalues
    # (l3, l4, l1, l2) in column order.
    diag = np.exp(-1j * np.array([l3, l4, l1, l2]))
    return (MAGIC * diag) @ MAGIC_DAG


def _compose(phase, x_a, x_b, d, y_a, y_b) -> np.ndarray:
    """exp(i*phase) (x_a (x) x_b) U_d (y_a (x) y_b)."""
    return np.exp(1j * phase) * np.kron(x_a, x_b) @ canonical_unitary(d) @ np.kron(y_a, y_b)


def mirror_negative_alpha_z(d) -> np.ndarray:
    """Flip the sign of a negative az component.

    (sz (x) 1) U_d (sz (x) 1) equals the adjoint of the mirrored operator,
    so capacities and minimum-overlap quantities are unchanged.  A no-op for
    az >= 0.
    """
    ax, ay, az = _as_triple(d)
    if az >= 0:
        return np.array([ax, ay, az])
    return np.array([ax, ay, -az])


class _TrackedVector:
    """Interaction triple together with the local fixups of each symmetry move.

    Maintains the invariant
        U_d(raw) = exp(i*phase) (la (x) lb) U_d(v) (ra (x) rb).
    """

    def __init__(self, raw: np.ndarray):
        self.v = np.array(raw, dtype=float)
        self.phase = 0.0
        self.la = I2.copy()
        self.lb = I2.copy()
        self.ra = I2.copy()
        self.rb = I2.copy()

    def shift(self, k: int, step: int) -> None:
        # U_d(v + n*pi/2 e_k) differs from U_d(v) by i^n (s_k (x) s_k) and a phase.
        self.v[k] += step * PI_2
        self.phase += step * PI_2
        if step % 2:
            sigma = PAULIS[k]
            self.ra = sigma @ self.ra
            self.rb = sigma @ self.rb

    def negate(self, j: int, k: int) -> None:
        # Conjugating qubit A by the third-axis Pauli negates components j and k.
        sigma = PAULIS[3 - j - k]
        self.v[j] *= -1
        self.v[k] *= -1
        self.la = self.la @ sigma
        self.ra = sigma @ self.ra

    def swap(self, j: int, k: int) -> None:
        # Conjugating both qubits by the third-axis pi/2 rotation swaps j and k.
        r = _AXIS_SWAPPERS[3 - j - k]
        rd = dagger(r)
        self.v[j], self.v[k] = self.v[k], self.v[j]
        self.la = self.la @ r
        self.lb = self.lb @ r
        self.ra = rd @ self.ra
        self.rb = rd @ self.rb

    def shift_into_band(self, k: int) -> None:
        # Bring v[k] into (-pi/4, pi/4].
        while self.v[k] <= -PI_4:
            self.shift(k, +1)
        while self.v[k] > PI_4:
            self.shift(k, -1)

    def sort_descending_abs(self) -> None:
        if abs(self.v[0]) < abs(self.v[1]):
            self.swap(0, 1)
        if abs(self.v[1]) < abs(self.v[2]):
            self.swap(1, 2)
        if abs(self.v[0]) < abs(self.v[1]):
            self.swap(0, 1)


def _canonicalize_vector(raw) -> _TrackedVector:
    """Drive an arbitrary triple into the region 0 <= |az| <= ay <= ax <= pi/4.

    Tie-break at ax = pi/4 (within ``ANGLE_TOL``, the tolerance of
    ``in_weyl_region``): the representative with az >= 0 is chosen.
    """
    t = _TrackedVector(_as_triple(raw))
    for k in range(3):
        t.shift_into_band(k)
    t.sort_descending_abs()
    if t.v[0] < 0:
        t.negate(0, 2)
    if t.v[1] < 0:
        t.negate(1, 2)
    t.shift_into_band(2)
    if t.v[0] > PI_4 - ANGLE_TOL and t.v[2] < 0:
        t.shift(0, -1)
        t.negate(0, 2)
    t.phase = wrap_angle(t.phase)
    return t


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


def _magic_symmetric_eigensystem(m2: np.ndarray):
    """Real orthogonal eigenbasis of the complex-symmetric unitary M^T M."""
    re = np.real(m2)
    im = np.imag(m2)
    re = (re + re.T) / 2
    im = (im + im.T) / 2
    p = simultaneous_diagonalize(re, im)
    eigvals = np.einsum("ij,ik,kj->j", p, m2, p)
    if np.linalg.det(p) < 0:
        p = p.copy()
        p[:, 0] *= -1
    return eigvals, p


def cartan_decompose(u: np.ndarray) -> CanonicalForm:
    """Canonical decomposition of a 4x4 unitary.

    The input is normalized to unit determinant (the principal fourth root
    of det(U) becomes the global phase), transformed to the magic basis,
    and split through the real orthogonal diagonalization of M^T M.  The
    interaction triple is then driven into the standard region with tracked
    local fixups.  Raises ``DecompositionError`` when the result does not
    reconstruct ``u`` to ``RECONSTRUCTION_TOL``.
    """
    u = check_unitary(u)

    det = np.linalg.det(u)
    phase0 = np.angle(det) / 4  # principal fourth root, phase in (-pi/4, pi/4]
    u_su = u * np.exp(-1j * phase0)

    m = MAGIC_DAG @ u_su @ MAGIC
    eigvals, p = _magic_symmetric_eigensystem(m.T @ m)

    mu = np.angle(eigvals) / 2
    total = float(np.sum(mu))
    if round(total / np.pi) % 2:
        mu[0] -= np.pi
    # Eigenvalues of U_d in magic column order are exp(-i(l3, l4, l1, l2)),
    # so lam[j] = -mu[j] and the pairwise sums recover the triple.
    lam = -mu
    raw = np.array([
        (lam[0] + lam[1]) / 2,
        (lam[1] + lam[3]) / 2,
        (lam[0] + lam[3]) / 2,
    ])

    a_diag = np.exp(1j * mu)
    k1 = np.real(m @ p @ np.diag(np.conj(a_diag)))
    k2 = p.T

    g1, a1, b1 = _kron_factor(MAGIC @ k1 @ MAGIC_DAG)
    g2, a2, b2 = _kron_factor(MAGIC @ k2 @ MAGIC_DAG)

    t = _canonicalize_vector(raw)
    x_a = a1 @ t.la
    x_b = b1 @ t.lb
    y_a = t.ra @ a2
    y_b = t.rb @ b2
    phase = float(wrap_angle(phase0 + t.phase + np.angle(g1) + np.angle(g2)))

    residual = float(np.max(np.abs(_compose(phase, x_a, x_b, t.v, y_a, y_b) - u)))
    if not residual <= RECONSTRUCTION_TOL:
        raise DecompositionError(
            f"reconstruction residual {residual:.3e} exceeds {RECONSTRUCTION_TOL:.1e}")
    return CanonicalForm(x_a=x_a, x_b=x_b, y_a=y_a, y_b=y_b,
                         d=t.v, global_phase=phase, residual=residual)
