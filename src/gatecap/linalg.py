"""Dense complex linear algebra for 2x2 and 4x4 matrices.

Provides the matrix primitives the rest of the package is built on: the
two-qubit gate check and the state check, the eigenphases of a unitary, the
spin-flipped square S U^T S U that the local-invariant reads share, and
seeded Haar-random sampling.  Tensor products are plain ``np.kron``.
"""

from __future__ import annotations

import numpy as np

# Tolerance policy.  Inputs from outside are gated once on entry; the
# algorithms then run without intermediate checks (matrices derived from a
# gate, such as S U^T S U, are not checked again), and the one factorisation
# (cartan_decompose) is judged once, by reconstructing its input from its
# output.  A failed output gate raises DecompositionError.
#   UNITARITY_TOL       input gate: max |U^dag U - I| of a matrix.
#   STATE_NORM_TOL      input gate: | |psi| - 1 | of a state.
#   RECONSTRUCTION_TOL  output gate: max entry of the reconstruction error.
#   ANGLE_TOL           boundary tolerance in radians: the faces of the
#                       Weyl region and a hull gap of exactly pi.
UNITARITY_TOL = 1e-10
STATE_NORM_TOL = 1e-12
RECONSTRUCTION_TOL = 1e-9
ANGLE_TOL = 1e-12

I2 = np.eye(2, dtype=complex)
PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)
PAULI_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
PAULI_Z = np.array([[1, 0], [0, -1]], dtype=complex)
PAULIS = (PAULI_X, PAULI_Y, PAULI_Z)

SIGMA_YY = np.kron(PAULI_Y, PAULI_Y)


class DimensionMismatchError(ValueError):
    """Operands have incompatible or unsupported dimensions."""


class NotUnitaryError(ValueError):
    """A matrix failed the unitarity check."""


class DecompositionError(RuntimeError):
    """The decomposition failed its reconstruction gate."""


def wrap_angle(theta):
    """Map angles to the interval (-pi, pi]."""
    wrapped = np.mod(np.asarray(theta) + np.pi, 2 * np.pi) - np.pi
    wrapped = np.where(wrapped == -np.pi, np.pi, wrapped)
    if np.isscalar(theta):
        return float(wrapped)
    return wrapped


def unitarity_defect(u: np.ndarray) -> float:
    """Max-norm of U^dag U - I."""
    u = np.asarray(u, dtype=complex)
    return float(np.max(np.abs(u.conj().T @ u - np.eye(u.shape[0]))))


def check_unitary(u: np.ndarray) -> np.ndarray:
    """Validate and return a two-qubit gate: a 4x4 unitary matrix."""
    u = np.asarray(u, dtype=complex)
    if u.shape != (4, 4):
        raise DimensionMismatchError(f"expects a 4x4 unitary, got shape {u.shape}")
    if not np.all(np.isfinite(u)):
        raise ValueError("matrix contains non-finite entries")
    # Finite entries near the float limit can overflow the defect to inf or
    # NaN, which must fail the gate rather than slip past the comparison.
    with np.errstate(over="ignore", invalid="ignore"):
        defect = unitarity_defect(u)
    if not defect <= UNITARITY_TOL:
        raise NotUnitaryError(f"matrix is not unitary: max |U^dag U - I| = {defect:.3e}")
    return u


def check_state(psi: np.ndarray, dim: int) -> np.ndarray:
    """Validate and return a normalized pure state of dimension ``dim``."""
    psi = np.asarray(psi, dtype=complex).ravel()
    if psi.shape[0] != dim:
        raise DimensionMismatchError(f"expects a state of dimension {dim}, got {psi.shape[0]}")
    if not np.all(np.isfinite(psi)):
        raise ValueError("state contains non-finite amplitudes")
    norm = float(np.linalg.norm(psi))
    if abs(norm - 1.0) > STATE_NORM_TOL:
        raise ValueError(f"state is not normalized: |norm - 1| = {abs(norm - 1):.3e}")
    return psi


def eig_unitary(u: np.ndarray) -> np.ndarray:
    """Eigenphases of a two-qubit gate, in (-pi, pi] and sorted ascending.

    A unitary is normal, so its computed eigenvalues are as accurate as the
    eigensolver's backward error (Bauer-Fike with a unitary eigenbasis); no
    eigenvector is formed.  An eigenvalue -1 - 0j has angle -pi, which
    ``wrap_angle`` maps to pi.
    """
    return np.sort(wrap_angle(np.angle(np.linalg.eigvals(check_unitary(u)))))


def spin_flipped_square(u: np.ndarray) -> np.ndarray:
    """S U^T S U with S = sy (x) sy, for an already checked gate ``u``.

    sy A^T sy = det(A) A^-1 for a 2x2 A, so for U = (A (x) B) U_d (C (x) D)
    this is a phase times (C (x) D)^dag U_d^2 (C (x) D): it carries U's local
    invariants and the spectrum of U_d^2 up to that phase, with no
    decomposition of U.
    """
    return SIGMA_YY @ u.T @ SIGMA_YY @ u


def haar_random_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random unitary via Ginibre QR with phase correction."""
    if dim not in (2, 4):
        raise DimensionMismatchError(f"only dimensions 2 and 4 are supported, got {dim}")
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))
