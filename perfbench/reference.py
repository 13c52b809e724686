"""Independent reference for checking gatecap's outputs.

Nothing here imports gatecap.  Every quantity is computed straight from the
raw 4x4 matrix, without a Cartan decomposition:

- the spectrum of M^T M, where M is the determinant-normalised matrix in the
  magic basis; it equals the spectrum of U_d^2 up to an overall sign, so it
  gives D_ref (the distance from 0 to its convex hull, the minimum probe
  overlap of U_d against U_d^dag) and c_ref (1 if 0 lies in the hull, else
  half the widest chord, the product entangling capacity);
- the Makhlin local invariants G1 and G2 (Makhlin, quant-ph/0002045), which
  two gates share exactly when they differ by local unitaries;
- concurrence of a pure state as 2|det R| for its amplitude matrix R;
- the standard-region inequalities 0 <= |az| <= ay <= ax <= pi/4.

U_d itself is built by scipy.linalg.expm, not from a closed form.
"""

from __future__ import annotations

import numpy as np
from scipy.linalg import expm

PI_4 = np.pi / 4

# The benchmark's checks on a returned triple; neither is wider than the
# acceptance suite's gate for the same quantity.
TOL_INVARIANTS = 1e-12
TOL_REGION = 1e-12

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)
XX, YY, ZZ = np.kron(_X, _X), np.kron(_Y, _Y), np.kron(_Z, _Z)

# Any magic basis works: local unitaries become real orthogonal in it.
MAGIC = np.array([
    [1, 0, 0, 1j],
    [0, 1j, 1, 0],
    [0, 1j, -1, 0],
    [1, 0, 0, -1j],
], dtype=complex) / np.sqrt(2)

# Named classes as interaction triples (ax, ay, az).
NAMED = {
    "identity": (0.0, 0.0, 0.0),
    "cnot": (PI_4, 0.0, 0.0),
    "b": (PI_4, np.pi / 8, 0.0),
    "csqrtx": (np.pi / 8, 0.0, 0.0),
    "swap": (PI_4, PI_4, PI_4),
    "sqrtswap": (np.pi / 8, np.pi / 8, np.pi / 8),
}


def haar_unitary(dim: int, rng: np.random.Generator) -> np.ndarray:
    """Haar unitary by QR of a complex Ginibre matrix, R's phases divided out."""
    z = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    q, r = np.linalg.qr(z)
    ph = np.diagonal(r) / np.abs(np.diagonal(r))
    return q * ph


def interaction_unitary(d) -> np.ndarray:
    """U_d = expm(-i (ax XX + ay YY + az ZZ))."""
    ax, ay, az = (float(v) for v in d)
    return expm(-1j * (ax * XX + ay * YY + az * ZZ))


def dress(u_d: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """(A1 (x) B1) U_d (A2 (x) B2) with four Haar single-qubit unitaries."""
    left = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    right = np.kron(haar_unitary(2, rng), haar_unitary(2, rng))
    return left @ u_d @ right


def magic_gram(u: np.ndarray) -> np.ndarray:
    """M^T M for M the magic-basis form of u / det(u)^(1/4)."""
    u = np.asarray(u, dtype=complex)
    m = MAGIC.conj().T @ (u / np.linalg.det(u) ** 0.25) @ MAGIC
    return m.T @ m


def makhlin_invariants(u: np.ndarray) -> tuple[complex, float]:
    """(G1, G2) with G1 = tr^2(m)/(16 det u), G2 = (tr^2(m) - tr(m^2))/(4 det u).

    m is M^T M of the raw (not normalised) magic-basis matrix; dividing by
    det u makes both invariant under global phase as well as local unitaries.
    G2 is real for a unitary; its round-off imaginary part is dropped.
    """
    u = np.asarray(u, dtype=complex)
    m = MAGIC.conj().T @ u @ MAGIC
    g = m.T @ m
    det = np.linalg.det(u)
    tr = np.trace(g)
    return tr * tr / (16 * det), float(np.real((tr * tr - np.trace(g @ g)) / (4 * det)))


def hull_distance(points: np.ndarray) -> float:
    """Distance from 0 to the convex hull of the given complex points.

    By duality it is max(0, max over unit n of min_i Re(conj(n) p_i)); the
    best n points at a vertex or along the normal of a segment, so those
    finitely many directions suffice.
    """
    p = np.asarray(points, dtype=complex).ravel()
    dirs = [z / abs(z) for z in p]
    for i in range(p.size):
        for j in range(i + 1, p.size):
            edge = p[j] - p[i]
            if abs(edge) > 0:
                dirs += [1j * edge / abs(edge), -1j * edge / abs(edge)]
    dirs = np.array(dirs)
    support = np.min(np.real(np.conj(dirs)[:, None] * p[None, :]), axis=1)
    return float(max(0.0, np.max(support)))


def spectral_reference(u: np.ndarray) -> tuple[float, float]:
    """(c_ref, D_ref) of a two-qubit gate from the spectrum of M^T M."""
    w = np.linalg.eigvals(magic_gram(u))
    w = w / np.abs(w)
    dist = hull_distance(w)
    if dist == 0.0:
        return 1.0, 0.0
    chord = np.max(np.abs(w[:, None] - w[None, :])) / 2
    return float(min(chord, 1.0)), dist


def concurrence(psi: np.ndarray) -> float:
    """2|det R| for the 2x2 amplitude matrix R of a normalised two-qubit state."""
    psi = np.asarray(psi, dtype=complex).ravel()
    psi = psi / np.linalg.norm(psi)
    return 2.0 * float(abs(np.linalg.det(psi.reshape(2, 2))))


def in_region(d, atol: float) -> bool:
    """Whether 0 <= |az| <= ay <= ax <= pi/4 holds to within atol."""
    ax, ay, az = (float(v) for v in d)
    return abs(az) <= ay + atol and ay <= ax + atol and ax <= PI_4 + atol


def h2(x: float) -> float:
    """Binary entropy in bits."""
    return float(-sum(p * np.log2(p) for p in (x, 1.0 - x) if p > 0.0))


def is_perfect_entangler(d) -> bool:
    """Whether a region triple maps some product state to a maximally entangled one."""
    ax, ay, az = (float(v) for v in d)
    return ax + ay >= PI_4 and ay + abs(az) <= PI_4


def random_region_triple(rng: np.random.Generator, perfect: bool) -> np.ndarray:
    """A uniform draw from the standard region, conditioned on being a perfect
    entangler or not."""
    while True:
        ax = rng.uniform(0, PI_4)
        ay = rng.uniform(0, ax)
        az = rng.uniform(-ay, ay)
        d = np.array([ax, ay, az])
        if is_perfect_entangler(d) == perfect:
            return d


class Mismatch(AssertionError):
    """The program returned a wrong result."""


def expect(cond: bool, what: str) -> None:
    if not cond:
        raise Mismatch(what)


def check_decomposition(u: np.ndarray, d, c_prod: float, d_mins, tol_values: float) -> bool:
    """Check a returned triple and its c_max_prod and D_min values against the
    reference computed from the raw matrix.  Returns False when only the
    region check fails, the fault counted on the near-face inputs."""
    g_in = makhlin_invariants(u)
    g_out = makhlin_invariants(interaction_unitary(d))
    expect(abs(g_in[0] - g_out[0]) <= TOL_INVARIANTS and abs(g_in[1] - g_out[1]) <= TOL_INVARIANTS,
           f"Makhlin invariants of d={list(d)} differ from the input's: {g_in} vs {g_out}")
    c_ref, d_ref = spectral_reference(u)
    expect(abs(c_prod - c_ref) <= tol_values, f"c_max_prod {c_prod} vs reference {c_ref}")
    for value in d_mins:
        expect(abs(value - d_ref) <= tol_values, f"D_min {value} vs reference {d_ref}")
    return in_region(d, TOL_REGION)
