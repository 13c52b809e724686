"""Brute-force optimizers that independently verify the closed forms.

Each search scores a coarse pool of inputs and refines the best of them
together: the product search by alternating Autonne-Takagi ascent over its
two qubits, the pure-input and probe searches by one Riemannian
conjugate-gradient ascent on unit states of C^4, all restarts of a search
as the columns of one array.  These searches never call the closed forms
or the spectral geometry they are meant to check; agreement between the
routes is asserted in the test suite.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.optimize import minimize

from .linalg import SIGMA_YY, check_unitary


@dataclass(frozen=True)
class SearchConfig:
    """Deterministic search parameters shared by all oracle operations.

    ``coarse_grid_per_angle`` (n) sizes the coarse pool: the product search
    scans an n x n (theta, phi) grid over its first qubit, the pure-input
    searches score n^3 Haar-random inputs.  ``restarts`` is how many of the
    best pool points (for the probe search, seeded random probes) are
    refined, all together.  ``refine_iterations`` caps each refinement:
    sphere-ascent steps, the product search's alternating ascent sweeps and
    the iterations of its 2-angle Nelder-Mead polish.  ``tolerance`` sets
    the stopping accuracy: a sphere ascent stops a start once its step is
    shorter than the square, the product search's ascent once no start
    gains more than the square, and the polish at a tenth of it.  ``seed``
    seeds the random pool and probes.
    """

    coarse_grid_per_angle: int = 24
    restarts: int = 32
    refine_iterations: int = 200
    tolerance: float = 1e-6
    seed: int = 0

    def __post_init__(self):
        if min(self.coarse_grid_per_angle, self.restarts, self.refine_iterations) <= 0:
            raise ValueError("grid size, restarts and refine iterations must be positive")
        if self.tolerance <= 0:
            raise ValueError("tolerance must be positive")


@dataclass(frozen=True)
class SearchResult:
    """Best value found, the state attaining it, and the evaluation count."""

    value: float
    argmax_state: np.ndarray
    evaluations: int


def _qubit_states(thetas, phis) -> np.ndarray:
    """Single-qubit states cos(t/2)|0> + e^{i p} sin(t/2)|1>, stacked on the last axis."""
    return np.stack([np.cos(thetas / 2), np.exp(1j * phis) * np.sin(thetas / 2)], axis=-1)


def _concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrence 2|psi_0 psi_3 - psi_1 psi_2| of one state or of column-stacked states."""
    return 2 * np.abs(states[0] * states[3] - states[1] * states[2])


def _angle_grid(n: int, upper: float) -> np.ndarray:
    # Include both region endpoints so degenerate extremals are sampled exactly.
    return np.linspace(0.0, upper, n)


def _refine(objective, x0: np.ndarray, cfg: SearchConfig):
    res = minimize(objective, x0, method="Nelder-Mead",
                   options={"maxiter": cfg.refine_iterations,
                            "xatol": cfg.tolerance / 10,
                            "fatol": cfg.tolerance / 10})
    return res.x, float(res.fun), int(res.nfev)


def _takagi_top(m: np.ndarray):
    """Top Autonne-Takagi vector and value of stacked complex symmetric 2x2 matrices.

    Returns unit vectors b of shape (..., 2) with |b^T m b| = sigma_max(m),
    the largest value of |b^T m b| over unit b, and sigma_max itself.
    """
    u, s, vh = np.linalg.svd(m)
    v1 = vh[..., 0, :].conj()
    u1 = u[..., :, 0]
    # m v1 = s1 u1 and, m being symmetric, m conj(u1) = s1 conj(v1), so both
    # z = v1 + conj(u1) and z = i (v1 - conj(u1)) solve m z = s1 conj(z), and
    # then |z^T m z| = s1 |z|^2.  Their squared norms add up to 4; when
    # s1 = s2 either one may vanish, so take the longer.
    plus = v1 + u1.conj()
    minus = 1j * (v1 - u1.conj())
    longer = np.linalg.norm(plus, axis=-1) >= np.linalg.norm(minus, axis=-1)
    z = np.where(longer[..., None], plus, minus)
    return z / np.linalg.norm(z, axis=-1, keepdims=True), s[..., 0]


def _contract(g: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The symmetric 2x2 matrices sum_ik x_i x_k g[i, :, k, :] for stacked qubits x."""
    return np.einsum("...i,...k,ijkl->...jl", x, x, g)


def max_concurrence_product(u: np.ndarray, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Maximum output concurrence of U over product input states.

    With G = U^T (sy (x) sy) U as a (2, 2, 2, 2) array, the output
    concurrence of a (x) b is |b^T M(a) b| for the symmetric 2x2 matrix
    M(a) = sum_ik a_i a_k G[i, :, k, :], whose maximum over unit b is
    sigma_max(M(a)), reached at its top Autonne-Takagi vector.  The search
    scores a ``coarse_grid_per_angle`` squared (theta, phi) grid over a,
    runs alternating a/b Takagi ascent from the best ``restarts`` grid
    points together for at most ``refine_iterations`` sweeps, polishes the
    best a with Nelder-Mead on its two angles, and returns a (x) b.  Each
    evaluation is one 2x2 singular value decomposition.
    """
    u = check_unitary(u)
    if u.shape != (4, 4):
        raise ValueError("max_concurrence_product expects a 4x4 unitary")
    g = (u.T @ SIGMA_YY @ u).reshape(2, 2, 2, 2)
    g_swapped = g.transpose(1, 0, 3, 2)  # the same form with the qubits' roles exchanged

    n = cfg.coarse_grid_per_angle
    thetas, phis = np.meshgrid(_angle_grid(n, np.pi), _angle_grid(n, 2 * np.pi), indexing="ij")
    a = _qubit_states(thetas.ravel(), phis.ravel())
    values = np.linalg.svd(_contract(g, a), compute_uv=False)[:, 0]
    evaluations = values.size

    order = np.argsort(values)[::-1][:cfg.restarts]
    a, values = a[order], values[order]
    for _ in range(cfg.refine_iterations):
        b, _ = _takagi_top(_contract(g, a))
        a, improved = _takagi_top(_contract(g_swapped, b))
        evaluations += 2 * a.shape[0]
        converged = np.max(improved - values) <= cfg.tolerance ** 2
        values = improved
        if converged:
            break

    best = a[np.argmax(values)]
    x0 = np.array([2 * np.arctan2(abs(best[1]), abs(best[0])),
                   np.angle(best[1]) - np.angle(best[0])])

    def objective(x):
        return -np.linalg.svd(_contract(g, _qubit_states(*x)), compute_uv=False)[0]

    x, _, nfev = _refine(objective, x0, cfg)
    evaluations += nfev
    a = _qubit_states(*x)
    b, _ = _takagi_top(_contract(g, a))
    state = np.kron(a, b)
    return SearchResult(value=min(float(_concurrence(u @ state)), 1.0), argmax_state=state,
                        evaluations=evaluations)


def _random_states(count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random two-qubit pure states, the columns of a (4, count) array."""
    z = rng.standard_normal((4, count)) + 1j * rng.standard_normal((4, count))
    return z / np.linalg.norm(z, axis=0)


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products a_k^dag b_k of matching columns."""
    return np.sum(a.conj() * b, axis=0)


def _tangent(psi: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Project each column of v onto the tangent space of the unit sphere at that of psi."""
    return v - psi * _inner(psi, v)


def _ascend(value_and_gradient, psi: np.ndarray, cfg: SearchConfig):
    """Riemannian conjugate-gradient ascent from every column of ``psi`` at once.

    ``value_and_gradient`` maps unit states, the columns of a (4, m) array,
    to their m real values f and the Wirtinger gradients g = df/d(conj psi),
    so that f changes by 2 Re(g^dag dpsi).  Directions are Polak-Ribiere+
    combinations of tangent-projected gradients, restarted whenever one is
    not an ascent direction; a step psi + t d is retracted by normalising.
    A step is accepted when the value strictly increases and gains at least
    half the predicted ascent 2t Re(g^dag d); an accepted step doubles t, a
    rejected one halves it.  A column stops once its step t|d| is below
    ``tolerance`` squared, or after ``refine_iterations`` steps, so a column
    of zero gradient comes back unchanged.  Returns the final states, their
    values and the evaluation count.
    """
    psi = np.asarray(psi, dtype=complex)
    value, grad = value_and_gradient(psi)
    grad = _tangent(psi, grad)
    direction = grad
    step = np.ones(psi.shape[1])
    evaluations = psi.shape[1]
    for _ in range(cfg.refine_iterations):
        live = step * np.linalg.norm(direction, axis=0) >= cfg.tolerance ** 2
        if not live.any():
            break
        trial = psi + step * direction
        trial /= np.linalg.norm(trial, axis=0)
        trial_value, trial_grad = value_and_gradient(trial)
        evaluations += psi.shape[1]
        gain = trial_value - value
        ok = live & (gain > 0) & (gain >= step * np.real(_inner(grad, direction)))
        step = np.where(ok, 2 * step, step / 2)

        new_grad = _tangent(trial, trial_grad)
        old = np.real(_inner(grad, grad))
        beta = np.real(_inner(new_grad, new_grad - _tangent(trial, grad)))
        beta = np.maximum(np.divide(beta, old, out=np.zeros_like(beta), where=old > 0), 0)
        new_direction = new_grad + beta * _tangent(trial, direction)
        new_direction = np.where(np.real(_inner(new_grad, new_direction)) > 0,
                                 new_direction, new_grad)
        psi = np.where(ok, trial, psi)
        value = np.where(ok, trial_value, value)
        grad = np.where(ok, new_grad, grad)
        direction = np.where(ok, new_direction, direction)
    return psi, value, evaluations


def _gain_objective(u: np.ndarray, power: int):
    """Values C(U psi)^power - C(psi)^power of unit inputs, with their gradients.

    C(U psi) = |psi^T G psi| with G = U^T (sy (x) sy) U, and C(psi) the same
    with G = sy (x) sy; the Wirtinger gradient of |z|^power, z = psi^T G psi,
    is power |z|^(power - 1) (z / |z|) conj(G psi), taking z / |z| as 0 at
    z = 0.
    """
    forms = np.stack([u.T @ SIGMA_YY @ u, SIGMA_YY])

    def value_and_gradient(psi):
        forms_psi = forms @ psi
        z = np.sum(psi * forms_psi, axis=1)
        modulus = np.abs(z)
        phase = np.divide(z, modulus, out=np.zeros_like(z), where=modulus > 0)
        terms = modulus ** power
        gradients = power * (modulus ** (power - 1) * phase)[:, None] * forms_psi.conj()
        return terms[0] - terms[1], gradients[0] - gradients[1]

    return value_and_gradient


def _max_pure_input_gain(u: np.ndarray, power: int, cfg: SearchConfig, seeds=()):
    """Maximize C(U psi)^power - C(psi)^power over two-qubit pure inputs psi.

    ``coarse_grid_per_angle`` cubed Haar-random inputs are scored by value
    only; the given seed states and the best samples are refined together by
    ``_ascend``.  Returns the best state and the evaluation count.
    """
    pool = _random_states(cfg.coarse_grid_per_angle ** 3, np.random.default_rng(cfg.seed))
    values = _concurrence(u @ pool) ** power - _concurrence(pool) ** power
    order = np.argsort(values)[::-1][:max(cfg.restarts - len(seeds), 1)]
    starts = np.column_stack([*seeds, pool[:, order]])
    states, values, evaluations = _ascend(_gain_objective(u, power), starts, cfg)
    return states[:, np.argmax(values)], pool.shape[1] + evaluations


def max_delta_concurrence(u: np.ndarray, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Maximum concurrence gain C(U psi) - C(psi) over all two-qubit pure inputs.

    The maximum equals the product capacity ``c_max_prod``: no entangled
    input gains more than the best product input does.  (In the magic basis
    the gain is at most max_k |w_k - omega| for any |omega| <= 1, w_k the
    eigenvalues of U_d^2, and half the widest spectral chord is
    ``c_max_prod``.)  The maximum sits on the kink C(psi) = 0, which the
    ascent alone approaches poorly, so the product search's maximizer is
    refined alongside the best random inputs.  The value is recomputed from
    the returned state.
    """
    u = check_unitary(u)
    if u.shape != (4, 4):
        raise ValueError("max_delta_concurrence expects a 4x4 unitary")
    prod_search = max_concurrence_product(u, cfg)
    state, evaluations = _max_pure_input_gain(u, 1, cfg, seeds=(prod_search.argmax_state,))
    value = float(_concurrence(u @ state) - _concurrence(state))
    return SearchResult(value=min(value, 1.0), argmax_state=state,
                        evaluations=evaluations + prod_search.evaluations)


def max_concurrence_unrestricted(u: np.ndarray,
                                 cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Unrestricted entangling capacity: sqrt of max [C(U psi)^2 - C(psi)^2].

    The maximum runs over all two-qubit pure inputs, entangled ones
    included; this is the quantity the closed-form ``c_max`` stands for.
    The best of ``coarse_grid_per_angle`` cubed random inputs are refined by
    sphere ascent with no other seed, and the value is recomputed from the
    returned state.
    """
    u = check_unitary(u)
    if u.shape != (4, 4):
        raise ValueError("max_concurrence_unrestricted expects a 4x4 unitary")
    state, evaluations = _max_pure_input_gain(u, 2, cfg)
    tangle_gain = float(_concurrence(u @ state) ** 2 - _concurrence(state) ** 2)
    return SearchResult(value=float(np.sqrt(min(max(tangle_gain, 0.0), 1.0))),
                        argmax_state=state, evaluations=evaluations)


def _probe_objective(v: np.ndarray):
    """Values -|<phi|V|phi>|^2 of unit probes, with their Wirtinger gradients."""
    v_dag = v.conj().T

    def value_and_gradient(phi):
        v_phi = v @ phi
        w = _inner(phi, v_phi)
        return -np.abs(w) ** 2, -(w.conj() * v_phi + w * (v_dag @ phi))

    return value_and_gradient


def min_probe_overlap(v: np.ndarray, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Minimum over probe states of |<phi|V|phi>|.

    ``restarts`` seeded random probes are refined together by sphere ascent
    on -|<phi|V|phi>|^2, and the best one is returned with its own value.
    The search never consults the spectrum of V, so it checks the hull
    geometry of ``d_min_geometric`` and the closed form independently.
    """
    v = check_unitary(v)
    if v.shape != (4, 4):
        raise ValueError("min_probe_overlap expects a 4x4 unitary")
    probes = _random_states(cfg.restarts, np.random.default_rng(cfg.seed))
    states, values, evaluations = _ascend(_probe_objective(v), probes, cfg)
    best = states[:, np.argmax(values)]
    return SearchResult(value=float(abs(np.vdot(best, v @ best))), argmax_state=best,
                        evaluations=evaluations)
