"""Brute-force optimizers that independently verify the closed forms.

Coarse scans plus refinement over explicit angle parametrizations of pure
states: the product search refines by alternating Autonne-Takagi ascent,
the pure-input and probe searches by Nelder-Mead, all restarts of a search
refined together in lockstep.  These searches never call the closed forms
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

    ``coarse_grid_per_angle`` is the points per angle of the coarse scan:
    the product search scans an n x n (theta, phi) grid over its first
    qubit, the pure-input searches draw n^3 random inputs.  ``restarts`` is
    how many of the best coarse points (for the probe search, random
    probes) are refined; the pure-input and probe searches refine all of
    them together by lockstep Nelder-Mead.  ``refine_iterations`` caps each
    refinement: Nelder-Mead iterations, and for the product search also its
    alternating ascent sweeps.  ``tolerance`` sets the refinements'
    stopping accuracy; the product search's ascent stops once no start
    gains more than its square.
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


def _general_state(angles) -> np.ndarray:
    """Two-qubit pure states from 3 magnitude angles and 3 relative phases.

    ``angles`` of shape (6,) gives one state of shape (4,); shape (n, 6)
    gives the column-stacked states, shape (4, n).
    """
    t1, t2, t3, p1, p2, p3 = np.asarray(angles).T
    mags = np.array([
        np.cos(t1 / 2),
        np.sin(t1 / 2) * np.cos(t2 / 2),
        np.sin(t1 / 2) * np.sin(t2 / 2) * np.cos(t3 / 2),
        np.sin(t1 / 2) * np.sin(t2 / 2) * np.sin(t3 / 2),
    ])
    phases = np.exp(1j * np.array([0 * p1, p1, p2, p3]))
    return mags * phases


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


def _refine_batch(objective, x0s: np.ndarray, cfg: SearchConfig):
    """Nelder-Mead from every row of ``x0s`` at once, step for step as in scipy.

    ``objective`` maps stacked points of shape (m, n) to m values.  Each
    row runs scipy's algorithm (coefficients 1, 2, 1/2, 1/2; its initial
    simplex, stopping rule, iteration cap and sort), with the same options
    as ``_refine``; every step evaluates all reflections in one call, then
    the one follow-up point each simplex needs, then the shrinks.  A
    simplex that meets the stopping rule stops moving.  Returns the best
    points, their values and the evaluation count of each row.
    """
    x0s = np.asarray(x0s, dtype=float)
    rows, n = x0s.shape
    tol = cfg.tolerance / 10
    sim = np.repeat(x0s[:, None, :], n + 1, axis=1)
    k = np.arange(n)
    sim[:, k + 1, k] = np.where(x0s != 0, (1 + 0.05) * x0s, 0.00025)
    fsim = objective(sim.reshape(-1, n)).reshape(rows, n + 1)
    nfev = np.full(rows, n + 1)

    def sort(sim, fsim):
        order = np.argsort(fsim, axis=1)
        return (np.take_along_axis(sim, order[..., None], axis=1),
                np.take_along_axis(fsim, order, axis=1))

    # scipy sorts the initial simplex twice; ties may be reordered each time.
    sim, fsim = sort(*sort(sim, fsim))
    active = np.ones(rows, dtype=bool)
    # scipy counts iterations from 1 and stops at the cap.
    for _ in range(cfg.refine_iterations - 1):
        active &= ~((np.max(np.abs(sim[:, 1:] - sim[:, :1]), axis=(1, 2)) <= tol)
                    & (np.max(np.abs(fsim[:, :1] - fsim[:, 1:]), axis=1) <= tol))
        live = np.flatnonzero(active)
        if live.size == 0:
            break
        s, f = sim[live], fsim[live]
        xbar = np.add.reduce(s[:, :-1], 1) / n
        worst = s[:, -1]
        xr = 2 * xbar - worst
        fxr = objective(xr)
        expand = fxr < f[:, 0]
        reflect = ~expand & (fxr < f[:, -2])
        outside = ~expand & ~reflect & (fxr < f[:, -1])
        inside = ~expand & ~reflect & ~outside
        # Expansion, outside or inside contraction, in scipy's arithmetic.
        trial = np.where(expand[:, None], 3 * xbar - 2 * worst,
                         np.where(outside[:, None], 1.5 * xbar - 0.5 * worst,
                                  0.5 * xbar + 0.5 * worst))
        ftrial = np.full(live.size, np.inf)
        ftrial[~reflect] = objective(trial[~reflect])
        nfev[live] += 1 + ~reflect
        take_trial = ((expand & (ftrial < fxr)) | (outside & (ftrial <= fxr))
                      | (inside & (ftrial < f[:, -1])))
        take_reflection = reflect | (expand & ~take_trial)
        shrink = (outside | inside) & ~take_trial
        s[take_trial, -1] = trial[take_trial]
        f[take_trial, -1] = ftrial[take_trial]
        s[take_reflection, -1] = xr[take_reflection]
        f[take_reflection, -1] = fxr[take_reflection]
        if shrink.any():
            best = s[shrink, :1]
            s[shrink, 1:] = best + 0.5 * (s[shrink, 1:] - best)
            f[shrink, 1:] = objective(s[shrink, 1:].reshape(-1, n)).reshape(-1, n)
            nfev[live[shrink]] += n
        sim[live], fsim[live] = sort(s, f)
    return sim[:, 0], fsim[:, 0], nfev


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


def _max_pure_input_gain(u: np.ndarray, gain, cfg: SearchConfig, seeds=()):
    """Maximize gain(C(U psi), C(psi)) over two-qubit pure inputs psi.

    ``gain`` maps arrays of output and input concurrences to gains.  The
    6-parameter manifold of pure states (normalization and global phase
    quotiented) is sampled at random; the given seed angles and the best
    samples are refined together by lockstep Nelder-Mead, and the
    incumbent is polished once more.  Returns (best gain, its angles,
    evaluation count).
    """
    rng = np.random.default_rng(cfg.seed)
    n_coarse = cfg.coarse_grid_per_angle ** 3
    samples = np.column_stack([
        rng.uniform(0, np.pi, (n_coarse, 3)),
        rng.uniform(0, 2 * np.pi, (n_coarse, 3)),
    ])
    states = _general_state(samples)
    values = gain(_concurrence(u @ states), _concurrence(states))
    evaluations = values.size

    def objective(x):
        psi = _general_state(x)
        return -gain(_concurrence(u @ psi), _concurrence(psi))

    order = np.argsort(values)[::-1][:max(cfg.restarts - len(seeds), 1)]
    x0s = np.concatenate([np.reshape(seeds, (-1, samples.shape[1])), samples[order]])
    xs, fvals, nfev = _refine_batch(objective, x0s, cfg)
    evaluations += int(nfev.sum())
    best = int(np.argmin(fvals))
    best_val, best_angles = -float(fvals[best]), xs[best]
    # Final polish from the incumbent with a fresh simplex and a larger
    # iteration budget.
    polish_cfg = SearchConfig(coarse_grid_per_angle=cfg.coarse_grid_per_angle,
                              restarts=cfg.restarts,
                              refine_iterations=5 * cfg.refine_iterations,
                              tolerance=cfg.tolerance / 100,
                              seed=cfg.seed)
    x, fval, nfev = _refine(objective, best_angles, polish_cfg)
    evaluations += nfev
    if -fval > best_val:
        best_val = -fval
        best_angles = x
    return best_val, best_angles, evaluations


def max_delta_concurrence(u: np.ndarray, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Maximum concurrence gain C(U psi) - C(psi) over all two-qubit pure inputs.

    The maximum equals the product capacity ``c_max_prod``: no entangled
    input gains more than the best product input does.  (In the magic basis
    the gain is at most max_k |w_k - omega| for any |omega| <= 1, w_k the
    eigenvalues of U_d^2, and half the widest spectral chord is
    ``c_max_prod``.)
    """
    u = check_unitary(u)
    if u.shape != (4, 4):
        raise ValueError("max_delta_concurrence expects a 4x4 unitary")
    # Zero-concurrence inputs are exactly the product states, so the refined
    # product-capacity maximizer is a guaranteed lower bound; use it as a
    # seed alongside the random pool.
    prod_search = max_concurrence_product(u, cfg)
    prod_seed = _state_to_angles(prod_search.argmax_state)
    best_val, best_angles, evaluations = _max_pure_input_gain(
        u, lambda c_out, c_in: c_out - c_in, cfg, seeds=(prod_seed,))
    return SearchResult(value=min(best_val, 1.0), argmax_state=_general_state(best_angles),
                        evaluations=evaluations + prod_search.evaluations)


def max_concurrence_unrestricted(u: np.ndarray,
                                 cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Unrestricted entangling capacity: sqrt of max [C(U psi)^2 - C(psi)^2].

    The maximum runs over all two-qubit pure inputs, entangled ones
    included; this is the quantity the closed-form ``c_max`` stands for.
    The search is seeded from random inputs only.
    """
    u = check_unitary(u)
    if u.shape != (4, 4):
        raise ValueError("max_concurrence_unrestricted expects a 4x4 unitary")
    best_val, best_angles, evaluations = _max_pure_input_gain(
        u, lambda c_out, c_in: c_out ** 2 - c_in ** 2, cfg)
    return SearchResult(value=float(np.sqrt(min(max(best_val, 0.0), 1.0))),
                        argmax_state=_general_state(best_angles), evaluations=evaluations)


def min_probe_overlap(v: np.ndarray, cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Minimum over probe states of |<phi|V|phi>|.

    ``restarts`` seeded random probes are refined together by lockstep
    Nelder-Mead, and the best one is returned with its own value.  The
    search never consults the spectrum of V, so it checks the hull geometry
    of ``d_min_geometric`` and the closed form independently.
    """
    v = check_unitary(v)

    def objective(x):
        psi = _general_state(x)
        return np.abs(np.sum(psi.conj() * (v @ psi), axis=0))

    rng = np.random.default_rng(cfg.seed)
    x0s = rng.uniform(0, np.repeat([np.pi, 2 * np.pi], 3), (cfg.restarts, 6))
    xs, fvals, nfev = _refine_batch(objective, x0s, cfg)
    best = int(np.argmin(fvals))
    return SearchResult(value=float(fvals[best]), argmax_state=_general_state(xs[best]),
                        evaluations=int(nfev.sum()))


def _state_to_angles(psi: np.ndarray) -> np.ndarray:
    """Invert the 6-angle parametrization, fixing the global phase."""
    mags = np.abs(psi)
    ref = int(np.argmax(mags > 1e-6))
    psi = psi * np.exp(-1j * np.angle(psi[ref]))
    t1 = 2 * np.arctan2(np.linalg.norm(mags[1:]), mags[0])
    t2 = 2 * np.arctan2(np.linalg.norm(mags[2:]), mags[1])
    t3 = 2 * np.arctan2(mags[3], mags[2])
    return np.array([t1, t2, t3, *np.angle(psi[1:])])
