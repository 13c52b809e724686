"""Brute-force optimizers that independently verify the closed forms.

Each search refines its starts by one Riemannian Newton ascent on unit
vectors, all restarts as the columns of one array.  The unrestricted search
starts from the best of a coarse pool of inputs, the probe search from
seeded random probes and the product search from the best points of a grid
over its first qubit; the gain search returns that product maximiser's gain.
The searches never call the closed forms or the spectral geometry they
check; agreement between the routes is asserted in the test suite.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass
from typing import ClassVar

import numpy as np

from .linalg import SIGMA_YY, check_unitary


@dataclass(frozen=True)
class SearchConfig:
    """The searches' one setting, ``seed``, and their fixed constants.

    ``seed`` seeds the random pool and probes; it must be a non-negative
    integer, and anything else raises ValueError.
    ``coarse_grid_per_angle`` (n) sizes both coarse stages alike: the
    product search scans an n x n (theta, phi) grid over its first qubit,
    and the unrestricted search scores a pool of n^2 Haar-random inputs.
    ``restarts`` is how many of the best pool points (for the probe search,
    seeded random probes) are refined, all together, and
    ``product_restarts`` how many of the best grid points the product
    search refines; the gain search refines none, as it returns the product
    maximiser.  ``refine_iterations`` caps the steps of each sphere ascent.
    ``tolerance`` squared is the length of a Newton step (for small steps,
    the angle moved) below which a sphere ascent stops a start.  A start
    also stops once its last Newton step was predicted to gain at most one
    ulp of its value, and the ascent ends once no live start is above the
    best stopped one.
    """

    coarse_grid_per_angle: ClassVar[int] = 24
    restarts: ClassVar[int] = 32
    product_restarts: ClassVar[int] = 8
    refine_iterations: ClassVar[int] = 200
    tolerance: ClassVar[float] = 1e-6
    seed: int = 0

    def __post_init__(self):
        if (not isinstance(self.seed, numbers.Integral) or isinstance(self.seed, bool)
                or self.seed < 0):
            raise ValueError("seed must be a non-negative integer")


@dataclass(frozen=True)
class SearchResult:
    """Best value found, the state attaining it, and the evaluation count."""

    value: float
    argmax_state: np.ndarray
    evaluations: int


def _concurrence(states: np.ndarray) -> np.ndarray:
    """Concurrence 2|psi_0 psi_3 - psi_1 psi_2| of one state or of column-stacked states."""
    return 2 * np.abs(states[0] * states[3] - states[1] * states[2])


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
    """The symmetric 2x2 matrices sum_ik x_i x_k g[i, :, k, :] for stacked qubits x.

    One matmul: the outer products x_i x_k, flattened over (i, k), times g
    with rows (i, k) and columns (j, l).
    """
    stack = x.shape[:-1]
    outer = (x[..., :, None] * x[..., None, :]).reshape(*stack, 4)
    return (outer @ g.transpose(0, 2, 1, 3).reshape(4, 4)).reshape(*stack, 2, 2)


def _sigma_max(m: np.ndarray) -> np.ndarray:
    """Largest singular values of stacked 2x2 matrices, in closed form.

    With F = |m|_F^2 = s1^2 + s2^2 and |det m| = s1 s2, (s1 +- s2)^2 is
    F +- 2|det m|.  Taking the difference as written loses half the digits
    when s1 = s2, so w m, with w^2 the phase of conj(det m), is used instead:
    then det(w m) = |det m|, and F +- 2|det m| is the sum of squares
    |w m00 +- conj(w m11)|^2 + |w m01 -+ conj(w m10)|^2.
    """
    det = m[..., 0, 0] * m[..., 1, 1] - m[..., 0, 1] * m[..., 1, 0]
    modulus = np.abs(det)
    w = np.sqrt(np.divide(det.conj(), modulus, out=np.ones_like(det), where=modulus > 0))
    a, d = w * m[..., 0, 0], (w * m[..., 1, 1]).conj()
    b, c = w * m[..., 0, 1], (w * m[..., 1, 0]).conj()
    return (np.sqrt(np.abs(a + d) ** 2 + np.abs(b - c) ** 2)
            + np.sqrt(np.abs(a - d) ** 2 + np.abs(b + c) ** 2)) / 2


def _product_objective(g: np.ndarray, g_swapped: np.ndarray):
    """Values sigma_max(M(a))^2 of first qubits a, with their Wirtinger gradients.

    sigma_max(M(a)) = |z|, z = a^T H a with H = sum_jl b_j b_l G[:, j, :, l]
    for b the top Takagi vector of M(a); b being optimal, the envelope
    theorem gives the gradient 2 z conj(H a).
    """
    def value_and_gradient(a):
        b, sigma = _takagi_top(_contract(g, a.T))
        h_a = np.einsum("mjl,lm->jm", _contract(g_swapped, b), a)
        return sigma ** 2, 2 * np.sum(a * h_a, axis=0) * h_a.conj()

    return value_and_gradient


def max_concurrence_product(u: np.ndarray) -> SearchResult:
    """Maximum output concurrence of U over product input states.

    With G = U^T (sy (x) sy) U as a (2, 2, 2, 2) array, the output
    concurrence of a (x) b is |b^T M(a) b| for the symmetric 2x2 matrix
    M(a) = sum_ik a_i a_k G[i, :, k, :], whose maximum over unit b is
    sigma_max(M(a)), reached at its top Autonne-Takagi vector.  The search
    scores a ``coarse_grid_per_angle`` squared (theta, phi) grid over a,
    refines the best ``product_restarts`` grid points together by sphere
    ascent on sigma_max(M(a))^2, and returns a (x) b for the best refined a.
    Each evaluation is one 2x2 singular value.

    The search reads no seed.  The last one is memoised, keyed by the
    matrix's entries: asked again for the same gate, as the gain search does
    right after, it returns the same result, ``evaluations`` included,
    without searching.  Its ``argmax_state`` is therefore read-only.
    """
    u = check_unitary(u)
    return _product_search(u.tobytes())


@functools.cache
def _qubit_grid() -> np.ndarray:
    """The (n^2, 2) first qubits cos(t/2)|0> + e^{ip} sin(t/2)|1> of the product search.

    n is ``coarse_grid_per_angle``.  The (t, p) grid includes both ends of
    each angle's range, so degenerate extremals are sampled exactly.  Built
    on first use, and read-only because every search gets the same array.
    """
    n = SearchConfig.coarse_grid_per_angle
    t, p = np.meshgrid(np.linspace(0, np.pi, n), np.linspace(0, 2 * np.pi, n), indexing="ij")
    grid = np.stack([np.cos(t / 2), np.exp(1j * p) * np.sin(t / 2)], axis=-1).reshape(-1, 2)
    grid.flags.writeable = False
    return grid


@functools.lru_cache(maxsize=1)
def _product_search(entries: bytes) -> SearchResult:
    """The search of ``max_concurrence_product`` on a checked 4x4 unitary's C-order bytes."""
    u = np.frombuffer(entries, dtype=complex).reshape(4, 4)
    g = (u.T @ SIGMA_YY @ u).reshape(2, 2, 2, 2)
    g_swapped = g.transpose(1, 0, 3, 2)  # the same form with the qubits' roles exchanged

    a = _qubit_grid()
    values = _sigma_max(_contract(g, a))
    starts = a[np.argsort(values)[::-1][:SearchConfig.product_restarts]]
    refined = minimize(_product_objective(g, g_swapped), starts.T)
    a = refined.states[:, np.argmax(refined.values)]
    b, _ = _takagi_top(_contract(g, a))
    state = np.kron(a, b)
    state.flags.writeable = False
    return SearchResult(value=min(float(_concurrence(u @ state)), 1.0), argmax_state=state,
                        evaluations=values.size + refined.nfev)


def _random_states(count: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-random two-qubit pure states, the columns of a (4, count) array."""
    z = rng.standard_normal((4, count)) + 1j * rng.standard_normal((4, count))
    return z / np.linalg.norm(z, axis=0)


@functools.lru_cache(maxsize=4)
def _seeded_pool(seed: int) -> np.ndarray:
    """``coarse_grid_per_angle`` squared Haar-random states from seed, a (4, n^2) array.

    Drawn once per seed: the unrestricted searches of every gate share the
    pool, and it is read-only because every caller gets the same array.
    """
    pool = _random_states(SearchConfig.coarse_grid_per_angle ** 2, np.random.default_rng(seed))
    pool.flags.writeable = False
    return pool


def _inner(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Inner products a_k^dag b_k of matching columns (summed over axis -2)."""
    return (a.conj() * b).sum(axis=-2)


# Each sphere-ascent iteration tries the steps t 2^k, k = -4..4, at once; when
# none of them ascends, the next ladder is centred on t 2^-9, so that its
# highest rung lies a factor 2 below the lowest rejected one and no rejected
# step is tried again.
_LADDER = 2.0 ** np.arange(-4, 5)
_FALLBACK = _LADDER[0] ** 2 / 2
# The forward-difference step h of the Newton ascent, about sqrt(unit roundoff).
_PROBE = 2.0 ** -26


@dataclass(frozen=True)
class Refinement:
    """Refined states (columns), their values, the negated best value, evaluations."""

    states: np.ndarray
    values: np.ndarray
    fun: float
    nfev: int


def minimize(value_and_gradient, psi: np.ndarray) -> Refinement:
    """Riemannian Newton ascent from every column of ``psi`` at once.

    ``value_and_gradient`` maps unit vectors, the columns of an (n, m) array,
    to their m real values f and the Wirtinger gradients g = df/d(conj psi),
    so that f changes by 2 Re(g^dag dpsi); f must not depend on the global
    phase, as no search's objective does.  At a point x the 2n - 2 real
    directions b_k orthogonal to x and i x (a Householder basis, and i times
    it) carry the coordinates c of a step d = sum c_k b_k, retracted by
    normalising x + d: f changes by 2 r.c, r_k = Re(b_k^dag g), and
    A = -dr/dc comes from forward differences of the tangent-projected
    gradients at x + h b_k, in one more call.  The direction solves
    (A + a tiny ridge) c = r when r.c > 0, and is r / max|A| otherwise.

    Each iteration evaluates every live column at the ladder of steps
    t 2^k, k = -4..4, times its direction in one call, and takes the rung of
    largest gain among those that strictly increase the value and gain at
    least a quarter of the linear prediction 2t r.c (a full Newton step
    gains half of it on a quadratic).  The next ladder is centred on the
    accepted rung, the first on t = 1; when no rung passes, it lies wholly
    below the lowest rung.  A column stops once t|d|, for the next centre t
    and its last direction d, is below ``tolerance`` squared, once the gain
    r.c predicted for its last Newton step is at most one ulp of its value
    (the Newton-decrement stop: near a maximum the next step can gain only
    round-off), or after ``refine_iterations`` steps; a column of zero
    gradient stops before any step, so it comes back unchanged.  The search
    ends once the best value among the stopped columns is at least every
    live column's value: callers keep only the best column, and the live
    ones are left where they are.  The values returned are those of one
    call on the returned states.

    Every search refines through this one module global, which
    perfbench/tracing.py wraps to count refinements by ``nfev`` and ``fun``.
    """
    states = np.array(psi, dtype=complex)
    values, grad = value_and_gradient(states)
    n, m = states.shape
    # The live columns' states and tangent gradients; cols maps them back.
    work = np.stack([states, grad - states * _inner(states, grad)])
    value, cols = values, np.arange(m)
    step, length = np.ones(m), (_inner(work[1], work[1]).real > 0) * 1.0
    slope, evaluations, stopped_best = np.full(m, np.inf), m, -np.inf
    for _ in range(SearchConfig.refine_iterations):
        # A column stops once its step is short or its last Newton step was
        # predicted to gain no more than round-off in its value.
        live = (step * length >= SearchConfig.tolerance ** 2) & (slope > np.spacing(np.abs(value)))
        if not live.all():
            # Live values only rise, so the search can end only when a column stops.
            stopped_best = max(stopped_best, value[~live].max())
            if value[live].max(initial=-np.inf) <= stopped_best:
                live[:] = False
            states[:, cols] = work[0]
            work, value, cols, step = work[:, :, live], value[live], cols[live], step[live]
            if not cols.size:
                break
        x, grad = work
        # Columns 1.. of the reflection I - v v^dag / (1 + |x_0|) that takes x
        # to a multiple of e_0, v = x + e_0 x_0 / |x_0| (e_0 where x_0 = 0).
        v = x + np.eye(n, 1) * np.exp(1j * np.angle(x[0]))
        basis = np.eye(n)[:, 1:, None] - v[:, None] * (x[1:].conj() / (1 + np.abs(x[0])))
        basis = np.concatenate([basis, 1j * basis], axis=1)
        # |x + h b_k| = sqrt(1 + h^2) rounds to 1, so the probes need no normalising.
        probes = x[:, None] + _PROBE * basis
        probe_grad = value_and_gradient(probes.reshape(n, -1))[1].reshape(probes.shape)
        evaluations += probes.shape[1] * cols.size
        probe_grad = probe_grad - probes * (probes.conj() * probe_grad).sum(axis=0)
        # r at x (column 0) and at the probes, the columns' axis first.
        coords = np.einsum("njm,nkm->mjk", basis.conj(),
                           np.concatenate([grad[:, None], probe_grad], axis=1)).real
        r = coords[:, :, 0]
        a = (r[:, :, None] - coords[:, :, 1:]) / _PROBE
        a_max = np.abs(a).max(axis=(1, 2))
        ridge = (1e-12 * (a_max + np.abs(r).max(axis=1)))[:, None, None] * np.eye(len(r[0]))
        c = np.linalg.solve(a + ridge, r[:, :, None])[:, :, 0]
        c = np.where(((r * c).sum(axis=1) > 0)[:, None], c,
                     np.divide(r, a_max[:, None], out=r.copy(), where=a_max[:, None] > 0))
        slope = (r * c).sum(axis=1)
        length = np.sqrt((c * c).sum(axis=1))
        d = np.einsum("njm,mj->nm", basis, c)

        steps = step * _LADDER[:, None]
        trial = x[:, None] + steps * d[:, None]
        # np.linalg.norm's own sum, without its argument handling.
        trial /= np.sqrt((trial.conj() * trial).real.sum(axis=0))
        trial = trial.reshape(n, -1)
        trial_value, trial_grad = value_and_gradient(trial)
        evaluations += trial_value.size
        gain = trial_value.reshape(steps.shape) - value
        passing = (gain > 0) & (gain >= steps * slope / 2)
        rung = np.where(passing, gain, -np.inf).argmax(axis=0)
        at = np.arange(cols.size)
        ok = passing[rung, at]
        step = np.where(ok, steps[rung, at], step * _FALLBACK)
        taken = rung * cols.size + at
        new = np.stack([trial.take(taken, axis=1), trial_grad.take(taken, axis=1)])
        new[1] -= new[0] * _inner(new[0], new[1])
        work = np.where(ok, new, work)
        value = np.where(ok, trial_value[taken], value)
    states[:, cols] = work[0]
    if evaluations > states.shape[1]:
        # A value found within a ladder can differ in its last bit from the
        # same column's value in a narrower call (BLAS blocks the columns by
        # the call's width), so the values are those of one call on the states.
        values = value_and_gradient(states)[0]
        evaluations += states.shape[1]
    return Refinement(states=states, values=values, fun=-float(np.max(values)), nfev=evaluations)


def _tangle_gain_objective(u: np.ndarray):
    """Values C(U psi)^2 - C(psi)^2 of unit inputs, with their Wirtinger gradients.

    C(U psi) = |psi^T G psi| with G = U^T (sy (x) sy) U, and C(psi) the same
    with G = sy (x) sy.  For z = psi^T G psi the Wirtinger gradient of |z|^2
    is 2 z conj(G psi).
    """
    forms = np.stack([u.T @ SIGMA_YY @ u, SIGMA_YY])

    def value_and_gradient(psi):
        forms_psi = forms @ psi
        z = np.sum(psi * forms_psi, axis=1)
        terms = z.real ** 2 + z.imag ** 2
        gradients = 2 * z[:, None] * forms_psi.conj()
        return terms[0] - terms[1], gradients[0] - gradients[1]

    return value_and_gradient


def max_delta_concurrence(u: np.ndarray) -> SearchResult:
    """Maximum concurrence gain C(U psi) - C(psi) over all two-qubit pure inputs.

    The maximum equals the product capacity ``c_max_prod``: no entangled
    input gains more than the best product input does.  (In the magic basis
    the gain is at most max_k |w_k - omega| for any |omega| <= 1, w_k the
    eigenvalues of U_d^2, and half the widest spectral chord is
    ``c_max_prod``.)  That bound is proved, not searched, so this is not an
    independent search: it returns the product search's maximiser, with its
    gain C(U psi) - C(psi) recomputed from the state and clipped to [0, 1],
    and the product search's ``evaluations``.  The product search comes
    from the one-entry memo of ``max_concurrence_product``, so right after
    a product search on the same gate it costs nothing, and the
    state returned is the memo's read-only array.  The gate is checked
    once, here.
    """
    u = check_unitary(u)
    prod_search = _product_search(u.tobytes())
    state = prod_search.argmax_state
    value = float(_concurrence(u @ state) - _concurrence(state))
    return SearchResult(value=min(max(value, 0.0), 1.0), argmax_state=state,
                        evaluations=prod_search.evaluations)


def max_concurrence_unrestricted(u: np.ndarray,
                                 cfg: SearchConfig = SearchConfig()) -> SearchResult:
    """Unrestricted entangling capacity: sqrt of max [C(U psi)^2 - C(psi)^2].

    The maximum runs over all two-qubit pure inputs, entangled ones
    included; this is the quantity the closed-form ``c_max`` stands for.
    ``coarse_grid_per_angle`` squared Haar-random inputs are scored by the
    tangle-gain objective itself, the best ``restarts`` of them are refined
    together by sphere ascent on that objective with no other seed, and the
    value is recomputed from the best returned state.
    """
    u = check_unitary(u)
    pool = _seeded_pool(cfg.seed)
    objective = _tangle_gain_objective(u)
    values = objective(pool)[0]
    starts = pool[:, np.argsort(values)[::-1][:SearchConfig.restarts]]
    refined = minimize(objective, starts)
    state = refined.states[:, np.argmax(refined.values)]
    tangle_gain = float(_concurrence(u @ state) ** 2 - _concurrence(state) ** 2)
    return SearchResult(value=float(np.sqrt(min(max(tangle_gain, 0.0), 1.0))),
                        argmax_state=state, evaluations=pool.shape[1] + refined.nfev)


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
    probes = _random_states(SearchConfig.restarts, np.random.default_rng(cfg.seed))
    refined = minimize(_probe_objective(v), probes)
    best = refined.states[:, np.argmax(refined.values)]
    return SearchResult(value=float(abs(np.vdot(best, v @ best))), argmax_state=best,
                        evaluations=refined.nfev)
