"""Tests for the brute-force search oracles."""

import warnings

import numpy as np
import pytest

from gatecap.canonical import canonical_unitary, cartan_decompose, in_weyl_region
from gatecap.distinguishability import d_min_canonical
from gatecap.entanglement import capacities_closed_form, concurrence, concurrence_conjugate_form
from gatecap.linalg import SIGMA_YY, haar_random_unitary, kron
import gatecap.oracle as oracle
from gatecap.oracle import (
    SearchConfig,
    _concurrence,
    _gain_objective,
    _probe_objective,
    _product_objective,
    _random_states,
    _takagi_top,
    max_concurrence_product,
    max_concurrence_unrestricted,
    max_delta_concurrence,
    min_probe_overlap,
    minimize,
)

PI_4 = np.pi / 4
FAST = SearchConfig(coarse_grid_per_angle=10, restarts=8)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(tolerance=-1.0)


@pytest.mark.parametrize("search", [max_concurrence_product, max_concurrence_unrestricted,
                                    max_delta_concurrence, min_probe_overlap])
def test_searches_reject_single_qubit_gates(search):
    with pytest.raises(ValueError, match="expects a 4x4 unitary"):
        search(np.eye(2, dtype=complex))


def test_concurrence_matches_spin_flip_form():
    states = _random_states(200, np.random.default_rng(0))
    spin_flip = [concurrence_conjugate_form(states[:, k]) for k in range(200)]
    assert np.max(np.abs(_concurrence(states) - spin_flip)) <= 1e-15


def _objective(name, u):
    """One of the searches' objectives for the gate u, and random unit starts for it."""
    if name == "product":
        g = (u.T @ SIGMA_YY @ u).reshape(2, 2, 2, 2)
        starts = _random_states(32, np.random.default_rng(402))[:2]
        return (_product_objective(g, g.transpose(1, 0, 3, 2)),
                starts / np.linalg.norm(starts, axis=0))
    objective = {"gain": _gain_objective(u, 1), "tangle gain": _gain_objective(u, 2),
                 "probe": _probe_objective(u)}[name]
    return objective, _random_states(32, np.random.default_rng(402))


OBJECTIVES = ["product", "gain", "tangle gain", "probe"]


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_ascend_never_lowers_a_start(objective):
    u = haar_random_unitary(4, np.random.default_rng(401))
    value_and_gradient, starts = _objective(objective, u)
    refined = minimize(value_and_gradient, starts, SearchConfig())
    values = refined.values
    assert np.all(values >= value_and_gradient(starts)[0])
    assert np.array_equal(values, value_and_gradient(refined.states)[0])
    assert np.allclose(np.linalg.norm(refined.states, axis=0), 1.0, atol=1e-12)
    assert refined.nfev > starts.shape[1]
    assert refined.fun == -np.max(values)


@pytest.mark.parametrize("objective", OBJECTIVES)
def test_objective_gradients_match_finite_differences(objective):
    # f(psi + h v) - f(psi - h v) = 4h Re(g^dag v) + O(h^3) for the Wirtinger
    # gradient g, along any direction v, tangent or not.
    u = haar_random_unitary(4, np.random.default_rng(404))
    value_and_gradient, starts = _objective(objective, u)
    rng = np.random.default_rng(405)
    v = rng.standard_normal(starts.shape) + 1j * rng.standard_normal(starts.shape)
    h = 1e-6
    slope = (value_and_gradient(starts + h * v)[0]
             - value_and_gradient(starts - h * v)[0]) / (2 * h)
    grad = value_and_gradient(starts)[1]
    assert np.max(np.abs(slope - 2 * np.real(np.sum(grad.conj() * v, axis=0)))) <= 1e-7


def test_every_search_refines_through_minimize(monkeypatch):
    # The benchmark's tracer counts refinements by wrapping oracle.minimize.
    calls = []

    def counting(*args, **kwargs):
        result = minimize(*args, **kwargs)
        calls.append(result)
        return result

    monkeypatch.setattr(oracle, "minimize", counting)
    u = haar_random_unitary(4, np.random.default_rng(406))
    for search, refinements in ((max_concurrence_product, 1), (max_concurrence_unrestricted, 1),
                                (max_delta_concurrence, 2), (min_probe_overlap, 1)):
        calls.clear()
        result = search(u, FAST)
        assert len(calls) == refinements, search.__name__
        assert sum(c.nfev for c in calls) <= result.evaluations
        assert all(c.fun == -np.max(c.values) for c in calls)


def test_ascend_zero_gradient_column_is_unchanged():
    cfg = SearchConfig()
    starts = _random_states(8, np.random.default_rng(403))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        # For U = I the output and input concurrences cancel exactly, so every
        # gradient vanishes and no step is taken.
        refined = minimize(_gain_objective(np.eye(4), 1), starts, cfg)
        assert np.array_equal(refined.states, starts)
        assert np.all(refined.values == 0)
        assert refined.nfev == starts.shape[1]

        # -|psi_0|^2 has zero gradient wherever psi_0 = 0; those columns stay
        # put while the others ascend beside them.
        def value_and_gradient(psi):
            return -np.abs(psi[0]) ** 2, -psi[0] * (np.arange(4) == 0)[:, None]

        flat = np.eye(4, dtype=complex)[:, 1:]
        states = minimize(value_and_gradient, np.column_stack([flat, starts]), cfg).states
    assert np.array_equal(states[:, :3], flat)
    assert np.max(np.abs(states[0, 3:])) <= 1e-6


def test_takagi_top_attains_largest_singular_value():
    rng = np.random.default_rng(211)
    random = rng.normal(size=(20, 2, 2)) + 1j * rng.normal(size=(20, 2, 2))
    # sigma_1 = sigma_2; for -I and diag(-1, 1) the SVD gives u1 = -conj(v1).
    degenerate = np.array([[[1, 0], [0, 1]], [[0, 1], [1, 0]], [[1, 0], [0, -1]],
                           [[-1, 0], [0, -1]], [[-1, 0], [0, 1]], [[1j, 0], [0, 1j]],
                           [[0, 0], [0, 0]]], dtype=complex)
    m = np.concatenate([random + random.transpose(0, 2, 1), degenerate])
    b, sigma = _takagi_top(m)
    assert np.allclose(np.linalg.norm(b, axis=-1), 1.0, atol=1e-12)
    assert np.allclose(sigma, np.linalg.svd(m, compute_uv=False)[:, 0], atol=1e-12)
    attained = np.abs(np.einsum("nj,njl,nl->n", b, m, b))
    assert np.max(np.abs(attained - sigma)) <= 1e-12


# Special classes with a perturbation direction that stays in the region.
SPECIAL_CLASSES = {
    "identity": ([0, 0, 0], [1, 0.5, 0.25]),
    "cnot": ([PI_4, 0, 0], [-1, 0.5, 0.25]),
    "b": ([PI_4, np.pi / 8, 0], [-1, 0.5, 0.25]),
    "controlled_sqrt_x": ([np.pi / 8, 0, 0], [1, 0.5, 0.25]),
    "swap": ([PI_4, PI_4, PI_4], [-1, -2, -3]),
    "sqrt_swap": ([np.pi / 8, np.pi / 8, np.pi / 8], [1, 0.5, 0.25]),
}


@pytest.mark.parametrize("name", sorted(SPECIAL_CLASSES))
def test_product_capacity_near_degenerate_classes(name):
    centre, direction = SPECIAL_CLASSES[name]
    rng = np.random.default_rng(307)
    for eps in (0.0, 1e-10, 1e-6, 1e-4):
        d = np.array(centre) + eps * np.array(direction)
        assert in_weyl_region(d)
        u = (kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng))
             @ canonical_unitary(d)
             @ kron(haar_random_unitary(2, rng), haar_random_unitary(2, rng)))
        result = max_concurrence_product(u)
        assert abs(result.value - capacities_closed_form(d).c_max_prod) <= 1e-9, (name, eps)
        assert abs(concurrence(u @ result.argmax_state) - result.value) <= 1e-12
        assert concurrence(result.argmax_state) <= 1e-12


def test_product_capacity_identity():
    assert max_concurrence_product(np.eye(4, dtype=complex), FAST).value <= 1e-9


def test_product_capacity_pi8():
    u = canonical_unitary([np.pi / 8, 0, 0])
    result = max_concurrence_product(u, FAST)
    assert abs(result.value - 0.70711) <= 1e-3
    # value reproduced by direct evaluation at the reported maximizer
    assert abs(concurrence(u @ result.argmax_state) - result.value) <= 1e-10


def test_product_capacity_perfect_entangler():
    u = canonical_unitary([PI_4, np.pi / 16, 0])
    assert abs(max_concurrence_product(u, FAST).value - 1.0) <= 1e-3


def test_delta_identity():
    assert max_delta_concurrence(np.eye(4, dtype=complex), FAST).value <= 1e-9


def test_delta_at_least_product_capacity():
    rng = np.random.default_rng(89)
    for _ in range(3):
        u = haar_random_unitary(4, rng)
        prod = max_concurrence_product(u, FAST).value
        delta = max_delta_concurrence(u, FAST).value
        assert delta >= prod - FAST.tolerance


def test_delta_perfect_entangler():
    u = canonical_unitary([PI_4, np.pi / 16, 0])
    assert abs(max_delta_concurrence(u, FAST).value - 1.0) <= 1e-3


def test_delta_equals_product_capacity_imperfect():
    # The best achievable gain matches the product capacity: zero-concurrence
    # inputs are exactly the product states, and entangled inputs never gain
    # more than they pay.  (A global search over all pure inputs confirms
    # this; see the product-seeded restarts in the implementation.)
    u = canonical_unitary([np.pi / 8, 0, 0])
    assert abs(max_delta_concurrence(u).value - 0.70711) <= 1e-3


def test_unrestricted_identity():
    # The square root lifts round-off in the tangle gain to ~1e-8.
    assert max_concurrence_unrestricted(np.eye(4, dtype=complex), FAST).value <= 1e-6


def test_unrestricted_pi8():
    # sqrt(c_max_prod) = sqrt(sin(pi/4)) = 2^(-1/4)
    u = canonical_unitary([np.pi / 8, 0, 0])
    result = max_concurrence_unrestricted(u, FAST)
    assert abs(result.value - 0.84090) <= 1e-3
    psi = result.argmax_state
    tangle_gain = concurrence(u @ psi) ** 2 - concurrence(psi) ** 2
    assert abs(np.sqrt(tangle_gain) - result.value) <= 1e-8


def test_unrestricted_perfect_entangler():
    u = canonical_unitary([PI_4, np.pi / 16, 0])
    assert abs(max_concurrence_unrestricted(u, FAST).value - 1.0) <= 1e-3


def test_unrestricted_determinism():
    u = haar_random_unitary(4, np.random.default_rng(101))
    a = max_concurrence_unrestricted(u, FAST)
    b = max_concurrence_unrestricted(u, FAST)
    assert a.value == b.value
    assert np.array_equal(a.argmax_state, b.argmax_state)


def test_probe_overlap_identity():
    assert abs(min_probe_overlap(np.eye(4, dtype=complex), FAST).value - 1.0) <= 1e-9


def test_probe_overlap_antipodal():
    v = np.diag([1, -1, 1, 1]).astype(complex)
    assert min_probe_overlap(v, FAST).value <= 1e-6


def test_probe_overlap_pi8_square():
    u = canonical_unitary([np.pi / 8, 0, 0])
    result = min_probe_overlap(u @ u, FAST)
    assert abs(result.value - 0.70711) <= 1e-5
    psi = result.argmax_state
    assert abs(np.abs(np.vdot(psi, u @ u @ psi)) - result.value) <= 1e-12


def test_probe_overlap_matches_closed_form():
    rng = np.random.default_rng(97)
    for _ in range(5):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, rng.uniform(-ay, ay)])
        u_d = canonical_unitary(d)
        got = min_probe_overlap(u_d @ u_d, FAST).value
        assert abs(got - d_min_canonical(d)) <= 1e-6


def test_probe_overlap_haar_draw_289():
    # A minimum on a chord between two close eigenvalues of U_d^2.
    rng = np.random.default_rng(7)
    for _ in range(290):
        u = haar_random_unitary(4, rng)
    d = cartan_decompose(u).d
    u_d = canonical_unitary(d)
    result = min_probe_overlap(u_d @ u_d)
    assert abs(result.value - d_min_canonical(d)) <= 1e-6
    psi = result.argmax_state
    assert abs(np.abs(np.vdot(psi, u_d @ u_d @ psi)) - result.value) <= 1e-12


def test_oracle_determinism():
    u = haar_random_unitary(4, np.random.default_rng(101))
    a = max_concurrence_product(u, FAST)
    b = max_concurrence_product(u, FAST)
    assert a.value == b.value
    assert np.array_equal(a.argmax_state, b.argmax_state)


def test_oracle_vs_closed_form_haar():
    rng = np.random.default_rng(103)
    for _ in range(5):
        u = haar_random_unitary(4, rng)
        caps = capacities_closed_form(cartan_decompose(u).d)
        assert abs(max_concurrence_product(u).value - caps.c_max_prod) <= 1e-3
