"""Tests for the brute-force search oracles."""

import numpy as np
import pytest
from scipy.optimize import minimize

from gatecap.canonical import canonical_unitary, cartan_decompose, in_weyl_region
from gatecap.distinguishability import d_min_canonical
from gatecap.entanglement import capacities_closed_form, concurrence, concurrence_conjugate_form
from gatecap.linalg import haar_random_unitary, kron
from gatecap.oracle import (
    SearchConfig,
    _concurrence,
    _general_state,
    _refine_batch,
    _takagi_top,
    max_concurrence_product,
    max_concurrence_unrestricted,
    max_delta_concurrence,
    min_probe_overlap,
)

PI_4 = np.pi / 4
FAST = SearchConfig(coarse_grid_per_angle=10, restarts=8)


def test_config_validation():
    with pytest.raises(ValueError):
        SearchConfig(restarts=0)
    with pytest.raises(ValueError):
        SearchConfig(tolerance=-1.0)


def test_general_state_batch_matches_single():
    rng = np.random.default_rng(0)
    angles = np.column_stack([rng.uniform(0, np.pi, (200, 3)),
                              rng.uniform(0, 2 * np.pi, (200, 3))])
    batch = _general_state(angles)
    assert all(np.array_equal(batch[:, k], _general_state(angles[k])) for k in range(200))
    spin_flip = [concurrence_conjugate_form(batch[:, k]) for k in range(200)]
    assert np.max(np.abs(_concurrence(batch) - spin_flip)) <= 1e-15


def _scipy_nelder_mead(objective, x0, cfg):
    return minimize(objective, x0, method="Nelder-Mead",
                    options={"maxiter": cfg.refine_iterations,
                             "xatol": cfg.tolerance / 10, "fatol": cfg.tolerance / 10})


def test_refine_batch_matches_scipy():
    cfg = SearchConfig()
    u = haar_random_unitary(4, np.random.default_rng(401))

    def objective(x):
        psi = _general_state(x)
        return -(_concurrence(u @ psi) ** 2 - _concurrence(psi) ** 2)

    x0s = np.random.default_rng(402).uniform(0, np.repeat([np.pi, 2 * np.pi], 3), (32, 6))
    xs, values, nfev = _refine_batch(objective, x0s, cfg)
    reference = [_scipy_nelder_mead(objective, x0, cfg) for x0 in x0s]
    assert nfev.sum() == sum(res.nfev for res in reference)
    assert np.max(np.abs(xs - [res.x for res in reference])) <= 1e-9
    assert np.max(np.abs(values - [res.fun for res in reference])) <= 1e-12


def test_refine_batch_converged_start_is_unchanged():
    # The initial simplex of this start already meets the stopping rule and
    # the start is its best vertex; the second row still has to move.
    cfg = SearchConfig()

    def objective(x):
        return np.sum(x ** 2, axis=-1)

    x0s = np.array([np.full(6, 1e-8), np.full(6, 0.5)])
    xs, values, nfev = _refine_batch(objective, x0s, cfg)
    assert np.array_equal(xs[0], x0s[0])
    assert values[0] == objective(x0s[0])
    assert nfev[0] == 7
    reference = _scipy_nelder_mead(objective, x0s[1], cfg)
    assert nfev[1] == reference.nfev > 7
    assert np.max(np.abs(xs[1] - reference.x)) <= 1e-9


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
