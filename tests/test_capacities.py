"""Tests for the classical-capacity formulas and the two capacity relations."""

import dataclasses

import numpy as np
import pytest

from gatecap.capacities import (
    c1_two_pure,
    c_inf_two_pure,
    ensemble_entropy_two_pure,
    verify_relation1,
    verify_relation2,
)

PI_4 = np.pi / 4


def test_c1_endpoints():
    assert c1_two_pure(0.0) == 1.0
    assert c1_two_pure(1.0) == 0.0
    assert abs(c1_two_pure(0.70711) - 0.3991) <= 1e-4


def test_c_inf_endpoints():
    assert c_inf_two_pure(0.0) == 1.0
    assert c_inf_two_pure(1.0) == 0.0
    assert abs(c_inf_two_pure(0.70711) - 0.6009) <= 1e-4


def test_capacity_range_checks():
    with pytest.raises(ValueError):
        c1_two_pure(1.5)
    with pytest.raises(ValueError):
        c_inf_two_pure(-0.1)
    with pytest.raises(ValueError):
        ensemble_entropy_two_pure(2.0, 0.5)


def test_collective_never_below_first_order():
    for s in np.linspace(0, 1, 1001):
        assert c_inf_two_pure(s) >= c1_two_pure(s) - 1e-12


def test_ensemble_entropy_values():
    assert ensemble_entropy_two_pure(1.0, 0.3) == 0.0
    assert ensemble_entropy_two_pure(0.5, 0.0) == 1.0
    assert abs(ensemble_entropy_two_pure(0.5, 0.70711) - 0.6009) <= 1e-4


def test_ensemble_entropy_maximized_at_half():
    for s in np.linspace(0, 1, 21):
        best = ensemble_entropy_two_pure(0.5, s)
        for p in np.linspace(0, 1, 21):
            assert ensemble_entropy_two_pure(p, s) <= best + 1e-12


def test_relation1_residuals():
    assert verify_relation1([0, 0, 0]).relation_residual <= 1e-9
    assert verify_relation1([np.pi / 8, 0, 0]).relation_residual <= 1e-3
    assert verify_relation1([PI_4, 0, 0]).relation_residual <= 1e-3


def test_relation2_residuals():
    assert verify_relation2([0, 0, 0]).relation_residual <= 1e-9
    assert verify_relation2([np.pi / 8, 0, 0]).relation_residual <= 1e-3
    assert verify_relation2([PI_4, 0, 0]).relation_residual <= 1e-3


@pytest.mark.parametrize("relation", [verify_relation1, verify_relation2])
def test_relations_check_the_triple_before_they_search(relation, monkeypatch):
    import gatecap.capacities as capacities

    def no_search(*args):
        raise AssertionError("searched a triple outside the region")

    monkeypatch.setattr(capacities, "max_concurrence_product", no_search)
    monkeypatch.setattr(capacities, "min_probe_overlap", no_search)
    with pytest.raises(ValueError, match="outside the region"):
        relation([0.3, 0.2, -0.25])


@pytest.mark.parametrize("relation, search", [(verify_relation1, "max_concurrence_product"),
                                              (verify_relation2, "min_probe_overlap")])
def test_each_relation_reads_its_own_search(relation, search, monkeypatch):
    # A search value off by 0.1 must show in the residual: a relation that
    # read the closed form instead would still pass at 1e-16.
    import gatecap.capacities as capacities

    real = getattr(capacities, search)

    def off_by_0_1(*args):
        result = real(*args)
        return dataclasses.replace(result, value=result.value - 0.1)

    monkeypatch.setattr(capacities, search, off_by_0_1)
    assert relation([np.pi / 8, 0, 0]).relation_residual > 1e-2


def test_relation2_random_triples():
    rng = np.random.default_rng(109)
    for _ in range(5):
        ax, ay = np.sort(rng.uniform(0, PI_4, 2))[::-1]
        d = np.array([ax, ay, rng.uniform(-ay, ay)])
        assert verify_relation2(d).relation_residual <= 1e-3
