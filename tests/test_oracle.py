"""Dense reference implementations, checked against hand-computed values."""

import numpy as np
import pytest

from resistive_walk.errors import InvalidArgumentError
from resistive_walk.generate import fixture
from resistive_walk.oracle import (
    MAX_VERTICES,
    dense_green,
    dense_heat_kernel,
    dense_mean_exit,
    dense_resistance,
)


def test_path_resistance_is_length():
    g = fixture("path", 3)
    assert dense_resistance(g, [0], [3]) == pytest.approx(3.0, rel=1e-12)


def test_parallel_pair_resistance():
    g = fixture("parallel_pair")
    assert dense_resistance(g, [0], [1]) == pytest.approx(0.5, rel=1e-12)


def test_cycle_combines_two_arms():
    g = fixture("cycle", 4)
    # two arms of length 2 in parallel
    assert dense_resistance(g, [0], [2]) == pytest.approx(1.0, rel=1e-12)


def test_resistance_to_a_set():
    g = fixture("line", 4)
    assert dense_resistance(g, [0], [-2, 2]) == pytest.approx(1.0, rel=1e-12)


def test_resistance_refuses_overlapping_sets():
    g = fixture("line", 4)
    with pytest.raises(InvalidArgumentError, match="disjoint"):
        dense_resistance(g, [0, 1], [1, 2])


def test_heat_kernel_on_line():
    g = fixture("line", 8)
    table = dense_heat_kernel(g, 0, 4)
    oi = list(g.labels).index(0)
    assert table[0, oi] == pytest.approx(0.5)    # 1/mu(0)
    assert table[1, oi] == 0.0
    assert table[2, oi] == pytest.approx(0.25)   # p_2(0,0) = 1/4 over mu=2


def test_heat_kernel_rows_are_distributions():
    g = fixture("ladder", 3)
    table = dense_heat_kernel(g, 0, 6)
    mu = g.measure
    assert np.allclose(table @ mu, 1.0)


def test_green_row_on_three_point_interval():
    g = fixture("line", 8)
    row = dense_green(g, [-1, 0, 1], 0)
    assert row == pytest.approx([0.5, 1.0, 0.5], rel=1e-12)


def test_mean_exit_from_three_point_interval():
    g = fixture("line", 8)
    assert dense_mean_exit(g, [-1, 0, 1], 0) == pytest.approx(4.0, rel=1e-12)


def test_exit_time_grows_with_domain():
    g = fixture("line", 16)
    small = dense_mean_exit(g, [-1, 0, 1], 0)
    large = dense_mean_exit(g, list(range(-3, 4)), 0)
    assert large > small


def test_size_guard():
    g = fixture("line", MAX_VERTICES)
    with pytest.raises(InvalidArgumentError, match="oracle"):
        dense_resistance(g, [0], [1])


@pytest.mark.parametrize("reference", [dense_green, dense_mean_exit])
@pytest.mark.parametrize(
    "domain, x, message",
    [
        ([-1, 0, 0, 1], 0, "repeated vertices"),
        ([-1, 0, 1], 2, "x must lie in the domain"),
        (None, 0, "proper subset"),  # every vertex of the graph
    ],
)
def test_killed_chain_references_refuse_bad_domains(reference, domain, x, message):
    g = fixture("line", 8)
    domain = g.labels.tolist() if domain is None else domain
    with pytest.raises(InvalidArgumentError, match=message):
        reference(g, domain, x)
