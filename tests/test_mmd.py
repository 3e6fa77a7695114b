"""Discrepancy estimator: V-statistic oracle, lifting, consistency bound."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcusum import (
    KernelSpec,
    consistency_bound,
    lift,
    mmd,
    mmd_squared,
)


def naive_mmd_squared(kernel, a, b):
    """Double-loop V-statistic oracle: mean k(a,a) - 2 mean k(a,b) + mean k(b,b)."""
    t_aa = math.fsum(kernel.eval(x, y) for x in a for y in a)
    t_ab = math.fsum(kernel.eval(x, y) for x in a for y in b)
    t_bb = math.fsum(kernel.eval(x, y) for x in b for y in b)
    value = t_aa / len(a) ** 2 - 2.0 * t_ab / (len(a) * len(b)) + t_bb / len(b) ** 2
    return max(value, 0.0)


def test_matches_double_loop_oracle():
    rng = np.random.default_rng(10)
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    for _ in range(10):
        a = rng.standard_normal((rng.integers(2, 12), 3))
        b = rng.standard_normal((rng.integers(2, 12), 3)) + 0.5
        assert math.isclose(
            mmd_squared(kernel, a, b),
            naive_mmd_squared(kernel, a, b),
            rel_tol=0,
            abs_tol=1e-12,
        )


def test_identical_samples_give_zero():
    rng = np.random.default_rng(11)
    a = rng.standard_normal((8, 2))
    kernel = KernelSpec.gaussian(1.0)
    assert mmd_squared(kernel, a, a.copy()) == 0.0
    assert mmd(kernel, a, a.copy()) == 0.0


def test_symmetry_in_arguments():
    rng = np.random.default_rng(12)
    kernel = KernelSpec.gaussian(0.7)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal((9, 2)) + 1.0
    assert math.isclose(
        mmd_squared(kernel, a, b), mmd_squared(kernel, b, a), rel_tol=0, abs_tol=1e-12
    )


def test_mmd_is_square_root():
    rng = np.random.default_rng(13)
    kernel = KernelSpec.gaussian(1.5)
    a, b = rng.standard_normal((5, 2)), rng.standard_normal((5, 2)) + 2.0
    assert mmd(kernel, a, b) == math.sqrt(mmd_squared(kernel, a, b))


def test_lift_produces_adjacent_pairs():
    x = np.arange(10.0).reshape(5, 2)
    pairs = lift(x)
    assert pairs.shape == (4, 4)
    for i in range(4):
        assert pairs[i].tolist() == [*x[i], *x[i + 1]]


def test_lift_requires_two_observations():
    with pytest.raises(ValueError):
        lift(np.zeros((1, 3)))


def test_consistency_bound_frozen_arithmetic():
    # sqrt((1 + 2*3)/100) + sqrt((1 + 2*5)/25) = sqrt(0.07) + sqrt(0.44)
    out = consistency_bound(3.0, 5.0, 100, 25)
    assert math.isclose(out.term_x, math.sqrt(0.07), rel_tol=0, abs_tol=1e-15)
    assert math.isclose(out.term_y, math.sqrt(0.44), rel_tol=0, abs_tol=1e-15)
    assert out.value == out.term_x + out.term_y


def test_consistency_bound_validation():
    with pytest.raises(ValueError):
        consistency_bound(-0.1, 1.0, 10, 10)
    with pytest.raises(ValueError):
        consistency_bound(1.0, 1.0, 0, 10)


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
    st.integers(min_value=1, max_value=10_000),
    st.integers(min_value=1, max_value=10_000),
)
def test_consistency_bound_monotone_in_sample_sizes(sx, sy, nx, ny):
    small = consistency_bound(sx, sy, nx, ny).value
    large = consistency_bound(sx, sy, 2 * nx, 2 * ny).value
    assert large <= small


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=2, max_value=8), st.integers(min_value=2, max_value=8))
def test_mmd_nonnegative_property(na, nb):
    rng = np.random.default_rng(na * 100 + nb)
    kernel = KernelSpec.gaussian(1.0)
    a, b = rng.standard_normal((na, 2)), rng.standard_normal((nb, 2))
    assert mmd_squared(kernel, a, b) >= 0.0
