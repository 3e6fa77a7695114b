"""Kernel primitives: mixture evaluation, Gram tables, compensated sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcusum import KernelSpec, compensated_sum
from kcusum.kernels import as_points, distinct_rows


def naive_eval(bandwidths, weights, z1, z2):
    """Direct per-component evaluation used as the oracle."""
    d2 = sum((a - b) ** 2 for a, b in zip(z1, z2))
    return sum(
        w * math.exp(-d2 / (2.0 * s * s)) for w, s in zip(weights, bandwidths)
    )


def test_gaussian_is_single_component_mixture():
    k = KernelSpec.gaussian(2.0)
    assert k.bandwidths.tolist() == [2.0]
    assert k.weights.tolist() == [1.0]


def test_mixture_defaults_to_equal_weights():
    k = KernelSpec.mixture([0.1, 1.0, 10.0])
    assert np.allclose(k.weights, [1 / 3, 1 / 3, 1 / 3])
    assert math.isclose(float(k.weights.sum()), 1.0, abs_tol=1e-12)


def test_eval_matches_componentwise_oracle():
    rng = np.random.default_rng(1)
    k = KernelSpec.mixture([0.1, 1.0, 10.0], [0.2, 0.3, 0.5])
    for _ in range(50):
        z1, z2 = rng.standard_normal(4), rng.standard_normal(4)
        expected = naive_eval([0.1, 1.0, 10.0], [0.2, 0.3, 0.5], z1, z2)
        assert math.isclose(k.eval(z1, z2), expected, rel_tol=0, abs_tol=1e-14)


def test_eval_identity_is_one():
    k = KernelSpec.mixture([0.5, 5.0])
    z = np.array([1.0, -2.0, 3.0])
    assert math.isclose(k.eval(z, z), 1.0, abs_tol=1e-15)


@settings(max_examples=200, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=6
    ),
    st.lists(
        st.floats(min_value=-50, max_value=50, allow_nan=False), min_size=1, max_size=6
    ),
    st.floats(min_value=1e-3, max_value=1e3),
)
def test_eval_symmetric_and_bounded(a, b, bandwidth):
    n = min(len(a), len(b))
    z1, z2 = np.array(a[:n]), np.array(b[:n])
    k = KernelSpec.gaussian(bandwidth)
    v12, v21 = k.eval(z1, z2), k.eval(z2, z1)
    assert v12 == v21
    # Strictly positive mathematically; float64 may underflow to exactly 0.
    assert 0.0 <= v12 <= 1.0


def test_gram_matches_eval_loop():
    rng = np.random.default_rng(2)
    k = KernelSpec.mixture([0.3, 3.0])
    a, b = rng.standard_normal((5, 3)), rng.standard_normal((7, 3))
    g = k.gram(a, b)
    assert g.shape == (5, 7)
    for i in range(5):
        for j in range(7):
            assert math.isclose(g[i, j], k.eval(a[i], b[j]), rel_tol=0, abs_tol=1e-12)


def test_gram_rows_do_not_depend_on_the_batch():
    """Rows and row sums of one many-row call equal one-row calls, across
    several row chunks (3000 columns give 21 rows per chunk)."""
    rng = np.random.default_rng(30)
    k = KernelSpec.mixture([0.1, 1.0, 10.0])
    a, b = rng.standard_normal((70, 4)), rng.standard_normal((3000, 4))
    g = k.gram(a, b)
    sums = g.sum(axis=1)
    for i in range(70):
        row = k.gram(a[i : i + 1], b)[0]
        assert np.array_equal(row, g[i])
        assert np.sum(row) == sums[i]
    assert np.array_equal(k.gram(a[5:18], b), g[5:18])
    assert np.array_equal(k.gram(a, np.asfortranarray(b)), g)


@pytest.mark.parametrize("dim", [1, 2, 4, 8, 9, 16])
def test_gram_rows_keep_their_bits_at_degenerate_shapes(dim):
    """Rows of 1x1, 2x1, 1x2 and 3x1 tables equal the same rows of a 5x7
    call, bit for bit, also with the columns read through a strided view
    (as the detector's window buffers pass them).  Squares of mixed
    magnitude make the order of the coordinate sum visible: a numpy
    reduction over the coordinates would add them pairwise once
    ``dim >= 8`` and move bits on single-column tables."""
    rng = np.random.default_rng(31 + dim)
    k = KernelSpec.mixture([0.3, 2.0, 40.0])
    scale = 10.0 ** rng.integers(-3, 3, dim)
    a, b = rng.standard_normal((5, dim)) * scale, rng.standard_normal((7, dim)) * scale
    full = k.gram(a, b)
    strided = np.empty((dim, 2 * b.shape[0]))
    strided[:, ::2] = b.T
    for rows, cols in ((1, 1), (2, 1), (1, 2), (3, 1)):
        want = full[:rows, :cols].tobytes()
        assert k.gram(a[:rows], b[:cols]).tobytes() == want, (rows, cols)
        assert k._gram(a[:rows], strided[:, : 2 * cols : 2]).tobytes() == want, (rows, cols)


def test_gram_keeps_precision_far_from_the_origin():
    """Far from the origin the squared distance must come from coordinate
    differences: the norm expansion loses about 1e-7 here."""
    rng = np.random.default_rng(31)
    k = KernelSpec.gaussian(0.1)
    a = 1e4 + 0.1 * rng.standard_normal((12, 8))
    b = 1e4 + 0.1 * rng.standard_normal((15, 8))
    g = k.gram(a, b)
    for i in range(12):
        for j in range(15):
            assert math.isclose(g[i, j], k.eval(a[i], b[j]), rel_tol=0, abs_tol=1e-12)


def test_gram_sum_equals_compensated_total():
    rng = np.random.default_rng(3)
    k = KernelSpec.gaussian(1.0)
    a, b = rng.standard_normal((6, 2)), rng.standard_normal((4, 2))
    assert k.gram_sum(a, b) == compensated_sum(k.gram(a, b))
    # summed one row chunk at a time (2000 columns give 32 rows per chunk)
    a, b = rng.standard_normal((100, 2)), rng.standard_normal((2000, 2))
    assert k.gram_sum(a, b) == compensated_sum(k.gram(a, b))


def repeated(rng, rows, max_count):
    """The given rows, each repeated a random number of times, shuffled."""
    counts = rng.integers(1, max_count + 1, size=len(rows))
    return rng.permutation(np.repeat(np.asarray(rows), counts, axis=0))


def test_gram_sum_with_repeated_rows_equals_compensated_total():
    """Distinct rows weighted by their counts give the bits of the sum
    over every entry.  Few distinct values make the total barely larger
    than one product, so a rounded product would show; 0.0 and -0.0 are
    grouped apart, and distant rows make some kernel values subnormal."""
    rng = np.random.default_rng(33)
    k = KernelSpec.mixture([0.1, 1.0, 10.0])
    signed_zeros = [[0.0, 0.0], [-0.0, 0.0], [0.0, -0.0]]
    for trial in range(300):
        a = rng.standard_normal((rng.integers(1, 4), 2))
        b = rng.standard_normal((rng.integers(1, 4), 2))
        if trial % 3 == 0:
            a = np.concatenate([a, signed_zeros])
            b = np.concatenate([b, [[38.0, 0.5]]])
        a, b = repeated(rng, a, 60), repeated(rng, b, 60)
        assert k.gram_sum(a, b) == compensated_sum(k.gram(a, b))
    distinct, inverse, counts = distinct_rows(a)
    assert np.array_equal(distinct[inverse], a)
    assert counts.sum() == a.shape[0]
    assert len(distinct) == len({row.tobytes() for row in a})


def test_gram_sum_with_large_counts_is_correctly_rounded():
    """Counts above 2^13 on both sides: count products exceed 26 bits,
    so the split of the counts matters.  fsum over all entries is the
    exact total correctly rounded, which is what a Fraction sum gives."""
    rng = np.random.default_rng(34)
    k = KernelSpec.mixture([0.1, 1.0, 10.0], [0.3, 0.3, 0.4])
    big = 0
    for _ in range(150):
        a = repeated(rng, rng.standard_normal((rng.integers(1, 4), 1)), 1 << 15)
        b = repeated(rng, rng.standard_normal((rng.integers(1, 4), 1)), 1 << 15)
        a_rows, _, a_counts = distinct_rows(a)
        b_rows, _, b_counts = distinct_rows(b)
        big += a_counts.max() * b_counts.max() > 1 << 26
        g = k.gram(a_rows, b_rows)
        exact = sum(
            Fraction(g[i, j]) * int(a_counts[i]) * int(b_counts[j])
            for i in range(len(a_rows))
            for j in range(len(b_rows))
        )
        assert k.gram_sum(a, b) == float(exact)
    assert big > 50


def test_self_sum_from_the_upper_triangle_keeps_the_bits():
    """``self_sum`` evaluates only the upper triangle and still gives the
    bits of the full matrix's compensated sum: ``gram`` is symmetric bit
    for bit, also far from the origin, on distinct rows, on repeated
    rows (counts up to 2^14, so doubled count products pass 2^26) and
    on a set of 2000 rows summed in 32-row chunks."""
    rng = np.random.default_rng(35)
    k = KernelSpec.mixture([0.1, 1.0, 10.0], [0.3, 0.3, 0.4])
    for trial in range(60):
        a = rng.standard_normal((rng.integers(1, 40), 2)) + (1e4 if trial % 2 else 0.0)
        g = k.gram(a, a)
        assert np.array_equal(g, g.T)
        assert k.self_sum(a) == compensated_sum(g) == k.gram_sum(a, a)
    for _ in range(40):
        a = repeated(rng, rng.standard_normal((rng.integers(1, 5), 1)), 1 << 14)
        assert k.self_sum(a) == k.gram_sum(a, a)
    a = rng.standard_normal((2000, 3))
    assert k.self_sum(a) == k.gram_sum(a, a)


def test_compensated_sum_is_fsum():
    values = [1e16, 1.0, -1e16, 1.0] * 10
    assert compensated_sum(np.array(values)) == math.fsum(values)
    assert compensated_sum(np.array(values).reshape(5, 8)) == math.fsum(values)


def test_as_points_validation():
    with pytest.raises(ValueError):
        as_points(np.empty((0, 2)), name="x")
    with pytest.raises(ValueError, match="x contains non-finite values"):
        as_points(np.array([[np.nan, 1.0]]), name="x")
    with pytest.raises(ValueError, match=r"x has a coordinate beyond \+-1e\+150"):
        as_points(np.array([[1.0, -1e200]]), name="x")
    with pytest.raises(ValueError):
        as_points(np.zeros((2, 2, 2)), name="x")


def test_kernelspec_validation():
    with pytest.raises(ValueError):
        KernelSpec.mixture([1.0, -1.0])
    with pytest.raises(ValueError):
        KernelSpec.mixture([1.0, 2.0], [0.7, 0.7])
    with pytest.raises(ValueError):
        KernelSpec.mixture([1.0, 2.0], [1.0])
    with pytest.raises(ValueError):
        KernelSpec.gaussian(0.0)


def test_kernelspec_arrays_frozen():
    k = KernelSpec.mixture([1.0, 2.0])
    with pytest.raises(ValueError):
        k.weights[0] = 0.9
    with pytest.raises(ValueError):
        k.bandwidths[0] = 0.9
