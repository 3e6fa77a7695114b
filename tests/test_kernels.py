"""Kernel primitives: mixture evaluation, Gram tables, compensated sums."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcusum import KernelSpec, compensated_sum
from kcusum.kernels import _exact_parts, as_points, distinct_rows


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
    bufsize = np.getbufsize()
    g = k.gram(a, b)
    assert np.getbufsize() == bufsize  # the many-row table restores numpy's buffer size
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
    """Counts above 2^13 on both sides: count products exceed 2^26, so
    each extraction pass takes fewer bits of the values.  fsum over all
    entries is the exact total correctly rounded, which is what a
    Fraction sum gives."""
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


def fsum_outcome(total, values):
    """``total(values)`` as a hex string, or the exception it raises."""
    try:
        return float.hex(total(values))
    except (OverflowError, ValueError) as exc:
        return type(exc).__name__, str(exc)


def assert_sums_like_fsum(values):
    """``compensated_sum`` and ``fsum`` over ``_exact_parts`` give the
    bits, or the exception, of ``math.fsum`` over the values."""
    expected = fsum_outcome(math.fsum, np.asarray(values, dtype=float).ravel().tolist())
    assert fsum_outcome(compensated_sum, values) == expected
    assert fsum_outcome(lambda v: math.fsum(_exact_parts(v)), np.asarray(values)) == expected


@pytest.mark.parametrize(
    "values",
    [
        [],
        [0.3],
        [-0.0],
        [5e-324, 5e-324, -1e-323, 2.2250738585072014e-308, 3e-320],
        [1e16, 1.0, -1e16, 1.0] * 10,
        [0.1, 0.2, 0.3, -0.1, -0.2, -0.3],
        np.array([[1e16, 1.0, -1e16, 1.0]] * 10).reshape(5, 8),
        [1e308, 1e308, -1e308],  # OverflowError: intermediate overflow
        [1e308, -1e308, 1e308],
        [1.0, math.inf],
        [math.nan, 1.0],
        [math.inf, 2.0, -math.inf],  # ValueError: -inf + inf
        [math.inf, math.nan],
    ],
    ids=lambda v: f"n{np.size(v)}",
)
def test_compensated_sum_is_fsum(values):
    assert_sums_like_fsum(values)


def test_compensated_sum_raises_as_fsum_does():
    with pytest.raises(OverflowError, match="intermediate overflow in fsum"):
        compensated_sum(np.array([1e308, 1e308, -1e308]))
    with pytest.raises(ValueError, match=r"-inf \+ inf in fsum"):
        compensated_sum(np.array([math.inf, 2.0, -math.inf]))
    assert compensated_sum(np.array([1.0, math.inf])) == math.inf
    assert math.isnan(compensated_sum(np.array([math.nan, 1.0])))


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    values=st.lists(
        st.floats() | st.floats(-1.0, 1.0) | st.sampled_from([5e-324, -1e308, 1e308, 0.0, -0.0]),
        max_size=40,
    ),
    cancel=st.booleans(),
)
def test_exact_parts_equal_fsum_on_drawn_values(values, cancel):
    """Any floats, subnormal to near the float maximum, infinite and nan
    among them; ``cancel`` appends the negatives of every other value."""
    if cancel:
        values = values + [-v for v in values[::2]]
    assert_sums_like_fsum(values)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 5000),
    low=st.integers(-1074, 1024),
    span=st.integers(0, 2100),
)
def test_exact_parts_equal_fsum_on_drawn_arrays(seed, n, low, span):
    """Arrays of up to 5000 values with exponents drawn over a band of
    the float range, some 2-D: many values per part, several passes."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 1024), size=n, endpoint=True)
    values = np.ldexp(rng.uniform(-1.0, 1.0, size=n), exponents)
    if n % 2 == 0:
        values = values.reshape(2, -1)
    assert_sums_like_fsum(values)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 3000),
    low=st.integers(-1074, 900),
    span=st.integers(0, 400),
    max_weight=st.sampled_from([1, 2, 200, 2**13, 2**20]),
    zeros=st.booleans(),
)
def test_weighted_exact_parts_sum_to_the_exact_weighted_total(
    seed, n, low, span, max_weight, zeros
):
    """Values over a band of exponents, down to subnormals and up to
    2**960, some of them zeros, times integer weights up to 2**20:
    ``fsum`` of the parts is the exact weighted total rounded once, as a
    Fraction sum gives it."""
    rng = np.random.default_rng(seed)
    exponents = rng.integers(low, min(low + span, 960), size=n, endpoint=True)
    values = np.ldexp(rng.uniform(-1.0, 1.0, size=n), exponents)
    if zeros:
        values[rng.random(n) < 0.3] = 0.0
    weights = rng.integers(1, max_weight, size=n, endpoint=True)
    exact = sum(Fraction(v) * int(c) for v, c in zip(values.tolist(), weights.tolist()))
    assert math.fsum(_exact_parts(values, weights)) == float(exact)


@pytest.mark.parametrize("weights", [[2.0**52], [2**50], [2**49, 2**49], [1.0, math.inf]])
def test_exact_parts_refuse_a_total_weight_from_2_to_the_50(weights):
    """From a total weight of 2**50 a pass could take too few bits to
    end, so the call raises at once instead of looping; just below it,
    the sum is exact.  Weighted non-finite values raise too."""
    values = [0.3] * len(weights)
    with pytest.raises(ValueError, match=r"total weight below 2\*\*50"):
        _exact_parts(values, np.asarray(weights))
    assert math.fsum(_exact_parts(values[:1], [2**50 - 1])) == float(Fraction(0.3) * (2**50 - 1))
    with pytest.raises(ValueError, match="weighted exact sums take finite values"):
        _exact_parts([math.inf], [1])


def test_weighted_sums_keep_their_pinned_bits():
    """Hex values of the weighted sums, pinned when repeated rows still
    went through a split of values and counts: the ``finite-md``
    reference self-term, ``gram_sum`` of two repeated-row sets, and a
    narrow-bandwidth ``self_sum`` whose values span many binades."""
    from kcusum.detector import build_reference
    from kcusum.simulate import FiniteChain, simulate_finite

    chain = FiniteChain(states=np.array([[0.0], [1.0]]), matrix=np.array([[0.9, 0.1], [0.2, 0.8]]))
    reference = build_reference(KernelSpec.gaussian(1.0), simulate_finite(chain, 2001, 1))
    assert reference.self_mean.hex() == "0x1.6bef1328c5eb7p-1"
    rng = np.random.default_rng(0)
    a = np.repeat(rng.standard_normal((30, 4)), rng.integers(1, 200, 30), axis=0)
    b = np.repeat(rng.standard_normal((40, 4)), rng.integers(1, 200, 40), axis=0)
    assert KernelSpec.mixture([0.1, 1, 10]).gram_sum(a, b).hex() == "0x1.0d24fabd941c4p+22"
    assert KernelSpec.gaussian(0.05).self_sum(a).hex() == "0x1.770a800000000p+18"


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
