"""Closed-form guarantees: frozen arithmetic and dominance properties."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcusum import (
    BoundReport,
    DoeblinParams,
    MdBound,
    MtbfaBound,
    bound_report,
    buffer_doeblin,
    hoeffding_tail,
    md_upper_bound,
    mtbfa_lower_bound,
    rho_envelope,
    sigma_from_doeblin,
)


def test_doeblin_params_validation():
    DoeblinParams(lam=0.5, lag=3)
    DoeblinParams(lam=0.5, lag=2**53 - 1)
    bad = ((0.0, 1), (1.0, 1), (1.2, 1), (-0.1, 1), (0.5, 0), (0.5, 2.5), (1e-20, 1),
           (0.5, 2**53))
    for lam, lag in bad:
        with pytest.raises(ValueError):
            DoeblinParams(lam=lam, lag=lag)


def test_rho_envelope_frozen_values():
    p = DoeblinParams(lam=0.3, lag=1)
    assert rho_envelope(p, 1) == 4.0  # (1-lam)^0
    assert math.isclose(rho_envelope(p, 3), 4.0 * 0.7**2, rel_tol=0, abs_tol=1e-15)
    p2 = DoeblinParams(lam=0.3, lag=2)
    assert rho_envelope(p2, 2) == 4.0
    arr = rho_envelope(p, np.array([1, 2, 3]))
    assert isinstance(arr, np.ndarray) and arr.shape == (3,)
    assert arr[0] == 4.0
    with pytest.raises(ValueError):
        rho_envelope(p, 0)


def test_sigma_frozen_value():
    # 4 / ((1 - 0.3) * (1 - 0.7)) = 4 / 0.21
    got = sigma_from_doeblin(DoeblinParams(lam=0.3, lag=1))
    assert math.isclose(got, 19.047619047619047, rel_tol=0, abs_tol=1e-12)


def test_sigma_of_a_tiny_buffered_certificate():
    # (1 - lam)^(1/lag) rounds to 1 here; the sum is about 4 lag / lam
    p = buffer_doeblin(DoeblinParams(lam=1e-15, lag=1), 50)
    assert math.isclose(sigma_from_doeblin(p), 4.0 * 51 / 1e-15, rel_tol=1e-9)


@settings(max_examples=150, deadline=None)
@given(
    st.floats(min_value=0.01, max_value=0.99),
    st.integers(min_value=1, max_value=10),
    st.integers(min_value=1, max_value=2000),
)
def test_sigma_dominates_partial_sums(lam, lag, horizon):
    p = DoeblinParams(lam=lam, lag=lag)
    partial = float(np.sum(rho_envelope(p, np.arange(1, horizon + 1))))
    assert sigma_from_doeblin(p) >= partial


def test_buffer_doeblin_adds_window_to_lag():
    p = DoeblinParams(lam=0.3, lag=2)
    out = buffer_doeblin(p, 5)
    assert out == DoeblinParams(lam=0.3, lag=7)
    assert buffer_doeblin(p, 0) == p
    with pytest.raises(ValueError):
        buffer_doeblin(p, -1)
    with pytest.raises(ValueError):
        buffer_doeblin(p, 1.5)


@settings(max_examples=50, deadline=None)
@given(
    st.floats(min_value=0.05, max_value=0.95),
    st.integers(min_value=1, max_value=5),
    st.integers(min_value=0, max_value=50),
)
def test_buffering_never_improves_mixing(lam, lag, window):
    p = DoeblinParams(lam=lam, lag=lag)
    assert sigma_from_doeblin(buffer_doeblin(p, window)) >= sigma_from_doeblin(p)


def test_hoeffding_frozen_value():
    p = DoeblinParams(lam=0.5, lag=1)  # mu = 2 * 2 * 1 / 0.5 = 8
    got = hoeffding_tail(1.0, p, n=100, eps=1.0)
    assert math.isclose(got, 0.14201070747927397, rel_tol=0, abs_tol=1e-15)


def test_hoeffding_caps_at_one():
    p = DoeblinParams(lam=0.5, lag=1)
    assert hoeffding_tail(1.0, p, n=100, eps=0.5) == 1.0


def test_hoeffding_preconditions():
    p = DoeblinParams(lam=0.5, lag=1)
    with pytest.raises(ValueError, match="needs n >"):
        hoeffding_tail(1.0, p, n=16, eps=0.5)  # n <= mu / eps = 16
    with pytest.raises(ValueError):
        hoeffding_tail(0.0, p, n=100, eps=0.5)
    with pytest.raises(ValueError):
        hoeffding_tail(1.0, p, n=100, eps=0.0)
    with pytest.raises(ValueError):
        hoeffding_tail(1.0, p, n=0, eps=0.5)


@settings(max_examples=80, deadline=None)
@given(st.integers(min_value=20, max_value=100_000))
def test_hoeffding_decreases_in_n(n):
    p = DoeblinParams(lam=0.5, lag=1)
    a = hoeffding_tail(1.0, p, n=n, eps=1.0)
    b = hoeffding_tail(1.0, p, n=2 * n, eps=1.0)
    assert b <= a


def test_mtbfa_frozen_informative():
    p = DoeblinParams(lam=0.3, lag=6)  # alpha1 = 2 * 7 / 0.3
    out = mtbfa_lower_bound(80.0, 10, p)
    assert isinstance(out, MtbfaBound)
    assert math.isclose(out.alpha1, 46.66666666666667, rel_tol=0, abs_tol=1e-12)
    assert math.isclose(out.value, 42.33333333333333, rel_tol=0, abs_tol=1e-12)
    assert out.informative


def test_mtbfa_frozen_floor():
    p = DoeblinParams(lam=0.3, lag=6)
    out = mtbfa_lower_bound(20.0, 10, p)  # threshold below alpha1
    assert out.value == 9.0
    assert not out.informative


def test_mtbfa_validation():
    p = DoeblinParams(lam=0.3, lag=1)
    with pytest.raises(ValueError):
        mtbfa_lower_bound(5.0, 0, p)
    with pytest.raises(ValueError):
        mtbfa_lower_bound(0.0, 10, p)


@settings(max_examples=60, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=500.0),
    st.floats(min_value=0.1, max_value=500.0),
)
def test_mtbfa_monotone_in_threshold(b1, b2):
    p = DoeblinParams(lam=0.3, lag=3)
    lo, hi = sorted((b1, b2))
    assert (
        mtbfa_lower_bound(lo, 7, p).value <= mtbfa_lower_bound(hi, 7, p).value
    )


def test_md_frozen_value():
    p = DoeblinParams(lam=0.3, lag=6)  # alpha = 2 * 7 / 0.3
    out = md_upper_bound(5.0, 10, gamma=0.5, correction=0.1, post_params=p)
    assert isinstance(out, MdBound)
    assert math.isclose(out.drift, 0.3, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(out.value, 172.22222222222226, rel_tol=0, abs_tol=1e-12)
    assert out.detectable


def test_md_min_sample_floor():
    p = DoeblinParams(lam=0.999, lag=1)  # alpha barely above 4
    out = md_upper_bound(1.0, 50, gamma=100.0, correction=0.0, post_params=p)
    assert out.value == 50.0


def test_md_undetectable_when_drift_nonpositive():
    p = DoeblinParams(lam=0.3, lag=6)
    for gamma, c in ((0.2, 0.1), (0.1, 0.2)):
        out = md_upper_bound(5.0, 10, gamma=gamma, correction=c, post_params=p)
        assert out.value == math.inf
        assert not out.detectable


def test_md_validation():
    p = DoeblinParams(lam=0.3, lag=1)
    with pytest.raises(ValueError):
        md_upper_bound(5.0, 0, gamma=0.5, correction=0.0, post_params=p)
    with pytest.raises(ValueError):
        md_upper_bound(0.0, 10, gamma=0.5, correction=0.0, post_params=p)
    with pytest.raises(ValueError):
        md_upper_bound(5.0, 10, gamma=-0.1, correction=0.0, post_params=p)
    with pytest.raises(ValueError):
        md_upper_bound(5.0, 10, gamma=0.5, correction=-0.1, post_params=p)


def test_bound_report_wires_both_bounds():
    pre = DoeblinParams(lam=0.3, lag=6)
    post = DoeblinParams(lam=0.4, lag=6)
    rep = bound_report(80.0, 10, pre, post, gamma=0.5, correction=0.1)
    assert isinstance(rep, BoundReport)
    assert rep.mtbfa == mtbfa_lower_bound(80.0, 10, pre)
    assert rep.md == md_upper_bound(80.0, 10, 0.5, 0.1, post)
