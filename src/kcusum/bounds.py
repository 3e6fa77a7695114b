"""Closed-form performance guarantees for the streaming detector.

Everything here is driven by a Doeblin minorisation of the monitored
chain: if some power ``P^l`` of the transition kernel dominates
``lam * phi`` for a fixed probability measure ``phi``, the chain mixes
geometrically and every quantity below follows in closed form.  The
guarantees are for the *pair* chain the detector actually sees, so the
helpers take parameters of the lifted chain (see ``buffer_doeblin`` for
how buffering degrades them).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

__all__ = [
    "DoeblinParams",
    "sigma_from_doeblin",
    "rho_envelope",
    "hoeffding_tail",
    "buffer_doeblin",
    "MtbfaBound",
    "mtbfa_lower_bound",
    "MdBound",
    "md_upper_bound",
    "BoundReport",
    "bound_report",
]


@dataclass(frozen=True)
class DoeblinParams:
    """Minorisation certificate ``P^lag(x, .) >= lam * phi(.)``.

    Parameters
    ----------
    lam : float
        Minorisation mass, in (0, 1), with ``1 - lam < 1`` in floating
        point.  Larger means faster mixing.
    lag : int
        Power of the kernel at which the minorisation holds, in
        [1, 2**53): the bounds divide by it as a float, and every
        integer below 2**53 converts exactly.
    """

    lam: float
    lag: int

    def __post_init__(self) -> None:
        if not (0.0 < self.lam < 1.0):
            raise ValueError(f"lam must lie in (0, 1); got {self.lam!r}")
        if 1.0 - self.lam == 1.0:
            # the envelope 4 (1 - lam)^(t/lag - 1) would not decay at all
            raise ValueError(f"lam is too small to separate 1 - lam from 1; got {self.lam!r}")
        if int(self.lag) != self.lag or not 1 <= self.lag < 2**53:
            raise ValueError(f"lag must be an integer in [1, 2**53); got {self.lag!r}")
        object.__setattr__(self, "lag", int(self.lag))


def rho_envelope(params: DoeblinParams, t) -> float | np.ndarray:
    """Correlation-decay envelope ``4 (1 - lam)^(t/lag - 1)`` at lag ``t >= 1``.

    Accepts a scalar or array of lags.
    """
    t_arr = np.asarray(t, dtype=float)
    if np.any(t_arr < 1):
        raise ValueError("lags must be >= 1")
    out = 4.0 * (1.0 - params.lam) ** (t_arr / params.lag - 1.0)
    return float(out) if np.isscalar(t) or t_arr.ndim == 0 else out


def sigma_from_doeblin(params: DoeblinParams) -> float:
    """Closed-form sum of the decay envelope over all lags t >= 0.

    Geometric series value 4 / ((1 - lam) * (1 - (1 - lam)^(1/lag))).
    It dominates every partial sum of :func:`rho_envelope` from t = 1,
    which is all the deviation bounds need.  The divisor
    ``1 - (1 - lam)^(1/lag)`` is evaluated as ``-expm1(log1p(-lam) / lag)``:
    the plain form rounds to 0 once ``lam / lag`` falls below about
    1e-16, as it does for a small ``lam`` lifted by :func:`buffer_doeblin`.
    """
    one_minus = 1.0 - params.lam
    return 4.0 / (one_minus * -math.expm1(math.log1p(-params.lam) / params.lag))


def buffer_doeblin(params: DoeblinParams, window: int) -> DoeblinParams:
    """Minorisation certificate for the sliding block of ``window + 1`` states.

    If the underlying chain satisfies ``(lam, lag)``, the chain of
    overlapping blocks ``(x_t, ..., x_{t+window})`` satisfies
    ``(lam, lag + window)``: after ``lag`` steps the first coordinate of
    the next block couples with mass ``lam``, and the remaining
    ``window`` coordinates are then determined by running the chain
    forward from it.
    """
    if int(window) != window or window < 0:
        raise ValueError(f"window must be an integer >= 0; got {window!r}")
    return DoeblinParams(lam=params.lam, lag=params.lag + int(window))


def hoeffding_tail(norm_f: float, params: DoeblinParams, n: int, eps: float) -> float:
    """Tail bound for a bounded ergodic average deviating by ``eps``.

    For ``f`` with sup-norm ``norm_f`` and a chain with certificate
    ``params``, bounds P(|mean_n f - pi(f)| > eps) by

        2 exp( -2 (n eps - mu)^2 / (n mu^2) ),   mu = 2 (lag + 1) norm_f / lam,

    valid once ``n > mu / eps``; capped at one, since it is a
    probability.  Raises if ``n`` is too small for validity.
    """
    if norm_f <= 0.0:
        raise ValueError("norm_f must be positive")
    if eps <= 0.0:
        raise ValueError("eps must be positive")
    if n < 1:
        raise ValueError("n must be >= 1")
    mu = 2.0 * (params.lag + 1) * norm_f / params.lam
    if n <= mu / eps:
        raise ValueError(
            f"bound needs n > {mu / eps:.6g} for eps={eps!r}; got n={n}"
        )
    exponent = -2.0 * (n * eps - mu) ** 2 / (n * mu * mu)
    return min(1.0, 2.0 * math.exp(exponent))


def _alarm_drift_scale(params: DoeblinParams) -> float:
    """Per-step slack 2 (lag + 1) / lam absorbed by chain dependence."""
    return 2.0 * (params.lag + 1) / params.lam


@dataclass(frozen=True)
class MtbfaBound:
    """Lower bound on the mean number of steps between false alarms.

    ``informative`` is False when the threshold does not clear the
    dependence slack ``alpha1``; the bound then degenerates to the
    trivial ``min_sample - 1`` floor and says nothing useful.
    """

    value: float
    alpha1: float
    informative: bool


def mtbfa_lower_bound(
    threshold: float, min_sample: int, pre_params: DoeblinParams
) -> MtbfaBound:
    """Mean time between false alarms is at least ``min_sample - 1 + (b - alpha1)``.

    ``pre_params`` must certify the sliding-block chain the scores are a
    function of: compose :func:`buffer_doeblin` with the raw-chain
    certificate.
    """
    if min_sample < 1:
        raise ValueError("min_sample must be >= 1")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    alpha1 = _alarm_drift_scale(pre_params)
    informative = threshold > alpha1
    value = min_sample - 1 + max(threshold - alpha1, 0.0)
    return MtbfaBound(value=value, alpha1=alpha1, informative=informative)


@dataclass(frozen=True)
class MdBound:
    """Upper bound on the mean detection delay after a change.

    ``drift`` is the per-step detectability margin gamma - 2c.  When it
    is not positive the statistic has no guaranteed upward drift under
    the post-change law, ``detectable`` is False and ``value`` is inf.
    """

    value: float
    drift: float
    alpha: float
    detectable: bool


def md_upper_bound(
    threshold: float,
    min_sample: int,
    gamma: float,
    correction: float,
    post_params: DoeblinParams,
) -> MdBound:
    """Mean delay is at most ``max(min_sample, (b + alpha) / drift)``.

    Parameters
    ----------
    gamma : float
        Population discrepancy between the pre- and post-change pair
        laws (unsquared).
    correction : float
        The detector's correction constant c; the guaranteed per-step
        drift of the score after the change is ``gamma - 2 c``.
    post_params : DoeblinParams
        Certificate of the post-change sliding-block chain (compose
        :func:`buffer_doeblin` with the raw-chain certificate).
    """
    if min_sample < 1:
        raise ValueError("min_sample must be >= 1")
    if threshold <= 0.0:
        raise ValueError("threshold must be positive")
    if gamma < 0.0:
        raise ValueError("gamma must be non-negative")
    if correction < 0.0:
        raise ValueError("correction must be non-negative")
    alpha = _alarm_drift_scale(post_params)
    drift = gamma - 2.0 * correction
    if drift <= 0.0:
        return MdBound(value=math.inf, drift=drift, alpha=alpha, detectable=False)
    value = max(float(min_sample), (threshold + alpha) / drift)
    return MdBound(value=value, drift=drift, alpha=alpha, detectable=True)


@dataclass(frozen=True)
class BoundReport:
    """Both guarantees side by side for one detector configuration."""

    mtbfa: MtbfaBound
    md: MdBound


def bound_report(
    threshold: float,
    min_sample: int,
    pre_params: DoeblinParams,
    post_params: DoeblinParams,
    gamma: float,
    correction: float,
) -> BoundReport:
    """Evaluate both closed-form guarantees for one configuration.

    ``pre_params`` and ``post_params`` certify the pair chains before
    and after the change (use :func:`buffer_doeblin` composed with a
    lifted-chain certificate when starting from raw-chain parameters).
    """
    return BoundReport(
        mtbfa=mtbfa_lower_bound(threshold, min_sample, pre_params),
        md=md_upper_bound(threshold, min_sample, gamma, correction, post_params),
    )
