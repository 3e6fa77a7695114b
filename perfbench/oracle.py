"""Independent recomputation of what kcusum reports.

Nothing here imports kcusum: the benchmark checks the program's outputs
against this code, so a defect shared by both would go unseen.  Only
NumPy and the standard library are used.

* Kernel matrices come from explicit per-coordinate differences, never
  from the ``|x|^2 + |y|^2 - 2 x.y`` expansion, and totals that feed a
  statistic are summed with :func:`math.fsum`.
* Windowed discrepancies for every window position of a pair sequence
  come from the band of kernel values between pairs at most ``r - 1``
  apart and prefix sums along its diagonals.
* The CUSUM statistic comes from prefix sums and a running minimum.
* Crossing times, exclusion and truncation recompute every
  ``campaign.csv`` row, and the closed-form columns come from exact
  finite-chain quantities.
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

__all__ = [
    "lift",
    "kernel_matrix",
    "kernel_total",
    "kernel_row_totals",
    "self_mean",
    "window_discrepancies",
    "calibrated_correction",
    "cusum_series",
    "crossing_times",
    "mtbfa_rows",
    "md_rows",
    "md_ceilings",
    "naive_discrepancy",
    "naive_cusum",
]

_CHUNK = 128  # rows per kernel block: bounds the oracle's own memory


def lift(observations) -> np.ndarray:
    """``(T, d)`` observations to their ``(T - 1, 2d)`` consecutive pairs."""
    x = np.asarray(observations, dtype=float)
    return np.concatenate([x[:-1], x[1:]], axis=1)


def kernel_matrix(weights, bandwidths, a, b) -> np.ndarray:
    """Gaussian-mixture kernel between the rows of ``a`` and ``b``."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    sq = np.zeros((a.shape[0], b.shape[0]))
    for c in range(a.shape[1]):
        diff = a[:, c, None] - b[None, :, c]
        sq += diff * diff
    out = np.zeros_like(sq)
    for w, s in zip(weights, bandwidths):
        out += w * np.exp(sq / (-2.0 * s * s))
    return out


def _blocks(weights, bandwidths, a, b):
    for i in range(0, len(a), _CHUNK):
        yield kernel_matrix(weights, bandwidths, a[i : i + _CHUNK], b)


def kernel_total(weights, bandwidths, a, b) -> float:
    """Correctly rounded sum of every kernel entry between ``a`` and ``b``."""
    return math.fsum(
        v for block in _blocks(weights, bandwidths, a, b) for v in block.ravel().tolist()
    )


def kernel_row_totals(weights, bandwidths, a, b) -> np.ndarray:
    """Correctly rounded kernel sum of each row of ``a`` against all of ``b``.

    Identical rows share one evaluation, so a finite chain with few
    distinct pairs costs a handful of rows.
    """
    unique, inverse = np.unique(np.asarray(a, dtype=float), axis=0, return_inverse=True)
    totals = [
        math.fsum(row)
        for block in _blocks(weights, bandwidths, unique, b)
        for row in block.tolist()
    ]
    return np.asarray(totals)[np.ravel(inverse)]


def self_mean(weights, bandwidths, ref_pairs) -> float:
    """Mean of the reference-by-reference kernel matrix."""
    m = len(ref_pairs)
    return kernel_total(weights, bandwidths, ref_pairs, ref_pairs) / (m * m)


def _combine(within, cross, r, m, ref_self) -> np.ndarray:
    squared = np.asarray(within) / (r * r) + ref_self - 2.0 * np.asarray(cross) / (r * m)
    return np.sqrt(np.maximum(squared, 0.0))


def window_discrepancies(weights, bandwidths, pairs, ref_pairs, ref_self, r) -> np.ndarray:
    """Discrepancy of every window of ``r`` consecutive pairs.

    Entry ``j`` scores pairs ``j .. j + r - 1``.  The within-window total
    is the sum over offsets ``k`` of the kernel values between pairs
    ``k`` apart, counted twice for ``k > 0``; prefix sums along each
    offset give every window's total at once.
    """
    pairs = np.asarray(pairs, dtype=float)
    n = len(pairs)
    if n < r:
        return np.empty(0)
    count = n - r + 1
    starts = np.arange(count)
    within = np.zeros(count)
    for k in range(r):
        sq = _rowsq(pairs[: n - k] - pairs[k:])
        band = np.zeros(n - k)
        for w, s in zip(weights, bandwidths):
            band += w * np.exp(sq / (-2.0 * s * s))
        prefix = np.concatenate([[0.0], np.cumsum(band)])
        # window j covers band entries j .. j + r - 1 - k
        within += (1.0 if k == 0 else 2.0) * (prefix[starts + r - k] - prefix[starts])
    cross_rows = kernel_row_totals(weights, bandwidths, pairs, ref_pairs)
    cross_prefix = np.concatenate([[0.0], np.cumsum(cross_rows)])
    cross = cross_prefix[starts + r] - cross_prefix[starts]
    return _combine(within, cross, r, len(ref_pairs), ref_self)


def _rowsq(diff: np.ndarray) -> np.ndarray:
    """Squared row norms accumulated coordinate by coordinate."""
    sq = np.zeros(diff.shape[0])
    for c in range(diff.shape[1]):
        sq += diff[:, c] * diff[:, c]
    return sq


def calibrated_correction(values, quantile: float, margin: float) -> float:
    """Linear-interpolation ``quantile`` of ``values`` plus ``margin``."""
    ordered = sorted(float(v) for v in values)
    if quantile == 1.0:
        return ordered[-1] + margin
    h = (len(ordered) - 1) * quantile
    lo = math.floor(h)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (h - lo) * (ordered[hi] - ordered[lo]) + margin


def cusum_series(scores, min_sample: int) -> list:
    """Max of trailing sums at least ``min_sample`` long, after each score.

    ``S_n - min(S_0 .. S_{n - min_sample - 1})`` with ``S`` the prefix
    sums; ``-inf`` while no trailing sum is long enough.
    """
    prefix = [0.0] + list(accumulate(float(s) for s in scores))
    out = []
    running = math.inf
    for n in range(1, len(prefix)):
        j = n - min_sample - 1
        if j >= 0:
            running = min(running, prefix[j])
        out.append(prefix[n] - running if running < math.inf else -math.inf)
    return out


def crossing_times(series, thresholds) -> list:
    """First 1-based index at which ``series`` reaches each threshold."""
    hits = []
    for b in thresholds:
        hit = next((n for n, v in enumerate(series, start=1) if v >= b), None)
        hits.append(hit)
    return hits


def _mean_sem(values) -> tuple:
    n = len(values)
    mean = math.fsum(values) / n
    if n < 2:
        return mean, 0.0
    var = math.fsum((v - mean) ** 2 for v in values) / (n - 1)
    return mean, math.sqrt(var) / math.sqrt(n)


def mtbfa_rows(all_hits, thresholds, horizons, theory) -> list:
    """``(b, mean, sem, n_runs, theory)`` per threshold, runs truncated at the horizon."""
    rows = []
    for j, b in enumerate(thresholds):
        times = [
            float(horizons[j]) if h[j] is None or h[j] > horizons[j] else float(h[j])
            for h in all_hits
        ]
        mean, sem = _mean_sem(times)
        rows.append((b, mean, sem, len(times), theory[j]))
    return rows


def md_rows(all_hits, thresholds, horizons, tau_stat, theory) -> list:
    """Rows of a detection-delay campaign: alarms at or before ``tau_stat``
    are excluded, runs without an alarm within the horizon truncated."""
    rows = []
    for j, b in enumerate(thresholds):
        delays = []
        for h in all_hits:
            n_alarm = h[j]
            if n_alarm is not None and n_alarm <= tau_stat:
                continue
            if n_alarm is None or n_alarm - tau_stat > horizons[j]:
                delays.append(float(horizons[j]))
            else:
                delays.append(float(n_alarm - tau_stat))
        if delays:
            mean, sem = _mean_sem(delays)
            rows.append((b, mean, sem, len(delays), theory[j]))
    return rows


def _stationary(matrix: np.ndarray) -> np.ndarray:
    """Left Perron vector of a primitive stochastic matrix, by power iteration."""
    pi = np.full(matrix.shape[0], 1.0 / matrix.shape[0])
    for _ in range(100_000):
        nxt = pi @ matrix
        if np.max(np.abs(nxt - pi)) < 1e-16:
            break
        pi = nxt
    return pi / math.fsum(pi)


def _minorisation(matrix: np.ndarray) -> tuple:
    """First power whose column minima carry mass: ``(lam, lag)``."""
    power = matrix.copy()
    for lag in range(1, matrix.shape[0] ** 2 + 1):
        mass = math.fsum(power.min(axis=0))
        if mass > 0.0:
            return mass, lag
        power = power @ matrix
    raise ValueError("matrix is not primitive")


def md_ceilings(states, pre, post, weights, bandwidths, window, min_sample,
                correction, thresholds) -> list:
    """Closed-form mean-delay ceiling of a finite chain, per threshold.

    ``max(min_sample, (b + alpha) / (gamma - 2c))``, or ``inf`` without
    positive drift.  ``gamma`` is the kernel distance between the
    stationary pair laws before and after the change; ``alpha = 2 (lag +
    1) / lam`` with the post-change certificate's lag grown by ``window``
    for the sliding block.
    """
    states = np.asarray(states, dtype=float)
    pre = np.asarray(pre, dtype=float)
    post = np.asarray(post, dtype=float)
    lam, lag = _minorisation(post)
    alpha = 2.0 * (lag + window + 1) / lam
    n = len(states)
    grid = np.array([np.concatenate([states[i], states[j]]) for i in range(n) for j in range(n)])
    law_p = (_stationary(pre)[:, None] * pre).ravel()
    law_q = (_stationary(post)[:, None] * post).ravel()
    diff = law_p - law_q
    gram = kernel_matrix(weights, bandwidths, grid, grid)
    quad = math.fsum((diff[:, None] * gram * diff[None, :]).ravel().tolist())
    drift = math.sqrt(max(quad, 0.0)) - 2.0 * correction
    if drift <= 0.0:
        return [math.inf] * len(thresholds)
    return [max(float(min_sample), (b + alpha) / drift) for b in thresholds]


# -- pure-Python references for the self-check on small inputs ---------------


def _naive_kernel(weights, bandwidths, x, y) -> float:
    d2 = sum((xi - yi) ** 2 for xi, yi in zip(x, y))
    return sum(w * math.exp(-d2 / (2.0 * s * s)) for w, s in zip(weights, bandwidths))


def naive_discrepancy(weights, bandwidths, window_pairs, ref_pairs) -> float:
    """Windowed discrepancy by a double loop over plain Python lists."""
    a = [list(map(float, p)) for p in window_pairs]
    b = [list(map(float, p)) for p in ref_pairs]
    within = sum(_naive_kernel(weights, bandwidths, x, y) for x in a for y in a)
    cross = sum(_naive_kernel(weights, bandwidths, x, y) for x in a for y in b)
    ref = sum(_naive_kernel(weights, bandwidths, x, y) for x in b for y in b)
    sq = within / len(a) ** 2 + ref / len(b) ** 2 - 2.0 * cross / (len(a) * len(b))
    return math.sqrt(max(sq, 0.0))


def naive_cusum(scores, min_sample: int) -> list:
    """CUSUM statistic by enumerating every admissible trailing sum."""
    out = []
    for n in range(1, len(scores) + 1):
        sums = [sum(scores[k - 1 : n]) for k in range(1, n - min_sample + 1)]
        out.append(max(sums) if sums else -math.inf)
    return out
