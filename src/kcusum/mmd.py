"""Maximum mean discrepancy between empirical samples of chain transitions.

The discrepancy is always computed on *lifted* points: a trajectory
``x_1, ..., x_T`` is turned into the pair sequence ``(x_i, x_{i+1})``,
and the kernel acts on the concatenated 2d-vectors.  Comparing pair
distributions instead of marginals is what makes the statistic sensitive
to changes in the dynamics, not just in the stationary law.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .kernels import KernelSpec, as_points

__all__ = [
    "lift",
    "mmd_squared",
    "mmd",
    "ConsistencyBound",
    "consistency_bound",
]


def lifted_pairs(chain: np.ndarray) -> np.ndarray:
    """Consecutive pairs of a ``(k, d)`` float array, shape ``(k - 1, 2d)``.

    No validation: for callers whose rows are already checked."""
    return np.concatenate((chain[:-1], chain[1:]), axis=1)


def lift(trajectory) -> np.ndarray:
    """Turn a ``(T, d)`` trajectory into its ``(T-1, 2d)`` pair array.

    Row i is ``concat(x_i, x_{i+1})`` (0-based).  The trajectory is
    validated with :func:`~kcusum.kernels.as_points` and needs at least
    two observations.
    """
    X = as_points(trajectory, name="trajectory")
    if X.shape[0] < 2:
        raise ValueError("trajectory must contain at least two observations")
    return lifted_pairs(X)


def mmd_squared(kernel: KernelSpec, a, b) -> float:
    """Squared kernel mean discrepancy between two point sets (V-statistic).

    Uses the biased estimator that keeps diagonal terms:

        t_aa / n_a^2  -  2 t_ab / (n_a n_b)  +  t_bb / n_b^2

    where each ``t`` is a full Gram-matrix sum.  The combination is
    clamped below at zero: it is a squared seminorm of a signed measure,
    so negative values can only arise from round-off.

    ``a`` and ``b`` are ``(n, k)`` point sets of equal ``k``; to compare
    trajectories by their transitions, pass ``lift(x)`` and ``lift(y)``.
    """
    A = as_points(a, name="a")
    B = as_points(b, name="b")
    if A.shape[1] != B.shape[1]:
        raise ValueError(
            f"samples must share dimension; got {A.shape[1]} and {B.shape[1]}"
        )
    na = A.shape[0]
    nb = B.shape[0]
    t_aa = kernel.self_sum(A)
    t_ab = kernel.gram_sum(A, B)
    t_bb = kernel.self_sum(B)
    value = t_aa / (na * na) - 2.0 * t_ab / (na * nb) + t_bb / (nb * nb)
    return max(value, 0.0)


def mmd(kernel: KernelSpec, a, b) -> float:
    """Square root of :func:`mmd_squared`."""
    return math.sqrt(mmd_squared(kernel, a, b))


@dataclass(frozen=True)
class ConsistencyBound:
    """High-probability deviation scale of the empirical discrepancy.

    ``value`` bounds how far the sample statistic can sit above the
    population discrepancy when both samples come from the same law;
    it is the natural choice for the detector's correction constant.
    """

    value: float
    term_x: float
    term_y: float


def consistency_bound(
    sigma_x: float, sigma_y: float, n_x: int, n_y: int
) -> ConsistencyBound:
    """Deviation scale sqrt((1 + 2 S_x)/n_x) + sqrt((1 + 2 S_y)/n_y).

    Parameters
    ----------
    sigma_x, sigma_y : float
        Summed correlation-decay envelopes of the two pair chains
        (zero for independent samples); must be non-negative.
    n_x, n_y : int
        Sample sizes (pair counts) of the two samples.
    """
    if n_x < 1 or n_y < 1:
        raise ValueError("sample sizes must be >= 1")
    if sigma_x < 0.0 or sigma_y < 0.0:
        raise ValueError("decay sums must be non-negative")
    term_x = math.sqrt((1.0 + 2.0 * sigma_x) / n_x)
    term_y = math.sqrt((1.0 + 2.0 * sigma_y) / n_y)
    return ConsistencyBound(value=term_x + term_y, term_x=term_x, term_y=term_y)
