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
    "LiftedTrajectory",
    "lift",
    "mmd_squared",
    "mmd",
    "ConsistencyBound",
    "consistency_bound",
]


@dataclass(frozen=True)
class LiftedTrajectory:
    """Pair-lifted view of a trajectory.

    ``pairs[i] = concat(x_{i+1}, x_{i+2})`` (0-based storage of the
    1-based trajectory), so a trajectory of length T yields T - 1 pairs.
    """

    pairs: np.ndarray
    source_length: int

    def __post_init__(self) -> None:
        p = np.asarray(self.pairs, dtype=float)
        if p.ndim != 2 or p.shape[0] == 0:
            raise ValueError("pairs must be a non-empty (n, 2d) array")
        if p.shape[1] % 2 != 0 or p.shape[1] == 0:
            raise ValueError("pair vectors must have even positive dimension")
        if self.source_length != p.shape[0] + 1:
            raise ValueError("source_length must be one more than the pair count")
        p = p.copy()
        p.flags.writeable = False
        object.__setattr__(self, "pairs", p)

    @property
    def n_pairs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def point_dim(self) -> int:
        return int(self.pairs.shape[1] // 2)


def lift(trajectory) -> LiftedTrajectory:
    """Turn a ``(T, d)`` trajectory into its ``(T-1, 2d)`` pair sequence."""
    X = as_points(trajectory, name="trajectory")
    if X.shape[0] < 2:
        raise ValueError("trajectory must contain at least two observations")
    pairs = np.hstack([X[:-1], X[1:]])
    return LiftedTrajectory(pairs=pairs, source_length=X.shape[0])


def _pair_block(x, name: str) -> np.ndarray:
    arr = x.pairs if isinstance(x, LiftedTrajectory) else as_points(x, name=name)
    return np.asarray(arr, dtype=float)


def mmd_squared(kernel: KernelSpec, a, b) -> float:
    """Squared kernel mean discrepancy between two point sets (V-statistic).

    Uses the biased estimator that keeps diagonal terms:

        t_aa / n_a^2  -  2 t_ab / (n_a n_b)  +  t_bb / n_b^2

    where each ``t`` is a full Gram-matrix sum.  The combination is
    clamped below at zero: it is a squared seminorm of a signed measure,
    so negative values can only arise from round-off.

    ``a`` and ``b`` may be ``(n, k)`` arrays or :class:`LiftedTrajectory`
    instances (their pair blocks are used).
    """
    A = _pair_block(a, "a")
    B = _pair_block(b, "b")
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
