"""Streaming change detector: windowed kernel discrepancy fed into a CUSUM.

The detector keeps the last ``window + 1`` raw observations as
``window`` lifted pairs, scores that window against a fixed reference
sample by kernel mean discrepancy, and accumulates the corrected scores
in a CUSUM that ignores trailing sums shorter than ``min_sample`` steps.

One block scorer serves every caller.  :meth:`KernelCusumDetector.step`
hands it a block of one pair; :meth:`~KernelCusumDetector.extend`,
:func:`calibrate_correction`, the campaigns (through ``extend``) and
:meth:`~KernelCusumDetector.restore` hand it whole blocks.  When the
reference repeats pairs, as a finite chain's does, a block of more than
one pair is first grouped into its distinct pairs
(:func:`~kcusum.kernels.distinct_rows`): each distinct pair gets one
kernel row sum against the reference, which every copy of it reuses.  A
finite chain with n states has at most n^2 distinct pairs, so its blocks
cost that many reference rows whatever their length.  Data that does
not repeat (a reference with continuous support) and single steps are
not grouped.  The block then goes through in chunks of at most ``window``
pairs, each evaluated against the pairs it follows (the band of
within-window kernels).  Each pair's band row is summed once, in lag
order, when it arrives; a window value then adds r of those lag sums and
r cross row sums, O(r) work per position with no ``window x window``
table to keep.  The reference self-term comes from
:meth:`KernelSpec.self_sum <kcusum.kernels.KernelSpec.self_sum>`, which
evaluates the upper triangle of the reference Gram matrix only.

A window value reads only the pairs inside its window, in a fixed order.
Because :meth:`KernelSpec.gram` is batch-invariant and equal pairs have
equal kernel rows, it is a function of the window alone: it depends
neither on how the stream was cut into blocks, nor on which pairs
repeat, nor on what came before the window.  So ``extend`` equals a
``step`` loop bit for bit, and a restore, which rescores the buffered
pairs in one block in a fresh scorer, continues an interrupted run bit
for bit.
"""

from __future__ import annotations

import hashlib
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .kernels import KernelSpec, as_points, distinct_rows, row_chunks
from .mmd import LiftedTrajectory, lift

__all__ = [
    "ReferenceSet",
    "build_reference",
    "DetectorConfig",
    "StepOutcome",
    "CusumStream",
    "KernelCusumDetector",
    "Calibration",
    "calibrate_correction",
]

CHECKPOINT_FORMAT = "kcusum-checkpoint"
CHECKPOINT_VERSION = 2


@dataclass(frozen=True)
class ReferenceSet:
    """Fixed reference sample of lifted pairs with its cached self-term.

    ``self_mean`` is the mean of the full reference-by-reference Gram
    matrix; it enters every windowed discrepancy, so it is computed once
    here, with compensated summation over the row chunks of the upper
    triangle.

    ``pairs`` is stored column-major: that is the transposed layout in
    which :meth:`KernelSpec.gram` reads its right-hand set, so scoring
    against the reference copies nothing.  ``digest`` is a SHA-256 of
    the kernel's weights and bandwidths and of the pairs; checkpoints
    carry it, so a detector is never resumed against another reference.
    ``repeats`` says whether some pair occurs more than once, as on a
    finite chain: the detector groups the pairs of its blocks only then,
    since data that never repeats would pay for grouping and gain
    nothing.
    """

    kernel: KernelSpec
    pairs: np.ndarray
    self_mean: float = 0.0
    digest: str = field(default="", init=False, repr=False)
    repeats: bool = field(default=False, init=False, repr=False)

    def __post_init__(self) -> None:
        pairs = as_points(self.pairs, name="pairs")
        if pairs.shape[1] % 2 != 0:
            raise ValueError("reference pairs must have even dimension (lifted points)")
        pairs = np.array(pairs, order="F")
        pairs.flags.writeable = False
        m = pairs.shape[0]
        digest = hashlib.sha256()
        for arr in (self.kernel.weights, self.kernel.bandwidths, pairs):
            digest.update(repr(arr.shape).encode())
            digest.update(arr.astype("<f8").tobytes())
        distinct, _, counts = distinct_rows(pairs)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "self_mean", self.kernel._self_sum(distinct, counts) / (m * m))
        object.__setattr__(self, "digest", digest.hexdigest())
        object.__setattr__(self, "repeats", distinct.shape[0] < m)

    @property
    def n_pairs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def point_dim(self) -> int:
        return int(self.pairs.shape[1] // 2)


def build_reference(kernel: KernelSpec, history) -> ReferenceSet:
    """Reference from a raw pre-change trajectory (``(T, d)``, T >= 2).

    The trajectory is lifted to its ``T - 1`` consecutive pairs.  To use
    already-lifted pairs, construct :class:`ReferenceSet` directly.
    """
    lifted = history if isinstance(history, LiftedTrajectory) else lift(history)
    return ReferenceSet(kernel=kernel, pairs=lifted.pairs)


@dataclass(frozen=True)
class DetectorConfig:
    """Tuning of one detector instance.

    window : buffer size r, in pairs.
    min_sample : shortest trailing-sum length M the CUSUM may alarm on.
    threshold : alarm level b for the CUSUM statistic.
    correction : constant c subtracted from each windowed discrepancy.
    """

    window: int
    min_sample: int
    threshold: float
    correction: float

    def __post_init__(self) -> None:
        if int(self.window) != self.window or self.window < 1:
            raise ValueError("window must be an integer >= 1")
        if int(self.min_sample) != self.min_sample or self.min_sample < 1:
            raise ValueError("min_sample must be an integer >= 1")
        if not (math.isfinite(self.threshold) and self.threshold > 0.0):
            raise ValueError("threshold must be positive and finite")
        if not (math.isfinite(self.correction) and self.correction >= 0.0):
            raise ValueError("correction must be non-negative and finite")
        object.__setattr__(self, "window", int(self.window))
        object.__setattr__(self, "min_sample", int(self.min_sample))
        object.__setattr__(self, "threshold", float(self.threshold))
        object.__setattr__(self, "correction", float(self.correction))


@dataclass(frozen=True)
class StepOutcome:
    """Result of feeding one observation.

    index : statistic clock n (None while the buffer is still filling).
    discrepancy : windowed kernel discrepancy, before correction.
    score : discrepancy - correction, the CUSUM increment.
    statistic : CUSUM value, -inf until min_sample scores have arrived.
    alarm : statistic >= threshold at this step.
    """

    index: int | None
    discrepancy: float | None
    score: float | None
    statistic: float
    alarm: bool


def _neumaier_add(total: float, comp: float, x: float) -> tuple[float, float]:
    t = total + x
    if abs(total) >= abs(x):
        comp += (total - t) + x
    else:
        comp += (x - t) + total
    return t, comp


class CusumStream:
    """Streaming maximum of trailing sums at least ``min_sample`` long.

    After n scores s_1..s_n the statistic is

        max over 1 <= k <= n - min_sample of  (s_k + ... + s_n)

    (-inf while no admissible k exists).  Maintained in O(1) per step:
    the trailing sum equals C_n minus the smallest eligible prefix, and
    prefixes become eligible min_sample steps after they are recorded.
    Prefix sums use compensated accumulation, so they match exact
    summation to within one rounding of the true value and the statistic
    cannot drift over long streams.
    """

    __slots__ = ("min_sample", "n", "statistic", "_sum", "_comp", "_pending", "_eligible_min")

    def __init__(self, min_sample: int):
        if int(min_sample) != min_sample or min_sample < 1:
            raise ValueError("min_sample must be an integer >= 1")
        self.min_sample = int(min_sample)
        self.n = 0
        self.statistic = -math.inf
        self._sum = 0.0
        self._comp = 0.0
        self._pending: deque[tuple[int, float]] = deque()
        self._pending.append((0, 0.0))
        self._eligible_min = math.inf

    def update(self, score: float) -> float:
        """Consume one score, return the updated statistic."""
        if not math.isfinite(score):
            raise ValueError(f"score must be finite; got {score!r}")
        self.n += 1
        self._sum, self._comp = _neumaier_add(self._sum, self._comp, score)
        prefix = self._sum + self._comp
        watermark = self.n - self.min_sample - 1
        while self._pending and self._pending[0][0] <= watermark:
            _, value = self._pending.popleft()
            if value < self._eligible_min:
                self._eligible_min = value
        if self._eligible_min < math.inf:
            self.statistic = prefix - self._eligible_min
        else:
            self.statistic = -math.inf
        self._pending.append((self.n, prefix))
        return self.statistic

    def snapshot(self) -> dict:
        return {
            "n": self.n,
            "sum": self._sum.hex(),
            "comp": self._comp.hex(),
            "eligible_min": self._eligible_min.hex(),
            "statistic": self.statistic.hex(),
            "pending": [[j, value.hex()] for j, value in self._pending],
        }

    @classmethod
    def from_snapshot(cls, min_sample: int, data: dict) -> "CusumStream":
        out = cls(min_sample)
        out.n = int(data["n"])
        out._sum = float.fromhex(data["sum"])
        out._comp = float.fromhex(data["comp"])
        out._eligible_min = float.fromhex(data["eligible_min"])
        out.statistic = float.fromhex(data["statistic"])
        out._pending = deque((int(j), float.fromhex(v)) for j, v in data["pending"])
        return out


class _BlockScorer:
    """Windowed discrepancy of a stream of lifted pairs, fed in blocks.

    A window of r pairs starting at pair s has the within-window term

        within = sum over q = s .. s + r - 1 of  (2 * C_q[q - s] - k(q, q))

    where ``C_q[l] = k(q, q) + k(q, q - 1) + ... + k(q, q - l)`` sums
    pair q's kernels against itself and the l pairs before it.  When a
    pair arrives, its band row is put in lag order and stored once as
    ``D_q = 2 * C_q - k(q, q)`` (one ``np.cumsum``), together with its
    kernel row sum against the reference.  ``within`` is then one
    diagonal of the stacked D rows, and the cross term the sum of r
    consecutive row sums, so a position costs O(r) however the block is
    cut.  Both read only pairs inside the window, in a fixed order, so a
    window value is a function of its window alone: it depends neither
    on how the stream was cut into blocks nor on what came before.

    ``_lags`` and ``_cross`` hold the rows of the newest pairs, with room
    for a few windows, so the rows are shifted only when the room is
    used up.  ``_tail`` keeps the last ``window - 1`` pairs, oldest
    first, for the band of the next block.  Kernel calls go through
    ``KernelSpec._gram``: the reference was validated when it was built
    and is not rescanned on every call.
    """

    __slots__ = ("reference", "window", "_lags", "_cross", "_held", "_tail")

    def __init__(self, reference: ReferenceSet, window: int):
        self.reference = reference
        self.window = r = int(window)
        # a block chunk adds at most r rows to the r - 1 it scores against
        self._lags = np.empty((3 * r, r))
        self._cross = np.empty(3 * r)
        self._held = 0
        self._tail = np.empty((0, reference.pairs.shape[1]))

    def push(self, pairs: np.ndarray) -> list:
        """Add ``pairs`` in order; return the window value after each pair
        that leaves the window full."""
        r = self.window
        if pairs.shape[0] > 1 and self.reference.repeats:
            distinct, inverse, _ = distinct_rows(pairs)
            cross = self._cross_sums(distinct)[inverse]
        else:
            cross = self._cross_sums(pairs)
        values = []
        # chunks of at most ``window`` pairs: each pair needs the kernels
        # against the ``window - 1`` pairs before it, so a longer chunk
        # would evaluate more of its own band than it uses
        for lo in range(0, pairs.shape[0], r):
            block = pairs[lo : lo + r]
            c = block.shape[0]
            seen = np.concatenate([self._tail, block])
            # columns newest first: pair i's lags 0, 1, ... start at column c - 1 - i
            band = self.reference.kernel._gram(block, np.ascontiguousarray(seen[::-1].T))
            held = self._held
            if held + c > self._lags.shape[0]:
                keep = slice(held - (r - 1), held)
                self._lags[: r - 1] = self._lags[keep]
                self._cross[: r - 1] = self._cross[keep]
                held = r - 1
            lags = _lag_rows(band, r)
            rows = self._lags[held : held + c]
            lags.cumsum(axis=1, out=rows)
            rows *= 2.0
            rows -= lags[:, :1]
            self._cross[held : held + c] = cross[lo : lo + c]
            self._held = held + c
            # a row at index r - 1 or later has a full window behind it:
            # before the first shift rows count pairs from the stream's
            # start, and a shift keeps exactly r - 1 rows
            first = max(held, r - 1)
            if first < self._held:
                values += self._values(first - (r - 1), self._held - first)
            self._tail = seen[max(0, seen.shape[0] - (r - 1)) :]
        return values

    def _cross_sums(self, pairs: np.ndarray) -> np.ndarray:
        """Kernel row sum of each pair against the reference."""
        kernel = self.reference.kernel
        columns = self.reference.pairs.T
        out = np.empty(pairs.shape[0])
        for rows in row_chunks(pairs.shape[0], columns.shape[1]):
            out[rows] = kernel._gram(pairs[rows], columns).sum(axis=1)
        return out

    def _values(self, start: int, count: int) -> list:
        """Values of the ``count`` windows whose first rows are ``start``,
        ``start + 1``, ....  Position j's within sum is the diagonal
        ``D_{start + j + k}[k]``, k = 0 .. r - 1.  Every sum runs over a
        contiguous copy of its r values, so one position alone and a
        whole block add in the same order."""
        r = self.window
        m = self.reference.n_pairs
        if count == 1:
            # the same sums in plain floats: array set-up and arithmetic
            # would be most of a single step's cost
            diagonal = self._lags.ravel()[start * r : (start + r) * r : r + 1]
            within = float(np.add.reduce(np.ascontiguousarray(diagonal)))
            cross = float(np.add.reduce(self._cross[start : start + r]))
            squared = within / (r * r) + self.reference.self_mean - 2.0 * cross / (r * m)
            return [math.sqrt(max(squared, 0.0))]
        flat = self._lags.ravel()
        diagonals = np.lib.stride_tricks.as_strided(
            flat[start * r :], shape=(count, r), strides=(r * 8, (r + 1) * 8), writeable=False
        )
        windows = np.lib.stride_tricks.sliding_window_view(
            self._cross[start : start + count + r - 1], r
        )
        within = np.add.reduce(np.ascontiguousarray(diagonals), axis=1)
        cross = np.add.reduce(np.ascontiguousarray(windows), axis=1)
        squared = within / (r * r) + self.reference.self_mean - 2.0 * cross / (r * m)
        return np.sqrt(np.maximum(squared, 0.0)).tolist()


def _lag_rows(band: np.ndarray, r: int) -> np.ndarray:
    """The ``(c, r)`` lags of a band whose columns run newest first.

    Row i of ``band`` holds pair i of its chunk against the chunk and
    the pairs before it, newest first, so its lags 0 .. r - 1 are the
    columns from ``c - 1 - i`` on.  Rows are read as a skewed view of
    the band's memory, which copies nothing.  A band narrower than
    ``c + r - 1`` columns is padded with zeros to that width, so lags
    older than the stream's first pair read zero padding; no full window
    reads them.
    """
    c = band.shape[0]
    if band.shape[1] < c + r - 1:
        padded = np.zeros((c, c + r - 1))
        padded[:, : band.shape[1]] = band
        band = padded
    if c == 1:
        return band[:, :r]
    width = band.shape[1] - 1
    return band.ravel()[c - 1 : c - 1 + c * width].reshape(c, width)[:, :r]


def _pairs(chain: np.ndarray) -> np.ndarray:
    """Consecutive pairs of a ``(k, d)`` run of observations, ``(k - 1, 2d)``."""
    return np.concatenate((chain[:-1], chain[1:]), axis=1)


_WARMING_UP = StepOutcome(
    index=None, discrepancy=None, score=None, statistic=-math.inf, alarm=False
)


class KernelCusumDetector:
    """Online monitor: feed observations, read CUSUM statistic and alarms.

    The first statistic appears once ``window + 1`` raw observations
    have arrived (the buffer needs ``window`` pairs); from then on each
    step advances the statistic clock n by one.  ``alarmed_at`` records
    the first n whose statistic reached the threshold and stays frozen
    until :meth:`reset`.
    """

    def __init__(self, reference: ReferenceSet, config: DetectorConfig):
        if reference.n_pairs < 1:
            raise ValueError("reference must contain at least one pair")
        self.reference = reference
        self.config = config
        self._dim = reference.point_dim
        self._raw: deque[np.ndarray] = deque(maxlen=config.window + 1)
        self._scorer = _BlockScorer(reference, config.window)
        self._cusum = CusumStream(config.min_sample)
        self._alarmed_at: int | None = None

    @property
    def n(self) -> int:
        """Statistic clock: number of scores produced so far."""
        return self._cusum.n

    @property
    def alarmed_at(self) -> int | None:
        """Statistic index of the first alarm, or None."""
        return self._alarmed_at

    @property
    def dim(self) -> int:
        return self._dim

    def buffer_pairs(self) -> np.ndarray:
        """Current buffer pairs, oldest first (may be shorter than window)."""
        if len(self._raw) < 2:
            return np.empty((0, 2 * self._dim))
        return _pairs(np.array(self._raw))

    def step(self, observation) -> StepOutcome:
        """Feed one observation, get the updated detector state."""
        y = np.asarray(observation, dtype=float)
        if y.ndim != 1 or y.shape[0] != self._dim:
            raise ValueError(
                f"observation must be a 1-D vector of dimension {self._dim}"
            )
        if not np.isfinite(y).all():
            raise ValueError("observation contains non-finite values")
        return self._advance(y[None, :])[0]

    def extend(self, observations) -> list[StepOutcome]:
        """Feed a batch of observations (rows), returning one outcome each.

        The batch is scored as one block; the outcomes equal those of a
        :meth:`step` loop over its rows, bit for bit.
        """
        X = as_points(observations, name="observations")
        if X.shape[1] != self._dim:
            raise ValueError(f"observations must have dimension {self._dim}")
        return self._advance(X)

    def _advance(self, X: np.ndarray) -> list[StepOutcome]:
        """Score the validated ``(k, dim)`` rows ``X`` as one block."""
        chain = np.concatenate((self._raw[-1][None, :], X)) if self._raw else X
        values = self._scorer.push(_pairs(chain))
        self._raw.extend(row.copy() for row in X[-(self.config.window + 1) :])
        outcomes = [_WARMING_UP] * (X.shape[0] - len(values))
        for discrepancy in values:
            score = discrepancy - self.config.correction
            statistic = self._cusum.update(score)
            alarm = statistic >= self.config.threshold
            if alarm and self._alarmed_at is None:
                self._alarmed_at = self._cusum.n
            outcomes.append(
                StepOutcome(
                    index=self._cusum.n,
                    discrepancy=discrepancy,
                    score=score,
                    statistic=statistic,
                    alarm=alarm,
                )
            )
        return outcomes

    def reset(self) -> None:
        """Forget buffer, statistic, and alarm; keep reference and config."""
        self._raw.clear()
        self._scorer = _BlockScorer(self.reference, self.config.window)
        self._cusum = CusumStream(self.config.min_sample)
        self._alarmed_at = None

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self) -> str:
        """Serialise resumable state as JSON text.

        Floats are stored in hexadecimal, so a round trip restores them
        bit for bit.  The reference sample itself is not stored, only its
        digest; restore requires the same reference and configuration.
        """
        payload = {
            "format": CHECKPOINT_FORMAT,
            "version": CHECKPOINT_VERSION,
            "window": self.config.window,
            "min_sample": self.config.min_sample,
            "threshold": self.config.threshold.hex(),
            "correction": self.config.correction.hex(),
            "dim": self._dim,
            "reference": self.reference.digest,
            "raw_buffer": [[v.hex() for v in row] for row in self._raw],
            "alarmed_at": self._alarmed_at,
            "cusum": self._cusum.snapshot(),
        }
        return json.dumps(payload, indent=1)

    @classmethod
    def restore(
        cls, reference: ReferenceSet, config: DetectorConfig, text: str
    ) -> "KernelCusumDetector":
        """Rebuild a detector from :meth:`checkpoint` output.

        The buffered pairs are rescored from the stored raw observations
        in one block by a fresh scorer.  A window value depends only on
        the pairs in its window, so subsequent outputs are bit-identical
        to an uninterrupted run.
        A checkpoint written against another reference (kernel or
        pairs) is rejected.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a detector checkpoint")
        if data.get("version") != CHECKPOINT_VERSION:
            raise ValueError(f"unsupported checkpoint version {data.get('version')!r}")
        try:
            return cls._restore_checked(reference, config, data)
        except (KeyError, TypeError, IndexError) as exc:
            raise ValueError(f"checkpoint is malformed: {exc!r}") from exc

    @classmethod
    def _restore_checked(
        cls, reference: ReferenceSet, config: DetectorConfig, data: dict
    ) -> "KernelCusumDetector":
        if (
            data["window"] != config.window
            or data["min_sample"] != config.min_sample
            or float.fromhex(data["threshold"]) != config.threshold
            or float.fromhex(data["correction"]) != config.correction
        ):
            raise ValueError("checkpoint was written with a different configuration")
        if data["dim"] != reference.point_dim:
            raise ValueError("checkpoint dimension does not match the reference")
        if data["reference"] != reference.digest:
            raise ValueError("checkpoint was written against a different reference")
        det = cls(reference, config)
        raw = [
            np.asarray([float.fromhex(v) for v in row], dtype=float)
            for row in data["raw_buffer"]
        ]
        if len(raw) > config.window + 1:
            raise ValueError("checkpoint raw buffer longer than window + 1")
        for row in raw:
            if row.shape[0] != det._dim:
                raise ValueError("checkpoint raw buffer has wrong dimension")
        cusum = CusumStream.from_snapshot(config.min_sample, data["cusum"])
        n_pairs = len(raw) - 1 if raw else 0
        if n_pairs < config.window and cusum.n != 0:
            raise ValueError("checkpoint inconsistent: scores before the buffer filled")
        if n_pairs == config.window and cusum.n < 1:
            raise ValueError("checkpoint inconsistent: full buffer but no scores")
        det._raw.extend(raw)
        if n_pairs > 0:
            det._scorer.push(_pairs(np.array(raw)))
        det._cusum = cusum
        alarmed = data["alarmed_at"]
        det._alarmed_at = None if alarmed is None else int(alarmed)
        return det


@dataclass(frozen=True)
class Calibration:
    """Outcome of data-driven correction calibration.

    correction : chosen constant, holdout_level + margin.
    holdout_level : the selected quantile of the windowed discrepancies
        seen on the holdout (the maximum when ``quantile`` is 1).
    margin : user-supplied slack added on top.
    n_scores : number of window positions scanned.
    quantile : which quantile of the holdout discrepancies was used.
    """

    correction: float
    holdout_level: float
    margin: float
    n_scores: int
    quantile: float


def calibrate_correction(
    kernel: KernelSpec,
    reference: ReferenceSet,
    holdout,
    window: int,
    margin: float = 0.01,
    quantile: float = 1.0,
) -> Calibration:
    """Pick the correction from held-out pre-change data.

    Slides a ``window``-pair buffer across the holdout trajectory,
    records the discrepancy against ``reference`` at every position, and
    returns the ``quantile`` of those values plus ``margin``.  With the
    default ``quantile=1.0`` the correction sits above every windowed
    discrepancy on the holdout, so each score the detector would have
    produced there is strictly negative, which is the behaviour wanted
    before a change.  A quantile slightly below 1 tolerates a brief
    extreme excursion in the holdout instead of letting one cluster of
    windows dictate the whole correction; the resulting holdout scores
    are then negative at all but that fraction of positions.

    ``kernel`` must have the weights and bandwidths of
    ``reference.kernel``, which scores the windows; another kernel is
    rejected rather than silently ignored.
    """
    if not (
        np.array_equal(kernel.weights, reference.kernel.weights)
        and np.array_equal(kernel.bandwidths, reference.kernel.bandwidths)
    ):
        raise ValueError("kernel does not match the reference's kernel")
    if margin < 0.0:
        raise ValueError("margin must be non-negative")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    if int(window) != window or window < 1:
        raise ValueError("window must be an integer >= 1")
    window = int(window)
    lifted = holdout if isinstance(holdout, LiftedTrajectory) else lift(
        as_points(holdout, name="holdout")
    )
    if lifted.pairs.shape[1] != reference.pairs.shape[1]:
        raise ValueError("holdout dimension does not match the reference")
    if lifted.n_pairs < window:
        raise ValueError(
            f"holdout too short: needs at least {window + 1} observations "
            f"for one full window"
        )
    values = _BlockScorer(reference, window).push(lifted.pairs)
    if quantile == 1.0:
        level = max(values)
    else:
        level = float(np.quantile(np.asarray(values), quantile))
    return Calibration(
        correction=level + margin,
        holdout_level=level,
        margin=float(margin),
        n_scores=len(values),
        quantile=float(quantile),
    )
