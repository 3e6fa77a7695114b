"""Streaming change detector: windowed kernel discrepancy fed into a CUSUM.

Each score is a function of the last ``window + 1`` raw observations:
their ``window`` lifted pairs are scored against a fixed reference
sample by kernel mean discrepancy, and the corrected scores accumulate
in a CUSUM that ignores trailing sums shorter than ``min_sample`` steps.

One block scorer and one CUSUM serve every caller.  The scorer keeps
the last ``window + 1`` observations, the state a checkpoint stores,
and is the only place where observations become pairs.  Its buffers
share one index, the pair's position: pair j is observations j and
j + 1, a row of a standing view of the observation buffer, and its
stored sums (and, against a table, its id) sit at index j of the other
buffers, so a band reads one slice from its first pair back.  Each
buffer holds three windows of pairs; a push writes only its new
entries, and when a chunk does not fit, one move copies the newest
window to the front of every buffer.  A single observation and a block
take the same path through the same buffers.
:func:`score_series` runs observations through it, subtracts the
correction and feeds the scores to one :meth:`CusumStream.extend` call:
:meth:`KernelCusumDetector.step` hands it one observation,
:meth:`~KernelCusumDetector.extend`, traces and campaigns whole blocks.
:func:`calibrate_correction` and :meth:`~KernelCusumDetector.restore`
push observations into the scorer alone.  The CUSUM keeps the newest
``min_sample + 1`` prefix sums in a fixed-length window, so a block of
any length, one score included, takes the same arithmetic path.

A scorer block goes through in chunks of at most ``window`` pairs.
Each pair needs its kernels against itself and the ``window - 1`` pairs
before it (its band row) and its kernel row sum against the reference
(its cross sum).  Each band row is summed once, in lag order, when its
pair arrives; a window value then adds r of those lag sums and r cross
sums, O(r) work per position with no ``window x window`` table to keep.

Pairs are measured through their observations.  The squared distance
of two lifted pairs is the sum of the squared distances of their first
and of their second observations (:func:`pair_distances`), each summed
in coordinate order; every path computes it so.  The reference holds
its observations and the offset of each pair's second half, one for a
lifted trajectory (:class:`ReferenceSet`).  The scorer measures each
new observation once, against the reference observations and against
its ``window - 1`` predecessors, and keeps the newest observation's two
rows: a pair's cross row and band row are then the sums of its two
observations' rows, and one exponential pass turns both into kernel
values.  So a step measures ``n_pairs + 1 + window`` distances of d
coordinates, where measuring whole pairs took ``n_pairs + window`` of
2d.  The reference self-term comes from :meth:`KernelSpec._self_sum
<kcusum.kernels.KernelSpec._self_sum>`, which evaluates the upper
triangle of the reference Gram matrix only, with the same pair
distances.  A lifted reference measures them through its observations
too (:func:`chained_distances`): a chunk of pairs takes one table of
observation distances, whose entries, shifted by one row and one
column, give both halves of every pair distance.  So the self-term
measures about m^2 / 2 distances of d coordinates, where measuring
whole pairs took m^2 / 2 of 2d.

Where the band rows and cross sums come from depends on the reference.
When it repeats pairs, as a finite chain's does (a chain with n states
has at most n^2 distinct pairs), the stream's pairs are kept in an id
table (:class:`_PairTable`): each distinct pair gets a small integer id,
one cross sum and its kernel values against the other live ids, so the
kernel is evaluated only for a pair not seen before, and a band row is
a gather from the table.  The table holds at most ``2 * window`` ids,
whatever the stream's length.  Data that does not repeat (a reference
with continuous support) evaluates every band row and cross sum from
the cached observation rows, since an id table would only add lookups.

A window value reads only the pairs inside its window, in a fixed order.
A pair distance is a sum of two observation distances, each a function
of its two points alone (:func:`~kcusum.kernels.squared_distances`), and
``x + y`` equals ``y + x``; so a kernel value is the same whichever
call, cached row, table or block produced it, and it is symmetric bit
for bit.  A window value is therefore a function of the window alone:
it depends neither on how the stream was cut into blocks, nor on which
pairs repeat, nor on what came before the window.  So ``extend`` equals
a ``step`` loop bit for bit, and a restore continues an interrupted run
bit for bit.  A checkpoint stores the observations of the window and
the cross sums of their pairs.  A restore pushes the observations but
the newest into a fresh scorer with those sums, which evaluates only
their band rows, and then the newest observation alone, whose pair's
cross sum it evaluates and compares with the stored one; so it rebuilds
the cached rows without scoring the window against the reference.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
from collections import deque
from dataclasses import dataclass, field

import numpy as np

from .kernels import (
    CHUNK_ENTRIES, COORDINATE_LIMIT, KernelSpec, as_points, distinct_rows, row_chunks,
    squared_distances,
)
from .mmd import lift, lifted_pairs

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
CHECKPOINT_VERSION = 3
# the fields of each version that restore reads, sorted
_CHECKPOINT_FIELDS = {
    2: sorted(["format", "version", "window", "min_sample", "threshold", "correction", "dim",
               "reference", "raw_buffer", "alarmed_at", "cusum"]),
}
_CHECKPOINT_FIELDS[3] = sorted(_CHECKPOINT_FIELDS[2] + ["cross", "state_sha256"])


@dataclass(frozen=True)
class ReferenceSet:
    """Fixed reference sample of lifted pairs with its cached self-term.

    A pair's squared distance to another is the sum of the squared
    distances of their first and of their second observations
    (:func:`pair_distances`).  So the reference is also held as
    observations: pair q is ``(observations[q], observations[q +
    offset])``.  Pairs that chain, as the lifted pairs of one trajectory
    do (each second half is the next pair's first), give ``offset`` 1
    and ``n_pairs + 1`` observations; pairs that do not give ``offset``
    ``n_pairs``, their first halves followed by their second halves.  A
    detector then measures an observation against the reference
    observations once and reads both of its pairs' distances from that
    row, whichever kind of reference it is.  ``observations`` is stored
    column-major, so its transpose, which the distances read, is
    contiguous.

    ``self_mean`` is the mean of the full reference-by-reference Gram
    matrix; it enters every windowed discrepancy, so it is computed once
    here, exactly rounded, from the upper triangle
    (:meth:`KernelSpec._self_sum <kcusum.kernels.KernelSpec._self_sum>`):
    one error-free extraction per chunk hands ``math.fsum`` a few exact
    parts.  Pairs that chain and do not repeat, as a lifted trajectory's
    on continuous data, are taken in their own order, and a chunk's pair
    distances come from one table of observation distances
    (:func:`chained_distances`).  Otherwise the distinct pairs are
    taken, with :func:`pair_distances`, and their counts weight the
    extraction.  Both give the bits of the same exact sum: each pair
    distance adds the same two observation distances in the same order,
    and the exact sum does not depend on the order of the rows.

    ``pairs`` is stored column-major as well.  ``digest`` is a SHA-256 of
    the kernel's weights and bandwidths and of the pairs; checkpoints
    carry it, so a detector is never resumed against another reference.
    ``repeats`` says whether some pair occurs more than once, as on a
    finite chain: the detector keeps the stream's pairs in an id table
    only then, since data that never repeats would pay for the lookups
    and gain nothing.
    """

    kernel: KernelSpec
    pairs: np.ndarray
    self_mean: float = field(init=False)
    digest: str = field(default="", init=False, repr=False)
    repeats: bool = field(default=False, init=False, repr=False)
    observations: np.ndarray = field(default=None, init=False, repr=False)
    offset: int = field(default=1, init=False, repr=False)

    def __post_init__(self) -> None:
        pairs = as_points(self.pairs, name="pairs")
        if pairs.shape[1] % 2 != 0:
            raise ValueError("reference pairs must have even dimension (lifted points)")
        pairs = np.array(pairs, order="F")
        pairs.flags.writeable = False
        m, d = pairs.shape[0], pairs.shape[1] // 2
        offset = 1 if np.array_equal(pairs[1:, :d], pairs[:-1, d:]) else m
        observations = np.asfortranarray(np.concatenate((pairs[:, :d], pairs[m - offset :, d:])))
        observations.flags.writeable = False
        digest = hashlib.sha256()
        for arr in (self.kernel.weights, self.kernel.bandwidths, pairs):
            digest.update(repr(arr.shape).encode())
            digest.update(arr.astype("<f8").tobytes())
        distinct, _, counts = distinct_rows(pairs)
        repeats = distinct.shape[0] < m
        if offset == 1 and not repeats:
            # every count is one, so the pairs serve in their own order
            total = self.kernel._self_sum(pairs, counts, chained_distances)
        else:
            total = self.kernel._self_sum(distinct, counts, pair_distances)
        object.__setattr__(self, "pairs", pairs)
        object.__setattr__(self, "self_mean", total / (m * m))
        object.__setattr__(self, "digest", digest.hexdigest())
        object.__setattr__(self, "repeats", repeats)
        object.__setattr__(self, "observations", observations)
        object.__setattr__(self, "offset", offset)

    @property
    def n_pairs(self) -> int:
        return int(self.pairs.shape[0])

    @property
    def point_dim(self) -> int:
        return int(self.pairs.shape[1] // 2)


def pair_distances(A: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Squared distances of the lifted pairs ``A`` (``(n, 2d)``) to the
    pairs in ``columns`` (their ``(2d, k)`` transpose): each is the
    squared distance of the first halves plus that of the second halves,
    both from :func:`~kcusum.kernels.squared_distances`.  This is the one
    definition every scoring path computes, so a pair kernel value has
    the same bits whether it came from here or from the observation rows
    a :class:`_BlockScorer` keeps."""
    d = A.shape[1] // 2
    sq = squared_distances(A[:, :d], columns[:d])
    sq += squared_distances(A[:, d:], columns[d:])
    return sq


def chained_distances(A: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """:func:`pair_distances` of pairs that chain, rows and columns alike
    (each pair's second half is the next pair's first, as in a run of a
    lifted trajectory), from one table of their observations' distances:
    n + 1 observations against k + 1 instead of n pairs against k, each
    half.  Entry (i, j) adds the distance of observations i and j to
    that of i + 1 and j + 1, the same two terms in the same order, so it
    has :func:`pair_distances`' bits."""
    d = A.shape[1] // 2
    rows = np.concatenate((A[:, :d], A[-1:, d:]))
    sq = squared_distances(rows, np.concatenate((columns[:d], columns[d:, -1:]), axis=1))
    return sq[:-1, :-1] + sq[1:, 1:]


def build_reference(kernel: KernelSpec, history) -> ReferenceSet:
    """Reference from a raw pre-change trajectory (``(T, d)``, T >= 2).

    The trajectory is lifted to its ``T - 1`` consecutive pairs by
    :func:`~kcusum.mmd.lift`.  To use already-lifted pairs, construct
    :class:`ReferenceSet` directly.
    """
    return ReferenceSet(kernel=kernel, pairs=lift(history))


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


class CusumStream:
    """Streaming maximum of trailing sums at least ``min_sample`` long.

    After n scores s_1..s_n the statistic is

        max over 1 <= k <= n - min_sample of  (s_k + ... + s_n)

    (-inf while no admissible k exists): C_n less the smallest eligible
    prefix.  The newest ``min_sample + 1`` prefixes wait in a fixed-length
    window; the one a full window pushes out becomes eligible.  Prefixes
    use compensated (Neumaier) sums, so the statistic cannot drift.
    :meth:`extend` holds the only copy of the arithmetic; :meth:`update`
    is a block of one, so any split into blocks gives the same bits.
    """

    __slots__ = ("min_sample", "n", "_sum", "_comp", "_pending", "_eligible_min")

    def __init__(self, min_sample: int):
        if int(min_sample) != min_sample or min_sample < 1:
            raise ValueError("min_sample must be an integer >= 1")
        self.min_sample = int(min_sample)
        self.n = 0
        self._sum = 0.0
        self._comp = 0.0
        self._pending: deque[float] = deque([0.0], maxlen=self.min_sample + 1)
        self._eligible_min = math.inf

    @property
    def statistic(self) -> float:  # after the last score; -inf before any
        return (self._sum + self._comp) - self._eligible_min

    def update(self, score: float) -> float:
        """Consume one score, return the updated statistic."""
        return self.extend((score,))[0]

    def extend(self, scores) -> list:
        """Consume finite scores in order; return the statistic after each.
        A non-finite score raises ``ValueError`` before any state changes.
        Any iterable of real numbers serves.  It is read once, into a list
        of Python floats, since the scores are checked before they are
        used; so the sums stay Python floats whatever the input type
        (``numpy.float32`` scores are summed in double precision)."""
        checked = []
        for score in scores:
            if not math.isfinite(score):
                raise ValueError(f"score must be finite; got {score!r}")
            checked.append(float(score))
        scores = checked
        total, comp, low = self._sum, self._comp, self._eligible_min
        pending, out = self._pending, []
        for score in scores:
            t = total + score
            if abs(total) >= abs(score):
                comp += (total - t) + score
            else:
                comp += (score - t) + total
            total = t
            prefix = total + comp
            if len(pending) == pending.maxlen and pending[0] < low:
                low = pending[0]
            out.append(prefix - low)
            pending.append(prefix)
        self.n += len(out)
        self._sum, self._comp, self._eligible_min = total, comp, low
        return out

    def snapshot(self) -> dict:
        first = self.n - len(self._pending) + 1
        return {
            "n": self.n,
            "sum": self._sum.hex(),
            "comp": self._comp.hex(),
            "eligible_min": self._eligible_min.hex(),
            "statistic": self.statistic.hex(),
            "pending": [[first + i, value.hex()] for i, value in enumerate(self._pending)],
        }

    @classmethod
    def from_snapshot(cls, min_sample: int, data: dict) -> "CusumStream":
        """Rebuild a stream from :meth:`snapshot` output, rejecting state
        that no run of finite scores could have left."""
        out = cls(min_sample)
        n = out.n = _exact_int(data["n"], "cusum state inconsistent: n")
        out._sum, out._comp = float.fromhex(data["sum"]), float.fromhex(data["comp"])
        out._eligible_min = low = float.fromhex(data["eligible_min"])
        indices = [
            _exact_int(j, "cusum state inconsistent: a pending index") for j, _ in data["pending"]
        ]
        if n < 0 or indices != list(range(n - min(n, out.min_sample), n + 1)):
            raise ValueError(
                "cusum state inconsistent: pending prefixes must be the last "
                f"min(n, min_sample) + 1 indices up to n = {n}"
            )
        values = [float.fromhex(v) for _, v in data["pending"]]
        out._pending = deque(values, maxlen=out._pending.maxlen)
        if not all(map(math.isfinite, [out._sum, out._comp, *values])):
            raise ValueError("cusum state inconsistent: non-finite prefix sum")
        if not (low == math.inf if n <= out.min_sample else math.isfinite(low)):
            raise ValueError(
                "cusum state inconsistent: eligible_min must be inf while "
                "n <= min_sample and finite after"
            )
        if values[-1] != out._sum + out._comp:
            raise ValueError("cusum state inconsistent: last prefix differs from sum + comp")
        if float.fromhex(data["statistic"]) != out.statistic:
            raise ValueError(
                "cusum state inconsistent: statistic differs from sum + comp - eligible_min"
            )
        return out


def _exact_int(value, what: str) -> int:
    """``value``, a checkpoint field, if it is an int (a bool is not);
    ``int()`` would read ``"8"`` and ``8.9`` as 8."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer; got {value!r}")
    return value


def _state_digest(data: dict) -> str:
    """SHA-256 of a checkpoint's fields but ``state_sha256``, which holds
    it in a version 3 checkpoint: of their compact JSON with sorted
    keys, so that it does not depend on how the text was spaced."""
    fields = {key: value for key, value in data.items() if key != "state_sha256"}
    text = json.dumps(fields, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def _hex_floats(value, what: str) -> list:
    """``value``, a checkpoint field, as floats if it is a list of hex
    strings; iterating a string or a dict would read its characters or
    keys."""
    if type(value) is not list or not set(map(type, value)) <= {str}:
        raise ValueError(f"checkpoint is malformed: {what} must be a list of hex strings")
    return list(map(float.fromhex, value))


def scorer_floats(window: int, table: bool) -> int:
    """Floats in the large buffers of a :class:`_BlockScorer` of
    ``window`` pairs: its lag rows, ``3 * window`` of ``window`` floats,
    and with an id ``table`` (a reference that repeats pairs) the
    table's ``(2 * window + 1)**2`` kernel values.  The parser checks
    them against memory before a run allocates them."""
    return 3 * window * window + table * (2 * window + 1) ** 2


def reference_floats(n_pairs: int, dim: int, window: int, table: bool) -> int:
    """Floats held for a lifted reference of ``n_pairs`` pairs of
    ``dim``-dimensional observations: its pairs; the peak of
    :func:`~kcusum.kernels.distinct_rows` while the self-term is built,
    four copies of the pairs and seven floats per pair of index arrays
    (by ``tracemalloc``, 7.1 times the pairs' bytes at ``dim`` 1); its
    ``n_pairs + 1`` observations and, in a :class:`_BlockScorer` of
    ``window`` pairs without an id ``table``, ``_columns``, a copy of
    the observations followed by a step's lags.  The parser checks them
    against memory together with :func:`scorer_floats`."""
    pairs, observations = 2 * n_pairs * dim, (n_pairs + 1) * dim
    distinct_peak = 4 * pairs + 7 * n_pairs
    return pairs + distinct_peak + observations + (not table) * (observations + window * dim)


class _BlockScorer:
    """Windowed discrepancy of a stream of raw observations, fed in blocks.

    A window of r pairs starting at pair s has the within-window term

        within = sum over q = s .. s + r - 1 of  (2 * C_q[q - s] - k(q, q))

    where ``C_q[l] = k(q, q) + k(q, q - 1) + ... + k(q, q - l)`` sums
    pair q's kernels against itself and the l pairs before it.  When a
    pair arrives, its band row, in lag order, is stored once as
    ``D_q = 2 * C_q - k(q, q)`` (one ``np.cumsum``), together with its
    kernel row sum against the reference.  ``within`` is then one
    diagonal of the stacked D rows, and the cross term the sum of r
    consecutive row sums, so a position costs O(r) however the block is
    cut.  Both read only pairs inside the window, in a fixed order, so a
    window value is a function of its window alone: it depends neither
    on how the stream was cut into blocks nor on what came before.

    What is stored: the window's state lives in buffers with one index,
    the pair's position j: pair j is ``(_obs[j], _obs[j + 1])``, which is
    row j of ``_lifted``, a standing view of ``_obs``; its D row, cross
    sum and, against an id table, its id are entry j of ``_lags``,
    ``_cross`` and ``_ids``.  Each buffer holds ``3 * window`` pairs
    (``_obs`` one observation more), so a push writes only its new
    entries.  When a chunk does not fit, one move copies the newest
    ``window`` observations and the entries of their ``window - 1``
    pairs, the window the next chunk scores against, to the front of
    every buffer.  ``raw``, the last ``window + 1`` observations, is a
    view of ``_obs``: the state a checkpoint stores.  ``_obs`` and
    ``_ids`` are preceded by ``window - 1`` entries of +inf and of the
    absent id 0, so that a lag older than the stream's first pair reads
    the padding.  Row t of ``_lagged``, a standing view, is observation t
    and the ``window - 1`` before it, newest first.

    What is cached, on continuous data: a pair's squared distance to
    another is the sum of those of its two observations
    (:func:`pair_distances`), and consecutive pairs share an
    observation.  So each observation is measured once, when it arrives:
    against the reference observations (``n_pairs + 1`` of them for a
    lifted reference) and against itself and its ``window - 1``
    predecessors.  The newest observation's two rows are kept
    (``_ref_row``, ``_lag_row``); the next observation's rows, added to
    them, give its pair's cross row and band row.  A single step thus
    measures ``n_pairs + 1 + window`` distances of d coordinates, in one
    call against ``_columns``, a copy of the reference observations
    followed by the step's lags, and evaluates the cross and band rows
    in one exponential pass.  The cached rows are a function of the
    observations in ``raw``, so the pushes that a restore makes rebuild
    them.  Given the cross sums of a chunk's pairs, as a restore is, the
    chunk measures only its lag rows and its last observation's
    reference row, the one the next pair chains from.  A chunk's band,
    its c pairs against themselves and the
    ``window - 1`` pairs before each, comes out in lag order, c x
    window, with an infinite distance, so a kernel value of 0, for lags
    before the stream's first pair.

    Against a reference that repeats pairs the band is instead gathered
    from an id table (:class:`_PairTable`), which evaluates the kernel
    only for pairs it has not seen; its values have the bits of the
    cached rows' because both add the same observation distances.
    Kernel calls go through ``KernelSpec``'s unvalidated methods: the
    reference was validated when it was built and is not rescanned on
    every call.
    """

    __slots__ = ("reference", "window", "_obs", "_end", "_lifted", "_lagged", "_lags", "_cross",
                 "_ids", "_padded_ids", "_table", "_chunk", "_ref_row", "_lag_row", "_columns")

    def __init__(self, reference: ReferenceSet, window: int):
        self.reference = reference
        self.window = r = int(window)
        d = reference.point_dim
        # a block chunk adds at most r pairs to the r - 1 it scores against;
        # r - 1 rows of +inf come first, for lags older than the stream
        padded = np.full((4 * r, d), np.inf)
        self._obs = obs = padded[r - 1 :]
        self._end = 0  # rows of ``_obs`` in use
        row, item = obs.strides
        # row j is the pair (obs[j], obs[j + 1]): rows overlap by one
        # observation, and the view stays valid as ``_obs`` is rewritten
        self._lifted = np.ndarray((3 * r, 2 * d), buffer=obs, strides=(row, item))
        self._lagged = np.ndarray(
            (3 * r + 1, r, d), buffer=padded, offset=(r - 1) * row, strides=(row, -row, item)
        )
        self._lags = np.empty((3 * r, r))
        self._cross = np.empty(3 * r)
        # read only against a table; r - 1 absent ids come first
        self._padded_ids = np.zeros(4 * r - 1, dtype=np.intp)
        self._ids = self._padded_ids[r - 1 :]
        self._table = _PairTable(reference, r) if reference.repeats else None
        self._ref_row = self._lag_row = None  # the newest observation's rows
        self._columns = None
        self._chunk = r  # the table reads no rows
        if self._table is None:
            width = reference.observations.shape[0] + r
            # a chunk's scratch, c rows of reference and lag distances,
            # stays within CHUNK_ENTRIES
            self._chunk = max(1, min(r, CHUNK_ENTRIES // width))
            # the reference observations, then the lags of a step's observation
            self._columns = np.empty((d, width))
            self._columns[:, : width - r] = reference.observations.T

    @property
    def raw(self) -> np.ndarray:
        """The last ``window + 1`` observations, oldest first (fewer while
        the stream is shorter); a view that the next push overwrites."""
        return self._obs[max(self._end - self.window - 1, 0) : self._end]

    @property
    def raw_cross(self) -> np.ndarray:
        """The cross sums of the pairs of :attr:`raw`, oldest first; a view
        that the next push overwrites."""
        return self._cross[max(self._end - self.window - 1, 0) : max(self._end - 1, 0)]

    def push(self, observations: np.ndarray, sums=None) -> list:
        """Add the validated ``(k, d)`` rows ``observations`` in order;
        return the window value after each one that leaves the window
        full.  ``sums``, when given, holds the cross sums of the pairs
        that the rows complete, oldest first: those pairs take them, and
        their reference rows are not evaluated.  Against an id table it
        is not given."""
        r = self.window
        obs, lags, cross, ids, table = self._obs, self._lags, self._cross, self._ids, self._table
        # given the sums, a chunk's scratch is its c rows of lag distances
        step = self._chunk if sums is None else max(1, min(r, CHUNK_ENTRIES // r))
        first = 0
        if self._end == 0 and observations.shape[0]:
            obs[0] = observations[0]  # the stream's first observation ends no pair
            self._end = first = 1
            if table is None:
                self._ref_row, self._lag_row = self._rows(0, 1)
        values = []
        start = first  # the row that completes the push's first pair
        # chunks of at most ``window`` pairs, so that the buffers hold a
        # chunk and the window before it
        for lo in range(first, observations.shape[0], step):
            chunk = observations[lo : lo + step]
            c = chunk.shape[0]
            p = self._end - 1  # the chunk's first pair
            if p + c > 3 * r:
                keep = slice(p - (r - 1), p)
                obs[:r] = obs[p + 1 - r : p + 1]
                lags[: r - 1] = lags[keep]
                cross[: r - 1] = cross[keep]
                ids[: r - 1] = ids[keep]
                p = r - 1
            obs[p + 1 : p + 1 + c] = chunk
            self._end = p + 1 + c
            if table is None:
                given = None if sums is None else sums[lo - start : lo - start + c]
                band = self._band(p, c, given)
            else:
                # the ids of the r - 1 pairs before the chunk, then its own
                sequence = self._padded_ids[p : p + c + r - 1]
                band, cross[p : p + c] = table.band(self._lifted[p : p + c], sequence)
            rows = lags[p : p + c]
            np.add.accumulate(band, axis=1, out=rows)  # cumsum with less call overhead
            rows *= 2.0
            rows -= band[:, :1]
            # a pair at index r - 1 or later has a full window behind it:
            # before the first move indices count pairs from the stream's
            # start, and a move keeps exactly r - 1 pairs
            first = max(p, r - 1)
            if first < p + c:
                values += self._values(first - (r - 1), p + c - first)
        return values

    def _rows(self, lo: int, hi: int) -> tuple:
        """Squared distances of observations ``lo .. hi - 1`` to the
        reference observations and to themselves and their lags."""
        observations = self._obs[lo:hi]
        if hi - lo == 1:
            # one observation, as a step: its lags are copied next to the
            # reference observations, so that one call measures both
            columns, width = self._columns, self._columns.shape[1] - self.window
            columns[:, width:] = self._lagged[lo].T
            both = squared_distances(observations, columns)
            return both[:, :width], both[:, width:]
        return (
            squared_distances(observations, self.reference.observations.T),
            squared_distances(observations, self._lagged[lo:hi].transpose(2, 0, 1)),
        )

    def _band(self, p: int, c: int, sums=None) -> np.ndarray:
        """Cross sums of pairs ``p .. p + c - 1`` into ``_cross``, and their
        ``(c, window)`` band in lag order, from the rows of the chunk's c
        observations and the cached rows of the one before; one
        exponential pass evaluates both.  Given the pairs' cross ``sums``,
        it stores those and evaluates the band alone, from the chunk's
        lag rows; of the reference rows it measures only the last
        observation's, which the next pair reads."""
        reference = self.reference
        if sums is not None:
            observations = self._obs[p + 1 : p + 1 + c]
            lag_rows = squared_distances(
                observations, self._lagged[p + 1 : p + 1 + c].transpose(2, 0, 1)
            )
            sq = np.empty((c, self.window))
            _chain(self._lag_row, lag_rows, 0, sq)
            self._ref_row = squared_distances(observations[-1:], reference.observations.T)
            self._lag_row = lag_rows[-1:].copy()
            self._cross[p : p + c] = sums
            return reference.kernel._kernel_values(sq)
        m = reference.n_pairs
        ref_rows, lag_rows = self._rows(p + 1, p + 1 + c)
        sq = np.empty((c, m + self.window))
        _chain(self._ref_row, ref_rows, reference.offset, sq[:, :m])
        _chain(self._lag_row, lag_rows, 0, sq[:, m:])
        if c > 1:  # keep one row, not the chunk's table
            ref_rows, lag_rows = ref_rows[-1:].copy(), lag_rows[-1:].copy()
        self._ref_row, self._lag_row = ref_rows, lag_rows
        values = reference.kernel._kernel_values(sq)
        self._cross[p : p + c] = np.add.reduce(values[:, :m], axis=1)
        return values[:, m:]

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


def _chain(previous: np.ndarray, rows: np.ndarray, shift: int, out: np.ndarray) -> None:
    """Squared distances of the pairs that consecutive observations form:
    ``out[i] = rows[i - 1, :w] + rows[i, shift : shift + w]`` for the
    width w of ``out``, with the one-row ``previous`` as ``rows[-1]``.
    ``rows`` measure observations against the first halves of the
    pairs compared with, and ``shift`` further on, their second halves."""
    w = out.shape[1]
    np.add(previous[:, :w], rows[:1, shift : shift + w], out=out[:1])
    if rows.shape[0] > 1:
        np.add(rows[:-1, :w], rows[1:, shift : shift + w], out=out[1:])


def _cross_sums(reference: ReferenceSet, pairs: np.ndarray) -> np.ndarray:
    """Kernel row sum of each pair against the reference."""
    kernel = reference.kernel
    columns = reference.pairs.T
    out = np.empty(pairs.shape[0])
    for rows in row_chunks(pairs.shape[0], columns.shape[1]):
        out[rows] = kernel._gram(pairs[rows], columns, pair_distances).sum(axis=1)
    return out


class _PairTable:
    """Small integer ids for the distinct lifted pairs of a stream, with
    each id's cross sum and its kernel values against the other live ids.

    A pair is looked up by its bytes; id 0 means "absent" and is never
    given out.  A chunk's distinct pairs are found with
    :func:`~kcusum.kernels.distinct_rows` before the lookup (a single
    pair is looked up directly), and only pairs not in the table cost
    kernel work: one cross row against the reference each, and one row
    of kernel values against the live ids.  Those values are mirrored
    into their column, which keeps their bits because
    ``KernelSpec._gram`` is symmetric bit for bit; batch invariance
    makes a gathered value equal the one a band would evaluate.

    The ids of the stream's pairs live in :class:`_BlockScorer`'s
    ``_ids``, indexed as its other buffers are.  :meth:`band` gets the
    slice of it that a chunk's band reads, oldest first: the
    ``window - 1`` ids before the chunk (the tail; the absent id 0 before
    the stream's start), then room for the chunk's own, which it writes.  A step's band row is then one
    ``take`` from its id's kernel row.  Before ids are added past
    ``2 * window``, the table is rebuilt from the ids still in the tail
    or in the chunk at hand (at most ``2 * window - 1`` with the chunk's
    new ones), keeping their kernel values and cross sums; the tail is
    renumbered in place.  So the table never holds more than
    ``2 * window`` ids, and its memory, ``(2 * window + 1)^2`` kernel
    values, does not depend on the stream's length.
    """

    __slots__ = ("reference", "window", "_ids", "_pairs", "_kernels", "_cross", "_count")

    def __init__(self, reference: ReferenceSet, window: int):
        size = 2 * window + 1
        self.reference = reference
        self.window = window
        self._ids: dict[bytes, int] = {}
        self._pairs = np.empty((size, reference.pairs.shape[1]))
        self._kernels = np.zeros((size, size))
        self._cross = np.zeros(size)
        self._count = 1  # ids in use, the absent id 0 included

    def band(self, block: np.ndarray, sequence: np.ndarray) -> tuple:
        """The ``(c, window)`` band, in lag order, of a chunk of
        ``c <= window`` pairs that follows the pairs seen so far, as
        :meth:`_BlockScorer._band` evaluates it, and the chunk's ``c``
        cross sums.  ``sequence`` holds, oldest first, the ids of the
        ``window - 1`` pairs before the chunk (0 before the stream's
        start) and then ``c`` slots, where the chunk's ids are written."""
        c = block.shape[0]
        # ids first: admitting a pair may rebuild the table, which
        # renumbers the tail where it stands
        if c == 1:
            key = block.tobytes()
            i = self._ids.get(key) or int(self._ids_of(block, [key], sequence[:-1])[0])
            sequence[-1] = i
            return self._kernels[i].take(sequence[::-1])[None], self._cross[i]
        distinct, inverse, _ = distinct_rows(block)
        ids = self._ids_of(distinct, [row.tobytes() for row in distinct], sequence[:-c])
        block_ids = ids[inverse]
        sequence[-c:] = block_ids
        # one row per distinct pair against the sequence, newest first; the
        # chunk's copies of a pair share it.  Pair i's lags 0 .. window - 1
        # are the columns from c - 1 - i on: a skewed view of the rows
        wide = self._kernels[ids[:, None], sequence[::-1]][inverse]
        width = wide.shape[1] - 1
        band = wide.ravel()[c - 1 : c - 1 + c * width].reshape(c, width)[:, : self.window]
        return band, self._cross[block_ids]

    def _ids_of(self, pairs: np.ndarray, keys: list, tail: np.ndarray) -> np.ndarray:
        """Ids of the distinct ``pairs``, whose bytes are ``keys``; pairs
        not in the table are admitted."""
        found = [self._ids.get(key, 0) for key in keys]
        ids = np.array(found, dtype=np.intp)
        if 0 in found:
            fresh = [key for key, i in zip(keys, found) if i == 0]
            ids = self._admit(pairs[ids == 0], fresh, ids, tail)
        return ids

    def _admit(
        self, pairs: np.ndarray, keys: list, ids: np.ndarray, tail: np.ndarray
    ) -> np.ndarray:
        """Give ``pairs`` (absent from the table) new ids; ``ids`` are the
        chunk's ids so far, 0 where a pair is new.  Returns them with the
        new ids filled in, renumbered if the table was rebuilt."""
        if self._count - 1 + len(keys) > 2 * self.window:
            ids = self._rebuild(ids, tail)
        new = np.arange(self._count, self._count + len(keys))
        ids[ids == 0] = new
        live = self._count + len(keys)
        self._pairs[new] = pairs
        self._cross[new] = _cross_sums(self.reference, pairs)
        values = self.reference.kernel._gram(
            pairs, np.ascontiguousarray(self._pairs[1:live].T), pair_distances
        )
        self._kernels[new, 1:live] = values
        self._kernels[1:live, new] = values.T
        self._ids.update(zip(keys, new.tolist()))
        self._count = live
        return ids

    def _rebuild(self, ids: np.ndarray, tail: np.ndarray) -> np.ndarray:
        """Keep only the ids in ``tail`` (the newest pairs before the
        chunk) or in ``ids``, renumbered from 1 in their old order;
        renumber ``tail`` in place and return ``ids`` renumbered."""
        keep = np.unique(np.concatenate((tail, ids)))
        keep = keep[keep > 0]
        renumber = np.zeros(self._kernels.shape[0], dtype=np.intp)
        renumber[keep] = np.arange(1, keep.size + 1)
        live = slice(1, keep.size + 1)
        self._kernels[live, live] = self._kernels[np.ix_(keep, keep)]
        self._cross[live] = self._cross[keep]
        self._pairs[live] = self._pairs[keep]
        new_ids = renumber.tolist()
        self._ids = {key: new_ids[i] for key, i in self._ids.items() if new_ids[i]}
        self._count = keep.size + 1
        tail[:] = renumber[tail]
        return renumber[ids]


def score_series(scorer: _BlockScorer, cusum: CusumStream, observations, correction) -> tuple:
    """Push ``observations`` through ``scorer``, subtract ``correction``
    and feed ``cusum``; return ``(values, scores, statistics)``, one
    entry each per statistic produced."""
    values = scorer.push(observations)
    scores = [value - correction for value in values]
    return values, scores, cusum.extend(scores)


_WARMING_UP = StepOutcome(
    index=None, discrepancy=None, score=None, statistic=-math.inf, alarm=False
)
_WITHIN_LIMIT = COORDINATE_LIMIT.__ge__  # a step's coordinate test, one call each


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
        return lifted_pairs(self._scorer.raw)

    def step(self, observation) -> StepOutcome:
        """Feed one observation, get the updated detector state."""
        y = np.asarray(observation, dtype=float)
        if y.ndim != 1 or y.shape[0] != self._dim:
            raise ValueError(
                f"observation must be a 1-D vector of dimension {self._dim}"
            )
        values = y.tolist()
        if not all(map(_WITHIN_LIMIT, map(abs, values))):  # false for nan too
            if not all(map(math.isfinite, values)):
                raise ValueError("observation contains non-finite values")
            raise ValueError(f"observation has a coordinate beyond +-{COORDINATE_LIMIT:g}")
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
        first = self._cusum.n + 1
        values, scores, statistics = score_series(
            self._scorer, self._cusum, X, self.config.correction
        )
        threshold = self.config.threshold
        outcomes = [_WARMING_UP] * (X.shape[0] - len(values))
        for index, (discrepancy, score, statistic) in enumerate(
            zip(values, scores, statistics), start=first
        ):
            alarm = statistic >= threshold
            if alarm and self._alarmed_at is None:
                self._alarmed_at = index
            # positional: the keyword form costs a fifth more per step
            outcomes.append(StepOutcome(index, discrepancy, score, statistic, alarm))
        return outcomes

    def reset(self) -> None:
        """Forget buffer, statistic, and alarm; keep reference and config."""
        self._scorer = _BlockScorer(self.reference, self.config.window)
        self._cusum = CusumStream(self.config.min_sample)
        self._alarmed_at = None

    # -- checkpointing ----------------------------------------------------

    def checkpoint(self) -> str:
        """Serialise resumable state as compact JSON text (version 3).

        Floats are stored in hexadecimal, so a round trip restores them
        bit for bit.  The reference sample itself is not stored, only its
        digest; restore requires the same reference and configuration.
        Besides the configuration, the last ``window + 1`` observations
        (``raw_buffer``) and the CUSUM state, the text holds the cross
        sum of each buffered pair against the reference (``cross``,
        oldest first), which spares a restore the reference rows, and a
        SHA-256 of all these fields (``state_sha256``).
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
            "raw_buffer": [[v.hex() for v in row] for row in self._scorer.raw.tolist()],
            "cross": [v.hex() for v in self._scorer.raw_cross.tolist()],
            "alarmed_at": self._alarmed_at,
            "cusum": self._cusum.snapshot(),
        }
        payload["state_sha256"] = _state_digest(payload)
        return json.dumps(payload, separators=(",", ":"))

    @classmethod
    def restore(
        cls, reference: ReferenceSet, config: DetectorConfig, text: str
    ) -> "KernelCusumDetector":
        """Rebuild a detector from :meth:`checkpoint` output, of version 3
        or 2.

        A window value depends only on the pairs in its window, so
        subsequent outputs are bit-identical to an uninterrupted run.
        Three guards keep state from being resumed wrongly.  A checkpoint
        written against another reference (kernel or pairs) is rejected
        by the reference digest, and a version 3 text whose fields do not
        match its ``state_sha256`` is rejected.  A version 3 text then
        gives its stored observations but the newest to a fresh scorer
        with their stored cross sums, which scores none of them against
        the reference, and the newest one alone; the cross sum of the
        newest pair must equal the stored one bit for bit.  If it does
        not, as in a text written by a program whose kernel arithmetic
        differs, the stored sums are dropped and the text restores as
        version 2 does: every stored observation is pushed in one block
        and scored against the reference.  A scorer with an id table
        recomputes only its few distinct cross rows and takes nothing
        from ``cross``.
        """
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ValueError(f"checkpoint is not valid JSON: {exc}") from exc
        if not isinstance(data, dict) or data.get("format") != CHECKPOINT_FORMAT:
            raise ValueError("not a detector checkpoint")
        version = data.get("version")
        if type(version) is not int or version not in _CHECKPOINT_FIELDS:  # 2.0 is not 2
            raise ValueError(f"unsupported checkpoint version {version!r}")
        if sorted(data) != _CHECKPOINT_FIELDS[version]:
            raise ValueError(
                f"checkpoint is malformed: version {version} holds the fields "
                f"{', '.join(_CHECKPOINT_FIELDS[version])}"
            )
        if version >= 3 and data["state_sha256"] != _state_digest(data):
            raise ValueError("checkpoint state does not match its state_sha256 digest")
        try:
            return cls._restore_checked(reference, config, data)
        except (KeyError, TypeError, IndexError, OverflowError) as exc:  # Overflow: "0x1p+2000"
            raise ValueError(f"checkpoint is malformed: {exc!r}") from exc

    @classmethod
    def _restore_checked(
        cls, reference: ReferenceSet, config: DetectorConfig, data: dict
    ) -> "KernelCusumDetector":
        if (
            _exact_int(data["window"], "checkpoint window") != config.window
            or _exact_int(data["min_sample"], "checkpoint min_sample") != config.min_sample
            or float.fromhex(data["threshold"]) != config.threshold
            or float.fromhex(data["correction"]) != config.correction
        ):
            raise ValueError("checkpoint was written with a different configuration")
        if _exact_int(data["dim"], "checkpoint dim") != reference.point_dim:
            raise ValueError("checkpoint dimension does not match the reference")
        if data["reference"] != reference.digest:
            raise ValueError("checkpoint was written against a different reference")
        det = cls(reference, config)
        rows = data["raw_buffer"]
        if type(rows) is not list or not set(map(type, rows)) <= {list}:
            raise ValueError("checkpoint is malformed: raw buffer must be a list of rows")
        raw = _hex_floats(list(itertools.chain.from_iterable(rows)), "a raw buffer row")
        if len(rows) > config.window + 1:
            raise ValueError("checkpoint raw buffer longer than window + 1")
        if not set(map(len, rows)) <= {det._dim}:
            raise ValueError("checkpoint raw buffer has wrong dimension")
        buffer = np.array(raw, dtype=float).reshape(len(rows), det._dim)
        if not (np.abs(buffer) <= COORDINATE_LIMIT).all():
            if not np.isfinite(buffer).all():
                raise ValueError("checkpoint raw buffer holds a non-finite value")
            raise ValueError(
                f"checkpoint raw buffer holds a coordinate beyond +-{COORDINATE_LIMIT:g}"
            )
        n_pairs = max(len(rows) - 1, 0)
        sums = None
        if "cross" in data:
            sums = np.array(_hex_floats(data["cross"], "cross"), dtype=float)
            if len(sums) != n_pairs:
                raise ValueError("checkpoint cross must hold one sum per buffered pair")
            # a cross sum adds one kernel value per reference pair, each at
            # most the sum of the weights (within 1e-12 of 1); so a window
            # of them adds without overflow
            bound = 2.0 * reference.n_pairs
            if not (sums <= bound).all() or np.signbit(sums).any():
                raise ValueError(
                    f"checkpoint cross holds a value outside [+0, {bound:g}]: not a cross sum"
                )
        n = _exact_int(data["cusum"]["n"], "checkpoint inconsistent: cusum.n")
        if n_pairs < config.window and n != 0:
            raise ValueError("checkpoint inconsistent: scores before the buffer filled")
        if n_pairs == config.window and n < 1:
            raise ValueError("checkpoint inconsistent: full buffer but no scores")
        cusum = CusumStream.from_snapshot(config.min_sample, data["cusum"])
        alarmed = data["alarmed_at"]
        if alarmed is None and cusum.statistic >= config.threshold:
            raise ValueError(
                "checkpoint inconsistent: statistic at the threshold but alarmed_at is null"
            )
        if alarmed is not None and (type(alarmed) is not int or not 1 <= alarmed <= n):
            raise ValueError(
                f"checkpoint inconsistent: alarmed_at must be null or an integer "
                f"in [1, n = {n}]; got {alarmed!r}"
            )
        scorer = det._scorer
        if n_pairs and sums is not None and scorer._table is None:
            scorer.push(buffer[:-1], sums[:-1])
            scorer.push(buffer[-1:])
            if scorer.raw_cross[-1] != sums[-1]:
                # written with other kernel arithmetic: score the whole buffer
                det._scorer = _BlockScorer(reference, config.window)
                det._scorer.push(buffer)
        else:
            scorer.push(buffer)
        det._cusum = cusum
        det._alarmed_at = alarmed
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
    reference: ReferenceSet,
    holdout,
    window: int,
    margin: float = 0.01,
    quantile: float = 1.0,
) -> Calibration:
    """Pick the correction from held-out pre-change data.

    ``holdout`` is a raw ``(T, d)`` pre-change trajectory with the
    reference's point dimension d and at least ``window + 1``
    observations; its ``T - 1`` consecutive pairs are scored.  Slides a
    ``window``-pair buffer across them, records the discrepancy against
    ``reference`` at every position, and returns the ``quantile`` of
    those values plus ``margin``.  With the default ``quantile=1.0``
    the correction sits above every windowed discrepancy on the holdout,
    so each score the detector would have produced there is strictly
    negative, which is the behaviour wanted before a change.  A quantile
    slightly below 1 tolerates a brief extreme excursion in the holdout
    instead of letting one cluster of windows dictate the whole
    correction; the resulting holdout scores are then negative at all
    but that fraction of positions.

    The windows are scored with ``reference.kernel``, the kernel the
    detector monitoring against ``reference`` uses.
    """
    if margin < 0.0:
        raise ValueError("margin must be non-negative")
    if not 0.0 < quantile <= 1.0:
        raise ValueError("quantile must lie in (0, 1]")
    if int(window) != window or window < 1:
        raise ValueError("window must be an integer >= 1")
    window = int(window)
    X = as_points(holdout, name="holdout")
    if X.shape[1] != reference.point_dim:
        raise ValueError("holdout dimension does not match the reference")
    if X.shape[0] < window + 1:
        raise ValueError(
            f"holdout too short: needs at least {window + 1} observations "
            f"for one full window"
        )
    values = _BlockScorer(reference, window).push(X)
    level = _linear_quantile(values, float(quantile))
    return Calibration(
        correction=level + margin,
        holdout_level=level,
        margin=float(margin),
        n_scores=len(values),
        quantile=float(quantile),
    )


def _linear_quantile(values: list, q: float) -> float:
    """``np.quantile(values, q)`` for ``0 < q <= 1``, bit for bit: the
    order statistics around the virtual index ``(n - 1) * q``, blended
    with numpy's linear interpolation arithmetic.  ``np.quantile``
    imports ``numpy.ma`` on first use, 1-2 MiB of resident memory for a
    single number."""
    ordered = np.sort(np.asarray(values, dtype=float)).tolist()
    virtual = (len(ordered) - 1) * q
    if virtual >= len(ordered) - 1:
        return ordered[-1]
    below = math.floor(virtual)
    a, b = ordered[below], ordered[below + 1]
    t = virtual - below
    diff = b - a
    # numpy interpolates from the nearer neighbour
    return b - diff * (1 - t) if t >= 0.5 else a + diff * t
