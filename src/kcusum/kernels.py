"""Bounded Gaussian-mixture kernels on Euclidean points.

All kernels here are finite mixtures of Gaussian (RBF) components with
positive weights summing to one, so every kernel value lies in (0, 1] and
``k(x, x) == 1``.  Boundedness by one is what the downstream deviation
bounds assume, so the weight normalisation is enforced, not optional.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["COORDINATE_LIMIT", "KernelSpec", "as_points", "compensated_sum", "distinct_rows"]

_WEIGHT_TOL = 1e-12

# Kernel values evaluated per chunk: bounds scratch memory (a few arrays
# of 512 KiB) while keeping numpy's per-call overhead small per value.
CHUNK_ENTRIES = 1 << 16

# Largest table of coordinate differences (rows x columns x dimension)
# that ``KernelSpec.gram`` forms in one broadcast call.
_BROADCAST_LIMIT = 1 << 14

# Largest coordinate magnitude a point may have.  Two points within it
# differ by at most 2e150 per coordinate, so their squared distance is at
# most 4e300 times the dimension: finite in any dimension below 4e7.
COORDINATE_LIMIT = 1e150

# Veltkamp's splitter for binary64: ``_split`` cuts a float into two
# halves of at most 26 significant bits each.
_SPLITTER = float((1 << 27) + 1)
_HALF = float(1 << 26)


def row_chunks(n_rows: int, n_cols: int) -> list:
    """Slices cutting ``n_rows`` rows of an ``n_cols``-wide table into chunks
    of about :data:`CHUNK_ENTRIES` values (at least one row each)."""
    step = max(1, CHUNK_ENTRIES // n_cols)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def compensated_sum(values) -> float:
    """Sum floats with exact compensation (order-independent result).

    Thin wrapper around :func:`math.fsum` that accepts arrays of any
    shape.  The result does not depend on summation order or array
    layout; :meth:`KernelSpec.gram_sum` gives the same total for a Gram
    matrix without holding it in memory.
    """
    return math.fsum(np.asarray(values, dtype=float).ravel())


def distinct_rows(points: np.ndarray) -> tuple:
    """Group the rows of a 2-D float array by their bytes.

    Returns ``(distinct, inverse, counts)`` with
    ``distinct[inverse] == points`` and ``counts[k]`` the number of rows
    equal to ``distinct[k]``.  Rows with equal bytes have equal kernel
    rows, so evaluating the distinct rows and gathering changes no value
    (``0.0`` and ``-0.0`` merely stay apart).  Comparing each row as one
    opaque byte string is several times cheaper than
    ``np.unique(axis=0)``.
    """
    rows = np.ascontiguousarray(points)
    keys = rows.view(np.dtype((np.void, rows.dtype.itemsize * rows.shape[1]))).ravel()
    _, first, inverse, counts = np.unique(
        keys, return_index=True, return_inverse=True, return_counts=True
    )
    return rows[first], inverse, counts


def _split(x: np.ndarray) -> tuple:
    """Veltkamp split: ``x == hi + lo`` exactly, each half at most 26 bits."""
    t = x * _SPLITTER
    hi = t - (t - x)
    return hi, x - hi


def as_points(points, *, name: str = "points") -> np.ndarray:
    """Coerce input to a non-empty ``(n, d)`` float array.

    Accepts a 2-D array-like (rows are points) or a sequence of 1-D
    vectors of equal length.  A single bare vector is not accepted:
    pass ``x[None, :]`` to mean "one point".  Every coordinate must be
    finite and at most :data:`COORDINATE_LIMIT` in magnitude.
    """
    arr = np.asarray(points, dtype=float)
    if arr.ndim != 2:
        raise ValueError(
            f"{name} must be a 2-D array of shape (n, d); got ndim={arr.ndim}"
        )
    if arr.shape[0] == 0:
        raise ValueError(f"{name} must contain at least one point")
    if arr.shape[1] == 0:
        raise ValueError(f"{name} must have dimension >= 1")
    if not (np.abs(arr) <= COORDINATE_LIMIT).all():
        if not np.isfinite(arr).all():
            raise ValueError(f"{name} contains non-finite values")
        raise ValueError(f"{name} has a coordinate beyond +-{COORDINATE_LIMIT:g}")
    return arr


@dataclass(frozen=True)
class KernelSpec:
    """Finite Gaussian mixture kernel.

    k(x, y) = sum_j w_j * exp(-||x - y||^2 / (2 * sigma_j^2))

    Parameters
    ----------
    weights : array
        Positive component weights.  Must sum to one (tolerance 1e-12),
        which pins sup |k| = k(x, x) = 1.
    bandwidths : array
        Positive component scales sigma_j, same length as ``weights``.
    """

    weights: np.ndarray
    bandwidths: np.ndarray
    # (w_j, -2 * sigma_j^2) as Python floats, the factors ``_fill`` applies
    _terms: tuple = field(default=(), init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        s = np.asarray(self.bandwidths, dtype=float)
        if w.ndim != 1 or s.ndim != 1:
            raise ValueError("weights and bandwidths must be 1-D")
        if w.shape != s.shape:
            raise ValueError(
                f"weights and bandwidths must have equal length; got {w.shape[0]} and {s.shape[0]}"
            )
        if w.shape[0] == 0:
            raise ValueError("kernel needs at least one component")
        if not np.all(np.isfinite(w)) or not np.all(np.isfinite(s)):
            raise ValueError("weights and bandwidths must be finite")
        if np.any(w <= 0.0):
            raise ValueError("weights must be strictly positive")
        if np.any(s <= 0.0):
            raise ValueError("bandwidths must be strictly positive")
        # every exponent divides by 2 sigma^2; 0 or inf there gives nan
        # or a kernel equal to 1 everywhere
        if not all(0.0 < 2.0 * b * b < math.inf for b in s.tolist()):
            raise ValueError("bandwidths must keep 2 * sigma^2 positive and finite")
        total = math.fsum(w)
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(
                f"weights must sum to 1 (got {total!r}); normalise before constructing"
            )
        w = w.copy()
        s = s.copy()
        w.flags.writeable = False
        s.flags.writeable = False
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bandwidths", s)
        terms = tuple((wj, -2.0 * sj * sj) for wj, sj in zip(w.tolist(), s.tolist()))
        object.__setattr__(self, "_terms", terms)

    @classmethod
    def gaussian(cls, bandwidth: float) -> "KernelSpec":
        """Single Gaussian component with scale ``bandwidth``."""
        return cls(weights=np.array([1.0]), bandwidths=np.array([float(bandwidth)]))

    @classmethod
    def mixture(cls, bandwidths, weights=None) -> "KernelSpec":
        """Mixture over ``bandwidths``; equal weights when ``weights`` is None."""
        s = np.asarray(bandwidths, dtype=float)
        if weights is None:
            if s.ndim != 1 or s.shape[0] == 0:
                raise ValueError("bandwidths must be a non-empty 1-D sequence")
            w = np.full(s.shape[0], 1.0 / s.shape[0])
        else:
            w = np.asarray(weights, dtype=float)
        return cls(weights=w, bandwidths=s)

    @property
    def n_components(self) -> int:
        return int(self.weights.shape[0])

    def eval(self, z1, z2) -> float:
        """Kernel value between two single points (1-D vectors)."""
        a = np.asarray(z1, dtype=float)
        b = np.asarray(z2, dtype=float)
        if a.ndim != 1 or b.ndim != 1:
            raise ValueError("eval takes 1-D vectors; use gram for batches")
        if a.shape != b.shape:
            raise ValueError(
                f"points must have equal dimension; got {a.shape[0]} and {b.shape[0]}"
            )
        d2 = float(np.dot(a - b, a - b))
        return math.fsum(
            w * math.exp(-d2 / (2.0 * s * s))
            for w, s in zip(self.weights, self.bandwidths)
        )

    def gram(self, a, b) -> np.ndarray:
        """Kernel matrix between two point sets, shape ``(len(a), len(b))``.

        Every entry depends only on its own two points, never on the
        rest of the call: the squared distance is summed from
        per-coordinate differences in coordinate order, then each
        component's exponential is added in component order.  A row of
        a many-row call therefore equals, bit for bit, the same row
        computed alone, and so does its ``np.sum``; the detector relies
        on this to score one observation or a whole block alike.
        Differences, unlike the norm expansion ``|x|^2 + |y|^2 - 2 x.y``,
        keep full precision on data far from the origin.

        ``b`` is read through its transpose; a column-major ``b`` (such
        as :attr:`ReferenceSet.pairs <kcusum.detector.ReferenceSet>`)
        is read without a copy.  Work runs in row chunks of about
        ``CHUNK_ENTRIES`` values, so scratch memory stays bounded
        whatever the size of ``a``.
        """
        A = as_points(a, name="a")
        B = as_points(b, name="b")
        if A.shape[1] != B.shape[1]:
            raise ValueError(
                f"point sets must share dimension; got {A.shape[1]} and {B.shape[1]}"
            )
        return self._gram(A, np.ascontiguousarray(B.T))

    def _gram(self, A: np.ndarray, columns: np.ndarray) -> np.ndarray:
        """:meth:`gram` without validation: ``A`` is ``(n, d)`` finite rows,
        ``columns`` the ``(d, m)`` transpose of finite rows, read fastest
        with contiguous rows.  For callers holding validated sets (the
        detector's reference and window buffers), so that a step does
        not rescan them."""
        out = np.empty((A.shape[0], columns.shape[1]))
        if A.shape[0] * columns.shape[1] <= CHUNK_ENTRIES:
            self._fill(A, columns, out)  # one chunk, as a detector step
            return out
        for rows in row_chunks(A.shape[0], columns.shape[1]):
            self._fill(A[rows], columns, out[rows])
        return out

    def _fill(self, A: np.ndarray, columns: np.ndarray, out: np.ndarray) -> None:
        # Both branches add the same squared differences in the same
        # order.  A small table takes all of them in one broadcast call,
        # which saves numpy call overhead (a one-row call, as in a
        # detector step); a larger one goes coordinate by coordinate,
        # which keeps its scratch a single table and so in cache.
        if A.shape[0] * columns.size <= _BROADCAST_LIMIT:
            squares = np.subtract(A.T[:, :, None], columns[:, None, :])
            squares *= squares
            sq = squares[0]
            for k in range(1, columns.shape[0]):
                sq += squares[k]
            tmp = np.empty_like(sq)
        else:
            sq = np.subtract(A[:, :1], columns[0])
            sq *= sq
            tmp = np.empty_like(sq)
            for k in range(1, columns.shape[0]):
                np.subtract(A[:, k : k + 1], columns[k], out=tmp)
                tmp *= tmp
                sq += tmp
        for j, (w, scale) in enumerate(self._terms):
            np.divide(sq, scale, out=tmp)
            np.exp(tmp, out=tmp)
            if j == 0:
                np.multiply(tmp, w, out=out)
            else:
                tmp *= w
                out += tmp

    def gram_sum(self, a, b) -> float:
        """Compensated sum of all entries of ``gram(a, b)``.

        Rows are grouped by :func:`distinct_rows`, and only the
        distinct-by-distinct matrix is evaluated, one row chunk at a
        time; each value v enters with its count product c (the times its
        row pair occurs in the full matrix).  Both are split into halves
        of at most 26 bits, so the four partial products of ``v * c`` are
        exact floats; every chunk feeds one exact :func:`math.fsum`, so
        the result has the bits of :func:`compensated_sum` over the whole
        matrix without holding it.
        """
        A, _, a_counts = distinct_rows(as_points(a, name="a"))
        B, _, b_counts = distinct_rows(as_points(b, name="b"))
        B = np.asfortranarray(B)
        chunks = (
            self._weighted_terms(self.gram(A[rows], B), np.multiply.outer(a_counts[rows], b_counts))
            for rows in row_chunks(A.shape[0], B.shape[0])
        )
        return math.fsum(itertools.chain.from_iterable(chunks))

    def self_sum(self, points) -> float:
        """``gram_sum(points, points)``, from the upper triangle alone."""
        distinct, _, counts = distinct_rows(as_points(points))
        return self._self_sum(distinct, counts)

    def _self_sum(self, points: np.ndarray, counts: np.ndarray) -> float:
        """:meth:`gram_sum` of ``points`` with itself, row i repeated
        ``counts[i]`` times (the output of :func:`distinct_rows`).

        :meth:`gram` is symmetric bit for bit, since ``(x - y)**2`` equals
        ``(y - x)**2`` and both orders add the same squares in the same
        order.  So only the upper triangle is evaluated: a diagonal value
        enters once and each value right of it twice, for itself and its
        mirror image.  Doubling is exact, so ``fsum`` sees the exact total
        of the full matrix and rounds it to the bits of :meth:`gram_sum`.
        """
        n = points.shape[0]
        B = np.asfortranarray(points)
        repeats = bool(counts.max() > 1)

        def chunks():
            for rows in row_chunks(n, n):
                values = self.gram(points[rows], B[rows.start :])
                # 1 on the diagonal, 2 right of it, 0 left of it
                factors = np.triu(np.full(values.shape, 2.0), 1)
                factors[np.arange(values.shape[0]), np.arange(values.shape[0])] = 1.0
                if repeats:
                    factors *= np.multiply.outer(counts[rows], counts[rows.start :])
                    yield self._weighted_terms(values, factors)
                else:
                    yield (values * factors).ravel().tolist()

        return math.fsum(itertools.chain.from_iterable(chunks()))

    @staticmethod
    def _weighted_terms(values, counts):
        """Exact partial products of kernel ``values`` with integer ``counts``."""
        # a count is at most twice len(a) * len(b), below 2^52 unless the
        # sets hold 2^25 rows, so both of its 26-bit halves are exact
        counts = counts.astype(float)
        counts_lo = np.fmod(counts, _HALF)
        counts_hi = counts - counts_lo
        hi, lo = _split(values)
        for v in (hi, lo):
            for c in (counts_hi, counts_lo):
                yield from (v * c).ravel().tolist()
