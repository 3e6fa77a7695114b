"""Bounded Gaussian-mixture kernels on Euclidean points.

All kernels here are finite mixtures of Gaussian (RBF) components with
positive weights summing to one, so every kernel value lies in (0, 1] and
``k(x, x) == 1``.  Boundedness by one is what the downstream deviation
bounds assume, so the weight normalisation is enforced, not optional.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = ["COORDINATE_LIMIT", "KernelSpec", "as_points", "compensated_sum", "distinct_rows"]

_WEIGHT_TOL = 1e-12

# Kernel values evaluated per chunk: bounds scratch memory (a few arrays
# of 512 KiB) while keeping numpy's per-call overhead small per value.
CHUNK_ENTRIES = 1 << 16

# Largest table of coordinate differences (rows x columns x dimension)
# that ``squared_distances`` forms in one broadcast call.
_BROADCAST_LIMIT = 1 << 14

# Elements in numpy's ufunc buffer while ``squared_distances`` forms a
# large table (the default is 8192).  numpy 2 copies a broadcast operand
# through the buffer when a table row is shorter than the buffer, which
# makes the row-minus-column differences several times slower than a
# flat subtraction; rows longer than this buffer run unbuffered.
_DIFFERENCE_BUFFER = 256

# Largest coordinate magnitude a point may have.  Two points within it
# differ by at most 2e150 per coordinate, so their squared distance is at
# most 4e300 times the dimension: finite in any dimension below 4e7.
COORDINATE_LIMIT = 1e150


def row_chunks(n_rows: int, n_cols: int) -> list:
    """Slices cutting ``n_rows`` rows of an ``n_cols``-wide table into chunks
    of about :data:`CHUNK_ENTRIES` values (at least one row each)."""
    step = max(1, CHUNK_ENTRIES // n_cols)
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def squared_distances(A: np.ndarray, columns: np.ndarray) -> np.ndarray:
    """Squared distances of the rows of ``A`` (``(n, d)``) to the points
    in ``columns``, shape ``(n, k)``.

    ``columns`` is the ``(d, k)`` transpose of the points every row is
    measured against, or a ``(d, n, k)`` array holding row i's own points
    at ``[:, i, :]``.  Each distance adds its squared coordinate
    differences in coordinate order, so an entry depends on its two
    points alone: not on the shapes, the memory layout or the other
    points of the call.  Both branches add the same squares in the same
    order.  A small table takes all of them in one broadcast call, which
    saves numpy call overhead (one detector step); a larger one goes
    coordinate by coordinate, which keeps its scratch a single table and
    so in cache, with a small ufunc buffer (:data:`_DIFFERENCE_BUFFER`).
    """
    if columns.ndim == 2:
        columns = columns[:, None, :]
    if A.size * columns.shape[2] <= _BROADCAST_LIMIT:
        squares = np.subtract(A.T[:, :, None], columns, order="C")
        squares *= squares
        sq = squares[0]
        for k in range(1, A.shape[1]):
            sq += squares[k]
        return sq
    with np.errstate():  # restores the buffer size on exit
        np.setbufsize(_DIFFERENCE_BUFFER)
        sq = np.subtract(A[:, :1], columns[0])
        sq *= sq
        tmp = np.empty_like(sq)
        for k in range(1, A.shape[1]):
            np.subtract(A[:, k : k + 1], columns[k], out=tmp)
            tmp *= tmp
            sq += tmp
    return sq


def compensated_sum(values) -> float:
    """Exact sum of an array of any shape, rounded once.

    Equals :func:`math.fsum` over the values bit for bit, exceptions
    included, so the result does not depend on summation order or array
    layout.  The values reach ``fsum`` not one by one but as the few
    parts of :func:`_exact_parts`, which have the same exact sum.
    :meth:`KernelSpec.gram_sum` gives the same total for a Gram matrix
    without holding it in memory.
    """
    return math.fsum(_exact_parts(values))


def _exact_parts(values, weights=None) -> list:
    """A few floats whose exact sum is the exact sum of ``values``, each
    times its integer weight in ``weights`` (one when None).

    Error-free extraction (Rump, Ogita and Oishi, "Accurate
    floating-point summation part I: faithful rounding", SIAM J. Sci.
    Comput. 31(1), 2008, Section 3, ExtractVector), weighted: for values
    below ``2**e`` in magnitude of total weight ``W`` (their number when
    unweighted) and ``sigma = 2**(M + e)`` with ``2**M >= W + 2``, each
    ``hi = (x + sigma) - sigma`` is ``k`` times ``u = sigma * 2**-53`` with
    ``|k| <= 2**(53 - M)``, so ``hi`` times its weight is exact and every
    partial sum of the products is a multiple of ``u`` below ``sigma``:
    ``np.add.reduce`` adds them exactly in any order.  ``x - hi`` is
    exact too and at most ``u``.
    Extracting again from the remainders until they are all zero gives
    one part per pass.  Each pass takes ``52 - M`` bits or more off the
    exponent range left, so values within a few binades of each other,
    as the kernel values of a mixture with a wide component are, need
    two passes.  Input holding a non-finite value, or so large that
    ``sigma`` would overflow, is returned value by value, so that
    :func:`math.fsum` raises or overflows exactly as it would on it.
    Weighted input of that kind, or a total weight of 2**50 or more,
    which leaves a pass too few bits, raises ``ValueError``.
    """
    x = np.array(values, dtype=float).ravel()  # a copy: the remainders overwrite it
    c = None if weights is None else np.asarray(weights).ravel()
    total = x.size if c is None else float(np.add.reduce(c, dtype=float))
    if not total < 2**50:
        raise ValueError(f"exact sums take a total weight below 2**50; got {total:g}")
    if not x.size:
        return []
    top = max(x.max(), -x.min())
    bits = (int(total) + 1).bit_length()  # 2**bits >= W + 2
    if not top < math.inf or bits + math.frexp(top)[1] > 1023:
        if c is not None:
            raise ValueError(f"weighted exact sums take finite values below 2**{1023 - bits}")
        return x.tolist()
    parts = []
    hi = np.empty_like(x)
    while top > 0.0:
        sigma = math.ldexp(1.0, bits + math.frexp(top)[1])
        np.add(x, sigma, out=hi)
        hi -= sigma  # two roundings: x + sigma is rounded before sigma goes
        x -= hi
        if c is not None:
            hi *= c
        parts.append(float(np.add.reduce(hi)))
        top = max(x.max(), -x.min())
    return parts


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
    # (w_j, -2 * sigma_j^2) as Python floats, the factors ``_kernel_values`` applies
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
        """Kernel value between two single points (1-D vectors).

        This is the naive formula: the squared distance from ``np.dot``,
        the components added by ``math.fsum``.  It shares no arithmetic
        with :meth:`gram`, so tests use it as an independent check of
        the batched path, and it may differ from ``gram``'s entry for
        the same two points in the last bits.
        """
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
        per-coordinate differences in coordinate order
        (:func:`squared_distances`), then each component's exponential
        is added in component order.  A row of a many-row call therefore
        equals, bit for bit, the same row computed alone, and so does its
        ``np.sum``.  The detector's pair path relies on the same two
        steps: it adds two such observation distances per lifted pair
        and evaluates the kernel values as here, so a pair scored in one
        step or in a whole block gets the same bits.  Differences,
        unlike the norm expansion ``|x|^2 + |y|^2 - 2 x.y``, keep full
        precision on data far from the origin.

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

    def _gram(self, A: np.ndarray, columns: np.ndarray, distances=squared_distances) -> np.ndarray:
        """:meth:`gram` without validation: ``A`` is ``(n, d)`` finite rows,
        ``columns`` the ``(d, m)`` transpose of finite rows, read fastest
        with contiguous rows.  For callers holding validated sets (the
        detector's reference and pair table), so that they are not
        rescanned on every call.  ``distances(A, columns)`` gives the
        squared distances, row chunk by row chunk."""
        out = np.empty((A.shape[0], columns.shape[1]))
        for rows in row_chunks(A.shape[0], columns.shape[1]):
            self._kernel_values(distances(A[rows], columns), out[rows])
        return out

    def _kernel_values(self, sq: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """Kernel values of the squared distances ``sq``, into ``out``
        (a new array when None; never ``sq`` itself): each component's
        ``w * exp(sq / (-2 * sigma**2))``, added in component order."""
        out = np.empty_like(sq) if out is None else out
        tmp = np.empty_like(sq) if len(self._terms) > 1 else None
        for j, (w, scale) in enumerate(self._terms):
            part = out if j == 0 else tmp
            np.divide(sq, scale, out=part)
            np.exp(part, out=part)
            part *= w
            if j:
                out += part
        return out

    def gram_sum(self, a, b) -> float:
        """Exact sum of all entries of ``gram(a, b)``, rounded once.

        Rows are grouped by :func:`distinct_rows`, and only the
        distinct-by-distinct matrix is evaluated, one row chunk at a
        time; :func:`_exact_parts` weights each value by its count product
        (the times its row pair occurs in the full matrix), and one
        :func:`math.fsum` over the parts of every chunk rounds the exact
        total once.  So the result has the bits of
        :func:`compensated_sum` over the whole matrix without holding it.
        """
        A, _, a_counts = distinct_rows(as_points(a, name="a"))
        B, _, b_counts = distinct_rows(as_points(b, name="b"))
        B = np.asfortranarray(B)
        parts = []
        for rows in row_chunks(A.shape[0], B.shape[0]):
            weights = np.multiply.outer(a_counts[rows], b_counts)
            parts += _exact_parts(self.gram(A[rows], B), weights)
        return math.fsum(parts)

    def self_sum(self, points) -> float:
        """``gram_sum(points, points)``, from the upper triangle alone."""
        distinct, _, counts = distinct_rows(as_points(points))
        return self._self_sum(distinct, counts)

    def _self_sum(
        self, points: np.ndarray, counts: np.ndarray, distances=squared_distances
    ) -> float:
        """:meth:`gram_sum` of ``points`` with itself, row i repeated
        ``counts[i]`` times (the output of :func:`distinct_rows`, or any
        rows with their counts, all ones for rows that do not repeat);
        ``distances`` as in :meth:`_gram`.

        :meth:`gram` is symmetric bit for bit, since ``(x - y)**2`` equals
        ``(y - x)**2`` and both orders add the same squares in the same
        order.  So only the upper triangle is evaluated.  Each chunk's
        strict upper triangle gives exact parts (:func:`_exact_parts`,
        weighted by the count products when rows repeat), each part doubled
        for the mirror image, which is exact; the diagonal's parts enter
        once.  So ``fsum`` sees the exact total of the full matrix and
        rounds it to the bits of :meth:`gram_sum`.
        """
        columns = np.ascontiguousarray(points.T)
        repeats = bool(counts.max() > 1)
        chunks = row_chunks(len(points), len(points))
        # the first chunk is the tallest; a shorter one's lower triangle is
        # a prefix of this one, which lists its entries row by row
        lower = np.tril_indices(chunks[0].stop)
        parts = []
        for rows in chunks:
            values = self._gram(points[rows], columns[:, rows.start :], distances)
            weights = np.multiply.outer(counts[rows], counts[rows.start :]) if repeats else None
            diagonal = values.diagonal().copy()
            n = values.shape[0] * (values.shape[0] + 1) // 2
            values[lower[0][:n], lower[1][:n]] = 0.0  # left of the diagonal and on it
            parts += [2.0 * part for part in _exact_parts(values, weights)]
            parts += _exact_parts(diagonal, None if weights is None else weights.diagonal())
        return math.fsum(parts)
