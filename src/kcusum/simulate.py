"""Data generators: linear state-space chains and finite-state chains.

Both generators use counter-based random streams (Philox keyed by
``(seed, stream)``), so any replication of a campaign can be regenerated
in isolation and results never depend on scheduling order.

The finite-chain half also provides exact population quantities
(stationary law, pair-distribution discrepancy, minorisation constants)
that serve as ground truth for the estimators elsewhere in the package.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Iterator

import numpy as np

from .bounds import DoeblinParams
from .kernels import COORDINATE_LIMIT, KernelSpec, as_points

__all__ = [
    "stream_rng",
    "GaussianLaw",
    "ArScenario",
    "ar_blocks",
    "simulate_ar",
    "default_system_matrix",
    "variance_change_scenario",
    "mean_change_scenario",
    "FiniteChain",
    "FiniteScenario",
    "stationary_distribution",
    "finite_blocks",
    "simulate_finite",
    "simulate_finite_scenario",
    "exact_mmd_finite",
    "doeblin_of_finite",
    "lift_chain",
    "save_trajectory",
    "load_trajectory",
]

_UINT64_CEIL = 2**64


def stream_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Independent generator for one logical stream of one experiment.

    Keyed Philox: same ``(seed, stream)`` always yields the same draws,
    and distinct streams are independent, so parallel replications can
    each take their own stream without coordination.
    """
    for label, v in (("seed", seed), ("stream", stream)):
        if int(v) != v or not (0 <= v < _UINT64_CEIL):
            raise ValueError(f"{label} must be an integer in [0, 2^64); got {v!r}")
    key = np.array([seed, stream], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


@dataclass(frozen=True)
class GaussianLaw:
    """Multivariate normal noise law with a cached covariance factor."""

    mean: np.ndarray
    cov: np.ndarray

    def __post_init__(self) -> None:
        mean = np.asarray(self.mean, dtype=float)
        cov = np.asarray(self.cov, dtype=float)
        if mean.ndim != 1 or mean.shape[0] == 0:
            raise ValueError("mean must be a non-empty 1-D vector")
        d = mean.shape[0]
        if cov.shape != (d, d):
            raise ValueError(f"cov must have shape ({d}, {d}); got {cov.shape}")
        if not (np.all(np.isfinite(mean)) and np.all(np.isfinite(cov))):
            raise ValueError("mean and cov must be finite")
        if not np.allclose(cov, cov.T, atol=1e-12):
            raise ValueError("cov must be symmetric")
        # a cov near the float maximum overflows here and gets a nan
        # factor; the harness reports the trajectory that it gives
        with np.errstate(over="ignore"):
            w, u = np.linalg.eigh((cov + cov.T) / 2.0)
        scale = max(abs(w[0]), abs(w[-1]), 1.0)
        if w[0] < -1e-10 * scale:
            raise ValueError(f"cov must be positive semidefinite; min eigenvalue {w[0]!r}")
        factor = u * np.sqrt(np.clip(w, 0.0, None))
        mean = mean.copy()
        cov = cov.copy()
        mean.flags.writeable = False
        cov.flags.writeable = False
        factor.flags.writeable = False
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "cov", cov)
        object.__setattr__(self, "_factor", factor)

    @classmethod
    def isotropic(cls, dim: int, variance: float, mean: float = 0.0) -> "GaussianLaw":
        """Noise with covariance ``variance * I`` and constant mean entries."""
        if dim < 1:
            raise ValueError("dim must be >= 1")
        if variance < 0.0:
            raise ValueError("variance must be non-negative")
        return cls(mean=np.full(dim, float(mean)), cov=float(variance) * np.eye(dim))

    @property
    def dim(self) -> int:
        return int(self.mean.shape[0])

    def transform(self, z: np.ndarray) -> np.ndarray:
        """Map standard-normal rows to this law, each row as if alone.

        A stack of ``(1, d)`` products keeps every row's bits whatever
        the number of rows; one ``(n, d) @ (d, d)`` product does not.
        """
        factor = self._factor.T  # type: ignore[attr-defined]
        return self.mean + np.matmul(z[..., None, :], factor)[..., 0, :]


@dataclass(frozen=True)
class ArScenario:
    """Linear recursion ``x_{t+1} = A x_t + w_t`` with an optional noise change.

    The change index is on the *output* clock: observation ``g`` (1-based,
    after burn-in) is generated with the post-change noise law exactly
    when ``g > change_at``.  ``change_at=None`` means the change never
    happens; because the underlying normal draws are consumed identically
    either way, ``change_at`` larger than ``length`` is bit-identical to
    no change at all.
    """

    matrix: np.ndarray
    pre_noise: GaussianLaw
    post_noise: GaussianLaw | None = None
    change_at: int | None = None
    length: int = 2000
    burn_in: int = 500

    def __post_init__(self) -> None:
        A = np.asarray(self.matrix, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1] or A.shape[0] == 0:
            raise ValueError("matrix must be square and non-empty")
        if not np.all(np.isfinite(A)):
            raise ValueError("matrix must be finite")
        radius = float(np.abs(np.linalg.eigvals(A)).max())
        if radius >= 1.0:
            raise ValueError(
                f"matrix must be stable (spectral radius < 1); got {radius:.6f}"
            )
        d = A.shape[0]
        if self.pre_noise.dim != d:
            raise ValueError("pre_noise dimension must match the matrix")
        if (self.post_noise is None) != (self.change_at is None):
            raise ValueError("post_noise and change_at must be given together")
        if self.post_noise is not None and self.post_noise.dim != d:
            raise ValueError("post_noise dimension must match the matrix")
        if self.change_at is not None and self.change_at < 1:
            raise ValueError("change_at must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")
        if self.burn_in < 0:
            raise ValueError("burn_in must be >= 0")
        A = A.copy()
        A.flags.writeable = False
        object.__setattr__(self, "matrix", A)

    @property
    def dim(self) -> int:
        return int(self.matrix.shape[0])


def ar_blocks(
    scenario: ArScenario, seed: int, stream: int = 0, size: int | None = None
) -> Iterator[np.ndarray]:
    """Yield one trajectory as consecutive ``(size, dim)`` blocks.

    Starts from the origin and discards ``burn_in`` steps so the output
    is close to stationary; ``size=None`` yields the whole trajectory as
    one block, and the last block may be shorter than ``size``.  The
    state and the generator ``stream_rng(seed, stream)`` carry over from
    block to block, and each block draws only its own standard normals.
    Chunked Philox draws equal one call, and :meth:`GaussianLaw.transform`
    maps rows one by one, so the blocks join into the same trajectory
    however it is cut, and a caller that stops early draws no more.
    """
    length = scenario.length
    size = length if size is None else _block_size(size)
    rng = stream_rng(seed, stream)
    x = np.zeros(scenario.dim)
    for start in range(-scenario.burn_in, 0, size):
        x = _ar_rows(scenario, rng, x, start, min(size, -start))[-1]
    for start in range(0, length, size):
        rows = _ar_rows(scenario, rng, x, start, min(size, length - start))
        x = rows[-1].copy()  # the caller may write to its block
        yield rows


def _ar_rows(
    scenario: ArScenario, rng: np.random.Generator, x: np.ndarray, start: int, count: int
) -> np.ndarray:
    """Observations ``start + 1 .. start + count`` of the output clock
    (zero and below during burn-in), continuing from state ``x``.  The
    step into observation g uses the post-change noise when
    ``g > change_at``."""
    z = rng.standard_normal((count, scenario.dim))
    split = count
    if scenario.change_at is not None:
        split = min(max(scenario.change_at - start, 0), count)
    noise = np.empty_like(z)
    noise[:split] = scenario.pre_noise.transform(z[:split])
    if split < count:
        noise[split:] = scenario.post_noise.transform(z[split:])
    step = scenario.matrix.dot  # A @ x, bound once: the loop is most of the cost
    out = np.empty_like(z)
    with np.errstate(over="ignore", invalid="ignore"):  # the harness reports overflow
        for i, w in enumerate(noise):
            out[i] = x = step(x) + w
    return out


def simulate_ar(scenario: ArScenario, seed: int, stream: int = 0) -> np.ndarray:
    """One trajectory of ``scenario``, shape ``(length, dim)``: the blocks
    of :func:`ar_blocks` joined."""
    return np.concatenate(list(ar_blocks(scenario, seed, stream)))


def _block_size(size) -> int:
    if int(size) != size or size < 1:
        raise ValueError(f"size must be a positive integer; got {size!r}")
    return int(size)


# Fixed default system matrix: symmetric, eigenvalues
# (0.95, -0.80, 0.55, -0.30), generated once from a seeded orthogonal
# basis and pinned here so the stock scenarios are stable across
# versions.  Spectral radius 0.95.
_DEFAULT_MATRIX = np.array(
    [
        [0.7676843509493234, 0.07785830425103699, -0.20930076129171865, 0.3950855787582109],
        [0.07785830425103697, 0.014301687808084839, -0.42955122731323503, -0.06824396192923093],
        [-0.20930076129171857, -0.42955122731323503, 0.2642815465900743, 0.18396195710056357],
        [0.3950855787582109, -0.06824396192923093, 0.18396195710056357, -0.6462675853474825],
    ]
)


def default_system_matrix() -> np.ndarray:
    """The pinned 4x4 stable system matrix used by the stock scenarios."""
    return _DEFAULT_MATRIX.copy()


def variance_change_scenario(
    length: int = 2000, change_at: int | None = 1000, burn_in: int = 500
) -> ArScenario:
    """Stock scenario: isotropic noise variance doubles from 0.1 to 0.2."""
    post = GaussianLaw.isotropic(4, 0.2) if change_at is not None else None
    return ArScenario(
        matrix=_DEFAULT_MATRIX,
        pre_noise=GaussianLaw.isotropic(4, 0.1),
        post_noise=post,
        change_at=change_at,
        length=length,
        burn_in=burn_in,
    )


def mean_change_scenario(
    length: int = 2000, change_at: int | None = 1000, burn_in: int = 500
) -> ArScenario:
    """Stock scenario: noise mean shifts from 0 to 0.05 per coordinate."""
    post = GaussianLaw.isotropic(4, 0.1, mean=0.05) if change_at is not None else None
    return ArScenario(
        matrix=_DEFAULT_MATRIX,
        pre_noise=GaussianLaw.isotropic(4, 0.1),
        post_noise=post,
        change_at=change_at,
        length=length,
        burn_in=burn_in,
    )


@dataclass(frozen=True)
class FiniteChain:
    """Finite-state chain with an explicit Euclidean embedding of its states.

    ``states[i]`` is the observed vector for state ``i``; ``matrix[i, j]``
    the transition probability.  Construction requires a primitive
    (irreducible and aperiodic) matrix, which every helper below relies
    on; reducible or periodic inputs are rejected here.
    """

    states: np.ndarray
    matrix: np.ndarray

    def __post_init__(self) -> None:
        X = as_points(self.states, name="states")
        P = np.asarray(self.matrix, dtype=float)
        n = X.shape[0]
        if P.shape != (n, n):
            raise ValueError(f"matrix must have shape ({n}, {n}); got {P.shape}")
        if not np.all(np.isfinite(P)):
            raise ValueError("matrix must be finite")
        if np.any(P < 0.0):
            raise ValueError("matrix entries must be non-negative")
        rowsums = P.sum(axis=1)
        if np.max(np.abs(rowsums - 1.0)) > 1e-12:
            raise ValueError("matrix rows must sum to 1")
        if not _is_primitive(P):
            raise ValueError(
                "matrix must be primitive (irreducible and aperiodic); "
                "some power of it must be strictly positive"
            )
        X = X.copy()
        P = P.copy()
        X.flags.writeable = False
        P.flags.writeable = False
        object.__setattr__(self, "states", X)
        object.__setattr__(self, "matrix", P)

    @property
    def n_states(self) -> int:
        return int(self.matrix.shape[0])

    @property
    def dim(self) -> int:
        return int(self.states.shape[1])


def _is_primitive(P: np.ndarray) -> bool:
    """True when some power of P is strictly positive (checked up to n^2)."""
    n = P.shape[0]
    mask = P > 0.0
    current = mask.copy()
    for _ in range(n * n):
        if current.all():
            return True
        current = (current.astype(np.int64) @ mask.astype(np.int64)) > 0
    return bool(current.all())


def stationary_distribution(chain: FiniteChain) -> np.ndarray:
    """Unique stationary law, solved from the balance equations.

    Replaces one balance equation by the normalisation constraint and
    solves the linear system; the result is checked to be a probability
    vector fixed by the chain to 1e-10.
    """
    P = chain.matrix
    n = chain.n_states
    A = P.T - np.eye(n)
    A[-1, :] = 1.0
    b = np.zeros(n)
    b[-1] = 1.0
    pi = np.linalg.solve(A, b)
    if np.any(pi < -1e-12):
        raise ValueError("stationary solve produced negative mass; chain ill-conditioned")
    pi = np.clip(pi, 0.0, None)
    pi = pi / pi.sum()
    if np.max(np.abs(pi @ P - pi)) > 1e-10:
        raise ValueError("stationary solve failed the balance check")
    return pi


def _next_states(matrix: np.ndarray, u: np.ndarray, top: int) -> np.ndarray:
    """``(len(u), n)`` table: the state that draw ``u[j]`` moves to from
    each of the n states, clamped to ``top``."""
    cumulative = np.cumsum(matrix, axis=1)
    moves = np.stack([np.searchsorted(row, u, side="right") for row in cumulative], axis=1)
    return np.minimum(moves, top)


def simulate_finite(
    chain: FiniteChain, length: int, seed: int, stream: int = 0
) -> np.ndarray:
    """Stationary trajectory of embedded states, shape ``(length, dim)``.

    The first state is drawn exactly from the stationary law, so no
    burn-in is needed.  It is the scenario whose chain never changes.
    """
    if length < 1:
        raise ValueError("length must be >= 1")
    scenario = FiniteScenario(pre=chain, post=chain, change_at=length, length=length)
    return np.concatenate(list(finite_blocks(scenario, seed, stream)))


@dataclass(frozen=True)
class FiniteScenario:
    """Finite-chain monitoring scenario with a transition-law change.

    Both chains must share the same state embedding.  Observation ``g``
    (1-based) is produced by the post-change matrix exactly when
    ``g > change_at``; the initial state is a stationary draw of the
    pre-change chain.
    """

    pre: FiniteChain
    post: FiniteChain
    change_at: int
    length: int

    def __post_init__(self) -> None:
        if not np.array_equal(self.pre.states, self.post.states):
            raise ValueError("pre and post chains must share the same state embedding")
        if self.change_at < 1:
            raise ValueError("change_at must be >= 1")
        if self.length < 1:
            raise ValueError("length must be >= 1")


def finite_blocks(
    scenario: FiniteScenario, seed: int, stream: int = 0, size: int | None = None
) -> Iterator[np.ndarray]:
    """Yield the trajectory of ``scenario`` as consecutive ``(size, dim)``
    blocks of embedded states (``size=None``: one block).

    Observation 1 is a stationary draw of the pre-change chain; the step
    into observation g inverts one uniform draw on the current state's
    cumulative row of the post-change matrix when ``g > change_at`` and
    of the pre-change one otherwise.  Each block draws only its own
    uniforms from ``stream_rng(seed, stream)`` and inverts every draw
    against every row at once, so the loop only looks the next state
    up; the state carries over, and the blocks join into the same path
    however it is cut.
    """
    length = scenario.length
    size = length if size is None else _block_size(size)
    rng = stream_rng(seed, stream)
    pre, post = scenario.pre.matrix, scenario.post.matrix
    n = scenario.pre.n_states
    top = n - 1
    state = None
    for start in range(0, length, size):
        u = rng.random(min(size, length - start))
        path = []
        first = 0
        if state is None:
            pi = stationary_distribution(scenario.pre)
            # clamp guards the (round-off) case u >= cumulative total
            state = min(int(np.searchsorted(np.cumsum(pi), u[0], side="right")), top)
            path.append(state)
            first = 1
        # draw j of the path moves into observation j + 1, so draws from
        # ``change_at`` on use post
        split = min(max(scenario.change_at - start, first), len(u))
        moves = (_next_states(pre, u[first:split], top), _next_states(post, u[split:], top))
        flat = np.concatenate(moves).ravel().tolist()
        for base in range(0, len(flat), n):
            state = flat[base + state]
            path.append(state)
        yield scenario.pre.states[path]


def simulate_finite_scenario(
    scenario: FiniteScenario, seed: int, stream: int = 0
) -> np.ndarray:
    """Trajectory for a :class:`FiniteScenario`, shape ``(length, dim)``:
    the blocks of :func:`finite_blocks` joined."""
    return np.concatenate(list(finite_blocks(scenario, seed, stream)))


def exact_mmd_finite(
    kernel: KernelSpec, chain_p: FiniteChain, chain_q: FiniteChain
) -> float:
    """Population pair-distribution discrepancy between two finite chains.

    Enumerates the stationary pair laws ``pi_i P_{ij}`` of both chains on
    the shared embedding and evaluates the kernel quadratic form of
    their difference exactly; returns the unsquared discrepancy.
    """
    if not np.array_equal(chain_p.states, chain_q.states):
        raise ValueError("chains must share the same state embedding")
    n = chain_p.n_states
    pi_p = stationary_distribution(chain_p)
    pi_q = stationary_distribution(chain_q)
    f_p = (pi_p[:, None] * chain_p.matrix).ravel()
    f_q = (pi_q[:, None] * chain_q.matrix).ravel()
    states = chain_p.states
    grid = np.hstack(
        [
            np.repeat(states, n, axis=0),
            np.tile(states, (n, 1)),
        ]
    )
    diff = f_p - f_q
    quad = float(diff @ kernel.gram(grid, grid) @ diff)
    return math.sqrt(max(quad, 0.0))


def doeblin_of_finite(chain: FiniteChain) -> DoeblinParams:
    """Smallest-lag minorisation certificate, computed by enumeration.

    Finds the first power ``l`` whose column minima sum to a positive
    mass ``delta`` and returns ``(lam=delta, lag=l)``.  Primitivity
    (checked at construction) guarantees such ``l`` exists within
    ``n_states**2`` powers.
    """
    P = chain.matrix
    power = P.copy()
    for lag in range(1, chain.n_states**2 + 1):
        delta = float(power.min(axis=0).sum())
        if delta > 0.0:
            if delta >= 1.0:
                raise ValueError(
                    "chain couples exactly in finite time (identical rows); "
                    "the geometric decay sums are degenerate"
                )
            return DoeblinParams(lam=delta, lag=lag)
        power = power @ P
    raise ValueError("no positive minorisation found; chain is not primitive")


def lift_chain(chain: FiniteChain) -> FiniteChain:
    """Chain of consecutive state pairs, restricted to supported transitions.

    States are the pairs ``(i, j)`` with ``matrix[i, j] > 0``, embedded
    as the concatenation of the two state vectors; the pair ``(i, j)``
    moves to ``(j, k)`` with probability ``matrix[j, k]``.  Restricting
    to supported pairs keeps the lifted chain primitive whenever the
    base chain is.
    """
    P = chain.matrix
    n = chain.n_states
    pairs = [(i, j) for i in range(n) for j in range(n) if P[i, j] > 0.0]
    index = {pair: a for a, pair in enumerate(pairs)}
    m = len(pairs)
    lifted = np.zeros((m, m))
    for a, (_, j) in enumerate(pairs):
        for k in range(n):
            if P[j, k] > 0.0:
                lifted[a, index[(j, k)]] = P[j, k]
    states = np.array(
        [np.concatenate([chain.states[i], chain.states[j]]) for i, j in pairs]
    )
    return FiniteChain(states=states, matrix=lifted)


def save_trajectory(trajectory: np.ndarray, path) -> None:
    """Write a trajectory as CSV with header ``t,x_0,...,x_{d-1}`` (t 1-based)."""
    X = as_points(trajectory, name="trajectory")
    d = X.shape[1]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["t"] + [f"x_{i}" for i in range(d)])
        for t, row in enumerate(X, start=1):
            writer.writerow([t] + [repr(float(v)) for v in row])


def load_trajectory(path) -> np.ndarray:
    """Read a trajectory CSV written by :func:`save_trajectory`."""
    with open(path, "r", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or len(header) < 2 or header[0] != "t":
            raise ValueError(f"{path}: expected header t,x_0,...,x_(d-1)")
        d = len(header) - 1
        if header[1:] != [f"x_{i}" for i in range(d)]:
            raise ValueError(f"{path}: expected header t,x_0,...,x_(d-1)")
        rows = []
        for lineno, row in enumerate(reader, start=2):
            if len(row) != d + 1:
                raise ValueError(f"{path}:{lineno}: expected {d + 1} columns")
            try:
                values = [float(v) for v in row[1:]]
            except ValueError:
                raise ValueError(f"{path}:{lineno}: cells must be numbers") from None
            if not np.isfinite(values).all():
                raise ValueError(f"{path}:{lineno}: cells must be finite")
            if max(map(abs, values)) > COORDINATE_LIMIT:
                raise ValueError(f"{path}:{lineno}: cells must lie within +-{COORDINATE_LIMIT:g}")
            rows.append(values)
    if not rows:
        raise ValueError(f"{path}: no observations")
    return np.asarray(rows, dtype=float)
