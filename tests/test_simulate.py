"""Data generators and chain analysis: exact oracles and seeded checks."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcusum import (
    ArScenario,
    DoeblinParams,
    FiniteChain,
    FiniteScenario,
    GaussianLaw,
    KernelSpec,
    default_system_matrix,
    doeblin_of_finite,
    exact_mmd_finite,
    lift_chain,
    load_trajectory,
    rho_envelope,
    save_trajectory,
    sigma_from_doeblin,
    simulate_ar,
    simulate_finite,
    simulate_finite_scenario,
    stationary_distribution,
    stream_rng,
)

TWO_STATE = np.array([[0.9, 0.1], [0.2, 0.8]])
TWO_STATE_ALT = np.array([[0.8, 0.2], [0.2, 0.8]])


def two_state_chain(matrix=TWO_STATE):
    return FiniteChain(states=np.array([[0.0], [1.0]]), matrix=matrix)


# -- random streams -----------------------------------------------------------


def test_stream_rng_reproducible_and_separated():
    a = stream_rng(7, 3).standard_normal(8)
    b = stream_rng(7, 3).standard_normal(8)
    c = stream_rng(7, 4).standard_normal(8)
    d = stream_rng(8, 3).standard_normal(8)
    assert np.array_equal(a, b)
    assert not np.array_equal(a, c)
    assert not np.array_equal(a, d)


def test_stream_rng_validation():
    for seed, stream in ((-1, 0), (0.5, 0), (0, -2), (2**64, 0)):
        with pytest.raises(ValueError):
            stream_rng(seed, stream)


# -- Gaussian noise laws ------------------------------------------------------


def test_gaussian_law_isotropic():
    law = GaussianLaw.isotropic(3, 0.25, mean=1.5)
    assert law.dim == 3
    assert np.array_equal(law.mean, np.full(3, 1.5))
    assert np.array_equal(law.cov, 0.25 * np.eye(3))
    with pytest.raises(ValueError):
        law.mean[0] = 0.0  # frozen


def test_gaussian_law_transform_matches_moments():
    cov = np.array([[2.0, 0.6], [0.6, 1.0]])
    law = GaussianLaw(mean=np.array([1.0, -2.0]), cov=cov)
    z = stream_rng(0, 0).standard_normal((200_000, 2))
    x = law.transform(z)
    assert np.allclose(x.mean(axis=0), law.mean, atol=0.02)
    assert np.allclose(np.cov(x.T), cov, atol=0.03)


def test_gaussian_law_validation():
    with pytest.raises(ValueError):
        GaussianLaw(mean=np.zeros((2, 2)), cov=np.eye(2))
    with pytest.raises(ValueError):
        GaussianLaw(mean=np.zeros(2), cov=np.eye(3))
    with pytest.raises(ValueError):
        GaussianLaw(mean=np.zeros(2), cov=np.array([[1.0, 0.5], [0.2, 1.0]]))
    with pytest.raises(ValueError):
        GaussianLaw(mean=np.zeros(2), cov=np.array([[1.0, 2.0], [2.0, 1.0]]))  # not PSD
    with pytest.raises(ValueError):
        GaussianLaw.isotropic(0, 1.0)
    with pytest.raises(ValueError):
        GaussianLaw.isotropic(2, -1.0)


# -- linear-recursion scenarios -----------------------------------------------


def test_default_matrix_is_pinned_and_copied():
    A = default_system_matrix()
    assert np.allclose(A, A.T, atol=1e-15)
    eigs = np.sort(np.linalg.eigvalsh(A))
    assert np.allclose(eigs, [-0.80, -0.30, 0.55, 0.95], atol=1e-12)
    A[0, 0] = 99.0
    assert default_system_matrix()[0, 0] != 99.0


def variance_scenario(length, change_at, burn_in):
    """Isotropic noise variance 0.1, doubling to 0.2 after ``change_at``,
    on the pinned matrix: what ``kind = ar-variance`` builds by default."""
    post = GaussianLaw.isotropic(4, 0.2) if change_at is not None else None
    return ArScenario(
        matrix=default_system_matrix(), pre_noise=GaussianLaw.isotropic(4, 0.1),
        post_noise=post, change_at=change_at, length=length, burn_in=burn_in,
    )


def test_simulate_ar_shape_and_determinism():
    scenario = variance_scenario(length=300, change_at=100, burn_in=50)
    x1 = simulate_ar(scenario, seed=5, stream=2)
    x2 = simulate_ar(scenario, seed=5, stream=2)
    assert x1.shape == (300, 4)
    assert np.array_equal(x1, x2)
    assert not np.array_equal(x1, simulate_ar(scenario, seed=5, stream=3))


def test_change_beyond_horizon_is_bit_identical_to_no_change():
    quiet = variance_scenario(length=200, change_at=None, burn_in=40)
    late = variance_scenario(length=200, change_at=5000, burn_in=40)
    assert np.array_equal(simulate_ar(quiet, seed=9), simulate_ar(late, seed=9))


def test_change_actually_changes_only_after_change_index():
    pre_only = variance_scenario(length=200, change_at=None, burn_in=40)
    changed = variance_scenario(length=200, change_at=120, burn_in=40)
    a, b = simulate_ar(pre_only, seed=11), simulate_ar(changed, seed=11)
    assert np.array_equal(a[:120], b[:120])
    assert not np.array_equal(a[120:], b[120:])


# -- blocks ---------------------------------------------------------------------
# A campaign simulates a trajectory one block at a time and stops when it
# has what it needs, so blocks must join into the one-piece trajectory.


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    seed=st.integers(0, 2**64 - 1),
    stream=st.integers(0, 2**64 - 1),
    dim=st.integers(1, 6),
    chunks=st.lists(st.integers(0, 900), min_size=1, max_size=6),
)
@example(seed=0, stream=0, dim=4, chunks=[1, 7, 50, 333, 859])
@example(seed=3, stream=16, dim=1, chunks=[13, 13, 13])
def test_philox_draws_in_chunks_equal_one_call(seed, stream, dim, chunks):
    total = sum(chunks)
    whole, cut = stream_rng(seed, stream), stream_rng(seed, stream)
    normals = np.concatenate([cut.standard_normal((c, dim)) for c in chunks])
    assert np.array_equal(normals, whole.standard_normal((total, dim)))
    uniforms = np.concatenate([cut.random(c) for c in chunks])
    assert np.array_equal(uniforms, whole.random(total))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(dim=st.integers(1, 11), rows=st.integers(0, 40), seed=st.integers(0, 2**32 - 1))
def test_transform_of_a_block_equals_per_row_products(dim, rows, seed):
    rng = np.random.default_rng(seed)
    m = rng.standard_normal((dim, dim))
    law = GaussianLaw(mean=rng.standard_normal(dim), cov=m @ m.T + 0.01 * np.eye(dim))
    z = rng.standard_normal((rows, dim))
    factor = law._factor
    want = np.array([law.mean + row @ factor.T for row in z]).reshape(rows, dim)
    assert np.array_equal(law.transform(z), want)
    for row, expected in zip(z, want):
        assert np.array_equal(law.transform(row), expected)


def per_step_ar(scenario, seed, stream):
    """The AR recursion the direct way: every normal drawn up front, and
    the noise mapped one row at a time."""
    d = scenario.dim
    total = scenario.burn_in + scenario.length
    z = stream_rng(seed, stream).standard_normal((total, d))
    x = np.zeros(d)
    out = []
    for t in range(1, total + 1):
        g = t - scenario.burn_in
        post = scenario.change_at is not None and g > scenario.change_at
        law = scenario.post_noise if post else scenario.pre_noise
        x = scenario.matrix @ x + (law.mean + z[t - 1] @ law._factor.T)
        if g >= 1:
            out.append(x)
    return np.array(out)


def _blocks_of(blocks, size, length):
    blocks = list(blocks)
    assert [len(block) for block in blocks] == [
        min(size, length - start) for start in range(0, length, size)
    ]
    return np.concatenate(blocks)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    length=st.integers(1, 90),
    burn_in=st.integers(0, 40),
    change_at=st.one_of(st.none(), st.integers(1, 100)),
    size=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=60, burn_in=10, change_at=25, size=10, seed=1)  # change inside a block
@example(length=60, burn_in=10, change_at=30, size=10, seed=1)  # change on a block edge
@example(length=60, burn_in=0, change_at=20, size=7, seed=1)  # no burn-in
@example(length=1, burn_in=5, change_at=1, size=3, seed=1)  # one observation
def test_ar_blocks_join_into_the_one_piece_trajectory(length, burn_in, change_at, size, seed):
    rng = np.random.default_rng(seed)
    dim = 3
    m = rng.standard_normal((dim, dim))
    pre = GaussianLaw(mean=rng.standard_normal(dim), cov=m @ m.T + 0.01 * np.eye(dim))
    post = GaussianLaw(mean=np.zeros(dim), cov=np.diag([0.5, 2.0, 1.0])) if change_at else None
    scenario = ArScenario(
        matrix=0.3 * default_system_matrix()[:dim, :dim], pre_noise=pre, post_noise=post,
        change_at=change_at, length=length, burn_in=burn_in,
    )
    want = per_step_ar(scenario, seed, 5)
    assert np.array_equal(simulate_ar(scenario, seed, 5), want)
    assert np.array_equal(_blocks_of(scenario.blocks(seed, 5, size), size, length), want)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    length=st.integers(1, 90),
    change_at=st.integers(1, 100),
    size=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=60, change_at=25, size=10, seed=1)  # change inside a block
@example(length=60, change_at=30, size=10, seed=1)  # change on a block edge
@example(length=60, change_at=1, size=1, seed=1)  # change into the second observation
@example(length=1, change_at=1, size=4, seed=1)  # one observation
def test_finite_blocks_join_into_the_one_piece_path(length, change_at, size, seed):
    states = np.array([[0.0], [1.0], [2.0]])
    pre = FiniteChain(states, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.1, 0.3]]))
    post = FiniteChain(states, np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.5, 0.3]]))
    pi = stationary_distribution(pre)
    scenario = FiniteScenario(pre=pre, post=post, change_at=change_at, length=length)
    want = states[per_step_path(lambda g: post if g > change_at else pre, pi, length, seed, 3)]
    assert np.array_equal(_blocks_of(scenario.blocks(seed, 3, size), size, length), want)
    quiet = FiniteScenario(pre=pre, post=pre, change_at=length, length=length)
    assert np.array_equal(
        _blocks_of(quiet.blocks(seed, 3, size), size, length),
        simulate_finite(pre, length, seed, 3),
    )


@pytest.mark.parametrize("size", [0, -1, 2.5])
def test_block_size_must_be_a_positive_integer(size):
    scenario = variance_scenario(length=10, change_at=None, burn_in=0)
    with pytest.raises(ValueError, match="size"):
        next(scenario.blocks(0, 0, size))
    finite = FiniteScenario(pre=two_state_chain(), post=two_state_chain(), change_at=5, length=10)
    with pytest.raises(ValueError, match="size"):
        next(finite.blocks(0, 0, size))


def test_ar_scenario_validation():
    noise = GaussianLaw.isotropic(2, 1.0)
    ok = dict(matrix=0.5 * np.eye(2), pre_noise=noise)
    ArScenario(**ok)
    with pytest.raises(ValueError):
        ArScenario(matrix=np.eye(2), pre_noise=noise)  # not stable
    with pytest.raises(ValueError):
        ArScenario(matrix=np.zeros((2, 3)), pre_noise=noise)
    with pytest.raises(ValueError):
        ArScenario(**ok, post_noise=noise)  # change_at missing
    with pytest.raises(ValueError):
        ArScenario(**ok, change_at=100)  # post_noise missing
    with pytest.raises(ValueError):
        ArScenario(**ok, post_noise=noise, change_at=0)
    with pytest.raises(ValueError):
        ArScenario(**ok, length=0)
    with pytest.raises(ValueError):
        ArScenario(**ok, burn_in=-1)
    with pytest.raises(ValueError):
        ArScenario(matrix=0.5 * np.eye(3), pre_noise=noise)  # dim mismatch


# -- finite chains ------------------------------------------------------------


def test_finite_chain_validation():
    states = np.array([[0.0], [1.0]])
    with pytest.raises(ValueError):
        FiniteChain(states=states, matrix=np.array([[0.9, 0.2], [0.2, 0.8]]))
    with pytest.raises(ValueError):
        FiniteChain(states=states, matrix=np.array([[1.1, -0.1], [0.2, 0.8]]))
    with pytest.raises(ValueError, match="primitive"):
        FiniteChain(states=states, matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
    with pytest.raises(ValueError, match="primitive"):
        FiniteChain(states=states, matrix=np.eye(2))
    with pytest.raises(ValueError):
        FiniteChain(states=np.zeros((3, 1)), matrix=TWO_STATE)


def test_stationary_distribution_closed_form():
    pi = stationary_distribution(two_state_chain())
    assert np.allclose(pi, [2.0 / 3.0, 1.0 / 3.0], atol=1e-12)
    sym = stationary_distribution(two_state_chain(TWO_STATE_ALT))
    assert np.allclose(sym, [0.5, 0.5], atol=1e-12)


def minorisation_mass(P, lag):
    return float(np.linalg.matrix_power(P, lag).min(axis=0).sum())


def test_doeblin_two_state_lag_one():
    params = doeblin_of_finite(two_state_chain())
    assert params.lag == 1
    assert math.isclose(params.lam, 0.3, rel_tol=0, abs_tol=1e-15)


def test_doeblin_finds_smallest_lag():
    P = np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])
    chain = FiniteChain(states=np.arange(3.0)[:, None], matrix=P)
    params = doeblin_of_finite(chain)
    assert minorisation_mass(P, params.lag) == params.lam
    for shorter in range(1, params.lag):
        assert minorisation_mass(P, shorter) == 0.0
    assert params.lag == 2 and math.isclose(params.lam, 0.25, abs_tol=1e-15)


def test_doeblin_rejects_exact_coupling():
    P = np.array([[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(ValueError, match="couples exactly"):
        doeblin_of_finite(FiniteChain(states=np.array([[0.0], [1.0]]), matrix=P))


def test_lift_chain_two_state_full_support():
    chain = two_state_chain()
    lifted = lift_chain(chain)
    assert lifted.n_states == 4 and lifted.dim == 2
    # pair (i, j) embeds as (x_i, x_j), lexicographic order
    assert np.array_equal(
        lifted.states, [[0, 0], [0, 1], [1, 0], [1, 1]]
    )
    pi = stationary_distribution(chain)
    pair_law = (pi[:, None] * chain.matrix).ravel()
    assert np.allclose(stationary_distribution(lifted), pair_law, atol=1e-12)


def test_lift_chain_restricts_to_supported_pairs():
    P = np.array([[0.0, 1.0], [0.5, 0.5]])
    lifted = lift_chain(FiniteChain(states=np.array([[0.0], [1.0]]), matrix=P))
    assert lifted.n_states == 3  # (0,1), (1,0), (1,1)
    want = np.array(
        [
            [0.0, 0.5, 0.5],  # (0,1) -> (1,0) or (1,1)
            [1.0, 0.0, 0.0],  # (1,0) -> (0,1)
            [0.0, 0.5, 0.5],  # (1,1) -> (1,0) or (1,1)
        ]
    )
    assert np.array_equal(lifted.matrix, want)


# -- exact population discrepancy ----------------------------------------------


def test_exact_mmd_identical_chains_is_zero():
    chain = two_state_chain()
    kernel = KernelSpec.gaussian(1.0)
    assert exact_mmd_finite(kernel, chain, chain) == 0.0


def test_exact_mmd_narrow_kernel_recovers_pair_law_distance():
    """With a near-delta kernel the Gram matrix over the distinct pair
    states is the identity, so the squared discrepancy collapses to the
    squared Euclidean distance between the stationary pair laws:
    here ||F_P - F_Q||^2 = 0.2^2 + (1/30)^2 + (1/30)^2 + (2/15)^2 = 0.06."""
    p = two_state_chain()
    q = two_state_chain(TWO_STATE_ALT)
    kernel = KernelSpec.gaussian(0.01)
    got = exact_mmd_finite(kernel, p, q)
    assert math.isclose(got, math.sqrt(0.06), rel_tol=0, abs_tol=1e-9)


def test_exact_mmd_symmetry_and_triangle():
    kernel = KernelSpec.mixture([0.5, 2.0])
    a = two_state_chain()
    b = two_state_chain(TWO_STATE_ALT)
    c = two_state_chain(np.array([[0.5, 0.5], [0.3, 0.7]]))
    ab, ba = exact_mmd_finite(kernel, a, b), exact_mmd_finite(kernel, b, a)
    assert math.isclose(ab, ba, rel_tol=0, abs_tol=1e-12)
    ac = exact_mmd_finite(kernel, a, c)
    cb = exact_mmd_finite(kernel, c, b)
    assert ab <= ac + cb + 1e-9


def test_exact_mmd_requires_shared_embedding():
    kernel = KernelSpec.gaussian(1.0)
    other = FiniteChain(states=np.array([[0.0], [2.0]]), matrix=TWO_STATE)
    with pytest.raises(ValueError):
        exact_mmd_finite(kernel, two_state_chain(), other)


# -- decay envelope vs exact chain covariances ----------------------------------


def exact_lagged_covariances(chain, kernel, max_lag):
    """Spectral norms of the exact lag-t feature cross-covariances.

    States are embedded in feature space via a Cholesky factor of the
    state Gram matrix, so unit vectors in coordinates are exactly the
    unit ball of kernel functions on the states.
    """
    K = kernel.gram(chain.states, chain.states)
    # small jitter keeps Cholesky defined for nearly singular grams
    L = np.linalg.cholesky(K + 1e-12 * np.eye(chain.n_states))
    phi = L  # row i = feature vector of state i
    pi = stationary_distribution(chain)
    mu = pi @ phi
    P = chain.matrix
    power = np.eye(chain.n_states)
    norms = []
    for _ in range(1, max_lag + 1):
        power = power @ P
        joint = (pi[:, None] * power)  # joint law of (X_0, X_t)
        C = phi.T @ joint @ phi - np.outer(mu, mu)
        norms.append(float(np.linalg.norm(C, 2)))
    return norms


@pytest.mark.parametrize(
    "matrix",
    [TWO_STATE, TWO_STATE_ALT, np.array([[0.0, 0.5, 0.5], [1.0, 0.0, 0.0], [0.5, 0.5, 0.0]])],
    ids=["two-state", "symmetric", "three-state-lag2"],
)
def test_envelope_dominates_exact_covariances(matrix):
    chain = FiniteChain(states=np.arange(float(matrix.shape[0]))[:, None], matrix=matrix)
    kernel = KernelSpec.gaussian(1.0)
    params = doeblin_of_finite(chain)
    norms = exact_lagged_covariances(chain, kernel, max_lag=200)
    for t, norm in enumerate(norms, start=1):
        # 1e-12 absorbs the rounding floor of the matrix products once
        # the true covariance has decayed below machine noise
        assert norm <= rho_envelope(params, t) + 1e-12
    assert math.fsum(norms) <= sigma_from_doeblin(params)


def test_envelope_dominates_lifted_chain_covariances():
    chain = lift_chain(two_state_chain())
    kernel = KernelSpec.gaussian(1.0)
    params = doeblin_of_finite(chain)
    norms = exact_lagged_covariances(chain, kernel, max_lag=200)
    for t, norm in enumerate(norms, start=1):
        assert norm <= rho_envelope(params, t) + 1e-12
    assert math.fsum(norms) <= sigma_from_doeblin(params)


# -- finite-chain simulation -----------------------------------------------------


def test_simulate_finite_deterministic_and_embedded():
    chain = two_state_chain()
    x1 = simulate_finite(chain, 50, seed=3, stream=1)
    x2 = simulate_finite(chain, 50, seed=3, stream=1)
    assert np.array_equal(x1, x2)
    assert x1.shape == (50, 1)
    assert set(np.unique(x1)) <= {0.0, 1.0}
    with pytest.raises(ValueError):
        simulate_finite(chain, 0, seed=3)


def test_simulated_pair_frequencies_match_stationary_pair_law():
    chain = two_state_chain()
    x = simulate_finite(chain, 200_000, seed=12, stream=0).ravel()
    pi = stationary_distribution(chain)
    pair_law = (pi[:, None] * chain.matrix).ravel()
    counts = np.zeros(4)
    idx = (2 * x[:-1] + x[1:]).astype(int)
    for k in range(4):
        counts[k] = np.count_nonzero(idx == k)
    freq = counts / idx.shape[0]
    assert 0.5 * np.abs(freq - pair_law).sum() < 0.01  # total variation


def test_scenario_prefix_matches_pre_chain_run():
    pre, post = two_state_chain(), two_state_chain(TWO_STATE_ALT)
    scenario = FiniteScenario(pre=pre, post=post, change_at=40, length=100)
    with_change = simulate_finite_scenario(scenario, seed=6, stream=2)
    without = simulate_finite(pre, 100, seed=6, stream=2)
    assert np.array_equal(with_change[:40], without[:40])
    assert not np.array_equal(with_change, without)


def per_step_path(chain_for_step, pi, length, seed, stream):
    """Index path drawn the direct way: cumulate the current row on every step."""
    rng = stream_rng(seed, stream)
    u = rng.random(length)
    top = len(pi) - 1
    idx = [min(int(np.searchsorted(np.cumsum(pi), u[0], side="right")), top)]
    for g in range(2, length + 1):
        row = chain_for_step(g).matrix[idx[-1]]
        idx.append(min(int(np.searchsorted(np.cumsum(row), u[g - 1], side="right")), top))
    return idx


@pytest.mark.parametrize("seed", [0, 1, 7, 123])
def test_finite_paths_match_per_step_cumulation(seed):
    states = np.array([[0.0], [1.0], [2.0]])
    pre = FiniteChain(states, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.1, 0.3]]))
    post = FiniteChain(states, np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.5, 0.3]]))
    pi = stationary_distribution(pre)
    want = per_step_path(lambda g: pre, pi, 500, seed, 3)
    got = simulate_finite(pre, 500, seed=seed, stream=3)
    assert np.array_equal(got, states[want])
    scenario = FiniteScenario(pre=pre, post=post, change_at=200, length=500)
    want = per_step_path(lambda g: post if g > 200 else pre, pi, 500, seed, 3)
    assert np.array_equal(simulate_finite_scenario(scenario, seed=seed, stream=3), states[want])


@pytest.mark.parametrize("change_at,length", [(1, 50), (49, 50), (50, 50), (80, 50), (1, 1)])
def test_finite_paths_at_the_edges_of_the_change(change_at, length):
    """A change into the second observation, into the last, at the last
    and past the end; and a path of one observation."""
    states = np.array([[0.0], [1.0], [2.0]])
    pre = FiniteChain(states, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.1, 0.3]]))
    post = FiniteChain(states, np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.5, 0.3]]))
    pi = stationary_distribution(pre)
    want = per_step_path(lambda g: post if g > change_at else pre, pi, length, 5, 3)
    scenario = FiniteScenario(pre=pre, post=post, change_at=change_at, length=length)
    assert np.array_equal(simulate_finite_scenario(scenario, seed=5, stream=3), states[want])


def test_finite_scenario_validation():
    pre, post = two_state_chain(), two_state_chain(TWO_STATE_ALT)
    with pytest.raises(ValueError):
        FiniteScenario(pre=pre, post=post, change_at=0, length=10)
    with pytest.raises(ValueError):
        FiniteScenario(pre=pre, post=post, change_at=5, length=0)
    other = FiniteChain(states=np.array([[0.0], [2.0]]), matrix=TWO_STATE_ALT)
    with pytest.raises(ValueError, match="embedding"):
        FiniteScenario(pre=pre, post=other, change_at=5, length=10)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    length=st.integers(1, 90),
    late=st.integers(0, 30),
    size=st.integers(1, 100),
    seed=st.integers(0, 2**32 - 1),
)
@example(length=60, late=0, size=10, seed=1)  # the old no-change stand-in, in blocks
@example(length=1, late=0, size=1, seed=1)  # one observation
def test_finite_scenario_without_a_change_is_bit_identical_to_a_change_at_the_end(
    length, late, size, seed
):
    """``change_at=None`` yields the blocks of ``change_at=length``, the
    stand-in for "no change" it replaced, and of any later change."""
    states = np.array([[0.0], [1.0], [2.0]])
    pre = FiniteChain(states, np.array([[0.1, 0.2, 0.7], [0.3, 0.3, 0.4], [0.6, 0.1, 0.3]]))
    post = FiniteChain(states, np.array([[0.7, 0.2, 0.1], [0.1, 0.1, 0.8], [0.2, 0.5, 0.3]]))
    never = list(FiniteScenario(pre, post, None, length).blocks(seed, 3, size))
    for stand_in in (
        FiniteScenario(pre=pre, post=pre, change_at=length, length=length),
        FiniteScenario(pre=pre, post=post, change_at=length + late, length=length),
    ):
        blocks = list(stand_in.blocks(seed, 3, size))
        assert len(blocks) == len(never)
        assert all(np.array_equal(a, b) for a, b in zip(blocks, never))
    assert np.array_equal(np.concatenate(never), simulate_finite(pre, length, seed, 3))


def test_before_change_is_the_pre_change_law():
    """``before_change()`` of each kind equals the construction the
    harness made by hand for reference and holdout data."""
    ar = variance_scenario(length=300, change_at=100, burn_in=50)
    quiet = ar.before_change()
    assert (quiet.post_noise, quiet.change_at, quiet.length, quiet.burn_in) == (None, None, 300, 50)
    assert quiet.pre_noise is ar.pre_noise and np.array_equal(quiet.matrix, ar.matrix)
    by_hand = dataclasses.replace(ar, post_noise=None, change_at=None)
    assert np.array_equal(simulate_ar(quiet, 4, 1), simulate_ar(by_hand, 4, 1))
    assert np.array_equal(simulate_ar(quiet, 4, 1), simulate_ar(variance_scenario(300, None, 50), 4, 1))

    pre, post = two_state_chain(), two_state_chain(TWO_STATE_ALT)
    finite = FiniteScenario(pre=pre, post=post, change_at=40, length=120)
    quiet = finite.before_change()
    assert quiet == FiniteScenario(pre=pre, post=pre, change_at=None, length=120)
    by_hand = FiniteScenario(pre=pre, post=pre, change_at=120, length=120)
    assert np.array_equal(
        simulate_finite_scenario(quiet, 4, 1), simulate_finite_scenario(by_hand, 4, 1)
    )
    assert np.array_equal(simulate_finite_scenario(quiet, 4, 1), simulate_finite(pre, 120, 4, 1))


# -- trajectory files -------------------------------------------------------------


def test_save_load_roundtrip_bit_identical(tmp_path):
    rng = stream_rng(1, 1)
    x = rng.standard_normal((17, 3))
    path = tmp_path / "traj.csv"
    save_trajectory(x, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,x_0,x_1,x_2"
    assert np.array_equal(load_trajectory(path), x)


def test_load_rejects_malformed_files(tmp_path):
    bad_header = tmp_path / "a.csv"
    bad_header.write_text("time,x_0\n1,0.5\n")
    with pytest.raises(ValueError, match="header"):
        load_trajectory(bad_header)
    ragged = tmp_path / "b.csv"
    ragged.write_text("t,x_0,x_1\n1,0.5\n")
    with pytest.raises(ValueError, match="columns"):
        load_trajectory(ragged)
    empty = tmp_path / "c.csv"
    empty.write_text("t,x_0\n")
    with pytest.raises(ValueError, match="no observations"):
        load_trajectory(empty)
