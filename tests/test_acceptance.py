"""End-to-end acceptance suite: one test per advertised guarantee.

Each test is fully self-contained, derives every expected value from an
independent oracle or a closed form computed in the test body, and
asserts its own wall-clock budget.  Monte Carlo tests are seeded, so
every count and every comparison below is reproducible bit for bit.
"""

import math
import time
from collections import deque

import numpy as np

from kcusum import (
    ArScenario,
    CusumStream,
    DetectorConfig,
    DoeblinParams,
    FiniteChain,
    FiniteScenario,
    GaussianLaw,
    KernelCusumDetector,
    KernelSpec,
    buffer_doeblin,
    build_reference,
    calibrate_correction,
    consistency_bound,
    default_system_matrix,
    doeblin_of_finite,
    exact_mmd_finite,
    lift,
    lift_chain,
    md_upper_bound,
    mmd,
    mmd_squared,
    mtbfa_lower_bound,
    sigma_from_doeblin,
    simulate_ar,
    simulate_finite,
    simulate_finite_scenario,
    stationary_distribution,
    stream_rng,
)
from kcusum.cli import main as cli_main

# Two-state transition pair used by the campaign and consistency tests:
# the chains share a state space but differ in both transition law and
# stationary distribution.
TWO_STATE_P = np.array([[0.9, 0.1], [0.2, 0.8]])
TWO_STATE_Q = np.array([[0.8, 0.2], [0.2, 0.8]])
TWO_STATES = np.array([[0.0], [1.0]])


def test_criterion_1_mmd_matches_naive_oracle():
    """mmd_squared equals a pure-Python double-loop evaluation, 100 cases."""
    t0 = time.monotonic()
    rng = np.random.default_rng(101)
    for _ in range(100):
        n_a = int(rng.integers(2, 31))
        n_b = int(rng.integers(2, 31))
        dim = int(rng.integers(1, 7))
        bws = rng.uniform(0.3, 3.0, size=int(rng.integers(1, 3)))
        kernel = KernelSpec.mixture(bws)
        sample_a = rng.normal(scale=rng.uniform(0.5, 2.0), size=(n_a, dim))
        sample_b = rng.normal(scale=rng.uniform(0.5, 2.0), size=(n_b, dim))
        sample_b += rng.uniform(-1.0, 1.0)

        def k(x, y):
            sq = math.fsum((xi - yi) ** 2 for xi, yi in zip(x, y))
            return math.fsum(
                math.exp(-sq / (2.0 * s * s)) for s in bws) / len(bws)

        t_aa = math.fsum(k(x, y) for x in sample_a for y in sample_a)
        t_bb = math.fsum(k(x, y) for x in sample_b for y in sample_b)
        t_ab = math.fsum(k(x, y) for x in sample_a for y in sample_b)
        naive = t_aa / n_a**2 - 2.0 * t_ab / (n_a * n_b) + t_bb / n_b**2
        got = mmd_squared(kernel, sample_a, sample_b)
        assert abs(got - max(naive, 0.0)) <= 1e-12
    assert time.monotonic() - t0 < 5.0


def test_criterion_2_cusum_matches_direct_enumeration():
    """Streaming statistic equals brute-force max over admissible starts.

    100 seeded score sequences; every tenth one places the scores on an
    exact dyadic grid (one at the maximum length 500, so all window sums
    are exactly representable even there), the rest draw continuous
    scores at the detector's natural O(1) magnitude.  Alarm times are
    compared for 5 thresholds per sequence.
    """
    t0 = time.monotonic()
    rng = np.random.default_rng(202)
    for i in range(100):
        min_sample = (1, 5, 20)[i % 3]
        if i % 10 == 9:
            n = 500 if i == 9 else 200
            scores = [float(v) * 2.0**-20
                      for v in rng.integers(-2**21, 2**21, size=n)]
        else:
            n = int(rng.integers(30, 181))
            scores = [float(v) for v in rng.uniform(-2.0, 2.0, size=n)]

        stream = CusumStream(min_sample=min_sample)
        streamed = []
        for s in scores:
            stream.update(s)
            streamed.append(stream.statistic)

        oracle = []
        for j in range(1, n + 1):
            if j <= min_sample:
                oracle.append(float("-inf"))
            else:
                oracle.append(max(
                    math.fsum(scores[k:j]) for k in range(j - min_sample)))

        worst = 0.0
        for got, want in zip(streamed, oracle):
            if math.isinf(got) and math.isinf(want):
                continue
            worst = max(worst, abs(got - want))
        assert worst <= 1e-12

        finite = [v for v in oracle if math.isfinite(v)]
        lo, hi = min(finite), max(finite)
        for threshold in np.linspace(lo, hi + 1.0, 5):
            t_stream = next(
                (idx for idx, v in enumerate(streamed) if v >= threshold), None)
            t_oracle = next(
                (idx for idx, v in enumerate(oracle) if v >= threshold), None)
            assert t_stream == t_oracle
    assert time.monotonic() - t0 < 10.0


def test_criterion_3_incremental_mmd_matches_recomputation():
    """Every streamed discrepancy equals a from-scratch evaluation.

    A 5,000-step vector autoregression (d=4, window 50, reference 500
    pairs) is monitored step by step; at each emitted statistic the raw
    window discrepancy is recomputed with an independent vectorised gram
    oracle that shares no state with the detector's incremental caches.
    The reference self-similarity term is a constant of the frozen
    reference set, recomputed once by the same oracle.
    """
    t0 = time.monotonic()
    kernel = KernelSpec.mixture([1.0, 2.0])
    matrix = default_system_matrix()
    pre = GaussianLaw.isotropic(4, 0.1)
    post = GaussianLaw.isotropic(4, 0.2)
    reference_run = simulate_ar(
        ArScenario(matrix=matrix, pre_noise=pre, length=501), seed=303, stream=0)
    reference = build_reference(kernel, reference_run)
    scenario = ArScenario(matrix=matrix, pre_noise=pre, post_noise=post,
                          change_at=2500, length=5000)
    observations = simulate_ar(scenario, seed=303, stream=16)

    weights, bandwidths = kernel.weights, kernel.bandwidths

    def gram_mean(lhs, rhs):
        sq = ((lhs[:, None, :] - rhs[None, :, :]) ** 2).sum(-1)
        total = np.zeros_like(sq)
        for w, s in zip(weights, bandwidths):
            total += w * np.exp(-sq / (2.0 * s * s))
        return float(total.mean())

    ref_pairs = reference.pairs
    ref_self = gram_mean(ref_pairs, ref_pairs)

    correction = 0.05
    detector = KernelCusumDetector(
        reference,
        DetectorConfig(window=50, min_sample=10, threshold=1e18,
                       correction=correction))
    window_raw = deque(maxlen=51)
    checked = 0
    for x in observations:
        window_raw.append(x)
        outcome = detector.step(x)
        if outcome.index is None:
            continue
        arr = np.asarray(window_raw)
        window_pairs = np.hstack([arr[:-1], arr[1:]])
        fresh_sq = (gram_mean(window_pairs, window_pairs)
                    - 2.0 * gram_mean(window_pairs, ref_pairs) + ref_self)
        fresh = math.sqrt(max(fresh_sq, 0.0))
        assert abs((outcome.score + correction) - fresh) <= 1e-9
        checked += 1
    assert checked == 5000 - 50
    assert time.monotonic() - t0 < 120.0


def test_criterion_4_sigma_closed_form_dominates_partial_sums():
    """The summed-envelope closed form strictly exceeds truncated sums.

    Grid of 50 (lam, lag) pairs; partial sums of the decay envelope
    4 * (1 - lam)^(t/lag - 1) accumulated to t = 10^6.
    """
    t0 = time.monotonic()
    t = np.arange(1, 10**6 + 1, dtype=float)
    for lam in np.linspace(0.05, 0.95, 10):
        for lag in (1, 2, 3, 5, 10):
            sigma = sigma_from_doeblin(DoeblinParams(lam=float(lam), lag=lag))
            partial = float(
                np.sum(4.0 * np.exp((t / lag - 1.0) * math.log1p(-lam))))
            assert sigma > partial
    assert time.monotonic() - t0 < 5.0


def test_criterion_5_dependent_mmd_estimate_within_consistency_bound():
    """Monte Carlo mean of the windowed estimator stays near its target.

    200 replications of paired 400-transition trajectories from the
    two-state chains; the deviation of the Monte Carlo mean from the
    exact population discrepancy must not exceed the closed-form
    finite-sample bound evaluated with chain-derived dependence sums.
    """
    t0 = time.monotonic()
    kernel = KernelSpec.gaussian(1.0)
    chain_p = FiniteChain(states=TWO_STATES, matrix=TWO_STATE_P)
    chain_q = FiniteChain(states=TWO_STATES, matrix=TWO_STATE_Q)
    gamma = exact_mmd_finite(kernel, chain_p, chain_q)
    assert gamma > 0.0

    sigma_p = sigma_from_doeblin(doeblin_of_finite(lift_chain(chain_p)))
    sigma_q = sigma_from_doeblin(doeblin_of_finite(lift_chain(chain_q)))
    bound = consistency_bound(sigma_p, sigma_q, 400, 400)

    values = []
    for i in range(200):
        xs = simulate_finite(chain_p, 401, seed=505, stream=16 + 2 * i)
        ys = simulate_finite(chain_q, 401, seed=505, stream=17 + 2 * i)
        values.append(mmd(kernel, lift(xs), lift(ys)))
    mc_mean = float(np.mean(values))

    assert abs(mc_mean - gamma) <= bound.value
    assert time.monotonic() - t0 < 180.0


def _rotation_block(rho, theta):
    return rho * np.array([[math.cos(theta), -math.sin(theta)],
                           [math.sin(theta), math.cos(theta)]])


def _variance_system_matrix(seed):
    """Orthogonal conjugate of two planar rotations; spectral radius 0.95."""
    g = stream_rng(seed, 2).standard_normal((4, 4))
    q, r = np.linalg.qr(g)
    q = q * np.sign(np.diag(r))
    block = np.zeros((4, 4))
    block[:2, :2] = _rotation_block(0.95, math.pi / 2)
    block[2:, 2:] = _rotation_block(0.55, 2.0)
    return q @ block @ q.T


def _mean_system_matrix(seed):
    """Symmetric matrix with eigenvalues (0.95, -0.8, 0.55, -0.3) whose
    slowest direction is the constant vector, so a constant noise-mean
    shift excites the slow mode."""
    g = stream_rng(seed, 5).standard_normal((4, 3))
    basis = np.column_stack([np.ones(4), g])
    q, r = np.linalg.qr(basis)
    q = q * np.sign(np.diag(r))
    return q @ np.diag([0.95, -0.8, 0.55, -0.3]) @ q.T


def _score_sign_and_crossing(matrix, post_noise, window, kernel, seed,
                             tau, length, threshold, quantile, margin):
    """Run 100 seeded monitored trajectories; count score-sign successes
    and strict threshold crossings within 500 post-change statistic steps.

    Each run's correction is the larger of a per-run calibration on the
    run's own pre-change prefix and a population floor calibrated on one
    shared holdout trajectory, both at the same quantile and margin.  A
    crossing counts only when the first threshold passage falls strictly
    after the change entered the sliding buffer; a pre-change passage is
    a false alarm, not a detection, so such a run fails the count.
    """
    pre = GaussianLaw.isotropic(4, 0.1)
    reference = build_reference(
        kernel,
        simulate_ar(
            ArScenario(matrix=matrix, pre_noise=pre, length=6001, burn_in=500),
            seed=seed, stream=0))
    holdout = simulate_ar(
        ArScenario(matrix=matrix, pre_noise=pre, length=3001, burn_in=500),
        seed=seed, stream=1)
    floor = calibrate_correction(
        reference, holdout, window, margin=margin, quantile=quantile).correction

    scenario = ArScenario(matrix=matrix, pre_noise=pre, post_noise=post_noise,
                          change_at=tau, length=length, burn_in=500)
    tau_stat = tau - window
    sign_ok = cross_ok = 0
    for s in range(100):
        run = simulate_ar(scenario, seed=seed, stream=16 + s)
        own = calibrate_correction(
            reference, run[:tau], window, margin=margin, quantile=quantile).correction
        detector = KernelCusumDetector(
            reference,
            DetectorConfig(window=window, min_sample=10, threshold=threshold,
                           correction=max(own, floor)))
        outcomes = [o for o in detector.extend(run) if o.index is not None]
        scores = np.array([o.score for o in outcomes])
        if scores[:tau_stat].mean() < 0.0 and scores[tau_stat:].mean() > 0.0:
            sign_ok += 1
        first = next(
            (n + 1 for n, o in enumerate(outcomes) if o.statistic >= threshold),
            None)
        if first is not None and 0 < first - tau_stat <= 500:
            cross_ok += 1
    return sign_ok, cross_ok


def test_criterion_6_ar_change_scores_and_alarms():
    """Calibrated monitoring of the d=4 autoregression behaves as designed.

    Two change scenarios (noise variance 0.1 -> 0.2 and noise mean
    0 -> 0.05) at change point 1000 with floored per-run calibrated
    corrections: the pre-change score mean must be negative and the
    post-change score mean positive in at least 95 of 100 seeded runs,
    and the statistic must first cross threshold 5 within 500
    post-change steps (never earlier) in at least 90.
    """
    t0 = time.monotonic()
    seed = 20260816

    sign_var, cross_var = _score_sign_and_crossing(
        matrix=_variance_system_matrix(seed),
        post_noise=GaussianLaw.isotropic(4, 0.2),
        window=400,
        kernel=KernelSpec.gaussian(3.0),
        seed=seed, tau=1000, length=3000, threshold=5.0,
        quantile=0.70, margin=0.001)
    assert sign_var >= 95, f"variance scenario sign successes {sign_var}/100"
    assert cross_var >= 90, f"variance scenario crossings {cross_var}/100"

    sign_mean, cross_mean = _score_sign_and_crossing(
        matrix=_mean_system_matrix(seed),
        post_noise=GaussianLaw.isotropic(4, 0.1, mean=0.05),
        window=250,
        kernel=KernelSpec.gaussian(2.0),
        seed=seed, tau=1000, length=2500, threshold=5.0,
        quantile=0.98, margin=0.003)
    assert sign_mean >= 95, f"mean scenario sign successes {sign_mean}/100"
    assert cross_mean >= 90, f"mean scenario crossings {cross_mean}/100"
    assert time.monotonic() - t0 < 600.0


def test_criterion_7_campaign_times_respect_theory_bounds():
    """Empirical alarm times are consistent with the closed-form bounds.

    No-change arm: 200 monitored runs of the two-state chain against its
    own reference; the mean first-crossing time (runs without a crossing
    are counted at the truncation horizon, which understates the mean
    and is therefore conservative for a lower-bound check) must be at
    least the closed-form floor for thresholds 20, 40, 80.

    Change arm: 200 runs with a transition change at step 300; with a
    median-quantile calibration the detectability margin is positive,
    every run must alarm after the change and never before it, and the
    mean delay must stay below the closed-form ceiling.
    """
    t0 = time.monotonic()
    kernel = KernelSpec.gaussian(1.0)
    chain_p = FiniteChain(states=TWO_STATES, matrix=TWO_STATE_P)
    chain_q = FiniteChain(states=TWO_STATES, matrix=TWO_STATE_Q)
    thresholds = (20.0, 40.0, 80.0)
    min_sample = 10

    # --- no-change arm: mean time between false alarms ---
    window_a = 5
    reference_a = build_reference(
        kernel, simulate_finite(chain_p, 501, seed=707, stream=0))
    holdout_a = simulate_finite(chain_p, 1001, seed=707, stream=1)
    cal_a = calibrate_correction(reference_a, holdout_a, window_a, margin=0.01)
    block_a = buffer_doeblin(doeblin_of_finite(chain_p), window_a)
    horizon = 900
    crossings = {b: [] for b in thresholds}
    for i in range(200):
        run = simulate_finite(chain_p, horizon + window_a, seed=707,
                              stream=16 + i)
        detector = KernelCusumDetector(
            reference_a,
            DetectorConfig(window=window_a, min_sample=min_sample,
                           threshold=thresholds[-1],
                           correction=cal_a.correction))
        stats = [o.statistic for o in detector.extend(run)
                 if o.index is not None]
        for b in thresholds:
            first = next((n + 1 for n, v in enumerate(stats) if v >= b), None)
            crossings[b].append(horizon if first is None else first)
    for b in thresholds:
        floor = mtbfa_lower_bound(b, min_sample, block_a)
        empirical = float(np.mean(crossings[b]))
        assert empirical >= floor.value, (
            f"threshold {b}: empirical {empirical} < floor {floor.value}")

    # --- change arm: mean detection delay ---
    window_b, tau = 200, 300
    reference_b = build_reference(
        kernel, simulate_finite(chain_p, 501, seed=808, stream=0))
    holdout_b = simulate_finite(chain_p, 1001, seed=808, stream=1)
    cal_b = calibrate_correction(reference_b, holdout_b, window_b,
                                 margin=0.005, quantile=0.5)
    gamma = exact_mmd_finite(kernel, chain_p, chain_q)
    drift = gamma - 2.0 * cal_b.correction
    assert drift > 0.0, "median-quantile calibration must leave a margin"
    block_b = buffer_doeblin(doeblin_of_finite(chain_q), window_b)

    scenario = FiniteScenario(pre=chain_p, post=chain_q, change_at=tau,
                              length=9000)
    tau_stat = tau - window_b
    delays = {b: [] for b in thresholds}
    for i in range(200):
        run = simulate_finite_scenario(scenario, seed=808, stream=16 + i)
        detector = KernelCusumDetector(
            reference_b,
            DetectorConfig(window=window_b, min_sample=min_sample,
                           threshold=thresholds[-1],
                           correction=cal_b.correction))
        stats = [o.statistic for o in detector.extend(run)
                 if o.index is not None]
        for b in thresholds:
            first = next((n + 1 for n, v in enumerate(stats) if v >= b), None)
            assert first is not None, f"run {i} never crossed {b}"
            assert first > tau_stat, f"run {i} false-alarmed at {first}"
            delays[b].append(first - tau_stat)
    for b in thresholds:
        ceiling = md_upper_bound(b, min_sample, gamma, cal_b.correction,
                                 block_b)
        assert ceiling.detectable
        empirical = float(np.mean(delays[b]))
        assert empirical <= ceiling.value, (
            f"threshold {b}: empirical {empirical} > ceiling {ceiling.value}")
    assert time.monotonic() - t0 < 900.0


def test_criterion_8_same_marginal_different_transitions_detected():
    """A transition change invisible to the marginal law is detected.

    Two 3-state cycles with opposite orientations share the uniform
    stationary distribution, yet their pair-lifted population
    discrepancy is far from zero and the detector alarms with a short
    median delay after the flip.
    """
    t0 = time.monotonic()
    kernel = KernelSpec.gaussian(1.0)
    forward = np.array([[0.0, 0.8, 0.2], [0.2, 0.0, 0.8], [0.8, 0.2, 0.0]])
    states = np.arange(3.0)[:, None]
    chain_fwd = FiniteChain(states=states, matrix=forward)
    chain_rev = FiniteChain(states=states, matrix=forward.T.copy())

    pi_fwd = stationary_distribution(chain_fwd)
    pi_rev = stationary_distribution(chain_rev)
    assert np.allclose(pi_fwd, pi_rev, atol=1e-12)
    assert np.allclose(pi_fwd, np.full(3, 1.0 / 3.0), atol=1e-12)

    gamma = exact_mmd_finite(kernel, chain_fwd, chain_rev)
    assert gamma > 0.01

    window, tau, threshold, min_sample = 200, 300, 5.0, 10
    reference = build_reference(
        kernel, simulate_finite(chain_fwd, 501, seed=909, stream=0))
    holdout = simulate_finite(chain_fwd, 1001, seed=909, stream=1)
    calibration = calibrate_correction(reference, holdout, window, margin=0.01)
    drift = gamma - 2.0 * calibration.correction
    assert drift > 0.0

    scenario = FiniteScenario(pre=chain_fwd, post=chain_rev, change_at=tau,
                              length=1500)
    tau_stat = tau - window
    delays = []
    for i in range(50):
        run = simulate_finite_scenario(scenario, seed=909, stream=16 + i)
        detector = KernelCusumDetector(
            reference,
            DetectorConfig(window=window, min_sample=min_sample,
                           threshold=threshold,
                           correction=calibration.correction))
        stats = [o.statistic for o in detector.extend(run)
                 if o.index is not None]
        first = next((n + 1 for n, v in enumerate(stats) if v >= threshold),
                     None)
        assert first is not None and first > tau_stat
        delays.append(first - tau_stat)

    assert float(np.median(delays)) < 10.0 * (threshold / drift)
    assert time.monotonic() - t0 < 300.0


def test_criterion_9_trace_output_deterministic(tmp_path):
    """Two CLI runs with one config produce byte-identical trace.csv."""
    t0 = time.monotonic()
    config = tmp_path / "experiment.ini"
    config.write_text(
        "[scenario]\n"
        "kind = ar-variance\n"
        "length = 1600\n"
        "change_at = 800\n"
        "[detector]\n"
        "window = 50\n"
        "reference = 400\n"
        "holdout = 300\n"
        "bandwidths = 1,2\n"
        "[campaign]\n"
        "mode = trace\n"
        "seed = 99\n"
        "[output]\n"
        "directory = unused\n",
        encoding="utf-8")
    out_a = tmp_path / "first"
    out_b = tmp_path / "second"
    assert cli_main(["trace", "--config", str(config), "--out", str(out_a)]) == 0
    assert cli_main(["trace", "--config", str(config), "--out", str(out_b)]) == 0
    bytes_a = (out_a / "trace.csv").read_bytes()
    bytes_b = (out_b / "trace.csv").read_bytes()
    assert bytes_a == bytes_b
    assert len(bytes_a) > 0
    assert time.monotonic() - t0 < 60.0
