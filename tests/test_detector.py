"""Detector: CUSUM recursion oracle, checkpointing, calibration."""

import hashlib
import itertools
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcusum import (
    Calibration,
    CusumStream,
    DetectorConfig,
    FiniteChain,
    FiniteScenario,
    KernelCusumDetector,
    KernelSpec,
    ReferenceSet,
    build_reference,
    calibrate_correction,
    lift,
    mmd,
    simulate_finite,
    simulate_finite_scenario,
)
from kcusum import detector


def cusum_oracle(scores, min_sample):
    """O(n^2) reference: after n scores, max trailing sum starting at
    k <= n - min_sample (so every admissible sum has > min_sample terms)."""
    out = []
    for n in range(1, len(scores) + 1):
        best = -math.inf
        for k in range(1, n - min_sample + 1):
            best = max(best, math.fsum(scores[k - 1 : n]))
        out.append(best)
    return out


# -- CusumStream --------------------------------------------------------------


def test_worked_example():
    stream = CusumStream(min_sample=1)
    values = [stream.update(s) for s in (1.0, -2.0, 3.0)]
    assert values == [-math.inf, -1.0, 2.0]


def test_worked_example_min_sample_two():
    stream = CusumStream(min_sample=2)
    values = [stream.update(s) for s in (1.0, -2.0, 3.0)]
    assert values == [-math.inf, -math.inf, 2.0]


def test_stream_matches_oracle_on_fixed_sequence():
    rng = np.random.default_rng(0)
    scores = rng.standard_normal(200).tolist()
    for min_sample in (1, 5, 20):
        stream = CusumStream(min_sample)
        got = [stream.update(s) for s in scores]
        want = cusum_oracle(scores, min_sample)
        for g, w in zip(got, want):
            assert g == w or math.isclose(g, w, rel_tol=0, abs_tol=1e-10)


@settings(max_examples=120, deadline=None)
@given(
    st.lists(
        st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
        min_size=1,
        max_size=60,
    ),
    st.integers(min_value=1, max_value=5),
)
def test_stream_matches_oracle_property(scores, min_sample):
    stream = CusumStream(min_sample)
    want = cusum_oracle(scores, min_sample)
    for s, w in zip(scores, want):
        g = stream.update(s)
        if w == -math.inf:
            assert g == -math.inf
        else:
            assert math.isclose(g, w, rel_tol=0, abs_tol=1e-9)
    assert stream.n == len(scores)


def test_stream_validation():
    with pytest.raises(ValueError):
        CusumStream(0)
    stream = CusumStream(1)
    with pytest.raises(ValueError):
        stream.update(math.nan)
    with pytest.raises(ValueError):
        stream.update(math.inf)


def test_stream_snapshot_roundtrip_bit_identical():
    rng = np.random.default_rng(1)
    scores = rng.standard_normal(80).tolist()
    live = CusumStream(4)
    for s in scores[:37]:
        live.update(s)
    resumed = CusumStream.from_snapshot(4, live.snapshot())
    for s in scores[37:]:
        assert live.update(s) == resumed.update(s)


def watermark_cusum(scores, min_sample):
    """The per-score recursion ``CusumStream`` replaced, kept as an oracle:
    ``(index, prefix)`` pairs wait in a queue until a watermark
    ``n - min_sample - 1`` passes them.  Returns the statistics and the
    final (sum, comp, eligible_min, pending prefixes)."""
    total = comp = 0.0
    low = math.inf
    pending = [(0, 0.0)]
    out = []
    for n, x in enumerate(scores, start=1):
        t = total + x
        if abs(total) >= abs(x):
            comp += (total - t) + x
        else:
            comp += (x - t) + total
        total = t
        prefix = total + comp
        while pending and pending[0][0] <= n - min_sample - 1:
            _, value = pending.pop(0)
            if value < low:
                low = value
        out.append(prefix - low if low < math.inf else -math.inf)
        pending.append((n, prefix))
    return out, (total, comp, low, [value for _, value in pending])


def bits(values):
    return [float(v).hex() for v in values]


def set_at(*path, value):
    """A mutation of parsed JSON that sets the entry at ``path``."""

    def mutate(data):
        for key in path[:-1]:
            data = data[key]
        data[path[-1]] = value

    return mutate


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.floats(min_value=-1e3, max_value=1e3, allow_nan=False), max_size=90),
    st.integers(min_value=1, max_value=30),
    st.lists(st.integers(min_value=1, max_value=40), min_size=1, max_size=12),
)
@example([0.5, -1.0, 2.0, 0.25], 1, [1])  # one score a block, min_sample 1
@example([float(i % 7) - 3.0 for i in range(60)], 25, [3, 7])  # cuts in warm-up and lag
@example([1e-3 * (-1) ** i for i in range(50)], 4, [40])  # block spans warm-up and steady state
def test_extend_at_any_split_matches_update_loop(scores, min_sample, cuts):
    """``extend`` over blocks cut at ``cuts`` (cycled) gives the bits of an
    ``update`` loop and of the watermark recursion, and ends in the same
    snapshot."""
    looped = CusumStream(min_sample)
    want = [looped.update(s) for s in scores]
    blocked = CusumStream(min_sample)
    got = []
    lo = 0
    while lo < len(scores):
        size = cuts[len(got) % len(cuts)]
        got += blocked.extend(scores[lo : lo + size])
        lo += size
    oracle, (total, comp, low, pending) = watermark_cusum(scores, min_sample)
    assert bits(got) == bits(want) == bits(oracle)
    assert blocked.snapshot() == looped.snapshot()
    snap = blocked.snapshot()
    assert bits((total, comp, low)) == [snap["sum"], snap["comp"], snap["eligible_min"]]
    assert bits(pending) == [value for _, value in snap["pending"]]
    assert blocked.n == len(scores)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_extend_rejects_a_non_finite_block_before_any_change(bad):
    stream = CusumStream(3)
    stream.extend([0.5, -1.0, 2.0, 0.25, 1.0])
    before = stream.snapshot()
    with pytest.raises(ValueError, match="finite"):
        stream.extend([1.0, 2.0, bad, 3.0])
    assert stream.snapshot() == before
    assert stream.extend([]) == [] and stream.snapshot() == before


def test_from_snapshot_rejects_inconsistent_state():
    steady = CusumStream(3)
    steady.extend([0.5, -1.0, 2.0, 0.25, 1.0, -0.5])
    warm = CusumStream(3)
    warm.extend([0.5, -1.0])

    cases = [
        (steady, set_at("n", value=9), "pending prefixes"),
        (steady, set_at("n", value=-1), "pending prefixes"),
        (steady, set_at("pending", 0, 0, value=2), "pending prefixes"),
        (steady, lambda d: d["pending"].pop(0), "pending prefixes"),
        (warm, lambda d: d["pending"].pop(0), "pending prefixes"),
        (steady, set_at("sum", value="inf"), "non-finite"),
        (steady, set_at("comp", value="nan"), "non-finite"),
        (steady, set_at("pending", 1, 1, value="-inf"), "non-finite"),
        (steady, set_at("eligible_min", value="nan"), "eligible_min"),
        (steady, set_at("eligible_min", value="inf"), "eligible_min"),
        (steady, set_at("eligible_min", value="-inf"), "eligible_min"),
        (warm, set_at("eligible_min", value="0x0.0p+0"), "eligible_min"),
        (steady, set_at("pending", -1, 1, value=(0.125).hex()), "last prefix"),
        (steady, set_at("statistic", value=(0.125).hex()), "statistic differs"),
        (warm, set_at("statistic", value=(0.125).hex()), "statistic differs"),
        (steady, set_at("n", value=6.0), "n must be an integer"),
        (steady, set_at("n", value="6"), "n must be an integer"),
        (steady, set_at("pending", 0, 0, value=3.0), "pending index must be an integer"),
    ]
    for stream, mutate, match in cases:
        data = json.loads(json.dumps(stream.snapshot()))
        CusumStream.from_snapshot(3, data)
        mutate(data)
        with pytest.raises(ValueError, match=match):
            CusumStream.from_snapshot(3, data)


# -- KernelCusumDetector ------------------------------------------------------


def make_reference(seed=2, m_obs=31, dim=2, bandwidth=1.0):
    rng = np.random.default_rng(seed)
    kernel = KernelSpec.gaussian(bandwidth)
    return kernel, build_reference(kernel, rng.standard_normal((m_obs, dim)))


def test_detector_clock_and_scores_cohere():
    kernel, reference = make_reference()
    config = DetectorConfig(window=5, min_sample=3, threshold=50.0, correction=0.25)
    det = KernelCusumDetector(reference, config)
    rng = np.random.default_rng(3)
    data = rng.standard_normal((40, 2))
    scores = []
    for i, row in enumerate(data):
        out = det.step(row)
        if i < config.window:
            assert out.index is None
            assert out.discrepancy is None and out.score is None
            assert out.statistic == -math.inf and not out.alarm
            continue
        n = i - config.window + 1
        assert out.index == n
        # Cached-row discrepancy must equal a fresh evaluation on the
        # buffer the detector claims to hold.
        window_pairs = lift(data[i - config.window : i + 1])
        assert np.array_equal(det.buffer_pairs(), window_pairs)
        fresh = mmd(kernel, window_pairs, reference.pairs)
        assert math.isclose(out.discrepancy, fresh, rel_tol=0, abs_tol=1e-12)
        assert out.score == out.discrepancy - config.correction
        scores.append(out.score)
        want = cusum_oracle(scores, config.min_sample)[-1]
        if want == -math.inf:
            assert out.statistic == -math.inf
        else:
            assert math.isclose(out.statistic, want, rel_tol=0, abs_tol=1e-9)
    assert det.n == 40 - config.window


def test_detector_input_validation():
    _, reference = make_reference()
    config = DetectorConfig(window=3, min_sample=1, threshold=5.0, correction=0.0)
    det = KernelCusumDetector(reference, config)
    with pytest.raises(ValueError):
        det.step([1.0, 2.0, 3.0])  # wrong dimension
    with pytest.raises(ValueError, match="non-finite"):
        det.step([math.nan, 0.0])
    for huge in (1e200, -1e151):
        with pytest.raises(ValueError, match=r"coordinate beyond \+-1e\+150"):
            det.step([0.0, huge])
        with pytest.raises(ValueError, match=r"coordinate beyond \+-1e\+150"):
            det.extend([[0.0, 0.0], [huge, 0.0]])
    assert det.n == 0
    det.extend([[1e150, -1e150]] * 4)  # the limit itself is valid
    with pytest.raises(ValueError):
        det.step(np.zeros((2, 2)))


def test_extend_equals_step_loop():
    kernel, reference = make_reference()
    config = DetectorConfig(window=4, min_sample=2, threshold=5.0, correction=0.1)
    rng = np.random.default_rng(4)
    data = rng.standard_normal((25, 2))
    a = KernelCusumDetector(reference, config)
    b = KernelCusumDetector(reference, config)
    batch = a.extend(data)
    single = [b.step(row) for row in data]
    assert batch == single


def chunked_reference(window=40):
    """2000 reference pairs: one kernel chunk holds 32 rows, fewer than
    ``window``, so a block of one window spans two chunks."""
    rng = np.random.default_rng(26)
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    reference = build_reference(kernel, 0.3 * rng.standard_normal((2001, 1)))
    config = DetectorConfig(window=window, min_sample=3, threshold=0.05, correction=0.01)
    return reference, config


@pytest.mark.parametrize("chunked", [False, True])
def test_extend_over_random_splits_equals_step_loop(chunked):
    if chunked:
        reference, config = chunked_reference()
        rng = np.random.default_rng(27)
        data = 0.3 * rng.standard_normal((150, 1)) + np.where(np.arange(150) < 90, 0.0, 0.5)[:, None]
    else:
        kernel, reference = make_reference()
        config = DetectorConfig(window=4, min_sample=2, threshold=5.0, correction=0.1)
        rng = np.random.default_rng(27)
        data = rng.standard_normal((60, 2))
    det = KernelCusumDetector(reference, config)
    single = [det.step(row) for row in data]
    for _ in range(5):
        cuts = np.sort(rng.choice(np.arange(1, len(data)), size=6, replace=False))
        det = KernelCusumDetector(reference, config)
        batch = [out for part in np.split(data, cuts) for out in det.extend(part)]
        assert batch == single
    assert any(out.alarm for out in single)


def two_state(seed, length, matrix=((0.9, 0.1), (0.2, 0.8))):
    """Trajectory of the two-state chain on the points 0 and 1: its
    lifted pairs take only four distinct values."""
    chain = FiniteChain(states=np.array([[0.0], [1.0]]), matrix=np.array(matrix))
    return simulate_finite(chain, length, seed)


def two_state_setup():
    kernel = KernelSpec.mixture([0.5, 2.0])
    reference = build_reference(kernel, two_state(40, 1001))
    config = DetectorConfig(window=20, min_sample=3, threshold=0.5, correction=0.3)
    data = np.concatenate([two_state(42, 70), two_state(43, 80, ((0.5, 0.5), (0.5, 0.5)))])
    return reference, config, data


def test_two_state_extend_over_random_splits_equals_step_loop():
    reference, config, data = two_state_setup()
    det = KernelCusumDetector(reference, config)
    single = [det.step(row) for row in data]
    assert any(out.alarm for out in single)
    rng = np.random.default_rng(44)
    for _ in range(8):
        cuts = np.sort(rng.choice(np.arange(1, len(data)), size=rng.integers(1, 8), replace=False))
        det = KernelCusumDetector(reference, config)
        batch = [out for part in np.split(data, cuts) for out in det.extend(part)]
        assert batch == single


def test_two_state_checkpoint_at_every_split():
    """Restore rescores the buffer as one grouped block, also while the
    buffer is still filling."""
    reference, config, data = two_state_setup()
    data = data[:90]
    det = KernelCusumDetector(reference, config)
    direct = [det.step(row) for row in data]
    for split in range(len(data) + 1):
        det = KernelCusumDetector(reference, config)
        outcomes = det.extend(data[:split]) if split else []
        resumed = KernelCusumDetector.restore(reference, config, det.checkpoint())
        if split < len(data):
            outcomes += resumed.extend(data[split:])
        assert outcomes == direct, split


def ar_data(seed, length, dim=2):
    """A stable AR(1) run: x_t = 0.6 x_(t-1) + 0.3 e_t."""
    noise = 0.3 * np.random.default_rng(seed).standard_normal((length, dim))
    out = np.empty_like(noise)
    out[0] = noise[0]
    for t in range(1, length):
        out[t] = 0.6 * out[t - 1] + noise[t]
    return out


@pytest.mark.parametrize("window", [1, 4, 40])
@pytest.mark.parametrize("chain", ["ar", "two-state"])
def test_window_value_depends_only_on_the_window(window, chain):
    """A long-running detector's discrepancy equals, bit for bit, that of
    a fresh detector given only the last ``window + 1`` observations.
    The AR reference holds 2000 pairs, so a kernel chunk has 32 rows and
    window 40 spans two of them."""
    if chain == "ar":
        kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
        reference = build_reference(kernel, ar_data(46, 2001, dim=1))
        data = ar_data(47, 4 * window + 90, dim=1)
    else:
        reference = two_state_setup()[0]
        data = two_state(48, 4 * window + 90)
    config = DetectorConfig(window=window, min_sample=2, threshold=5.0, correction=0.1)
    long_run = KernelCusumDetector(reference, config)
    outcomes = [long_run.step(row) for row in data]
    for t in range(window, len(data)):
        fresh = KernelCusumDetector(reference, config).extend(data[t - window : t + 1])
        assert fresh[-1].discrepancy == outcomes[t].discrepancy, t


def test_one_position_and_a_block_sum_alike_beyond_the_numpy_buffer():
    """A step sums its window's strided values as one contiguous copy, a
    block as the rows of a contiguous copy; ``extend`` equals a ``step``
    loop because both add in the same order.  Checked at widths beyond
    numpy's 8192-element buffer, which no detector here reaches."""
    rng = np.random.default_rng(49)
    for width in (1, 40, 8191, 8193, 3 * 8192 + 5):
        wide = rng.standard_normal((3, 2 * width)) * 10.0 ** rng.integers(-8, 8, (3, 2 * width))
        rows = wide[:, ::2]
        block = np.add.reduce(np.ascontiguousarray(rows), axis=1)
        for j in range(3):
            assert np.add.reduce(np.ascontiguousarray(rows[j])) == block[j], width


def exact_discrepancies(reference, data, window):
    """Every window's discrepancy from exact rational sums.

    Pairs of the two-state chain take four values, so each sum is a
    count-weighted sum of the 4 x 4 float kernel values, taken exactly
    as fractions; only the final square root is rounded."""
    kernel = reference.kernel
    values, ref_index = np.unique(reference.pairs, axis=0, return_inverse=True)
    gram = [[Fraction(v) for v in row] for row in kernel.gram(values, values)]
    kinds = range(len(values))
    ref_counts = np.bincount(ref_index.ravel(), minlength=len(values))
    m = reference.n_pairs
    self_total = sum(int(ref_counts[a]) * int(ref_counts[b]) * gram[a][b] for a in kinds for b in kinds)
    lookup = {tuple(v): a for a, v in enumerate(values)}
    index = [lookup[tuple(p)] for p in lift(data)]
    out = []
    for s in range(len(index) - window + 1):
        counts = np.bincount(index[s : s + window], minlength=len(values))
        within = sum(int(counts[a]) * int(counts[b]) * gram[a][b] for a in kinds for b in kinds)
        cross = sum(int(counts[a]) * int(ref_counts[b]) * gram[a][b] for a in kinds for b in kinds)
        squared = within / window**2 + self_total / m**2 - 2 * cross / (window * m)
        out.append(math.sqrt(max(float(squared), 0.0)))
    return out


def test_two_state_discrepancies_match_exact_sums():
    """On the two-state chain every discrepancy is within 1e-12 of exact
    rational sums: the step loop of the setup's monitored run and the
    calibration holdout of ``test_calibration_on_a_finite_holdout``."""
    reference, config, data = two_state_setup()
    det = KernelCusumDetector(reference, config)
    got = [out.discrepancy for out in det.extend(data) if out.index is not None]
    want = exact_discrepancies(reference, data, config.window)
    assert len(got) == len(want) == len(data) - config.window
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    holdout = two_state(41, 600)
    cal = calibrate_correction(reference, holdout, 20, margin=0.0, quantile=0.9)
    want = exact_discrepancies(reference, holdout, 20)
    got = [out.discrepancy for out in KernelCusumDetector(reference, config).extend(holdout)][20:]
    assert max(abs(g - w) for g, w in zip(got, want)) <= 1e-12
    assert abs(cal.holdout_level - float(np.quantile(want, 0.9))) <= 1e-12


def test_scoring_groups_repeated_pairs(monkeypatch):
    """A block of two-state pairs is scored against the reference once
    per distinct pair (at most four rows per call).  A single step is
    not grouped, nor is a block scored against a reference that does
    not repeat."""
    reference, config, data = two_state_setup()
    m = reference.n_pairs
    rows_against_reference = []
    original = KernelSpec._gram

    def recording(self, A, columns):
        if columns.shape[1] == m:
            rows_against_reference.append(A.shape[0])
        return original(self, A, columns)

    monkeypatch.setattr(KernelSpec, "_gram", recording)
    det = KernelCusumDetector(reference, config)
    det.extend(data)
    calibrate_correction(reference, data[:60], window=20)
    KernelCusumDetector.restore(reference, config, det.checkpoint())
    rebuilt = ReferenceSet(kernel=reference.kernel, pairs=reference.pairs)
    assert rebuilt.self_mean == reference.self_mean
    assert rows_against_reference and max(rows_against_reference) <= 4

    def no_grouping(points):
        raise AssertionError("grouped a block that cannot repeat")

    _, continuous = make_reference()
    assert reference.repeats and not continuous.repeats
    monkeypatch.setattr(detector, "distinct_rows", no_grouping)
    det.step(data[0])
    KernelCusumDetector(continuous, config).extend(np.random.default_rng(45).standard_normal((30, 2)))


def counting_gram(monkeypatch):
    """Patch ``KernelSpec._gram`` to record each call's left-hand rows."""
    calls = []
    original = KernelSpec._gram

    def recording(self, A, columns):
        calls.append((A.copy(), columns.shape[1]))
        return original(self, A, columns)

    monkeypatch.setattr(KernelSpec, "_gram", recording)
    return calls


def test_two_state_steps_evaluate_no_kernel_once_every_pair_was_seen(monkeypatch):
    reference, config, data = two_state_setup()
    det = KernelCusumDetector(reference, config)
    det.extend(data[:40])
    assert len(detector.distinct_rows(lift(data[:40]))[0]) == 4
    calls = counting_gram(monkeypatch)
    outcomes = [det.step(row) for row in two_state(47, 1000)]
    assert calls == []
    assert all(out.index is not None for out in outcomes)


def test_new_pairs_cost_one_cross_row_once(monkeypatch):
    """A 3-state reference without the transitions 0->2, 1->0 and 2->1;
    after the change the monitored chain makes all nine.  Each pair
    costs one row against the reference when it first appears, in a
    step loop and in blocks alike, and never again."""
    states = np.array([[0.0], [1.0], [3.0]])
    pre = FiniteChain(states, np.array([[0.5, 0.5, 0.0], [0.0, 0.5, 0.5], [0.5, 0.0, 0.5]]))
    post = FiniteChain(states, np.full((3, 3), 1.0 / 3.0))
    reference = build_reference(KernelSpec.mixture([0.5, 2.0]), simulate_finite(pre, 801, 60))
    assert reference.repeats and len(detector.distinct_rows(reference.pairs)[0]) == 6
    config = DetectorConfig(window=15, min_sample=3, threshold=5.0, correction=0.1)
    data = simulate_finite_scenario(FiniteScenario(pre, post, change_at=100, length=400), 61)
    seen = detector.distinct_rows(lift(data))[0]
    assert len(seen) == 9
    m = reference.n_pairs
    calls = counting_gram(monkeypatch)
    det = KernelCusumDetector(reference, config)
    single = [det.step(row) for row in data]
    cross_rows = [row for rows, width in calls if width == m for row in rows]
    assert len(cross_rows) == 9
    assert len(detector.distinct_rows(np.array(cross_rows))[0]) == 9
    calls.clear()
    det = KernelCusumDetector(reference, config)
    batch = [out for part in np.split(data, [7, 150, 151, 260]) for out in det.extend(part)]
    assert batch == single
    assert sum(rows.shape[0] for rows, width in calls if width == m) == 9


def duplicated_reference():
    """300 AR pairs and copies of three of them: a reference that
    repeats, for data that does not."""
    pairs = lift(ar_data(50, 301))
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    return ReferenceSet(kernel=kernel, pairs=np.concatenate([pairs, pairs[[5, 77, 123]]]))


def table_run(reference, config, data):
    """Step loop over ``data``, checking the id table's bound after each
    step; then ``extend`` and restores at several splits must agree."""
    det = KernelCusumDetector(reference, config)
    table = det._scorer._table
    bound = 2 * config.window
    single = []
    for row in data:
        single.append(det.step(row))
        assert table._count - 1 <= bound
        assert len(table._ids) == table._count - 1
    assert table._kernels.shape == (bound + 1, bound + 1)
    assert KernelCusumDetector(reference, config).extend(data) == single
    for split in (1, 9, 11, 37, 150):
        det = KernelCusumDetector(reference, config)
        outcomes = det.extend(data[:split])
        resumed = KernelCusumDetector.restore(reference, config, det.checkpoint())
        assert outcomes + resumed.extend(data[split:]) == single, split
    return single


def test_pair_table_stays_within_its_bound_on_continuous_data():
    """Monitored on 20 windows of continuous pairs, every pair is new to
    the table; it never holds more than ``2 * window`` ids.  The
    discrepancies keep the digest they had before the table existed.
    A stretch that recurs 1.5 windows later brings back pairs the table
    still holds into blocks that make it rebuild."""
    reference = duplicated_reference()
    assert reference.repeats
    window = 10
    config = DetectorConfig(window=window, min_sample=3, threshold=5.0, correction=0.1)
    data = ar_data(51, 20 * window + 1)
    single = table_run(reference, config, data)
    values = [out.discrepancy for out in single if out.index is not None]
    assert len(values) == 20 * window - window + 1
    digest = hashlib.sha256("".join(v.hex() for v in values).encode()).hexdigest()
    assert digest == "d306a23d45dede08044b6ea3591768a225022fa95176c4eb3c4a06575b934120"
    table_run(reference, config, np.concatenate([data[:100], data[85:93], data[100:]]))


def counting_rebuilds(patch):
    """Patch ``_PairTable._rebuild`` to record each call in the returned list."""
    rebuilds = []
    original = detector._PairTable._rebuild

    def counting(self, *args):
        rebuilds.append(1)
        return original(self, *args)

    patch.setattr(detector._PairTable, "_rebuild", counting)
    return rebuilds


def step_watching_buffers(det, data):
    """Step loop over ``data``.  Returns the outcomes, the steps after
    which ``det``'s scorer moved its newest entries to the front of its
    buffers (its count of observations fell), and whether one step both
    rebuilt the id table and moved."""
    scorer = det._scorer
    outcomes, moves, rebuilt_in_move = [], [], False
    with pytest.MonkeyPatch.context() as patch:
        rebuilds = counting_rebuilds(patch)
        for t, row in enumerate(data, start=1):
            end = scorer._end
            before = len(rebuilds)
            outcomes.append(det.step(row))
            moved = scorer._end <= end
            if moved:
                moves.append(t)
            rebuilt_in_move |= moved and len(rebuilds) > before
    return outcomes, moves, rebuilt_in_move


@settings(max_examples=40, deadline=None)
@given(window=st.integers(1, 6), table=st.booleans(), coarse=st.booleans(), data=st.data())
def test_buffers_wrap_at_any_split_and_restore(window, table, coarse, data):
    """The scorer's buffers move their newest entries to the front when
    full, all in one move.  Over streams many buffer lengths long,
    ``extend`` at random splits, with checkpoint and restore at random
    splits and just before and after a move, equals a step loop bit for
    bit, against a band and an id-table reference.  Continuous data
    brings the table a new pair every step, so it rebuilds, also in a
    step that moves; coarse data brings back pairs it holds."""
    config = DetectorConfig(window=window, min_sample=2, threshold=0.5, correction=0.05)
    reference = duplicated_reference() if table else make_reference(seed=52)[1]
    width = 3 * window  # pairs each of the scorer's buffers holds
    length = data.draw(st.integers(6 * width, 12 * width + 2), label="length")
    stream = ar_data(data.draw(st.integers(0, 2**16), label="seed"), length)
    if coarse:
        stream = np.round(2.0 * stream) / 2.0
    single, moves, rebuilt_in_move = step_watching_buffers(
        KernelCusumDetector(reference, config), stream
    )
    assert moves
    if table and not coarse:
        assert rebuilt_in_move
    near = sorted({t + o for t in moves for o in (-1, 0, 1) if 0 < t + o < length})
    restores = set(data.draw(st.lists(st.sampled_from(near), max_size=4), label="restores"))
    restores |= set(data.draw(st.lists(st.integers(1, length - 1), max_size=2), label="more"))
    cuts = set(data.draw(st.lists(st.integers(1, length - 1), max_size=8), label="cuts"))
    bounds = [0, *sorted(cuts | restores), length]
    det = KernelCusumDetector(reference, config)
    outcomes = []
    for lo, hi in zip(bounds, bounds[1:]):
        if lo in restores:
            det = KernelCusumDetector.restore(reference, config, det.checkpoint())
        outcomes += det.extend(stream[lo:hi])
    assert outcomes == single


def band_twin(reference):
    """``reference`` with ``repeats`` forced False: a scorer against the
    twin evaluates bands where one against ``reference`` reads its id
    table."""
    twin = ReferenceSet(kernel=reference.kernel, pairs=reference.pairs)
    object.__setattr__(twin, "repeats", False)
    return twin


@settings(max_examples=40, deadline=None, derandomize=True)
@given(window=st.integers(1, 6), coarse=st.booleans(), data=st.data())
def test_table_path_equals_band_path(window, coarse, data):
    """Fed the same blocks, a detector reading an id table and its twin
    evaluating bands against the same reference give the same outcomes
    and keep the same D rows and cross sums, bit for bit: in the first
    ``window - 1`` pairs, whose bands are padded, through table rebuilds
    and through moves.  The blocks cycle through drawn sizes from a
    single step to more than two windows, over streams several buffer
    lengths long; continuous data makes the table rebuild."""
    reference = duplicated_reference()
    config = DetectorConfig(window=window, min_sample=2, threshold=0.5, correction=0.05)
    with_table = KernelCusumDetector(reference, config)
    with_bands = KernelCusumDetector(band_twin(reference), config)
    table, bands = with_table._scorer, with_bands._scorer
    assert table._table is not None and bands._table is None
    width = 3 * window  # pairs each of the scorer's buffers holds
    length = data.draw(st.integers(2 * width + 2, 6 * width + 2), label="length")
    stream = ar_data(data.draw(st.integers(0, 2**16), label="seed"), length)
    if coarse:
        stream = np.round(2.0 * stream) / 2.0
    sizes = data.draw(
        st.lists(st.integers(1, 2 * window + 1), min_size=1, max_size=8), label="sizes"
    )
    lo = 0
    with pytest.MonkeyPatch.context() as patch:
        rebuilds = counting_rebuilds(patch)
        for size in itertools.cycle(sizes):
            if lo == length:
                break
            part = stream[lo : lo + size]
            lo += part.shape[0]
            assert with_table.extend(part) == with_bands.extend(part), lo
            held = table._end - 1  # pairs in the buffers since the last move
            assert bands._end == table._end
            assert np.array_equal(table._lags[:held], bands._lags[:held]), lo
            assert np.array_equal(table._cross[:held], bands._cross[:held]), lo
    assert table._end < length  # the buffers moved
    if not coarse:
        assert rebuilds


def test_alarm_latches_and_reset_clears():
    kernel, reference = make_reference(seed=5)
    # Tiny threshold and zero correction: shifted data alarms quickly.
    config = DetectorConfig(window=4, min_sample=2, threshold=0.5, correction=0.0)
    det = KernelCusumDetector(reference, config)
    rng = np.random.default_rng(6)
    data = rng.standard_normal((30, 2)) + 4.0
    outcomes = det.extend(data)
    first = next(out.index for out in outcomes if out.alarm)
    assert det.alarmed_at == first
    det.extend(rng.standard_normal((10, 2)) + 4.0)
    assert det.alarmed_at == first  # frozen at the first crossing
    det.reset()
    assert det.alarmed_at is None and det.n == 0
    assert det.buffer_pairs().shape[0] == 0


def test_reset_reproduces_fresh_run():
    kernel, reference = make_reference(seed=7)
    config = DetectorConfig(window=3, min_sample=2, threshold=9.0, correction=0.2)
    rng = np.random.default_rng(8)
    data = rng.standard_normal((20, 2))
    det = KernelCusumDetector(reference, config)
    first = det.extend(data)
    det.reset()
    again = det.extend(data)
    assert first == again


# -- checkpoint / restore -----------------------------------------------------


def run_split(det_factory, data, split):
    """Outcomes from a run checkpointed-and-restored at ``split``."""
    det = det_factory()
    outcomes = det.extend(data[:split])
    blob = det.checkpoint()
    resumed = KernelCusumDetector.restore(det.reference, det.config, blob)
    return outcomes + resumed.extend(data[split:]), resumed


@pytest.mark.parametrize("split", [2, 5, 6, 23])
def test_checkpoint_roundtrip_bit_identical(split):
    kernel, reference = make_reference(seed=9)
    config = DetectorConfig(window=5, min_sample=3, threshold=40.0, correction=0.2)
    rng = np.random.default_rng(10)
    data = rng.standard_normal((37, 2))
    direct = KernelCusumDetector(reference, config).extend(data)
    resumed_outcomes, resumed = run_split(
        lambda: KernelCusumDetector(reference, config), data, split
    )
    assert resumed_outcomes == direct  # dataclass equality: bit-identical floats
    assert resumed.n == len(data) - config.window


def test_checkpoint_at_every_split_across_chunks():
    """Every split, from an empty buffer through the filling phase to
    full windows, with a window wider than one kernel chunk."""
    reference, config = chunked_reference()
    rng = np.random.default_rng(28)
    data = 0.3 * rng.standard_normal((100, 1))
    direct = KernelCusumDetector(reference, config).extend(data)
    for split in range(len(data) + 1):
        det = KernelCusumDetector(reference, config)
        outcomes = det.extend(data[:split]) if split else []
        resumed = KernelCusumDetector.restore(reference, config, det.checkpoint())
        if split < len(data):
            outcomes += resumed.extend(data[split:])
        assert outcomes == direct, split


def test_restore_rejects_another_reference():
    kernel, reference = make_reference(seed=13)
    config = DetectorConfig(window=4, min_sample=2, threshold=7.0, correction=0.1)
    rng = np.random.default_rng(29)
    det = KernelCusumDetector(reference, config)
    det.extend(rng.standard_normal((12, 2)))
    blob = det.checkpoint()
    _, same_shape = make_reference(seed=14)  # same dimension and size, other data
    assert same_shape.pairs.shape == reference.pairs.shape
    with pytest.raises(ValueError, match="different reference"):
        KernelCusumDetector.restore(same_shape, config, blob)
    other_kernel = ReferenceSet(kernel=KernelSpec.gaussian(2.0), pairs=reference.pairs)
    with pytest.raises(ValueError, match="different reference"):
        KernelCusumDetector.restore(other_kernel, config, blob)
    rebuilt = ReferenceSet(kernel=KernelSpec.gaussian(1.0), pairs=reference.pairs.copy())
    assert rebuilt.digest == reference.digest
    KernelCusumDetector.restore(rebuilt, config, blob)


@pytest.mark.parametrize("shift", [1e2, 1e4])
def test_discrepancies_are_translation_invariant(shift):
    """Shifting the reference, holdout and monitored data by one constant
    leaves the calibration level and every discrepancy within 1e-9."""
    rng = np.random.default_rng(32)
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    ref_obs = 0.3 * rng.standard_normal((301, 2))
    holdout = 0.3 * rng.standard_normal((150, 2))
    monitored = 0.3 * rng.standard_normal((120, 2))
    monitored[60:] *= 2.0

    def run(offset):
        reference = build_reference(kernel, ref_obs + offset)
        cal = calibrate_correction(reference, holdout + offset, window=20)
        config = DetectorConfig(window=20, min_sample=5, threshold=5.0, correction=cal.correction)
        outs = KernelCusumDetector(reference, config).extend(monitored + offset)
        return cal.holdout_level, np.array([o.discrepancy for o in outs if o.index is not None])

    level, values = run(0.0)
    shifted_level, shifted_values = run(shift)
    assert abs(shifted_level - level) <= 1e-9
    assert np.max(np.abs(shifted_values - values)) <= 1e-9


def test_checkpoint_preserves_alarm_index():
    kernel, reference = make_reference(seed=11)
    config = DetectorConfig(window=3, min_sample=1, threshold=0.5, correction=0.0)
    rng = np.random.default_rng(12)
    data = rng.standard_normal((20, 2)) + 4.0
    det = KernelCusumDetector(reference, config)
    det.extend(data)
    assert det.alarmed_at is not None
    resumed = KernelCusumDetector.restore(reference, config, det.checkpoint())
    assert resumed.alarmed_at == det.alarmed_at


def corrupt(blob, mutate):
    data = json.loads(blob)
    mutate(data)
    return json.dumps(data)


def test_restore_rejects_bad_checkpoints():
    kernel, reference = make_reference(seed=13)
    config = DetectorConfig(window=4, min_sample=2, threshold=7.0, correction=0.1)
    rng = np.random.default_rng(14)
    det = KernelCusumDetector(reference, config)
    det.extend(rng.standard_normal((12, 2)))
    blob = det.checkpoint()

    with pytest.raises(ValueError, match="valid JSON"):
        KernelCusumDetector.restore(reference, config, blob[:40])
    with pytest.raises(ValueError, match="not a detector checkpoint"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, lambda d: d.update(format="other"))
        )
    with pytest.raises(ValueError, match="version"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, lambda d: d.update(version=99))
        )
    other = DetectorConfig(window=4, min_sample=2, threshold=8.0, correction=0.1)
    with pytest.raises(ValueError, match="different configuration"):
        KernelCusumDetector.restore(reference, other, blob)
    _, wide = make_reference(seed=13, dim=3)
    with pytest.raises(ValueError, match="dimension"):
        KernelCusumDetector.restore(wide, config, blob)
    with pytest.raises(ValueError, match="malformed"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, lambda d: d.pop("cusum"))
        )

    n = json.loads(blob)["cusum"]["n"]
    index = json.loads(blob)["cusum"]["pending"][0][0]
    for mutate, match in [
        (set_at("cusum", "n", value=str(n)), "cusum.n must be an integer"),
        (set_at("cusum", "n", value=n + 0.9), "cusum.n must be an integer"),
        (set_at("cusum", "n", value=float(n)), "cusum.n must be an integer"),
        (set_at("cusum", "n", value=True), "cusum.n must be an integer"),
        (set_at("window", value=4.0), "window must be an integer"),
        (set_at("min_sample", value=2.0), "min_sample must be an integer"),
        (set_at("dim", value="2"), "dim must be an integer"),
        (set_at("cusum", "pending", 0, 0, value=float(index)), "pending index must be an integer"),
        (set_at("cusum", "pending", 0, 0, value=str(index)), "pending index must be an integer"),
        (set_at("cusum", "n", value=n + 3), "pending prefixes"),
        (set_at("cusum", "pending", 1, 0, value=99), "pending prefixes"),
        (lambda d: d["cusum"]["pending"].pop(0), "pending prefixes"),
        (set_at("cusum", "sum", value="inf"), "non-finite"),
        (set_at("cusum", "comp", value="-inf"), "non-finite"),
        (set_at("cusum", "eligible_min", value="nan"), "eligible_min"),
        (set_at("cusum", "eligible_min", value="inf"), "eligible_min"),
        (set_at("cusum", "statistic", value=(1.5).hex()), "statistic differs"),
        (set_at("raw_buffer", 2, 1, value="nan"), "raw buffer holds a non-finite value"),
        (set_at("raw_buffer", 2, 1, value="inf"), "raw buffer holds a non-finite value"),
        (set_at("raw_buffer", 2, 1, value=(-1e200).hex()), "raw buffer holds a coordinate beyond"),
        (set_at("alarmed_at", value=999), "alarmed_at must be null or an integer"),
        (set_at("alarmed_at", value=-5), "alarmed_at must be null or an integer"),
        (set_at("alarmed_at", value=0), "alarmed_at must be null or an integer"),
        (set_at("alarmed_at", value=2.5), "alarmed_at must be null or an integer"),
        (set_at("alarmed_at", value="3"), "alarmed_at must be null or an integer"),
        (set_at("alarmed_at", value=True), "alarmed_at must be null or an integer"),
    ]:
        with pytest.raises(ValueError, match=match):
            KernelCusumDetector.restore(reference, config, corrupt(blob, mutate))
    for alarmed_at in (1, n):  # the clock's ends are valid
        resumed = KernelCusumDetector.restore(
            reference, config, corrupt(blob, set_at("alarmed_at", value=alarmed_at))
        )
        assert resumed.alarmed_at == alarmed_at

    # a statistic at the threshold has alarmed, so alarmed_at cannot be null
    low = DetectorConfig(window=4, min_sample=2, threshold=0.5, correction=0.0)
    alarmed = KernelCusumDetector(reference, low)
    alarmed.extend(rng.standard_normal((30, 2)) + 4.0)
    assert alarmed.alarmed_at is not None and alarmed._cusum.statistic >= low.threshold
    with pytest.raises(ValueError, match="statistic at the threshold but alarmed_at is null"):
        KernelCusumDetector.restore(
            reference, low, corrupt(alarmed.checkpoint(), set_at("alarmed_at", value=None))
        )


def test_restore_rejects_inconsistent_clock():
    kernel, reference = make_reference(seed=15)
    config = DetectorConfig(window=4, min_sample=2, threshold=7.0, correction=0.1)
    rng = np.random.default_rng(16)

    full = KernelCusumDetector(reference, config)
    full.extend(rng.standard_normal((10, 2)))
    blob = full.checkpoint()
    with pytest.raises(ValueError, match="full buffer but no scores"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, lambda d: d["cusum"].update(n=0))
        )

    partial = KernelCusumDetector(reference, config)
    partial.extend(rng.standard_normal((3, 2)))  # buffer not yet full
    blob = partial.checkpoint()

    def fake_scores(d):
        d["cusum"]["n"] = 4

    with pytest.raises(ValueError, match="scores before the buffer filled"):
        KernelCusumDetector.restore(reference, config, corrupt(blob, fake_scores))


def _paths(node, path=()):
    """Every entry of parsed JSON, containers included, as key paths."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield path + (key,)
        if isinstance(value, (dict, list)):
            yield from _paths(value, path + (key,))


def _canonical(node):
    """Parsed JSON with every string that parses as a float written in
    canonical hex; what restore would store again, with types kept."""
    if isinstance(node, dict):
        return {key: _canonical(value) for key, value in node.items()}
    if isinstance(node, list):
        return [_canonical(value) for value in node]
    if isinstance(node, str):
        try:
            return float.fromhex(node).hex()
        except (ValueError, OverflowError):
            return node
    return node


def _outcome_bits(outcomes):
    def h(v):
        return None if v is None else float(v).hex()

    return [(o.index, h(o.discrepancy), h(o.score), h(o.statistic), o.alarm) for o in outcomes]


MUTANT_VALUES = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-3, 40),
    st.integers(2**53, 2**64),
    st.floats(),
    st.floats().map(float.hex),
    st.sampled_from(["nan", "-inf", "inf", "", "0x", "zz", "0x1p+2000", "-0x0p+0", " 0x1p+0 "]),
    st.text(max_size=4),
    st.lists(st.integers(0, 3), max_size=2),
    st.just({}),
)


# entries to mutate, valid at every split below; -1 is the last row or entry
TARGETS = [
    ("format",), ("version",), ("window",), ("min_sample",), ("threshold",), ("correction",),
    ("dim",), ("reference",), ("alarmed_at",), ("raw_buffer",), ("raw_buffer", 0),
    ("raw_buffer", 0, 1), ("raw_buffer", -1, 0), ("cusum",), ("cusum", "n"), ("cusum", "sum"),
    ("cusum", "comp"), ("cusum", "eligible_min"), ("cusum", "statistic"), ("cusum", "pending"),
    ("cusum", "pending", 0), ("cusum", "pending", 0, 0), ("cusum", "pending", -1, 1),
]


def _mutate(entry, op, value):
    """Entry ``entry`` after ``op``; DELETE for a removal.  The spelling
    ops keep the value when it has no such spelling."""
    if op == "replace":
        return value
    if op == "delete":
        return DELETE
    if op == "duplicate":
        return [entry, entry] if not isinstance(entry, list) else entry + entry[-1:]
    if isinstance(entry, str):
        return {"upper": entry.upper(), "pad": f" {entry}\t"}.get(op, entry)
    if type(entry) is int:
        return {"float": float(entry), "string": str(entry)}.get(op, entry)
    return entry


DELETE = object()


@settings(max_examples=500, deadline=None, derandomize=True)
@given(
    split=st.sampled_from([3, 6, 12, 30]),  # filling, CUSUM warm-up, steady, alarmed
    target=st.sampled_from(TARGETS),
    op=st.sampled_from(["replace", "delete", "duplicate", "upper", "pad", "float", "string"]),
    value=MUTANT_VALUES,
)
@example(split=12, target=("version",), op="float", value=None)
@example(split=12, target=("cusum", "n"), op="string", value=None)
@example(split=12, target=("threshold",), op="replace", value="0x1p+2000")
@example(split=12, target=("raw_buffer", 0, 1), op="replace", value="0x1p+2000")
@example(split=12, target=("raw_buffer", -1, 0), op="replace", value="nan")  # in the next window
@example(split=12, target=("cusum", "sum"), op="replace", value="inf")
@example(split=30, target=("threshold",), op="pad", value=None)
def test_a_mutated_checkpoint_is_rejected_or_restores_what_it_says(split, target, op, value):
    """Mutate one entry of a valid checkpoint.  ``restore`` either raises
    ``ValueError``, or it restores exactly the state the text describes
    (its own checkpoint is the text, up to hex spelling) and runs on
    without error or nan; when that state is the original one, it goes
    on bit for bit like the uninterrupted run."""
    kernel, reference = make_reference(seed=19)
    config = DetectorConfig(window=4, min_sample=2, threshold=3.0, correction=0.05)
    stream = np.random.default_rng(20).standard_normal((40, 2))
    stream[20:] += 1.5  # the statistic crosses the threshold before split 30
    direct = KernelCusumDetector(reference, config).extend(stream)
    det = KernelCusumDetector(reference, config)
    det.extend(stream[:split])
    original = json.loads(det.checkpoint())
    mutated = json.loads(det.checkpoint())
    parent = mutated
    for key in target[:-1]:
        parent = parent[key]
    entry = _mutate(parent[target[-1]], op, value)
    if entry is DELETE:
        parent.pop(target[-1])
    else:
        parent[target[-1]] = entry
    try:
        resumed = KernelCusumDetector.restore(reference, config, json.dumps(mutated))
    except ValueError:
        return
    text = json.dumps(_canonical(mutated), sort_keys=True)
    assert json.dumps(_canonical(json.loads(resumed.checkpoint())), sort_keys=True) == text
    rest = resumed.extend(stream[split:])
    assert not any(math.isnan(v) for o in rest for v in (o.discrepancy, o.score, o.statistic)
                   if v is not None)
    if text == json.dumps(_canonical(original), sort_keys=True):
        assert _outcome_bits(rest) == _outcome_bits(direct[split:])


# -- construction and validation ----------------------------------------------


def test_reference_set_basics():
    kernel = KernelSpec.gaussian(1.0)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((9, 2))
    ref = build_reference(kernel, x)
    assert ref.n_pairs == 8 and ref.point_dim == 2
    assert np.array_equal(ref.pairs, lift(x))
    grand = kernel.gram_sum(ref.pairs, ref.pairs) / 64.0
    assert math.isclose(ref.self_mean, grand, rel_tol=0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        ref.pairs[0, 0] = 99.0  # frozen storage
    with pytest.raises(ValueError):
        ReferenceSet(kernel=kernel, pairs=np.zeros((4, 3)))  # odd dimension
    with pytest.raises(TypeError):
        ReferenceSet(kernel=kernel, pairs=ref.pairs, self_mean=1.0)  # derived, not set


def test_detector_config_validation():
    good = dict(window=5, min_sample=2, threshold=1.0, correction=0.0)
    DetectorConfig(**good)
    for bad in (
        dict(good, window=0),
        dict(good, window=2.5),
        dict(good, min_sample=0),
        dict(good, threshold=0.0),
        dict(good, threshold=-1.0),
        dict(good, threshold=math.inf),
        dict(good, threshold=math.nan),
        dict(good, correction=-0.1),
        dict(good, correction=math.inf),
    ):
        with pytest.raises(ValueError):
            DetectorConfig(**bad)


# -- calibration --------------------------------------------------------------


def calibration_oracle(kernel, reference, holdout, window):
    """Brute force: every full window of holdout pairs, scored fresh."""
    pairs = lift(holdout)
    return [
        mmd(kernel, pairs[i : i + window], reference.pairs)
        for i in range(pairs.shape[0] - window + 1)
    ]


def test_calibration_matches_brute_force_max():
    kernel, reference = make_reference(seed=18, m_obs=41)
    rng = np.random.default_rng(19)
    holdout = rng.standard_normal((60, 2))
    window = 7
    oracle = calibration_oracle(kernel, reference, holdout, window)
    cal = calibrate_correction(reference, holdout, window, margin=0.02)
    assert isinstance(cal, Calibration)
    assert cal.n_scores == len(oracle)
    assert math.isclose(cal.holdout_level, max(oracle), rel_tol=0, abs_tol=1e-12)
    assert cal.correction == cal.holdout_level + 0.02
    assert cal.quantile == 1.0 and cal.margin == 0.02


def test_calibration_matches_brute_force_quantile():
    kernel, reference = make_reference(seed=20, m_obs=41)
    rng = np.random.default_rng(21)
    holdout = rng.standard_normal((80, 2))
    window, q = 5, 0.9
    oracle = calibration_oracle(kernel, reference, holdout, window)
    cal = calibrate_correction(reference, holdout, window, margin=0.0, quantile=q)
    want = float(np.quantile(np.asarray(oracle), q))
    assert math.isclose(cal.holdout_level, want, rel_tol=0, abs_tol=1e-12)
    assert cal.holdout_level <= max(oracle)
    assert cal.quantile == q


def test_calibrated_scores_negative_on_holdout():
    """The property the correction is chosen for: replaying the holdout
    through a detector with the calibrated correction yields no positive
    score (max quantile, any positive margin)."""
    _, reference = make_reference(seed=22, m_obs=51)
    rng = np.random.default_rng(23)
    holdout = rng.standard_normal((70, 2))
    cal = calibrate_correction(reference, holdout, window=6, margin=1e-6)
    config = DetectorConfig(window=6, min_sample=2, threshold=5.0, correction=cal.correction)
    det = KernelCusumDetector(reference, config)
    scores = [o.score for o in det.extend(holdout) if o.score is not None]
    assert scores and max(scores) < 0.0


def test_calibration_on_a_finite_holdout():
    """Grouped calibration gives the step loop's discrepancies.  The
    pinned levels are checked against exact sums in
    ``test_two_state_discrepancies_match_exact_sums``."""
    reference, config, _ = two_state_setup()
    assert reference.self_mean == float.fromhex("0x1.625b24ded6d8dp-1")
    holdout = two_state(41, 600)
    det = KernelCusumDetector(reference, config)
    values = [det.step(row).discrepancy for row in holdout][config.window :]
    for q, pinned in ((1.0, "0x1.7f368b421468ep-1"), (0.9, "0x1.004717790e573p-1")):
        cal = calibrate_correction(reference, holdout, 20, margin=0.0, quantile=q)
        assert cal.n_scores == len(values) == 580
        assert cal.holdout_level == float.fromhex(pinned)
    assert max(values) == float.fromhex("0x1.7f368b421468ep-1")


@settings(max_examples=300, deadline=None)
@given(
    values=st.lists(
        st.floats(-1e6, 1e6) | st.sampled_from([0.0, 0.5, 2.0]), min_size=1, max_size=40
    ),
    q=st.floats(5e-324, 1.0) | st.sampled_from([1.0, 5e-324, 1e-300, 0.5, 1.0 - 2.0**-53]),
)
@example(values=[3.0], q=0.3)  # n = 1
@example(values=[2.0, 0.5, 2.0, 0.5, 2.0], q=0.5)  # ties
@example(values=[0.1, 0.7, 0.3], q=1.0)
def test_linear_quantile_equals_numpy_bit_for_bit(values, q):
    """The calibration quantile is ``np.quantile``'s linear method without
    its ``numpy.ma`` import.  A sort may order 0.0 and -0.0 otherwise
    than numpy's partition, so zeros are made positive; a discrepancy is
    never -0.0."""
    values = [v + 0.0 for v in values]
    want = float(np.quantile(np.asarray(values), q))
    assert detector._linear_quantile(values, q).hex() == want.hex()


def test_calibration_validation():
    _, reference = make_reference(seed=24)
    rng = np.random.default_rng(25)
    holdout = rng.standard_normal((30, 2))
    with pytest.raises(ValueError):
        calibrate_correction(reference, holdout, window=5, margin=-0.1)
    with pytest.raises(ValueError):
        calibrate_correction(reference, holdout, window=5, quantile=0.0)
    with pytest.raises(ValueError):
        calibrate_correction(reference, holdout, window=5, quantile=1.5)
    with pytest.raises(ValueError):
        calibrate_correction(reference, holdout, window=0)
    with pytest.raises(ValueError, match="too short"):
        calibrate_correction(reference, holdout[:5], window=10)
    with pytest.raises(ValueError, match="dimension"):
        calibrate_correction(reference, rng.standard_normal((30, 3)), window=5)
