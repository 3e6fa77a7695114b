"""Detector: CUSUM recursion oracle, checkpointing, calibration."""

import hashlib
import itertools
import json
import math
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcusum import (
    ArScenario,
    Calibration,
    CusumStream,
    DetectorConfig,
    FiniteChain,
    FiniteScenario,
    GaussianLaw,
    KernelCusumDetector,
    KernelSpec,
    ReferenceSet,
    build_reference,
    calibrate_correction,
    default_system_matrix,
    lift,
    mmd,
    mmd_squared,
    simulate_ar,
    simulate_finite,
    simulate_finite_scenario,
    stream_rng,
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


def test_extend_reads_any_iterable_once():
    """A generator, a ``map`` and a numpy array give the statistics and
    the state of the same scores as a list, bit for bit; a non-finite
    score in a generator still raises before any state changes."""
    scores = [0.5, -1.0, 2.0, 0.25, 1.0, 3.0, -0.5]
    listed = CusumStream(2)
    want = listed.extend(scores)
    for source in (
        lambda: (s for s in scores),
        lambda: map(float, scores),
        lambda: np.array(scores),
    ):
        stream = CusumStream(2)
        assert bits(stream.extend(source())) == bits(want)
        assert stream.snapshot() == listed.snapshot()
    stream = CusumStream(2)
    stream.extend(scores)
    before = stream.snapshot()
    with pytest.raises(ValueError, match="finite"):
        stream.extend(s for s in [1.0, math.nan, 2.0])
    assert stream.snapshot() == before


def test_extend_of_an_ndarray_keeps_python_floats():
    """An ndarray's scores are read as Python floats, so the stream's
    sums and every later statistic stay ``float``, with the bits of the
    same list."""
    scores = [0.5, -1.0, 2.0, 0.25, 1.0, 3.0, -0.5]
    listed, fed = CusumStream(2), CusumStream(2)
    want = listed.extend(scores)
    got = fed.extend(np.array(scores))
    assert bits(got) == bits(want) and all(type(v) is float for v in got)
    assert type(fed.statistic) is float
    assert all(type(v) is float for v in (fed._sum, fed._comp, fed._eligible_min))
    assert fed.update(0.75).hex() == listed.update(0.75).hex()
    assert type(fed.statistic) is float


def test_extend_of_float32_scores_keeps_python_floats():
    """``numpy.float32`` scores are read as Python floats: the sums are
    kept in double precision, every statistic is a ``float`` with the
    bits of the same scores as doubles, and the state survives a
    snapshot round trip."""
    scores = [np.float32(0.1), np.float32(0.2), np.float32(0.3)]
    fed, listed = CusumStream(1), CusumStream(1)
    got = fed.extend(scores)
    assert bits(got) == bits(listed.extend([float(s) for s in scores]))
    assert type(fed.statistic) is float and all(type(v) is float for v in got)
    assert type(fed.update(np.float32(0.4))) is float
    snapshot = fed.snapshot()
    restored = CusumStream.from_snapshot(1, snapshot)
    assert restored.snapshot() == snapshot and type(restored.statistic) is float
    assert restored.update(0.5).hex() == fed.update(0.5).hex()


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

    def recording(self, A, columns, *rest):
        if columns.shape[1] == m:
            rows_against_reference.append(A.shape[0])
        return original(self, A, columns, *rest)

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

    def recording(self, A, columns, *rest):
        calls.append((A.copy(), columns.shape[1]))
        return original(self, A, columns, *rest)

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
    discrepancies keep a pinned digest, the one a band path gives too.
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
    assert digest == "9db97ed2355db23700d554a98b76522548cccf7b43b6654e53227d62d399ebd7"
    table_run(reference, config, np.concatenate([data[:100], data[85:93], data[100:]]))


@pytest.mark.parametrize("window", [1, 2, 5, 13])
def test_scorer_floats_state_the_scorer_buffers(window):
    """``scorer_floats``, which the config parser checks against memory,
    counts the floats of a real scorer's lag rows and id table."""
    reference = build_reference(KernelSpec.gaussian(1.0), ar_data(3, 40))
    continuous = detector._BlockScorer(reference, window)
    assert continuous._table is None
    assert 8 * detector.scorer_floats(window, False) == continuous._lags.nbytes
    repeating = detector._BlockScorer(duplicated_reference(), window)
    assert 8 * detector.scorer_floats(window, True) == (
        repeating._lags.nbytes + repeating._table._kernels.nbytes
    )


@pytest.mark.parametrize("window", [1, 13])
@pytest.mark.parametrize("dim", [1, 4])
def test_reference_floats_state_the_reference_arrays(window, dim):
    """``reference_floats``, which the config parser checks against
    memory, counts a lifted reference's pairs, its observations and a
    continuous scorer's ``_columns``, and beyond those arrays the peak
    that ``distinct_rows`` allocates while the self-term is built.  That
    allowance is at least the peak ``tracemalloc`` measures, and on
    continuous data, whose pairs are all distinct, within 10 % of it; on
    a finite chain the scorer has no ``_columns``."""
    kernel = KernelSpec.gaussian(1.0)
    references = [build_reference(kernel, ar_data(3, 2001, dim))]
    if dim == 1:
        references.append(build_reference(kernel, two_state(40, 2001)))
    for reference in references:
        scorer = detector._BlockScorer(reference, window)
        table = scorer._table is not None
        held = reference.pairs.nbytes + reference.observations.nbytes
        if not table:
            held += scorer._columns.nbytes
        count = detector.reference_floats(reference.n_pairs, reference.point_dim, window, table)
        tracemalloc.start()
        try:
            detector.distinct_rows(reference.pairs)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        allowance = 8 * count - held
        assert peak <= allowance
        if not table:
            assert allowance <= 1.1 * peak


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


def pair_kernel(kernel, a, b):
    """The detector's kernel between the lifted pair sets ``a`` and ``b``."""
    return kernel._gram(a, np.ascontiguousarray(b.T), detector.pair_distances)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 4]),
    seed=st.integers(0, 2**16),
    rows=st.integers(1, 12),
    cols=st.integers(1, 30),
    scale=st.sampled_from([1e-3, 1.0, 1e3]),
)
def test_pair_kernel_is_the_lifted_gram(dim, seed, rows, cols, scale):
    """A pair's squared distance is the sum of its halves' distances.  At
    d = 1 the pair kernel is ``KernelSpec.gram`` of the lifted points bit
    for bit, and at d = 2 and 4 it is within 2e-15 relative of it.  It
    is symmetric, and a row or a column computed alone has the bits it
    has in the whole table."""
    rng = np.random.default_rng(seed)
    kernel = KernelSpec.mixture([0.1 * scale, scale, 10.0 * scale])
    a = lift(scale * rng.standard_normal((rows + 1, dim)))
    b = lift(scale * rng.standard_normal((cols + 1, dim)))
    got = pair_kernel(kernel, a, b)
    want = kernel.gram(a, b)
    if dim == 1:
        assert got.tobytes() == want.tobytes()
    else:
        assert np.all(np.abs(got - want) <= 2e-15 * want)
    assert pair_kernel(kernel, b, a).T.tobytes() == got.tobytes()
    i, j = rows // 2, cols // 3
    assert pair_kernel(kernel, a[i : i + 1], b).tobytes() == got[i : i + 1].tobytes()
    assert pair_kernel(kernel, a, b[j : j + 1]).tobytes() == got[:, j : j + 1].tobytes()


def unchained_twin(reference):
    """``reference`` held as pairs that do not chain: its first halves,
    then its second halves, with offset ``n_pairs``."""
    twin = ReferenceSet(kernel=reference.kernel, pairs=reference.pairs)
    d = reference.point_dim
    halves = np.concatenate((reference.pairs[:, :d], reference.pairs[:, d:]))
    object.__setattr__(twin, "observations", np.asfortranarray(halves))
    object.__setattr__(twin, "offset", reference.n_pairs)
    return twin


def test_reference_observations_chain_when_the_pairs_do():
    """A lifted trajectory is held as its observations, offset 1; pairs
    that do not chain, as their first and then their second halves,
    offset ``n_pairs``.  Either way pair q is observations q and
    q + offset."""
    x, y = ar_data(60, 30), ar_data(61, 20)
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    chained = build_reference(kernel, x)
    assert chained.offset == 1 and np.array_equal(chained.observations, x)
    joined = ReferenceSet(kernel=kernel, pairs=np.concatenate((lift(x), lift(y))))
    m = joined.n_pairs
    assert joined.offset == m and joined.observations.shape == (2 * m, 2)
    for reference in (chained, joined):
        obs, off = reference.observations, reference.offset
        assert np.array_equal(np.hstack((obs[: reference.n_pairs], obs[off:])), reference.pairs)
        assert obs.T.flags.c_contiguous and not obs.flags.writeable


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 4]),
    window=st.integers(1, 6),
    seed=st.integers(0, 2**16),
    cuts=st.lists(st.integers(1, 79), max_size=5),
)
def test_chained_and_unchained_references_score_alike(dim, window, seed, cuts):
    """A lifted reference, held as a chain, and its twin held as unchained
    pairs give the same outcomes bit for bit, in a step loop and in
    blocks, and their cross sums are the pair kernel's row sums against
    the reference, bit for bit."""
    reference = build_reference(KernelSpec.mixture([0.1, 1.0, 10.0]), ar_data(seed, 41, dim))
    twin = unchained_twin(reference)
    assert reference.offset == 1 and twin.offset == reference.n_pairs
    config = DetectorConfig(window=window, min_sample=2, threshold=0.5, correction=0.05)
    stream = ar_data(seed + 1, 80, dim)
    det = KernelCusumDetector(reference, config)
    single = [det.step(row) for row in stream]
    twin_det = KernelCusumDetector(twin, config)
    bounds = [0, *sorted(set(cuts)), len(stream)]
    assert [out for lo, hi in zip(bounds, bounds[1:]) for out in twin_det.extend(stream[lo:hi])] == single
    for scorer in (det._scorer, twin_det._scorer):
        held = scorer._end - 1  # pairs in the buffers since the last move
        pairs = scorer._lifted[:held]
        want = np.add.reduce(pair_kernel(reference.kernel, pairs, reference.pairs), axis=1)
        assert scorer._cross[:held].tobytes() == want.tobytes()


def test_a_continuous_step_measures_one_new_observation(monkeypatch):
    """On continuous data a step measures only its new observation, in
    one call: its distances to the m + 1 reference observations and to
    itself and its ``window - 1`` predecessors, d coordinates each.  The
    pair that the previous observation began is not measured again, and
    its cross row and band row are evaluated in one kernel pass."""
    reference = build_reference(KernelSpec.mixture([0.1, 1.0, 10.0]), ar_data(62, 41, dim=4))
    m, window = reference.n_pairs, 7
    config = DetectorConfig(window=window, min_sample=2, threshold=50.0, correction=0.05)
    data = ar_data(63, 60, dim=4)
    det = KernelCusumDetector(reference, config)
    det.extend(data[:30])
    measured, passes = [], []
    distances, values = detector.squared_distances, KernelSpec._kernel_values

    def counting_distances(A, columns):
        out = distances(A, columns)
        measured.append((A.shape, out.size))
        return out

    def counting_values(self, sq, out=None):
        passes.append(sq.size)
        return values(self, sq, out)

    monkeypatch.setattr(detector, "squared_distances", counting_distances)
    monkeypatch.setattr(KernelSpec, "_kernel_values", counting_values)
    for row in data[30:]:
        measured.clear()
        passes.clear()
        det.step(row)
        assert measured == [((1, 4), m + 1 + window)]
        assert passes == [m + window]


def pair_path_self_sum(reference):
    """The reference self-term as the sum of the Gram matrix of the
    distinct pairs, weighted by their counts, with :func:`pair_distances`
    (the path every reference took before lifted references were measured
    through their observations)."""
    distinct, _, counts = detector.distinct_rows(reference.pairs)
    return reference.kernel._self_sum(distinct, counts, detector.pair_distances)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    dim=st.sampled_from([1, 2, 4]),
    m=st.integers(1, 600),
    bandwidths=st.lists(st.sampled_from([0.01, 0.1, 1.0, 10.0, 1e3]), min_size=1, max_size=3),
    shift=st.sampled_from([0.0, -3.0, 1e6]),
    seed=st.integers(0, 2**16),
)
@example(dim=4, m=600, bandwidths=[0.01, 1e3], shift=1e6, seed=0)  # several row chunks
def test_lifted_reference_self_term_keeps_the_pair_path_bits(dim, m, bandwidths, shift, seed):
    """The self-term of a lifted reference on continuous data, measured
    through one table of observation distances per chunk, has the bits
    of the pair path over the distinct pairs: its total equals that sum
    and ``self_mean`` is that sum over m**2.  The same pairs in reverse
    order, which do not chain, and a reference of a finite chain, which
    repeats pairs, still take the pair path and give its bits."""
    kernel = KernelSpec.mixture(bandwidths)
    pairs = lift(ar_data(seed, m + 1, dim) + shift)
    finite = lift(np.random.default_rng(seed).integers(0, 2, (m + 1, 1)) * np.ones(dim) + shift)
    chained_distances = detector.chained_distances
    references = []
    for held in (pairs, pairs[::-1], finite):
        chained = []

        def recording(A, columns):
            chained.append(A.shape[0])
            return chained_distances(A, columns)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(detector, "chained_distances", recording)
            reference = ReferenceSet(kernel=kernel, pairs=held)
        total = pair_path_self_sum(reference)
        assert reference.self_mean == total / (m * m)
        through_observations = reference.offset == 1 and not reference.repeats
        assert sum(chained) == (m if through_observations else 0)
        references.append(reference)
    lifted = references[0]
    assert lifted.offset == 1 and not lifted.repeats
    assert references[1].offset == m or m == 1
    if m > 8:  # a two-state chain has four distinct pairs
        assert references[2].repeats
    ones = np.ones(m, dtype=np.int64)
    assert kernel._self_sum(lifted.pairs, ones, detector.chained_distances) == pair_path_self_sum(lifted)


def test_a_lifted_reference_measures_each_observation_pair_once(monkeypatch):
    """A 2000-pair lifted reference measures its self-term through a table
    of observation distances per row chunk: at most the (m + 1)(m + 2) / 2
    observation pairs of the triangle and one row of m + 1 per chunk, all
    of d coordinates.  The same pairs in reverse order do not chain and
    measure both halves of every pair of the triangle, about twice that."""
    measured = []
    distances = detector.squared_distances

    def counting(A, columns):
        out = distances(A, columns)
        measured.append((A.shape[1], out.size))
        return out

    monkeypatch.setattr(detector, "squared_distances", counting)
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    reference = build_reference(kernel, ar_data(7, 2001, dim=4))
    m = reference.n_pairs
    chunks = len(detector.row_chunks(m, m))
    assert {width for width, _ in measured} == {4}
    assert sum(size for _, size in measured) <= (m + 1) * (m + 2) // 2 + chunks * (m + 1)
    measured.clear()
    reversed_pairs = ReferenceSet(kernel=kernel, pairs=reference.pairs[::-1])
    assert reversed_pairs.offset == m and reversed_pairs.self_mean == reference.self_mean
    assert {width for width, _ in measured} == {4}
    assert sum(size for _, size in measured) >= m * (m + 1)


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


@pytest.mark.parametrize("version", [3, 2])
def test_checkpoint_at_every_split_across_chunks(version):
    """Every split, from an empty buffer through the filling phase to
    full windows, with a window wider than one kernel chunk, from the
    checkpoint and from its version 2 form; either restores the state
    the checkpoint was taken of."""
    reference, config = chunked_reference()
    rng = np.random.default_rng(28)
    data = 0.3 * rng.standard_normal((100, 1))
    direct = KernelCusumDetector(reference, config).extend(data)
    for split in range(len(data) + 1):
        det = KernelCusumDetector(reference, config)
        outcomes = det.extend(data[:split]) if split else []
        text = det.checkpoint()
        resumed = KernelCusumDetector.restore(
            reference, config, text if version == 3 else as_version_2(text)
        )
        assert resumed.checkpoint() == text, split
        if split < len(data):
            outcomes += resumed.extend(data[split:])
        assert outcomes == direct, split


@pytest.mark.parametrize("window", [3, 300])
def test_a_restore_takes_the_stored_cross_sums_at_any_split(window):
    """At every split of a stream several windows long, the scorer that a
    restore rebuilds holds the cross sums, the cached observation rows
    and the D rows of the uninterrupted one, bit for bit, and so goes on
    like it; at window 300 the stored sums fill two chunks.  Of the D
    rows, only the lags within the stored window can match, and only
    they are read: the i-th oldest pair's first i + 1."""
    reference = build_reference(KernelSpec.mixture([0.1, 1.0, 10.0]), ar_data(70, 301, dim=2))
    config = DetectorConfig(window=window, min_sample=2, threshold=5.0, correction=0.05)
    data = ar_data(71, 3 * window + 4, dim=2)
    splits = range(1, len(data)) if window < 10 else (1, 2, window, window + 1, 2 * window + 3)
    for split in splits:
        det = KernelCusumDetector(reference, config)
        det.extend(data[:split])
        resumed = KernelCusumDetector.restore(reference, config, det.checkpoint())
        kept, rebuilt = det._scorer, resumed._scorer
        pairs = min(split - 1, window)
        assert rebuilt.raw_cross.tobytes() == kept.raw_cross.tobytes(), split
        lags = [np.tril(s._lags[s._end - 1 - pairs : s._end - 1]) for s in (rebuilt, kept)]
        assert lags[0].tobytes() == lags[1].tobytes(), split
        assert rebuilt._ref_row.tobytes() == kept._ref_row.tobytes(), split
        assert rebuilt._lag_row.tobytes() == kept._lag_row.tobytes(), split
        assert resumed.extend(data[split:]) == det.extend(data[split:]), split


def test_a_newest_cross_sum_that_differs_restores_as_version_2():
    """A version 3 text whose every cross sum is one ulp off, as from a
    program with other kernel arithmetic, fails the newest-pair check and
    drops the stored sums: it restores the state its version 2 form
    restores, which is the uninterrupted one.  When only older stored
    sums differ, they are taken as they stand."""
    kernel, reference = make_reference(seed=21, m_obs=60)
    config = DetectorConfig(window=6, min_sample=2, threshold=50.0, correction=0.1)
    data = ar_data(72, 40, dim=2)
    det = KernelCusumDetector(reference, config)
    det.extend(data[:25])
    text = det.checkpoint()

    def nudged(indices):
        def nudge(d):
            for i in indices:
                d["cross"][i] = math.nextafter(float.fromhex(d["cross"][i]), 0.0).hex()

        return corrupt(text, nudge)

    every = nudged(range(config.window))
    resumed = KernelCusumDetector.restore(reference, config, every)
    assert resumed.checkpoint() == text
    as_2 = KernelCusumDetector.restore(reference, config, as_version_2(every))
    assert as_2.checkpoint() == text
    assert resumed.extend(data[25:]) == det.extend(data[25:])
    older = nudged(range(config.window - 1))
    resumed = KernelCusumDetector.restore(reference, config, older)
    assert json.loads(resumed.checkpoint()) == json.loads(older) != json.loads(text)


def counting_kernel_values(monkeypatch):
    """Patch ``KernelSpec._kernel_values`` to record the number of kernel
    values of each call."""
    counts = []
    original = KernelSpec._kernel_values

    def counting(self, sq, out=None):
        counts.append(sq.size)
        return original(self, sq, out)

    monkeypatch.setattr(KernelSpec, "_kernel_values", counting)
    return counts


def test_a_restore_evaluates_the_band_and_one_cross_row(monkeypatch):
    """On a continuous reference, restoring a version 3 checkpoint with a
    full window evaluates at most ``window**2 + n_pairs`` kernel values:
    the band rows of the window's pairs and the cross row of its newest
    one.  Its version 2 form scores the whole window against the
    reference, ``window * (n_pairs + window)`` values."""
    reference = build_reference(KernelSpec.mixture([0.1, 1.0, 10.0]), ar_data(73, 301, dim=2))
    m, window = reference.n_pairs, 8
    config = DetectorConfig(window=window, min_sample=2, threshold=50.0, correction=0.05)
    det = KernelCusumDetector(reference, config)
    det.extend(ar_data(74, 40, dim=2))
    text = det.checkpoint()
    counts = counting_kernel_values(monkeypatch)
    for _ in range(2):  # the counts repeat
        counts.clear()
        KernelCusumDetector.restore(reference, config, text)
        assert sum(counts) <= window * window + m
        counts.clear()
        KernelCusumDetector.restore(reference, config, as_version_2(text))
        assert sum(counts) == window * (m + window)


# -- a version 2 checkpoint, written before version 3 --------------------------

V2_FIXTURE = pathlib.Path(__file__).parent / "fixtures" / "checkpoint-v2-steady.json"


def v2_fixture_detector():
    """The detector whose checkpoint, written by version 2, is
    ``V2_FIXTURE``, and the data it was fed: a 20-pair reference, window
    4, and the 39 observations that leave 35 scores."""
    data = stream_rng(12, 0).standard_normal((60, 2))
    reference = build_reference(KernelSpec.gaussian(1.0), data[:21])
    config = DetectorConfig(window=4, min_sample=6, threshold=50.0, correction=0.3)
    det = KernelCusumDetector(reference, config)
    det.extend(data[21:])
    return det


def test_a_version_2_checkpoint_restores_bit_for_bit(monkeypatch):
    """A checkpoint text written by version 2 restores the state of the
    detector that wrote it, whose version 3 checkpoint the restored
    detector writes, and goes on like it bit for bit.  It scores its
    whole window against the reference, ``window * (n_pairs + window)``
    kernel values, as every version 2 restore did."""
    text = V2_FIXTURE.read_text()
    assert json.loads(text)["version"] == 2
    det = v2_fixture_detector()
    counts = counting_kernel_values(monkeypatch)
    resumed = KernelCusumDetector.restore(det.reference, det.config, text)
    window, m = det.config.window, det.reference.n_pairs
    assert sum(counts) == window * (m + window) == 96
    monkeypatch.undo()
    assert resumed.checkpoint() == det.checkpoint()
    assert as_version_2(det.checkpoint()) == text
    more = stream_rng(12, 1).standard_normal((30, 2))
    assert resumed.extend(more) == det.extend(more)


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


@pytest.mark.parametrize("shift", [1e2, 1e4, 1e6])
def test_discrepancies_are_translation_invariant(shift):
    """Shifting the reference, holdout and monitored data by one constant
    leaves the calibration level and every discrepancy within 1e-9, in
    dimensions 2 and 4: in a step loop, whose observation rows are
    cached from step to step, and across a restore in mid-stream, which
    rebuilds them."""
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])

    def run(dim, offset):
        rng = np.random.default_rng(32)
        ref_obs = 0.3 * rng.standard_normal((301, dim))
        holdout = 0.3 * rng.standard_normal((150, dim))
        monitored = 0.3 * rng.standard_normal((120, dim))
        monitored[60:] *= 2.0
        reference = build_reference(kernel, ref_obs + offset)
        cal = calibrate_correction(reference, holdout + offset, window=20)
        config = DetectorConfig(window=20, min_sample=5, threshold=5.0, correction=cal.correction)
        det = KernelCusumDetector(reference, config)
        outs = [det.step(row) for row in monitored[:50] + offset]
        det = KernelCusumDetector.restore(reference, config, det.checkpoint())
        outs += [det.step(row) for row in monitored[50:] + offset]
        return cal.holdout_level, np.array([o.discrepancy for o in outs if o.index is not None])

    for dim in (2, 4):
        level, values = run(dim, 0.0)
        shifted_level, shifted_values = run(dim, shift)
        assert abs(shifted_level - level) <= 1e-9, dim
        assert np.max(np.abs(shifted_values - values)) <= 1e-9, dim


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


def corrupt(blob, mutate, sign=True):
    """``blob`` after ``mutate`` of its parsed fields, signed again with
    the module's state digest unless ``sign`` is False, so that restore
    gets past the digest to the check of the mutated field."""
    data = json.loads(blob)
    mutate(data)
    if sign:
        data["state_sha256"] = detector._state_digest(data)
    return json.dumps(data)


def as_version_2(blob):
    """A version 3 checkpoint as version 2 writes it: without the cross
    sums and the state digest."""
    data = json.loads(blob)
    del data["cross"], data["state_sha256"]
    data["version"] = 2
    return json.dumps(data, indent=1)


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
    for fields in [lambda d: d.pop("cusum"), lambda d: d.pop("cross"), set_at("version", value=2)]:
        with pytest.raises(ValueError, match="malformed: version . holds the fields"):
            KernelCusumDetector.restore(reference, config, corrupt(blob, fields))
    with pytest.raises(ValueError, match="does not match its state_sha256"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, set_at("state_sha256", value="0" * 64), sign=False)
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
        (set_at("raw_buffer", value="12"), "raw buffer must be a list of rows"),
        (set_at("raw_buffer", value={"0": ["0x1p+0"]}), "raw buffer must be a list of rows"),
        (set_at("raw_buffer", 0, value="12"), "raw buffer must be a list of rows"),
        (set_at("raw_buffer", 0, value={"1": 0, "2": 0}), "raw buffer must be a list of rows"),
        (set_at("raw_buffer", 0, 0, value=1.0), "raw buffer row must be a list of hex strings"),
        (set_at("cross", value="12"), "cross must be a list of hex strings"),
        (set_at("cross", 0, value=1.0), "cross must be a list of hex strings"),
        (lambda d: d["cross"].pop(), "one sum per buffered pair"),
        (lambda d: d["cross"].append("0x1p+0"), "one sum per buffered pair"),
        (set_at("cross", 0, value="nan"), "not a cross sum"),
        (set_at("cross", 0, value="inf"), "not a cross sum"),
        (set_at("cross", 0, value="-0x1p-2"), "not a cross sum"),
        (set_at("cross", 0, value="-0x0p+0"), "not a cross sum"),
        (set_at("cross", 0, value=(2.0 * reference.n_pairs + 1.0).hex()), "not a cross sum"),
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
    ("cross",), ("cross", 0), ("cross", -1), ("state_sha256",),
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
@example(split=12, target=("raw_buffer", 0), op="replace", value="12")
@example(split=12, target=("cross", 0), op="replace", value="0x1p+3")
@example(split=12, target=("cross", -1), op="replace", value="0x1p+3")
def test_a_mutated_checkpoint_is_rejected_or_restores_what_it_says(split, target, op, value):
    """Mutate one entry of a valid checkpoint and sign the text again
    with the module's state digest, unless the digest is the entry
    mutated.  ``restore`` either raises ``ValueError``, or it restores
    exactly the state the text describes (its own checkpoint is the
    text, up to hex spelling and so up to the digest) and runs on
    without error or nan; when that state is the original one, it goes
    on bit for bit like the uninterrupted run.  The one exception is a
    newest cross sum other than the one restore recomputes: then the
    stored sums are dropped, and the text restores as its version 2
    form does."""
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
    if target != ("state_sha256",):
        mutated["state_sha256"] = detector._state_digest(mutated)
    try:
        resumed = KernelCusumDetector.restore(reference, config, json.dumps(mutated))
    except ValueError:
        return
    said, got = _canonical(mutated), _canonical(json.loads(resumed.checkpoint()))
    for fields in (said, got):
        del fields["state_sha256"]  # it moves with the spelling of the fields
    if got["cross"] != said["cross"]:
        assert got["cross"][-1] != said["cross"][-1]
        as_2 = KernelCusumDetector.restore(reference, config, as_version_2(json.dumps(mutated)))
        assert resumed.checkpoint() == as_2.checkpoint()
        for fields in (said, got):
            del fields["cross"]
    text = json.dumps(said, sort_keys=True)
    assert json.dumps(got, sort_keys=True) == text
    rest = resumed.extend(stream[split:])
    assert not any(math.isnan(v) for o in rest for v in (o.discrepancy, o.score, o.statistic)
                   if v is not None)
    original = _canonical(original)
    if text == json.dumps({key: original[key] for key in said}, sort_keys=True):
        assert _outcome_bits(rest) == _outcome_bits(direct[split:])


@pytest.mark.parametrize("split, path, value", [
    (12, ("raw_buffer", 0, 0), (0.25).hex()),
    (12, ("cusum", "pending", 0, 1), (-0.5).hex()),
    (30, ("alarmed_at",), 1),
])
def test_the_state_digest_sees_a_change_to_another_valid_value(split, path, value):
    """A raw-buffer cell, an older pending prefix or ``alarmed_at`` changed
    to another value that passes every field check: signed again, the
    text restores the changed state; left unsigned, it is rejected."""
    kernel, reference = make_reference(seed=19)
    config = DetectorConfig(window=4, min_sample=2, threshold=3.0, correction=0.05)
    stream = np.random.default_rng(20).standard_normal((40, 2))
    stream[20:] += 1.5
    det = KernelCusumDetector(reference, config)
    det.extend(stream[:split])
    blob = det.checkpoint()
    signed = corrupt(blob, set_at(*path, value=value))
    resumed = KernelCusumDetector.restore(reference, config, signed)
    assert _canonical(json.loads(resumed.checkpoint())) == _canonical(json.loads(signed))
    with pytest.raises(ValueError, match="does not match its state_sha256"):
        KernelCusumDetector.restore(
            reference, config, corrupt(blob, set_at(*path, value=value), sign=False)
        )


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


def test_continuous_reference_sums_keep_their_bits():
    """On a d = 4 AR reference the exact sums keep the bits they had
    when every kernel value went to ``math.fsum`` one by one."""
    kernel = KernelSpec.mixture([0.1, 1.0, 10.0])
    matrix = default_system_matrix()
    x = simulate_ar(
        ArScenario(matrix=matrix, pre_noise=GaussianLaw.isotropic(4, 0.1), length=601), seed=18
    )
    y = simulate_ar(
        ArScenario(matrix=matrix, pre_noise=GaussianLaw.isotropic(4, 0.2), length=301),
        seed=18,
        stream=1,
    )
    reference = build_reference(kernel, x)
    assert reference.self_mean == float.fromhex("0x1.8aee8fd9bfc38p-2")
    assert kernel.gram_sum(reference.pairs, lift(y)) == float.fromhex("0x1.f69b5196b2f79p+15")
    assert mmd_squared(kernel, lift(x), lift(y)) == float.fromhex("0x1.d01f22f92a620p-7")


def test_reference_self_term_hands_fsum_few_items(monkeypatch):
    """A 2000-pair continuous reference sends its two million upper
    triangle values to ``math.fsum`` as a few exact parts per chunk, not
    one float per entry."""
    items = []
    fsum = math.fsum

    def counting(values):
        values = list(values)
        items.append(len(values))
        return fsum(values)

    monkeypatch.setattr(math, "fsum", counting)
    reference = build_reference(KernelSpec.mixture([0.1, 1.0, 10.0]), ar_data(7, 2001, dim=4))
    assert not reference.repeats
    assert 0 < sum(items) < 1000


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
