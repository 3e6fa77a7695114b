"""Detector: CUSUM recursion oracle, checkpointing, calibration."""

import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kcusum import (
    Calibration,
    CusumStream,
    DetectorConfig,
    FiniteChain,
    KernelCusumDetector,
    KernelSpec,
    ReferenceSet,
    build_reference,
    calibrate_correction,
    lift,
    mmd,
    simulate_finite,
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
        window_pairs = lift(data[i - config.window : i + 1]).pairs
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
    with pytest.raises(ValueError):
        det.step([math.nan, 0.0])
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
    index = [lookup[tuple(p)] for p in lift(data).pairs]
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
    cal = calibrate_correction(reference.kernel, reference, holdout, 20, margin=0.0, quantile=0.9)
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
    calibrate_correction(reference.kernel, reference, data[:60], window=20)
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
        cal = calibrate_correction(kernel, reference, holdout + offset, window=20)
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


# -- construction and validation ----------------------------------------------


def test_reference_set_basics():
    kernel = KernelSpec.gaussian(1.0)
    rng = np.random.default_rng(17)
    x = rng.standard_normal((9, 2))
    ref = build_reference(kernel, x)
    assert ref.n_pairs == 8 and ref.point_dim == 2
    assert np.array_equal(ref.pairs, lift(x).pairs)
    grand = kernel.gram_sum(ref.pairs, ref.pairs) / 64.0
    assert math.isclose(ref.self_mean, grand, rel_tol=0, abs_tol=1e-15)
    with pytest.raises(ValueError):
        ref.pairs[0, 0] = 99.0  # frozen storage
    with pytest.raises(ValueError):
        ReferenceSet(kernel=kernel, pairs=np.zeros((4, 3)))  # odd dimension


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
    pairs = lift(holdout).pairs
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
    cal = calibrate_correction(kernel, reference, holdout, window, margin=0.02)
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
    cal = calibrate_correction(kernel, reference, holdout, window, margin=0.0, quantile=q)
    want = float(np.quantile(np.asarray(oracle), q))
    assert math.isclose(cal.holdout_level, want, rel_tol=0, abs_tol=1e-12)
    assert cal.holdout_level <= max(oracle)
    assert cal.quantile == q


def test_calibrated_scores_negative_on_holdout():
    """The property the correction is chosen for: replaying the holdout
    through a detector with the calibrated correction yields no positive
    score (max quantile, any positive margin)."""
    kernel, reference = make_reference(seed=22, m_obs=51)
    rng = np.random.default_rng(23)
    holdout = rng.standard_normal((70, 2))
    cal = calibrate_correction(kernel, reference, holdout, window=6, margin=1e-6)
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
        cal = calibrate_correction(reference.kernel, reference, holdout, 20, margin=0.0, quantile=q)
        assert cal.n_scores == len(values) == 580
        assert cal.holdout_level == float.fromhex(pinned)
    assert max(values) == float.fromhex("0x1.7f368b421468ep-1")


def test_calibration_validation():
    kernel, reference = make_reference(seed=24)
    rng = np.random.default_rng(25)
    holdout = rng.standard_normal((30, 2))
    with pytest.raises(ValueError):
        calibrate_correction(kernel, reference, holdout, window=5, margin=-0.1)
    with pytest.raises(ValueError):
        calibrate_correction(kernel, reference, holdout, window=5, quantile=0.0)
    with pytest.raises(ValueError):
        calibrate_correction(kernel, reference, holdout, window=5, quantile=1.5)
    with pytest.raises(ValueError):
        calibrate_correction(kernel, reference, holdout, window=0)
    with pytest.raises(ValueError, match="too short"):
        calibrate_correction(kernel, reference, holdout[:5], window=10)
    with pytest.raises(ValueError, match="dimension"):
        calibrate_correction(kernel, reference, rng.standard_normal((30, 3)), window=5)
    for other in (KernelSpec.gaussian(2.0), KernelSpec.mixture([1.0, 1.0], [0.25, 0.75])):
        with pytest.raises(ValueError, match="kernel does not match"):
            calibrate_correction(other, reference, holdout, window=5)
    equal = KernelSpec.gaussian(1.0)
    assert equal is not kernel
    assert calibrate_correction(equal, reference, holdout, 5) == calibrate_correction(
        kernel, reference, holdout, 5
    )
