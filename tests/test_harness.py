"""Config parsing, experiment harness, file outputs, CLI, and plots."""

import contextlib
import dataclasses
import io
import math
import os
import re
import tempfile
import xml.etree.ElementTree as ET

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kcusum import (
    CampaignResult,
    CampaignRow,
    ConfigError,
    DetectorConfig,
    FiniteChain,
    FiniteScenario,
    KernelCusumDetector,
    TraceRow,
    build_context,
    calibrate_correction,
    consistency_bound,
    load_config,
    parse_config_text,
    run_experiment,
    run_md_campaign,
    run_mtbfa_campaign,
    run_trace,
    save_trajectory,
    simulate_finite,
    simulate_finite_scenario,
    stream_rng,
)
from kcusum import harness
from kcusum.cli import main
from kcusum.config import _KIND_KEYS
from kcusum.harness import (
    HOLDOUT_STREAM,
    REFERENCE_STREAM,
    _crossing_times,
    write_campaign_csv,
    write_trace_csv,
)

MINIMAL = """
[scenario]
kind = ar-variance
[detector]
[campaign]
mode = trace
[output]
"""

FINITE_BASE = """
[scenario]
kind = finite
length = 60
change_at = 30
states = 0;1
pre_matrix = 0.9,0.1;0.2,0.8
post_matrix = 0.05,0.95;0.95,0.05

[detector]
window = 5
min_sample = 2
reference = 40
holdout = 20
bandwidths = 1
correction = 0.05
quantile = 1.0
sigma_reference = 2
sigma_buffer = 3

[campaign]
mode = trace
replications = 5
thresholds = 0.5,1
horizon_factor = 50
seed = 3

[output]
directory = out
"""


def finite_config(**edits):
    """FINITE_BASE with ``key = value`` lines replaced by exact key match.

    Every editable key must already appear in the template (a leftover
    edit is a test bug, not a config to append blindly)."""
    lines = []
    for line in FINITE_BASE.splitlines():
        key = line.split("=")[0].strip()
        if key in edits:
            value = edits.pop(key)
            lines.append("" if value is None else f"{key} = {value}")
        else:
            lines.append(line)
    assert not edits, f"keys missing from template: {sorted(edits)}"
    return "\n".join(lines)


# -- config parsing -----------------------------------------------------------


def test_minimal_config_defaults():
    cfg = parse_config_text(MINIMAL)
    s, d, c, o = cfg.scenario, cfg.detector, cfg.campaign, cfg.output
    assert (s.kind, s.length, s.change_at, s.ar.burn_in) == ("ar-variance", 2000, None, 500)
    assert np.array_equal(s.ar.pre_noise.cov, 0.1 * np.eye(4))
    post = parse_config_text(MINIMAL.replace("ar-variance", "ar-variance\nchange_at = 9"))
    assert np.array_equal(post.scenario.ar.post_noise.cov, 0.2 * np.eye(4))
    post = parse_config_text(MINIMAL.replace("ar-variance", "ar-mean\nchange_at = 9"))
    assert np.array_equal(post.scenario.ar.post_noise.mean, np.full(4, 0.05))
    assert np.array_equal(post.scenario.ar.post_noise.cov, 0.1 * np.eye(4))
    assert (d.window, d.min_sample, d.threshold, d.reference) == (50, 10, 5.0, 500)
    assert d.bandwidths == (0.1, 1.0, 10.0) and d.weights is None
    assert (d.correction, d.margin, d.quantile, d.holdout) == ("calibrate", 0.01, 1.0, 1000)
    assert (c.mode, c.replications, c.thresholds) == ("trace", 200, (5.0,))
    assert (c.horizon_factor, c.seed) == (50, 0)
    assert (o.directory, o.formats) == ("out", ("csv", "svg"))
    assert cfg.bounds.certificate is None and cfg.bounds.gamma is None
    scenario = cfg.scenario.ar_scenario()
    assert scenario.dim == 4 and scenario.change_at is None


@pytest.mark.parametrize(
    "text,needle",
    [
        (MINIMAL.replace("[detector]", "[detector]\nmargun = 1"), "detector.margun"),
        (MINIMAL + "\n[extra]\nx = 1", "extra: unknown section"),
        (MINIMAL.replace("[output]", ""), "output: required section"),
        (MINIMAL.replace("ar-variance", "arima"), "scenario.kind"),
        (MINIMAL.replace("mode = trace", "mode = fast"), "campaign.mode"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthresholds = 5,5"), "strictly increasing"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthresholds = 9,4"), "strictly increasing"),
        (MINIMAL.replace("mode = trace", "mode = md"), "change_at"),
        (MINIMAL.replace("[detector]", "[detector]\nwindow = 0"), "detector.window"),
        (MINIMAL.replace("[detector]", "[detector]\nquantile = 1.5"), "detector.quantile"),
        (MINIMAL.replace("[detector]", "[detector]\nmargin = -1"), "detector.margin"),
        (MINIMAL.replace("[detector]", "[detector]\nholdout = 10"), "detector.holdout"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1,-2"), "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nweights = 0.5"), "detector.weights"),
        (MINIMAL.replace("[detector]", "[detector]\ncorrection = soon"), "detector.correction"),
        (MINIMAL.replace("[detector]", "[detector]\ncorrection = analytic"), "sigma_reference"),
        (MINIMAL.replace("[scenario]", "[scenario]\npost_variance = 0"),
         "scenario.post_variance: variances must be positive"),
        (MINIMAL.replace("[detector]", "[detector]\ncorrection = analytic\n"
                         "sigma_reference = 1\nsigma_buffer = -1"),
         "detector.sigma_buffer: analytic sigmas must be >= 0"),
        (MINIMAL.replace("[scenario]", "[scenario]\nlength = 1"), "scenario.length"),
        (MINIMAL.replace("[scenario]", "[scenario]\nchange_at = 0"), "scenario.change_at"),
        (MINIMAL.replace("[scenario]", "[scenario]\nmatrix = 1,2;3"), "unequal lengths"),
        (MINIMAL.replace("[scenario]", "[scenario]\nmatrix = 1,2,3;4,5,6"), "must be square"),
        (MINIMAL.replace("[output]", "[output]\nformats = png"), "output.formats"),
        (MINIMAL.replace("[output]", "[output]\nformats = svg"), "csv output cannot be disabled"),
        (MINIMAL + "\n[bounds]\nlam = 0.3", "given together"),
        (MINIMAL + "\n[bounds]\nlam = 2\nlag = 1", "bounds.lam"),
        (MINIMAL + "\n[bounds]\nlam = 1.0\nlag = 1", "bounds.lam"),
        (MINIMAL + "\n[bounds]\nlam = 1e-20\nlag = 1", "bounds.lam"),
        (MINIMAL + "\n[bounds]\nlam = 0.3\nlag = 1\nnorm_f = 2", "bounds.norm_f: unknown key"),
        (finite_config(pre_matrix="1,0;0,1"), "scenario.pre_matrix"),
        (finite_config(post_matrix="0,1;1,0"), "scenario.post_matrix"),
        (finite_config(states="0;1e200"), "scenario.states: states has a coordinate beyond"),
        (MINIMAL.replace("[scenario]", "[scenario]\nmatrix = 2,0;0,2"), "scenario.matrix"),
        (MINIMAL.replace("[scenario]", "[scenario]\ndim = 6"), "scenario.dim: unknown key"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthreads = 1"), "campaign.threads: unknown key"),
        (MINIMAL.replace("mode = trace", "mode = trace\nseed = -1"), "campaign.seed"),
        (MINIMAL.replace("mode = trace", "mode = trace\nreplications = 0"), "campaign.replications"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\nmatrix = 2,0;0,2"), "scenario.matrix"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\npre_variance = 0.1"), "scenario.pre_variance"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\npost_variance = 0.2"), "scenario.post_variance"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\npost_mean = 1"), "scenario.post_mean"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\nburn_in = 10"), "scenario.burn_in"),
        (MINIMAL.replace("ar-variance", "csv\npath = data.csv\nmatrix = 2,0;0,2"), "scenario.matrix"),
        (MINIMAL.replace("ar-variance", "csv\npath = data.csv\nburn_in = 10"), "scenario.burn_in"),
        (MINIMAL.replace("[scenario]", "[scenario]\nstates = 0;1"), "scenario.states"),
        (MINIMAL.replace("[scenario]", "[scenario]\npre_matrix = 1"), "scenario.pre_matrix"),
        (MINIMAL.replace("[scenario]", "[scenario]\npost_matrix = 1"), "scenario.post_matrix"),
        (MINIMAL.replace("[scenario]", "[scenario]\npath = data.csv"), "scenario.path"),
        (MINIMAL.replace("ar-variance", "csv\npath = data.csv\nstates = 0;1"), "scenario.states"),
        (MINIMAL.replace("ar-variance", "csv\npath = data.csv\npre_matrix = 1"),
         "scenario.pre_matrix"),
        (MINIMAL.replace("ar-variance", "csv\npath = data.csv\npost_matrix = 1"),
         "scenario.post_matrix"),
        (FINITE_BASE.replace("[scenario]", "[scenario]\npath = data.csv"), "scenario.path"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = inf"), "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1,nan"), "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1e-200"), "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1e200"), "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1e200,1\nweights = 0.5,0.5"),
         "detector.bandwidths"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1,2\nweights = 0.5,0.6"),
         "detector.weights: weights must sum to 1"),
        (MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1,2\nweights = 1.5,-0.5"),
         "detector.weights: weights must be strictly positive"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthresholds = -1"), "campaign.thresholds"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthresholds = 0"), "campaign.thresholds"),
        (MINIMAL.replace("mode = trace", "mode = trace\nthresholds = 1,inf"), "campaign.thresholds"),
        (finite_config(correction="-1"), "detector.correction"),
        (finite_config(correction="nan"), "detector.correction"),
        (finite_config(correction="inf"), "detector.correction"),
        (MINIMAL.replace("[detector]", "[detector]\nthreshold = -3"), "detector.threshold"),
        (MINIMAL.replace("[detector]", "[detector]\nthreshold = 0"), "detector.threshold"),
        (MINIMAL + "\n[bounds]\nlam = 0.3\nlag = 0", "bounds.lag"),
        (MINIMAL + "\n[bounds]\nlam = 0.3\nlag = 1" + "0" * 400, "bounds.lag"),
        # the bounds lift the lag over the 50-pair default window
        (MINIMAL + f"\n[bounds]\nlam = 0.3\nlag = {2**53 - 50}", "bounds.lag"),
        (finite_config(mode="md", change_at="5"), "scenario.change_at"),
        (finite_config(mode="md", change_at="4"), "scenario.change_at"),
    ],
)
def test_config_errors_name_the_field(text, needle):
    with pytest.raises(ConfigError, match=needle.replace("(", "\\(")):
        parse_config_text(text)


def test_holdout_is_checked_only_when_calibrating():
    """A fixed or analytic correction reads no holdout, so the default
    holdout (1000 observations) may be shorter than the window."""
    for correction in ("0.05", "analytic\nsigma_reference = 1\nsigma_buffer = 1"):
        text = MINIMAL.replace("[detector]", f"[detector]\nwindow = 1200\ncorrection = {correction}")
        assert parse_config_text(text).detector.window == 1200
    with pytest.raises(ConfigError, match="detector.holdout"):
        parse_config_text(MINIMAL.replace("[detector]", "[detector]\nwindow = 1200"))


def test_horizon_is_checked_only_in_campaigns():
    """A trace reads no horizon, so a threshold whose campaign horizon
    would overflow stays valid there."""
    assert parse_config_text(finite_config(thresholds="1e308")).campaign.thresholds == (1e308,)


def test_mode_scenario_cross_checks():
    with pytest.raises(ConfigError, match="mtbfa campaigns need"):
        parse_config_text(finite_config(mode="mtbfa"))  # change_at is set
    ok = parse_config_text(finite_config(mode="md"))
    assert ok.campaign.mode == "md"
    with pytest.raises(ConfigError, match="md campaigns need"):
        parse_config_text(finite_config(mode="md", change_at="none"))


def test_csv_scenarios_trace_only(tmp_path):
    traj = tmp_path / "data.csv"
    save_trajectory(stream_rng(0, 0).standard_normal((100, 2)), traj)
    text = f"""
[scenario]
kind = csv
path = {traj}
[detector]
window = 4
reference = 30
holdout = 20
[campaign]
mode = mtbfa
[output]
"""
    with pytest.raises(ConfigError, match="trace mode only"):
        parse_config_text(text)


def test_finite_section_builders():
    cfg = parse_config_text(FINITE_BASE)
    pre, post = cfg.scenario.finite_chains()
    assert isinstance(pre, FiniteChain) and isinstance(post, FiniteChain)
    assert np.array_equal(pre.matrix, [[0.9, 0.1], [0.2, 0.8]])
    assert np.array_equal(post.matrix, [[0.05, 0.95], [0.95, 0.05]])
    assert np.array_equal(pre.states, [[0.0], [1.0]])
    no_post = parse_config_text(finite_config(post_matrix=None, change_at="none"))
    pre2, post2 = no_post.scenario.finite_chains()
    assert np.array_equal(pre2.matrix, post2.matrix)
    with pytest.raises(ConfigError, match="scenario.states"):
        parse_config_text(finite_config(states=None))
    with pytest.raises(ConfigError, match="scenario.pre_matrix"):
        parse_config_text(finite_config(pre_matrix=None))


def test_bounds_section_roundtrip():
    cfg = parse_config_text(MINIMAL + "\n[bounds]\nlam = 0.3\nlag = 2\ngamma = 0.5")
    params = cfg.bounds.certificate
    assert (params.lam, params.lag) == (0.3, 2)
    assert cfg.bounds.gamma == 0.5


def test_load_config_missing_file(tmp_path):
    with pytest.raises(ConfigError, match="config file"):
        load_config(str(tmp_path / "nope.ini"))
    path = tmp_path / "ok.ini"
    path.write_text(MINIMAL)
    assert load_config(str(path)).scenario.kind == "ar-variance"


# -- context construction -------------------------------------------------------


def test_context_fixed_correction():
    cfg = parse_config_text(FINITE_BASE)
    ctx = build_context(cfg, seed=3)
    assert ctx.correction == 0.05
    assert any("fixed at 0.05" in note for note in ctx.notes)
    assert ctx.reference.n_pairs == 39  # 40 observations -> 39 pairs


def test_context_analytic_correction():
    cfg = parse_config_text(finite_config(correction="analytic"))
    ctx = build_context(cfg, seed=3)
    want = consistency_bound(2.0, 3.0, ctx.reference.n_pairs, cfg.detector.window).value
    assert ctx.correction == want
    assert any("analytic consistency bound" in note for note in ctx.notes)


def test_context_calibrated_correction_is_reconstructible():
    cfg = parse_config_text(finite_config(correction="calibrate", quantile="0.9"))
    seed = cfg.campaign.seed
    ctx = build_context(cfg, seed)
    pre, _ = cfg.scenario.finite_chains()
    ref_obs = simulate_finite(pre, cfg.detector.reference, seed, REFERENCE_STREAM)
    holdout = simulate_finite(pre, cfg.detector.holdout, seed, HOLDOUT_STREAM)
    assert np.array_equal(
        ctx.reference.pairs, np.hstack([ref_obs[:-1], ref_obs[1:]])
    )
    cal = calibrate_correction(
        ctx.reference,
        holdout,
        cfg.detector.window,
        margin=cfg.detector.margin,
        quantile=cfg.detector.quantile,
    )
    assert ctx.correction == cal.correction
    assert any("calibrated at" in note for note in ctx.notes)


# -- trace runs -------------------------------------------------------------------


def test_run_trace_structure_and_determinism():
    cfg = parse_config_text(FINITE_BASE)
    a, b = run_trace(cfg), run_trace(cfg)
    assert a.trace == b.trace and a.mode == "trace"
    assert [row.t for row in a.trace] == list(range(1, 61))
    w = cfg.detector.window
    for row in a.trace[:w]:
        assert row.score is None and row.statistic is None and not row.alarm
    assert all(row.statistic is not None for row in a.trace[w:])
    flags = [row.alarm for row in a.trace]
    if any(flags):  # alarm column latches once set
        first = flags.index(True)
        assert all(flags[first:])
    assert a.change_at == 30


def test_run_trace_warm_up_notice():
    cfg = parse_config_text(finite_config(length="4", change_at="none", window="8", holdout="20"))
    result = run_trace(cfg)
    assert any("warm-up notice" in note for note in result.notes)
    assert all(row.score is None for row in result.trace)


def step_loop_trace(cfg, monitored):
    """Trace rows from one ``step`` per observation, the alarm flag read
    from the detector after each step."""
    ctx = build_context(cfg, cfg.campaign.seed)
    det = KernelCusumDetector(
        ctx.reference,
        DetectorConfig(
            window=cfg.detector.window,
            min_sample=cfg.detector.min_sample,
            threshold=cfg.campaign.thresholds[-1],
            correction=ctx.correction,
        ),
    )
    rows = []
    for t, obs in enumerate(monitored, start=1):
        out = det.step(obs)
        rows.append(
            TraceRow(
                t=t,
                state_norm=float(np.linalg.norm(obs)),
                score=None if out.index is None else out.score,
                statistic=None if out.index is None else out.statistic,
                alarm=det.alarmed_at is not None,
            )
        )
    return tuple(rows)


@pytest.mark.parametrize(
    "edits",
    [
        {},  # alarms after the change
        {"thresholds": "50"},  # never alarms
        {"length": "9", "change_at": "none", "window": "8"},  # one statistic
        {"length": "4", "change_at": "none", "window": "8"},  # shorter than a window
    ],
)
def test_run_trace_rows_match_step_loop(edits):
    cfg = parse_config_text(finite_config(**edits))
    seed = cfg.campaign.seed
    monitored = harness._trajectory(cfg, cfg.scenario.length, seed, harness.TRACE_STREAM)
    result = run_trace(cfg)
    assert result.trace == step_loop_trace(cfg, monitored)
    if not edits:
        assert any(row.alarm for row in result.trace) and not result.trace[0].alarm


def csv_trace_config(tmp_path):
    """A csv trace config on 120 rows: 30 reference, 20 holdout, 70 monitored."""
    traj = tmp_path / "data.csv"
    data = stream_rng(5, 0).standard_normal((120, 2))
    save_trajectory(data, traj)
    cfg = parse_config_text(
        f"[scenario]\nkind = csv\npath = {traj}\n[detector]\nwindow = 4\n"
        "reference = 30\nholdout = 20\nbandwidths = 1\n[campaign]\nmode = trace\n[output]\n"
    )
    return cfg, traj, data


def test_csv_trace_reads_its_file_once(tmp_path, monkeypatch):
    cfg, _, _ = csv_trace_config(tmp_path)
    calls = []
    original = harness.load_trajectory

    def counting(path):
        calls.append(path)
        return original(path)

    monkeypatch.setattr(harness, "load_trajectory", counting)
    result = run_experiment(cfg, out_dir=str(tmp_path / "out"))
    assert len(calls) == 1
    assert len(result.trace) == 70


def test_run_trace_csv_monitors_the_rows_read_by_build_context(tmp_path):
    """The context holds the monitored rows, so rewriting the file after
    ``build_context`` (here to fewer rows than one window needs) changes
    nothing."""
    cfg, traj, data = csv_trace_config(tmp_path)
    ctx = build_context(cfg, cfg.campaign.seed)
    before = run_trace(cfg, context=ctx)
    save_trajectory(data[:50], traj)
    after = run_trace(cfg, context=ctx)
    assert after == before
    assert len(after.trace) == 70 and after.trace[-1].statistic is not None


def test_run_trace_rejects_wrong_mode():
    cfg = parse_config_text(finite_config(mode="md"))
    with pytest.raises(ConfigError, match="expected trace"):
        run_trace(cfg)


# -- campaigns ---------------------------------------------------------------------


def test_crossing_times_single_pass():
    series = [-math.inf, 0.5, 1.5, 0.7, 2.5]
    assert _crossing_times(series, (1.0, 2.0)) == [3, 5]
    assert _crossing_times(series, (1.0, 9.0)) == [3, None]
    assert _crossing_times([], (1.0,)) == [None]


def test_mtbfa_truncation_counted_at_horizon():
    # correction 2 exceeds any possible discrepancy, so no alarm ever fires
    cfg = parse_config_text(
        finite_config(
            mode="mtbfa", change_at="none", correction="2.0",
            thresholds="1,2", horizon_factor="2", replications="6",
        )
    )
    result = run_mtbfa_campaign(cfg)
    assert result.mode == "mtbfa" and not result.aborted
    horizons = [math.ceil(2 * (b + 2)) for b in (1.0, 2.0)]
    for row, horizon in zip(result.rows, horizons):
        assert row.truncated == 6 and row.n_runs == 6
        assert row.empirical_mean == float(horizon)
        assert row.std_error == 0.0
        assert row.unreliable
        assert row.theory_bound is not None  # finite chain: certificate derived
    assert any("UNRELIABLE" in note for note in result.notes)


def test_mtbfa_rejects_wrong_mode():
    cfg = parse_config_text(FINITE_BASE)
    with pytest.raises(ConfigError, match="expected mtbfa"):
        run_mtbfa_campaign(cfg)


def _full_hits(cfg, context, i):
    """Crossing times of replication ``i``, from its whole untrimmed
    trajectory (``tau + H + window`` observations, ``tau = 0`` for mtbfa)
    scored by one ``extend`` call; and the statistics needed, the last
    crossing or ``tau - window + H``."""
    det, camp, tau = cfg.detector, cfg.campaign, cfg.scenario.change_at
    horizon = max(math.ceil(camp.horizon_factor * (b + det.min_sample)) for b in camp.thresholds)
    pre, post = cfg.scenario.finite_chains()
    stream = harness.REPLICATION_STREAM_BASE + i
    if tau is None:
        needed = horizon
        trajectory = simulate_finite(pre, horizon + det.window, camp.seed, stream)
    else:
        needed = tau - det.window + horizon
        length = tau + horizon + det.window
        scenario = FiniteScenario(pre=pre, post=post, change_at=tau, length=length)
        trajectory = simulate_finite_scenario(scenario, camp.seed, stream)
    detector = KernelCusumDetector(
        context.reference,
        DetectorConfig(
            window=det.window, min_sample=det.min_sample,
            threshold=camp.thresholds[-1], correction=context.correction,
        ),
    )
    statistics = [out.statistic for out in detector.extend(trajectory) if out.index is not None]
    hits = [
        next((n for n, value in enumerate(statistics, start=1) if value >= b), None)
        for b in camp.thresholds
    ]
    return hits, (hits[-1] if hits[-1] is not None and hits[-1] <= needed else needed)


@pytest.mark.parametrize(
    "edits,run",
    [
        # b=2 has both truncated and counted runs
        (dict(mode="mtbfa", change_at="none", correction="0.1"), run_mtbfa_campaign),
        # both rows have excluded (false-alarm) and counted runs
        (dict(mode="md", correction="0.3"), run_md_campaign),
    ],
)
def test_campaign_rows_match_full_trajectory_recomputation(monkeypatch, edits, run):
    cfg = parse_config_text(
        finite_config(thresholds="0.5,2", horizon_factor="3", replications="6", **edits)
    )
    ctx = build_context(cfg, cfg.campaign.seed)
    cusums = []  # one CusumStream per replication, in order
    original = harness.score_series

    def counting(scorer, cusum, observations, correction):
        if not cusums or cusums[-1] is not cusum:
            cusums.append(cusum)
        return original(scorer, cusum, observations, correction)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "score_series", counting)
        stepped = run(cfg, context=ctx)
    full = [_full_hits(cfg, ctx, i) for i in range(6)]
    with monkeypatch.context() as patch:
        patch.setattr(harness, "_replication_hits", lambda cfg, context, length, i: full[i][0])
        recomputed = run(cfg, context=ctx)
    assert stepped.rows == recomputed.rows and stepped.notes == recomputed.notes
    # each replication stops in the block of its last needed statistic
    window = cfg.detector.window
    scored = [cusum.n for cusum in cusums]
    assert len(scored) == 6
    for n, (_, needed) in zip(scored, full):
        assert needed <= n < needed + window
    if cfg.campaign.mode == "mtbfa":
        assert 0 < stepped.rows[1].truncated < 6
        horizon = math.ceil(3 * (2 + cfg.detector.min_sample))
        assert any(n < horizon for n in scored) and max(scored) <= horizon
    else:
        assert all(row.excluded and row.n_runs for row in stepped.rows)


def test_md_counts_exclusions_and_aborts_on_all_false_alarms():
    # correction 0: scores always positive, so every run alarms long
    # before the change enters the buffer
    cfg = parse_config_text(
        finite_config(mode="md", correction="0.0", thresholds="0.5",
                      replications="5", horizon_factor="2")
    )
    result = run_md_campaign(cfg)
    assert result.aborted and result.rows == ()
    assert any("every replication false-alarmed" in note for note in result.notes)


def test_md_notes_pinned():
    """The exact md notes: a row that is truncated and has a vacuous bound,
    and an aborting campaign."""
    vacuous = run_md_campaign(parse_config_text(
        finite_config(mode="md", correction="0.5", thresholds="0.5,1")
    ))
    context = ("reference: 39 pairs from 40 observations", "correction: fixed at 0.5")
    assert vacuous.notes == context + tuple(
        f"b={b}: 2 false alarms excluded, 3 truncated at post-change horizon {horizon}; "
        f"mean delay {horizon}.0 statistics after the change entered the buffer "
        "(same count on either clock); row UNRELIABLE (truncation > 50%); "
        "VACUOUS BOUND: drift gamma - 2c = -0.6280149263454995 <= 0, "
        "no guaranteed post-change drift"
        for b, horizon in (("0.5", 125), ("1.0", 150))
    )
    aborted = run_md_campaign(parse_config_text(
        finite_config(mode="md", correction="0.0", thresholds="0.5",
                      replications="5", horizon_factor="2")
    ))
    assert aborted.notes == (
        "reference: 39 pairs from 40 observations",
        "correction: fixed at 0.0",
        "b=0.5: every replication false-alarmed before the change; campaign aborted",
    )


def test_md_measures_delays_after_change():
    cfg = parse_config_text(
        finite_config(
            mode="md", correction="calibrate", window="12", reference="200",
            holdout="100", change_at="30", thresholds="1",
            horizon_factor="20", replications="8", length="60",
        )
    )
    result = run_md_campaign(cfg)
    assert not result.aborted and len(result.rows) == 1
    row = result.rows[0]
    assert row.excluded + row.n_runs == 8
    assert row.n_runs >= 1 and row.empirical_mean >= 1.0
    assert row.theory_bound is not None  # gamma derived exactly for finite chains
    again = run_md_campaign(cfg)
    assert again.rows == result.rows


def test_md_requires_change_beyond_window():
    with pytest.raises(ConfigError, match="change_at"):
        parse_config_text(finite_config(mode="md", change_at="4"))


def test_cli_md_change_within_window_fails_before_any_data(tmp_path, capsys, monkeypatch):
    calls = []
    original = harness.build_context
    monkeypatch.setattr(
        harness, "build_context", lambda *args: calls.append(args) or original(*args)
    )
    cfg = write_config(tmp_path, finite_config(change_at="5"))  # window = 5
    code = main(["md", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: scenario.change_at" in captured.err
    assert calls == []
    # a trace has no pre-change statistics to need
    assert main(["trace", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


# -- file outputs --------------------------------------------------------------------


def test_write_trace_csv_exact_bytes(tmp_path):
    result = CampaignResult(
        mode="trace",
        rows=(),
        trace=(
            TraceRow(t=1, state_norm=1.5, score=None, statistic=None, alarm=False),
            TraceRow(t=2, state_norm=0.25, score=-0.125, statistic=-math.inf, alarm=False),
            TraceRow(t=3, state_norm=2.0, score=0.5, statistic=0.75, alarm=True),
        ),
    )
    path = tmp_path / "trace.csv"
    write_trace_csv(str(path), result)
    assert path.read_bytes() == (
        b"t,state_norm,s_t,s_hat,alarm\n"
        b"1,1.5,,,0\n"
        b"2,0.25,-0.125,-inf,0\n"
        b"3,2.0,0.5,0.75,1\n"
    )


def test_write_campaign_csv_exact_bytes(tmp_path):
    result = CampaignResult(
        mode="mtbfa",
        rows=(
            CampaignRow(b=5.0, empirical_mean=12.5, std_error=0.5, n_runs=100,
                        theory_bound=None, truncated=0, excluded=0, unreliable=False),
            CampaignRow(b=10.0, empirical_mean=30.0, std_error=1.25, n_runs=100,
                        theory_bound=9.5, truncated=3, excluded=1, unreliable=False),
        ),
    )
    path = tmp_path / "campaign.csv"
    write_campaign_csv(str(path), result)
    assert path.read_bytes() == (
        b"b,empirical_mean,std_error,n_runs,theory_bound\n"
        b"5.0,12.5,0.5,100,\n"
        b"10.0,30.0,1.25,100,9.5\n"
    )


def assert_valid_svg(path):
    root = ET.fromstring(path.read_text(encoding="utf-8"))
    assert root.tag.endswith("svg")
    return root


def test_run_experiment_trace_outputs(tmp_path):
    cfg = parse_config_text(FINITE_BASE)
    out = tmp_path / "run1"
    result = run_experiment(cfg, out_dir=str(out))
    assert result.mode == "trace"
    for name in ("trace.csv", "state_norm.svg", "score.svg", "cusum.svg",
                 "bounds.txt", "notes.txt"):
        assert (out / name).exists(), name
    for name in ("state_norm.svg", "score.svg", "cusum.svg"):
        assert_valid_svg(out / name)
    again = tmp_path / "run2"
    run_experiment(cfg, out_dir=str(again))
    assert (out / "trace.csv").read_bytes() == (again / "trace.csv").read_bytes()
    bounds_text = (out / "bounds.txt").read_text()
    assert "closed-form guarantees" in bounds_text
    assert "pre block certificate" in bounds_text  # finite scenario derives one


def test_run_experiment_campaign_outputs(tmp_path):
    cfg = parse_config_text(
        finite_config(mode="mtbfa", change_at="none", correction="2.0",
                      thresholds="1,2", horizon_factor="2", replications="4")
    )
    out = tmp_path / "camp"
    result = run_experiment(cfg, out_dir=str(out))
    assert result.rows and (out / "campaign.csv").exists()
    assert_valid_svg(out / "campaign.svg")
    header = (out / "campaign.csv").read_text().splitlines()[0]
    assert header == "b,empirical_mean,std_error,n_runs,theory_bound"


# -- SVG rendering ----------------------------------------------------------------


def test_render_lines_splits_at_gaps(tmp_path):
    from kcusum.svgplot import render_lines

    xs = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
    ys = [1.0, 2.0, None, -math.inf, 3.0, 4.0]
    path = tmp_path / "plot.svg"
    render_lines(str(path), "demo", "x", "y", [("series", "#123456", xs, ys)], marker_x=3.5)
    root = assert_valid_svg(path)
    text = path.read_text()
    polylines = [el for el in root.iter() if el.tag.endswith("polyline")]
    # two finite runs -> two polylines; the marker is a dashed line
    assert len(polylines) == 2
    assert 'stroke-dasharray' in text


def test_trace_panels_validate_header(tmp_path):
    bad = tmp_path / "trace.csv"
    bad.write_text("t,norm,s,shat,alarm\n1,0.5,,,0\n")
    from kcusum.svgplot import trace_panels

    with pytest.raises(ValueError, match="header"):
        trace_panels(str(bad), str(tmp_path))


# -- CLI ----------------------------------------------------------------------------


def write_config(tmp_path, text, name="exp.ini"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_cli_trace_success(tmp_path, capsys):
    cfg = write_config(tmp_path, FINITE_BASE)
    out = tmp_path / "out"
    code = main(["trace", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "trace.csv").exists()
    assert "wrote" in captured.out


def test_cli_config_error_exit_1(tmp_path, capsys):
    cfg = write_config(tmp_path, MINIMAL.replace("[detector]", "[detector]\nmargun = 1"))
    code = main(["trace", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: detector.margun" in captured.err


def test_cli_unreliable_campaign_exit_2(tmp_path, capsys):
    text = finite_config(mode="mtbfa", change_at="none", correction="2.0",
                         thresholds="1", horizon_factor="2", replications="4")
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    code = main(["mtbfa", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 2
    assert "unreliable" in captured.err
    assert (out / "campaign.csv").exists()  # outputs written despite exit 2


def test_cli_md_abort_exit_2(tmp_path, capsys):
    text = finite_config(mode="md", correction="0.0", thresholds="0.5",
                         replications="4", horizon_factor="2")
    cfg = write_config(tmp_path, text)
    code = main(["md", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert "false-alarmed" in captured.err


def test_cli_mode_override_rechecks_constraints(tmp_path, capsys):
    # config says trace (valid), but the md subcommand needs change_at
    cfg = write_config(tmp_path, finite_config(change_at="none"))
    code = main(["md", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "md campaigns need" in captured.err


def test_cli_calibrate_prints_correction(tmp_path, capsys):
    cfg = write_config(tmp_path, finite_config(correction="calibrate"))
    code = main(["calibrate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 0
    assert "calibrated at" in captured.out


def test_cli_calibrate_requires_calibrate_policy(tmp_path, capsys):
    cfg = write_config(tmp_path, FINITE_BASE)  # fixed correction
    code = main(["calibrate", "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "calibrate subcommand" in captured.err


def test_cli_bounds_writes_report(tmp_path, capsys):
    cfg = write_config(tmp_path, FINITE_BASE)
    out = tmp_path / "out"
    code = main(["bounds", "--config", cfg, "--out", str(out)])
    captured = capsys.readouterr()
    assert code == 0
    assert (out / "bounds.txt").exists()
    assert "closed-form guarantees" in captured.out


def test_cli_bounds_config_error_exit_1(tmp_path, capsys):
    # DoeblinParams needs lam < 1; the parser reports it, not a traceback
    cfg = write_config(tmp_path, FINITE_BASE + "\n[bounds]\nlam = 1.0\nlag = 1\n")
    code = main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: bounds.lam" in captured.err


@pytest.mark.parametrize(
    "key,matrix",
    [
        ("pre_matrix", "0.5,0.5;0.5,0.5"),  # identical rows: couples in one step
        ("post_matrix", "0.5,0.5;0.5,0.5"),
        ("pre_matrix", "1,1e-18;1e-18,1"),  # 1 - lam rounds to 1
    ],
)
def test_cli_md_degenerate_chain_exit_1_before_replications(
    tmp_path, capsys, monkeypatch, key, matrix
):
    calls = []
    original = harness._replication_hits
    monkeypatch.setattr(
        harness, "_replication_hits", lambda *args: calls.append(args) or original(*args)
    )
    cfg = write_config(tmp_path, finite_config(mode="md", **{key: matrix}))
    code = main(["md", "--config", cfg, "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 1
    assert f"config error: scenario.{key}" in captured.err
    assert calls == []


def test_cli_degenerate_chain_exit_1_in_every_subcommand(tmp_path, capsys):
    text = finite_config(pre_matrix="0.5,0.5;0.5,0.5", change_at="none",
                         correction="calibrate", replications="2")
    cfg = write_config(tmp_path, text)
    for command in ("trace", "mtbfa", "bounds", "calibrate"):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1, command
        assert "config error: scenario.pre_matrix" in captured.err
    # a [bounds] certificate takes precedence over the chains' own
    cfg = write_config(tmp_path, text + "\n[bounds]\nlam = 0.5\nlag = 1\n")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 0


CSV_NAN = """
[scenario]
kind = csv
path = @CSV@
[detector]
window = 4
reference = 30
holdout = 20
bandwidths = 1
[campaign]
mode = trace
[output]
"""
CALIBRATED = finite_config(correction="calibrate")
EVERY = ("trace", "md", "bounds", "calibrate")


@pytest.mark.parametrize(
    "text,commands,key",
    [
        (finite_config(correction="-1"), EVERY, "detector.correction"),
        (finite_config(correction="nan"), EVERY, "detector.correction"),
        (finite_config(correction="inf"), EVERY, "detector.correction"),
        (CALIBRATED.replace("[detector]", "[detector]\nthreshold = -3"), EVERY,
         "detector.threshold"),
        (CALIBRATED + "\n[bounds]\nlam = 0.5\nlag = 1" + "0" * 400 + "\n", EVERY, "bounds.lag"),
        (finite_config(correction="calibrate", change_at="5"), ("md",), "scenario.change_at"),
        (finite_config(correction="calibrate", pre_matrix="0.5,0.5;0.5,0.5"), EVERY,
         "scenario.pre_matrix"),
        (finite_config(correction="calibrate", post_matrix="0.5,0.5;0.5,0.5"), EVERY,
         "scenario.post_matrix"),
        (finite_config(correction="calibrate", pre_matrix="1,1e-18;1e-18,1"), EVERY,
         "scenario.pre_matrix"),
        (CSV_NAN, ("trace", "bounds", "calibrate"), "scenario.path"),
        (finite_config(thresholds="1e308"), ("md",), "campaign.horizon_factor"),
        (finite_config(change_at="none", horizon_factor=str(10**400)), ("mtbfa",),
         "campaign.horizon_factor"),
        (finite_config(min_sample=str(10**400)), EVERY, "detector.min_sample"),
    ],
    ids=[
        "correction=-1", "correction=nan", "correction=inf", "threshold=-3", "huge-lag",
        "md-change-within-window", "identical-pre-rows", "identical-post-rows",
        "tiny-minorisation", "csv-nan-cell", "infinite-horizon", "huge-horizon-factor",
        "huge-min-sample",
    ],
)
def test_cli_bad_input_matrix_exit_1(tmp_path, capsys, text, commands, key):
    """Each bad input exits 1 from every subcommand it applies to, with a
    ``section.key`` message; an exception escaping ``main`` fails the test."""
    traj = tmp_path / "data.csv"
    save_trajectory(stream_rng(4, 0).standard_normal((120, 2)), traj)
    lines = traj.read_text().splitlines()
    lines[100] = lines[100].rsplit(",", 1)[0] + ",nan"  # a monitored row
    traj.write_text("\n".join(lines) + "\n")
    cfg = write_config(tmp_path, text.replace("@CSV@", str(traj)))
    for command in commands:
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1, command
        assert f"config error: {key}" in captured.err, (command, captured.err)


def test_cli_bounds_tiny_certificate_stays_finite(tmp_path, capsys):
    # lam = 1e-15 passes; over a 50-pair window (1 - lam)^(1/51) rounds
    # to 1, and the buffered decay sum must not divide by it
    text = finite_config(window="50", holdout="60")
    cfg = write_config(tmp_path, text + "\n[bounds]\nlam = 1e-15\nlag = 1\n")
    assert main(["bounds", "--config", cfg, "--out", str(tmp_path / "out")]) == 0
    assert "lam=1e-15 lag=51" in (tmp_path / "out" / "bounds.txt").read_text()


def test_cli_seed_and_replications_overrides(tmp_path):
    text = finite_config(mode="mtbfa", change_at="none", correction="2.0",
                         thresholds="1", horizon_factor="2", replications="4")
    cfg = write_config(tmp_path, text)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert main(["mtbfa", "--config", cfg, "--out", str(out_a), "--replications", "3"]) == 2
    rows = (out_a / "campaign.csv").read_text().splitlines()
    assert rows[1].split(",")[3] == "3"  # n_runs column
    with pytest.raises(SystemExit):  # argparse rejects non-integer seeds
        main(["mtbfa", "--config", cfg, "--seed", "x"])
    assert main(["mtbfa", "--config", cfg, "--out", str(out_b), "--seed", "-1"]) == 1


def test_cli_csv_scenario_trace(tmp_path):
    traj = tmp_path / "data.csv"
    save_trajectory(stream_rng(4, 0).standard_normal((120, 2)), traj)
    text = f"""
[scenario]
kind = csv
path = {traj}
[detector]
window = 4
reference = 30
holdout = 20
bandwidths = 1
[campaign]
mode = trace
[output]
"""
    cfg = write_config(tmp_path, text)
    out = tmp_path / "out"
    assert main(["trace", "--config", cfg, "--out", str(out)]) == 0
    lines = (out / "trace.csv").read_text().splitlines()
    assert len(lines) - 1 == 120 - 30 - 20  # monitored rows follow ref+holdout
    assert main(["md", "--config", cfg, "--out", str(out)]) == 1  # trace only


def test_parsed_kernel_matches_the_detector_keys():
    one = parse_config_text(MINIMAL.replace("[detector]", "[detector]\nbandwidths = 2"))
    assert np.array_equal(one.detector.kernel.bandwidths, [2.0])
    mixed = parse_config_text(
        MINIMAL.replace("[detector]", "[detector]\nbandwidths = 1,2\nweights = 0.25,0.75")
    )
    assert np.array_equal(mixed.detector.kernel.weights, [0.25, 0.75])
    assert np.array_equal(parse_config_text(MINIMAL).detector.kernel.weights, [1 / 3] * 3)
    # derived, not stored: it follows the two keys and cannot be set apart
    moved = dataclasses.replace(mixed.detector, bandwidths=(3.0, 4.0))
    assert np.array_equal(moved.kernel.bandwidths, [3.0, 4.0])
    with pytest.raises(TypeError):
        dataclasses.replace(mixed.detector, kernel=one.detector.kernel)


@pytest.mark.parametrize("command", ["trace", "bounds"])
@pytest.mark.parametrize("where", ["out", "config"])
def test_cli_output_directory_naming_a_file_exit_1(tmp_path, capsys, command, where):
    taken = tmp_path / "taken"
    taken.write_text("not a directory\n")
    if where == "out":
        cfg = write_config(tmp_path, FINITE_BASE)
        code = main([command, "--config", cfg, "--out", str(taken)])
    else:
        cfg = write_config(tmp_path, FINITE_BASE.replace("directory = out", f"directory = {taken}"))
        code = main([command, "--config", cfg])
    captured = capsys.readouterr()
    assert code == 1
    assert "config error: output.directory" in captured.err
    assert taken.read_text() == "not a directory\n"


@pytest.mark.parametrize(
    "problem,line",
    [
        ("missing", None),
        ("non-numeric", 7),
        ("non-numeric", 100),
        ("nan", 7),  # a reference row
        ("nan", 100),  # a monitored row
        ("inf", 100),
        ("-1e200", 100),  # finite, beyond the coordinate limit
    ],
)
def test_cli_csv_scenario_path_errors_exit_1(tmp_path, capsys, problem, line):
    traj = tmp_path / "data.csv"
    if problem != "missing":
        save_trajectory(stream_rng(4, 0).standard_normal((120, 2)), traj)
        lines = traj.read_text().splitlines()
        cell = "oops" if problem == "non-numeric" else problem
        lines[line] = lines[line].rsplit(",", 1)[0] + "," + cell
        traj.write_text("\n".join(lines) + "\n")
    text = f"""
[scenario]
kind = csv
path = {traj}
[detector]
window = 4
reference = 30
holdout = 20
bandwidths = 1
[campaign]
mode = trace
[output]
"""
    cfg = write_config(tmp_path, text)
    for command in ("trace", "calibrate"):
        code = main([command, "--config", cfg, "--out", str(tmp_path / "out")])
        captured = capsys.readouterr()
        assert code == 1
        assert "config error: scenario.path" in captured.err
        if line is not None:
            reason = {"non-numeric": "be numbers", "-1e200": "lie within +-1e+150"}
            assert f"{traj}:{line + 1}: cells must {reason.get(problem, 'be finite')}" in captured.err


CSV_DEFECTS = {
    "non-numeric": st.text(alphabet="abexyz_.+- ", min_size=1, max_size=6).filter(
        lambda cell: not _parses(cell)
    ),
    "empty": st.just(""),
    "nan": st.sampled_from(["nan", "NaN", "-nan", "+NAN"]),
    "inf": st.sampled_from(["inf", "-inf", "Infinity", "1e999"]),
    "short row": st.just(None),
    "long row": st.just(None),
    "blank line": st.just(None),
}


def _parses(cell):
    try:
        float(cell)
    except ValueError:
        return False
    return True


def _run_cli(argv):
    """(exit code, stderr) of one in-process CLI run."""
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        code = main(argv)
    return code, err.getvalue()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    defect=st.sampled_from(sorted(CSV_DEFECTS)),
    line=st.integers(2, 121),  # line 1 is the header, then 120 rows
    column=st.integers(1, 2),  # the t column is not read
    data=st.data(),
)
def test_cli_generated_bad_csv_files_exit_1(defect, line, column, data):
    """A csv scenario file with one bad line exits 1 with a
    ``scenario.path`` error naming ``path:line`` in every subcommand
    that reads it; the campaign subcommands reject a csv scenario before
    reading it."""
    cell = data.draw(CSV_DEFECTS[defect])
    with tempfile.TemporaryDirectory() as tmp:
        traj = os.path.join(tmp, "data.csv")
        save_trajectory(stream_rng(4, 0).standard_normal((120, 2)), traj)
        with open(traj) as fh:
            lines = fh.read().splitlines()
        row = lines[line - 1].split(",")
        if defect == "blank line":
            lines.insert(line - 1, "")
        else:
            if defect == "short row":
                row.pop(column)
            elif defect == "long row":
                row.insert(column, row[column])
            else:
                row[column] = cell
            lines[line - 1] = ",".join(row)
        with open(traj, "w") as fh:
            fh.write("\n".join(lines) + "\n")
        cfg = os.path.join(tmp, "exp.ini")
        with open(cfg, "w") as fh:
            fh.write(
                f"[scenario]\nkind = csv\npath = {traj}\n[detector]\nwindow = 4\n"
                "reference = 30\nholdout = 20\nbandwidths = 1\ncorrection = calibrate\n"
                "[campaign]\nmode = trace\n[output]\n"
            )
        out = os.path.join(tmp, "out")
        for command in ("trace", "bounds", "calibrate"):
            code, err = _run_cli([command, "--config", cfg, "--out", out])
            assert code == 1, (command, err)
            assert "config error: scenario.path" in err and f"{traj}:{line}:" in err, err
        for command in ("mtbfa", "md"):
            code, err = _run_cli([command, "--config", cfg, "--out", out])
            assert code == 1 and "config error: campaign.mode" in err, err


# -- generated configs --------------------------------------------------------


def _ints(lo, hi):
    return st.integers(lo, hi).map(str)


def _reals(lo, hi):
    return st.floats(lo, hi).map(repr)


WRONG_TYPE = st.sampled_from(["abc", "1.5.2", "[1]", "0x10", "yes", "1,,2", "2.5", "1;2"])
NON_FINITE = st.sampled_from(["nan", "-nan", "inf", "-inf", "1e999"])
HUGE = st.sampled_from(
    ["1e308", "-1e308", "1.7976931348623157e308", "1e300", str(2**64), str(10**30)]
)
# a key that sets how much work a run does is never huge and valid
HUGE_INVALID = st.sampled_from([str(-(2**70)), "-1e308"])
MATRIX_2 = "0.9,0.1;0.2,0.8"

# (section, key): (typical values, boundary values, whether it sets the work's size)
CONFIG_GRAMMAR = {
    ("scenario", "kind"): (st.sampled_from(["ar-variance", "ar-mean", "finite"]),
                           st.sampled_from(["csv", "AR-variance", "finite "]), False),
    ("scenario", "length"): (_ints(2, 60), _ints(0, 2), True),
    ("scenario", "change_at"): (_ints(6, 30) | st.just("none"), _ints(-1, 6), True),
    ("scenario", "burn_in"): (_ints(0, 20), _ints(-1, 0), True),
    ("scenario", "pre_variance"): (_reals(0.01, 2.0),
                                   st.sampled_from(["0", "-0.0", "5e-324", "1e-300"]), False),
    ("scenario", "post_variance"): (_reals(0.01, 2.0),
                                    st.sampled_from(["0", "5e-324", "1e-300"]), False),
    ("scenario", "post_mean"): (_reals(-1.0, 1.0), st.sampled_from(["0", "-0.0", "5e-324"]), False),
    ("scenario", "matrix"): (st.sampled_from(["0.5,0.1;0,0.5", "0.9", "0,0;0,0"]),
                             st.sampled_from(["1,0;0,1", "0.99999999,0;0,0", "0.5,1e300;0,0.5",
                                              "0.5,1e200,0;0,0.5,1e200;0,0,0.5", "0.5",
                                              "0.5,0;0,0.5;0,0"]), False),
    ("scenario", "states"): (st.sampled_from(["0;1", "0,0;1,1", "-3;2"]),
                             st.sampled_from(["0;0", "0;1;2", "0;1e308", "-1e308;1e308"]), False),
    ("scenario", "pre_matrix"): (st.sampled_from([MATRIX_2, "0.5,0.5;0.3,0.7"]),
                                 st.sampled_from(["0.5,0.5;0.5,0.5", "1,0;0,1", "0,1;1,0",
                                                  "1,1e-18;1e-18,1", "1,0;0.5,0.5"]), False),
    ("scenario", "post_matrix"): (st.sampled_from([MATRIX_2, "0.05,0.95;0.95,0.05"]),
                                  st.sampled_from(["0.5,0.5;0.5,0.5", "1,0;0,1", "0,1;1,0",
                                                   "1,1e-18;1e-18,1"]), False),
    ("detector", "window"): (_ints(1, 5), _ints(0, 1), True),
    ("detector", "min_sample"): (_ints(1, 4), _ints(0, 1), True),
    ("detector", "threshold"): (_reals(0.5, 10.0), st.sampled_from(["0", "5e-324", "-0.0"]), False),
    ("detector", "reference"): (_ints(2, 40), _ints(1, 2), True),
    ("detector", "holdout"): (_ints(5, 40), _ints(0, 6), True),
    ("detector", "bandwidths"): (st.sampled_from(["1", "0.1,1,10", "0.5,2"]),
                                 st.sampled_from(["0", "5e-324", "1e-200", "1e200", "1e150",
                                                  "1e-150", "1,1"]), False),
    ("detector", "weights"): (st.sampled_from(["1", "0.25,0.75", "0.2,0.3,0.5"]),
                              st.sampled_from(["0", "1,0", "5e-324,1", "0.5"]), False),
    ("detector", "correction"): (st.sampled_from(["calibrate", "analytic", "0.05", "0.5"]),
                                 st.sampled_from(["0", "-0.0", "5e-324", "-5e-324"]), False),
    ("detector", "margin"): (_reals(0.0, 0.1), st.sampled_from(["0", "-5e-324", "-0.0"]), False),
    ("detector", "quantile"): (_reals(0.25, 1.0),
                               st.sampled_from(["1", "5e-324", "0", "1.0000000000000002"]), False),
    ("detector", "sigma_reference"): (_reals(0.0, 3.0), st.sampled_from(["0", "-5e-324"]), False),
    ("detector", "sigma_buffer"): (_reals(0.0, 3.0), st.sampled_from(["0", "-5e-324"]), False),
    ("campaign", "mode"): (st.sampled_from(["trace", "mtbfa", "md"]),
                           st.sampled_from(["", "MD", "bounds"]), False),
    ("campaign", "replications"): (_ints(1, 2), _ints(-1, 1), True),
    ("campaign", "thresholds"): (st.sampled_from(["0.5,1", "1", "0.5,2,4"]),
                                 st.sampled_from(["1,1", "0", "5e-324", "2,1", "-1,1"]), True),
    ("campaign", "horizon_factor"): (_ints(1, 3), _ints(-1, 1), True),
    ("campaign", "seed"): (_ints(0, 1000),
                           st.sampled_from(["0", str(2**64 - 1), str(2**64), "-1"]), False),
    ("output", "formats"): (st.sampled_from(["csv", "csv,svg", "svg,csv"]),
                            st.sampled_from(["svg", "csv,pdf", ",", "csv,"]), False),
    ("bounds", "lam"): (_reals(0.05, 0.9), st.sampled_from(["1", "0", "1e-300", "1e-17"]), False),
    ("bounds", "lag"): (_ints(1, 10), st.sampled_from(["0", str(2**53), str(2**53 - 1)]), False),
    ("bounds", "gamma"): (_reals(0.0, 1.0), st.sampled_from(["0", "-5e-324"]), False),
}

SCENARIO_TEMPLATES = {
    "finite": {"kind": "finite", "length": "40", "change_at": "12", "states": "0;1",
               "pre_matrix": MATRIX_2, "post_matrix": "0.05,0.95;0.95,0.05"},
    "ar-variance": {"kind": "ar-variance", "length": "40", "change_at": "12", "burn_in": "5",
                    "pre_variance": "0.1", "post_variance": "0.2", "matrix": "0.5,0.1;0,0.5"},
    "ar-mean": {"kind": "ar-mean", "length": "40", "change_at": "12", "burn_in": "5",
                "pre_variance": "0.1", "post_mean": "0.5"},
}
CONFIG_TEMPLATE = {
    "detector": {"window": "4", "min_sample": "2", "reference": "30", "holdout": "12",
                 "bandwidths": "1", "correction": "calibrate", "sigma_reference": "2",
                 "sigma_buffer": "3"},
    "campaign": {"mode": "trace", "replications": "2", "thresholds": "0.5,1",
                 "horizon_factor": "2", "seed": "3"},
    "output": {"directory": "out"},
}
KNOWN_KEYS = {(section, key) for section, key in CONFIG_GRAMMAR} | {("output", "directory"),
                                                                    ("scenario", "path")}


@st.composite
def config_edit(draw, kind):
    """One edit of a config: ``(section, key, value)``, value None to
    delete the key."""
    keys = sorted(
        (section, key) for section, key in CONFIG_GRAMMAR
        if section != "scenario" or key in _KIND_KEYS[kind]
    )
    section, key = draw(st.sampled_from(keys))
    typical, boundary, sizes_work = CONFIG_GRAMMAR[section, key]
    # valid values twice as often as each invalid kind, so that runs
    # also get past the parser
    category = draw(st.sampled_from(
        ["typical", "typical", "boundary", "boundary", "huge", "huge", "wrong type",
         "non-finite", "empty", "delete", "unknown"]
    ))
    if category == "unknown":
        return section, draw(st.sampled_from(["threads", "dim", "norm_f", "windows"])), "1"
    value = {
        "typical": typical, "boundary": boundary, "wrong type": WRONG_TYPE,
        "non-finite": NON_FINITE, "huge": HUGE_INVALID if sizes_work else HUGE,
        "empty": st.just(""), "delete": st.none(),
    }[category]
    return section, key, draw(value)


COMMANDS = ("trace", "mtbfa", "md", "bounds", "calibrate")


@st.composite
def edited_config(draw):
    """``(kind, command, edits)``: a template, a subcommand and one to
    three :func:`config_edit` edits."""
    kind = draw(st.sampled_from(sorted(SCENARIO_TEMPLATES)))
    command = draw(st.sampled_from(COMMANDS))
    return kind, command, draw(st.lists(config_edit(kind), min_size=1, max_size=3))


def _run_edited(kind, command, edits):
    """(exit code, stderr) of ``command`` on the template of ``kind``
    with ``edits`` applied; an mtbfa run gets ``change_at = none``."""
    sections = {"scenario": dict(SCENARIO_TEMPLATES[kind])}
    sections.update({name: dict(values) for name, values in CONFIG_TEMPLATE.items()})
    if command == "mtbfa":
        sections["scenario"]["change_at"] = "none"
    for section, key, value in edits:
        values = sections.setdefault(section, {})
        if value is None:
            values.pop(key, None)
        else:
            values[key] = value
    text = "".join(
        f"[{name}]\n" + "".join(f"{key} = {value}\n" for key, value in values.items())
        for name, values in sections.items()
    )
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "exp.ini")
        with open(cfg, "w") as fh:
            fh.write(text)
        return _run_cli([command, "--config", cfg, "--out", os.path.join(tmp, "out")])


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=edited_config())
@example(case=("ar-variance", "md", [("scenario", "post_variance", "1e308")]))
@example(case=("ar-mean", "trace", [("scenario", "post_mean", "1e308")]))
@example(case=("ar-variance", "trace", [("scenario", "pre_variance", "1e308")]))
def test_cli_generated_configs_exit_0_1_or_2(case):
    """A valid small config with one to three keys edited: a typical or
    boundary value, a wrong type, nan or inf, a huge value, an empty
    value, a deleted key or an unknown one.  Every subcommand exits 0, 1
    or 2 without a traceback, and exit 1 names a ``section.key``.  Keys
    that set the work's size get only small valid values or invalid
    ones, so every run stays small.  The examples once gave a traceback
    from a nan score or a non-finite reference."""
    kind, command, edits = case
    code, err = _run_edited(kind, command, edits)
    assert code in (0, 1, 2), (code, err)
    assert "Traceback" not in err, err
    if code == 1:
        named = KNOWN_KEYS | {(section, key) for section, key, _ in edits}
        found = re.search(r"config error: (\w+)\.(\w+):", err)
        assert found and found.groups() in named, err


@pytest.mark.parametrize(
    "kind,key,value,commands",
    [
        ("ar-variance", "pre_variance", "1e308", COMMANDS),
        ("ar-mean", "pre_variance", "1e308", COMMANDS),
        ("ar-variance", "post_variance", "1e308", ("trace", "md")),
        ("ar-mean", "post_mean", "1e308", ("trace", "md")),
        ("ar-variance", "matrix", "0.5,1e200,0;0,0.5,1e200;0,0,0.5", COMMANDS),
        # finite noise of about 3e152, beyond the coordinate limit
        ("ar-variance", "pre_variance", "1e305", COMMANDS),
    ],
)
def test_cli_overflowing_trajectory_exit_1(kind, key, value, commands):
    """Noise or matrix entries so large that the AR recursion overflows,
    or leaves the coordinate limit, exit 1 in every subcommand that
    simulates the law concerned, naming the noise key of the law in
    effect where the trajectory first overflows.  Only traces and md
    campaigns simulate past the change."""
    named = "pre_variance" if commands == COMMANDS else key
    for command in commands:
        code, err = _run_edited(kind, command, [("scenario", key, value)])
        assert code == 1, (command, err)
        assert f"config error: scenario.{named}: the simulated trajectory overflows" in err, err
