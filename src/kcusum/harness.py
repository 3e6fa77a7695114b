"""Experiment harness: single traces, Monte Carlo campaigns, file outputs.

Reproducibility contract
------------------------
Every random quantity is drawn from a counter-based stream addressed by
``(seed, stream)``:

===================  =====================================
stream 0             reference trajectory
stream 1             calibration holdout trajectory
stream 2             the single monitored trace
stream 16 + i        monitored trajectory of replication i
===================  =====================================

Campaign replications run one after another in index order.  Rerunning
with the same config and seed reproduces every CSV byte for byte.

Clock conventions
-----------------
The detector emits its first statistic only after ``window + 1`` raw
observations, so there are two clocks: the raw-observation clock t and
the statistic clock n, related by ``t = n + window``.

Both campaigns are one runner over the same replications and crossing
times.  They differ only in ``tau_stat``, the statistic from which a
row counts: 0 for MTBFA, ``change_at - window`` for MD, the last
statistic whose buffer holds no post-change pair.  An alarm at or
before ``tau_stat`` is a false alarm and is excluded, which never
happens for MTBFA.

* MTBFA rows: ``empirical_mean`` is the mean alarm time on the
  statistic clock, directly comparable to the Theorem-style lower bound
  ``min_sample - 1 + (b - alpha1)``; the raw-clock mean (offset by
  ``window``) goes to the notes.
* MD rows: ``empirical_mean`` is the mean number of statistics emitted
  after the change entered the sliding buffer (``n_alarm - (tau -
  window)``), directly comparable to the upper bound
  ``max(min_sample, (b + alpha)/drift)``.  The raw clock counts the
  same delay from observation ``change_at``, so the notes give one mean.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import DoeblinParams, bound_report, buffer_doeblin
from .config import ConfigError, ExperimentConfig, _build
from .detector import (
    CusumStream, ReferenceSet, _BlockScorer, build_reference, calibrate_correction, score_series,
)
from .kernels import COORDINATE_LIMIT
from .mmd import consistency_bound
from .simulate import (
    FiniteScenario,
    ar_blocks,
    doeblin_of_finite,
    exact_mmd_finite,
    finite_blocks,
    load_trajectory,
    simulate_ar,
    simulate_finite_scenario,
)

__all__ = [
    "REFERENCE_STREAM",
    "HOLDOUT_STREAM",
    "TRACE_STREAM",
    "REPLICATION_STREAM_BASE",
    "TraceRow",
    "CampaignRow",
    "CampaignResult",
    "HarnessContext",
    "build_context",
    "run_trace",
    "run_mtbfa_campaign",
    "run_md_campaign",
    "write_trace_csv",
    "write_campaign_csv",
    "write_bounds_txt",
    "write_notes",
    "make_output_directory",
    "run_experiment",
]

REFERENCE_STREAM = 0
HOLDOUT_STREAM = 1
TRACE_STREAM = 2
REPLICATION_STREAM_BASE = 16


@dataclass(frozen=True)
class TraceRow:
    """One monitored raw step: clock, state norm, score, CUSUM, alarm flag."""

    t: int
    state_norm: float
    score: float | None
    statistic: float | None
    alarm: bool


@dataclass(frozen=True)
class CampaignRow:
    """Aggregate for one threshold b (see module docstring for clocks)."""

    b: float
    empirical_mean: float
    std_error: float
    n_runs: int
    theory_bound: float | None
    truncated: int
    excluded: int
    unreliable: bool


@dataclass(frozen=True)
class CampaignResult:
    """Everything a campaign produced, before any file is written."""

    mode: str
    rows: tuple
    trace: tuple = ()
    notes: tuple = ()
    aborted: bool = False
    change_at: int | None = None


@dataclass(frozen=True)
class HarnessContext:
    """Frozen per-experiment objects shared by every replication.

    The kernel is ``reference.kernel``.  ``monitored`` holds the rows of
    a ``csv`` scenario after its reference and holdout parts; it is None
    for synthesised scenarios, whose monitored data is simulated per run.
    ``pre_block``, ``post_block`` and ``gamma`` are the inputs of the
    closed-form bounds (see :func:`_theory_inputs`), None when unknown.
    """

    reference: ReferenceSet
    correction: float
    notes: tuple
    monitored: np.ndarray | None = None
    pre_block: DoeblinParams | None = None
    post_block: DoeblinParams | None = None
    gamma: float | None = None


def make_output_directory(directory: str) -> str:
    """Create ``directory`` if needed; a path that cannot be a directory
    (an existing file, say) is an ``output.directory`` error."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {directory!r}: {exc}") from exc
    return directory


def _scenario(cfg: ExperimentConfig, length: int, pre_change: bool = False):
    """The :class:`ArScenario` or :class:`FiniteScenario` of ``length``
    observations that ``cfg`` describes, honouring ``scenario.change_at``;
    with ``pre_change`` the change is dropped, which gives the pre-change
    law that reference and holdout data come from."""
    scn = cfg.scenario
    if scn.kind == "finite":
        pre, post = scn.finite_chains()
        if pre_change or scn.change_at is None:
            return FiniteScenario(pre=pre, post=pre, change_at=length, length=length)
        return FiniteScenario(pre=pre, post=post, change_at=scn.change_at, length=length)
    quiet = {"post_noise": None, "change_at": None} if pre_change else {}
    return replace(scn.ar_scenario(), length=length, **quiet)


def _trajectory(
    cfg: ExperimentConfig, length: int, seed: int, stream: int, pre_change: bool = False
) -> np.ndarray:
    """One whole synthesised trajectory of :func:`_scenario`."""
    scenario = _scenario(cfg, length, pre_change)
    simulate = simulate_finite_scenario if isinstance(scenario, FiniteScenario) else simulate_ar
    return _finite(cfg, simulate(scenario, seed, stream), 1, pre_change)


def _finite(
    cfg: ExperimentConfig, rows: np.ndarray, first: int, pre_change: bool = False
) -> np.ndarray:
    """``rows``, observations ``first``, ``first + 1``, ... of a simulated
    trajectory, checked to lie within :data:`COORDINATE_LIMIT`.  Huge
    noise or matrix entries can overflow the AR recursion; the error
    names the noise key of the law in effect at the first row outside."""
    inside = np.abs(rows) <= COORDINATE_LIMIT
    if inside.all():
        return rows
    g = first + int(np.argmin(inside.all(axis=1)))
    scn = cfg.scenario
    key = "pre_variance"
    if not pre_change and scn.change_at is not None and g > scn.change_at:
        key = "post_mean" if scn.kind == "ar-mean" else "post_variance"
    raise ConfigError(
        f"scenario.{key}: the simulated trajectory overflows +-{COORDINATE_LIMIT:g} at "
        f"observation {g}; smaller noise or scenario.matrix entries keep it inside"
    )


def build_context(cfg: ExperimentConfig, seed: int) -> HarnessContext:
    """Construct the reference set and correction for one experiment.

    A ``csv`` scenario's file is read here, once, and split into its
    reference, holdout (only when calibrating) and monitored parts;
    a file that is missing, does not parse or leaves less than one
    window to monitor is a ``scenario.path`` error.  The bounds' inputs
    are derived first, so a chain without a usable certificate fails
    before any data is drawn.
    """
    det = cfg.detector
    kernel = det.kernel
    pre_block, post_block, gamma = _theory_inputs(cfg, kernel)
    notes = []

    monitored = holdout_obs = None
    if cfg.scenario.kind == "csv":
        try:
            data = load_trajectory(cfg.scenario.path)
        except (OSError, ValueError) as exc:
            raise ConfigError(f"scenario.path: {exc}") from exc
        need = det.reference + (det.holdout if det.correction == "calibrate" else 0)
        if data.shape[0] < need + det.window + 1:
            raise ConfigError(
                f"scenario.path: csv has {data.shape[0]} rows; needs more than "
                f"{need + det.window} for reference/holdout plus one window"
            )
        ref_obs = data[: det.reference]
        holdout_obs = data[det.reference : need]
        monitored = data[need:]
    else:
        ref_obs = _trajectory(cfg, det.reference, seed, REFERENCE_STREAM, pre_change=True)
        if det.correction == "calibrate":
            holdout_obs = _trajectory(cfg, det.holdout, seed, HOLDOUT_STREAM, pre_change=True)

    reference = build_reference(kernel, ref_obs)
    notes.append(f"reference: {reference.n_pairs} pairs from {det.reference} observations")

    fixed = det.fixed_correction()
    if fixed is not None:
        correction = fixed
        notes.append(f"correction: fixed at {correction!r}")
    elif det.correction == "analytic":
        bound = consistency_bound(
            det.sigma_reference, det.sigma_buffer, reference.n_pairs, det.window
        )
        correction = bound.value
        notes.append(
            f"correction: analytic consistency bound {correction!r} "
            f"(sigma_reference={det.sigma_reference!r}, sigma_buffer={det.sigma_buffer!r})"
        )
    else:
        cal = calibrate_correction(
            reference, holdout_obs, det.window, margin=det.margin, quantile=det.quantile
        )
        correction = cal.correction
        notes.append(
            f"correction: calibrated at {correction!r} "
            f"(holdout level {cal.holdout_level!r} at quantile {cal.quantile!r} "
            f"over {cal.n_scores} positions, margin {cal.margin!r})"
        )
    return HarnessContext(
        reference=reference, correction=correction, notes=tuple(notes), monitored=monitored,
        pre_block=pre_block, post_block=post_block, gamma=gamma,
    )


def _theory_inputs(cfg: ExperimentConfig, kernel):
    """(pre_block, post_block, gamma) for theory columns, or Nones.

    Observation-level Doeblin parameters come from the ``[bounds]``
    section when given, else are derived exactly for finite chains (a
    chain without a usable certificate is a ``scenario.pre_matrix`` or
    ``scenario.post_matrix`` error).  The score sequence is a function
    of the sliding block of ``window`` pairs, so certificates are lifted
    with :func:`buffer_doeblin` over ``window + 1`` raw states.
    """
    scn = cfg.scenario
    given = cfg.bounds.certificate
    pre_raw = post_raw = None
    gamma = cfg.bounds.gamma
    if given is not None:
        pre_raw = post_raw = given
    elif scn.kind == "finite":
        pre, post = scn.finite_chains()
        pre_raw = _build("scenario", "pre_matrix", lambda: doeblin_of_finite(pre))
        post_raw = _build("scenario", "post_matrix", lambda: doeblin_of_finite(post))
    if scn.kind == "finite" and gamma is None:
        pre, post = scn.finite_chains()
        gamma = exact_mmd_finite(kernel, pre, post)
    if pre_raw is None:
        return None, None, gamma
    window = cfg.detector.window
    return (
        buffer_doeblin(pre_raw, window),
        buffer_doeblin(post_raw, window),
        gamma,
    )


def run_trace(cfg: ExperimentConfig, context: HarnessContext | None = None) -> CampaignResult:
    """Monitor one trajectory and log every raw step.

    The trajectory is scored by :func:`score_series` on a fresh block
    scorer and CUSUM, as a campaign replication is, and the alarm
    is the first statistic reaching the largest of
    ``campaign.thresholds``; from there on every row's alarm flag is
    set.  A ``csv`` scenario monitors ``context.monitored``; the
    others simulate ``scenario.length`` observations on the trace stream.
    Raw steps before the first statistic get empty score/statistic
    columns; when the whole run is shorter than one window the result
    carries an explicit warm-up notice.
    """
    if cfg.campaign.mode != "trace":
        raise ConfigError(f"campaign.mode: expected trace, got {cfg.campaign.mode!r}")
    if context is None:
        context = build_context(cfg, cfg.campaign.seed)
    threshold = cfg.campaign.thresholds[-1]
    window = cfg.detector.window

    scn = cfg.scenario
    monitored = context.monitored
    if monitored is None:
        monitored = _trajectory(cfg, scn.length, cfg.campaign.seed, TRACE_STREAM)

    scorer = _BlockScorer(context.reference, window)
    cusum = CusumStream(cfg.detector.min_sample)
    _, scores, statistics = score_series(scorer, cusum, monitored, context.correction)
    (alarm_at,) = _crossing_times(statistics, (threshold,))
    blank = [None] * (len(monitored) - len(scores))
    rows = [
        TraceRow(
            t=t,
            state_norm=float(np.linalg.norm(obs)),
            score=score,
            statistic=statistic,
            alarm=alarm_at is not None and t - window >= alarm_at,
        )
        for t, (obs, score, statistic) in enumerate(
            zip(monitored, blank + scores, blank + statistics), start=1
        )
    ]
    notes = list(context.notes)
    notes.append(f"threshold: {threshold!r}")
    if scn.change_at is not None:
        notes.append(f"change_at: raw step {scn.change_at}")
    if not statistics:
        notes.append(
            f"warm-up notice: run of {len(monitored)} observations is shorter than "
            f"window + 1 = {window + 1}; no statistics were produced"
        )
    if alarm_at is not None:
        notes.append(f"alarm: statistic index {alarm_at} (raw step {alarm_at + window})")
    else:
        notes.append("alarm: never fired")
    return CampaignResult(
        mode="trace",
        rows=(),
        trace=tuple(rows),
        notes=tuple(notes),
        change_at=scn.change_at,
    )


def _crossing_times(series, thresholds) -> list:
    """First statistic index reaching each threshold (None if never).

    One pass: thresholds are strictly increasing, so once b_k is crossed
    only later thresholds remain to be found, and the found indices are
    a prefix of the result.
    """
    hits = [None] * len(thresholds)
    nxt = 0
    for n, value in enumerate(series, start=1):
        while nxt < len(thresholds) and value >= thresholds[nxt]:
            hits[nxt] = n
            nxt += 1
        if nxt == len(thresholds):
            break
    return hits


def _replication_hits(cfg: ExperimentConfig, context: HarnessContext, length: int, i: int) -> list:
    """Crossing times of replication ``i`` on a ``length``-step trajectory.

    The trajectory is simulated and scored one block of ``window``
    observations at a time, and the search for crossings carries over
    from block to block.  Once every threshold has been crossed no later
    statistic can change a crossing, so the replication stops after that
    block: it draws and scores at most ``window - 1`` statistics past its
    last crossing.  The scorer is batch-invariant, so the crossings are
    those of the whole trajectory scored at once.
    """
    thresholds = cfg.campaign.thresholds
    det = cfg.detector
    scorer, cusum = _BlockScorer(context.reference, det.window), CusumStream(det.min_sample)
    scenario = _scenario(cfg, length)
    blocks = finite_blocks if isinstance(scenario, FiniteScenario) else ar_blocks
    stream = REPLICATION_STREAM_BASE + i
    hits, first = [], 1
    for block in blocks(scenario, cfg.campaign.seed, stream, det.window):
        _finite(cfg, block, first)
        first += block.shape[0]
        _, _, statistics = score_series(scorer, cusum, block, context.correction)
        before = cusum.n - len(statistics)
        found = _crossing_times(statistics, thresholds[len(hits):])
        hits += [before + n for n in found if n is not None]
        if len(hits) == len(thresholds):
            break
    return hits + [None] * (len(thresholds) - len(hits))


def _horizons(cfg: ExperimentConfig) -> list:
    """Per-threshold horizon ``ceil(horizon_factor * (b + min_sample))``."""
    camp = cfg.campaign
    return [
        math.ceil(camp.horizon_factor * (b + cfg.detector.min_sample))
        for b in camp.thresholds
    ]


def _tally(all_hits, j: int, horizon: int, tau_stat: int) -> tuple:
    """(values, excluded, truncated) of threshold ``j`` over all replications.

    An alarm at or before statistic ``tau_stat`` is excluded as a false
    alarm; a run with no alarm within ``horizon`` statistics after
    ``tau_stat`` counts at the horizon as truncated; any other run counts
    its alarm time less ``tau_stat`` (MTBFA passes 0).
    """
    values = []
    excluded = truncated = 0
    for hits in all_hits:
        n_alarm = hits[j]
        if n_alarm is not None and n_alarm <= tau_stat:
            excluded += 1
        elif n_alarm is None or n_alarm - tau_stat > horizon:
            truncated += 1
            values.append(float(horizon))
        else:
            values.append(float(n_alarm - tau_stat))
    return values, excluded, truncated


def _mean_sem(values) -> tuple:
    """Sample mean and its standard error (0 for a single value)."""
    arr = np.asarray(values)
    sem = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else 0.0
    return float(arr.mean()), sem


def run_mtbfa_campaign(
    cfg: ExperimentConfig, context: HarnessContext | None = None
) -> CampaignResult:
    """Estimate mean time between false alarms per threshold.

    :func:`_run_campaign` with ``tau_stat = 0``: every alarm is a false
    alarm, so no replication is excluded, and a row's mean is the mean
    alarm time on the statistic clock.
    """
    return _run_campaign(cfg, context, "mtbfa")


def run_md_campaign(
    cfg: ExperimentConfig, context: HarnessContext | None = None
) -> CampaignResult:
    """Estimate mean detection delay per threshold.

    :func:`_run_campaign` with ``tau_stat = change_at - window``, the
    statistic before the change enters the buffer.  Alarms at or before
    it are false alarms, excluded from the mean and counted; if every
    replication false-alarms the campaign aborts.
    """
    return _run_campaign(cfg, context, "md")


def _run_campaign(
    cfg: ExperimentConfig, context: HarnessContext | None, mode: str
) -> CampaignResult:
    """The replications of an mtbfa or md campaign and their rows.

    Each replication shares one statistic series across all thresholds
    (crossing times are monotone in b), and each threshold is tallied
    from ``tau_stat`` on (:func:`_tally`).  A run that never alarms
    within the per-threshold horizon ``ceil(horizon_factor * (b +
    min_sample))`` statistics after ``tau_stat`` is counted at the
    horizon and reported as truncated; a row whose truncation fraction
    exceeds one half is flagged unreliable.

    No output reads a statistic past ``tau_stat + H``, H the largest
    horizon, so a replication's trajectory is ``tau_stat + window + H``
    observations long, the ones that complete statistic ``tau_stat +
    H``.  It is simulated and scored in blocks, and stops after the
    block in which the largest threshold is crossed
    (:func:`_replication_hits`); the rows are those of whole
    trajectories.  The mode picks only the bound in the theory column
    and the wording of the notes.
    """
    if cfg.campaign.mode != mode:
        raise ConfigError(f"campaign.mode: expected {mode}, got {cfg.campaign.mode!r}")
    camp = cfg.campaign
    det = cfg.detector
    if context is None:
        context = build_context(cfg, camp.seed)
    # md: >= 1, as the parser checks change_at > window for md
    tau_stat = cfg.scenario.change_at - det.window if mode == "md" else 0
    horizons = _horizons(cfg)
    length = tau_stat + det.window + horizons[-1]
    all_hits = [_replication_hits(cfg, context, length, i) for i in range(camp.replications)]

    rows = []
    notes = list(context.notes)
    aborted = False
    for j, (b, horizon) in enumerate(zip(camp.thresholds, horizons)):
        values, excluded, truncated = _tally(all_hits, j, horizon, tau_stat)
        if not values:
            notes.append(
                f"b={b!r}: every replication false-alarmed before the change; "
                f"campaign aborted"
            )
            aborted = True
            continue
        mean, sem = _mean_sem(values)
        report = _bound_report(cfg, context, b)
        theory, warn = None, ""
        if report is not None and mode == "mtbfa":
            theory = report.mtbfa.value
        elif report is not None and context.gamma is not None:
            theory = report.md.value
            if not report.md.detectable:
                warn = (
                    "; VACUOUS BOUND: drift gamma - 2c = "
                    f"{report.md.drift!r} <= 0, no guaranteed post-change drift"
                )
        unreliable = truncated > camp.replications / 2
        rows.append(
            CampaignRow(
                b=b, empirical_mean=mean, std_error=sem, n_runs=len(values),
                theory_bound=theory, truncated=truncated, excluded=excluded,
                unreliable=unreliable,
            )
        )
        if mode == "mtbfa":
            note = (
                f"b={b!r}: {truncated}/{camp.replications} runs truncated at horizon "
                f"{horizon} (statistic clock); raw-clock mean alarm time "
                f"{mean + det.window!r}"
            )
        else:
            note = (
                f"b={b!r}: {excluded} false alarms excluded, {truncated} truncated at "
                f"post-change horizon {horizon}; mean delay {mean!r} statistics "
                f"after the change entered the buffer (same count on either clock)"
            )
        notes.append(note + ("; row UNRELIABLE (truncation > 50%)" if unreliable else "") + warn)
    return CampaignResult(
        mode=mode, rows=tuple(rows), notes=tuple(notes), aborted=aborted,
        change_at=cfg.scenario.change_at,
    )


def _bound_report(cfg: ExperimentConfig, context: HarnessContext, b: float):
    """Both closed-form guarantees at threshold ``b``, or None without a
    certificate.  An unknown gamma is passed as 0, which makes the md
    bound vacuous: ``bounds.txt`` prints it with a notice, and campaign
    rows leave their md theory column empty."""
    if context.pre_block is None:
        return None
    gamma = context.gamma if context.gamma is not None else 0.0
    return bound_report(
        b, cfg.detector.min_sample, context.pre_block, context.post_block,
        gamma, context.correction,
    )


# -- file output ------------------------------------------------------------


def _fmt(value) -> str:
    """Shortest round-trip decimal for floats; empty string for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return repr(float(value))


def write_trace_csv(path: str, result: CampaignResult) -> None:
    """Write per-step rows with header ``t,state_norm,s_t,s_hat,alarm``."""
    lines = ["t,state_norm,s_t,s_hat,alarm"]
    for row in result.trace:
        lines.append(
            f"{row.t},{_fmt(row.state_norm)},{_fmt(row.score)},"
            f"{_fmt(row.statistic)},{1 if row.alarm else 0}"
        )
    _write_lines(path, lines)


def write_campaign_csv(path: str, result: CampaignResult) -> None:
    """Write per-threshold rows with header
    ``b,empirical_mean,std_error,n_runs,theory_bound``."""
    lines = ["b,empirical_mean,std_error,n_runs,theory_bound"]
    for row in result.rows:
        lines.append(
            f"{_fmt(row.b)},{_fmt(row.empirical_mean)},{_fmt(row.std_error)},"
            f"{row.n_runs},{_fmt(row.theory_bound)}"
        )
    _write_lines(path, lines)


def write_bounds_txt(path: str, cfg: ExperimentConfig, context: HarnessContext) -> None:
    """Write closed-form guarantee values for every configured threshold."""
    pre_block, post_block, gamma = context.pre_block, context.post_block, context.gamma
    lines = [
        "closed-form guarantees",
        f"window: {cfg.detector.window}",
        f"min_sample: {cfg.detector.min_sample}",
        f"correction: {_fmt(context.correction)}",
    ]
    if pre_block is None:
        lines.append(
            "no Doeblin certificate available: set [bounds] lam/lag or use a "
            "finite scenario"
        )
    else:
        lines.append(
            f"pre block certificate: lam={_fmt(pre_block.lam)} lag={pre_block.lag}"
        )
        lines.append(
            f"post block certificate: lam={_fmt(post_block.lam)} lag={post_block.lag}"
        )
        lines.append(f"gamma: {_fmt(gamma)}")
        for b in cfg.campaign.thresholds:
            rep = _bound_report(cfg, context, b)
            lines.append(
                f"b={_fmt(b)}: mtbfa >= {_fmt(rep.mtbfa.value)} "
                f"(alpha1={_fmt(rep.mtbfa.alpha1)}, informative={rep.mtbfa.informative}); "
                f"md <= {_fmt(rep.md.value)} "
                f"(drift={_fmt(rep.md.drift)}, alpha={_fmt(rep.md.alpha)}, "
                f"detectable={rep.md.detectable})"
            )
        if gamma is None:
            lines.append(
                "md bounds above are vacuous: no gamma available "
                "(set [bounds] gamma or use a finite scenario)"
            )
    _write_lines(path, lines)


def write_notes(path: str, result: CampaignResult) -> None:
    _write_lines(path, result.notes)


def _write_lines(path: str, lines) -> None:
    """Write ``lines`` as UTF-8 text, each ended by a newline."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None) -> CampaignResult:
    """Run the configured campaign and write every requested output file.

    Returns the in-memory result; the CLI maps ``result.aborted`` and
    unreliable rows to its exit code.
    """
    from . import svgplot  # deferred: keeps harness importable without plots

    directory = make_output_directory(out_dir if out_dir is not None else cfg.output.directory)
    mode = cfg.campaign.mode
    context = build_context(cfg, cfg.campaign.seed)
    if mode == "trace":
        result = run_trace(cfg, context=context)
        csv_path = os.path.join(directory, "trace.csv")
        write_trace_csv(csv_path, result)
        if "svg" in cfg.output.formats:
            svgplot.trace_panels(csv_path, directory, change_at=result.change_at)
    else:
        run = run_mtbfa_campaign if mode == "mtbfa" else run_md_campaign
        result = run(cfg, context=context)
        csv_path = os.path.join(directory, "campaign.csv")
        write_campaign_csv(csv_path, result)
        if "svg" in cfg.output.formats:
            svgplot.campaign_panel(csv_path, os.path.join(directory, "campaign.svg"))
    write_bounds_txt(os.path.join(directory, "bounds.txt"), cfg, context)
    write_notes(os.path.join(directory, "notes.txt"), result)
    return result
