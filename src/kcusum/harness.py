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

* MTBFA rows: ``empirical_mean`` is the mean alarm time on the
  statistic clock, directly comparable to the Theorem-style lower bound
  ``min_sample - 1 + (b - alpha1)``; the raw-clock mean (offset by
  ``window``) goes to the notes.
* MD rows: ``empirical_mean`` is the mean number of statistics emitted
  after the change entered the sliding buffer (``n_alarm - (tau -
  window)``), directly comparable to the upper bound
  ``max(min_sample, (b + alpha)/drift)``; the notes also report the
  mean of ``n_alarm - tau``, the statistic-clock reading of the raw
  change time, which is smaller by exactly ``window``.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import DoeblinParams, bound_report, buffer_doeblin, md_upper_bound, mtbfa_lower_bound
from .config import ConfigError, ExperimentConfig, _build
from .detector import CusumStream, ReferenceSet, _BlockScorer, build_reference, calibrate_correction
from .mmd import consistency_bound, lifted_pairs
from .simulate import (
    FiniteScenario,
    doeblin_of_finite,
    exact_mmd_finite,
    load_trajectory,
    simulate_ar,
    simulate_finite,
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


def _trajectory(
    cfg: ExperimentConfig, length: int, seed: int, stream: int, pre_change: bool = False
) -> np.ndarray:
    """One synthesised trajectory honouring ``scenario.change_at``; with
    ``pre_change`` the change is dropped, which gives the pre-change law
    that reference and holdout data come from."""
    scn = cfg.scenario
    if scn.kind == "finite":
        pre, post = scn.finite_chains()
        if pre_change or scn.change_at is None:
            return simulate_finite(pre, length, seed, stream)
        return simulate_finite_scenario(
            FiniteScenario(pre=pre, post=post, change_at=scn.change_at, length=length),
            seed,
            stream,
        )
    quiet = {"post_noise": None, "change_at": None} if pre_change else {}
    return simulate_ar(replace(scn.ar_scenario(), length=length, **quiet), seed, stream)


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


def run_trace(
    cfg: ExperimentConfig,
    seed: int | None = None,
    context: HarnessContext | None = None,
) -> CampaignResult:
    """Monitor one trajectory and log every raw step.

    The trajectory is scored by :func:`_cusum_series`, as a campaign
    replication is, and the alarm is the first statistic reaching the
    largest of ``campaign.thresholds``; from there on every row's alarm
    flag is set.  A ``csv`` scenario monitors ``context.monitored``; the
    others simulate ``scenario.length`` observations on the trace stream.
    Raw steps before the first statistic get empty score/statistic
    columns; when the whole run is shorter than one window the result
    carries an explicit warm-up notice.
    """
    if cfg.campaign.mode != "trace":
        raise ConfigError(f"campaign.mode: expected trace, got {cfg.campaign.mode!r}")
    seed = cfg.campaign.seed if seed is None else seed
    if context is None:
        context = build_context(cfg, seed)
    threshold = cfg.campaign.thresholds[-1]
    window = cfg.detector.window

    scn = cfg.scenario
    monitored = context.monitored
    if monitored is None:
        monitored = _trajectory(cfg, scn.length, seed, TRACE_STREAM)

    scores, statistics = _cusum_series(context, cfg, monitored)
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


def _cusum_series(context: HarnessContext, cfg: ExperimentConfig, trajectory) -> tuple:
    """(scores, statistics) of a whole trajectory, one entry per statistic.

    Its lifted pairs go through one block scorer, and each window value,
    less the correction, through one CUSUM: the arithmetic of
    :meth:`KernelCusumDetector.extend`, without an outcome object per
    observation.  Traces log both lists; campaigns read crossing times
    for the whole threshold grid from the statistics.
    """
    scorer = _BlockScorer(context.reference, cfg.detector.window)
    cusum = CusumStream(cfg.detector.min_sample)
    scores = [value - context.correction for value in scorer.push(lifted_pairs(trajectory))]
    return scores, [cusum.update(score) for score in scores]


def _crossing_times(series, thresholds) -> list:
    """First statistic index reaching each threshold (None if never).

    One pass: thresholds are strictly increasing, so once b_k is crossed
    only later thresholds remain to be found.
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
    """Crossing times of replication ``i`` on a ``length``-step trajectory."""
    trajectory = _trajectory(cfg, length, cfg.campaign.seed, REPLICATION_STREAM_BASE + i)
    _, statistics = _cusum_series(context, cfg, trajectory)
    return _crossing_times(statistics, cfg.campaign.thresholds)


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

    Each replication shares one statistic series across all thresholds
    (crossing times are monotone in b).  Runs that never cross within
    the per-threshold horizon ``ceil(horizon_factor * (b + min_sample))``
    are counted at the horizon and reported as truncated; a row whose
    truncation fraction exceeds one half is flagged unreliable.
    """
    if cfg.campaign.mode != "mtbfa":
        raise ConfigError(f"campaign.mode: expected mtbfa, got {cfg.campaign.mode!r}")
    camp = cfg.campaign
    det = cfg.detector
    if context is None:
        context = build_context(cfg, camp.seed)
    horizons = _horizons(cfg)
    length = horizons[-1] + det.window
    all_hits = [_replication_hits(cfg, context, length, i) for i in range(camp.replications)]

    rows = []
    notes = list(context.notes)
    for j, (b, horizon) in enumerate(zip(camp.thresholds, horizons)):
        times, _, truncated = _tally(all_hits, j, horizon, 0)
        mean, sem = _mean_sem(times)
        theory = None
        if context.pre_block is not None:
            theory = mtbfa_lower_bound(b, det.min_sample, context.pre_block).value
        unreliable = truncated > camp.replications / 2
        rows.append(
            CampaignRow(
                b=b, empirical_mean=mean, std_error=sem, n_runs=camp.replications,
                theory_bound=theory, truncated=truncated, excluded=0,
                unreliable=unreliable,
            )
        )
        notes.append(
            f"b={b!r}: {truncated}/{camp.replications} runs truncated at horizon "
            f"{horizon} (statistic clock); raw-clock mean alarm time "
            f"{mean + det.window!r}"
            + ("; row UNRELIABLE (truncation > 50%)" if unreliable else "")
        )
    return CampaignResult(mode="mtbfa", rows=tuple(rows), notes=tuple(notes))


def run_md_campaign(
    cfg: ExperimentConfig, context: HarnessContext | None = None
) -> CampaignResult:
    """Estimate mean detection delay per threshold.

    Replications whose alarm fires before the change reached the buffer
    are false alarms: excluded from the mean and counted.  Runs that
    never alarm within the post-change horizon are counted at the
    horizon and reported as truncated.  If every replication
    false-alarms the campaign aborts.
    """
    if cfg.campaign.mode != "md":
        raise ConfigError(f"campaign.mode: expected md, got {cfg.campaign.mode!r}")
    camp = cfg.campaign
    det = cfg.detector
    tau = cfg.scenario.change_at
    if context is None:
        context = build_context(cfg, camp.seed)
    tau_stat = tau - det.window  # >= 1: the parser checks change_at > window for md
    horizons = _horizons(cfg)
    length = tau + horizons[-1] + det.window
    all_hits = [_replication_hits(cfg, context, length, i) for i in range(camp.replications)]

    post_block, gamma = context.post_block, context.gamma
    rows = []
    notes = list(context.notes)
    aborted = False
    for j, (b, horizon) in enumerate(zip(camp.thresholds, horizons)):
        delays, excluded, truncated = _tally(all_hits, j, horizon, tau_stat)
        if not delays:
            notes.append(
                f"b={b!r}: every replication false-alarmed before the change; "
                f"campaign aborted"
            )
            aborted = True
            continue
        mean, sem = _mean_sem(delays)
        theory = None
        warn = ""
        if post_block is not None and gamma is not None:
            bound = md_upper_bound(b, det.min_sample, gamma, context.correction, post_block)
            theory = bound.value
            if not bound.detectable:
                warn = (
                    "; VACUOUS BOUND: drift gamma - 2c = "
                    f"{bound.drift!r} <= 0, no guaranteed post-change drift"
                )
        unreliable = truncated > camp.replications / 2
        rows.append(
            CampaignRow(
                b=b, empirical_mean=mean, std_error=sem, n_runs=len(delays),
                theory_bound=theory, truncated=truncated, excluded=excluded,
                unreliable=unreliable,
            )
        )
        notes.append(
            f"b={b!r}: {excluded} false alarms excluded, {truncated} truncated at "
            f"post-change horizon {horizon}; mean delay {mean!r} statistics "
            f"after the change entered the buffer (same count on either clock)"
            + ("; row UNRELIABLE (truncation > 50%)" if unreliable else "")
            + warn
        )
    return CampaignResult(
        mode="md", rows=tuple(rows), notes=tuple(notes), aborted=aborted, change_at=tau
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_campaign_csv(path: str, result: CampaignResult) -> None:
    """Write per-threshold rows with header
    ``b,empirical_mean,std_error,n_runs,theory_bound``."""
    lines = ["b,empirical_mean,std_error,n_runs,theory_bound"]
    for row in result.rows:
        lines.append(
            f"{_fmt(row.b)},{_fmt(row.empirical_mean)},{_fmt(row.std_error)},"
            f"{row.n_runs},{_fmt(row.theory_bound)}"
        )
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


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
            report_gamma = gamma if gamma is not None else 0.0
            rep = bound_report(
                b, cfg.detector.min_sample, pre_block, post_block,
                report_gamma, context.correction,
            )
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
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def write_notes(path: str, result: CampaignResult) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(result.notes) + "\n")


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
