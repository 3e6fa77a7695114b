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

from .bounds import DoeblinParams, bound_report, buffer_doeblin, mtbfa_lower_bound, md_upper_bound
from .config import ConfigError, ExperimentConfig
from .detector import (
    DetectorConfig,
    KernelCusumDetector,
    ReferenceSet,
    build_reference,
    calibrate_correction,
)
from .kernels import KernelSpec
from .mmd import consistency_bound
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
    """Frozen per-experiment objects shared by every replication."""

    kernel: KernelSpec
    reference: ReferenceSet
    correction: float
    notes: tuple


def _csv_trajectory(cfg: ExperimentConfig) -> np.ndarray:
    """The ``csv`` scenario's trajectory; a file that is missing or does
    not parse is a ``scenario.path`` error."""
    try:
        return load_trajectory(cfg.scenario.path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"scenario.path: {exc}") from exc


def make_output_directory(directory: str) -> str:
    """Create ``directory`` if needed; a path that cannot be a directory
    (an existing file, say) is an ``output.directory`` error."""
    try:
        os.makedirs(directory, exist_ok=True)
    except OSError as exc:
        raise ConfigError(f"output.directory: cannot create {directory!r}: {exc}") from exc
    return directory


def _pre_change_trajectory(cfg: ExperimentConfig, length: int, seed: int, stream: int) -> np.ndarray:
    """A no-change trajectory of the pre-change law, for reference/holdout."""
    scn = cfg.scenario
    if scn.kind in ("ar-variance", "ar-mean"):
        base = scn.ar_scenario()
        quiet = replace(base, post_noise=None, change_at=None, length=length)
        return simulate_ar(quiet, seed, stream)
    if scn.kind == "finite":
        pre, _ = scn.finite_chains()
        return simulate_finite(pre, length, seed, stream)
    raise ConfigError(f"scenario.kind: {scn.kind!r} cannot synthesise pre-change data")


def _monitored_trajectory(cfg: ExperimentConfig, length: int, seed: int, stream: int) -> np.ndarray:
    """One monitored trajectory honouring scenario.change_at."""
    scn = cfg.scenario
    if scn.kind in ("ar-variance", "ar-mean"):
        base = scn.ar_scenario()
        return simulate_ar(replace(base, length=length), seed, stream)
    if scn.kind == "finite":
        pre, post = scn.finite_chains()
        if scn.change_at is None:
            return simulate_finite(pre, length, seed, stream)
        return simulate_finite_scenario(
            FiniteScenario(pre=pre, post=post, change_at=scn.change_at, length=length),
            seed,
            stream,
        )
    raise ConfigError(f"scenario.kind: {scn.kind!r} cannot synthesise monitored data")


def build_context(cfg: ExperimentConfig, seed: int) -> HarnessContext:
    """Construct kernel, reference set, and correction for one experiment."""
    det = cfg.detector
    kernel = det.kernel
    notes = []

    if cfg.scenario.kind == "csv":
        data = _csv_trajectory(cfg)
        need = det.reference + (det.holdout if det.correction == "calibrate" else 0)
        if data.shape[0] < need + det.window + 1:
            raise ConfigError(
                f"scenario.path: csv has {data.shape[0]} rows; needs more than "
                f"{need + det.window} for reference/holdout plus one window"
            )
        ref_obs = data[: det.reference]
        holdout_obs = data[det.reference : det.reference + det.holdout]
    else:
        ref_obs = _pre_change_trajectory(cfg, det.reference, seed, REFERENCE_STREAM)
        holdout_obs = None
        if det.correction == "calibrate":
            holdout_obs = _pre_change_trajectory(cfg, det.holdout, seed, HOLDOUT_STREAM)

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
            kernel, reference, holdout_obs, det.window,
            margin=det.margin, quantile=det.quantile,
        )
        correction = cal.correction
        notes.append(
            f"correction: calibrated at {correction!r} "
            f"(holdout level {cal.holdout_level!r} at quantile {cal.quantile!r} "
            f"over {cal.n_scores} positions, margin {cal.margin!r})"
        )
    return HarnessContext(
        kernel=kernel, reference=reference, correction=correction, notes=tuple(notes)
    )


def _theory_inputs(cfg: ExperimentConfig, context: HarnessContext):
    """(pre_block, post_block, gamma) for theory columns, or Nones.

    Observation-level Doeblin parameters come from the ``[bounds]``
    section when given, else are derived exactly for finite chains.  The
    score sequence is a function of the sliding block of ``window``
    pairs, so certificates are lifted with :func:`buffer_doeblin` over
    ``window + 1`` raw states.
    """
    scn = cfg.scenario
    given = cfg.bounds.doeblin()
    pre_raw = post_raw = None
    gamma = cfg.bounds.gamma
    if given is not None:
        pre_raw = post_raw = given
    elif scn.kind == "finite":
        pre, post = scn.finite_chains()
        pre_raw = doeblin_of_finite(pre)
        post_raw = doeblin_of_finite(post)
    if scn.kind == "finite" and gamma is None:
        pre, post = scn.finite_chains()
        gamma = exact_mmd_finite(context.kernel, pre, post)
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

    Raw steps before the first statistic get empty score/statistic
    columns; when the whole run is shorter than one window the result
    carries an explicit warm-up notice.
    """
    if cfg.campaign.mode != "trace":
        raise ConfigError(f"campaign.mode: expected trace, got {cfg.campaign.mode!r}")
    seed = cfg.campaign.seed if seed is None else seed
    if context is None:
        context = build_context(cfg, seed)
    threshold = cfg.campaign.thresholds[-1] if cfg.campaign.thresholds else cfg.detector.threshold

    scn = cfg.scenario
    if scn.kind == "csv":
        data = _csv_trajectory(cfg)
        skip = cfg.detector.reference + (
            cfg.detector.holdout if cfg.detector.correction == "calibrate" else 0
        )
        monitored = data[skip:]
    else:
        monitored = _monitored_trajectory(cfg, scn.length, seed, TRACE_STREAM)

    det = KernelCusumDetector(
        context.reference,
        DetectorConfig(
            window=cfg.detector.window,
            min_sample=cfg.detector.min_sample,
            threshold=threshold,
            correction=context.correction,
        ),
    )
    outcomes = det.extend(monitored) if len(monitored) else []
    # the alarm flag latches, so a row's flag says whether its statistic
    # index has reached the first alarm of the whole run
    first_alarm = math.inf if det.alarmed_at is None else det.alarmed_at
    rows = [
        TraceRow(
            t=t,
            state_norm=float(np.linalg.norm(obs)),
            score=None if out.index is None else out.score,
            statistic=None if out.index is None else out.statistic,
            alarm=out.index is not None and out.index >= first_alarm,
        )
        for t, (obs, out) in enumerate(zip(monitored, outcomes), start=1)
    ]
    notes = list(context.notes)
    notes.append(f"threshold: {threshold!r}")
    if scn.change_at is not None:
        notes.append(f"change_at: raw step {scn.change_at}")
    if det.n == 0:
        notes.append(
            f"warm-up notice: run of {len(monitored)} observations is shorter than "
            f"window + 1 = {cfg.detector.window + 1}; no statistics were produced"
        )
    if det.alarmed_at is not None:
        notes.append(
            f"alarm: statistic index {det.alarmed_at} "
            f"(raw step {det.alarmed_at + cfg.detector.window})"
        )
    else:
        notes.append("alarm: never fired")
    return CampaignResult(
        mode="trace",
        rows=(),
        trace=tuple(rows),
        notes=tuple(notes),
        change_at=scn.change_at,
    )


def _statistic_series(context: HarnessContext, cfg: ExperimentConfig, trajectory) -> list:
    """Run the detector over a whole trajectory, returning the CUSUM series.

    Crossing times for the whole threshold grid are read from the series
    afterwards, so the detector's own threshold only needs to be valid;
    the largest campaign threshold is used.
    """
    det = KernelCusumDetector(
        context.reference,
        DetectorConfig(
            window=cfg.detector.window,
            min_sample=cfg.detector.min_sample,
            threshold=cfg.campaign.thresholds[-1],
            correction=context.correction,
        ),
    )
    return [out.statistic for out in det.extend(trajectory) if out.index is not None]


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
    trajectory = _monitored_trajectory(
        cfg, length, cfg.campaign.seed, REPLICATION_STREAM_BASE + i
    )
    return _crossing_times(
        _statistic_series(context, cfg, trajectory), cfg.campaign.thresholds
    )


def _horizons(cfg: ExperimentConfig) -> list:
    """Per-threshold horizon ``ceil(horizon_factor * (b + min_sample))``."""
    camp = cfg.campaign
    return [
        math.ceil(camp.horizon_factor * (b + cfg.detector.min_sample))
        for b in camp.thresholds
    ]


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

    pre_block, _, _ = _theory_inputs(cfg, context)
    rows = []
    notes = list(context.notes)
    for j, (b, horizon) in enumerate(zip(camp.thresholds, horizons)):
        times = []
        truncated = 0
        for hits in all_hits:
            n_alarm = hits[j]
            if n_alarm is None or n_alarm > horizon:
                truncated += 1
                times.append(float(horizon))
            else:
                times.append(float(n_alarm))
        mean, sem = _mean_sem(times)
        theory = None
        if pre_block is not None:
            theory = mtbfa_lower_bound(b, det.min_sample, pre_block).value
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
    tau_stat = tau - det.window
    if tau_stat < 1:
        raise ConfigError(
            "scenario.change_at: must exceed detector.window so pre-change "
            "statistics exist"
        )
    horizons = _horizons(cfg)
    length = tau + horizons[-1] + det.window
    all_hits = [_replication_hits(cfg, context, length, i) for i in range(camp.replications)]

    _, post_block, gamma = _theory_inputs(cfg, context)
    rows = []
    notes = list(context.notes)
    aborted = False
    for j, (b, horizon) in enumerate(zip(camp.thresholds, horizons)):
        delays = []
        excluded = truncated = 0
        for hits in all_hits:
            n_alarm = hits[j]
            if n_alarm is not None and n_alarm <= tau_stat:
                excluded += 1
                continue
            if n_alarm is None or n_alarm - tau_stat > horizon:
                truncated += 1
                delays.append(float(horizon))
            else:
                delays.append(float(n_alarm - tau_stat))
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
    pre_block, post_block, gamma = _theory_inputs(cfg, context)
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
    elif mode == "mtbfa":
        result = run_mtbfa_campaign(cfg, context=context)
    else:
        result = run_md_campaign(cfg, context=context)
    if mode == "trace":
        csv_path = os.path.join(directory, "trace.csv")
        write_trace_csv(csv_path, result)
        if "svg" in cfg.output.formats:
            svgplot.trace_panels(csv_path, directory, change_at=result.change_at)
    else:
        csv_path = os.path.join(directory, "campaign.csv")
        write_campaign_csv(csv_path, result)
        if "svg" in cfg.output.formats:
            svgplot.campaign_panel(csv_path, os.path.join(directory, "campaign.svg"))
    write_bounds_txt(os.path.join(directory, "bounds.txt"), cfg, context)
    write_notes(os.path.join(directory, "notes.txt"), result)
    return result
