"""Experiment configuration: a sectioned key-value text format.

The file format is INI-style with four required sections --
``[scenario]``, ``[detector]``, ``[campaign]``, ``[output]`` -- and an
optional ``[bounds]`` section.  Unknown sections or keys are hard
errors: a silent typo in a campaign config would otherwise burn hours
of compute on the wrong experiment.  Every diagnostic names the
offending ``section.key``.

:func:`parse_config_text` is the one validation pass.  It checks every
key, builds the domain objects the keys describe, and derives once
whatever else depends on the config alone: the campaign horizons
(:attr:`ExperimentConfig.horizons`) and the inputs of the closed-form
bounds (:class:`BoundsSection`).  Size keys whose arrays could not fit
in the machine's memory together are rejected too (:func:`_check_memory`).
A config it accepts can still fail in a run only for what the run itself
finds: a simulated trajectory that overflows, a csv file that cannot
serve, or an output file that cannot be written.
"""

from __future__ import annotations

import configparser
import math
import os
from dataclasses import dataclass, replace

import numpy as np

from .bounds import DoeblinParams, buffer_doeblin
from .detector import reference_floats, scorer_floats
from .kernels import KernelSpec, as_points
from .simulate import (
    ArScenario, FiniteChain, FiniteScenario, GaussianLaw, default_system_matrix, doeblin_of_finite,
    exact_mmd_finite,
)

__all__ = [
    "ConfigError",
    "ScenarioSection",
    "DetectorSection",
    "CampaignSection",
    "OutputSection",
    "BoundsSection",
    "ExperimentConfig",
    "load_config",
    "parse_config_text",
]


class ConfigError(ValueError):
    """Raised for any malformed, missing, or unknown configuration field."""


# the scenario keys each kind reads; a key of another kind is an error,
# since the parser would check it and the kind would ignore it
_AR_KEYS = {"kind", "length", "change_at", "burn_in", "pre_variance", "post_variance",
            "post_mean", "matrix"}
_KIND_KEYS = {
    "ar-variance": _AR_KEYS,
    "ar-mean": _AR_KEYS,
    "finite": {"kind", "length", "change_at", "states", "pre_matrix", "post_matrix"},
    "csv": {"kind", "change_at", "path"},
}
_DETECTOR_KEYS = {
    "window", "min_sample", "threshold", "reference", "bandwidths",
    "weights", "correction", "margin", "quantile", "holdout",
    "sigma_reference", "sigma_buffer",
}
_CAMPAIGN_KEYS = {"mode", "replications", "thresholds", "horizon_factor", "seed"}
_OUTPUT_KEYS = {"directory", "formats"}
_BOUNDS_KEYS = {"lam", "lag", "gamma"}

_MODES = ("trace", "mtbfa", "md")


def _fail(section: str, key: str, message: str) -> None:
    raise ConfigError(f"{section}.{key}: {message}")


def _build(name: str, key: str, make):
    """Construct a domain object; its ``ValueError`` names ``name.key``."""
    try:
        return make()
    except ValueError as exc:
        raise ConfigError(f"{name}.{key}: {exc}") from exc


def _get_float(section, name: str, key: str, default=None) -> float:
    raw = section.get(key)
    if raw is None:
        if default is None:
            _fail(name, key, "required key is missing")
        return default
    try:
        value = float(raw)
    except ValueError:
        _fail(name, key, f"expected a real number, got {raw!r}")
    if not np.isfinite(value):
        _fail(name, key, "must be finite")
    return value


def _get_int(section, name: str, key: str, default=None, low: int = 1, bits: int = 53) -> int:
    """An integer in ``[low, 2**bits)``; the default is not checked.
    Below 2**53 every count is exact as a float and within numpy's index
    range; whether the arrays a size key asks for fit in memory is
    :func:`_check_memory`'s test."""
    raw = section.get(key)
    if raw is None:
        if default is None:
            _fail(name, key, "required key is missing")
        return default
    try:
        value = int(raw)
    except ValueError:
        _fail(name, key, f"expected an integer, got {raw!r}")
    if not low <= value < 2**bits:
        _fail(name, key, f"must be an integer in [{low}, 2**{bits})")
    return value


def _parse_matrix(text: str, name: str, key: str) -> np.ndarray:
    """Parse ``a,b;c,d`` into a 2-D float array (rows split by ``;``)."""
    try:
        rows = [[float(cell) for cell in row.split(",")] for row in text.split(";")]
    except ValueError:
        _fail(name, key, f"could not parse matrix from {text!r}")
    widths = {len(row) for row in rows}
    if len(widths) != 1:
        _fail(name, key, "matrix rows have unequal lengths")
    return np.asarray(rows, dtype=float)


def _parse_floats(text: str, name: str, key: str) -> list[float]:
    try:
        return [float(cell) for cell in text.split(",") if cell.strip() != ""]
    except ValueError:
        _fail(name, key, f"could not parse number list from {text!r}")


@dataclass(frozen=True)
class ScenarioSection:
    """What process to monitor and when (if ever) it changes.

    ``process`` is the monitored chain, built once by the parser: an
    :class:`ArScenario` for the AR kinds, a :class:`FiniteScenario` for
    the finite kind, None for csv.  It carries ``scenario.length`` and
    ``scenario.change_at``, and the other scenario keys live only in it;
    a run resizes it, or takes its ``before_change()`` law for reference
    and holdout data.  ``change_at`` is kept here too, since a csv
    scenario has one and no process.
    """

    kind: str
    change_at: int | None
    path: str | None
    process: ArScenario | FiniteScenario | None

    def ar_scenario(self) -> ArScenario:
        if not isinstance(self.process, ArScenario):
            raise ConfigError(f"scenario.kind: {self.kind!r} is not an AR scenario")
        return self.process

    def finite_chains(self) -> tuple[FiniteChain, FiniteChain]:
        if not isinstance(self.process, FiniteScenario):
            raise ConfigError(f"scenario.kind: {self.kind!r} is not a finite scenario")
        return self.process.pre, self.process.post


@dataclass(frozen=True)
class DetectorSection:
    """Detector geometry, kernel, and correction policy.

    ``kernel`` is derived from ``bandwidths`` and ``weights``: a mixture
    over the bandwidths, with equal weights when none are given (one
    bandwidth gives a single Gaussian).  The parser builds it to check
    the two keys.

    ``threshold`` is checked to be positive, as the detector's own
    threshold must be, but no code path reads it: alarm levels come from
    ``campaign.thresholds``.  The key stays accepted because existing
    configs, the benchmark's among them, write it.
    """

    window: int
    min_sample: int
    threshold: float
    reference: int
    bandwidths: tuple[float, ...]
    weights: tuple[float, ...] | None
    correction: str  # "calibrate", "analytic", or a float literal
    margin: float
    quantile: float
    holdout: int
    sigma_reference: float | None
    sigma_buffer: float | None

    @property
    def kernel(self) -> KernelSpec:
        return KernelSpec.mixture(self.bandwidths, self.weights)

    def fixed_correction(self) -> float | None:
        if self.correction in ("calibrate", "analytic"):
            return None
        return float(self.correction)


@dataclass(frozen=True)
class CampaignSection:
    mode: str
    replications: int
    thresholds: tuple[float, ...]
    horizon_factor: int
    seed: int


@dataclass(frozen=True)
class OutputSection:
    directory: str
    formats: tuple[str, ...]


@dataclass(frozen=True)
class BoundsSection:
    """The inputs of the closed-form bounds, each None when unknown.

    ``pre_block`` and ``post_block`` certify the chains of sliding
    ``window + 1`` blocks before and after the change: the observation
    chains' certificates lifted with :func:`buffer_doeblin`.  A
    ``[bounds] lam/lag`` certifies both observation chains; otherwise a
    finite scenario's chains certify themselves.  ``gamma`` is the given
    ``[bounds] gamma``, else the exact discrepancy of a finite
    scenario's chains.
    """

    pre_block: DoeblinParams | None = None
    post_block: DoeblinParams | None = None
    gamma: float | None = None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSection
    detector: DetectorSection
    campaign: CampaignSection
    output: OutputSection
    bounds: BoundsSection = BoundsSection()

    @property
    def horizons(self) -> list:
        """Per-threshold campaign horizon ``ceil(horizon_factor * (b +
        min_sample))``, in statistics."""
        camp = self.campaign
        return [
            math.ceil(camp.horizon_factor * (b + self.detector.min_sample))
            for b in camp.thresholds
        ]


def _check_keys(parser: configparser.ConfigParser, name: str, allowed: set) -> None:
    if name not in parser:
        raise ConfigError(f"{name}: required section is missing")
    unknown = set(parser[name]) - allowed
    if unknown:
        key = sorted(unknown)[0]
        _fail(name, key, "unknown key")


def _parse_scenario(parser: configparser.ConfigParser) -> ScenarioSection:
    _check_keys(parser, "scenario", set().union(*_KIND_KEYS.values()))
    sec = parser["scenario"]
    kind = sec.get("kind")
    if kind not in _KIND_KEYS:
        _fail("scenario", "kind", f"must be one of {', '.join(_KIND_KEYS)}; got {kind!r}")
    for key in sec:
        if key not in _KIND_KEYS[kind]:
            _fail("scenario", key, f"does not apply to kind = {kind}")
    length = _get_int(sec, "scenario", "length", 2000, low=2)
    raw_change = sec.get("change_at", "none")
    if raw_change.strip().lower() in ("none", "inf", ""):
        change_at = None
    else:
        change_at = _get_int(sec, "scenario", "change_at")
    burn_in = _get_int(sec, "scenario", "burn_in", 500, low=0)
    pre_variance = _get_float(sec, "scenario", "pre_variance", 0.1)
    post_variance = _get_float(sec, "scenario", "post_variance", 0.2)
    post_mean = _get_float(sec, "scenario", "post_mean", 0.05)
    for key, variance in (("pre_variance", pre_variance), ("post_variance", post_variance)):
        if variance <= 0:
            _fail("scenario", key, "variances must be positive")

    matrix = default_system_matrix()
    if "matrix" in sec:
        matrix = _parse_matrix(sec["matrix"], "scenario", "matrix")

    process = None
    if kind in ("ar-variance", "ar-mean"):
        d = matrix.shape[0]
        post = None
        if change_at is not None:
            if kind == "ar-variance":
                post = GaussianLaw.isotropic(d, post_variance)
            else:
                post = GaussianLaw.isotropic(d, pre_variance, mean=post_mean)
        process = _build("scenario", "matrix", lambda: ArScenario(
            matrix=matrix, pre_noise=GaussianLaw.isotropic(d, pre_variance),
            post_noise=post, change_at=change_at, length=length, burn_in=burn_in,
        ))
    elif kind == "finite":
        if "states" not in sec:
            _fail("scenario", "states", "required for finite scenarios")
        states = _parse_matrix(sec["states"], "scenario", "states")
        _build("scenario", "states", lambda: as_points(states, name="states"))
        if "pre_matrix" not in sec:
            _fail("scenario", "pre_matrix", "required for finite scenarios")
        pre_matrix = _parse_matrix(sec["pre_matrix"], "scenario", "pre_matrix")
        pre = _build("scenario", "pre_matrix", lambda: FiniteChain(states, pre_matrix))
        post = pre
        if "post_matrix" in sec:
            post_matrix = _parse_matrix(sec["post_matrix"], "scenario", "post_matrix")
            post = _build("scenario", "post_matrix", lambda: FiniteChain(states, post_matrix))
        process = FiniteScenario(pre=pre, post=post, change_at=change_at, length=length)

    path = sec.get("path")
    if kind == "csv" and not path:
        _fail("scenario", "path", "required for csv scenarios")

    return ScenarioSection(kind=kind, change_at=change_at, path=path, process=process)


def _parse_detector(parser: configparser.ConfigParser) -> DetectorSection:
    _check_keys(parser, "detector", _DETECTOR_KEYS)
    sec = parser["detector"]
    window = _get_int(sec, "detector", "window", 50)
    min_sample = _get_int(sec, "detector", "min_sample", 10)
    threshold = _get_float(sec, "detector", "threshold", 5.0)
    if threshold <= 0:
        _fail("detector", "threshold", "must be positive")
    # below 2**25, so the self-term's count products total below 2**50
    reference = _get_int(sec, "detector", "reference", 500, low=2, bits=25)
    bandwidths = tuple(_parse_floats(sec.get("bandwidths", "0.1,1,10"), "detector", "bandwidths"))
    weights = None
    if sec.get("weights"):
        weights = tuple(_parse_floats(sec["weights"], "detector", "weights"))
    _build("detector", "bandwidths", lambda: KernelSpec.mixture(bandwidths))
    if weights is not None:
        _build("detector", "weights", lambda: KernelSpec.mixture(bandwidths, weights))
    correction = sec.get("correction", "calibrate").strip()
    if correction not in ("calibrate", "analytic"):
        try:
            fixed = float(correction)
        except ValueError:
            _fail("detector", "correction",
                  f"must be 'calibrate', 'analytic', or a number; got {correction!r}")
        if not 0 <= fixed < math.inf:
            _fail("detector", "correction", f"must be non-negative and finite; got {correction!r}")
    margin = _get_float(sec, "detector", "margin", 0.01)
    if margin < 0:
        _fail("detector", "margin", "must be >= 0")
    quantile = _get_float(sec, "detector", "quantile", 1.0)
    if not 0.0 < quantile <= 1.0:
        _fail("detector", "quantile", "must lie in (0, 1]")
    holdout = _get_int(sec, "detector", "holdout", 1000)
    if correction == "calibrate" and holdout < window + 1:
        _fail("detector", "holdout", "must cover at least one full window")
    sigma_reference = sigma_buffer = None
    if correction == "analytic":
        sigma_reference = _get_float(sec, "detector", "sigma_reference")
        sigma_buffer = _get_float(sec, "detector", "sigma_buffer")
        for key, sigma in (("sigma_reference", sigma_reference), ("sigma_buffer", sigma_buffer)):
            if sigma < 0:
                _fail("detector", key, "analytic sigmas must be >= 0")
    return DetectorSection(
        window=window, min_sample=min_sample, threshold=threshold, reference=reference,
        bandwidths=bandwidths, weights=weights, correction=correction, margin=margin,
        quantile=quantile, holdout=holdout,
        sigma_reference=sigma_reference, sigma_buffer=sigma_buffer,
    )


def _parse_campaign(parser: configparser.ConfigParser) -> CampaignSection:
    _check_keys(parser, "campaign", _CAMPAIGN_KEYS)
    sec = parser["campaign"]
    mode = sec.get("mode")
    if mode not in _MODES:
        _fail("campaign", "mode", f"must be one of {', '.join(_MODES)}; got {mode!r}")
    replications = _get_int(sec, "campaign", "replications", 200)
    thresholds = tuple(_parse_floats(sec.get("thresholds", "5"), "campaign", "thresholds"))
    if not thresholds:
        _fail("campaign", "thresholds", "must list at least one threshold")
    if not all(0 < b < math.inf for b in thresholds):
        _fail("campaign", "thresholds", "must be positive and finite")
    if any(b2 <= b1 for b1, b2 in zip(thresholds, thresholds[1:])):
        _fail("campaign", "thresholds", "must be strictly increasing")
    horizon_factor = _get_int(sec, "campaign", "horizon_factor", 50)
    seed = _get_int(sec, "campaign", "seed", 0, low=0, bits=64)
    return CampaignSection(
        mode=mode, replications=replications, thresholds=thresholds,
        horizon_factor=horizon_factor, seed=seed,
    )


def _parse_output(parser: configparser.ConfigParser) -> OutputSection:
    _check_keys(parser, "output", _OUTPUT_KEYS)
    sec = parser["output"]
    directory = sec.get("directory", "out")
    formats = tuple(
        fmt.strip() for fmt in sec.get("formats", "csv,svg").split(",") if fmt.strip()
    )
    for fmt in formats:
        if fmt not in ("csv", "svg"):
            _fail("output", "formats", f"unknown format {fmt!r} (expected csv, svg)")
    if "csv" not in formats:
        _fail("output", "formats", "csv output cannot be disabled (plots derive from it)")
    return OutputSection(directory=directory, formats=formats)


def _parse_bounds(parser: configparser.ConfigParser, cfg: ExperimentConfig) -> BoundsSection:
    """The bounds' inputs: the ``[bounds]`` values where given, else
    those of a finite scenario's chains (see :class:`BoundsSection`)."""
    sec = {}
    if "bounds" in parser:
        _check_keys(parser, "bounds", _BOUNDS_KEYS)
        sec = parser["bounds"]
    if ("lam" in sec) != ("lag" in sec):
        _fail("bounds", "lam", "lam and lag must be given together")
    given = gamma = None
    if "lam" in sec:
        lam = _get_float(sec, "bounds", "lam")
        lag = _get_int(sec, "bounds", "lag")
        given = _build("bounds", "lam", lambda: DoeblinParams(lam=lam, lag=lag))
    if "gamma" in sec:
        gamma = _get_float(sec, "bounds", "gamma")
        if gamma < 0:
            _fail("bounds", "gamma", "must be >= 0")
    chains = cfg.scenario.finite_chains() if cfg.scenario.kind == "finite" else None
    if given is not None:
        certificates, lifted = (given, given), ("bounds", "lag")
    elif chains is not None:
        pre, post = chains
        certificates = (
            _build("scenario", "pre_matrix", lambda: doeblin_of_finite(pre)),
            _build("scenario", "post_matrix", lambda: doeblin_of_finite(post)),
        )
        lifted = ("detector", "window")
    else:
        return BoundsSection(gamma=gamma)
    if chains is not None and gamma is None:
        gamma = exact_mmd_finite(cfg.detector.kernel, *chains)

    def lift(certificate: DoeblinParams) -> DoeblinParams:
        # the scores are a function of the sliding block of window + 1 states
        return _build(*lifted, lambda: buffer_doeblin(certificate, cfg.detector.window))

    return BoundsSection(lift(certificates[0]), lift(certificates[1]), gamma)


def _check_memory(cfg: ExperimentConfig) -> None:
    """Reject a config whose arrays, which a run holds at the same time,
    need more bytes together than the machine's physical memory, before
    a run asks for them; the key with the largest share is named:

    - ``detector.window``: the block scorer's buffers and, on a finite
      chain, its pair table (:func:`~kcusum.detector.scorer_floats`);
    - ``detector.reference``: the ``reference - 1`` lifted pairs of
      ``2 * dim`` floats, the peak of grouping them while the self-term
      is built (four copies and seven floats per pair), the
      ``reference`` observations of ``dim`` floats and, on continuous
      data, the scorer's copy of them followed by ``window`` lags
      (:func:`~kcusum.detector.reference_floats`);
    - ``detector.holdout``, when calibrating: the holdout trajectory of
      ``holdout * dim`` floats;
    - ``scenario.length``, in a trace: its trajectory of ``length * dim``
      floats.

    A csv scenario's reference, holdout and trajectory are rows of its
    file, so only its window is checked here.
    """
    memory = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    process, det = cfg.scenario.process, cfg.detector
    table = cfg.scenario.kind == "finite"
    floats = [("detector", "window", scorer_floats(det.window, table))]
    if process is not None:
        dim = process.dim
        floats.append(("detector", "reference",
                       reference_floats(det.reference - 1, dim, det.window, table)))
        if det.correction == "calibrate":
            floats.append(("detector", "holdout", det.holdout * dim))
        if cfg.campaign.mode == "trace":
            floats.append(("scenario", "length", process.length * dim))
    needed = 8 * sum(count for _, _, count in floats)
    if needed > memory:
        section, key, count = max(floats, key=lambda entry: entry[2])
        _fail(section, key, f"needs {8 * count} of the {needed} bytes a run holds at once, "
              f"more than the {memory} bytes of memory on this machine")


def parse_config_text(text: str, overrides: dict | None = None) -> ExperimentConfig:
    """Parse configuration text; raise :class:`ConfigError` on any defect.

    ``overrides`` maps ``"section.key"`` to a value that replaces the
    text's before validation, so a command-line value passes the same
    checks as one written in the file.
    """
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"config syntax: {exc}") from exc
    for name, value in (overrides or {}).items():
        section, key = name.split(".")
        if section in parser:  # a missing section stays an error
            parser[section][key] = str(value)
    known = {"scenario", "detector", "campaign", "output", "bounds"}
    unknown = set(parser.sections()) - known
    if unknown:
        raise ConfigError(f"{sorted(unknown)[0]}: unknown section")
    cfg = ExperimentConfig(
        scenario=_parse_scenario(parser),
        detector=_parse_detector(parser),
        campaign=_parse_campaign(parser),
        output=_parse_output(parser),
    )
    if cfg.campaign.mode == "md" and cfg.scenario.change_at is None:
        _fail("campaign", "mode", "md campaigns need scenario.change_at set")
    if cfg.campaign.mode == "md" and cfg.scenario.change_at <= cfg.detector.window:
        _fail("scenario", "change_at",
              "must exceed detector.window in md campaigns, so pre-change statistics exist")
    if cfg.campaign.mode == "mtbfa" and cfg.scenario.change_at is not None:
        _fail("campaign", "mode", "mtbfa campaigns need scenario.change_at = none")
    if cfg.scenario.kind == "csv" and cfg.campaign.mode != "trace":
        _fail("campaign", "mode", "csv scenarios support trace mode only")
    if cfg.campaign.mode != "trace":
        # a campaign's largest horizon, in statistics, sizes its trajectories
        try:
            horizon = cfg.horizons[-1]
        except OverflowError:  # a product beyond the float range
            horizon = math.inf
        if horizon >= 2**53:
            _fail("campaign", "horizon_factor",
                  "ceil(horizon_factor * (largest threshold + min_sample)) must be below 2**53")
    _check_memory(cfg)
    return replace(cfg, bounds=_parse_bounds(parser, cfg))


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read and parse a config file; raise :class:`ConfigError` on defects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return parse_config_text(text, overrides)
