"""Experiment configuration: a sectioned key-value text format.

The file format is INI-style with four required sections --
``[scenario]``, ``[detector]``, ``[campaign]``, ``[output]`` -- and an
optional ``[bounds]`` section.  Unknown sections or keys are hard
errors: a silent typo in a campaign config would otherwise burn hours
of compute on the wrong experiment.  Every diagnostic names the
offending ``section.key``.
"""

from __future__ import annotations

import configparser
import math
from dataclasses import dataclass, field, replace

import numpy as np

from .bounds import DoeblinParams, buffer_doeblin
from .kernels import KernelSpec, as_points
from .simulate import ArScenario, FiniteChain, GaussianLaw, default_system_matrix

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
    "csv": {"kind", "length", "change_at", "path"},
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


def _get_int(section, name: str, key: str, default=None) -> int:
    raw = section.get(key)
    if raw is None:
        if default is None:
            _fail(name, key, "required key is missing")
        return default
    try:
        return int(raw)
    except ValueError:
        _fail(name, key, f"expected an integer, got {raw!r}")


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

    The parser builds the simulator inputs once: ``ar`` for the AR kinds,
    ``chains`` (pre, post) for the finite kind; the other is None.  The
    AR keys ``burn_in``, ``pre_variance``, ``post_variance`` and
    ``post_mean`` live only in ``ar``.
    """

    kind: str
    length: int
    change_at: int | None
    path: str | None
    ar: ArScenario | None = None
    chains: tuple[FiniteChain, FiniteChain] | None = None

    def ar_scenario(self) -> ArScenario:
        if self.ar is None:
            raise ConfigError(f"scenario.kind: {self.kind!r} is not an AR scenario")
        return self.ar

    def finite_chains(self) -> tuple[FiniteChain, FiniteChain]:
        if self.chains is None:
            raise ConfigError(f"scenario.kind: {self.kind!r} is not a finite scenario")
        return self.chains


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
    certificate: DoeblinParams | None
    gamma: float | None


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSection
    detector: DetectorSection
    campaign: CampaignSection
    output: OutputSection
    bounds: BoundsSection = field(
        default_factory=lambda: BoundsSection(certificate=None, gamma=None)
    )


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
    length = _get_int(sec, "scenario", "length", 2000)
    if length < 2:
        _fail("scenario", "length", "must be at least 2")
    raw_change = sec.get("change_at", "none")
    if raw_change.strip().lower() in ("none", "inf", ""):
        change_at = None
    else:
        change_at = _get_int(sec, "scenario", "change_at")
        if change_at < 1:
            _fail("scenario", "change_at", "must be >= 1 (or 'none')")
    burn_in = _get_int(sec, "scenario", "burn_in", 500)
    if burn_in < 0:
        _fail("scenario", "burn_in", "must be >= 0")
    pre_variance = _get_float(sec, "scenario", "pre_variance", 0.1)
    post_variance = _get_float(sec, "scenario", "post_variance", 0.2)
    post_mean = _get_float(sec, "scenario", "post_mean", 0.05)
    for key, variance in (("pre_variance", pre_variance), ("post_variance", post_variance)):
        if variance <= 0:
            _fail("scenario", key, "variances must be positive")

    matrix = default_system_matrix()
    if "matrix" in sec:
        matrix = _parse_matrix(sec["matrix"], "scenario", "matrix")

    ar = chains = None
    if kind in ("ar-variance", "ar-mean"):
        d = matrix.shape[0]
        post = None
        if change_at is not None:
            if kind == "ar-variance":
                post = GaussianLaw.isotropic(d, post_variance)
            else:
                post = GaussianLaw.isotropic(d, pre_variance, mean=post_mean)
        ar = _build("scenario", "matrix", lambda: ArScenario(
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
        chains = (pre, post)

    path = sec.get("path")
    if kind == "csv" and not path:
        _fail("scenario", "path", "required for csv scenarios")

    return ScenarioSection(
        kind=kind, length=length, change_at=change_at, path=path, ar=ar, chains=chains,
    )


def _parse_detector(parser: configparser.ConfigParser) -> DetectorSection:
    _check_keys(parser, "detector", _DETECTOR_KEYS)
    sec = parser["detector"]
    window = _get_int(sec, "detector", "window", 50)
    if window < 1:
        _fail("detector", "window", "must be >= 1")
    min_sample = _get_int(sec, "detector", "min_sample", 10)
    if min_sample < 1:
        _fail("detector", "min_sample", "must be >= 1")
    if min_sample >= 2**53:
        _fail("detector", "min_sample", "must be below 2**53")
    threshold = _get_float(sec, "detector", "threshold", 5.0)
    if threshold <= 0:
        _fail("detector", "threshold", "must be positive")
    reference = _get_int(sec, "detector", "reference", 500)
    if reference < 2:
        _fail("detector", "reference", "must be >= 2 observations")
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
    if replications < 1:
        _fail("campaign", "replications", "must be >= 1")
    thresholds = tuple(_parse_floats(sec.get("thresholds", "5"), "campaign", "thresholds"))
    if not thresholds:
        _fail("campaign", "thresholds", "must list at least one threshold")
    if not all(0 < b < math.inf for b in thresholds):
        _fail("campaign", "thresholds", "must be positive and finite")
    if any(b2 <= b1 for b1, b2 in zip(thresholds, thresholds[1:])):
        _fail("campaign", "thresholds", "must be strictly increasing")
    horizon_factor = _get_int(sec, "campaign", "horizon_factor", 50)
    if horizon_factor < 1:
        _fail("campaign", "horizon_factor", "must be >= 1")
    seed = _get_int(sec, "campaign", "seed", 0)
    if not 0 <= seed < 2**64:
        _fail("campaign", "seed", "must fit in an unsigned 64-bit integer")
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


def _parse_bounds(parser: configparser.ConfigParser) -> BoundsSection:
    if "bounds" not in parser:
        return BoundsSection(certificate=None, gamma=None)
    _check_keys(parser, "bounds", _BOUNDS_KEYS)
    sec = parser["bounds"]
    certificate = gamma = None
    if ("lam" in sec) != ("lag" in sec):
        _fail("bounds", "lam", "lam and lag must be given together")
    if "lam" in sec:
        lam = _get_float(sec, "bounds", "lam")
        lag = _get_int(sec, "bounds", "lag")
        # lam first, at a lag that always passes, so each key names its own fault
        certificate = _build("bounds", "lam", lambda: DoeblinParams(lam=lam, lag=1))
        certificate = _build("bounds", "lag", lambda: replace(certificate, lag=lag))
    if "gamma" in sec:
        gamma = _get_float(sec, "bounds", "gamma")
        if gamma < 0:
            _fail("bounds", "gamma", "must be >= 0")
    return BoundsSection(certificate=certificate, gamma=gamma)


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
        bounds=_parse_bounds(parser),
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
        camp = cfg.campaign
        try:
            horizon = math.ceil(camp.horizon_factor * (camp.thresholds[-1] + cfg.detector.min_sample))
        except OverflowError:  # a product beyond the float range
            horizon = math.inf
        if horizon >= 2**53:
            _fail("campaign", "horizon_factor",
                  "ceil(horizon_factor * (largest threshold + min_sample)) must be below 2**53")
    if cfg.bounds.certificate is not None:
        # the bounds read the certificate lifted over the window, whose lag is larger
        _build("bounds", "lag", lambda: buffer_doeblin(cfg.bounds.certificate, cfg.detector.window))
    return cfg


def load_config(path: str, overrides: dict | None = None) -> ExperimentConfig:
    """Read and parse a config file; raise :class:`ConfigError` on defects."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except OSError as exc:
        raise ConfigError(f"config file: {exc}") from exc
    return parse_config_text(text, overrides)
