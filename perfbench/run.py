#!/usr/bin/env python3
"""kcusum benchmark: online scoring and Monte Carlo campaigns.

Run from the root of a checkout:

    python3 perfbench/run.py --workload ar-stream --seed 1 --seconds 32 --trace 0
    python3 perfbench/run.py --workload all --seed 1      # every workload
    python3 perfbench/run.py --workload all --tiny        # seconds-long self-check

Each workload run is one process with one caller.  With ``--trace 0``
the last line of standard output is a JSON object with the end-to-end
metrics; with ``--trace 1`` a fixed amount of work runs in units that
alternate without and with spans around kcusum's public functions, and
the JSON holds the per-layer metrics.  Every output is checked against ``oracle.py``; a
failed check counts its operation as failed and the exit code is 1.
See README.md for the workloads, metrics and measured spreads.
"""

from __future__ import annotations

import argparse
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager, nullcontext, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench"
sys.path.insert(0, str(HERE))

import oracle  # noqa: E402
from spans import Tracer  # noqa: E402

TOL = 1e-9  # oracle agreement, absolute, on discrepancies and statistics
EPISODE_STREAM = 1000  # probe episodes use streams the harness never touches
SAMPLED_STEPS = 4  # consecutive statistics checked against the oracle ...
ORACLE_EVERY = 3  # ... in every third episode
SETUP_REPEATS = 3
CAMPAIGN_SHARE = 0.75  # share of --seconds spent in CLI rounds on campaign workloads;
# the rest goes to online episodes run after each round, in proportion to its time
TRACE_UNITS = 8  # fixed work of a traced run: episodes each way ...
TRACE_ROUNDS = 2  # ... and CLI rounds each way on campaign workloads


@dataclass(frozen=True)
class Workload:
    """One set of inputs.  ``sections`` is written out as the config file."""

    name: str
    sections: dict
    tiny: dict = field(default_factory=dict)  # overrides for --tiny

    @property
    def mode(self) -> str:
        """trace (online loop only), mtbfa or md (CLI rounds, then the online loop)."""
        return self.sections["campaign"]["mode"]

    def params(self, tiny: bool) -> dict:
        out = {name: dict(values) for name, values in self.sections.items()}
        if tiny:
            for key, value in self.tiny.items():
                section, name = key.split(".")
                out[section][name] = value
        return out


WORKLOADS = {
    w.name: w
    for w in (
        # online monitoring: m x m self-term in set-up, 1 x m cross row per step
        Workload(
            "ar-stream",
            {
                "scenario": {"kind": "ar-variance", "change_at": 600, "length": 1200,
                             "pre_variance": 0.1, "post_variance": 0.2},
                "detector": {"window": 200, "min_sample": 10, "threshold": 5.0,
                             "reference": 2001, "holdout": 1000, "bandwidths": "0.1,1,10",
                             "correction": "calibrate", "quantile": 1.0, "margin": 0.01},
                "campaign": {"mode": "trace"},
            },
            {"scenario.change_at": 300, "scenario.length": 600, "detector.window": 50,
             "detector.reference": 401, "detector.holdout": 300},
        ),
        # small window and reference: per-call overhead dominates a step
        Workload(
            "ar-mtbfa",
            {
                "scenario": {"kind": "ar-variance", "change_at": "none"},
                "detector": {"window": 50, "min_sample": 10, "threshold": 5.0,
                             "reference": 501, "holdout": 2000, "bandwidths": "0.1,1,10",
                             "correction": "calibrate", "quantile": 0.25, "margin": 0.01},
                "campaign": {"mode": "mtbfa", "replications": 12, "thresholds": "1,2,4",
                             "horizon_factor": 50},
            },
            {"detector.window": 10, "detector.reference": 101, "detector.holdout": 400,
             "campaign.replications": 3},
        ),
        # two-state chain: four distinct lifted pairs, exact theory column
        Workload(
            "finite-md",
            {
                "scenario": {"kind": "finite", "states": "0;1", "change_at": 300,
                             "pre_matrix": "0.9,0.1;0.2,0.8",
                             "post_matrix": "0.8,0.2;0.2,0.8"},
                "detector": {"window": 200, "min_sample": 10, "threshold": 5.0,
                             "reference": 2001, "holdout": 4000, "bandwidths": "1",
                             "correction": "calibrate", "quantile": 0.5, "margin": 0.005},
                "campaign": {"mode": "md", "replications": 8, "thresholds": "10,15,20",
                             "horizon_factor": 40},
            },
            {"scenario.change_at": 60, "detector.window": 20, "detector.reference": 401,
             "detector.holdout": 800, "campaign.replications": 3},
        ),
    )
}


def config_text(p: dict, seed: int, out_dir: Path) -> str:
    """The config file a user would write.  ``campaign.threads``,
    ``scenario.dim``, ``bounds.norm_f`` and ``output.formats`` stay unset."""
    sections = {**p, "campaign": {**p["campaign"], "seed": seed}, "output": {"directory": out_dir}}
    lines = []
    for section, values in sections.items():
        lines.append(f"[{section}]")
        lines += [f"{key} = {value}" for key, value in values.items()]
    return "\n".join(lines) + "\n"


def _floats(text) -> list:
    return [float(v) for v in str(text).split(",")]


def _matrix(text: str) -> np.ndarray:
    return np.array([_floats(row) for row in text.split(";")])


class Spec:
    """Numbers the benchmark and its oracle need, read from the params."""

    def __init__(self, p: dict):
        d, c, s = p["detector"], p["campaign"], p["scenario"]
        self.window = int(d["window"])
        self.min_sample = int(d["min_sample"])
        self.threshold = float(d["threshold"])
        self.reference = int(d["reference"])
        self.holdout = int(d["holdout"])
        self.bandwidths = _floats(d["bandwidths"])
        self.weights = [1.0 / len(self.bandwidths)] * len(self.bandwidths)
        self.quantile = float(d["quantile"])
        self.margin = float(d["margin"])
        self.finite = s["kind"] == "finite"
        self.change_at = None if s["change_at"] == "none" else int(s["change_at"])
        self.replications = int(c.get("replications", 0))
        self.thresholds = _floats(c["thresholds"]) if "thresholds" in c else []
        hf = int(c.get("horizon_factor", 50))
        self.horizons = [math.ceil(hf * (b + self.min_sample)) for b in self.thresholds]
        if c["mode"] == "mtbfa":
            self.length = self.horizons[-1] + self.window
        elif c["mode"] == "md":
            self.length = self.change_at + self.horizons[-1] + self.window
        else:
            self.length = int(s["length"])
        if self.finite:
            self.states = _matrix(s["states"])
            self.pre = _matrix(s["pre_matrix"])
            self.post = _matrix(s["post_matrix"])


# -- program access ----------------------------------------------------------


def import_program():
    """Import kcusum from this checkout's ``src`` and nowhere else."""
    init = ROOT / "src" / "kcusum" / "__init__.py"
    if not init.is_file():
        sys.exit(f"perfbench: {init} not found; run from a kcusum checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import kcusum
    import kcusum.cli
    import kcusum.harness
    import kcusum.svgplot  # noqa: F401  imported lazily by the harness; traced like the rest

    if Path(kcusum.__file__).resolve() != init.resolve():
        sys.exit(f"perfbench: imported kcusum from {kcusum.__file__}, expected {init}")
    return kcusum


def quiet_trajectory(kc, cfg, spec: Spec, length: int, seed: int, stream: int):
    """Pre-change data, as the harness draws reference and holdout."""
    if spec.finite:
        pre, _ = cfg.scenario.finite_chains()
        return kc.simulate_finite(pre, length, seed, stream)
    base = cfg.scenario.ar_scenario()
    return kc.simulate_ar(replace(base, post_noise=None, change_at=None, length=length), seed, stream)


def monitored_trajectory(kc, cfg, spec: Spec, length: int, seed: int, stream: int):
    """Monitored data of the workload's law, change included."""
    if spec.finite:
        pre, post = cfg.scenario.finite_chains()
        scn = kc.FiniteScenario(pre=pre, post=post, change_at=spec.change_at, length=length)
        return kc.simulate_finite_scenario(scn, seed, stream)
    return kc.simulate_ar(replace(cfg.scenario.ar_scenario(), length=length), seed, stream)


# -- checks ------------------------------------------------------------------


class Ledger:
    """Operations attempted and failed, plus run-level check failures."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.problems: list[str] = []

    def fail(self, ops: int, message: str) -> None:
        self.failed += ops
        if len(self.problems) < 20:
            self.problems.append(message)

    def check(self, ok: bool, message: str) -> bool:
        if not ok:
            self.correct = False
            if len(self.problems) < 20:
                self.problems.append(message)
        return ok


class Truth:
    """Oracle view of the reference set and the calibrated correction."""

    def __init__(self, kc, cfg, spec: Spec, seed: int, ledger: Ledger, ctx):
        w, s = spec.weights, spec.bandwidths
        self.ref_pairs = oracle.lift(quiet_trajectory(kc, cfg, spec, spec.reference, seed, kc.harness.REFERENCE_STREAM))
        ledger.check(
            np.array_equal(self.ref_pairs, ctx.reference.pairs),
            "reference pairs differ from the lifted reference trajectory",
        )
        self.ref_self = oracle.self_mean(w, s, self.ref_pairs)
        holdout = quiet_trajectory(kc, cfg, spec, spec.holdout, seed, kc.harness.HOLDOUT_STREAM)
        values = oracle.window_discrepancies(w, s, oracle.lift(holdout), self.ref_pairs, self.ref_self, spec.window)
        self.correction = oracle.calibrated_correction(values, spec.quantile, spec.margin)
        ledger.check(
            abs(self.correction - ctx.correction) <= TOL,
            f"calibrated correction {ctx.correction!r} vs oracle {self.correction!r}",
        )


def _bits(out) -> tuple:
    def h(v):
        return None if v is None else float(v).hex()

    return (out.index, h(out.discrepancy), h(out.score), h(out.statistic), out.alarm)


def check_episode(spec: Spec, truth: Truth, traj, outs, rng, ledger: Ledger) -> None:
    """CUSUM over the whole episode, discrepancies at a sampled stretch."""
    r = spec.window
    stats = [(t, o) for t, o in enumerate(outs, start=1) if o.index is not None]
    expected = oracle.cusum_series([o.score for _, o in stats], spec.min_sample)
    for (t, o), want in zip(stats, expected):
        same = (o.statistic == want == -math.inf) or abs(o.statistic - want) <= TOL
        if not same:
            ledger.fail(1, f"step t={t}: statistic {o.statistic!r} vs oracle {want!r}")
    if rng is not None and len(stats) >= SAMPLED_STEPS:
        k = int(rng.integers(0, len(stats) - SAMPLED_STEPS + 1))
        first = stats[k][0]
        pairs = oracle.lift(traj[first - r - 1 : first + SAMPLED_STEPS - 1])
        want = oracle.window_discrepancies(
            spec.weights, spec.bandwidths, pairs, truth.ref_pairs, truth.ref_self, r
        )
        for (t, o), d in zip(stats[k : k + SAMPLED_STEPS], want):
            if abs(o.discrepancy - d) > TOL:
                ledger.fail(1, f"step t={t}: discrepancy {o.discrepancy!r} vs oracle {d!r}")


# -- timed phases ------------------------------------------------------------


class StreamResult:
    """Timings of the online loop, kept per unit (episode or restore).
    A run may fill one result over several calls of ``stream_phase``."""

    def __init__(self, seed: int):
        self.rng = np.random.default_rng([seed, 7])  # picks the oracle-checked steps
        self.steps = 0
        self.restore_ns: list[int] = []
        self.episode_busy_ns: list[int] = []  # time in step and restore calls
        self.episode_p50_ns: list[float] = []  # median step latency

    @property
    def busy_ns(self) -> int:
        return sum(self.episode_busy_ns)


def stream_phase(kc, cfg, spec, ctx, truth, seed, ledger, *, budget_s=None, episodes=None,
                 tracer=None, res=None) -> StreamResult:
    """Closed loop: one observation per ``step`` call, the next one sent
    only after the previous call returned.  Two checkpoint -> restore round
    trips per episode, at one and two thirds; the loop continues on the
    restored detector and the uninterrupted one must give bit-identical
    outcomes for the next observation.

    Given ``res``, episodes continue where the last call stopped, until
    the busy time of all of them reaches ``budget_s``.  With a tracer,
    episodes alternate between spans off and on over the same
    trajectories, so both halves see the same data and machine."""
    res = res if res is not None else StreamResult(seed)
    dcfg = kc.DetectorConfig(window=spec.window, min_sample=spec.min_sample,
                             threshold=spec.threshold, correction=ctx.correction)
    paused = tracer.paused if tracer is not None else nullcontext
    clock = time.perf_counter_ns
    e = len(res.episode_busy_ns)
    while (res.busy_ns < budget_s * 1e9) if episodes is None else (e < episodes):
        if tracer is not None:
            tracer.active = e % 2 == 1
        with paused():
            index = e // 2 if tracer is not None else e
            traj = monitored_trajectory(kc, cfg, spec, spec.length, seed, EPISODE_STREAM + index)
        cuts = (len(traj) // 3, 2 * len(traj) // 3)
        step_ns = []
        busy = 0
        det = kc.KernelCusumDetector(ctx.reference, dcfg)
        outs = []
        twin = None
        for t, x in enumerate(traj, start=1):
            t0 = clock()
            out = det.step(x)
            dt = clock() - t0
            step_ns.append(dt)
            busy += dt
            outs.append(out)
            if twin is not None:
                with paused():
                    same = _bits(twin.step(x)) == _bits(out)
                if not same:
                    ledger.fail(1, f"restore before t={t}: outcome differs from uninterrupted run")
                twin = None
            if t in cuts:
                t0 = clock()
                text = det.checkpoint()
                restored = kc.KernelCusumDetector.restore(ctx.reference, dcfg, text)
                dt = clock() - t0
                res.restore_ns.append(dt)
                busy += dt
                twin, det = det, restored
        res.steps += len(step_ns)
        res.episode_busy_ns.append(busy)
        res.episode_p50_ns.append(float(np.median(step_ns)))
        ledger.attempted += len(traj) + len(cuts)
        with paused():
            check_episode(spec, truth, traj, outs, res.rng if e % ORACLE_EVERY == 0 else None, ledger)
        e += 1
    if tracer is not None:
        tracer.active = False
    return res


def campaign_oracle(kc, cfg, spec, seed, truth, csv_text, bounds_text, ledger) -> bool:
    """Recompute every campaign.csv row from the replication trajectories."""
    r = spec.window
    theory = [None] * len(spec.thresholds)  # no Doeblin certificate for AR scenarios
    if spec.finite:
        theory = oracle.md_ceilings(
            spec.states, spec.pre, spec.post, spec.weights, spec.bandwidths, r,
            spec.min_sample, truth.correction, spec.thresholds,
        )
    hits = []
    for i in range(spec.replications):
        traj = monitored_trajectory(kc, cfg, spec, spec.length, seed, kc.harness.REPLICATION_STREAM_BASE + i)
        d = oracle.window_discrepancies(
            spec.weights, spec.bandwidths, oracle.lift(traj), truth.ref_pairs, truth.ref_self, r
        )
        series = oracle.cusum_series(d - truth.correction, spec.min_sample)
        hits.append(oracle.crossing_times(series, spec.thresholds))
    if cfg.campaign.mode == "mtbfa":
        want = oracle.mtbfa_rows(hits, spec.thresholds, spec.horizons, theory)
    else:
        want = oracle.md_rows(hits, spec.thresholds, spec.horizons, spec.change_at - r, theory)

    def close(a, b):
        if a is None or b is None:
            return a is None and b is None
        return a == b or abs(a - b) <= 1e-9 * max(1.0, abs(b))

    lines = csv_text.strip().splitlines()
    ok = ledger.check(lines[0] == "b,empirical_mean,std_error,n_runs,theory_bound",
                      f"campaign.csv header {lines[0]!r}")
    ok &= ledger.check(len(lines) - 1 == len(want), f"campaign.csv has {len(lines) - 1} rows, oracle {len(want)}")
    for line, row in zip(lines[1:], want):
        cells = [None if c == "" else float(c) for c in line.split(",")]
        got = (cells[0], cells[1], cells[2], int(cells[3]), cells[4])
        same = got[0] == row[0] and got[3] == row[3] and all(close(got[k], row[k]) for k in (1, 2, 4))
        ok &= ledger.check(same, f"campaign.csv row {line!r} vs oracle {row!r}")
        if cfg.campaign.mode == "md":
            ok &= ledger.check(got[4] is not None and got[1] <= got[4],
                               f"b={got[0]!r}: mean delay {got[1]!r} above its ceiling {got[4]!r}")
    stated = [ln for ln in bounds_text.splitlines() if ln.startswith("correction: ")]
    ok &= ledger.check(
        len(stated) == 1 and abs(float(stated[0].split(": ")[1]) - truth.correction) <= TOL,
        f"bounds.txt correction {stated!r} vs oracle {truth.correction!r}",
    )
    return ok


def campaign_phase(kc, cfg_path, cfg, spec, seed, truth, ledger, work, *,
                   budget_s=None, rounds=None, tracer=None, after_round=None) -> list:
    """Run the campaign CLI command in whole rounds; returns each round's
    wall time.  Every round repeats the same seed, so every campaign.csv
    must equal the first byte for byte.  With a tracer, spans are on in
    every second round.  ``after_round(spent)`` is called after each
    round with the CLI time spent so far."""
    times = []
    spent = 0.0
    first = None
    k = 0
    # whole rounds only: stop before a round that would end past the budget
    while (k < 2 or spent * (k + 1) / k <= budget_s) if rounds is None else (k < rounds):
        out = work / f"round-{k}"
        sink = io.StringIO()
        if tracer is not None:
            tracer.active = k % 2 == 1
        t0 = time.perf_counter()
        with redirect_stdout(sink), redirect_stderr(sink):
            code = kc.cli.main([cfg.campaign.mode, "--config", str(cfg_path), "--out", str(out)])
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.active = False
        spent += dt
        times.append(dt)
        ledger.attempted += spec.replications
        ok = ledger.check(code == 0, f"round {k}: kcusum {cfg.campaign.mode} exited {code}")
        if ok and first is None:
            first = (out / "campaign.csv").read_bytes()
            ok = campaign_oracle(kc, cfg, spec, seed, truth, first.decode(),
                                 (out / "bounds.txt").read_text(), ledger)
        elif ok:
            ok = ledger.check((out / "campaign.csv").read_bytes() == first,
                              f"round {k}: campaign.csv differs from round 0")
        if not ok:
            ledger.fail(spec.replications, f"round {k}: {spec.replications} replications failed")
        shutil.rmtree(out, ignore_errors=True)
        k += 1
        if after_round is not None:
            after_round(spent)
    return times


# -- one workload run --------------------------------------------------------


def setup_phase(kc, text: str, seed: int, repeats: int):
    """``setup_s``: config parse plus ``build_context``, median of repeats."""
    times = []
    for _ in range(repeats):
        t0 = time.perf_counter()
        cfg = kc.parse_config_text(text)
        ctx = kc.build_context(cfg, seed)
        times.append(time.perf_counter() - t0)
    return times, cfg, ctx


def slow(values) -> float:
    """90th percentile over a run's units (episodes, restores, CLI rounds).

    On a shared machine the program mostly runs in one contended state
    whose speed repeats within a few percent, with bursts of up to 1.6x
    speed whose share changes from run to run; a median moves with that
    share, the 90th percentile stays with the common state."""
    return float(np.percentile(values, 90))


def metric(value, unit):
    return {"value": float(value), "unit": unit}


@contextmanager
def workspace(w: Workload, seed: int, tiny: bool):
    """Program, numbers and config file of one run, in a directory of the
    checkout that is removed when the run ends.  The directory name is
    unique even when runs in separate process namespaces share a pid."""
    kc = import_program()
    WORK.mkdir(parents=True, exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{w.name}-", dir=WORK))
    try:
        text = config_text(w.params(tiny), seed, work / "out")
        cfg_path = work / "workload.ini"
        cfg_path.write_text(text, encoding="utf-8")
        yield kc, Spec(w.params(tiny)), text, cfg_path, work
    finally:
        shutil.rmtree(work, ignore_errors=True)


def run_workload(w: Workload, seed: int, seconds: float, tiny: bool) -> tuple:
    with workspace(w, seed, tiny) as (kc, spec, text, cfg_path, work):
        ledger = Ledger()
        setup_times, cfg, ctx = setup_phase(kc, text, seed, 1 if tiny else SETUP_REPEATS)
        truth = Truth(kc, cfg, spec, seed, ledger, ctx)
        res = StreamResult(seed)
        rounds = []
        if w.mode != "trace":
            # online episodes between the rounds, so a slow spell of the
            # machine falls on both halves of the run alike
            rounds = campaign_phase(
                kc, cfg_path, cfg, spec, seed, truth, ledger, work, budget_s=seconds * CAMPAIGN_SHARE,
                after_round=lambda spent: stream_phase(
                    kc, cfg, spec, ctx, truth, seed, ledger, res=res,
                    budget_s=spent * (1.0 - CAMPAIGN_SHARE) / CAMPAIGN_SHARE,
                ),
            )
        else:
            stream_phase(kc, cfg, spec, ctx, truth, seed, ledger, res=res, budget_s=seconds)
        if w.mode == "trace":
            obs_per_s = spec.length / (slow(res.episode_busy_ns) / 1e9)
        else:
            obs_per_s = spec.replications * spec.length / slow(rounds)
            print(f"CLI rounds: {len(rounds)}, wall s: " + ", ".join(f"{t:.3f}" for t in rounds))
        metrics = {
            "setup_s": metric(statistics.median(setup_times), "s"),
            "obs_per_s": metric(obs_per_s, "1/s"),
            "peak_rss_mib": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MiB"),
            "step_p50_us": metric(slow(res.episode_p50_ns) / 1e3, "us"),
            "restore_ms": metric(slow(res.restore_ns) / 1e6, "ms"),
        }
        print(f"episodes: {len(res.episode_busy_ns)}, steps: {res.steps}, restores: {len(res.restore_ns)}")
        return ledger, metrics


def run_traced(w: Workload, seed: int, tiny: bool) -> tuple:
    """Fixed work in alternating units without and with spans: per-layer
    self times and counts come from the units with spans, and the ratio of
    the two halves' times is the tracing overhead."""
    tracer = Tracer()
    with workspace(w, seed, tiny) as (kc, spec, text, cfg_path, work):
        ledger = Ledger()
        _, cfg, ctx = setup_phase(kc, text, seed, 1)
        truth = Truth(kc, cfg, spec, seed, ledger, ctx)
        units = 2 if tiny else TRACE_UNITS
        tracer.install()
        try:
            with tracer.recording():
                setup_phase(kc, text, seed, 1)
            rounds = []
            if w.mode != "trace":
                rounds = campaign_phase(kc, cfg_path, cfg, spec, seed, truth, ledger, work,
                                        rounds=2 * (1 if tiny else TRACE_ROUNDS), tracer=tracer)
            res = stream_phase(kc, cfg, spec, ctx, truth, seed, ledger, episodes=2 * units, tracer=tracer)
        finally:
            tracer.uninstall()
        phases = {"cli": rounds, "stream": res.episode_busy_ns} if rounds else {"stream": res.episode_busy_ns}
        overhead = {
            f"tracing_overhead_pct.{name}": 100.0 * (sum(times[1::2]) / sum(times[0::2]) - 1.0)
            for name, times in phases.items()
        }
        t = tracer
        layers = {
            "kernels.gram_s": (t.layer_self_s("kernels"), "s"),
            "kernels.gram_calls": (t.calls("kernels.KernelSpec.gram"), "count"),
            "kernels.entries": (t.count("kernels.KernelSpec.gram"), "count"),
            "detector.step_self_s": (t.self_s("detector.KernelCusumDetector.step"), "s"),
            "detector.cusum_s": (t.self_s("detector.CusumStream.update"), "s"),
            "detector.reference_s": (t.self_s("detector.build_reference", "detector.ReferenceSet.__post_init__"), "s"),
            "detector.calibrate_s": (t.self_s("detector.calibrate_correction"), "s"),
            "detector.checkpoint_s": (t.self_s("detector.KernelCusumDetector.checkpoint"), "s"),
            "detector.restore_s": (t.self_s("detector.KernelCusumDetector.restore"), "s"),
            "simulate.trajectory_s": (t.self_s("simulate.simulate_ar", "simulate.simulate_finite",
                                               "simulate.simulate_finite_scenario"), "s"),
            "simulate.obs": (t.count("simulate.simulate_ar", "simulate.simulate_finite",
                                     "simulate.simulate_finite_scenario"), "count"),
            "harness.self_s": (t.layer_self_s("harness"), "s"),
            "config.parse_s": (t.layer_self_s("config"), "s"),
        }
        # layers that do not run on every workload are reported here only
        extra = {
            "harness.campaign_self_s": t.self_s("harness.run_mtbfa_campaign", "harness.run_md_campaign"),
            "harness.output_s": t.self_s(*(f"harness.write_{n}" for n in
                                           ("trace_csv", "campaign_csv", "bounds_txt", "notes"))),
            "svgplot.s": t.layer_self_s("svgplot"),
            "bounds.s": t.layer_self_s("bounds"),
            "mmd.s": t.layer_self_s("mmd"),
            "cli.s": t.layer_self_s("cli"),
            **overhead,
        }
        for name, value in extra.items():
            print(f"{name}: {value:.6f}")
        # written in the run's own directory, then renamed: a concurrent run never reads half a file
        part = work / "trace.json"
        part.write_text(
            json.dumps({"workload": w.name, "seed": seed, "spans": t.table(), "extra": extra}, indent=1)
        )
        os.replace(part, WORK / f"trace-{w.name}.json")
        return ledger, {name: metric(v, unit) for name, (v, unit) in layers.items()}


# -- self-check and entry point ----------------------------------------------


def oracle_self_check() -> list:
    """Compare the vectorised oracle with plain double loops on small inputs."""
    rng = np.random.default_rng(11)
    w, s = [0.3, 0.7], [0.5, 2.0]
    problems = []
    traj = rng.normal(size=(40, 2))
    traj[10:14] = traj[3]  # repeated pairs exercise the deduplicated cross rows
    pairs = oracle.lift(traj)
    ref = oracle.lift(rng.normal(size=(13, 2)))
    ref_self = oracle.self_mean(w, s, ref)
    r = 6
    fast = oracle.window_discrepancies(w, s, pairs, ref, ref_self, r)
    for j, value in enumerate(fast):
        want = oracle.naive_discrepancy(w, s, pairs[j : j + r], ref)
        if abs(value - want) > 1e-12:
            problems.append(f"window {j}: {value!r} vs double loop {want!r}")
    scores = list(rng.normal(size=60))
    for got, want in zip(oracle.cusum_series(scores, 4), oracle.naive_cusum(scores, 4)):
        if not (got == want == -math.inf or abs(got - want) <= 1e-12):
            problems.append(f"cusum {got!r} vs enumeration {want!r}")
    values = rng.random(37)
    for q in (0.25, 0.5, 0.9, 1.0):
        got = oracle.calibrated_correction(values, q, 0.0)
        if abs(got - float(np.quantile(values, q))) > 1e-15:
            problems.append(f"quantile {q}: {got!r}")
    return problems


def run_all(args) -> int:
    """Each workload in a fresh process; print every metric by name and unit."""
    worst = 0
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.tiny:
            cmd.append("--tiny")
        proc = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=900)
        worst = max(worst, proc.returncode)
        lines = proc.stdout.strip().splitlines()
        print(f"== {name} (exit {proc.returncode})")
        try:
            result = json.loads(lines[-1])
        except (IndexError, json.JSONDecodeError):
            print(proc.stdout + proc.stderr)
            worst = max(worst, 1)
            continue
        print(f"   attempted {result['attempted']}, failed {result['failed']}, correct {result['correct']}")
        for key, m in result["metrics"].items():
            print(f"   {key:24s} {m['value']:14.6g} {m['unit']}")
        if proc.returncode:
            print(proc.stderr)
    return worst


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=32.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="small inputs and a check of the oracle against double loops")
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2**64:
        parser.error("--seed must fit in an unsigned 64-bit integer")
    if args.workload == "all":
        return run_all(args)
    if args.tiny:
        problems = oracle_self_check()
        if problems:
            print("oracle self-check failed:\n" + "\n".join(problems), file=sys.stderr)
            return 1
        print("oracle self-check: vectorised oracle matches the double loops")
    w = WORKLOADS[args.workload]
    if args.trace:
        ledger, metrics = run_traced(w, args.seed, args.tiny)
    else:
        ledger, metrics = run_workload(w, args.seed, args.seconds, args.tiny)
    for problem in ledger.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(json.dumps({"correct": ledger.correct, "attempted": ledger.attempted,
                      "failed": ledger.failed, "metrics": metrics}))
    return 0 if ledger.correct and ledger.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
