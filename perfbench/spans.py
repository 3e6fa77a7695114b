"""Spans around kcusum's public functions, installed from outside the package.

Each wrapped call records its duration; the time covered by wrapped
calls made inside it is subtracted, which leaves the call's self time.
Self time and call count are summed per span name in memory and
written out when the run ends.

A name imported into another module (the harness imports the
``simulate_*`` functions, the CLI imports ``build_context``) is looked up
there, not in the defining module, so every module of the package that
holds the original object gets the wrapper.
"""

from __future__ import annotations

import functools
import importlib
import threading
import time
from contextlib import contextmanager

# (module, public name) pairs traced as spans; ``Class.method`` wraps a
# method on the class, so every caller sees it.  Validators such as
# ``as_points`` are left out: they would only add wrapper cost.
SPANS = {
    "config": ["parse_config_text", "load_config"],
    "kernels": ["KernelSpec.gram", "KernelSpec.gram_sum", "KernelSpec.eval", "compensated_sum"],
    "mmd": ["lift", "mmd_squared", "mmd", "consistency_bound"],
    "detector": [
        "build_reference",
        "ReferenceSet.__post_init__",
        "calibrate_correction",
        "KernelCusumDetector.step",
        "KernelCusumDetector.extend",
        "KernelCusumDetector.checkpoint",
        "KernelCusumDetector.restore",
        "CusumStream.update",
    ],
    "simulate": [
        "simulate_ar",
        "simulate_finite",
        "simulate_finite_scenario",
        "stationary_distribution",
        "exact_mmd_finite",
        "doeblin_of_finite",
        "load_trajectory",
    ],
    "bounds": [
        "sigma_from_doeblin",
        "buffer_doeblin",
        "hoeffding_tail",
        "mtbfa_lower_bound",
        "md_upper_bound",
        "bound_report",
    ],
    "harness": [
        "build_context",
        "run_trace",
        "run_mtbfa_campaign",
        "run_md_campaign",
        "write_trace_csv",
        "write_campaign_csv",
        "write_bounds_txt",
        "write_notes",
        "run_experiment",
    ],
    "svgplot": ["trace_panels", "campaign_panel", "render_lines"],
    "cli": ["main"],
}

MODULES = tuple(SPANS)


def _gram_entries(args, result) -> int:
    return int(result.size) * int(args[0].n_components)


def _rows(args, result) -> int:
    return int(result.shape[0])


# extra count recorded per call, next to the call count
COUNTERS = {
    "kernels.KernelSpec.gram": _gram_entries,
    "simulate.simulate_ar": _rows,
    "simulate.simulate_finite": _rows,
    "simulate.simulate_finite_scenario": _rows,
}


class Tracer:
    """Installs span wrappers; ``active`` switches recording on and off."""

    def __init__(self):
        self.active = False
        self.stats: dict[str, list] = {}  # name -> [calls, self_ns, total_ns, count]
        self._local = threading.local()
        self._lock = threading.Lock()
        self._undo: list = []

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name: str, fn):
        tracer = self
        counter = COUNTERS.get(name)

        @functools.wraps(fn)
        def span(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            stack.append(0)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter_ns() - start
                child = stack.pop()
                if stack:
                    stack[-1] += elapsed
            extra = counter(args, result) if counter is not None else 0
            with tracer._lock:
                entry = tracer.stats.setdefault(name, [0, 0, 0, 0])
                entry[0] += 1
                entry[1] += elapsed - child
                entry[2] += elapsed
                entry[3] += extra
            return result

        return span

    def install(self) -> None:
        """Replace every traced name wherever the package holds it."""
        modules = {m: importlib.import_module(f"kcusum.{m}") for m in MODULES}
        holders = [importlib.import_module("kcusum"), *modules.values()]
        for layer, names in SPANS.items():
            module = modules[layer]
            for dotted in names:
                span_name = f"{layer}.{dotted}"
                if "." in dotted:
                    cls_name, meth = dotted.split(".")
                    cls = getattr(module, cls_name)
                    raw = cls.__dict__[meth]
                    if isinstance(raw, classmethod):
                        new = classmethod(self._wrap(span_name, raw.__func__))
                    else:
                        new = self._wrap(span_name, raw)
                    setattr(cls, meth, new)
                    self._undo.append((cls, meth, raw))
                    continue
                original = getattr(module, dotted)
                wrapper = self._wrap(span_name, original)
                for holder in holders:
                    for attr, value in list(vars(holder).items()):
                        if value is original:
                            setattr(holder, attr, wrapper)
                            self._undo.append((holder, attr, original))

    def uninstall(self) -> None:
        for target, attr, original in reversed(self._undo):
            setattr(target, attr, original)
        self._undo.clear()

    @contextmanager
    def recording(self):
        self.active = True
        try:
            yield self
        finally:
            self.active = False

    @contextmanager
    def paused(self):
        """Calls made by the benchmark's own checks are not program work."""
        was = self.active
        self.active = False
        try:
            yield
        finally:
            self.active = was

    def self_s(self, *names: str) -> float:
        return sum(self.stats.get(n, [0, 0])[1] for n in names) / 1e9

    def layer_self_s(self, layer: str) -> float:
        return sum(v[1] for k, v in self.stats.items() if k.startswith(layer + ".")) / 1e9

    def calls(self, name: str) -> int:
        return self.stats.get(name, [0])[0]

    def count(self, *names: str) -> int:
        return sum(self.stats.get(n, [0, 0, 0, 0])[3] for n in names)

    def table(self) -> dict:
        return {
            name: {"calls": v[0], "self_s": v[1] / 1e9, "total_s": v[2] / 1e9, "count": v[3]}
            for name, v in sorted(self.stats.items())
        }
