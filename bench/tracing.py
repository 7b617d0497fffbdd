"""In-memory span tracer for sdprecode, installed from outside the package.

``Tracer`` replaces public callables of the package's modules with wrappers
that record one span per call (name, start, end, parent) and keep a few
small per-call observations (batch sizes, iteration counts, overload
flags). Channel and precoder functions are patched under the names
``sdprecode.sim.engine`` imported them by, since the engine calls them by
bare name; everything else is patched as a module attribute, which also
catches calls made inside its own module (``dual_apg`` calling
``project_simplex``, say). Leaving the ``with`` block restores every
original, so code run afterwards is untraced.

A span's self time is its duration minus the durations of its direct
children. ``one_bit`` runs once per antenna inside every modulator call;
it is recorded only when called from outside a modulator span.
"""

from __future__ import annotations

import importlib
import time
from collections import defaultdict

import numpy as np

LAYERS = ("cli", "sim", "channel", "precoder", "modulator", "optim",
          "analysis")

# (module, attribute, span name)
TARGETS = (
    ("sdprecode.cli", "main", "cli.main"),
    ("sdprecode.sim.engine", "run_ser", "sim.run_ser"),
    ("sdprecode.sim.engine", "decide", "channel.decide"),
    ("sdprecode.sim.engine", "bit_errors", "channel.bit_errors"),
    ("sdprecode.sim.engine", "iq_inf_norm", "precoder.iq_inf_norm"),
    ("sdprecode.sim.engine", "minimax_coefficients",
     "precoder.minimax_coefficients"),
    ("sdprecode.sim.engine", "nullspace_basis", "precoder.nullspace_basis"),
    ("sdprecode.modulator", "one_bit", "modulator.one_bit"),
    ("sdprecode.modulator", "sd_basic", "modulator.sd_basic"),
    ("sdprecode.modulator", "sd_angle_steered", "modulator.sd_angle_steered"),
    ("sdprecode.optim", "dual_apg", "optim.dual_apg"),
    ("sdprecode.optim", "primal_apg", "optim.primal_apg"),
    ("sdprecode.optim", "min_iq_inf_norm", "optim.min_iq_inf_norm"),
    ("sdprecode.optim", "spectral_norm_sq", "optim.spectral_norm_sq"),
    ("sdprecode.optim", "project_simplex", "optim.project_simplex"),
    ("sdprecode.analysis", "sep_bound", "analysis.sep_bound"),
)

MODULATORS = ("modulator.sd_basic", "modulator.sd_angle_steered")
SOLVERS = ("optim.dual_apg", "optim.primal_apg")


# Observers run after the span closes and keep references to small arrays
# only; reductions happen in ``summarize``, outside the traced rounds.
def _observe_modulator(args, kwargs, result):
    return np.size(args[0]), result.overloaded, result.peak_integrator


def _observe_decide(args, kwargs, result):
    return np.size(args[0])


def _observe_primal(args, kwargs, result):
    return result.iterations, result.converged, result.restarts


def _observe_dual(args, kwargs, result):
    return result.iterations, result.converged, result.restarts, result.gap


OBSERVERS = {
    "modulator.sd_basic": _observe_modulator,
    "modulator.sd_angle_steered": _observe_modulator,
    "channel.decide": _observe_decide,
    "optim.primal_apg": _observe_primal,
    "optim.dual_apg": _observe_dual,
}


class Tracer:
    """Collects spans while installed; use as a context manager.

    The same tracer may be entered several times; spans accumulate.
    """

    def __init__(self):
        self.spans = []            # [name, start, end, parent index or -1]
        self.observed = defaultdict(list)
        self._stack = []
        self._patched = []

    def wrap(self, fn, name):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = OBSERVERS.get(name)
        observed = self.observed[name]
        nested_skip = name == "modulator.one_bit"

        def traced(*args, **kwargs):
            if nested_skip and stack \
                    and spans[stack[-1]][0].startswith("modulator."):
                return fn(*args, **kwargs)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
            if observe is not None:
                observed.append(observe(args, kwargs, result))
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self):
        try:
            for module, attr, name in TARGETS:
                owner = importlib.import_module(module)
                original = getattr(owner, attr)
                self._patched.append((owner, attr, original))
                setattr(owner, attr, self.wrap(original, name))
        except BaseException:
            self._restore()
            raise
        return self

    def __exit__(self, *exc):
        self._restore()
        return False

    def _restore(self):
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


def untraced() -> bool:
    """True when no target attribute is a tracer wrapper."""
    return not any(
        hasattr(getattr(importlib.import_module(m), a), "__wrapped__")
        for m, a, _ in TARGETS)


def unit(metric: str) -> str:
    """Unit of a per-layer metric, from its last name component."""
    last = metric.rsplit(".", 1)[-1]
    if last.endswith("_s"):
        return "s"
    if last.endswith("_frac"):
        return "frac"
    return {"ns_per_element": "ns", "us_per_iter_instance": "us",
            "peak_integrator_max": "rail", "gap_max": "objective"}.get(
                last, "count")


def self_times(spans) -> list:
    """Each span's duration minus the summed durations of its direct children."""
    child = [0.0] * len(spans)
    for _, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    return [(end - start) - c for (_, start, end, _), c in zip(spans, child)]


def summarize(tracer: Tracer, rounds: int) -> dict:
    """Per-layer metrics; counts and seconds are per traced round."""
    calls = defaultdict(int)
    self_s = defaultdict(float)
    for (name, _, _, _), s in zip(tracer.spans, self_times(tracer.spans)):
        calls[name] += 1
        self_s[name] += s
    total = sum(end - start for _, start, end, parent in tracer.spans
                if parent < 0)
    out = {}

    def put(name, value):
        out[name] = float(value)

    for _, _, name in TARGETS:
        if name in ("cli.main", "modulator.one_bit"):
            continue
        put(f"{name}.calls", calls[name] / rounds)
        put(f"{name}.self_s", self_s[name] / rounds)
    put("cli.main.self_s", self_s["cli.main"] / rounds)
    put("sim.run_ser.self_frac", self_s["sim.run_ser"] / total if total else 0)
    for layer in LAYERS:
        layer_s = sum(s for n, s in self_s.items() if n.split(".")[0] == layer)
        put(f"layer.{layer}.self_frac", layer_s / total if total else 0.0)

    for name in MODULATORS:
        obs = tracer.observed.get(name, [])
        elements = sum(o[0] for o in obs)
        runs = sum(np.size(o[1]) for o in obs)
        overloads = sum(int(np.sum(o[1])) for o in obs)
        put(f"{name}.elements", elements / rounds)
        put(f"{name}.ns_per_element",
            self_s[name] * 1e9 / elements if elements else 0.0)
        put(f"{name}.overload_frac", overloads / runs if runs else 0.0)
        put(f"{name}.peak_integrator_max",
            max((float(np.max(o[2])) for o in obs), default=0.0))

    put("channel.decide.symbols",
        sum(tracer.observed.get("channel.decide", [])) / rounds)

    for name in SOLVERS:
        obs = tracer.observed.get(name, [])
        iters = np.concatenate([np.ravel(o[0]) for o in obs]) if obs \
            else np.zeros(0)
        conv = np.concatenate([np.ravel(o[1]) for o in obs]) if obs \
            else np.zeros(0, dtype=bool)
        put(f"{name}.instances", iters.size / rounds)
        put(f"{name}.iterations_p50", np.median(iters) if iters.size else 0)
        put(f"{name}.iterations_max", iters.max() if iters.size else 0)
        put(f"{name}.restarts", sum(int(np.sum(o[2])) for o in obs) / rounds)
        put(f"{name}.nonconverged_frac",
            np.count_nonzero(~conv) / conv.size if conv.size else 0.0)
        work = int(iters.sum())
        put(f"{name}.us_per_iter_instance",
            self_s[name] * 1e6 / work if work else 0.0)
    gaps = [float(np.max(o[3])) for o in tracer.observed.get("optim.dual_apg", [])]
    put("optim.dual_apg.gap_max", max(gaps, default=0.0))
    return out
