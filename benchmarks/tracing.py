"""In-memory span recorder wrapped around the public functions of shlattice.

`Tracer.install` replaces every public function and method of the six
modules (the layers) with a wrapper that records one span per call: name,
parent span, start and end.  A function imported by name into another
module (``from .amplitude_model import run_model``) or stored in a dict
(``cli.RUNNERS``) is replaced in every place that holds it, so the wrapper
sees the call wherever it is looked up.  `Tracer.uninstall` puts every
original back.

Spans stay in memory; `Tracer.summary` derives self time afterwards as a
span's duration minus the durations of its direct children.  Callbacks
passed by keyword (``callback=``) are wrapped too and belong to the layer
that defined them, so the recording glue of `analysis` is not charged to
the solver loop that calls it.

With ``full=False`` only the solver entry points in `COARSE` are wrapped:
the untraced run uses that to split its wall time into model and oracle
time at a cost of a few spans per solver run.
"""

from __future__ import annotations

import dataclasses
import functools
import inspect
import sys
import time
from array import array

import numpy as np

LAYERS = ("core", "amplitude_model", "direct_solver", "subgrid", "analysis", "cli")

COARSE = {
    "amplitude_model.run_model",
    "direct_solver.SpectralStepper.__init__",
    "direct_solver.SpectralStepper.run",
    "direct_solver.BoundedStepper.__init__",
    "direct_solver.BoundedStepper.run",
    "direct_solver.integrate_spectral",
    "direct_solver.integrate_bounded",
    "direct_solver.measure_growth_rate",
    "direct_solver.step_spectral",
    "direct_solver.step_bounded",
}


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


# Work done by one call, read from its arguments: span name -> (counter, fn).
COUNTS = {
    "amplitude_model.run_model": (
        "model_simtime",
        lambda a, k: _arg(a, k, 3, "t_end") - _arg(a, k, 0, "state").t),
    "amplitude_model.rk4_step": (
        "element_steps", lambda a, k: _arg(a, k, 0, "state").n),
    "direct_solver.SpectralStepper.run": (
        "oracle_simtime", lambda a, k: _arg(a, k, 2, "n_steps") * a[0].dt),
    "direct_solver.BoundedStepper.run": (
        "oracle_simtime", lambda a, k: _arg(a, k, 3, "n_steps") * a[0].dt),
}

SUMMED = ("model_s", "oracle_s", "compare_self_s")


def _targets():
    """(owner, attribute, member, span name) for each public callable of
    the layer modules imported so far."""
    for layer in LAYERS:
        mod = sys.modules.get(f"shlattice.{layer}")
        if mod is None:
            continue
        for name, obj in vars(mod).items():
            if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj):
                yield mod, name, obj, f"{layer}.{name}"
            elif inspect.isclass(obj):
                for attr, member in vars(obj).items():
                    own_init = attr == "__init__" and not dataclasses.is_dataclass(obj)
                    if attr.startswith("_") and not own_init:
                        continue
                    if inspect.isfunction(getattr(member, "__func__", member)):
                        yield obj, attr, member, f"{layer}.{obj.__name__}.{attr}"


def empty_summary() -> dict:
    return {"spans": {}, "layers": {layer: 0.0 for layer in LAYERS},
            "counts": {}, **{k: 0.0 for k in SUMMED}}


def merge(a: dict, b: dict) -> dict:
    """Sum two summaries of the shape `Tracer.summary` returns."""
    out = {"spans": {k: list(v) for k, v in a["spans"].items()},
           "layers": dict(a["layers"]), "counts": dict(a["counts"])}
    for k, v in b["spans"].items():
        cur = out["spans"].setdefault(k, [0, 0.0, 0.0])
        out["spans"][k] = [x + y for x, y in zip(cur, v)]
    for group in ("layers", "counts"):
        for k, v in b[group].items():
            out[group][k] = out[group].get(k, 0) + v
    for k in SUMMED:
        out[k] = a[k] + b[k]
    return out


class Tracer:
    """Records spans of shlattice calls while installed."""

    def __init__(self, full: bool = True):
        self.full = full
        self.names: list[str] = []
        self.name = array("q")
        self.parent = array("q")
        self.t0 = array("d")
        self.t1 = array("d")
        self.counts: dict[str, float] = {}
        self._stack = [-1]
        self._patches: list[tuple] = []

    # -- recording ---------------------------------------------------------

    def _wrap(self, func, span_name: str):
        nid = len(self.names)
        self.names.append(span_name)
        names, parents, t0s, t1s = self.name, self.parent, self.t0, self.t1
        stack, counts, perf = self._stack, self.counts, time.perf_counter
        counter = COUNTS.get(span_name)
        wrap_callback = self._wrap_callback

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            if counter is not None:
                counts[counter[0]] = counts.get(counter[0], 0) + counter[1](args, kwargs)
            if kwargs and kwargs.get("callback") is not None:
                kwargs["callback"] = wrap_callback(kwargs["callback"])
            i = len(names)
            names.append(nid)
            parents.append(stack[-1])
            t1s.append(0.0)
            stack.append(i)
            t0s.append(perf())
            try:
                return func(*args, **kwargs)
            finally:
                t1s[i] = perf()
                stack.pop()

        return wrapper

    def _wrap_callback(self, cb):
        layer = (getattr(cb, "__module__", None) or "").rsplit(".", 1)[-1]
        return self._wrap(cb, f"{layer}.callback:{cb.__qualname__}")

    def _count_constructs(self, func):
        counts = self.counts

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            counts["state_constructs"] = counts.get("state_constructs", 0) + 1
            return func(*args, **kwargs)

        return wrapper

    # -- patching ----------------------------------------------------------

    def _patch(self, owner, attr, new) -> None:
        if isinstance(owner, dict):
            self._patches.append((owner, attr, owner[attr]))
            owner[attr] = new
        else:
            self._patches.append((owner, attr, vars(owner)[attr]))
            setattr(owner, attr, new)

    def install(self) -> None:
        """Wrap the layer callables wherever the shlattice modules bind them."""
        if self._patches:
            raise RuntimeError("tracer already installed")
        replaced = {}
        for owner, attr, member, span_name in _targets():
            if not self.full and span_name not in COARSE:
                continue
            if isinstance(member, (classmethod, staticmethod)):
                new = type(member)(self._wrap(member.__func__, span_name))
            else:
                new = self._wrap(member, span_name)
            self._patch(owner, attr, new)
            if not inspect.isclass(owner):
                replaced[id(member)] = new
        if self.full:
            state_cls = sys.modules["shlattice.core"].AmplitudeState
            self._patch(state_cls, "__post_init__",
                        self._count_constructs(state_cls.__post_init__))
        holders = [vars(m) for n, m in list(sys.modules.items())
                   if n == "shlattice" or n.startswith("shlattice.")]
        for holder in holders:
            for key, value in list(holder.items()):
                if id(value) in replaced:
                    self._patch(holder, key, replaced[id(value)])
                elif isinstance(value, dict) and not key.startswith("__"):
                    for k2, v2 in list(value.items()):
                        if id(v2) in replaced:
                            self._patch(value, k2, replaced[id(v2)])

    def uninstall(self) -> None:
        """Restore every original binding, last patch first."""
        while self._patches:
            owner, attr, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[attr] = original
            else:
                setattr(owner, attr, original)

    # -- aggregation -------------------------------------------------------

    def summary(self) -> dict:
        """Calls, inclusive and self seconds per span name; self seconds per
        layer; model, oracle and compare-glue seconds; exact counts."""
        if self._stack != [-1]:
            raise RuntimeError("summary taken while a span is open")
        out = empty_summary()
        out["counts"] = dict(self.counts)
        n = len(self.name)
        if n == 0:
            return out
        name = np.frombuffer(self.name, dtype=np.int64)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = np.frombuffer(self.t1) - np.frombuffer(self.t0)
        rooted = parent >= 0
        self_t = dur - np.bincount(parent[rooted], weights=dur[rooted], minlength=n)

        def per_name(pred) -> np.ndarray:
            return np.array([pred(nm) for nm in self.names], dtype=bool)[name]

        def below(own: np.ndarray) -> np.ndarray:
            """True where a strict ancestor of the span has `own`."""
            flag = np.zeros(n, dtype=bool)
            p = parent.copy()
            live = p >= 0
            while live.any():
                flag[live] |= own[p[live]]
                p[live] = parent[p[live]]
                live = p >= 0
            return flag

        callback = per_name(lambda nm: ":" in nm)
        solver = per_name(lambda nm: nm.startswith("direct_solver.") and ":" not in nm)
        compare = per_name(lambda nm: nm == "analysis.compare_model_vs_direct")
        layer = np.array([LAYERS.index(nm.split(".", 1)[0]) if nm.split(".", 1)[0]
                          in LAYERS else -1 for nm in self.names])[name]
        out["oracle_s"] = float(dur[solver & ~below(solver)].sum()
                                - dur[callback & below(solver) & ~below(callback)].sum())
        out["model_s"] = float(dur[per_name(lambda nm: nm == "amplitude_model.run_model")].sum())
        glue = (compare | below(compare)) & (layer == LAYERS.index("analysis"))
        out["compare_self_s"] = float(self_t[glue].sum())

        calls = np.bincount(name, minlength=len(self.names))
        incl = np.bincount(name, weights=dur, minlength=len(self.names))
        selfs = np.bincount(name, weights=self_t, minlength=len(self.names))
        for i, nm in enumerate(self.names):
            if calls[i]:
                cur = out["spans"].get(nm, [0, 0.0, 0.0])
                out["spans"][nm] = [cur[0] + int(calls[i]), cur[1] + float(incl[i]),
                                    cur[2] + float(selfs[i])]
        for li, lname in enumerate(LAYERS):
            out["layers"][lname] = float(self_t[layer == li].sum())
        return out
