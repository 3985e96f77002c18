"""Spans and work counters recorded from outside the effpot package.

``install`` replaces every public effpot function in the namespace of every
effpot module, so each call is seen the way the calling module sees it (for
example ``effpot.dynamics.inverse_mass``). Dataclass constructors are traced
through their ``__post_init__``. Two scipy entry points are wrapped as the
program imports them, ``effpot.dynamics.solve_ivp`` and
``effpot.quadrature.quad``, to read step counts, RHS calls, quadrature nodes
and subdivisions without touching ``src/``; the callbacks passed to them (RHS
functions and integrands) are traced as work of the layer that owns them.

A span is (name, start, end, parent span, op id). Spans stay in memory and
are written when the run ends. Calls made once per integration step,
profile point or quadrature node are too many to store, so their time and
counts are only aggregated (``HOT``); after ``SPAN_CAP`` stored spans, the
rest are aggregated too. Self time (a span's duration minus its children's)
is accumulated per layer for every call, stored or not, so the layer self
times plus the harness's own time always add up to the traced wall time.
"""

from __future__ import annotations

import functools
import importlib
import inspect
from collections import Counter, defaultdict
from time import perf_counter

LAYERS = (
    "physical", "potential", "quadrature", "kernel", "lowmomentum",
    "dynamics", "transmission", "figures", "cli",
)
HARNESS = "harness"
SPAN_CAP = 200_000

# called once per RHS call, profile point, trajectory sample or quadrature
# node: timed, not stored
HOT = frozenset({
    "potential.eval_classical", "potential.form_factor", "kernel.sinhc",
    "lowmomentum.smoothed_potential", "lowmomentum.smoothed_gradient",
    "lowmomentum.inverse_mass", "lowmomentum.inverse_mass_gradient",
    "lowmomentum.mass", "lowmomentum.vq_potential", "lowmomentum.vq_gradient",
    "lowmomentum.evaluation_domain", "dynamics.hamiltonian",
})

# (module, attribute) each per-layer counter is read from
SCIPY_ENTRY_POINTS = {
    "dynamics.solve_ivp": ("dynamics", "solve_ivp"),
    "quadrature.quad": ("quadrature", "quad"),
}


class Tracer:
    """In-memory spans, per-layer self time and work counters of one process."""

    def __init__(self):
        self.stack = []
        self.spans = []
        self.dropped = 0
        self.op = -1
        self.calls = Counter()
        self.errors = Counter()
        self.total = defaultdict(float)
        self.self_time = defaultdict(float)
        self.layer_self = defaultdict(float)
        self.entries = Counter()   # calls into a layer from a different layer
        self.counters = Counter()
        self.maxima = {}
        self.labelled = defaultdict(float)
        self.missing = {}
        self.hot = {}              # name -> [layer, calls, total, self, entries]
        self._undo = []

    # -------------------------------------------------------------- spans

    def enter(self, name: str, layer: str) -> list:
        stack = self.stack
        parent_span = stack[-1][5] if stack else -1
        idx = -1
        if len(self.spans) < SPAN_CAP:
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0, parent_span, self.op])
        else:
            self.dropped += 1
        frame = [name, layer, 0.0, 0.0, idx, idx if idx >= 0 else parent_span]
        stack.append(frame)
        frame[2] = perf_counter()
        return frame

    def leave(self, frame: list, failed: bool = False) -> float:
        end = perf_counter()
        stack = self.stack
        stack.pop()
        name, layer, start, child, idx, _ = frame
        dur = end - start
        own = dur - child
        self.calls[name] += 1
        self.total[name] += dur
        self.self_time[name] += own
        self.layer_self[layer] += own
        if failed:
            self.errors[name] += 1
        if stack:
            stack[-1][3] += dur
            if stack[-1][1] != layer:
                self.entries[layer] += 1
        else:
            self.entries[layer] += 1
        if idx >= 0:
            span = self.spans[idx]
            span[1], span[2] = start, end
        return dur

    def owner_layer(self) -> str:
        """Layer of the innermost caller outside quadrature: owner of an integrand."""
        for frame in reversed(self.stack):
            if frame[1] != "quadrature":
                return frame[1]
        return HARNESS

    def maximum(self, key: str, value: float) -> None:
        if key not in self.maxima or value > self.maxima[key]:
            self.maxima[key] = value

    # ------------------------------------------------------------ patching

    def _patch(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        """Wrap effpot's public functions, constructors and scipy entry points."""
        modules = {layer: importlib.import_module(f"effpot.{layer}") for layer in LAYERS}
        for consumer in modules.values():
            for attr, obj in list(vars(consumer).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if not obj.__module__.startswith("effpot."):
                    continue
                layer = obj.__module__.split(".")[1]
                name = f"{layer}.{obj.__name__}"
                if name in HOT:
                    wrapper = _wrap_hot(self, obj, name, layer)
                else:
                    wrapper = _wrap(self, obj, name, layer, **_HOOKS.get(name, {}))
                self._patch(consumer, attr, wrapper)
        for layer, module in modules.items():
            for obj in list(vars(module).values()):
                if (inspect.isclass(obj) and obj.__module__ == module.__name__
                        and "__post_init__" in vars(obj)):
                    name = f"{layer}.{obj.__name__}"
                    self._patch(obj, "__post_init__", _wrap(self, obj.__post_init__, name, layer))
        for key, (layer, attr) in SCIPY_ENTRY_POINTS.items():
            module = modules[layer]
            if not hasattr(module, attr):
                self.missing[key] = f"effpot.{layer}.{attr} no longer exists"
                continue
            wrapper = _traced_solve_ivp if attr == "solve_ivp" else _traced_quad
            self._patch(module, attr, wrapper(self, getattr(module, attr)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    # ------------------------------------------------------------- export

    def summary(self) -> dict:
        calls, total = Counter(self.calls), defaultdict(float, self.total)
        self_time, layer_self = defaultdict(float, self.self_time), defaultdict(float, self.layer_self)
        entries = Counter(self.entries)
        for name, (layer, n, spent, own, entered) in self.hot.items():
            calls[name] += n
            total[name] += spent
            self_time[name] += own
            layer_self[layer] += own
            entries[layer] += entered
        return {
            "calls": dict(calls),
            "errors": dict(self.errors),
            "total": dict(total),
            "self_time": dict(self_time),
            "layer_self": dict(layer_self),
            "entries": dict(entries),
            "counters": dict(self.counters),
            "maxima": dict(self.maxima),
            "labelled": dict(self.labelled),
            "missing": dict(self.missing),
            "spans_stored": len(self.spans),
            "spans_dropped": self.dropped,
        }

    def merge(self, other: dict) -> None:
        """Add a child process's summary; its time leaves the parent's harness span."""
        for key in ("calls", "errors", "entries", "counters"):
            getattr(self, key).update(other[key])
        for key in ("total", "self_time", "layer_self", "labelled"):
            target = getattr(self, key)
            for k, v in other[key].items():
                target[k] += v
        moved = sum(other["layer_self"].values())
        self.layer_self[HARNESS] -= moved
        for k, v in other["maxima"].items():
            self.maximum(k, v)
        self.missing.update(other["missing"])
        self.dropped += other["spans_dropped"]

    def write_spans(self, path) -> None:
        with open(path, "w", newline="\n") as fh:
            fh.write("name,start,end,parent,op\n")
            for name, start, end, parent, op in self.spans:
                fh.write(f"{name},{start:.9f},{end:.9f},{parent},{op}\n")


def _wrap(tracer: Tracer, fn, name: str, layer: str, post=None, label=None):
    enter, leave = tracer.enter, tracer.leave

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        frame = enter(name, layer)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            leave(frame, True)
            raise
        dur = leave(frame)
        if post is not None:
            post(tracer, result)
        if label is not None:
            tracer.labelled[f"{name}.{label(args, kwargs)}"] += dur
        return result

    return traced


def _wrap_hot(tracer: Tracer, fn, name: str, layer: str):
    """Timed like a span and counted, but never stored; the lean path for calls
    made once per integration step, profile point or quadrature node."""
    stack = tracer.stack
    stat = tracer.hot.setdefault(name, [layer, 0, 0.0, 0.0, 0])

    def hot(*args, **kwargs):
        parent = stack[-1] if stack else None
        frame = [name, layer, perf_counter(), 0.0, -1, parent[5] if parent else -1]
        stack.append(frame)
        try:
            return fn(*args, **kwargs)
        finally:
            dur = perf_counter() - frame[2]
            stack.pop()
            stat[1] += 1
            stat[2] += dur
            stat[3] += dur - frame[3]
            if parent is None or parent[1] != layer:
                stat[4] += 1
            if parent is not None:
                parent[3] += dur

    return functools.update_wrapper(hot, fn)


def _record_drift(tracer: Tracer, traj) -> None:
    tracer.maximum("dynamics.max_drift", traj.max_energy_drift)


_HOOKS = {
    "dynamics.integrate_hamiltonian": {"post": _record_drift},
    "dynamics.integrate_newtonian": {"post": _record_drift},
    "figures.emit_figure": {"label": lambda args, kwargs: (args[0] if args else kwargs["spec"]).id},
}


def _traced_solve_ivp(tracer: Tracer, solve_ivp):
    @functools.wraps(solve_ivp)
    def traced(fun, t_span, y0, *args, **kwargs):
        rhs = _wrap_hot(tracer, fun, "dynamics.rhs", "dynamics")
        frame = tracer.enter("dynamics.solve_ivp", "dynamics")
        try:
            sol = solve_ivp(rhs, t_span, y0, *args, **kwargs)
        except BaseException:
            tracer.leave(frame, True)
            raise
        tracer.leave(frame)
        tracer.counters["dynamics.solver_calls"] += 1
        tracer.counters["dynamics.rhs_calls"] += int(sol.nfev)
        if kwargs.get("t_eval") is None:
            # without t_eval, sol.t holds every accepted step
            tracer.counters["dynamics.rk_steps"] += len(sol.t) - 1
        return sol

    return traced


def _traced_quad(tracer: Tracer, quad):
    @functools.wraps(quad)
    def traced(func, a, b, *args, **kwargs):
        owner = tracer.owner_layer()
        integrand = _wrap_hot(tracer, func, f"{owner}.integrand", owner)
        frame = tracer.enter("quadrature.quad", "quadrature")
        try:
            out = quad(integrand, a, b, *args, **kwargs)
        except BaseException:
            tracer.leave(frame, True)
            raise
        tracer.leave(frame)
        counters = tracer.counters
        counters["quadrature.calls"] += 1
        counters[f"quadrature.calls_from.{owner}"] += 1
        if len(out) >= 3 and isinstance(out[2], dict):
            counters["quadrature.neval"] += int(out[2]["neval"])
            counters["quadrature.subdivisions"] += int(out[2]["last"])
        if len(out) >= 4:
            counters["quadrature.warnings"] += 1
        return out

    return traced
