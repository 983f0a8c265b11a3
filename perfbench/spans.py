"""In-memory spans around the public functions of orbitfl's layers.

``Tracer.install()`` replaces every public function and every public method of
a public class defined in ``orbitfl.orbital``, ``.link``, ``.learning``,
``.protocol``, ``.sim`` and ``.cli`` with a wrapper that records one span per
call. Every module-level reference to a wrapped function is rebound too, so
``from .orbital import walker_planes`` and the package re-exports go through
the wrapper as well. Nothing under ``src/`` is edited.

Spans are kept in flat arrays while the run goes on and are aggregated by
``report()`` at the end. A span's self time is its duration minus the time
covered by its child spans, so the self times of all spans add up to the
duration of the outermost one (``cli.main``).

The engine's events are counted by a wrapper around ``_Simulation.schedule``,
the single scheduling point and the only non-public hook. When it is missing,
``report()`` says so and the event counts are left out.
"""

from __future__ import annotations

import functools
import importlib
import time
import types
from array import array

LAYERS = ("orbital", "link", "learning", "protocol", "sim", "cli")

# Spans whose orbital children are summed separately, as the orbital time
# spent inside sink election.
SCOPE = "protocol.select_sink"


def _points(result) -> int:
    """Time samples a visibility query evaluated: 1 for a scalar t."""
    return getattr(result, "size", 1)


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self._key = array("i")
        self._dur = array("d")
        self._self = array("d")
        self._scoped = array("b")
        self._stack: list[float] = []
        self._scope_depth = [0]
        self._extra: dict[str, float] = {}
        self.events: dict[str, int] | None = None

    def _wrap(self, name: str, fn, count=None):
        kid = len(self.names)
        self.names.append(name)
        stack, depth = self._stack, self._scope_depth
        keys, durs, selfs, scoped = self._key, self._dur, self._self, self._scoped
        extra = self._extra
        opens_scope = name == SCOPE
        perf = time.perf_counter

        @functools.wraps(fn)
        def span(*args, **kwargs):
            stack.append(0.0)
            if opens_scope:
                depth[0] += 1
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                d = perf() - t0
                if opens_scope:
                    depth[0] -= 1
                child = stack.pop()
                if stack:
                    stack[-1] += d
                keys.append(kid)
                durs.append(d)
                selfs.append(d - child)
                scoped.append(depth[0] > 0)
            if count is not None:
                extra[name] = extra.get(name, 0) + count(result)
            return result

        return span

    def install(self):
        importlib.import_module("orbitfl.cli")
        package = importlib.import_module("orbitfl")
        modules = {layer: importlib.import_module(f"orbitfl.{layer}") for layer in LAYERS}
        send_model = getattr(modules["protocol"], "SEND_MODEL", None)
        counters = {
            "orbital.Constellation.visible": _points,
            "protocol.PsState.handle_connection": lambda action: action == send_model,
            "protocol.DirectPsState.handle_connection": lambda action: action == send_model,
        }
        wrapped = {}
        for layer, mod in modules.items():
            for name, obj in list(vars(mod).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, types.FunctionType):
                    key = f"{layer}.{name}"
                    wrapped[id(obj)] = (obj, self._wrap(key, obj, counters.get(key)))
                elif isinstance(obj, type):
                    for mname, method in list(vars(obj).items()):
                        if not mname.startswith("_") and isinstance(method, types.FunctionType):
                            key = f"{layer}.{name}.{mname}"
                            setattr(obj, mname, self._wrap(key, method, counters.get(key)))
        for mod in (package, *modules.values()):
            for name, obj in list(vars(mod).items()):
                hit = wrapped.get(id(obj))
                if hit is not None and hit[0] is obj:
                    setattr(mod, name, hit[1])
        self._hook_events(modules["sim"])

    def _hook_events(self, sim):
        engine = getattr(sim, "_Simulation", None)
        schedule = getattr(engine, "schedule", None)
        if not isinstance(schedule, types.FunctionType):
            return
        events: dict[str, int] = {}

        @functools.wraps(schedule)
        def counted(sim_self, t, fn, *args):
            handler = getattr(fn, "__name__", "unknown").lstrip("_")
            events[handler] = events.get(handler, 0) + 1
            return schedule(sim_self, t, fn, *args)

        engine.schedule = counted
        self.events = events

    def report(self) -> dict:
        """Per-span-name calls, total and self seconds, plus layer sums."""
        spans = {name: {"calls": 0, "total_s": 0.0, "self_s": 0.0} for name in self.names}
        layer_self = dict.fromkeys(LAYERS, 0.0)
        scoped_orbital = 0.0
        for kid, dur, own, scoped in zip(self._key, self._dur, self._self, self._scoped):
            name = self.names[kid]
            agg = spans[name]
            agg["calls"] += 1
            agg["total_s"] += dur
            agg["self_s"] += own
            layer = name.split(".", 1)[0]
            layer_self[layer] += own
            if scoped and layer == "orbital":
                scoped_orbital += own
        return {
            "spans": {name: agg for name, agg in spans.items() if agg["calls"]},
            "layer_self_s": layer_self,
            "orbital_under_scope_s": scoped_orbital,
            "min_self_s": min(self._self, default=0.0),
            "num_spans": len(self._key),
            "extra": self._extra,
            "events": self.events,
        }
