"""Per-layer spans recorded from outside the simulator.

:class:`Instrumentation` wraps each layer's public functions in place
before any simulator object is built, and restores them afterwards.
Every call becomes a span: it counts one call for its layer and adds its
duration, minus the part covered by nested spans, to that layer's self
time.  Spans are aggregated in memory as they close (count and self time
per layer) instead of being stored one by one, because the executor and
policy layers open millions of them per run.

Engines are observed through their public subscription API: every
:class:`~repro.sim.engine.Engine` built while the instrumentation is
installed gets an all-events subscriber that counts fired events and
records the queue wait of each serving dispatch.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import sys
import time
from typing import Callable, Dict, List, Tuple

#: layer name -> (module, class or None, attribute names or None).  ``None``
#: attribute names mean "every public function defined there".
LAYERS: Dict[str, List[Tuple[str, object, object]]] = {
    "models.build_model": [("repro.models.zoo", None, ["build_model"])],
    "mem.machine.for_platform": [("repro.mem.machine", "Machine", ["for_platform"])],
    "dnn.executor": [
        ("repro.dnn.executor", "Executor", ["__init__", "step_process", "teardown"])
    ],
    "dnn.policy.charge_access": [
        ("repro.dnn.policy", "PlacementPolicy", ["charge_access"])
    ],
    "sim.engine": [("repro.sim.engine", "Engine", ["run", "run_until_complete"])],
    "core.runtime": [("repro.core.runtime", "SentinelPolicy", None)],
    "core.profiler": [
        ("repro.core.profiler", None, None),
        ("repro.core.profiler", "ProfileCollector", None),
        ("repro.core.profiler", "ProfilingObserver", None),
        ("repro.core.profiler", "DynamicProfiler", None),
    ],
    "dnn.graph.live_bytes_at": [("repro.dnn.graph", "Graph", ["live_bytes_at"])],
    "obs.insight": [
        ("repro.obs.insight", "InsightCollector", None),
        ("repro.obs.insight", "InsightScope", None),
    ],
    "dnn.alloc": [("repro.dnn.alloc", "Allocator", ["alloc", "free"])],
    "dnn.arena": [("repro.dnn.arena", "ArenaAllocator", None)],
    "mem.pressure": [("repro.mem.pressure", "PressureGovernor", None)],
    "mem.migration": [
        ("repro.mem.migration", "MigrationEngine", ["promote", "demote", "relocate"])
    ],
    "mem.admission.decide": [
        ("repro.mem.admission", name, ["decide"])
        for name in (
            "AdmissionController",
            "AlwaysAdmit",
            "BenefitCostController",
            "FeedbackController",
        )
    ],
}


def _public_functions(namespace: dict, module_name: str) -> List[str]:
    """Public plain functions defined in ``namespace`` (not imported ones)."""
    names = []
    for name, value in namespace.items():
        if name.startswith("_"):
            continue
        func = value.__func__ if isinstance(value, (classmethod, staticmethod)) else value
        if inspect.isfunction(func) and func.__module__ == module_name:
            names.append(name)
    return sorted(names)


class Instrumentation:
    """Install span wrappers on every layer in :data:`LAYERS`.

    Attributes:
        calls: layer -> calls into the layer.
        steps: layer -> generator calls, i.e. executor steps.
        self_s: layer -> host seconds inside the layer's spans, excluding
            nested spans.
        events: engine events fired, over all engines built while installed.
        queue_waits: simulated queue wait of every serving dispatch.
        machines: every machine built through ``Machine.for_platform``.
    """

    def __init__(self) -> None:
        self.calls: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.self_s: Dict[str, float] = {layer: 0.0 for layer in LAYERS}
        self.steps: Dict[str, int] = {layer: 0 for layer in LAYERS}
        self.events = 0
        self.queue_waits: List[float] = []
        self.machines: List[object] = []
        self._stack: List[List[float]] = []
        self._undo: List[Tuple[object, str, object]] = []

    # ------------------------------------------------------------- spans

    def _span(self, layer: str, func: Callable) -> Callable:
        stack = self._stack
        calls = self.calls
        steps = self.steps
        self_s = self.self_s
        clock = time.perf_counter

        def close(frame: List[float], start: float) -> None:
            duration = clock() - start
            stack.pop()
            self_s[layer] += duration - frame[0]
            if stack:
                stack[-1][0] += duration

        if inspect.isgeneratorfunction(func):

            @functools.wraps(func)
            def generator(*args, **kwargs):
                calls[layer] += 1
                steps[layer] += 1
                inner = func(*args, **kwargs)
                value = None
                error = None
                while True:
                    frame = [0.0]
                    stack.append(frame)
                    start = clock()
                    try:
                        if error is not None:
                            item = inner.throw(error)
                        else:
                            item = inner.send(value)
                    except StopIteration as stop:
                        return stop.value
                    finally:
                        close(frame, start)
                    error = None
                    try:
                        value = yield item
                    except GeneratorExit:
                        inner.close()
                        raise
                    except BaseException as exc:  # forwarded into the inner generator
                        error = exc
                        value = None

            return generator

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            calls[layer] += 1
            frame = [0.0]
            stack.append(frame)
            start = clock()
            try:
                return func(*args, **kwargs)
            finally:
                close(frame, start)

        return wrapper

    def _replace(self, owner: object, name: str, value: object) -> None:
        self._undo.append((owner, name, vars(owner)[name]))
        setattr(owner, name, value)

    # ---------------------------------------------------------- install

    def install(self) -> "Instrumentation":
        """Wrap every layer in place; :meth:`uninstall` restores them."""
        for layer, targets in LAYERS.items():
            for module_name, class_name, names in targets:
                module = importlib.import_module(module_name)
                if class_name is None:
                    for name in names or _public_functions(vars(module), module_name):
                        self._wrap_function(layer, module, name)
                else:
                    cls = getattr(module, class_name)
                    for name in names or _public_functions(vars(cls), module_name):
                        if name in vars(cls):
                            self._wrap_method(layer, cls, name)
        self._observe_engines()
        return self

    def _wrap_function(self, layer: str, module, name: str) -> None:
        original = getattr(module, name)
        wrapped = self._span(layer, original)
        # Rebind every ``from module import name`` copy as well.
        for other in list(sys.modules.values()):
            if getattr(other, "__name__", "").startswith("repro") and (
                vars(other).get(name) is original
            ):
                self._replace(other, name, wrapped)

    def _wrap_method(self, layer: str, cls, name: str) -> None:
        raw = vars(cls)[name]
        if isinstance(raw, (classmethod, staticmethod)):
            func = self._span(layer, raw.__func__)
            if layer == "mem.machine.for_platform":
                func = self._capture_machines(func)
            wrapped = type(raw)(func)
        else:
            wrapped = self._span(layer, raw)
        self._replace(cls, name, wrapped)

    def _capture_machines(self, func: Callable) -> Callable:
        machines = self.machines

        @functools.wraps(func)
        def capture(*args, **kwargs):
            machine = func(*args, **kwargs)
            machines.append(machine)
            return machine

        return capture

    def _observe_engines(self) -> None:
        from repro.sim.engine import Engine, EventKind

        original = vars(Engine)["__init__"]
        state = self

        def on_event(event) -> None:
            state.events += 1
            if event.kind is EventKind.SERVE and event.name == "dispatch":
                state.queue_waits.append(event.payload["queue_wait"])

        @functools.wraps(original)
        def init(engine, *args, **kwargs):
            original(engine, *args, **kwargs)
            engine.subscribe(None, on_event)

        self._replace(Engine, "__init__", init)

    def uninstall(self) -> None:
        """Restore every wrapped attribute, newest first."""
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)

    def __enter__(self) -> "Instrumentation":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()
