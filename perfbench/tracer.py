"""Span and count recording around edgesim's public callables.

Nothing inside ``src/`` knows it is being traced: ``Tracer.installed``
swaps each callable for a wrapper at the name it is looked up through
and puts the original back on exit. Functions that a module binds at
import time are wrapped in the importing module (``engine.py`` imports
``generate_all`` and ``schedule_lazy`` by name); functions looked up
through their own module's globals are wrapped there (``substream``,
``select_target``, ``try_allocate``); methods are wrapped on their
classes.

A span's self time is its duration minus the duration of the spans it
contains, so every ``*_s`` value is self time except ``kernel.loop_s``,
which is the whole dispatch loop.
"""

from __future__ import annotations

import gc
import time
from collections import Counter, defaultdict
from contextlib import contextmanager
from typing import Callable, Optional


class Tracer:
    """Per-name call counts and self times, plus GC pauses."""

    def __init__(self) -> None:
        self.calls: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self.total_s: defaultdict = defaultdict(float)
        self.counts: Counter = Counter()
        self.gc_pause_s = 0.0
        self.gc_collections = [0, 0, 0]
        self._stack: list[float] = []
        self._gc_started: Optional[float] = None
        self._gc_counting = True

    def span(self, name: str, fn: Callable, hook: Optional[Callable] = None):
        """Wrap fn so each call is one span; hook(args, result) adds counts."""
        calls, self_s, total_s, stack = self.calls, self.self_s, self.total_s, self._stack
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            calls[name] += 1
            stack.append(0.0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                self_s[name] += dt - child
                total_s[name] += dt
                if stack:
                    stack[-1] += dt
            if hook is not None:
                hook(args, result)
            return result

        return wrapper

    def counter(self, fn: Callable, hook: Callable):
        """Wrap fn without a span: its time stays with the caller."""

        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            hook(args, result)
            return result

        return wrapper

    def collect(self) -> None:
        """gc.collect() left out of the GC accounting: it runs between timed regions."""
        self._gc_counting = False
        try:
            gc.collect()
        finally:
            self._gc_counting = True

    def _on_gc(self, phase: str, info: dict) -> None:
        if not self._gc_counting:
            return
        if phase == "start":
            self._gc_started = time.perf_counter()
        elif self._gc_started is not None:
            self.gc_pause_s += time.perf_counter() - self._gc_started
            self.gc_collections[info["generation"]] += 1
            self._gc_started = None

    @contextmanager
    def installed(self, patches: list[tuple[object, str, Callable]]):
        """Apply (owner, attribute, wrapper factory) patches; undo on exit."""
        saved = []
        try:
            for owner, attr, make in patches:
                original = getattr(owner, attr)
                saved.append((owner, attr, original))
                setattr(owner, attr, make(original))
            gc.callbacks.append(self._on_gc)
            yield self
        finally:
            if self._on_gc in gc.callbacks:
                gc.callbacks.remove(self._on_gc)
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)


def edgesim_patches(tracer: Tracer) -> list[tuple[object, str, Callable]]:
    """Every layer boundary the benchmark times, named after its module."""
    from edgesim import compute, engine, kernel, metrics, mobility, network, registry, rng
    from edgesim.network import NetworkFailure

    counts = tracer.counts
    kind_keys = {k.value: f"kernel.dispatched.{k.name}" for k in kernel.EventKind}

    def span(name, hook=None):
        return lambda fn: tracer.span(name, fn, hook)

    def count_kind(args, _result):
        counts[kind_keys[args[1].kind]] += 1

    def count_arrivals(_args, result):
        counts["load.eager_arrivals"] += len(result)

    def failure_counter(key):
        def hook(_args, result):
            if isinstance(result, NetworkFailure):
                counts[key] += 1

        return hook

    def count_reject(_args, admitted):
        if not admitted:
            counts["compute.vm_rejects"] += 1

    patches = [
        (kernel.Kernel, "run", span("kernel.loop")),
        (kernel.Kernel, "schedule", span("kernel.schedule")),
        (engine.RunContext, "handle", span("engine.handle", count_kind)),
        (rng, "substream", span("rng.substream")),
        (engine, "generate_all", span("load.generate_all", count_arrivals)),
        (engine, "schedule_lazy", span("load.schedule_lazy")),
        (network.NetworkState, "wlan_delay",
         span("network.wlan", failure_counter("network.wlan_congestion"))),
        (network.NetworkState, "wan_delay",
         span("network.wan", failure_counter("network.wan_congestion"))),
        (compute, "select_target", span("compute.select_target")),
        (compute, "try_allocate", lambda fn: tracer.counter(fn, count_reject)),
        (metrics.MetricsCollector, "on_terminal", span("metrics.on_terminal")),
        (mobility.EventDrivenMobility, "on_device_move", span("mobility.move")),
    ]
    for handler in ("on_task_arrival", "on_upload_done", "on_exec_done", "on_download_done"):
        patches.append((compute.LifecycleDriver, handler, span("compute.lifecycle")))
    for cls in (mobility.PrecomputedMobility, mobility.EventDrivenMobility):
        patches.append((cls, "__init__", span("mobility.build")))
        patches.append((cls, "count_at", span("mobility.count_at")))
        patches.append((cls, "location_of", span("mobility.location_of")))
    for cls in (registry.AppendOnlyRegistry, registry.PrunedRegistry):
        for method in ("lookup", "register", "retire"):
            patches.append((cls, method, span(f"registry.{method}")))
    return patches
