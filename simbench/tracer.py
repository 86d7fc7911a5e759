"""Per-layer spans and counts, recorded from the benchmark's side.

The tracer patches public entry points on the simulator's classes (and
the experiment functions) before anything is built, so every object a
workload creates -- including the networks ``fig6/7/8.run`` build deep
inside the grid runner -- reports through it.  It never changes what the
wrapped code computes; the benchmark proves that on every traced run by
comparing result digests with an untraced run of the same inputs.

A span is the wall time of one call at a layer boundary.  A layer's self
time is the time of its spans minus the time of the spans they enclose.
Every simulator event is a span too: ``Simulator.set_fire_interceptor``
charges it to the layer that defines its callback.  The cost of the span
machinery itself is calibrated once per traced pass and subtracted
(``overhead``); whatever time no layer span covers is ``unattributed``.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import time
from dataclasses import dataclass
from typing import Any, Callable, Dict, List, Optional, Tuple

#: reported layers, in report order
LAYERS = ("sim", "mobility", "phy", "mac.dcf", "mac.psm", "core", "routing",
          "metrics", "experiments")
#: span targets that belong to no reported layer: network construction
#: and callbacks of unmapped modules (traffic sources, the node bundle)
UNATTRIBUTED = len(LAYERS)
_SLOTS = len(LAYERS) + 1

#: module prefix -> layer; the longest matching prefix wins
MODULE_LAYERS: Tuple[Tuple[str, str], ...] = (
    ("repro.sim", "sim"),
    ("repro.network", "sim"),
    ("repro.mobility", "mobility"),
    ("repro.phy", "phy"),
    ("repro.mac.dcf", "mac.dcf"),
    ("repro.mac", "mac.psm"),
    ("repro.core.atim", "mac.psm"),
    ("repro.core", "core"),
    ("repro.routing", "routing"),
    ("repro.metrics", "metrics"),
    ("repro.experiments", "experiments"),
)

#: counters the spans and hooks maintain (reported under these names)
COUNTERS = ("phy.upcalls", "phy.energy_transitions", "phy.idle_waits",
            "mac.dcf.submits", "mac.psm.announcements", "routing.rx",
            "routing.promisc", "routing.cache_adds", "mobility.snapshots",
            "mobility.queries", "metrics.calls", "experiments.runs_executed")

#: PositionService queries (every one may trigger a snapshot refresh)
_POSITION_QUERIES = ("neighbors", "cs_neighbors", "sorted_neighbors",
                     "neighbor_index_array", "cs_index_array",
                     "neighbor_count", "in_range", "in_cs_range", "distance",
                     "position_of", "ensure_fresh", "link_change_rate")
#: MetricsCollector hooks the protocol layers call during a run
_METRICS_HOOKS = ("data_originated", "data_delivered", "data_dropped",
                  "transmission", "route_used", "link_break", "overheard",
                  "finalize")


def layer_of_module(module: Optional[str]) -> int:
    """Layer index for a Python module name (``UNATTRIBUTED`` if none)."""
    best, best_len = UNATTRIBUTED, -1
    for prefix, layer in MODULE_LAYERS:
        if module is not None and (module == prefix
                                   or module.startswith(prefix + ".")):
            if len(prefix) > best_len:
                best, best_len = LAYERS.index(layer), len(prefix)
    return best


def _target(callback: Any) -> Any:
    """The plain function behind a bound method, partial or span wrapper."""
    while True:
        if isinstance(callback, functools.partial):
            callback = callback.func
        elif hasattr(callback, "__func__"):
            callback = callback.__func__
        elif hasattr(callback, "__wrapped__"):
            callback = callback.__wrapped__
        else:
            return callback


class Tracer:
    """Span stack, per-layer self time and counters for one traced pass."""

    def __init__(self) -> None:
        self.self_time = [0.0] * _SLOTS
        self.spans = [0] * _SLOTS
        self.hook_spans = [0] * _SLOTS
        #: spans opened directly inside a span of each layer
        self.child_spans = [0] * _SLOTS
        self._counts = [0] * len(COUNTERS)
        # One frame per open span: [child time, child span count].  The
        # bottom frame collects the spans opened outside any span.
        self._stack: List[List[float]] = [[0.0, 0]]
        self._layer_cache: Dict[Any, int] = {}
        self._module_of: Dict[Any, Optional[str]] = {}
        #: per-network counters the layers keep themselves, one dict per
        #: finished ``Network.run``
        self.network_counts: List[Dict[str, int]] = []
        self._code_counts: Dict[Any, int] = {}

    def reset(self) -> None:
        """Forget everything recorded so far (e.g. a warm-up run)."""
        for values in (self.self_time, self.spans, self.hook_spans,
                       self.child_spans, self._counts):
            values[:] = [0] * len(values)
        if len(self._stack) != 1:
            raise RuntimeError("reset() inside an open span")
        self._stack[0][:] = [0.0, 0]
        self.network_counts.clear()
        self._code_counts.clear()

    # ------------------------------------------------------------------
    # Span primitives
    # ------------------------------------------------------------------

    def span(self, layer: int, fn: Callable[..., Any],
             counter: Optional[str] = None) -> Callable[..., Any]:
        """Wrap ``fn`` so each call is a span of ``layer``."""
        stack = self._stack
        self_time = self.self_time
        spans = self.spans
        child_spans = self.child_spans
        counts = self._counts
        slot = COUNTERS.index(counter) if counter is not None else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                spans[layer] += 1
                child_spans[layer] += frame[1]
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1
                if slot is not None:
                    counts[slot] += 1

        return wrapper

    def fire_hook(self) -> Callable[[Any], None]:
        """``Simulator.set_fire_interceptor`` hook: one span per event."""
        stack = self._stack
        self_time = self.self_time
        spans = self.hook_spans
        child_spans = self.child_spans
        cache = self._layer_cache
        module_of = self._module_of
        code_counts = self._code_counts
        clock = time.perf_counter

        def hook(event: Any) -> None:
            target = _target(event.callback)
            key = getattr(target, "__code__", target)
            layer = cache.get(key)
            if layer is None:
                module = module_of[key] = getattr(target, "__module__", None)
                layer = cache[key] = layer_of_module(module)
            code_counts[key] = code_counts.get(key, 0) + 1
            frame = [0.0, 0]
            stack.append(frame)
            start = clock()
            try:
                event.fire()
            finally:
                elapsed = clock() - start
                stack.pop()
                self_time[layer] += elapsed - frame[0]
                spans[layer] += 1
                child_spans[layer] += frame[1]
                parent = stack[-1]
                parent[0] += elapsed
                parent[1] += 1

        return hook

    def count(self, counter: str) -> Callable[..., None]:
        """A listener that only counts its calls."""
        counts = self._counts
        slot = COUNTERS.index(counter)

        def listener(*_args: Any) -> None:
            counts[slot] += 1

        return listener

    def events_of(self, fn: Callable[..., Any]) -> int:
        """Events fired so far whose callback is ``fn``."""
        return self._code_counts.get(getattr(fn, "__code__", fn), 0)

    def events_in_module(self, module: str) -> int:
        """Events fired so far whose callback is defined in ``module``."""
        return sum(n for key, n in self._code_counts.items()
                   if self._module_of[key] == module)

    def snapshot_counts(self) -> Dict[str, int]:
        """Counters as a name -> value dict."""
        return dict(zip(COUNTERS, self._counts))


@dataclass(frozen=True)
class SpanCost:
    """Calibrated cost of one span, split at the timed interval.

    ``inner`` is the part of the wrapper that lands inside the span's own
    measured interval; ``outer`` is the rest, which lands in the parent's.
    The ``hook_`` pair is the same for an event span.
    """

    inner: float
    outer: float
    hook_inner: float
    hook_outer: float

    @classmethod
    def calibrate(cls, calls: int = 50_000, repeats: int = 3) -> "SpanCost":
        """Measure wrapper and fire-hook costs on no-op calls and events
        (least total cost over ``repeats``, median inner share)."""
        from repro.sim.engine import Simulator

        def noop(*_args: Any) -> None:
            return None

        clock = time.perf_counter
        total, inner = [], []
        for _ in range(repeats):
            probe = Tracer()
            wrapped = probe.span(0, noop)
            start = clock()
            for _ in range(calls):
                noop(1)
            raw = clock() - start
            start = clock()
            for _ in range(calls):
                wrapped(1)
            total.append((clock() - start - raw) / calls)
            inner.append(sum(probe.self_time) / calls)

        hook_total, hook_inner = [], []
        for _ in range(repeats):
            plain = Simulator()
            hooked = Simulator()
            probe = Tracer()
            hooked.set_fire_interceptor(probe.fire_hook())
            for sim in (plain, hooked):
                for i in range(calls):
                    sim.schedule(i * 1e-6, noop)
            start = clock()
            plain.run()
            raw = clock() - start
            start = clock()
            hooked.run()
            hook_total.append((clock() - start - raw) / calls)
            hook_inner.append(sum(probe.self_time) / calls)
        t, i = min(total), statistics.median(inner)
        ht, hi = min(hook_total), statistics.median(hook_inner)
        return cls(inner=i, outer=max(t - i, 0.0),
                   hook_inner=hi, hook_outer=max(ht - hi, 0.0))


def install(tracer: Tracer) -> None:
    """Patch the simulator's public entry points to report to ``tracer``.

    Must run before the workload builds any network: objects capture some
    bound methods at construction.
    """
    import repro.experiments.fig6 as fig6
    import repro.experiments.fig7 as fig7
    import repro.experiments.fig8 as fig8
    import repro.experiments.parallel as parallel
    import repro.experiments.scenarios as scenarios
    # the package re-exports a ``sweep`` function that shadows the module
    sweep = importlib.import_module("repro.experiments.sweep")
    import repro.network as network
    from repro.core.rcast import RcastManager
    from repro.mac.base import AlwaysOnMac, MacBase
    from repro.mac.dcf import DcfTransmitter
    from repro.mac.psm import PsmMac
    from repro.metrics.collector import MetricsCollector
    from repro.mobility.manager import PositionService
    from repro.phy.channel import Channel
    from repro.phy.energy import EnergyMeter
    from repro.routing.dsr.cache import RouteCache
    from repro.routing.dsr.protocol import DsrProtocol

    idx = LAYERS.index
    span = tracer.span

    def patch(owner: Any, name: str, layer: str,
              counter: Optional[str] = None) -> None:
        setattr(owner, name, span(idx(layer), getattr(owner, name), counter))

    # phy
    patch(Channel, "transmit", "phy")
    patch(Channel, "wait_for_idle", "phy", "phy.idle_waits")
    patch(EnergyMeter, "transition", "phy", "phy.energy_transitions")
    # mac
    patch(DcfTransmitter, "submit", "mac.dcf", "mac.dcf.submits")
    patch(PsmMac, "send", "mac.psm")
    patch(AlwaysOnMac, "send", "mac.psm")
    patch(PsmMac, "on_announcement", "mac.psm", "mac.psm.announcements")
    # core
    patch(RcastManager, "should_overhear", "core")
    # routing
    patch(DsrProtocol, "send_data", "routing")
    patch(RouteCache, "add_path", "routing", "routing.cache_adds")
    patch(RouteCache, "route_to", "routing")
    patch(RouteCache, "remove_link", "routing")
    # mobility
    for name in _POSITION_QUERIES:
        patch(PositionService, name, "mobility", "mobility.queries")
    # metrics
    for name in _METRICS_HOOKS:
        patch(MetricsCollector, name, "metrics", "metrics.calls")
    # experiments (the grid runner, config construction, the figures)
    for module, name in ((sweep, "run_grid"), (scenarios, "make_config"),
                         (parallel, "replication_config")):
        patch(module, name, "experiments")
    for module in (fig6, fig7, fig8):
        patch(module, "run", "experiments")
    # network construction is unattributed (setup_s measures it)
    network.build_network = tracer.span(UNATTRIBUTED, network.build_network)

    # phy -> MAC upcalls: time each receive callback the channel delivers
    # to, under the layer of the MAC that registered it.
    attach = Channel.attach

    def traced_attach(self: Channel, node_id: int, on_receive: Any,
                      on_tx_complete: Any = None) -> None:
        receive = span(layer_of_module(_target(on_receive).__module__),
                       on_receive, "phy.upcalls")
        complete = (None if on_tx_complete is None else
                    span(layer_of_module(_target(on_tx_complete).__module__),
                         on_tx_complete))
        attach(self, node_id, receive, complete)

    Channel.attach = traced_attach  # type: ignore[method-assign]

    # MAC -> routing upcalls
    set_upper = MacBase.set_upper

    def traced_set_upper(self: MacBase, on_receive: Any,
                         on_promiscuous: Any = None, *args: Any,
                         **kwargs: Any) -> None:
        routing = idx("routing")
        on_receive = span(routing, on_receive, "routing.rx")
        if on_promiscuous is not None:
            on_promiscuous = span(routing, on_promiscuous, "routing.promisc")
        set_upper(self, on_receive, on_promiscuous, *args, **kwargs)

    MacBase.set_upper = traced_set_upper  # type: ignore[method-assign]

    # sim: every Network.run is a span whose events are its child spans
    run = network.Network.run
    hook = tracer.fire_hook()
    snapshot = tracer.count("mobility.snapshots")
    collected = tracer.network_counts

    def traced_run(self: Any, *args: Any, **kwargs: Any) -> Any:
        self.sim.set_fire_interceptor(hook)
        self.positions.add_refresh_listener(snapshot)
        metrics = run(self, *args, **kwargs)
        collected.append(_network_counts(self, metrics))
        return metrics

    network.Network.run = span(idx("sim"), traced_run,  # type: ignore[method-assign]
                               "experiments.runs_executed")


def _network_counts(net: Any, metrics: Any) -> Dict[str, int]:
    """Counters a finished network's layers keep themselves."""
    from repro.mac.psm import PsmMac

    counts = {
        "sim.events": net.sim.processed_events,
        "phy.frames": net.channel.frames_sent,
        "phy.collided": net.channel.frames_collided,
        "phy.missed_asleep": net.channel.frames_missed_asleep,
        "mac.dcf.busy_deferrals": 0, "mac.dcf.retries": 0,
        "mac.dcf.failures": 0, "mac.psm.immediate_fallbacks": 0,
        "routing.rreq": 0, "routing.cache_hits": 0,
        "routing.cache_misses": 0, "routing.cache_evictions": 0,
        "routing.cache_insertions": 0,
        "core.overhear_decisions": metrics.overhear_decisions,
        "core.overhear_elections": metrics.overhear_elections,
    }
    for node in net.nodes:
        dcf = node.mac.dcf
        counts["mac.dcf.busy_deferrals"] += dcf.busy_deferrals
        counts["mac.dcf.retries"] += dcf.retries
        counts["mac.dcf.failures"] += dcf.failures
        if isinstance(node.mac, PsmMac):
            counts["mac.psm.immediate_fallbacks"] += node.mac.immediate_fallbacks
        counts["routing.rreq"] += node.dsr.rreq_sent
        cache = node.dsr.cache
        counts["routing.cache_hits"] += cache.hits
        counts["routing.cache_misses"] += cache.misses
        counts["routing.cache_evictions"] += cache.evictions
        counts["routing.cache_insertions"] += cache.insertions
    return counts


__all__ = ["COUNTERS", "LAYERS", "SpanCost", "Tracer", "UNATTRIBUTED",
           "install", "layer_of_module"]
