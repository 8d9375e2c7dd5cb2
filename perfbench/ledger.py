"""Per-layer host-time ledger, timed from outside the program.

A :class:`Recorder` installs wrappers around the public functions of each
layer (``DevicePool.dispatch``, ``EvalCache.key``, the device models'
``measure_latency`` ...) and records one span per call: name, start,
end, parent span and request id.  Spans stay in memory for the whole
traced run and are written out once at the end.

A layer's *self time* is its span time minus the time of its direct
child spans.  Calls nest strictly (one thread, no re-entrancy across
requests), so the self times of every span under a root add up to the
root's duration exactly, in integer nanoseconds.
"""

from __future__ import annotations

import gzip
from array import array
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter_ns


def _targets():
    """``(owner, attribute, span name)`` for every class-level wrapper.

    Span names are ``<layer>.<call>``; the layer is the part before the
    first dot and is what the ledger groups by.  Interface tokenizers
    are per-instance functions, so :meth:`Recorder.instrument` wraps
    them on each interface a run builds.
    """
    import repro.core.petrinet as core_petrinet
    from repro.accel.cpu import CpuSerializerModel
    from repro.accel.optimusprime import OptimusPrimeModel
    from repro.accel.protoacc import ProtoaccSerializerModel
    from repro.core.petrinet import PetriNetInterface
    from repro.obs import DriftObservatory, MetricsRegistry, Tracer
    from repro.obs.metrics import Counter, Histogram
    from repro.perf import EvalCache
    from repro.perf.store import PersistentStore
    from repro.petri import BatchEvaluator, CompiledSimulator, Simulator
    from repro.runtime import OpenLoopServer
    from repro.runtime.device import ResilientDevice
    from repro.runtime.pool import ROUTING_POLICIES, DevicePool, PooledDevice

    targets = [
        (OpenLoopServer, "run", "serving.run"),
        (DevicePool, "dispatch", "pool.dispatch"),
        (PooledDevice, "price", "pool.price"),
        (PooledDevice, "serve", "pool.serve"),
        (ResilientDevice, "offload", "device.offload"),
        (ProtoaccSerializerModel, "measure_latency", "model.protoacc"),
        (OptimusPrimeModel, "measure_latency", "model.optimus"),
        (CpuSerializerModel, "measure_latency", "model.cpu"),
        (PetriNetInterface, "latency", "petrinet.latency"),
        (PetriNetInterface, "evaluate_batch", "petrinet.evaluate_batch"),
        (EvalCache, "key", "cache.key"),
        (EvalCache, "get", "cache.lookup"),
        (EvalCache, "get_or_compute", "cache.lookup"),
        (EvalCache, "put", "cache.put"),
        (PersistentStore, "load", "cache.reload"),
        (PersistentStore, "append", "cache.spill"),
        # Only where core.petrinet builds simulators, not petri-wide.
        (core_petrinet, "make_simulator", "petri.sim_build"),
        (CompiledSimulator, "run", "petri.run"),
        (Simulator, "run", "petri.run"),
        (BatchEvaluator, "evaluate", "petri.batch_evaluate"),
        # The program's own observability hooks (on in serve_observed).
        (Tracer, "add_span", "obs.trace"),
        (Tracer, "instant", "obs.trace"),
        (DriftObservatory, "observe", "obs.drift"),
        (MetricsRegistry, "counter", "obs.metrics"),
        (MetricsRegistry, "histogram", "obs.metrics"),
        (Counter, "inc", "obs.metrics"),
        (Histogram, "observe", "obs.metrics"),
    ]
    targets += [(policy, "pick", "pool.pick") for policy in ROUTING_POLICIES.values()]
    return targets


def timed(fn, sink: list[int]):
    """``fn`` with each call's host nanoseconds appended to ``sink`` —
    the one wrapper an untraced run installs."""

    def wrapper(*args, **kwargs):
        t0 = perf_counter_ns()
        out = fn(*args, **kwargs)
        sink.append(perf_counter_ns() - t0)
        return out

    return wrapper


class Recorder:
    """Collects spans: name, start and end (ns), parent, request id.

    Spans are stored column-wise (integer arrays), which keeps a traced
    run's memory small and its spans out of the garbage collector's way.
    ``parent`` is the index of the enclosing span, -1 at a root.  The
    request id is the pool dispatch sequence number while a dispatch is
    on the stack, else -1.
    """

    def __init__(self):
        self.names: list[str] = []
        self.start = array("q")
        self.end = array("q")
        self.parent = array("q")
        self.request = array("q")
        self._stack: list[int] = []
        self._request = -1
        self._dispatches = 0

    def __len__(self) -> int:
        return len(self.names)

    def wrap(self, name: str, fn):
        names, start, end, parent, request = (
            self.names, self.start, self.end, self.parent, self.request
        )
        stack = self._stack

        def wrapper(*args, **kwargs):
            index = len(names)
            names.append(name)
            parent.append(stack[-1] if stack else -1)
            request.append(self._request)
            end.append(0)
            stack.append(index)
            start.append(perf_counter_ns())
            try:
                return fn(*args, **kwargs)
            finally:
                end[index] = perf_counter_ns()
                stack.pop()

        if name != "pool.dispatch":
            return wrapper

        def dispatch(*args, **kwargs):
            outer = self._request
            self._request = self._dispatches
            self._dispatches += 1
            try:
                return wrapper(*args, **kwargs)
            finally:
                self._request = outer

        return dispatch

    def call(self, name: str, fn, *args):
        """One call of ``fn`` recorded as a span named ``name``."""
        return self.wrap(name, fn)(*args)

    @contextmanager
    def installed(self):
        """Wrap every layer's public functions; restore them on exit."""
        saved = []
        try:
            for owner, attr, name in _targets():
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self.wrap(name, original))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def instrument(self, interface) -> None:
        """Wrap a Petri-net interface's (per-instance) tokenizer."""
        interface.tokenize = self.wrap("petrinet.tokenize", interface.tokenize)

    def write(self, path: Path) -> None:
        """Spans as gzipped TSV: name, start_ns, end_ns, parent, request."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", compresslevel=1) as out:
            out.write("name\tstart_ns\tend_ns\tparent\trequest\n")
            columns = (self.names, self.start, self.end, self.parent, self.request)
            for row in zip(*columns, strict=True):
                out.write("\t".join(map(str, row)) + "\n")


@dataclass
class Totals:
    """Per span name: calls, inclusive and self nanoseconds."""

    calls: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    incl_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    self_ns: dict[str, int] = field(default_factory=lambda: defaultdict(int))
    root_ns: int = 0

    def add(self, names, start, end, parent) -> None:
        """Fold in spans given column-wise (see :class:`Recorder`)."""
        child_ns = array("q", bytes(8 * len(names)))
        for t0, t1, up in zip(start, end, parent, strict=True):
            if up >= 0:
                child_ns[up] += t1 - t0
            else:
                self.root_ns += t1 - t0
        for name, t0, t1, children in zip(names, start, end, child_ns, strict=True):
            self.calls[name] += 1
            self.incl_ns[name] += t1 - t0
            self.self_ns[name] += t1 - t0 - children

    def layer_self_ns(self) -> dict[str, int]:
        layers: dict[str, int] = defaultdict(int)
        for name, ns in self.self_ns.items():
            layers[name.split(".", 1)[0]] += ns
        return layers
