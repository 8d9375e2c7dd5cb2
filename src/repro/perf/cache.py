"""Content-addressed result cache for interface evaluations.

An :class:`EvalCache` maps ``(net fingerprint, workload features)`` to a
previously computed result (a makespan, a latency, anything).  Keys
are content hashes — see :mod:`repro.perf.fingerprint` — so two processes
building the same net from the same source compute the *same* key, and
mutating a net (a delay formula, an arc weight, a capacity) changes its
fingerprint and silently invalidates every entry keyed under the old one.

The cache never guesses: features it cannot encode stably are counted as
``uncacheable`` and the computation runs uncached.

With ``path=`` the cache gains a persistent tier — an append-only JSONL
file (:class:`repro.perf.store.PersistentStore`) replayed on open, so a
fresh process warm-starts from every spillable result earlier processes
computed.  Only JSON-representable values spill (makespans, latencies,
plain data); any other object stays in-memory and is counted as
``unspillable``.  Appends are atomic, loads tolerate a truncated tail,
and :meth:`reload` picks up entries written concurrently by other
processes.
"""

from __future__ import annotations

import hashlib
import os
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from typing import Any

from repro.petri.net import PetriNet

from .fingerprint import UncacheableError, net_fingerprint, workload_key
from .store import PersistentStore


@dataclass
class CacheStats:
    """Hit/miss accounting, surfaced in validation and autotune reports."""

    hits: int = 0
    misses: int = 0
    uncacheable: int = 0
    spills: int = 0
    unspillable: int = 0

    @property
    def lookups(self) -> int:
        return self.hits + self.misses

    @property
    def hit_rate(self) -> float:
        """Fraction of cacheable lookups served from the cache."""
        if self.lookups == 0:
            return 0.0
        return self.hits / self.lookups

    def summary(self) -> str:
        text = f"cache: {self.hits}/{self.lookups} hits ({self.hit_rate:.0%})"
        if self.uncacheable:
            text += f", {self.uncacheable} uncacheable"
        if self.spills:
            text += f", {self.spills} spilled"
        if self.unspillable:
            text += f", {self.unspillable} unspillable"
        return text


class EvalCache:
    """In-memory content-addressed store with hit/miss counters.

    One cache may serve many nets — the net fingerprint namespaces the
    keys.  Pass a string as ``net`` to namespace non-net computations
    (e.g. ``"profiler:cycle-accurate"``).

    Args:
        path: Optional JSONL file enabling the persistent tier.  Existing
            entries are loaded immediately; every spillable store also
            appends to the file.
    """

    #: Sentinel returned by :meth:`get` on a miss (``None`` is a value).
    MISS: Any = object()

    def __init__(self, path: str | os.PathLike[str] | None = None) -> None:
        self._store: dict[str, Any] = {}
        self.stats = CacheStats()
        self._metrics: dict[str, Any] = {}
        self.disk: PersistentStore | None = None
        if path is not None:
            self.disk = PersistentStore(path)
            self._store.update(self.disk.load())

    def bind_metrics(self, registry, **labels) -> None:
        """Mirror lookups into a :class:`repro.obs.MetricsRegistry` as
        ``eval_cache_{hits,misses,uncacheable,spills,unspillable}_total``
        counters (with ``labels``).  Only lookups *after* binding are
        counted; rebinding moves future counts to the new registry."""
        self._metrics = {
            name: registry.counter(f"eval_cache_{name}_total", **labels)
            for name in ("hits", "misses", "uncacheable", "spills", "unspillable")
        }

    def _count(self, name: str) -> None:
        setattr(self.stats, name, getattr(self.stats, name) + 1)
        metric = self._metrics.get(name)
        if metric is not None:
            metric.inc()

    def key(self, net: PetriNet | str, features: Any) -> str:
        """Content-addressed key; raises :class:`UncacheableError` when the
        features cannot be encoded stably."""
        namespace = net if isinstance(net, str) else net_fingerprint(net)
        return hashlib.sha256(
            f"{namespace}\n{workload_key(features)}".encode()
        ).hexdigest()

    # ------------------------------------------------------------------
    # Low-level API
    # ------------------------------------------------------------------
    def _lookup(self, net: PetriNet | str, features: Any) -> tuple[str | None, Any]:
        """``(key, value)`` with the lookup counted: ``key`` is None for
        uncacheable features, ``value`` is :data:`MISS` on a miss."""
        try:
            key = self.key(net, features)
        except UncacheableError:
            self._count("uncacheable")
            return None, self.MISS
        value = self._store.get(key, self.MISS)
        self._count("misses" if value is self.MISS else "hits")
        return key, value

    def _store_value(self, key: str, value: Any) -> None:
        self._store[key] = value
        if self.disk is not None:
            self._count("spills" if self.disk.append(key, value) else "unspillable")

    def get(self, net: PetriNet | str, features: Any) -> Any:
        """The cached value, or :data:`EvalCache.MISS`.

        Uncacheable features count as such and report a miss (the caller
        must compute, and must not :meth:`put` the result).
        """
        return self._lookup(net, features)[1]

    def put(self, net: PetriNet | str, features: Any, value: Any) -> None:
        """Store a computed value, spilling it to the persistent tier
        when one is configured and the value is JSON-representable."""
        try:
            key = self.key(net, features)
        except UncacheableError:
            return
        self._store_value(key, value)

    def reload(self) -> int:
        """Apply entries other processes appended since open/last reload.

        Returns how many entries were applied; a no-op (0) without a
        persistent tier.
        """
        if self.disk is None:
            return 0
        return self.disk.reload_into(self._store)

    # ------------------------------------------------------------------
    # High-level API
    # ------------------------------------------------------------------
    def get_many(
        self,
        net: PetriNet | str,
        features: Sequence[Any],
        compute: Callable[[list[int]], Sequence[Any]],
    ) -> list[Any]:
        """One value per entry of ``features``, in input order.

        Every entry is looked up first; ``compute`` is then called once
        with the indices of the misses (uncacheable entries included),
        in order, and must return one value per index.  It is not called
        when everything hits.  Computed values are stored, except those
        of uncacheable entries.
        """
        out: list[Any] = []
        misses: list[int] = []
        keys: list[str | None] = []
        for i, feature in enumerate(features):
            key, value = self._lookup(net, feature)
            if value is self.MISS:
                misses.append(i)
                keys.append(key)
            out.append(value)
        if misses:
            values = compute(misses)
            if len(values) != len(misses):
                raise ValueError(
                    f"compute returned {len(values)} values for {len(misses)} misses"
                )
            for i, key, value in zip(misses, keys, values):
                out[i] = value
                if key is not None:
                    self._store_value(key, value)
        return out

    def get_or_compute(self, net: PetriNet | str, features: Any, compute: Callable[[], Any]) -> Any:
        """The one-item case of :meth:`get_many`: the cached result for
        ``(net, features)``, computed and stored on a miss.  Uncacheable
        features always compute."""
        return self.get_many(net, (features,), lambda _: (compute(),))[0]

    def clear(self) -> None:
        """Drop all in-memory entries (counters are kept; use
        ``reset_stats`` too).  The persistent file is untouched — use
        :meth:`reload` (or a fresh cache) to re-apply it."""
        self._store.clear()

    def reset_stats(self) -> None:
        self.stats = CacheStats()

    def __len__(self) -> int:
        return len(self._store)

    def __contains__(self, key: str) -> bool:
        return key in self._store
