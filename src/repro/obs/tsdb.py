"""An embedded time-series store for the observability plane.

The :class:`~repro.obs.metrics.MetricsRegistry` answers "what is the
value *now*"; this module answers "what was it *then*" — without which
an SLO verdict, an autoscaler decision, or a drift arc cannot be
reconstructed after the fact.  :class:`TimeSeriesStore` is the smallest
store that earns that: fixed-size ring buffers per series (bounded
memory, oldest points retired first), multi-resolution downsampling
(count/sum/min/max per bucket at each configured resolution, so a long
run keeps coarse history after the raw ring wraps), a bounded event
log for instants (scale events, brownout transitions, heal
transitions), and the query operators actually run: rate over a
window.

Timestamps are virtual cycles, same as every clock in the repo, so a
stored run is deterministic: same seeds, same workload ⇒ identical
series.  Feeding happens two ways:

* :meth:`pump` folds a full ``MetricsRegistry.snapshot()`` into the
  store (counters/gauges one point each; histograms as ``:count`` and
  ``:sum`` series), throttled by :meth:`maybe_pump` so the serving hot
  loop pays one float comparison per arrival when it is too early.
* :meth:`record` / :meth:`event` take direct samples and instants from
  the scale/heal/brownout layers.

Like :mod:`repro.obs.trace`, this module imports nothing from the rest
of the repo — it sits at the bottom of the dependency order so any
layer can write into it.
"""

from __future__ import annotations

from typing import Any

__all__ = ["TimeSeriesStore", "series_key"]


def series_key(name: str, labels: dict[str, Any] | None = None) -> str:
    """Render ``name`` + labels the way the metrics registry does
    (``name{a="1",b="x"}``), so pumped and recorded series line up."""
    if not labels:
        return name
    rendered = ",".join(f'{k}="{labels[k]}"' for k in sorted(labels))
    return f"{name}{{{rendered}}}"


class _Ring:
    """Fixed-capacity ring of ``(at, value)`` points, oldest evicted."""

    __slots__ = ("capacity", "_points", "_head", "total")

    def __init__(self, capacity: int):
        self.capacity = capacity
        self._points: list[tuple[float, float]] = []
        self._head = 0  # next write slot once full
        self.total = 0  # points ever written (retention accounting)

    def append(self, at: float, value: float) -> None:
        self.total += 1
        if len(self._points) < self.capacity:
            self._points.append((at, value))
        else:
            self._points[self._head] = (at, value)
            self._head = (self._head + 1) % self.capacity

    def items(self) -> list[tuple[float, float]]:
        """Points in time order (ring unrolled)."""
        if len(self._points) < self.capacity:
            return list(self._points)
        return self._points[self._head :] + self._points[: self._head]

    def __len__(self) -> int:
        return len(self._points)


class _Buckets:
    """One downsampling resolution: a ring of fixed-width buckets, each
    aggregating ``(count, sum, min, max)`` over ``width`` cycles."""

    __slots__ = ("width", "capacity", "_buckets")

    def __init__(self, width: float, capacity: int):
        self.width = width
        self.capacity = capacity
        # bucket index -> [count, sum, min, max]; insertion-ordered so
        # the oldest key is first (dicts preserve insertion order and
        # time only moves forward on the virtual clock).
        self._buckets: dict[int, list[float]] = {}

    def add(self, at: float, value: float) -> None:
        index = int(at // self.width)
        bucket = self._buckets.get(index)
        if bucket is None:
            if len(self._buckets) >= self.capacity:
                oldest = next(iter(self._buckets))
                del self._buckets[oldest]
            self._buckets[index] = [1.0, value, value, value]
        else:
            bucket[0] += 1.0
            bucket[1] += value
            if value < bucket[2]:
                bucket[2] = value
            if value > bucket[3]:
                bucket[3] = value

    def items(self) -> list[tuple[float, dict[str, float]]]:
        """``(bucket_start, {count, sum, min, max, mean})`` in time order."""
        out = []
        for index in sorted(self._buckets):
            count, total, lo, hi = self._buckets[index]
            out.append(
                (
                    index * self.width,
                    {
                        "count": count,
                        "sum": total,
                        "min": lo,
                        "max": hi,
                        "mean": total / count,
                    },
                )
            )
        return out


class _Series:
    __slots__ = ("name", "raw", "resolutions")

    def __init__(self, name: str, capacity: int, resolutions, bucket_capacity):
        self.name = name
        self.raw = _Ring(capacity)
        self.resolutions = tuple(
            _Buckets(width, bucket_capacity) for width in resolutions
        )

    def add(self, at: float, value: float) -> None:
        self.raw.append(at, value)
        for buckets in self.resolutions:
            buckets.add(at, value)


class TimeSeriesStore:
    """Bounded, zero-dependency, multi-resolution time-series storage.

    Args:
        capacity: raw points retained per series (ring buffer).
        resolutions: downsampling bucket widths in cycles, coarse
            history that survives after the raw ring wraps.
        bucket_capacity: buckets retained per resolution per series.
        event_capacity: instants retained in the event log.
        pump_interval: minimum cycles between :meth:`maybe_pump` folds
            of the metrics registry.
    """

    def __init__(
        self,
        *,
        capacity: int = 1024,
        resolutions: tuple[float, ...] = (1_000.0, 10_000.0),
        bucket_capacity: int = 512,
        event_capacity: int = 2048,
        pump_interval: float = 1_000.0,
    ):
        if capacity < 1:
            raise ValueError("capacity must be >= 1")
        if any(w <= 0 for w in resolutions):
            raise ValueError(f"resolutions must be positive: {resolutions}")
        self.capacity = capacity
        self.resolutions = tuple(resolutions)
        self.bucket_capacity = bucket_capacity
        self.event_capacity = event_capacity
        self.pump_interval = pump_interval
        self.pumps = 0
        self.last_pump_at: float | None = None
        self.last_at: float | None = None
        self.dropped_events = 0
        self._series: dict[str, _Series] = {}
        self._events: list[tuple[float, str, dict[str, Any]]] = []

    # ------------------------------------------------------------------
    # Ingest
    # ------------------------------------------------------------------
    def record(self, name: str, at: float, value: float, **labels: Any) -> None:
        """Append one point to series ``name`` (labels rendered into the
        series key, metrics-registry style)."""
        key = series_key(name, labels)
        series = self._series.get(key)
        if series is None:
            series = self._series[key] = _Series(
                key, self.capacity, self.resolutions, self.bucket_capacity
            )
        series.add(at, float(value))
        if self.last_at is None or at > self.last_at:
            self.last_at = at

    def event(self, name: str, at: float, **fields: Any) -> None:
        """Append one instant (scale event, brownout transition, heal
        transition) to the bounded event log."""
        if len(self._events) >= self.event_capacity:
            self.dropped_events += 1
            return
        self._events.append((at, name, fields))
        if self.last_at is None or at > self.last_at:
            self.last_at = at

    def pump(self, metrics, at: float) -> int:
        """Fold one ``MetricsRegistry.snapshot()`` into the store.

        Counters and gauges become one point each; histograms become
        ``<name>:count`` and ``<name>:sum`` points (the bucket vector is
        already cumulative in the registry — re-storing it per pump
        would be all cost, no query).  Returns the number of points
        written."""
        if metrics is None:
            return 0
        written = 0
        for key, value in metrics.snapshot().items():
            if isinstance(value, dict):
                self.record(f"{key}:count", at, value["count"])
                self.record(f"{key}:sum", at, value["sum"])
                written += 2
            else:
                self.record(key, at, value)
                written += 1
        self.pumps += 1
        self.last_pump_at = at
        return written

    def maybe_pump(self, metrics, at: float) -> int:
        """Throttled :meth:`pump` — no-op unless ``pump_interval``
        cycles have passed since the last fold."""
        if (
            self.last_pump_at is not None
            and at - self.last_pump_at < self.pump_interval
        ):
            return 0
        return self.pump(metrics, at)

    # ------------------------------------------------------------------
    # Query
    # ------------------------------------------------------------------
    def series_names(self) -> list[str]:
        return sorted(self._series)

    def points(
        self,
        name: str,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[tuple[float, float]]:
        """Raw retained points for one series, time-ordered, optionally
        windowed to ``[since, until]`` inclusive."""
        series = self._series.get(name)
        if series is None:
            return []
        out = series.raw.items()
        if since is not None:
            out = [p for p in out if p[0] >= since]
        if until is not None:
            out = [p for p in out if p[0] <= until]
        return out

    def latest(self, name: str) -> tuple[float, float] | None:
        series = self._series.get(name)
        if series is None or len(series.raw) == 0:
            return None
        return series.raw.items()[-1]

    def rate(self, name: str, *, window: float | None = None) -> float | None:
        """Per-cycle rate of change over the retained window (for
        counter-shaped series: last-first over elapsed).  ``window``
        restricts to the trailing ``window`` cycles.  ``None`` until
        two points span nonzero time."""
        points = self.points(name)
        if window is not None and points:
            horizon = points[-1][0] - window
            points = [p for p in points if p[0] >= horizon]
        if len(points) < 2:
            return None
        (t0, v0), (t1, v1) = points[0], points[-1]
        if t1 <= t0:
            return None
        return (v1 - v0) / (t1 - t0)

    def downsampled(
        self, name: str, resolution: float
    ) -> list[tuple[float, dict[str, float]]]:
        """Bucketed aggregates at one configured resolution."""
        series = self._series.get(name)
        if series is None:
            return []
        for buckets in series.resolutions:
            if buckets.width == resolution:
                return buckets.items()
        raise ValueError(
            f"resolution {resolution} not configured (have {self.resolutions})"
        )

    def events(
        self,
        name_prefix: str | None = None,
        *,
        since: float | None = None,
        until: float | None = None,
    ) -> list[tuple[float, str, dict[str, Any]]]:
        """Logged instants in time order, optionally filtered by name
        prefix and window."""
        out = sorted(self._events, key=lambda e: e[0])
        if name_prefix is not None:
            out = [e for e in out if e[1].startswith(name_prefix)]
        if since is not None:
            out = [e for e in out if e[0] >= since]
        if until is not None:
            out = [e for e in out if e[0] <= until]
        return out

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def snapshot(self) -> dict[str, Any]:
        """Freshness excerpt for pool snapshots and operator reports."""
        return {
            "series": len(self._series),
            "points": sum(s.raw.total for s in self._series.values()),
            "events": len(self._events),
            "dropped_events": self.dropped_events,
            "pumps": self.pumps,
            "last_pump_at": self.last_pump_at,
            "last_at": self.last_at,
        }
