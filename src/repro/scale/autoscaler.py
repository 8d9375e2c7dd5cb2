"""SLO-guarded autoscaling: fleet membership as a control loop.

The autoscaler closes the loop the ROADMAP left open: from observed
serving signals (SLO verdicts, admission-queue depth, breaker states,
drift) to :meth:`~repro.runtime.pool.DevicePool.add_device` /
:meth:`~repro.runtime.pool.DevicePool.remove_device` calls.  Three
design rules keep it from thrashing:

* **Hysteresis** — scaling needs a *streak* of pressure (or calm)
  verdicts, not one bad sample.
* **Cooldown** — after any scale event the scaler sits out a fixed
  span of cycles, so one burst cannot trigger a step per arrival.
* **Hard floor** — the scaler only ever removes devices *it added*;
  the base fleet is untouchable, so a flapping fault can never shrink
  the pool below its provisioned size.

And the paper's thesis rule: a candidate device is **priced through
its Petri-net interface before it joins**.  Scale-out batch-evaluates
every template against a rolling sample of live requests
(:meth:`~repro.runtime.pool.PooledDevice.price_batch`, one engine pass
per candidate) and admits the one with the best predicted service per
unit cost — capacity is bought by prediction, not by guesswork.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable, Sequence
from dataclasses import dataclass, field


@dataclass(frozen=True)
class DeviceTemplate:
    """A device the autoscaler (or planner) can instantiate.

    ``build(name)`` must return a fresh
    :class:`~repro.runtime.pool.PooledDevice` whose pricing interface
    is live — it is batch-evaluated before the device is admitted.
    ``cost`` is the relative price the planner minimizes and the
    scaler's value-for-money scoring divides by.
    """

    kind: str
    cost: float
    build: Callable[[str], object]


@dataclass(frozen=True)
class ScalePolicy:
    """Thresholds and guards of the scaling loop."""

    #: Queue depth / queue limit at or above which an observation
    #: counts as pressure even when the SLO still holds (leading
    #: indicator: the queue fills before the tail blows).
    scale_out_queue_frac: float = 0.5
    #: Queue fraction at or below which an observation counts as calm.
    scale_in_queue_frac: float = 0.05
    #: Consecutive pressure observations before scaling out.
    scale_out_after: int = 2
    #: Consecutive calm observations before scaling in.  Larger than
    #: ``scale_out_after``: adding capacity is urgent, removing it is
    #: housekeeping.
    scale_in_after: int = 8
    #: Minimum cycles between scale events.
    cooldown: float = 50_000.0
    #: Ceiling on total pool size (base fleet + scaled devices).
    max_devices: int = 8
    #: How many recent live requests the candidate pricing batch uses.
    pricing_sample: int = 16
    #: Scale-in safety margin: a device is removed only if the
    #: *remaining* fleet's interface-predicted utilization at the
    #: observed arrival rate stays at or below this — capacity is
    #: released by prediction, exactly as it was bought.
    scale_in_rho: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.scale_in_queue_frac <= self.scale_out_queue_frac <= 1.0:
            raise ValueError(
                "need 0 <= scale_in_queue_frac <= scale_out_queue_frac <= 1"
            )
        if self.scale_out_after < 1 or self.scale_in_after < 1:
            raise ValueError("scale_out_after and scale_in_after must be >= 1")
        if self.cooldown < 0:
            raise ValueError("cooldown must be non-negative")
        if self.max_devices < 1:
            raise ValueError("max_devices must be >= 1")
        if self.pricing_sample < 1:
            raise ValueError("pricing_sample must be >= 1")
        if not 0.0 < self.scale_in_rho < 1.0:
            raise ValueError("scale_in_rho must lie in (0, 1)")


@dataclass(frozen=True)
class ScaleEvent:
    """One membership change (or a considered-and-refused one)."""

    at: float
    action: str  # "out" | "in"
    device: str
    kind: str
    reason: str
    #: Mean interface-predicted service cycles of the pricing batch on
    #: the admitted candidate (scale-out only).
    predicted_service: float | None = None
    #: kind -> mean predicted service, for every candidate scored.
    candidate_scores: dict = field(default_factory=dict)


class Autoscaler:
    """The membership control loop for one :class:`DevicePool`.

    Fed by the :class:`~repro.scale.controller.ScaleController`:
    ``note_request`` keeps the rolling pricing sample,
    ``update(now, status, queue_frac)`` runs one decision step.
    """

    def __init__(
        self,
        pool,
        templates: Sequence[DeviceTemplate],
        policy: ScalePolicy | None = None,
        *,
        obs=None,
    ):
        if not templates:
            raise ValueError("autoscaler needs at least one device template")
        self.pool = pool
        self.templates = list(templates)
        self.policy = policy or ScalePolicy()
        self.obs = obs if obs is not None else getattr(pool, "obs", None)
        self._tracer = getattr(self.obs, "tracer", None)
        self._metrics = getattr(self.obs, "metrics", None)
        self._tsdb = getattr(self.obs, "tsdb", None)
        #: Names of devices this scaler added — the only ones it may
        #: remove.  The base fleet is the hard floor.
        self.added: list[str] = []
        self.events: list[ScaleEvent] = []
        self.floor = len(pool.devices)
        self._sample: deque = deque(maxlen=self.policy.pricing_sample)
        self._completions: deque[float] = deque(maxlen=32)
        self._pressure_streak = 0
        self._calm_streak = 0
        self._last_event_at = -float("inf")
        self._spawned = 0
        pool.scaler = self

    # ------------------------------------------------------------------
    # Signals
    # ------------------------------------------------------------------
    def note_request(self, request, completed: float | None = None) -> None:
        """Feed one live request into the candidate-pricing sample (and
        its completion time into the arrival-rate estimate)."""
        self._sample.append(request)
        if completed is not None:
            self._completions.append(completed)

    def _observed_rate(self) -> float | None:
        """Recent request throughput (requests/cycle), from completion
        timestamps.  ``None`` until enough history accumulates."""
        if len(self._completions) < 8:
            return None
        span = self._completions[-1] - self._completions[0]
        if span <= 0:
            return None
        return (len(self._completions) - 1) / span

    def _breaker_pressure(self, now: float) -> float:
        """Fraction of the fleet whose breakers refuse calls at ``now``."""
        down = sum(not d.available(now) for d in self.pool.devices)
        return down / len(self.pool.devices)

    def _drifting(self) -> bool:
        observatory = getattr(self.obs, "observatory", None)
        if observatory is None:
            return False
        pooled = {d.name for d in self.pool.devices}
        return any(dev in pooled for dev, _ in observatory.drifting_keys())

    # ------------------------------------------------------------------
    # The decision step
    # ------------------------------------------------------------------
    def update(self, now: float, status, queue_frac: float) -> ScaleEvent | None:
        """One control step: classify the moment, advance the streaks,
        maybe scale.  Returns the event if membership changed."""
        pressure = (
            not status.ok
            or queue_frac >= self.policy.scale_out_queue_frac
            or self._breaker_pressure(now) >= 0.5
            or self._drifting()
        )
        # Calm deliberately ignores breaker state: a tripped base
        # device parks its breaker open for its whole recovery span,
        # and holding surplus capacity hostage to that timer would
        # inflate the fleet long after the queue has drained.
        calm = status.ok and queue_frac <= self.policy.scale_in_queue_frac
        if pressure:
            self._pressure_streak += 1
            self._calm_streak = 0
        elif calm:
            self._calm_streak += 1
            self._pressure_streak = 0
        else:  # in between: decay both, move nothing
            self._pressure_streak = 0
            self._calm_streak = 0

        if now - self._last_event_at < self.policy.cooldown:
            return None
        if (
            self._pressure_streak >= self.policy.scale_out_after
            and len(self.pool.devices) < self.policy.max_devices
        ):
            event = self._scale_out(now)
            if event is not None:
                self._pressure_streak = 0
            return event
        if self._calm_streak >= self.policy.scale_in_after and self.added:
            event = self._scale_in(now)
            if event is not None:
                self._calm_streak = 0
            return event
        return None

    def _scale_out(self, now: float) -> ScaleEvent | None:
        """Price every template against the live sample; admit the best
        predicted-service-per-cost candidate."""
        sample = list(self._sample)
        if not sample:
            return None  # nothing observed yet: nothing to price against
        scored: list[tuple[float, float, DeviceTemplate, object]] = []
        scores: dict[str, float] = {}
        for template in self.templates:
            name = f"{template.kind}-s{self._spawned}"
            candidate = template.build(name)
            # One batched engine pass; busy_until == now on a fresh
            # device, so this is pure predicted service + overhead.
            predicted = candidate.price_batch(sample, now)
            mean_service = sum(p - now for p in predicted) / len(predicted)
            scores[template.kind] = mean_service
            scored.append((mean_service, template.cost, template, candidate))
        # Fastest predicted service wins, cost breaks ties: the live
        # loop's job is restoring the SLO, and the capacity planner —
        # not a moment of pressure — is where cost gets optimized.
        scored.sort(key=lambda s: (s[0], s[1]))
        mean_service, _, template, candidate = scored[0]
        self.pool.add_device(candidate)
        self.added.append(candidate.name)
        self._spawned += 1
        event = ScaleEvent(
            at=now,
            action="out",
            device=candidate.name,
            kind=template.kind,
            reason="slo_pressure",
            predicted_service=mean_service,
            candidate_scores=scores,
        )
        self._record(event)
        return event

    def _mean_service(self, pooled, now: float, sample) -> float:
        """Interface-predicted mean service of the sample on one device
        (backlog excluded) — one batched engine pass."""
        start = pooled.busy_until(now)
        predicted = pooled.price_batch(sample, now)
        return sum(p - start for p in predicted) / len(predicted)

    def _removal_safe(self, name: str, now: float) -> bool:
        """Would the fleet minus ``name`` still clear the observed
        arrival rate at ``scale_in_rho`` or below?  Capacity is the sum
        of 1/mean-predicted-service over the remaining devices whose
        breakers currently admit — released by prediction, exactly as
        scale-out bought it.  Unknown rate or unpriceable remainder
        counts as unsafe."""
        rate = self._observed_rate()
        sample = list(self._sample)
        if rate is None or not sample:
            return False
        capacity = 0.0
        for d in self.pool.devices:
            if d.name == name or not d.available(now):
                continue
            mean_service = self._mean_service(d, now, sample)
            if mean_service > 0:
                capacity += 1.0 / mean_service
        if capacity <= 0:
            return False
        return rate / capacity <= self.policy.scale_in_rho

    def _scale_in(self, now: float) -> ScaleEvent | None:
        """Retire one scaler-added device — never a base-fleet member,
        never one the healer is mid-refit on (its shadow validation
        needs the live traffic; see
        :meth:`~repro.heal.HealingManager.busy_devices`), and never
        when the remaining fleet's predicted capacity could not carry
        the observed load (:meth:`_removal_safe`)."""
        busy = (
            self.pool.healer.busy_devices()
            if self.pool.healer is not None
            else set()
        )
        removable = [n for n in self.added if n not in busy]
        if not removable:
            return None  # every scaled device is mid-heal: pause scale-in
        # Retire the idlest of the removable (fewest in flight).
        name = min(
            removable, key=lambda n: self.pool.device(n).outstanding(now)
        )
        if not self._removal_safe(name, now):
            return None
        self.pool.remove_device(name)
        self.added.remove(name)
        kind = name.rsplit("-s", 1)[0]
        event = ScaleEvent(
            at=now, action="in", device=name, kind=kind, reason="sustained_calm"
        )
        self._record(event)
        return event

    def _record(self, event: ScaleEvent) -> None:
        self.events.append(event)
        self._last_event_at = event.at
        if self._tracer is not None:
            self._tracer.instant(
                f"scale:{event.action}",
                event.at,
                cat="runtime.scale",
                tid="autoscaler",
                args={
                    "device": event.device,
                    "kind": event.kind,
                    "reason": event.reason,
                },
            )
        if self._metrics is not None:
            self._metrics.counter(
                "autoscaler_events_total", action=event.action, kind=event.kind
            ).inc()
            self._metrics.gauge("pool_devices").set(len(self.pool.devices))
        if self._tsdb is not None:
            self._tsdb.event(
                f"scale:{event.action}",
                event.at,
                device=event.device,
                kind=event.kind,
                reason=event.reason,
            )
            self._tsdb.record(
                "autoscaler_devices", event.at, len(self.pool.devices)
            )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def scale_outs(self) -> int:
        return sum(e.action == "out" for e in self.events)

    def scale_ins(self) -> int:
        return sum(e.action == "in" for e in self.events)

    def snapshot(self) -> dict:
        return {
            "devices": len(self.pool.devices),
            "floor": self.floor,
            "added": list(self.added),
            "scale_outs": self.scale_outs(),
            "scale_ins": self.scale_ins(),
            "events": [
                {
                    "at": e.at,
                    "action": e.action,
                    "device": e.device,
                    "kind": e.kind,
                    "reason": e.reason,
                    "predicted_service": e.predicted_service,
                }
                for e in self.events
            ],
        }
