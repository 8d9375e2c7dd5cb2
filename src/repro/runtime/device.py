"""The fault-tolerant served device.

:class:`ResilientDevice` wraps any ``AcceleratorModel`` +
``PerformanceInterface`` pair as a served endpoint on a virtual clock —
the production counterpart of the paper's §5 offload devices.  Each call
runs the full serving loop:

1. admission through the :class:`~repro.runtime.breaker.CircuitBreaker`
   (OPEN ⇒ straight to the CPU fallback, no accelerator cycles burned);
2. an accelerator attempt whose *observed* latency comes from the
   ground-truth model, perturbed by the
   :class:`~repro.runtime.faults.FaultPlan` for this invocation;
3. a :class:`~repro.runtime.watchdog.Watchdog` deadline (hangs and
   drops cost exactly the budget — the time spent waiting);
4. retry with capped exponential backoff and seeded jitter on failure;
5. on success, online drift detection comparing the *interface's*
   predicted latency to the observed one — sustained mispredictions trip
   the breaker just like hard failures do;
6. on exhaustion (or an open breaker), graceful degradation to the
   CPU software path, which always answers.

Every call appends a :class:`CallRecord` to :attr:`ResilientDevice.records`;
that tape replays through :mod:`repro.runtime.tape` so the §5
record/replay estimator can price an application run that includes
faulted calls.

Everything is deterministic: same seeds, same workload ⇒ byte-identical
records and clock.
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass
from typing import Generic, TypeVar

from repro.accel.base import AcceleratorModel
from repro.core.interface import PerformanceInterface
from repro.core.offload import VirtualDevice
from repro.hw.stats import Summary

from .breaker import BreakerState, CircuitBreaker
from .degrade import CpuFallback, DriftDetector
from .faults import FaultEvent, FaultKind
from .retry import RetryPolicy
from .watchdog import Watchdog

RequestT = TypeVar("RequestT")
ResponseT = TypeVar("ResponseT")


@dataclass(frozen=True)
class CallRecord(Generic[RequestT, ResponseT]):
    """One served call, as recorded on the tape."""

    index: int  # 1-based logical call number
    request: RequestT
    response: ResponseT
    cycles: float  # total virtual cycles the call cost, end to end
    path: str  # "accel", "cpu", or "failed" (pool mode, no degradation)
    attempts: int  # accelerator invocations made (0 = breaker short-circuit)
    faults: tuple[FaultKind, ...]  # faults encountered across attempts
    breaker_state: BreakerState | None  # state at admission, if a breaker ran
    #: Cycles of *useful* service: the successful accelerator attempt
    #: (or the CPU fallback computation).  ``cycles - service_cycles`` is
    #: pure overhead — failed attempts, backoff, watchdog waits.  0 when
    #: the call failed outright (pool mode).
    service_cycles: float = 0.0


@dataclass(frozen=True)
class _Attempt:
    """Outcome of one accelerator invocation."""

    ok: bool
    charge: float  # cycles this attempt cost
    observed: float | None  # device-side latency, when one was observed
    reason: str  # failure label for breaker/timeline bookkeeping
    #: Fault-injected memory-stall cycles inside ``observed`` (refresh
    #: storms, latency spikes): the slice of the observed window the
    #: attribution layer charges to the memory stage.
    stall: float = 0.0


class ResilientDevice(VirtualDevice[RequestT, ResponseT], Generic[RequestT, ResponseT]):
    """A served accelerator endpoint with faults, retries, a breaker,
    drift detection, and CPU graceful degradation.

    Args:
        model: ground-truth accelerator (observed latency).
        interface: the vendor's performance interface (predicted
            latency — used for drift detection and clean replay).
        fallback: the degraded-mode software path; also supplies the
            functional response for successful accelerator calls unless
            ``respond`` overrides it (accelerator and software agree
            functionally — the §5 record/replay premise).
        fault_plan: anything with ``.at(invocation) -> FaultEvent | None``;
            ``None`` serves faultlessly.
        watchdog: per-invocation deadline (default 100k cycles).
        retry: backoff policy (default 3 attempts).
        breaker: circuit breaker; ``None`` degrades per call only, with
            no admission control — every call pays its own timeouts.
        drift: online drift detector; requires a breaker to act on it.
        invocation_overhead: host-side cycles per accelerator invocation
            (descriptor setup + DMA), e.g.
            :func:`repro.accel.cpu.offload_overhead`.
        storm_latency: hook ``f(request, event) -> cycles`` resolving a
            REFRESH_STORM through a real memory model
            (:func:`repro.runtime.faults.dram_storm_latency`); the
            default approximation adds the storm duration.
    """

    def __init__(
        self,
        model: AcceleratorModel[RequestT],
        interface: PerformanceInterface[RequestT],
        fallback: CpuFallback[RequestT, ResponseT],
        *,
        respond: Callable[[RequestT], ResponseT] | None = None,
        fault_plan=None,
        watchdog: Watchdog | None = None,
        retry: RetryPolicy | None = None,
        breaker: CircuitBreaker | None = None,
        drift: DriftDetector | None = None,
        invocation_overhead: Callable[[RequestT], float] | None = None,
        storm_latency: Callable[[RequestT, FaultEvent], float] | None = None,
        name: str | None = None,
        obs=None,
    ):
        """``name`` labels this endpoint in traces/metrics (defaults to
        the model's name; a pool with several devices of one model type
        should pass distinct names).  ``obs`` is an
        :class:`repro.obs.Obs` bundle (or anything with
        ``tracer``/``metrics``/``observatory`` attributes, each
        optional): the tracer gets per-call offload/attempt/backoff
        spans on this device's serving clock (plus a ``petri.predict``
        span per prediction a Petri-net interface makes for the drift
        checks), the metrics registry gets call/fault/breaker counters
        and a latency histogram, and the drift observatory receives
        every (predicted, observed) pair a successful accelerator
        attempt yields."""
        super().__init__()
        self.model = model
        self.interface = interface
        self.fallback = fallback
        self.respond = respond or fallback.software_fn
        self.fault_plan = fault_plan
        self.watchdog = watchdog or Watchdog(budget=100_000.0)
        self.retry = retry or RetryPolicy()
        self.breaker = breaker
        self.drift = drift
        self.invocation_overhead = invocation_overhead
        self.storm_latency = storm_latency
        self.name = name or getattr(model, "name", type(model).__name__)
        self.obs = obs
        tracer = getattr(obs, "tracer", None)
        self._tracer = (
            tracer if tracer is not None and getattr(tracer, "enabled", True) else None
        )
        self._metrics = getattr(obs, "metrics", None)
        self._observatory = getattr(obs, "observatory", None)
        self._breaker_seen = len(breaker.transitions) if breaker is not None else 0
        self.records: list[CallRecord[RequestT, ResponseT]] = []
        self._invocations = 0  # monotone accelerator-invocation counter

    # ------------------------------------------------------------------
    # Serving
    # ------------------------------------------------------------------
    def call(self, request: RequestT) -> ResponseT:
        return self._serve(request, degrade=True).response

    def offload(self, request: RequestT) -> CallRecord[RequestT, ResponseT]:
        """Pool-facing serving: accelerator path only, no degradation.

        Where :meth:`call` absorbs accelerator failure by answering on
        the CPU fallback, a :class:`~repro.runtime.pool.DevicePool` wants
        the failure surfaced so it can *re-route* — another device may
        answer faster than this host's software path.  On exhaustion (or
        an inadmissible breaker) the returned record has
        ``path == "failed"`` and ``response is None``; the cycles charged
        are the time genuinely burned here (attempts, backoff, watchdog
        waits), which the pool accounts toward the request's end-to-end
        latency before hedging it elsewhere.
        """
        return self._serve(request, degrade=False)

    def _serve(
        self, request: RequestT, *, degrade: bool
    ) -> CallRecord[RequestT, ResponseT]:
        index = self.calls + 1
        start = self.clock
        tracer = self._tracer
        faults: list[FaultKind] = []
        attempts = 0
        response: ResponseT | None = None
        path = "failed"
        service = 0.0
        admission_state = self.breaker.state if self.breaker else None
        admitted = self.breaker is None or self.breaker.allow(self.clock)

        if admitted:
            for attempt in range(1, self.retry.max_attempts + 1):
                invocation = self._invocations
                self._invocations += 1
                attempts += 1
                event = self.fault_plan.at(invocation) if self.fault_plan else None
                if event is not None:
                    faults.append(event.kind)
                attempt_start = self.clock
                outcome = self._attempt(request, event)
                self.clock += outcome.charge
                if tracer is not None:
                    tracer.add_span(
                        "attempt",
                        attempt_start,
                        self.clock,
                        cat="runtime.attempt",
                        tid=self.name,
                        args={
                            "n": attempt,
                            "ok": outcome.ok,
                            "reason": outcome.reason,
                            "fault": event.kind.value if event is not None else None,
                            "observed": outcome.observed,
                        },
                    )
                    if outcome.ok and outcome.stall > 0.0:
                        # The fault-stretched tail of the observed
                        # window; attribution charges it to memory.
                        stall_end = self.clock - (outcome.charge - outcome.observed)
                        tracer.add_span(
                            "stall",
                            stall_end - outcome.stall,
                            stall_end,
                            cat="runtime.stall",
                            tid=self.name,
                            args={
                                "fault": (
                                    event.kind.value if event is not None else None
                                ),
                            },
                        )
                if outcome.ok:
                    response = self.respond(request)
                    path = "accel"
                    service = outcome.charge
                    self._record_success(request, outcome, attempt_start)
                    break
                if self.breaker is not None:
                    self.breaker.record_failure(self.clock, reason=outcome.reason)
                    if self.breaker.state is BreakerState.OPEN:
                        break  # the circuit just opened: stop burning retries
                if attempt < self.retry.max_attempts:
                    pause = self.retry.backoff(index, attempt)
                    if tracer is not None:
                        tracer.add_span(
                            "backoff",
                            self.clock,
                            self.clock + pause,
                            cat="runtime.backoff",
                            tid=self.name,
                            args={"after_attempt": attempt},
                        )
                    self.clock += pause

        if response is None and degrade:
            response, cycles = self.fallback.call(request)
            if tracer is not None:
                tracer.add_span(
                    "fallback",
                    self.clock,
                    self.clock + cycles,
                    cat="runtime.fallback",
                    tid=self.name,
                    args={"index": index},
                )
            self.clock += cycles
            path = "cpu"
            service = cycles

        self.calls += 1
        record = CallRecord(
            index=index,
            request=request,
            response=response,
            cycles=self.clock - start,
            path=path,
            attempts=attempts,
            faults=tuple(faults),
            breaker_state=admission_state,
            service_cycles=service,
        )
        self.records.append(record)
        if tracer is not None:
            tracer.add_span(
                "offload",
                start,
                self.clock,
                cat="runtime.offload",
                tid=self.name,
                args={"index": index, "path": path, "attempts": attempts},
            )
        self._observe_call(record, faults)
        return record

    def _observe_call(
        self, record: CallRecord[RequestT, ResponseT], faults: list[FaultKind]
    ) -> None:
        """Publish one finished call to metrics + breaker timeline."""
        metrics = self._metrics
        if metrics is not None:
            metrics.counter(
                "device_calls_total", device=self.name, path=record.path
            ).inc()
            metrics.counter("device_attempts_total", device=self.name).inc(
                record.attempts
            )
            metrics.histogram("device_call_cycles", device=self.name).observe(
                record.cycles
            )
            for kind in faults:
                metrics.counter(
                    "device_faults_total", device=self.name, kind=kind.value
                ).inc()
        if self.breaker is not None and (
            self._tracer is not None or metrics is not None
        ):
            transitions = self.breaker.transitions
            for tr in transitions[self._breaker_seen :]:
                if self._tracer is not None:
                    self._tracer.instant(
                        f"breaker:{tr.state.value}",
                        tr.time,
                        cat="runtime.breaker",
                        tid=self.name,
                        args={"reason": tr.reason},
                    )
                if metrics is not None:
                    metrics.counter(
                        "breaker_transitions_total",
                        device=self.name,
                        to=tr.state.value,
                    ).inc()
            self._breaker_seen = len(transitions)

    def _attempt(self, request: RequestT, event: FaultEvent | None) -> _Attempt:
        """One accelerator invocation under ``event`` (or none)."""
        if getattr(self.model, "tracer", None) is not None and hasattr(
            self.model, "trace_origin"
        ):
            # Models time each call on a local 0-based clock; align their
            # spans (DRAM bursts etc.) with this device's serving clock.
            self.model.trace_origin = self.clock
        observed = self.model.measure_latency(request)
        base = observed  # fault-free device-side latency
        kind = event.kind if event is not None else None
        if kind is FaultKind.LATENCY_SPIKE:
            observed *= event.magnitude
        elif kind is FaultKind.REFRESH_STORM:
            if self.storm_latency is not None:
                observed = self.storm_latency(request, event)
            else:
                observed += event.magnitude
        elif kind is FaultKind.HANG:
            observed = float("inf")

        overhead = (
            self.invocation_overhead(request) if self.invocation_overhead else 0.0
        )
        budget = self.watchdog.budget
        if observed > budget:
            # Hang or pathological slowdown: the watchdog fires at the
            # deadline, so the caller paid exactly the budget.
            return _Attempt(False, budget + overhead, None, "watchdog timeout")
        if kind is FaultKind.DROP:
            # The device finished but the response never arrived; the
            # only detector is, again, the watchdog deadline.
            return _Attempt(False, budget + overhead, None, "response dropped")
        if kind is FaultKind.CORRUPT:
            # Arrived on time, failed the integrity check on arrival.
            return _Attempt(False, observed + overhead, None, "response corrupted")
        return _Attempt(
            True, observed + overhead, observed, "ok",
            stall=max(0.0, observed - base),
        )

    def _record_success(
        self, request: RequestT, outcome: _Attempt, attempt_start: float
    ) -> None:
        if self.breaker is not None:
            was_half_open = self.breaker.state is BreakerState.HALF_OPEN
            self.breaker.record_success(self.clock)
            if (
                was_half_open
                and self.breaker.state is BreakerState.CLOSED
                and self.drift is not None
            ):
                self.drift.reset()  # a recovered device starts a fresh window
        observatory = self._observatory
        if outcome.observed is not None and (
            self.drift is not None or observatory is not None
        ):
            predicted = self.interface.latency(request)
            if self._tracer is not None and self.interface.representation == "petri-net":
                # The prediction being checked, on the serving clock next
                # to the attempt it predicts.  The tracer stores
                # end - start, so the exact prediction rides in the args.
                self._tracer.add_span(
                    "predict",
                    attempt_start,
                    attempt_start + predicted,
                    cat="petri.predict",
                    tid=self.name,
                    args={"predicted": predicted, "observed": outcome.observed},
                )
            if observatory is not None:
                observatory.observe(
                    self.name, request, predicted, outcome.observed, at=self.clock
                )
            if self.drift is not None:
                drifted = self.drift.update(predicted, outcome.observed)
                if (
                    drifted
                    and self.breaker is not None
                    and self.breaker.state is BreakerState.CLOSED
                ):
                    self.breaker.trip(
                        self.clock,
                        f"interface drift: avg symmetric error "
                        f"{self.drift.last_score:.0%} over {self.drift.samples} calls",
                    )

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    def available(self, now: float) -> bool:
        """Would the breaker admit a call at ``now``?  Non-mutating —
        safe for a router to poll across the whole pool."""
        return self.breaker is None or self.breaker.would_allow(now)

    @property
    def tape(self) -> list[CallRecord[RequestT, ResponseT]]:
        """The recorded calls, for replay via :mod:`repro.runtime.tape`."""
        return self.records

    def latencies(self) -> list[float]:
        """Per-call end-to-end virtual cycles."""
        return [r.cycles for r in self.records]

    def fallback_fraction(self) -> float:
        if not self.records:
            return 0.0
        return sum(r.path == "cpu" for r in self.records) / len(self.records)

    def fault_count(self) -> int:
        return sum(len(r.faults) for r in self.records)

    def summary(self) -> Summary:
        return Summary.of(self.latencies())
