"""Explicit service-level objectives, checked live and offline.

The autoscaler and the brownout ladder both act on one question — *is
the fleet meeting its promise right now?* — so the promise must be a
first-class object, not a threshold buried in a loop.  :class:`SLO`
states it (a latency quantile within a cycle budget, a loss-rate
ceiling), :class:`SloMonitor` answers it over rolling windows of served
breakdowns and losses, and :meth:`SloMonitor.evaluate` answers it
offline for a whole :class:`~repro.runtime.serving.ServeResult` (the
form the capacity planner and the E17 benchmark verify against).
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from repro.hw.stats import quantile


@dataclass(frozen=True)
class SLO:
    """A serving promise: "the ``latency_quantile`` of end-to-end
    latency stays within ``latency_budget`` cycles, and no more than
    ``max_loss_rate`` of offered requests go unanswered."

    Latency is *end-to-end from arrival* (admission queue included) —
    the only latency a client can observe — and losses count every way
    a request dies: queue-full drops, deadline/brownout sheds, and
    pool-level failures.
    """

    latency_budget: float
    latency_quantile: float = 0.95
    max_loss_rate: float = 0.01

    def __post_init__(self) -> None:
        if self.latency_budget <= 0:
            raise ValueError("latency_budget must be positive cycles")
        if not 0.0 < self.latency_quantile < 1.0:
            raise ValueError("latency_quantile must lie in (0, 1)")
        if not 0.0 <= self.max_loss_rate <= 1.0:
            raise ValueError("max_loss_rate must lie in [0, 1]")

    def describe(self) -> str:
        return (
            f"p{self.latency_quantile * 100:g} <= {self.latency_budget:g} "
            f"cycles, loss <= {self.max_loss_rate:.2%}"
        )


@dataclass(frozen=True)
class SloStatus:
    """One verdict: the SLO checked against a window (or a whole run)."""

    at: float
    #: Observed latency at the SLO's quantile; ``None`` when the window
    #: holds no served requests yet.
    latency: float | None
    loss_rate: float
    served: int
    losses: int
    latency_ok: bool
    loss_ok: bool

    @property
    def ok(self) -> bool:
        return self.latency_ok and self.loss_ok

    def pressure(self, slo: SLO) -> float:
        """How close the window is to the latency budget: observed
        quantile / budget.  > 1 means the SLO is being violated; the
        ladder climbs on sustained pressure above 1 and descends when
        it falls comfortably below."""
        if self.latency is None:
            return 0.0
        return self.latency / slo.latency_budget


class SloMonitor:
    """Rolling SLO verdicts from live serving signals.

    Fed by the :class:`~repro.scale.controller.ScaleController` hooks:
    every served request contributes its end-to-end latency, every
    refusal contributes a loss mark.  ``status(at)`` checks the SLO
    against the samples of the trailing ``horizon`` cycles — a *time*
    window, not a count window, so a browned-out server (few requests
    admitted) recovers its verdict as fast as a busy one: stale bad
    samples age out by the clock, they are not held hostage waiting
    for fresh traffic to push them out.
    """

    def __init__(
        self,
        slo: SLO,
        *,
        horizon: float = 40_000.0,
        min_samples: int = 12,
    ):
        if horizon <= 0:
            raise ValueError("horizon must be positive cycles")
        if min_samples < 1:
            raise ValueError("min_samples must be >= 1")
        self.slo = slo
        self.horizon = horizon
        self.min_samples = min_samples
        self._served: deque[tuple[float, float]] = deque()  # (at, latency)
        self._losses: deque[float] = deque()  # loss times
        self.observed = 0
        self.lost = 0

    # ------------------------------------------------------------------
    # Feeding
    # ------------------------------------------------------------------
    def record_served(self, end_to_end: float, at: float) -> None:
        self._served.append((float(at), float(end_to_end)))
        self.observed += 1

    def record_loss(self, at: float) -> None:
        self._losses.append(float(at))
        self.observed += 1
        self.lost += 1

    def _prune(self, at: float) -> None:
        cutoff = at - self.horizon
        while self._served and self._served[0][0] < cutoff:
            self._served.popleft()
        while self._losses and self._losses[0] < cutoff:
            self._losses.popleft()

    # ------------------------------------------------------------------
    # Verdicts
    # ------------------------------------------------------------------
    def status(self, at: float) -> SloStatus:
        """The SLO checked against the trailing-``horizon`` window.

        Until ``min_samples`` latencies populate the window the latency
        verdict abstains (reports OK): a two-request window would make
        the ladder flap on startup noise, which is exactly what its
        hysteresis exists to prevent.
        """
        self._prune(at)
        served = len(self._served)
        losses = len(self._losses)
        finished = served + losses
        loss_rate = losses / finished if finished else 0.0
        lat = None
        if served:
            lat = quantile([s[1] for s in self._served], self.slo.latency_quantile)
        latency_ok = (
            lat <= self.slo.latency_budget if served >= self.min_samples else True
        )
        return SloStatus(
            at=at,
            latency=lat,
            loss_rate=loss_rate,
            served=served,
            losses=losses,
            latency_ok=latency_ok,
            loss_ok=loss_rate <= self.slo.max_loss_rate,
        )

    def evaluate(self, result) -> SloStatus:
        """Offline verdict over a whole
        :class:`~repro.runtime.serving.ServeResult` — the form the E17
        benchmark asserts and the capacity planner validates against."""
        latencies = [b.end_to_end for b in result.breakdowns]
        at = max((b.completed for b in result.breakdowns), default=0.0)
        lat = quantile(latencies, self.slo.latency_quantile) if latencies else None
        loss_rate = result.loss_rate
        return SloStatus(
            at=at,
            latency=lat,
            loss_rate=loss_rate,
            served=len(latencies),
            losses=result.losses,
            latency_ok=lat is None or lat <= self.slo.latency_budget,
            loss_ok=loss_rate <= self.slo.max_loss_rate,
        )
