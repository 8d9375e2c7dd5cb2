"""Offline capacity planning: buy the fleet by pricing it, not running it.

This is the paper's "predict before you commit hardware" workflow made
executable.  Given a traffic forecast (an :class:`~repro.workloads.rpc.RpcMix`
plus a mean inter-arrival gap) and an :class:`~repro.scale.slo.SLO`,
the planner searches fleet compositions over the device templates and
returns the cheapest one that *provably* meets the SLO — "provably"
meaning the latency estimate is taken at each device's
:class:`~repro.lint.PerfContract` upper envelope (interface prediction
inflated by the contract's validated ``epsilon``), so a fleet that
passes here carries a contract-backed margin, not a point estimate.

No composition is ever simulated.  Per kind, one batched interface
pass prices a representative request sample ("Performance
Representatives": a small sample stands in for the full workload);
per composition, closed-form M/G/1 queueing (Pollaczek–Khinchine) adds
the contention the no-contention interfaces cannot see.  A thousand
compositions cost one engine pass per device kind — and with a
persistent :class:`~repro.perf.EvalCache` attached, a re-plan costs
zero.
"""

from __future__ import annotations

from collections.abc import Sequence
from dataclasses import dataclass, field
from itertools import product

from repro.hw.stats import quantile

from .autoscaler import DeviceTemplate
from .slo import SLO

#: Per-device utilization above which the M/G/1 wait estimate is too
#: fragile to promise an SLO on (and loss-free serving is implausible).
DEFAULT_RHO_MAX = 0.85


@dataclass(frozen=True)
class KindProfile:
    """One device kind's priced behaviour on the representative sample."""

    kind: str
    cost: float
    #: Interface-predicted service + offload overhead per sample
    #: request, cycles (one batched engine pass).
    services: tuple[float, ...]
    #: Contract relative tolerance: the validated epsilon for
    #: contracted kinds, 0 for ground-truth (software) interfaces.
    epsilon: float
    #: Contract no-contention envelope, for the upper bound's sanity
    #: clamp (inf when uncontracted).
    max_latency: float

    @property
    def mean_service(self) -> float:
        return sum(self.services) / len(self.services)


@dataclass(frozen=True)
class FleetPlan:
    """One evaluated composition."""

    composition: dict[str, int]
    cost: float
    #: Highest per-device utilization across kinds.
    utilization: float
    #: Point estimate of the SLO quantile (interface prediction + P-K
    #: wait), cycles; None when the composition cannot carry the load.
    predicted_latency: float | None
    #: Contract-bounded estimate of the same quantile: per-request
    #: service at the (1 + epsilon) envelope.  The feasibility verdict
    #: uses this, not the point estimate.
    bound_latency: float | None
    #: Traffic fraction routed to each kind (fastest-kind assignment).
    traffic: dict[str, float] = field(default_factory=dict)

    @property
    def devices(self) -> int:
        return sum(self.composition.values())

    def describe(self) -> str:
        parts = [
            f"{count}x {kind}"
            for kind, count in sorted(self.composition.items())
            if count
        ]
        return " + ".join(parts) if parts else "(empty)"


class CapacityPlanner:
    """Search fleet compositions by interface pricing.

    Args:
        templates: the device kinds money can buy (see
            :func:`~repro.scale.templates.standard_templates`).
        reps: representative sample size per plan.
        seed: sample seed — plans are deterministic.
        rho_max: per-device utilization ceiling for feasibility.
    """

    def __init__(
        self,
        templates: Sequence[DeviceTemplate],
        *,
        reps: int = 64,
        seed: int = 17,
        rho_max: float = DEFAULT_RHO_MAX,
    ):
        if not templates:
            raise ValueError("planner needs at least one device template")
        if reps < 1:
            raise ValueError("reps must be >= 1")
        if not 0.0 < rho_max < 1.0:
            raise ValueError("rho_max must lie in (0, 1)")
        self.templates = list(templates)
        self.reps = reps
        self.seed = seed
        self.rho_max = rho_max

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def profile_kinds(self, mix) -> dict[str, KindProfile]:
        """Price the representative sample on every kind — one batched
        interface pass each (`price_batch` → ``evaluate_batch``)."""
        sample = mix.sample(self.seed, self.reps)
        profiles: dict[str, KindProfile] = {}
        for template in self.templates:
            probe = template.build(f"plan-probe-{template.kind}")
            # A fresh device at t=0 has no backlog, so price - now is
            # pure interface-predicted service + offload overhead.
            services = tuple(p - 0.0 for p in probe.price_batch(sample, 0.0))
            contract = getattr(probe, "contract", None)
            profiles[template.kind] = KindProfile(
                kind=template.kind,
                cost=template.cost,
                services=services,
                epsilon=contract.epsilon if contract is not None else 0.0,
                max_latency=(
                    contract.max_latency if contract is not None else float("inf")
                ),
            )
        return profiles

    # ------------------------------------------------------------------
    # One composition
    # ------------------------------------------------------------------
    def evaluate(
        self,
        composition: dict[str, int],
        profiles: dict[str, KindProfile],
        mean_gap: float,
        slo: SLO,
    ) -> FleetPlan:
        """Closed-form verdict for one composition.

        Requests are assigned to the kind that serves them fastest
        among the kinds present (what ``interface_predicted`` routing
        converges to under light load), load inside a kind spreads
        evenly over its copies, and each copy is an M/G/1 queue whose
        mean wait is Pollaczek–Khinchine:
        ``W = lambda * E[S^2] / (2 * (1 - rho))``.
        """
        present = [k for k, n in composition.items() if n > 0]
        cost = sum(profiles[k].cost * n for k, n in composition.items())
        if not present:
            return FleetPlan(dict(composition), cost, float("inf"), None, None)

        # Fastest-kind assignment per representative request.
        assigned: dict[str, list[int]] = {k: [] for k in present}
        for i in range(self.reps):
            best = min(present, key=lambda k: profiles[k].services[i])
            assigned[best].append(i)

        arrival_rate = 1.0 / mean_gap
        utilization = 0.0
        waits: dict[str, float] = {}
        traffic: dict[str, float] = {}
        for kind in present:
            idx = assigned[kind]
            traffic[kind] = len(idx) / self.reps
            if not idx:
                waits[kind] = 0.0
                continue
            services = [profiles[kind].services[i] for i in idx]
            mean_s = sum(services) / len(services)
            mean_s2 = sum(s * s for s in services) / len(services)
            per_copy_rate = arrival_rate * traffic[kind] / composition[kind]
            rho = per_copy_rate * mean_s
            utilization = max(utilization, rho)
            if rho >= 1.0:
                waits[kind] = float("inf")
            else:
                waits[kind] = per_copy_rate * mean_s2 / (2.0 * (1.0 - rho))

        if utilization >= 1.0:
            return FleetPlan(
                dict(composition), cost, utilization, None, None, traffic
            )

        totals: list[float] = []
        bounds: list[float] = []
        for kind in present:
            profile = profiles[kind]
            for i in assigned[kind]:
                s = profile.services[i]
                totals.append(waits[kind] + s)
                # The contract envelope: prediction inflated by the
                # validated epsilon, clamped to the symbolic max bound.
                bounded_s = min(s * (1.0 + profile.epsilon), profile.max_latency)
                bounds.append(waits[kind] + bounded_s)
        return FleetPlan(
            composition=dict(composition),
            cost=cost,
            utilization=utilization,
            predicted_latency=quantile(totals, slo.latency_quantile),
            bound_latency=quantile(bounds, slo.latency_quantile),
            traffic=traffic,
        )

    def meets(self, plan: FleetPlan, slo: SLO) -> bool:
        """Does the plan *provably* meet the SLO?  Contract-bounded
        quantile within budget and every device under ``rho_max`` (the
        loss guard: a fleet with utilization headroom and a sane queue
        bound serves open-loop traffic essentially loss-free)."""
        return (
            plan.bound_latency is not None
            and plan.bound_latency <= slo.latency_budget
            and plan.utilization <= self.rho_max
        )

    # ------------------------------------------------------------------
    # The search
    # ------------------------------------------------------------------
    def plan(
        self,
        mix,
        mean_gap: float,
        slo: SLO,
        *,
        max_per_kind: int = 4,
    ) -> tuple[FleetPlan | None, list[FleetPlan]]:
        """Search every composition with up to ``max_per_kind`` copies
        per kind; return ``(cheapest feasible plan, all evaluated
        plans)``.  ``None`` means no searched fleet can carry the
        forecast within the SLO — buy different hardware or relax the
        promise."""
        if mean_gap <= 0:
            raise ValueError("mean_gap must be positive cycles")
        profiles = self.profile_kinds(mix)
        kinds = [t.kind for t in self.templates]
        evaluated: list[FleetPlan] = []
        for counts in product(range(max_per_kind + 1), repeat=len(kinds)):
            if sum(counts) == 0:
                continue
            composition = dict(zip(kinds, counts, strict=True))
            evaluated.append(self.evaluate(composition, profiles, mean_gap, slo))
        evaluated.sort(
            key=lambda p: (
                p.cost,
                p.bound_latency if p.bound_latency is not None else float("inf"),
            )
        )
        for plan in evaluated:
            if self.meets(plan, slo):
                return plan, evaluated
        return None, evaluated

    # ------------------------------------------------------------------
    # Realization
    # ------------------------------------------------------------------
    def build_fleet(self, plan: FleetPlan) -> list:
        """Instantiate the plan as pooled devices (named
        ``<kind>-p<i>``), ready for ``DevicePool(...)`` — how the E17
        benchmark turns the paper plan into a served fleet."""
        by_kind = {t.kind: t for t in self.templates}
        devices = []
        for kind, count in sorted(plan.composition.items()):
            template = by_kind[kind]
            for i in range(count):
                devices.append(template.build(f"{kind}-p{i}"))
        return devices
