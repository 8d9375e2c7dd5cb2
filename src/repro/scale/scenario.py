"""The shared autoscaling scenario: a diurnal trace with a fault storm.

One trace generator and one runner, reused by the E17 benchmark, the
``perfscope scale`` report, the ``scaling-smoke`` CI job, and the chaos
soak test — so every consumer exercises the same arc:

* **diurnal arrivals** — the inter-arrival gap tightens sinusoidally
  to a peak and relaxes again (a compressed day of traffic);
* **a rolling fault storm** — mid-trace, the base Protoacc's fault
  plan turns hostile for a bounded invocation window, then recovers
  (:class:`~repro.runtime.faults.WindowedFaultPlan`);
* an SLO-guarded control plane (monitor + brownout ladder +
  autoscaler) or, for the comparison arm, a fixed fleet serving the
  identical trace.
"""

from __future__ import annotations

import numpy as np

from repro.obs import Obs
from repro.runtime import OpenLoopServer, WindowedFaultPlan
from repro.runtime.faults import FaultPlan, FaultSpec
from repro.runtime.pool import DevicePool, rpc_device
from repro.workloads import STORAGE_MIX

from .autoscaler import ScalePolicy
from .brownout import BrownoutPolicy
from .controller import ScaleController
from .slo import SLO, SloMonitor
from .templates import standard_templates

#: The storm thrown at the base Protoacc mid-trace: hostile enough to
#: trip its breaker, bounded so the fleet can recover and the ladder
#: can descend.
STORM_SPEC = FaultSpec(hang_rate=0.30, drop_rate=0.15, corrupt_rate=0.05)

#: Scaling thresholds tuned for the scenario's cycle scale: scale out
#: on the first pressure decision (the capacity guard and cooldown
#: bound the churn), scale in lazily, and keep the fleet within 6.
SCENARIO_SCALE_POLICY = ScalePolicy(
    cooldown=12_000.0,
    scale_out_after=1,
    scale_in_after=8,
    scale_out_queue_frac=0.25,
    max_devices=6,
)

#: Ladder pacing for the scenario: patient on the way up (give the
#: autoscaler first crack at the pressure), quick on the way down.
SCENARIO_BROWNOUT_POLICY = BrownoutPolicy(climb_after=6, descend_after=3)

#: How requests split into priority classes (seeded, per request).
PRIORITY_CLASSES = ("low", "normal", "high")
PRIORITY_WEIGHTS = (0.3, 0.5, 0.2)


def diurnal_arrivals(
    mix,
    *,
    seed: int,
    count: int,
    base_gap: float,
    peak_factor: float = 3.0,
    periods: float = 1.0,
    sharpness: float = 2.0,
):
    """Sample ``count`` requests with a sinusoidally-modulated Poisson
    arrival process: the rate swings from the ``base_gap`` trough up to
    ``peak_factor``× and back, ``periods`` times over the trace.
    ``sharpness`` raises the sinusoid to a power — higher values
    concentrate the peak into a shorter burst with longer troughs (the
    shape that separates an adaptive fleet from a fixed-average one).

    Returns ``(requests, arrivals)`` like ``RpcMix.sample_open`` —
    deterministic in ``seed``.
    """
    if base_gap <= 0:
        raise ValueError("base_gap must be positive")
    if peak_factor < 1.0:
        raise ValueError("peak_factor must be >= 1 (it multiplies the rate)")
    if sharpness <= 0:
        raise ValueError("sharpness must be positive")
    requests = mix.sample(seed, count)
    rng = np.random.default_rng((seed, 0xD1))
    arrivals: list[float] = []
    t = 0.0
    for i in range(count):
        # Rate factor in [1, peak_factor], peaking mid-period.
        phase = 2.0 * np.pi * periods * i / count
        shape = (0.5 * (1.0 - np.cos(phase))) ** sharpness
        factor = 1.0 + (peak_factor - 1.0) * shape
        t += float(rng.exponential(base_gap / factor))
        arrivals.append(t)
    return requests, arrivals


def priority_assigner(requests, seed: int):
    """A deterministic ``priority_fn`` for a known request list: each
    request draws its class once (seeded), keyed by identity."""
    rng = np.random.default_rng((seed, 0x9B))
    draws = rng.choice(len(PRIORITY_CLASSES), size=len(requests), p=PRIORITY_WEIGHTS)
    by_id = {id(r): PRIORITY_CLASSES[d] for r, d in zip(requests, draws, strict=True)}
    return lambda request: by_id[id(request)]


def base_fleet(
    *,
    seed: int = 17,
    obs=None,
    storm_window: tuple[int, int] | None = None,
    extra_kinds=(),
):
    """The provisioned fleet: one Protoacc + one CPU server (the hard
    floor), plus ``extra_kinds`` copies for fixed-fleet comparison
    arms.  ``storm_window`` arms the Protoacc with a rolling storm over
    that invocation window."""
    fault_plan = None
    if storm_window is not None:
        start, stop = storm_window
        fault_plan = WindowedFaultPlan(FaultPlan(seed, STORM_SPEC), start, stop)
    devices = [
        rpc_device("protoacc", seed=seed, obs=obs, fault_plan=fault_plan),
        rpc_device("cpu", obs=obs),
    ]
    for i, kind in enumerate(extra_kinds):
        devices.append(rpc_device(kind, name=f"{kind}-f{i}", seed=seed + 2 + i, obs=obs))
    return devices


def run_scale_scenario(
    *,
    mix=STORAGE_MIX,
    count: int = 1_000,
    base_gap: float = 2_600.0,
    peak_factor: float = 3.5,
    sharpness: float = 1.0,
    seed: int = 17,
    slo: SLO | None = None,
    deadline: float = 80_000.0,
    queue_limit: int = 48,
    storm_window: tuple[int, int] | None = (30, 150),
    autoscale: bool = True,
    brownout: bool = True,
    fixed_extra_kinds=(),
    scale_policy: ScalePolicy | None = None,
    brownout_policy: BrownoutPolicy | None = None,
    decision_interval: float = 1_500.0,
    monitor_horizon: float = 40_000.0,
    obs=None,
) -> dict:
    """Serve one diurnal + storm trace and return the full story.

    With ``autoscale`` (the treatment arm) the pool starts at the
    two-device floor and the controller may grow it; with
    ``autoscale=False`` the same trace hits a fixed fleet of the floor
    plus ``fixed_extra_kinds`` (the comparison arm).  Returns a dict:
    ``result`` (ServeResult), ``verdict`` (offline SloStatus),
    ``pool``, ``controller`` (None in the fixed arm), ``snapshot``,
    ``requests``/``arrivals``, and ``avg_devices`` (time-averaged pool
    size over the serving span).
    """
    slo = slo or SLO(latency_budget=30_000.0, latency_quantile=0.95, max_loss_rate=0.08)
    obs = obs if obs is not None else Obs.enabled(drift=False)
    requests, arrivals = diurnal_arrivals(
        mix,
        seed=seed,
        count=count,
        base_gap=base_gap,
        peak_factor=peak_factor,
        sharpness=sharpness,
    )
    devices = base_fleet(
        seed=seed,
        obs=obs,
        storm_window=storm_window,
        extra_kinds=() if autoscale else fixed_extra_kinds,
    )
    pool = DevicePool(devices, policy="interface_predicted", obs=obs)
    controller = None
    if autoscale or brownout:
        controller = ScaleController(
            pool,
            slo,
            templates=(
                standard_templates(seed=seed + 100, obs=obs)
                if autoscale
                else ()
            ),
            monitor=SloMonitor(slo, horizon=monitor_horizon),
            scale_policy=scale_policy or SCENARIO_SCALE_POLICY,
            brownout_policy=brownout_policy or SCENARIO_BROWNOUT_POLICY,
            ladder=brownout,
            decision_interval=decision_interval,
            obs=obs,
        )
    server = OpenLoopServer(
        pool,
        queue_limit=queue_limit,
        deadline=deadline,
        priority_fn=priority_assigner(requests, seed),
        controller=controller,
        obs=obs,
    )
    result = server.run(requests, arrivals)
    verdict = SloMonitor(slo).evaluate(result)
    return {
        "slo": slo,
        "result": result,
        "verdict": verdict,
        "pool": pool,
        "controller": controller,
        "server": server,
        "snapshot": pool.snapshot(),
        "requests": requests,
        "arrivals": arrivals,
        "avg_devices": _avg_devices(pool, arrivals, result),
    }


def _avg_devices(pool, arrivals, result) -> float:
    """Time-averaged pool size over the serving span, reconstructed
    from the scaler's event log (a fixed fleet averages its size)."""
    span_start = arrivals[0] if arrivals else 0.0
    span_end = max(
        (b.completed for b in result.breakdowns), default=span_start
    )
    scaler = pool.scaler
    if scaler is None or not scaler.events or span_end <= span_start:
        return float(len(pool.devices))
    # Walk the event log: count changes at each event time.
    count = scaler.floor
    weighted = 0.0
    t = span_start
    for event in scaler.events:
        at = min(max(event.at, span_start), span_end)
        weighted += count * (at - t)
        count += 1 if event.action == "out" else -1
        t = at
    weighted += count * (span_end - t)
    return weighted / (span_end - span_start)
