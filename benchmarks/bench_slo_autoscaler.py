"""E17 — SLO-guarded autoscaling with brownout degradation.

E15 fixed the fleet and E16 healed its interfaces; this experiment lets
the fleet *change shape*.  A diurnal storage-RPC trace (arrival rate
swinging 3.5× trough-to-peak) with a rolling fault storm on the base
Protoacc is served three ways:

* **autoscaled** — the pool starts at the two-device floor (Protoacc +
  CPU) under a :class:`~repro.scale.ScaleController`: a rolling
  :class:`~repro.scale.SloMonitor` checks the SLO live, the
  :class:`~repro.scale.DegradationLadder` climbs brownout rungs when it
  is violated, and the :class:`~repro.scale.Autoscaler` grows/shrinks
  the fleet — every scale-out candidate priced through its performance
  interface before it joins, every scale-in gated on interface-predicted
  remaining capacity;
* **fixed, equal average** — the same trace against a static fleet
  sized to the autoscaler's *time-averaged* device count;
* **planned** — an offline :class:`~repro.scale.CapacityPlanner` buys
  the cheapest fleet whose contract-bounded latency provably meets the
  SLO at the forecast peak rate, and that fleet serves the (storm-free)
  trace.

The claims under test:

1. the autoscaled pool meets the SLO end-to-end (offline verdict over
   the whole run), scaling out under the peak/storm and back in after —
   at least one scale-out, one scale-in, one brownout climb, and a full
   descent back to rung NORMAL;
2. a fixed fleet with the *same average hardware* violates the SLO on
   the same trace (adaptivity, not capacity, is what the controller
   buys) — asserted at full workload scale;
3. brownout degrades by policy, not by accident: every shed carries a
   named reason, sheds are confined to rungs >= SHED_LOW_PRIORITY, and
   the controller's intentional losses are excluded from its own
   control signal;
4. the capacity planner's contract-bounded latency is a sound and
   usefully tight upper envelope: at full workload scale the planned
   fleet's observed quantile never exceeds the bound and the bound is
   within 35% of observation (short traces are transient-dominated, so
   the steady-state comparison is gated on scale).
"""

from __future__ import annotations

import json
from pathlib import Path

from repro.obs import Obs
from repro.perf import EvalCache
from repro.runtime import OpenLoopServer
from repro.runtime.pool import DevicePool
from repro.runtime.serving import REASON_ADMISSION_REJECTED, REASON_PRIORITY_SHED
from repro.scale import (
    CapacityPlanner,
    Rung,
    SloMonitor,
    diurnal_arrivals,
    priority_assigner,
    run_scale_scenario,
    standard_templates,
)
from repro.workloads import STORAGE_MIX

from conftest import bench_seed, scale

N_REQUESTS = scale(1_000, minimum=400)
FULL_SCALE = N_REQUESTS >= 1_000
SEED = bench_seed(17)
BASE_GAP = 2_600.0
PEAK_FACTOR = 3.5


def test_slo_autoscaler(benchmark, report):
    auto = run_scale_scenario(count=N_REQUESTS, seed=SEED)
    slo = auto["slo"]
    verdict = auto["verdict"]
    controller = auto["controller"]
    scaler = controller.scaler
    ladder = controller.ladder

    # Claim 1: SLO met with a full scale-out/scale-in + brownout arc.
    assert verdict.ok, (
        f"autoscaled run violated the SLO: p95={verdict.latency:.0f}, "
        f"loss={verdict.loss_rate:.3f} vs {slo.describe()}"
    )
    outs = [e for e in scaler.events if e.action == "out"]
    ins = [e for e in scaler.events if e.action == "in"]
    assert outs, "autoscaler never scaled out under the peak/storm"
    assert ins, "autoscaler never scaled back in"
    assert ladder.climbed() >= 1, "ladder never climbed a brownout rung"
    assert ladder.descended() >= 1, "ladder never descended"
    assert ladder.rung is Rung.NORMAL, f"ladder stuck at {ladder.rung.label}"
    # Every scale-out was interface-priced before joining.
    assert all(e.predicted_service is not None for e in outs)
    assert all(e.candidate_scores for e in outs)
    # The pool never routed past a refusing breaker, storm included.
    assert auto["pool"].invariant_violations == 0

    # Claim 2: the equal-average fixed fleet fails the same trace.
    # avg_devices lands near 4 -> floor (protoacc + cpu) + 2 protoaccs.
    equal_extra = max(0, round(auto["avg_devices"]) - 2)
    fixed = run_scale_scenario(
        count=N_REQUESTS,
        seed=SEED,
        autoscale=False,
        brownout=False,
        fixed_extra_kinds=("protoacc",) * equal_extra,
    )
    if FULL_SCALE:
        assert not fixed["verdict"].ok, (
            "fixed fleet of equal average size met the SLO — the "
            "scenario no longer separates adaptive from static"
        )

    # Claim 3: every loss is named, sheds only happen on shed rungs,
    # and brownout's own output is not in its control signal.
    result = auto["result"]
    refusals = result.dropped + result.shed
    assert all(r.reason for r in refusals)
    intentional = [
        r
        for r in refusals
        if r.reason in (REASON_ADMISSION_REJECTED, REASON_PRIORITY_SHED)
    ]
    assert controller.intentional_losses == len(intentional)
    shed_spans = _rung_spans(ladder, Rung.SHED_LOW)
    for r in intentional:
        assert any(lo <= r.time <= hi for lo, hi in shed_spans), (
            f"intentional loss at t={r.time:.0f} outside any brownout span"
        )

    # Claim 4: plan for the forecast peak, serve the (storm-free) trace
    # on the planned fleet, and check the contract-bounded envelope.
    cache = EvalCache()
    obs = Obs.enabled(drift=False)
    templates = standard_templates(seed=SEED + 100, cache=cache, obs=obs)
    planner = CapacityPlanner(templates, reps=64, seed=SEED)
    peak_gap = BASE_GAP / PEAK_FACTOR
    plan, evaluated = planner.plan(STORAGE_MIX, peak_gap, slo, max_per_kind=4)
    assert plan is not None, "no feasible plan at the forecast peak"
    requests, arrivals = diurnal_arrivals(
        STORAGE_MIX,
        seed=SEED,
        count=N_REQUESTS,
        base_gap=BASE_GAP,
        peak_factor=PEAK_FACTOR,
        sharpness=1.0,
    )
    planned_pool = DevicePool(
        planner.build_fleet(plan), policy="interface_predicted", obs=obs
    )
    planned_server = OpenLoopServer(
        planned_pool,
        queue_limit=48,
        deadline=80_000.0,
        priority_fn=priority_assigner(requests, SEED),
        obs=obs,
    )
    planned_verdict = SloMonitor(slo).evaluate(planned_server.run(requests, arrivals))
    assert planned_verdict.ok, "planned fleet violated the SLO it was bought for"
    if FULL_SCALE:
        # The envelope combines per-request contract bounds with the
        # *steady-state* P-K wait; short traces are transient-dominated,
        # so both directions of the comparison need the full trace.
        assert planned_verdict.latency <= plan.bound_latency, (
            f"observed p95 {planned_verdict.latency:.0f} exceeds the contract "
            f"bound {plan.bound_latency:.0f} — the planner's envelope is unsound"
        )
        assert plan.bound_latency <= 1.35 * planned_verdict.latency, (
            f"bound {plan.bound_latency:.0f} vs observed "
            f"{planned_verdict.latency:.0f}: envelope too loose to plan with"
        )

    benchmark(lambda: run_scale_scenario(count=min(N_REQUESTS, 250), seed=SEED))

    fv = fixed["verdict"]
    snapshot = auto["snapshot"]
    lines = [
        "E17 — SLO-guarded autoscaling: diurnal trace + rolling fault storm",
        f"requests: {N_REQUESTS}   mean gap: {BASE_GAP:.0f} cycles "
        f"(peak {PEAK_FACTOR:.1f}x)   slo: {slo.describe()}",
        "",
        f"{'arm':24}  {'devices':>8}  {'p95':>8}  {'loss%':>6}  {'slo':>4}",
        f"{'autoscaled (floor=2)':24}  {auto['avg_devices']:8.2f}  "
        f"{verdict.latency:8.0f}  {verdict.loss_rate * 100:6.1f}  "
        f"{'MET' if verdict.ok else 'MISS':>4}",
        f"{'fixed, equal average':24}  {2 + equal_extra:8.2f}  "
        f"{fv.latency:8.0f}  {fv.loss_rate * 100:6.1f}  "
        f"{'MET' if fv.ok else 'MISS':>4}",
        f"{'planned (no storm)':24}  {float(plan.devices):8.2f}  "
        f"{planned_verdict.latency:8.0f}  {planned_verdict.loss_rate * 100:6.1f}  "
        f"{'MET' if planned_verdict.ok else 'MISS':>4}",
        "",
        f"scaling: {len(outs)} scale-out, {len(ins)} scale-in "
        f"(cooldown {scaler.policy.cooldown:.0f} cycles, "
        f"max {scaler.policy.max_devices} devices)",
        f"brownout: {ladder.climbed()} climbs / {ladder.descended()} descents, "
        f"final rung {ladder.rung.label}",
        f"losses: {result.losses} total, {controller.intentional_losses} "
        "intentional (brownout sheds, excluded from the control signal)",
        "scale-out pricing (interface-predicted service, cycles):",
    ]
    for e in outs[:4]:
        scores = ", ".join(
            f"{kind}={svc:.0f}" for kind, svc in sorted(e.candidate_scores.items())
        )
        lines.append(f"  t={e.at:>9.0f}  +{e.kind:13}  candidates: {scores}")
    if len(outs) > 4:
        lines.append(f"  ... and {len(outs) - 4} more")
    lines += [
        "",
        f"capacity plan @ peak gap {peak_gap:.0f}: {plan.describe()} "
        f"(cost {plan.cost:g}, util {plan.utilization:.2f}, "
        f"{len(evaluated)} compositions searched)",
        f"  contract-bounded p95 {plan.bound_latency:,.0f} vs observed "
        f"{planned_verdict.latency:,.0f} "
        f"(bound/observed {plan.bound_latency / planned_verdict.latency:.2f}x"
        f"{'' if FULL_SCALE else '; envelope asserted at full scale only'})",
        "",
        f"final pool snapshot: rung={snapshot['brownout']['rung_label']}, "
        f"devices={len(auto['pool'].devices)}, "
        f"hedging={'on' if auto['pool'].hedging_enabled else 'off'}",
    ]
    report("E17_slo_autoscaler", "\n".join(lines))

    # Regression-sentinel metrics (``benchtrack check``): virtual-cycle
    # and event-count quantities only — deterministic at a pinned
    # REPRO_BENCH_SCALE, unlike anything wall-clock.
    bench_json = {
        "bench": "autoscaler",
        "metrics": {
            "auto_p95_cycles": verdict.latency,
            "auto_loss_rate": verdict.loss_rate,
            "avg_devices": auto["avg_devices"],
            "scale_outs": float(len(outs)),
            "scale_ins": float(len(ins)),
            "brownout_climbs": float(ladder.climbed()),
            "brownout_descents": float(ladder.descended()),
            "planned_bound_latency": plan.bound_latency,
        },
    }
    out_path = Path(__file__).parent / "results" / "BENCH_autoscaler.json"
    out_path.write_text(json.dumps(bench_json, indent=2, sort_keys=True) + "\n")


def _rung_spans(ladder, min_rung) -> list[tuple[float, float]]:
    """Time spans during which the ladder sat at ``min_rung`` or above,
    from its transition log (open span closed at +inf)."""
    spans = []
    start = None
    for t in ladder.transitions:
        if t.to_rung >= min_rung and start is None:
            start = t.at
        elif t.to_rung < min_rung and start is not None:
            spans.append((start, t.at))
            start = None
    if start is not None:
        spans.append((start, float("inf")))
    return spans
