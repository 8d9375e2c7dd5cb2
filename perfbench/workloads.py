"""The benchmark's workloads: inputs from a seed, a fresh build per run,
one timed run, and the correctness checks on its outputs.

Nothing here imports ``repro`` at module level, so a fresh interpreter
can time the import itself (``setup_s``, see :func:`setup_probe`).
"""

from __future__ import annotations

import gc
import math
import random
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter, perf_counter_ns

from perfbench.ledger import timed

#: Fault-plan and retry-jitter seed of the pool.  Part of the program's
#: configuration, not of the inputs: ``--seed`` changes only the trace.
POOL_SEED = 17
QUEUE_LIMIT = 48
DEADLINE = 60_000.0
#: Requests and sweep items whose prices are re-checked against the
#: reference engine in each benchmark run, drawn with a fixed seed so
#: that ``--seed`` changes nothing but the inputs.
REPRICE_SAMPLE = 32
CHECK_SEED = 0

OUT_DIR = Path(__file__).resolve().parent / "out"


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 1]) of a non-empty sample."""
    ordered = sorted(values)
    return float(ordered[min(len(ordered) - 1, max(0, math.ceil(q * len(ordered)) - 1))])


@dataclass
class Rep:
    """One run of a workload: what was timed and what it produced."""

    ops: int
    phase_ns: dict[str, int]
    digest: tuple
    outputs: dict = field(default_factory=dict)
    #: Per-item calls timed in an untraced run, and their percentiles (µs).
    calls: int = 0
    call_us: dict[float, float] = field(default_factory=dict)
    #: Reference-host seconds per host second while this run was timed
    #: (see ``run.calibration_seconds``); 1.0 when not calibrated.
    scale: float = 1.0

    @property
    def wall_ns(self) -> int:
        return sum(self.phase_ns.values())


def _phase(recorder, name, fn, *args):
    """Run ``fn`` as a bench-level root span when tracing, else plainly."""
    if recorder is None:
        return fn(*args)
    return recorder.call(name, fn, *args)


# ----------------------------------------------------------------------
# Serving workloads
# ----------------------------------------------------------------------
class ServeWorkload:
    """``ENTERPRISE_MIX`` replayed open-loop through ``rpc_pool`` and
    ``OpenLoopServer``.  Arrivals are Poisson in simulated cycles; the host
    replays the trace as fast as it can, so host numbers are per-request
    costs, not queueing delays."""

    kind = "serve"

    def __init__(self, name, *, policy, faults, mean_gap, count, observed=False):
        self.name = name
        self.policy = policy
        self.faults = faults
        self.mean_gap = mean_gap
        self.count = count
        self.observed = observed

    def inputs(self, seed: int):
        from repro.workloads import ENTERPRISE_MIX

        return ENTERPRISE_MIX.sample_open(seed=seed, count=self.count, mean_gap=self.mean_gap)

    def build(self):
        from repro.obs import Obs
        from repro.perf import EvalCache
        from repro.runtime import OpenLoopServer
        from repro.runtime.pool import rpc_pool

        cache = EvalCache()
        obs = Obs.enabled() if self.observed else None
        pool = rpc_pool(self.policy, faults=self.faults, seed=POOL_SEED, cache=cache, obs=obs)
        server = OpenLoopServer(pool, queue_limit=QUEUE_LIMIT, deadline=DEADLINE)
        return server, cache, obs

    def run(self, inputs, *, calls=None, recorder=None, record_prices=False) -> Rep:
        """One fresh pool and cache, then the timed replay.  ``calls``
        collects host ns per ``DevicePool.dispatch``; ``recorder`` traces
        every layer; ``record_prices`` keeps each interface-priced
        ``(device, request, value)`` for the re-pricing check."""
        from repro.core.petrinet import PetriNetInterface
        from repro.obs import attribute

        msgs, arrivals = inputs
        server, cache, obs = self.build()
        pool = server.pool
        priced = []
        for pooled in pool.devices:
            iface = pooled.price_interface
            if not isinstance(iface, PetriNetInterface):
                continue
            if recorder is not None:
                recorder.instrument(iface)
            if record_prices:
                iface.latency = _recording(iface.latency, pooled.name, priced)
        if calls is not None:
            pool.dispatch = timed(pool.dispatch, calls)
        phase_ns = {}
        gc.collect()
        t0 = perf_counter_ns()
        result = server.run(msgs, arrivals)
        phase_ns["serve"] = perf_counter_ns() - t0
        attributions = None
        if self.observed:
            t0 = perf_counter_ns()
            attributions = _phase(recorder, "obs.attribute", attribute, result, obs.tracer, pool)
            phase_ns["attribute"] = perf_counter_ns() - t0
        digest = (
            tuple((r.device, r.path, r.completed) for r in result.served),
            len(result.dropped),
            len(result.shed),
        )
        return Rep(
            ops=len(msgs),
            phase_ns=phase_ns,
            digest=digest,
            outputs={
                "pool": pool,
                "result": result,
                "cache": cache,
                "obs": obs,
                "attributions": attributions,
                "priced": priced,
            },
        )

    def check(self, rep: Rep, reference: Rep) -> int:
        """Failures in one run's outputs, counted per request."""
        pool = rep.outputs["pool"]
        result = rep.outputs["result"]
        failed = pool.invariant_violations
        for b in result.breakdowns:
            if abs(b.total - b.end_to_end) > 1e-6 * max(1.0, abs(b.end_to_end)):
                failed += 1
        failed += abs(result.offered - len(result.served) - len(result.dropped) - len(result.shed))
        failed += _digest_mismatches(rep.digest[0], reference.digest[0])
        failed += rep.digest[1:] != reference.digest[1:]
        attributions = rep.outputs["attributions"]
        if attributions is not None:
            failed += abs(len(attributions) - len(result.served))
            failed += sum(a.total != a.end_to_end for a in attributions)
        return failed

    def deep_check(self, rep: Rep) -> int:
        """The slower checks, run once per benchmark run: every answered
        response is the request's wire encoding, and a seeded sample of
        interface-priced requests re-prices bit-identically on the
        reference Petri engine."""
        from repro.accel.optimusprime import petri_interface as optimus_petri
        from repro.accel.protoacc import decode
        from repro.accel.protoacc import petri_interface as protoacc_petri

        failed = 0
        for pooled in rep.outputs["pool"].devices:
            for record in pooled.device.records:
                if record.path == "failed":
                    continue
                decoded = decode(record.response)
                same_fields = [f.number for f in decoded.fields] == [
                    f.number for f in record.request.fields
                ]
                failed += not (same_fields and decoded.encode() == record.response)
        priced = rep.outputs["priced"]
        if priced:
            reference = {
                "protoacc": protoacc_petri(engine="reference"),
                "optimus-prime": optimus_petri(engine="reference"),
            }
            sample = random.Random(CHECK_SEED).sample(priced, min(REPRICE_SAMPLE, len(priced)))
            failed += sum(reference[dev].latency(msg) != value for dev, msg, value in sample)
        return failed

    def sim_values(self, rep: Rep) -> list[float]:
        """Simulated end-to-end cycles of the answered requests."""
        return [r.cycles for r in rep.outputs["result"].answered]

    def state_metrics(self, rep: Rep) -> dict[str, float]:
        """Per-layer counts read from the program's own state after a run."""
        result = rep.outputs["result"]
        pool = rep.outputs["pool"]
        stats = rep.outputs["cache"].stats
        obs = rep.outputs["obs"]
        n = rep.ops
        waits = [b.queue_wait for b in result.breakdowns] or [0.0]
        records = [r for d in pool.devices for r in d.device.records]
        attempts = sum(r.attempts for r in records)
        wasted = attempts - sum(r.path == "accel" for r in records)
        transitions = sum(
            len(d.device.breaker.transitions) for d in pool.devices if d.device.breaker
        )
        return {
            "serving.queue_wait_cycles_p50": percentile(waits, 0.50),
            "serving.queue_wait_cycles_p99": percentile(waits, 0.99),
            "serving.dropped_per_req": len(result.dropped) / n,
            "serving.shed_per_req": len(result.shed) / n,
            "serving.loss_rate": result.loss_rate,
            "pool.hedges_per_req": result.hedge_count() / n,
            "device.attempts_per_call": attempts / max(1, len(records)),
            "device.failed_attempt_frac": wasted / max(1, attempts),
            "device.breaker_transitions": transitions,
            "cache.hit_rate": stats.hit_rate,
            "cache.misses_per_req": stats.misses / n,
            "obs.spans_per_req": len(obs.tracer) / n if obs is not None else 0.0,
        }


def _recording(fn, device, sink):
    def wrapper(request):
        value = fn(request)
        sink.append((device, request, value))
        return value

    return wrapper


def _digest_mismatches(got, want) -> int:
    return abs(len(got) - len(want)) + sum(a != b for a, b in zip(got, want))


# ----------------------------------------------------------------------
# Interface sweep
# ----------------------------------------------------------------------
BUNDLES = ("protoacc", "optimus")


class SweepWorkload:
    """Distinct messages from three mixes, priced by each Protoacc and
    Optimus Prime interface four ways: a cold ``evaluate_batch`` against
    a fresh persistent cache file, a warm ``evaluate_batch`` through a
    new cache on the same file, the ground-truth model, and the scalar
    ``latency()`` with no cache (the reference the batch passes must
    match, timed per call)."""

    kind = "sweep"

    def __init__(self, name, *, per_mix):
        self.name = name
        self.per_mix = per_mix

    def inputs(self, seed: int):
        from repro.workloads import ANALYTICS_MIX, ENTERPRISE_MIX, STORAGE_MIX

        items, seen = [], set()
        for i, mix in enumerate((ENTERPRISE_MIX, STORAGE_MIX, ANALYTICS_MIX)):
            for msg in mix.sample(seed=seed * 3 + i, count=self.per_mix):
                wire = msg.encode()
                if wire not in seen:
                    seen.add(wire)
                    items.append(msg)
        return items

    def build(self, cache_dir: Path):
        """Per bundle: the batch interface on a fresh persistent cache,
        the ground-truth model, and an uncached scalar interface."""
        from repro.accel.optimusprime import OptimusPrimeModel
        from repro.accel.optimusprime import petri_interface as optimus_petri
        from repro.accel.protoacc import ProtoaccSerializerModel
        from repro.accel.protoacc import petri_interface as protoacc_petri
        from repro.perf import EvalCache

        parts = {}
        for bundle, factory, model in (
            ("protoacc", protoacc_petri, ProtoaccSerializerModel),
            ("optimus", optimus_petri, OptimusPrimeModel),
        ):
            path = cache_dir / f"{bundle}.jsonl"
            parts[bundle] = (path, factory(cache=EvalCache(path=path)), model(), factory())
        return parts

    def run(self, items, *, calls=None, recorder=None, record_prices=False) -> Rep:
        """One fresh set of interfaces, models and cache files, then the
        four timed passes per bundle.  ``calls`` collects host ns per
        scalar ``latency()``; ``record_prices`` is unused, because the
        sweep's re-pricing check reads the cold pass's own values."""
        from repro.perf import EvalCache

        OUT_DIR.mkdir(parents=True, exist_ok=True)
        phase_ns: dict[str, int] = {}
        values: dict[str, list] = {}
        caches = {}
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            parts = self.build(Path(tmp))
            if recorder is not None:
                for _, iface, _, scalar in parts.values():
                    recorder.instrument(iface)
                    recorder.instrument(scalar)
            gc.collect()
            for bundle, (path, iface, model, scalar) in parts.items():
                t0 = perf_counter_ns()
                values[f"cold.{bundle}"] = _phase(
                    recorder, "bench.cold", iface.evaluate_batch, items
                )
                t1 = perf_counter_ns()

                caches[f"cold.{bundle}"] = iface.cache

                def warm(iface=iface, path=path):
                    iface.cache = EvalCache(path=path)
                    return iface.evaluate_batch(items)

                values[f"warm.{bundle}"] = _phase(recorder, "bench.warm", warm)
                t2 = perf_counter_ns()
                values[f"model.{bundle}"] = _phase(
                    recorder, "bench.model", lambda m=model: [m.measure_latency(x) for x in items]
                )
                t3 = perf_counter_ns()
                latency = scalar.latency if calls is None else timed(scalar.latency, calls)
                values[f"scalar.{bundle}"] = _phase(
                    recorder, "bench.scalar", lambda f=latency: [f(x) for x in items]
                )
                t4 = perf_counter_ns()
                phase_ns.update(
                    {
                        f"cold.{bundle}": t1 - t0,
                        f"warm.{bundle}": t2 - t1,
                        f"model.{bundle}": t3 - t2,
                        f"scalar.{bundle}": t4 - t3,
                    }
                )
                caches[f"warm.{bundle}"] = iface.cache
        digest = tuple(tuple(values[k]) for k in sorted(values))
        return Rep(
            ops=len(items),
            phase_ns=phase_ns,
            digest=digest,
            outputs={"values": values, "items": items, "caches": caches},
        )

    def check(self, rep: Rep, reference: Rep) -> int:
        """Per item and bundle: cold == warm == scalar, the warm pass
        never missed, and every value repeats the reference run."""
        values = rep.outputs["values"]
        failed = 0
        for bundle in BUNDLES:
            cold, warm, scalar = (values[f"{p}.{bundle}"] for p in ("cold", "warm", "scalar"))
            failed += sum(not (c == w == s) for c, w, s in zip(cold, warm, scalar, strict=True))
            failed += rep.outputs["caches"][f"warm.{bundle}"].stats.misses
            model = values[f"model.{bundle}"]
            failed += sum(not (m > 0 and math.isfinite(m)) for m in model)
        for got, want in zip(rep.digest, reference.digest, strict=True):
            failed += _digest_mismatches(got, want)
        return failed

    def deep_check(self, rep: Rep) -> int:
        """A seeded sample of items re-priced on the reference engine."""
        from repro.accel.optimusprime import petri_interface as optimus_petri
        from repro.accel.protoacc import petri_interface as protoacc_petri

        items = rep.outputs["items"]
        picks = min(REPRICE_SAMPLE, len(items))
        sample = random.Random(CHECK_SEED).sample(range(len(items)), picks)
        failed = 0
        for bundle, factory in (("protoacc", protoacc_petri), ("optimus", optimus_petri)):
            reference = factory(engine="reference")
            cold = rep.outputs["values"][f"cold.{bundle}"]
            failed += sum(reference.latency(items[i]) != cold[i] for i in sample)
        return failed

    def sim_values(self, rep: Rep) -> list[float]:
        """Ground-truth model cycles of every item on both bundles."""
        values = rep.outputs["values"]
        return [v for bundle in BUNDLES for v in values[f"model.{bundle}"]]

    def state_metrics(self, rep: Rep) -> dict[str, float]:
        stats = [cache.stats for cache in rep.outputs["caches"].values()]
        return {
            "cache.hit_rate": sum(s.hits for s in stats) / sum(s.lookups for s in stats),
            "cache.misses_per_req": sum(s.misses for s in stats) / rep.ops,
        }

    def paper_metrics(self, rep: Rep) -> dict[str, float]:
        """Prediction error of the cold interface against the model."""
        values = rep.outputs["values"]
        out = {}
        for bundle in BUNDLES:
            pairs = zip(values[f"cold.{bundle}"], values[f"model.{bundle}"], strict=True)
            errors = [abs(p - m) / m for p, m in pairs]
            out[f"paper.pred_err_pct.{bundle}"] = 100.0 * sum(errors) / len(errors)
        out["paper.pred_err_pct"] = sum(out.values()) / len(BUNDLES)
        return out


WORKLOADS = {
    w.name: w
    for w in (
        ServeWorkload(
            "serve_storm",
            policy="interface_predicted",
            faults="storm",
            mean_gap=250.0,
            count=4_000,
        ),
        ServeWorkload(
            "serve_rr", policy="round_robin", faults="none", mean_gap=2_000.0, count=4_000
        ),
        ServeWorkload(
            "serve_observed",
            policy="interface_predicted",
            faults="storm",
            mean_gap=250.0,
            count=2_000,
            observed=True,
        ),
        SweepWorkload("sweep", per_mix=300),
    )
}


def setup_probe(name: str) -> None:
    """Print the seconds a fresh interpreter takes to import the program
    and build the workload's objects once.  Run in a child process."""
    workload = WORKLOADS[name]
    t0 = perf_counter()
    if workload.kind == "sweep":
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        with tempfile.TemporaryDirectory(dir=OUT_DIR) as tmp:
            workload.build(Path(tmp))
            elapsed = perf_counter() - t0
    else:
        workload.build()
        elapsed = perf_counter() - t0
    sys.stdout.write(f"{elapsed!r}\n")
