"""Host-time benchmark of the serving path and the interface sweeps.

    python3 perfbench/run.py --workload serve_storm --seed 1 --seconds 10 --trace 0

Runs one workload (see ``perfbench/README.md``) in this process, with no
worker threads or processes: a warm-up run, a checked run, then fresh
timed runs until ``--seconds`` have passed.  Every run's outputs are
checked.  The last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer ledger with ``--trace 1``.
The exit code is non-zero when any check failed.
"""

from __future__ import annotations

import argparse
import heapq
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
#: Fresh interpreters timed for ``setup_s``; the median of their
#: normalized times is reported.
SETUP_PROBES = 7
#: Timed runs made even when ``--seconds`` runs out first.
MIN_REPS = 3
#: Per-call percentiles each timed run records.
CALL_QUANTILES = (0.50, 0.99)
#: Seconds :func:`calibration_seconds` takes on the reference host, a
#: two-vCPU Intel Xeon VM.  It sets only the scale of the normalized
#: metrics, which read as microseconds on that host at typical load.
REF_CALIBRATION_S = 0.080
#: Every layer the ledger reports, in serving-path order.  ``bench`` is
#: the benchmark's own loop inside a sweep phase.
LAYERS = ("serving", "pool", "device", "model", "petrinet", "cache", "petri", "obs", "bench")
MODELS = ("protoacc", "optimus", "cpu")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def setup_seconds(workload: str) -> tuple[list[float], list[float]]:
    """Import plus first build, each in a fresh interpreter: the raw
    seconds of each probe, and the same normalized by the calibration
    kernel timed in that interpreter right after the probe (the second of
    two kernel runs), so on the same vCPU at the same moment."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join((str(ROOT), str(SRC))))
    code = (
        f"from perfbench.workloads import setup_probe; setup_probe({workload!r}); "
        "from perfbench.run import calibration_seconds; calibration_seconds(); "
        "print(repr(calibration_seconds()))"
    )
    times, normalized = [], []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(
            [sys.executable, "-c", code],
            cwd=ROOT,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        probe, kernel = (float(line) for line in done.stdout.strip().splitlines()[-2:])
        times.append(probe)
        normalized.append(probe * REF_CALIBRATION_S / kernel)
    return times, normalized


def calibration_seconds() -> float:
    """Time a fixed pure-Python kernel: a heap-ordered event loop feeding a
    dict, the shape of the program's simulators.  The kernel belongs to
    the benchmark and never changes with the program, so its time
    measures how fast the host runs Python right now."""
    rng = random.Random(0)
    heap, acc = [], {}
    t0 = perf_counter()
    for i in range(60_000):
        heapq.heappush(heap, (rng.random(), i))
        if len(heap) > 64:
            t, j = heapq.heappop(heap)
            acc[j % 997] = acc.get(j % 997, 0.0) + t
    return perf_counter() - t0


class Harness:
    """Runs one workload and keeps the attempted/failed ledger."""

    def __init__(self, workload, seed: int):
        self.workload = workload
        self.seed = seed
        self.inputs = workload.inputs(seed)
        self.attempted = 0
        self.failed = 0
        # Warm-up: fills the process-wide contract cache and every other
        # lazy set-up, and gives the outputs later runs must repeat.
        self.reference = workload.run(self.inputs)
        self.attempted += self.reference.ops
        self.failed += workload.check(self.reference, self.reference)
        checked = workload.run(self.inputs, record_prices=True)
        self.attempted += checked.ops
        self.failed += workload.check(checked, self.reference)
        self.failed += workload.deep_check(checked)

    def repeat(self, seconds: float, *, recorder=None) -> list:
        """Fresh checked runs until ``seconds`` pass (at least
        :data:`MIN_REPS`); returns them with their outputs dropped,
        except the last.  Untraced runs time each per-item call.  The
        calibration kernel runs between runs, and each run's ``scale``
        comes from the two calibrations around it."""
        from perfbench.workloads import percentile

        reps = []
        started = 0
        deadline = perf_counter() + seconds
        before = calibration_seconds()
        while started < MIN_REPS or perf_counter() < deadline:
            started += 1
            if reps:
                reps[-1].outputs = {}
            calls = [] if recorder is None else None
            try:
                rep = self.workload.run(self.inputs, calls=calls, recorder=recorder)
            except Exception:
                traceback.print_exc()
                rep = None
            after = calibration_seconds()
            scale = 2 * REF_CALIBRATION_S / (before + after)
            before = after
            if rep is None:
                self.attempted += self.reference.ops
                self.failed += self.reference.ops
                continue
            rep.scale = scale
            self.attempted += rep.ops
            self.failed += self.workload.check(rep, self.reference)
            rep.digest = ()  # checked; keeping it would grow memory with the run count
            if calls is not None:
                rep.calls = len(calls)
                rep.call_us = {q: percentile(calls, q) / 1e3 for q in CALL_QUANTILES}
            reps.append(rep)
        if not reps:
            raise RuntimeError(f"all {started} timed runs raised")
        return reps


# Host noise on a shared VM comes in spells from under a second to
# minutes, and it slows the program and a fixed Python kernel alike.  So
# the end-to-end host times are normalized: each run's time is scaled by
# REF_CALIBRATION_S over the kernel's time around that run, and the
# median over the timed runs of one process is reported.  Over an
# eight-minute serve_storm series on a two-vCPU Xeon VM, medians of
# 20-second windows spread 20% raw (quartile distance over median) and
# 6% normalized; run times ranged 2.6x, kernel times 2.7x.
def us_per_op(reps, phases=None, *, normalized=False) -> float:
    """Host microseconds per operation: the median over the timed runs of
    each run's time in the given phases (all phases by default)."""
    return statistics.median(
        sum(ns for k, ns in r.phase_ns.items() if phases is None or k in phases)
        / r.ops
        / 1e3
        * (r.scale if normalized else 1.0)
        for r in reps
    )


def call_us(reps, q: float) -> float:
    """Each run's normalized ``q`` percentile of per-call µs: the median
    run."""
    return statistics.median(r.call_us[q] * r.scale for r in reps)


def end_to_end(harness: Harness, seconds: float) -> tuple[dict, list[str]]:
    from perfbench.workloads import percentile

    workload = harness.workload
    probes, normalized_probes = setup_seconds(workload.name)
    reps = harness.repeat(seconds)
    calls = sum(r.calls for r in reps)
    sim = workload.sim_values(harness.reference)
    metrics = {
        "setup_s": statistics.median(normalized_probes),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "norm_us_per_op": us_per_op(reps, normalized=True),
        "norm_call_p50_us": call_us(reps, 0.50),
        "norm_call_p99_us": call_us(reps, 0.99),
        "sim_p50_cycles": percentile(sim, 0.50),
        "sim_p99_cycles": percentile(sim, 0.99),
    }
    notes = [
        f"runs: {len(reps)}   ops per run: {reps[0].ops}   call samples: {calls}",
        f"setup probes, raw (s): {', '.join(f'{t:.3f}' for t in probes)}",
    ]
    if len(reps) > 1:
        for label, values in (
            ("raw us/op", [r.wall_ns / r.ops / 1e3 for r in reps]),
            ("host speed (ref s / s)", [r.scale for r in reps]),
        ):
            q1, q2, q3 = statistics.quantiles(values, n=4)
            notes.append(f"{label} over runs: median {q2:.3f}, quartiles {q1:.3f} .. {q3:.3f}")
    for phase in sorted(reps[0].phase_ns):
        notes.append(f"phase {phase}: {us_per_op(reps, {phase}):.2f} us/op")
    return metrics, notes


def per_layer(harness: Harness, seconds: float) -> tuple[dict, list[str]]:
    from perfbench.ledger import Recorder, Totals
    from perfbench.workloads import OUT_DIR

    workload = harness.workload
    plain = harness.repeat(seconds / 2)
    recorder = Recorder()
    with recorder.installed():
        traced = harness.repeat(seconds / 2, recorder=recorder)
    totals = Totals()
    totals.add(recorder.names, recorder.start, recorder.end, recorder.parent)
    recorder.write(OUT_DIR / f"spans-{workload.name}-seed{harness.seed}.tsv.gz")

    ops = sum(r.ops for r in traced)
    wall_ns = sum(r.wall_ns for r in traced)
    n, incl, self_ns = totals.calls, totals.incl_ns, totals.self_ns

    def per_op(ns):
        return ns / ops / 1e3

    def per_call(ns, name):
        return ns / n[name] / 1e3 if n.get(name) else 0.0

    last = traced[-1]
    # Only the sweep batches, and each of its batch calls gets every item.
    batch = last.ops
    lookups = n.get("cache.lookup", 0)
    m = {
        "serving.self_us_per_req": per_op(self_ns["serving.run"]),
        "pool.dispatch_self_us_per_req": per_op(self_ns["pool.dispatch"]),
        "pool.pick_us_per_call": per_call(self_ns["pool.pick"], "pool.pick"),
        "pool.price_calls_per_req": n["pool.price"] / ops,
        "pool.price_self_us_per_call": per_call(self_ns["pool.price"], "pool.price"),
        "device.offload_self_us_per_call": per_call(
            self_ns["device.offload"], "device.offload"
        ),
        "petrinet.latency_calls_per_req": n["petrinet.latency"] / ops,
        "petrinet.latency_self_us_per_call": per_call(
            self_ns["petrinet.latency"], "petrinet.latency"
        ),
        "petrinet.tokenize_us_per_call": per_call(
            incl["petrinet.tokenize"], "petrinet.tokenize"
        ),
        "petrinet.evaluate_batch_us_per_item": per_call(
            incl["petrinet.evaluate_batch"], "petrinet.evaluate_batch"
        ) / batch,
        "cache.key_us_per_call": per_call(incl["cache.key"], "cache.key"),
        "cache.keys_per_lookup": n["cache.key"] / lookups if lookups else 0.0,
        "cache.lookup_self_us_per_call": per_call(self_ns["cache.lookup"], "cache.lookup"),
        "cache.spill_us_per_item": per_call(incl["cache.spill"], "cache.spill"),
        "cache.reload_s": incl["cache.reload"] / n["cache.reload"] / 1e9
        if n.get("cache.reload")
        else 0.0,
        "petri.sim_builds_per_req": n["petri.sim_build"] / ops,
        "petri.sim_build_us_per_call": per_call(incl["petri.sim_build"], "petri.sim_build"),
        "petri.run_us_per_call": per_call(incl["petri.run"], "petri.run"),
        "petri.batch_evaluate_us_per_item": per_call(
            incl["petri.batch_evaluate"], "petri.batch_evaluate"
        ) / batch,
        "obs.attribute_us_per_req": per_op(incl["obs.attribute"]),
    }
    for model in MODELS:
        name = f"model.{model}"
        m[f"{name}.calls_per_req"] = n[name] / ops
        m[f"{name}.us_per_call"] = per_call(incl[name], name)
    m.update(workload.state_metrics(last))

    # The ledger: per-layer self time accounts for the traced wall total;
    # what lies outside every root span is reported as unattributed.
    layers = totals.layer_self_ns()
    for layer in LAYERS:
        m[f"ledger.{layer}.self_us_per_op"] = per_op(layers.get(layer, 0))
    m["ledger.unattributed_us_per_op"] = per_op(wall_ns - totals.root_ns)
    m["ledger.total_us_per_op"] = per_op(wall_ns)
    # Both halves normalized, so a host slowdown between them is not
    # read as tracing overhead.
    untraced = us_per_op(plain, normalized=True)
    traced_us = us_per_op(traced, normalized=True)
    m["trace.untraced_us_per_op"] = untraced
    m["trace.traced_us_per_op"] = traced_us
    m["trace.overhead_us_per_op"] = traced_us - untraced
    m["trace.overhead_pct"] = 100.0 * (traced_us - untraced) / untraced
    m["run.call_samples"] = sum(r.calls for r in plain)

    if workload.kind == "sweep":
        phase = {
            f"{p}.{b}": us_per_op(plain, {f"{p}.{b}"})
            for p in ("cold", "warm", "model", "scalar")
            for b in ("protoacc", "optimus")
        }
        for p in ("cold", "warm", "model", "scalar"):
            m[f"sweep.{p}_us_per_item"] = phase[f"{p}.protoacc"] + phase[f"{p}.optimus"]
        for b in ("protoacc", "optimus"):
            m[f"paper.iface_model_ratio.{b}"] = phase[f"cold.{b}"] / phase[f"model.{b}"]
            m[f"paper.warm_hit_over_model.{b}"] = phase[f"warm.{b}"] / phase[f"model.{b}"]
        m.update(workload.paper_metrics(harness.reference))

    notes = [
        f"untraced runs: {len(plain)}   traced runs: {len(traced)}   spans: {len(recorder)}",
        f"{'layer':<14}{'self us/op':>12}{'share':>8}",
    ]
    for layer in LAYERS:
        us = m[f"ledger.{layer}.self_us_per_op"]
        notes.append(f"{layer:<14}{us:12.2f}{us / m['ledger.total_us_per_op']:8.1%}")
    notes.append(f"{'unattributed':<14}{m['ledger.unattributed_us_per_op']:12.2f}")
    notes.append(f"{'total':<14}{m['ledger.total_us_per_op']:12.2f}")
    return m, notes


def declared(kind: str) -> dict[str, str]:
    """Metric name -> unit, as ``BENCHMARK.json`` declares them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {metric["name"]: metric["unit"] for metric in spec[kind]}


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    for path in (str(SRC), str(ROOT)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from perfbench.workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r} "
              f"(known: {', '.join(WORKLOADS)})", file=sys.stderr)
        return 2
    harness = Harness(WORKLOADS[args.workload], args.seed)
    report = per_layer if args.trace else end_to_end
    computed, notes = report(harness, args.seconds)
    units = declared("per_layer" if args.trace else "end_to_end")
    undeclared = sorted(set(computed) - set(units))
    if undeclared or (not args.trace and set(computed) != set(units)):
        raise KeyError(f"computed metrics {sorted(computed)} do not match BENCHMARK.json")
    # A layer the workload never reaches reads 0.
    metrics = {name: (computed.get(name, 0.0), unit) for name, unit in units.items()}
    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}")
    for line in notes:
        print("  " + line)
    for name, (value, unit) in metrics.items():
        print(f"  {name:<40} {value:14.4f} {unit}")
    print(f"  failed_frac {harness.failed / harness.attempted:.6f} "
          f"({harness.failed} of {harness.attempted} operations)")
    result = {
        "correct": harness.failed == 0,
        "attempted": harness.attempted,
        "failed": harness.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if harness.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
