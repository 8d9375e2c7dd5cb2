"""``evaluate_batch`` through the interface stack.

Numeric parity of the batch engines themselves is proven in
``tests/petri/test_batched.py``; these tests pin down the *interface*
contract: identical latencies to the per-item path, cache interplay
(including the persistent warm-start acceptance criterion), fallbacks,
and the consumers that ride the batched path (validation, sweeps,
profilers, pool pricing).
"""

import json
import subprocess
import sys
from pathlib import Path

import pytest

from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import random_images
from repro.core.interface import PerformanceInterface
from repro.perf import EvalCache

IMAGES = random_images(seed=41, count=8, min_dim=16, max_dim=48)


def test_default_evaluate_batch_is_the_latency_loop():
    class Fixed(PerformanceInterface[int]):
        accelerator = "fixed"

        def latency(self, item: int) -> float:
            return 2.0 * item

    iface = Fixed()
    assert iface.evaluate_batch([1, 2, 3]) == [2.0, 4.0, 6.0]


def test_petri_interface_batch_matches_per_item_latency():
    batched = jpeg.petri_interface().evaluate_batch(IMAGES)
    per_item = [jpeg.petri_interface().latency(img) for img in IMAGES]
    assert batched == per_item  # bit-identical, not approx


def test_batch_takes_the_batch_engine_exactly_once():
    iface = jpeg.petri_interface()
    assert iface.batch_evaluator is None  # lazy: nothing built yet
    iface.evaluate_batch(IMAGES)
    ev = iface.batch_evaluator
    assert ev is not None and ev.engine == "codegen"
    assert ev.items_codegen == len(IMAGES)


def test_pinned_engine_falls_back_to_per_item():
    iface = jpeg.petri_interface()
    iface.engine = "reference"
    pinned = iface.evaluate_batch(IMAGES[:3])
    assert iface.batch_evaluator is None  # never built an engine
    assert pinned == jpeg.petri_interface().evaluate_batch(IMAGES[:3])


def test_interface_lowers_its_net_once_across_cache_misses(monkeypatch):
    from repro.accel.optimusprime import petri_interface
    from repro.petri import CompiledNet
    from repro.workloads import ENTERPRISE_MIX

    lowered = []
    init = CompiledNet.__init__

    def counting_init(self, net):
        lowered.append(net.name)
        init(self, net)

    monkeypatch.setattr(CompiledNet, "__init__", counting_init)
    iface = petri_interface(cache=EvalCache())
    msgs = ENTERPRISE_MIX.sample(seed=3, count=12)
    for msg in msgs[:8]:
        iface.latency(msg)
        iface.predict_decomposition(msg)
    iface.evaluate_batch(msgs[8:])
    assert iface.cache.stats.misses >= 8  # every scalar call simulated
    assert len(lowered) == 1


def _traced_compiled_runs(images):
    """Values and spans of a traced ``CompiledSimulator`` run per item."""
    from repro.obs import Tracer
    from repro.petri import CompiledSimulator

    iface = jpeg.petri_interface()
    tracer = Tracer()
    values = []
    for img in images:
        sim = CompiledSimulator(iface.net, [iface.sink], tracer=tracer)
        for inj in iface.tokenize(img):
            sim.inject(inj.place, inj.payload, at=inj.at)
        values.append(sim.run().makespan() + iface.epilogue)
    return values, tracer.spans()


def test_traced_pricing_matches_traced_compiled_runs():
    from repro.obs import Tracer

    images = IMAGES[:3]
    want_values, want_spans = _traced_compiled_runs(images)
    assert want_spans

    batch = jpeg.petri_interface()
    batch.tracer = Tracer()
    assert batch.evaluate_batch(images) == want_values
    assert batch.tracer.spans() == want_spans

    scalar = jpeg.petri_interface()
    scalar.tracer = Tracer()
    assert [scalar.latency(img) for img in images] == want_values
    assert scalar.tracer.spans() == want_spans

    # Traced items run on the batch engine's event loop, never codegen.
    for iface in (batch, scalar):
        ev = iface.batch_evaluator
        assert ev.items_loop == len(images) and ev.items_codegen == 0


def test_scalar_latency_spills_and_shares_batch_entries(tmp_path: Path):
    path = tmp_path / "evals.jsonl"
    iface = jpeg.petri_interface()
    iface.cache = EvalCache(path)
    scalar = [iface.latency(img) for img in IMAGES]
    assert iface.cache.stats.misses == len(IMAGES)
    assert iface.cache.stats.spills == len(IMAGES)

    # The batch path finds the scalar calls' entries.
    assert iface.evaluate_batch(IMAGES) == scalar
    assert iface.cache.stats.hits == len(IMAGES)
    assert iface.cache.stats.misses == len(IMAGES)

    # A fresh process-level cache on the same file warms scalar callers.
    warm = jpeg.petri_interface()
    warm.cache = EvalCache(path)
    assert [warm.latency(img) for img in IMAGES] == scalar
    assert warm.cache.stats.misses == 0
    assert warm.batch_evaluator is None  # never touched an engine


def test_batch_item_short_of_completions_raises_and_caches_nothing(monkeypatch):
    from repro.petri import BatchEvaluator, SimulationError

    honest = BatchEvaluator.evaluate

    def drop_one_completion(self, items, **kwargs):
        results = honest(self, items, **kwargs)
        results[1].counts["out"] -= 1
        return results

    iface = jpeg.petri_interface()
    iface.cache = EvalCache()
    iface.evaluate_batch(IMAGES[5:])
    before = len(iface.cache)
    monkeypatch.setattr(BatchEvaluator, "evaluate", drop_one_completion)
    with pytest.raises(SimulationError, match=rf"{iface.net.name!r}: batch item 1 "):
        iface.evaluate_batch(IMAGES[:3])
    assert len(iface.cache) == before


def test_cache_hits_skip_the_engine_entirely():
    iface = jpeg.petri_interface()
    iface.cache = EvalCache()
    first = iface.evaluate_batch(IMAGES)
    ev = iface.batch_evaluator
    engine_items = ev.items_codegen + ev.items_loop
    second = iface.evaluate_batch(IMAGES)
    assert first == second
    assert iface.cache.stats.hits == len(IMAGES)
    assert ev.items_codegen + ev.items_loop == engine_items  # no new work


def test_validate_interface_rides_the_batched_path():
    from repro.accel.jpeg.model import JpegDecoderModel
    from repro.core.validation import validate_interface

    report = validate_interface(
        jpeg.petri_interface(), JpegDecoderModel(), IMAGES[:4], check_throughput=False
    )
    # Same numbers the per-item path would report (the model IS the net's
    # ground truth here, so the errors are small but non-trivial).
    assert report.latency is not None and report.latency.count == 4


_SWEEP = """
import json
import sys
sys.path.insert(0, {src!r})
from repro.accel.jpeg import interfaces as jpeg
from repro.accel.jpeg.workload import random_images
from repro.perf import EvalCache

iface = jpeg.petri_interface()
iface.cache = EvalCache({path!r})
images = random_images(seed=41, count=8, min_dim=16, max_dim=48)
out = iface.evaluate_batch(images)
ev = iface.batch_evaluator
print(json.dumps({{
    "latencies": out,
    "hits": iface.cache.stats.hits,
    "misses": iface.cache.stats.misses,
    "spills": iface.cache.stats.spills,
    "engine_items": 0 if ev is None else ev.items_codegen + ev.items_loop,
}}))
"""


def test_cross_process_warm_start_runs_zero_engine_items(tmp_path: Path):
    """Acceptance criterion: a second process sharing the persistent
    EvalCache answers the same sweep entirely from disk — zero engine
    invocations, identical latencies."""
    path = str(tmp_path / "evals.jsonl")
    src = str(Path("src").resolve())

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _SWEEP.format(src=src, path=path)],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout)

    cold = run()
    warm = run()
    assert cold["misses"] == 8 and cold["spills"] == 8 and cold["engine_items"] == 8
    assert warm["hits"] == 8 and warm["misses"] == 0
    assert warm["engine_items"] == 0  # never touched an engine
    assert warm["latencies"] == cold["latencies"]


# ----------------------------------------------------------------------
# Downstream consumers
# ----------------------------------------------------------------------


def test_petri_profiler_batch_equals_sequential():
    from repro.accel.vta.workload import random_programs
    from repro.autotune.profilers import PetriProfiler

    programs = random_programs(seed=13, count=5, max_dim=8)
    a = PetriProfiler()
    batch = a.profile_batch(programs)
    b = PetriProfiler()
    seq = [b.profile(p) for p in programs]
    assert batch == seq
    assert a.queries == len(programs) and a.wall_seconds > 0


def test_memoized_profiler_batches_only_the_misses():
    from repro.accel.vta.workload import random_programs
    from repro.autotune.profilers import MemoizedProfiler, PetriProfiler

    programs = random_programs(seed=13, count=5, max_dim=8)
    prof = MemoizedProfiler(PetriProfiler())
    first = prof.profile_batch(programs)
    again = prof.profile_batch(programs + programs[:2])
    assert again == first + first[:2]
    assert prof.cache.stats.misses == 5
    assert prof.cache.stats.hits == 7


def test_pool_price_matrix_matches_per_request_pricing():
    from repro.accel.protoacc import formats
    from repro.runtime.pool import rpc_pool

    pool = rpc_pool()
    requests = list(formats.instances(seed=3).values())[:5]
    matrix = pool.price_matrix(requests, now=0.0)
    devices = pool.available_devices(0.0)
    assert set(matrix) == {d.name for d in devices}
    for device in devices:
        assert matrix[device.name] == [device.price(req, 0.0) for req in requests]
