"""Traffic guard: serving and pricing never run the reference interpreter.

Every net runs on the compiled engine; the reference ``Simulator`` is a
test oracle reached only through an explicit ``engine="reference"``.
These tests count ``Simulator.run`` calls across the serving path and
every shipped Petri interface, so a silent fallback to the interpreter
fails here.
"""

import pytest

from repro.petri import BatchEvaluator
from repro.petri.simulate import Simulator
from repro.runtime.pool import rpc_pool
from repro.runtime.serving import OpenLoopServer
from repro.workloads import ENTERPRISE_MIX


@pytest.fixture
def engine_calls(monkeypatch):
    """Counts of interpreter runs and batch-engine passes."""
    calls = {"interpreter": 0, "batch": 0}
    interpreter_run = Simulator.run
    batch_evaluate = BatchEvaluator.evaluate

    def counted_run(self, *args, **kwargs):
        calls["interpreter"] += 1
        return interpreter_run(self, *args, **kwargs)

    def counted_evaluate(self, *args, **kwargs):
        calls["batch"] += 1
        return batch_evaluate(self, *args, **kwargs)

    monkeypatch.setattr(Simulator, "run", counted_run)
    monkeypatch.setattr(BatchEvaluator, "evaluate", counted_evaluate)
    return calls


def _protoacc():
    from repro.accel.protoacc import formats, interfaces

    return interfaces.petri_interface(), list(formats.instances(seed=3).values())[:4]


def _optimusprime():
    from repro.accel.optimusprime import interfaces
    from repro.accel.protoacc import formats

    return interfaces.petri_interface(), list(formats.instances(seed=5).values())[:4]


def _jpeg():
    from repro.accel.jpeg import interfaces
    from repro.accel.jpeg.workload import random_images

    return interfaces.petri_interface(), random_images(seed=7, count=3, min_dim=16, max_dim=48)


def _bitcoin():
    from repro.accel.bitcoin import interfaces
    from repro.accel.bitcoin.workload import random_jobs

    return interfaces.petri_interface(16), random_jobs(seed=9, count=3)


def _vta():
    from repro.accel.vta import random_programs
    from repro.accel.vta.interfaces import petri_interface

    return petri_interface(), random_programs(seed=11, count=3, max_dim=8)


SHIPPED = {
    "protoacc": _protoacc,
    "optimus-prime": _optimusprime,
    "jpeg": _jpeg,
    "bitcoin": _bitcoin,
    "vta": _vta,
}


def test_storm_serving_never_runs_the_interpreter(engine_calls):
    pool = rpc_pool("interface_predicted", faults="storm")
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=200, mean_gap=200.0)
    result = OpenLoopServer(pool).run(msgs, arrivals)
    assert result.offered == 200
    assert engine_calls["batch"] > 0  # the pool did price on the engine
    assert engine_calls["interpreter"] == 0


@pytest.mark.parametrize("name", sorted(SHIPPED))
def test_shipped_interfaces_never_run_the_interpreter(name, engine_calls):
    iface, items = SHIPPED[name]()
    latencies = [iface.latency(item) for item in items]
    assert iface.evaluate_batch(items) == latencies
    for item in items:
        assert iface.predict_decomposition(item).total == iface.latency(item)
    if name == "vta":
        assert iface.throughput(items[0]) > 0
    assert engine_calls["batch"] > 0
    assert engine_calls["interpreter"] == 0


def test_the_guard_sees_an_explicit_reference_run(engine_calls):
    from repro.accel.protoacc import formats, interfaces

    msg = next(iter(formats.instances(seed=3).values()))
    interfaces.petri_interface(engine="reference").latency(msg)
    assert engine_calls["interpreter"] == 1
