"""Traffic guard: serving prices without the EvalCache.

One compiled-engine run of the pooled Protoacc and Optimus nets costs
less than building a cache key for it, so the serving pool prices every
request uncached.  These tests count ``EvalCache`` key builds and
lookups across a storm-served pool and an autoscaling scenario, so a
cache that comes back onto the serving path fails here.

Tracing follows the same rule: the pricing interfaces get no tracer, so
a serve trace carries no per-firing ``petri.*`` spans on the net's
private clock.  Its Petri layer is one ``petri.predict`` span per
prediction the device checks, on the serving clock, next to the
``runtime.attempt`` it predicts.
"""

import pytest

from repro.obs import Obs
from repro.perf import EvalCache
from repro.runtime.pool import rpc_device, rpc_pool
from repro.runtime.serving import OpenLoopServer
from repro.scale.scenario import run_scale_scenario
from repro.workloads import ENTERPRISE_MIX


@pytest.fixture
def cache_calls(monkeypatch):
    """Calls to the cache's key builder and its two lookup doors."""
    calls = {"key": 0, "get_many": 0, "get_or_compute": 0}

    def counting(name):
        original = getattr(EvalCache, name)

        def counted(self, *args, **kwargs):
            calls[name] += 1
            return original(self, *args, **kwargs)

        monkeypatch.setattr(EvalCache, name, counted)

    for name in calls:
        counting(name)
    return calls


def test_storm_serving_never_touches_a_cache(cache_calls):
    pool = rpc_pool("interface_predicted", faults="storm")
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=200, mean_gap=200.0)
    result = OpenLoopServer(pool).run(msgs, arrivals)
    assert result.offered == 200
    assert pool.device("protoacc").dispatched > 0  # the router did price
    assert cache_calls == {"key": 0, "get_many": 0, "get_or_compute": 0}


def test_scale_scenario_never_touches_a_cache(cache_calls):
    out = run_scale_scenario(count=150)
    assert out["result"].offered == 150
    assert cache_calls == {"key": 0, "get_many": 0, "get_or_compute": 0}


def test_the_guard_sees_an_explicit_cache(cache_calls):
    pooled = rpc_device("protoacc", cache=EvalCache())
    msg = ENTERPRISE_MIX.sample(3, 1)[0]
    pooled.price(msg, 0.0)
    assert cache_calls["get_many"] == 1 and cache_calls["key"] == 1


@pytest.fixture(scope="module")
def traced_storm():
    obs = Obs.enabled()
    pool = rpc_pool("round_robin", faults="storm", obs=obs)
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=150, mean_gap=400.0)
    OpenLoopServer(pool, deadline=60_000.0).run(msgs, arrivals)
    return obs.tracer, pool


def test_serve_trace_has_no_firing_spans(traced_storm):
    tracer, _ = traced_storm
    cats = tracer.categories()
    assert "petri.predict" in cats
    assert not cats & {"petri.fire", "petri.guarded", "petri.timeout"}


def test_each_prediction_spans_attempt_start_to_start_plus_latency(traced_storm):
    tracer, pool = traced_storm
    predicts = tracer.span_events("petri.predict")
    checked = 0
    for pooled in pool.devices:
        name = pooled.device.name
        mine = [s for s in predicts if s[4] == name]
        if pooled.device.interface.representation != "petri-net":
            assert not mine, name
            continue
        # One prediction per accelerator success, emitted in order, each
        # starting where the successful attempt started.
        served = [r for r in pooled.device.records if r.path == "accel"]
        ok_attempts = [
            s for s in tracer.span_events("runtime.attempt") if s[4] == name and s[5]["ok"]
        ]
        assert len(mine) == len(served) == len(ok_attempts) > 0, name
        iface = pooled.device.interface
        for span, record, attempt in zip(mine, served, ok_attempts, strict=True):
            _, start, end, _, _, args = span
            assert start == attempt[1]
            # The tracer keeps (start, end - start): the span ends exactly
            # at start + prediction on the serving clock, and the args
            # carry the prediction itself bit for bit.
            predicted = iface.latency(record.request)
            assert args["predicted"] == predicted
            assert end == start + predicted
            assert args["observed"] == attempt[5]["observed"]
            checked += 1
    assert checked > 0
