"""The observability bundle threaded through the serving stack.

These tests drive the standard ``rpc_pool`` fleet under full
observation and assert the two contracts that make the tracing
trustworthy: every layer emits into one timeline, and observing a run
does not change it.
"""

import math

import pytest

from repro.obs import Obs
from repro.runtime.pool import rpc_pool
from repro.runtime.serving import OpenLoopServer
from repro.workloads import ENTERPRISE_MIX


def traced_run(*, policy="round_robin", faults="storm", count=80, obs=None):
    obs = obs if obs is not None else Obs.enabled()
    pool = rpc_pool(policy, faults=faults, obs=obs)
    server = OpenLoopServer(pool, deadline=60_000.0)
    msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=count, mean_gap=400.0)
    return obs, pool, server.run(msgs, arrivals)


class TestThreeLayerTimeline:
    def test_all_layers_emit(self):
        obs, _, _ = traced_run()
        cats = obs.tracer.categories()
        assert any(c.startswith("petri.") for c in cats), cats
        assert any(c.startswith("hw.") for c in cats), cats
        assert any(c.startswith("runtime.") for c in cats), cats

    def test_model_spans_align_with_offload_windows(self):
        # DRAM bursts emitted by the ground-truth model must land inside
        # the serving-clock window of some offload attempt on that device.
        obs, _, _ = traced_run()
        attempts = [
            s for s in obs.tracer.spans("runtime.attempt") if s[4] == "protoacc"
        ]
        drams = [s for s in obs.tracer.spans("hw.dram") if "protoacc" in s[4]]
        assert attempts and drams
        for _, start, end, _, _ in drams:
            assert any(a[1] <= start and end <= a[2] + 1e-6 for a in attempts), (
                start,
                end,
            )

    def test_breaker_trip_appears_in_trace_and_metrics(self):
        obs, pool, _ = traced_run(count=200)
        assert pool.device("protoacc").device.breaker.transitions
        snap = obs.metrics.snapshot()
        trips = [k for k in snap if k.startswith("breaker_transitions_total")]
        assert trips


class TestObservationIsInert:
    def test_traced_and_untraced_runs_are_identical(self):
        plain_pool = rpc_pool("round_robin", faults="storm")
        obs = Obs.enabled()
        traced_pool = rpc_pool("round_robin", faults="storm", obs=obs)
        msgs, arrivals = ENTERPRISE_MIX.sample_open(seed=13, count=120, mean_gap=300.0)
        plain = OpenLoopServer(plain_pool, deadline=60_000.0).run(msgs, arrivals)
        traced = OpenLoopServer(traced_pool, deadline=60_000.0).run(msgs, arrivals)
        assert len(obs.tracer) > 0
        assert [r.completed for r in plain.served] == [
            r.completed for r in traced.served
        ]
        assert [r.path for r in plain.served] == [r.path for r in traced.served]
        assert len(plain.dropped) == len(traced.dropped)
        assert len(plain.shed) == len(traced.shed)

    def test_disabled_bundle_emits_nothing(self):
        obs = Obs()
        _, pool, res = traced_run(obs=obs)
        assert res.served
        assert obs.tracer is None and obs.metrics is None


class TestPoolBreakdownAccounting:
    def test_dispatch_decomposition_is_exact(self):
        obs, pool, _ = traced_run(count=150)
        assert pool.results
        for r in pool.results:
            total = r.queue_cycles + r.service_cycles + r.retry_cycles
            assert math.isclose(
                total, r.completed - r.arrival, rel_tol=1e-9, abs_tol=1e-6
            )

    def test_service_cycles_ride_the_tape(self, tmp_path):
        from repro.runtime.tape import load_tape, protoacc_message_codec, save_tape

        _, pool, _ = traced_run(count=60)
        records = pool.device("cpu").device.records
        assert any(r.service_cycles > 0 for r in records)
        path = save_tape(records, tmp_path / "t.jsonl.gz", codec=protoacc_message_codec())
        loaded = load_tape(path)
        assert [r.service_cycles for r in loaded] == [
            r.service_cycles for r in records
        ]

    def test_snapshot_reports_cache_and_devices(self):
        obs, pool, _ = traced_run()
        snap = pool.snapshot()
        assert set(snap["devices"]) == {"protoacc", "optimus-prime", "cpu"}
        assert "eval_cache" not in snap  # serving prices uncached
        assert snap["invariant_violations"] == 0


class TestDriftObservatoryIntegration:
    def test_successful_calls_feed_the_observatory(self):
        obs, _, res = traced_run(count=150)
        keys = obs.observatory.keys()
        assert keys
        total = sum(obs.observatory.samples(d, c) for d, c in keys)
        accel_or_cpu = sum(1 for r in res.served if r.ok)
        assert total == pytest.approx(accel_or_cpu + res.hedge_count(), abs=5)
        # protoacc's petri interface genuinely drifts from the DRAM model.
        report = obs.observatory.report()
        assert "protoacc" in report or "optimus" in report
