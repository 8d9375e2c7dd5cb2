"""Tests for the perfscope observability CLI."""

import json

from repro.tools.perfscope import main, run_scenario

# Small and fast, but still enough traffic under round_robin + storm to
# exercise every layer: petri firings, protoacc DRAM bursts, breaker trips.
ARGS = ["--policy", "round_robin", "--faults", "storm", "--requests", "60", "--gap", "400"]


class TestReport:
    def test_exits_zero_with_full_report(self, capsys):
        assert main(["report", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "protoacc" in out and "optimus-prime" in out and "cpu" in out
        assert "latency breakdown" in out
        assert "drift observatory" in out
        assert "eval cache" not in out  # serving prices uncached

    def test_quiet_fleet_report(self, capsys):
        assert main(["report", "--faults", "none", "--requests", "20"]) == 0
        assert "served" in capsys.readouterr().out


class TestTrace:
    def test_trace_export_parses_and_spans_all_layers(self, tmp_path, capsys):
        out_path = tmp_path / "scope.trace.json"
        assert main(["trace", *ARGS, "--out", str(out_path)]) == 0
        payload = json.loads(out_path.read_text())
        events = payload["traceEvents"]
        assert events, "trace must be non-empty"
        cats = {e.get("cat", "") for e in events}
        assert any(c.startswith("petri.") for c in cats), sorted(cats)
        assert any(c.startswith("hw.") for c in cats), sorted(cats)
        assert any(c.startswith("runtime.") for c in cats), sorted(cats)
        # Complete events carry durations; the virtual timeline is pid 1.
        xs = [e for e in events if e["ph"] == "X"]
        assert xs and all(e["dur"] >= 0 for e in xs)
        assert {e["pid"] for e in xs} <= {1, 2}
        assert str(out_path) in capsys.readouterr().out


class TestMetrics:
    def test_metrics_exposition(self, capsys):
        assert main(["metrics", *ARGS]) == 0
        out = capsys.readouterr().out
        assert "# TYPE pool_requests_total counter" in out
        assert 'device_calls_total{device="cpu"' in out
        assert "server_queue_wait_cycles_bucket" in out


class TestScale:
    def test_scale_report_tells_the_scaling_story(self, capsys):
        assert main(["scale", "--requests", "400"]) == 0
        out = capsys.readouterr().out
        assert "verdict: MET" in out
        assert "scaling events" in out and "predicted service" in out
        assert "brownout ladder" in out
        assert "final rung normal" in out

    def test_fixed_fleet_mode_skips_membership_changes(self, capsys):
        main(["scale", "--requests", "200", "--no-autoscale"])
        out = capsys.readouterr().out
        assert "scaling events" not in out
        assert "brownout ladder" in out


class TestScenario:
    def test_run_scenario_is_deterministic(self):
        obs_a, _, res_a = run_scenario(requests=40, seed=3)
        obs_b, _, res_b = run_scenario(requests=40, seed=3)
        assert [r.completed for r in res_a.served] == [
            r.completed for r in res_b.served
        ]
        assert len(obs_a.tracer) == len(obs_b.tracer)
