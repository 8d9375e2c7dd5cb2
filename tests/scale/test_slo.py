"""SLO specs and the rolling time-horizon monitor."""

import random
from types import SimpleNamespace

import pytest

from repro.hw.stats import Summary, quantile
from repro.scale import SLO, SloMonitor


class TestSloSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            SLO(latency_budget=0.0)
        with pytest.raises(ValueError):
            SLO(latency_budget=1.0, latency_quantile=1.0)
        with pytest.raises(ValueError):
            SLO(latency_budget=1.0, max_loss_rate=1.5)

    def test_describe_names_the_promise(self):
        text = SLO(latency_budget=30_000.0, max_loss_rate=0.05).describe()
        assert "p95" in text and "30000" in text and "5.00%" in text

    def test_pressure_is_quantile_over_budget(self):
        slo = SLO(latency_budget=10_000.0)
        monitor = SloMonitor(slo, min_samples=1)
        monitor.record_served(15_000.0, at=100.0)
        assert monitor.status(100.0).pressure(slo) == pytest.approx(1.5)


class TestSloMonitor:
    def test_abstains_below_min_samples(self):
        monitor = SloMonitor(SLO(latency_budget=1.0), min_samples=5)
        for i in range(4):
            monitor.record_served(99.0, at=float(i))  # wildly over budget
        assert monitor.status(4.0).latency_ok  # abstaining, not passing

    def test_violation_once_populated(self):
        monitor = SloMonitor(SLO(latency_budget=100.0), min_samples=3)
        for i in range(3):
            monitor.record_served(500.0, at=float(i))
        status = monitor.status(3.0)
        assert not status.latency_ok and not status.ok

    def test_time_horizon_ages_out_bad_samples(self):
        # The brownout lesson: a browned-out server admits little
        # traffic, so recovery must come from the clock, not from fresh
        # samples displacing old ones.
        monitor = SloMonitor(SLO(latency_budget=100.0), horizon=1_000.0, min_samples=3)
        for i in range(5):
            monitor.record_served(500.0, at=float(i))
        assert not monitor.status(5.0).latency_ok
        # No new traffic at all; the horizon slides past the samples.
        later = monitor.status(2_000.0)
        assert later.served == 0
        assert later.latency_ok  # abstains once the window is empty

    def test_loss_rate_over_the_window(self):
        monitor = SloMonitor(SLO(latency_budget=1e9, max_loss_rate=0.25))
        for i in range(3):
            monitor.record_served(1.0, at=float(i))
        monitor.record_loss(at=3.0)
        status = monitor.status(3.0)
        assert status.loss_rate == pytest.approx(0.25)
        assert status.loss_ok
        monitor.record_loss(at=4.0)
        assert not monitor.status(4.0).loss_ok

    def test_lifetime_counters_survive_pruning(self):
        monitor = SloMonitor(SLO(latency_budget=1.0), horizon=10.0)
        monitor.record_served(1.0, at=0.0)
        monitor.record_loss(at=1.0)
        monitor.status(1_000.0)  # prunes everything
        assert monitor.observed == 2 and monitor.lost == 1

    def test_offline_evaluate_matches_run_totals(self):
        result = SimpleNamespace(
            breakdowns=[
                SimpleNamespace(end_to_end=float(v), completed=float(i))
                for i, v in enumerate((10, 20, 30, 40, 1_000))
            ],
            loss_rate=0.5,
            losses=5,
        )
        slo = SLO(latency_budget=500.0, max_loss_rate=0.1)
        verdict = SloMonitor(slo).evaluate(result)
        assert verdict.latency > 500.0  # p95 dominated by the outlier
        assert not verdict.latency_ok and not verdict.loss_ok
        assert verdict.served == 5 and verdict.losses == 5


class TestOneQuantileRule:
    def test_monitor_summary_and_quantile_agree_bit_for_bit(self):
        # One sample-quantile rule: the SLO verdict, Summary and the
        # stats kernel report the same p95 for the same samples.
        rng = random.Random(7)
        samples = [rng.lognormvariate(8.0, 0.9) for _ in range(257)]
        monitor = SloMonitor(SLO(latency_budget=1e12), horizon=1e9)
        for at, latency in enumerate(samples):
            monitor.record_served(latency, at=float(at))
        verdict = monitor.status(float(len(samples)))
        assert verdict.served == len(samples)
        assert verdict.latency == Summary.of(samples).p95 == quantile(samples, 0.95)
