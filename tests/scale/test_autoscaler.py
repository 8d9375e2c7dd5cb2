"""The autoscaler's control loop: hysteresis, cooldown, floor, safety."""

import pytest

from repro.obs import Obs
from repro.perf import EvalCache
from repro.runtime.pool import DevicePool, rpc_device
from repro.scale import Autoscaler, ScalePolicy, standard_templates
from repro.scale.slo import SloStatus
from repro.workloads import STORAGE_MIX


def status(ok: bool, at: float = 0.0) -> SloStatus:
    return SloStatus(
        at=at,
        latency=1.0,
        loss_rate=0.0,
        served=100,
        losses=0,
        latency_ok=ok,
        loss_ok=True,
    )


@pytest.fixture
def rig():
    obs = Obs.enabled(drift=False)
    cache = EvalCache()
    pool = DevicePool(
        [rpc_device("protoacc", cache=cache, obs=obs), rpc_device("cpu", obs=obs)],
        policy="interface_predicted",
        obs=obs,
    )
    templates = standard_templates(seed=117, cache=cache, obs=obs)
    return pool, templates, cache


def feed_sample(scaler, count: int = 8, gap: float = 50_000.0) -> None:
    """Give the scaler requests to price candidates against, spaced so
    the observed arrival rate is tiny (scale-in is always safe)."""
    for i, msg in enumerate(STORAGE_MIX.sample(3, count)):
        scaler.note_request(msg, completed=(i + 1) * gap)


class TestScaleOut:
    def test_needs_a_pressure_streak(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(pool, templates, ScalePolicy(scale_out_after=3, cooldown=0))
        feed_sample(scaler)
        assert scaler.update(1.0, status(False), 0.0) is None
        assert scaler.update(2.0, status(False), 0.0) is None
        event = scaler.update(3.0, status(False), 0.0)
        assert event is not None and event.action == "out"
        assert len(pool.devices) == 3

    def test_one_healthy_verdict_resets_the_streak(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(pool, templates, ScalePolicy(scale_out_after=2, cooldown=0))
        feed_sample(scaler)
        scaler.update(1.0, status(False), 0.0)
        scaler.update(2.0, status(True), 0.0)
        assert scaler.update(3.0, status(False), 0.0) is None

    def test_full_queue_is_pressure_even_when_slo_holds(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(pool, templates, ScalePolicy(scale_out_after=1, cooldown=0))
        feed_sample(scaler)
        event = scaler.update(1.0, status(True), queue_frac=0.9)
        assert event is not None and event.action == "out"

    def test_candidates_are_interface_priced(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(pool, templates, ScalePolicy(scale_out_after=1, cooldown=0))
        feed_sample(scaler)
        event = scaler.update(1.0, status(False), 0.0)
        # Every template was scored, and the admitted device is the
        # fastest predicted one (protoacc on the storage mix).
        assert set(event.candidate_scores) == {t.kind for t in templates}
        assert event.kind == min(event.candidate_scores, key=event.candidate_scores.get)
        assert event.kind == "protoacc"
        assert event.predicted_service == pytest.approx(
            event.candidate_scores[event.kind]
        )

    def test_nothing_to_price_means_no_scale_out(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(pool, templates, ScalePolicy(scale_out_after=1, cooldown=0))
        assert scaler.update(1.0, status(False), 0.0) is None
        assert len(pool.devices) == 2

    def test_max_devices_ceiling(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(
            pool, templates, ScalePolicy(scale_out_after=1, cooldown=0, max_devices=3)
        )
        feed_sample(scaler)
        scaler.update(1.0, status(False), 0.0)
        assert scaler.update(2.0, status(False), 0.0) is None
        assert len(pool.devices) == 3


class TestCooldown:
    def test_cooldown_spaces_events(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(
            pool, templates, ScalePolicy(scale_out_after=1, cooldown=10_000.0)
        )
        feed_sample(scaler)
        assert scaler.update(1_000.0, status(False), 0.0) is not None
        assert scaler.update(2_000.0, status(False), 0.0) is None  # cooling
        assert scaler.update(12_000.0, status(False), 0.0) is not None


class TestScaleIn:
    def make_calm(self, scaler, n, start=100_000.0):
        events = [scaler.update(start + i, status(True), 0.0) for i in range(n)]
        return next((e for e in events if e is not None), None)

    def grown(self, rig, *, scale_in_after=2):
        pool, templates, _ = rig
        scaler = Autoscaler(
            pool,
            templates,
            ScalePolicy(scale_out_after=1, scale_in_after=scale_in_after, cooldown=0),
        )
        feed_sample(scaler)
        scaler.update(1.0, status(False), 0.0)
        assert scaler.added
        return pool, scaler

    def test_scale_in_after_sustained_calm(self, rig):
        pool, scaler = self.grown(rig)
        added = scaler.added[0]
        event = self.make_calm(scaler, 2)
        assert event is not None and event.action == "in"
        assert event.device == added
        assert len(pool.devices) == 2 and not scaler.added

    def test_never_removes_the_base_fleet(self, rig):
        pool, scaler = self.grown(rig)
        self.make_calm(scaler, 2)
        base = {d.name for d in pool.devices}
        # Long after the scaled device is gone, calm keeps arriving.
        for i in range(50):
            assert scaler.update(200_000.0 + i, status(True), 0.0) is None
        assert {d.name for d in pool.devices} == base == {"protoacc", "cpu"}

    def test_paused_while_healer_is_busy_on_the_device(self, rig):
        pool, scaler = self.grown(rig)

        class BusyHealer:
            def busy_devices(self_inner):
                return set(scaler.added)

        pool.healer = BusyHealer()
        assert self.make_calm(scaler, 4) is None
        assert len(pool.devices) == 3
        pool.healer = None
        assert self.make_calm(scaler, 2, start=300_000.0) is not None

    def test_removal_blocked_when_rate_unknown(self, rig):
        pool, templates, _ = rig
        scaler = Autoscaler(
            pool, templates, ScalePolicy(scale_out_after=1, scale_in_after=1, cooldown=0)
        )
        # Sample without completion times: pricing works, rate unknown.
        for msg in STORAGE_MIX.sample(3, 8):
            scaler.note_request(msg)
        scaler.update(1.0, status(False), 0.0)
        assert scaler.added
        assert self.make_calm(scaler, 4) is None  # unsafe: no rate estimate
        assert len(pool.devices) == 3

    def test_removal_blocked_when_remaining_capacity_too_thin(self, rig):
        pool, scaler = self.grown(rig)
        # Flood the completion window (evicting the sparse history):
        # the observed rate is now far beyond what the remaining two
        # devices could carry at scale_in_rho.
        for i, msg in enumerate(STORAGE_MIX.sample(5, 32)):
            scaler.note_request(msg, completed=100_000.0 + i * 10.0)
        assert self.make_calm(scaler, 4, start=110_000.0) is None
        assert len(pool.devices) == 3
