"""Cache layer: hit/miss accounting, key stability, invalidation."""

import subprocess
import sys
from pathlib import Path

import pytest

from repro.perf import EvalCache, UncacheableError, net_fingerprint, workload_key
from repro.petri import PetriNet, parse

PNET = """\
net demo

place in
place mid capacity 4
place out

transition a
  consume in
  produce mid
  delay expr: 1 + tok["x"] % 3

transition b
  consume mid
  produce out
  delay 2
"""


def programmatic_net(delay=3.0, capacity=None):
    net = PetriNet("prog")
    net.add_place("in", capacity=capacity)
    net.add_place("out")
    net.add_transition("t", ["in"], ["out"], delay=delay)
    return net


# ----------------------------------------------------------------------
# Fingerprints
# ----------------------------------------------------------------------


def test_same_source_same_fingerprint():
    assert net_fingerprint(parse(PNET)) == net_fingerprint(parse(PNET))


def test_programmatic_net_fingerprint_is_reproducible():
    assert net_fingerprint(programmatic_net()) == net_fingerprint(programmatic_net())


@pytest.mark.parametrize(
    "mutate",
    [
        lambda n: setattr(n.transitions["a"], "servers", 9),
        lambda n: setattr(n.transitions["a"], "priority", 5),
        lambda n: setattr(n.places["mid"], "capacity", 99),
        lambda n: setattr(n.transitions["b"], "delay", 7.0),
        lambda n: setattr(n.transitions["b"], "timeout", (4.0, "in")),
    ],
)
def test_mutated_net_changes_fingerprint(mutate):
    net = parse(PNET)
    before = net_fingerprint(net)
    mutate(net)
    assert net_fingerprint(net) != before


def test_changed_lambda_formula_changes_fingerprint():
    a = programmatic_net(delay=3.0)
    b = programmatic_net(delay=3.0)
    b.transitions["t"].delay = lambda c: 3.0 + c["in"][0].payload
    assert net_fingerprint(a) != net_fingerprint(b)


def test_closure_value_is_part_of_fingerprint():
    def with_factor(k):
        net = programmatic_net()
        net.transitions["t"].delay = lambda c: k * 1.0
        return net

    assert net_fingerprint(with_factor(2)) != net_fingerprint(with_factor(3))
    assert net_fingerprint(with_factor(2)) == net_fingerprint(with_factor(2))


def test_simulation_state_does_not_affect_fingerprint():
    from repro.petri import Simulator

    net = parse(PNET)
    before = net_fingerprint(net)
    sim = Simulator(net, sinks=["out"])
    sim.inject_stream("in", [{"x": i} for i in range(5)])
    sim.run()
    assert net_fingerprint(net) == before


def test_workload_key_distinguishes_types():
    keys = {workload_key(v) for v in (1, 1.0, True, "1", [1], (1,), {1})}
    assert len(keys) == 7


def test_workload_key_rejects_opaque_objects():
    class Opaque:
        pass

    with pytest.raises(UncacheableError):
        workload_key(Opaque())


def test_key_stable_across_processes(tmp_path: Path):
    """The whole point of content addressing: a different process building
    the same net from the same source computes the same key."""
    script = f"""
import sys
sys.path.insert(0, {str(Path("src").resolve())!r})
from repro.perf import EvalCache
from repro.petri import parse
cache = EvalCache()
print(cache.key(parse({PNET!r}), {{"items": 10, "gap": 0.5}}))
"""
    runs = [
        subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, check=True
        ).stdout.strip()
        for _ in range(2)
    ]
    here = EvalCache().key(parse(PNET), {"items": 10, "gap": 0.5})
    assert runs[0] == runs[1] == here


# ----------------------------------------------------------------------
# EvalCache behavior
# ----------------------------------------------------------------------


def test_hit_miss_counting():
    cache = EvalCache()
    net = parse(PNET)
    calls = []

    def compute():
        calls.append(1)
        return len(calls)

    assert cache.get_or_compute(net, {"n": 1}, compute) == 1
    assert cache.get_or_compute(net, {"n": 1}, compute) == 1
    assert cache.get_or_compute(net, {"n": 2}, compute) == 2
    assert (cache.stats.hits, cache.stats.misses) == (1, 2)
    assert cache.stats.hit_rate == pytest.approx(1 / 3)
    assert len(calls) == 2
    assert len(cache) == 2


def test_uncacheable_features_always_compute():
    class Opaque:
        pass

    cache = EvalCache()
    net = parse(PNET)
    calls = []
    for _ in range(2):
        cache.get_or_compute(net, Opaque(), lambda: calls.append(1))
    assert len(calls) == 2
    assert cache.stats.uncacheable == 2
    assert cache.stats.lookups == 0


def test_get_many_answers_in_input_order():
    cache = EvalCache()
    cache.put("ns", 1, "one")
    cache.put("ns", 3, "three")
    out = cache.get_many("ns", [3, 2, 1, 4], lambda misses: [f"new{i}" for i in misses])
    assert out == ["three", "new1", "one", "new3"]
    assert (cache.stats.hits, cache.stats.misses) == (2, 2)


def test_get_many_computes_the_misses_in_one_call():
    cache = EvalCache()
    cache.put("ns", "b", 2)
    calls = []

    def compute(misses):
        calls.append(list(misses))
        return [10 * i for i in misses]

    assert cache.get_many("ns", ["a", "b", "c"], compute) == [0, 2, 20]
    assert calls == [[0, 2]]
    assert cache.get_many("ns", ["a", "b", "c"], compute) == [0, 2, 20]
    assert calls == [[0, 2]]  # all hits: compute is not called
    assert len(cache) == 3


def test_get_many_rejects_a_short_compute():
    cache = EvalCache()
    with pytest.raises(ValueError, match="1 values for 2 misses"):
        cache.get_many("ns", [1, 2], lambda misses: ["only one"])
    assert len(cache) == 0


def test_get_many_computes_but_never_stores_uncacheable_features():
    class Opaque:
        pass

    cache = EvalCache()
    calls = []

    def compute(misses):
        calls.append(list(misses))
        return [f"v{i}" for i in misses]

    for _ in range(2):
        assert cache.get_many("ns", [Opaque(), 1], compute) == ["v0", "v1"]
    assert calls == [[0, 1], [0]]
    assert cache.stats.uncacheable == 2
    assert (cache.stats.hits, cache.stats.misses) == (1, 1)
    assert len(cache) == 1


def test_mutated_fingerprint_invalidates_entries():
    cache = EvalCache()
    net = parse(PNET)
    cache.get_or_compute(net, {"n": 1}, lambda: "old")
    net.transitions["a"].servers = 4  # a different accelerator now
    assert cache.get_or_compute(net, {"n": 1}, lambda: "new") == "new"
    assert cache.stats.misses == 2 and cache.stats.hits == 0


def test_string_namespace_keys():
    cache = EvalCache()
    a = cache.get_or_compute("profiler:x", {"p": 1}, lambda: "ax")
    b = cache.get_or_compute("profiler:y", {"p": 1}, lambda: "by")
    assert (a, b) == ("ax", "by")
    assert cache.get_or_compute("profiler:x", {"p": 1}, lambda: "zz") == "ax"


def test_clear_drops_entries_but_keeps_counters():
    cache = EvalCache()
    cache.get_or_compute("ns", 1, lambda: "v")
    cache.clear()
    assert len(cache) == 0
    assert cache.stats.misses == 1
    cache.reset_stats()
    assert cache.stats.lookups == 0


def test_stats_summary_format():
    cache = EvalCache()
    cache.get_or_compute("ns", 1, lambda: "v")
    cache.get_or_compute("ns", 1, lambda: "v")
    assert cache.stats.summary() == "cache: 1/2 hits (50%)"
