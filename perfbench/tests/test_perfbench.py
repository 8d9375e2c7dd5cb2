"""Tests of the benchmark itself.  Run from the repo root:

    python3 -m pytest perfbench/tests -q
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src"
for path in (str(SRC), str(ROOT)):
    if path not in sys.path:
        sys.path.insert(0, path)

from perfbench import run  # noqa: E402
from perfbench.ledger import Totals  # noqa: E402
from perfbench.workloads import WORKLOADS  # noqa: E402

SIM_METRICS = ("sim_p50_cycles", "sim_p99_cycles")


def bench(capsys, workload, seed, *, trace=0):
    code = run.main(
        ["--workload", workload, "--seed", str(seed), "--seconds", "0.1", "--trace", str(trace)]
    )
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    return code, result


def bench_process(workload, seed, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", "0.1", "--trace", "0"],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


@pytest.mark.parametrize("workload", ["serve_storm", "sweep"])
def test_simulated_metrics_repeat_exactly_across_processes(workload):
    results = []
    for _ in range(2):
        done = bench_process(workload, seed=3)
        assert done.returncode == 0, done.stderr
        results.append(json.loads(done.stdout.strip().splitlines()[-1]))
    for result in results:
        assert result["correct"] and result["failed"] == 0
    for name in SIM_METRICS:
        assert results[0]["metrics"][name] == results[1]["metrics"][name]


def test_doctored_batch_engine_fails_the_sweep(capsys, monkeypatch):
    from repro.core.petrinet import PetriNetInterface

    honest = PetriNetInterface.evaluate_batch

    def doctored(self, items):
        values = honest(self, items)
        return [values[0] + 1.0, *values[1:]]

    monkeypatch.setattr(PetriNetInterface, "evaluate_batch", doctored)
    code, result = bench(capsys, "sweep", seed=1)
    assert code == 1
    assert result["correct"] is False
    assert 0 < result["failed"] <= result["attempted"]


def test_doctored_breakdown_fails_serving(capsys, monkeypatch):
    from repro.runtime.serving import RequestBreakdown

    monkeypatch.setattr(RequestBreakdown, "total", property(lambda b: b.end_to_end + 1.0))
    code, result = bench(capsys, "serve_rr", seed=1)
    assert code == 1
    assert result["correct"] is False
    # Every served request of every run fails the sum check.
    assert result["failed"] == result["attempted"]


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_seed_changes_the_generated_inputs(name):
    workload = WORKLOADS[name]

    def fingerprint(inputs):
        msgs, arrivals = inputs if workload.kind == "serve" else (inputs, [])
        return [m.encode() for m in msgs], list(arrivals)

    assert fingerprint(workload.inputs(1)) == fingerprint(workload.inputs(1))
    assert fingerprint(workload.inputs(1)) != fingerprint(workload.inputs(2))


def test_seed_changes_nothing_but_the_inputs(capsys, monkeypatch):
    workload = WORKLOADS["serve_rr"]
    fixed = workload.inputs(5)
    monkeypatch.setattr(workload, "inputs", lambda seed: fixed)
    first = bench(capsys, "serve_rr", seed=1)[1]["metrics"]
    second = bench(capsys, "serve_rr", seed=2)[1]["metrics"]
    for name in SIM_METRICS:
        assert first[name] == second[name]


def test_traced_null_workload_never_prices(capsys):
    code, result = bench(capsys, "serve_rr", seed=1, trace=1)
    assert code == 0 and result["correct"]
    m = {name: metric["value"] for name, metric in result["metrics"].items()}
    for name in ("pool.price_calls_per_req", "cache.misses_per_req",
                 "petrinet.latency_calls_per_req", "petri.sim_builds_per_req",
                 "ledger.cache.self_us_per_op", "ledger.petri.self_us_per_op"):
        assert m[name] == 0, name
    assert m["model.protoacc.calls_per_req"] > 0
    layers = sum(v for k, v in m.items() if k.startswith("ledger.") and ".self_" in k)
    total = layers + m["ledger.unattributed_us_per_op"]
    assert total == pytest.approx(m["ledger.total_us_per_op"], rel=1e-9)
    assert (ROOT / "perfbench" / "out" / "spans-serve_rr-seed1.tsv.gz").is_file()


def test_self_times_add_up_to_the_root():
    names = ["serving.run", "pool.dispatch", "cache.key", "pool.dispatch"]
    start, end, parent = [0, 10, 20, 50], [100, 40, 30, 60], [-1, 0, 1, 0]
    totals = Totals()
    totals.add(names, start, end, parent)
    assert totals.self_ns == {"serving.run": 60, "pool.dispatch": 30, "cache.key": 10}
    assert totals.incl_ns["pool.dispatch"] == 40
    assert sum(totals.self_ns.values()) == totals.root_ns == 100


def test_normalized_times_scale_each_run_before_the_median():
    from perfbench.workloads import Rep

    reps = [
        Rep(ops=2, phase_ns={"serve": 4_000}, digest=(), call_us={0.5: 3.0}, scale=0.5),
        Rep(ops=2, phase_ns={"serve": 2_000}, digest=(), call_us={0.5: 1.0}, scale=1.0),
        Rep(ops=2, phase_ns={"serve": 8_000}, digest=(), call_us={0.5: 8.0}, scale=0.5),
    ]
    assert run.us_per_op(reps) == 2.0
    assert run.us_per_op(reps, normalized=True) == 1.0
    assert run.call_us(reps, 0.5) == 1.5


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        ROOT / "perfbench",
        tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("out", "__pycache__"),
    )
    done = bench_process("serve_rr", seed=1, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip()
