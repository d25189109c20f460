"""Tests of the benchmark itself, on tiny inputs (about half a minute in all).

    python3 -m pytest perfbench -q
"""

import collections
import json
import os
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import hostspeed  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads as wl  # noqa: E402

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", wl.WORKLOADS)
def test_each_workload_runs_tiny_and_checks_pass(name):
    metrics, tally, _ = run.measure(name, seed=3, seconds=0.1, tiny=True)
    assert tally.failed == 0 and tally.attempted > 0
    assert set(metrics) == {m["name"] for m in SPEC["end_to_end"]}
    assert all(v > 0 for v in metrics.values())

    layers, tally, _ = run.measure_traced(name, seed=3, tiny=True)
    assert tally.failed == 0
    assert set(layers) == {m["name"] for m in SPEC["per_layer"]}


def test_units_match_benchmark_json():
    result = run.result_json({m["name"]: 1.0 for m in SPEC["end_to_end"]}, run.Tally(), False)
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in SPEC["end_to_end"]
    }
    for m in SPEC["per_layer"]:
        assert run.per_layer_unit(m["name"]) == m["unit"]


def test_trace_wrappers_are_removed_even_after_an_error():
    hs = wl.load_hsembed()
    before = spans.originals(hs)
    tracer = spans.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.installed(hs):
            during = spans.originals(hs)
            assert all(during[site] is not before[site] for site in before)
            hs.engine.decide(2, (3,), (4, 2))
            raise RuntimeError("abort the traced block")
    after = spans.originals(hs)
    assert all(after[site] is before[site] for site in before)
    assert tracer.layers["engine.decide"].calls == 1


def test_trace_counts_repeat_exactly():
    first, _, _ = run.measure_traced("search", seed=1, tiny=True)
    second, _, _ = run.measure_traced("search", seed=2, tiny=True)
    assert spans.deterministic_counts(first) == spans.deterministic_counts(second)
    assert first["engine.witness_search.logical_calls"] == 122


def test_two_seeds_give_the_same_verdict_multiset():
    hs = wl.load_hsembed()
    kinds = []
    for seed in (1, 2):
        inputs = wl.make_inputs("window", seed, tiny=True)
        result = wl.run_pass(hs, inputs)
        kinds.append(collections.Counter(
            (q, v.kind, v.certificate.rule if v.certificate else None)
            for q, v in zip(inputs.queries, result.outputs)
        ))
    assert kinds[0] == kinds[1]
    assert wl.make_inputs("window", 1).queries != wl.make_inputs("window", 2).queries


def test_speed_factor_averages_the_samples_inside_an_interval():
    sampler = hostspeed.SpeedSampler()
    sampler.starts = [0, 10, 20, 30, 40, 50]
    sampler.factors = [1.0, 2.0, 2.0, 2.0, 4.0, 1.0]
    assert sampler.factor(5, 35) == 2.0
    assert sampler.scale(5, 35) == 60.0
    # fewer than MIN_SLICES inside: widened to the neighbours
    assert sampler.factor(39, 41) == (2.0 + 4.0 + 1.0) / 3


def test_sampler_restores_the_signal_handler_and_affinity():
    handler = signal.getsignal(signal.SIGALRM)
    cpus = os.sched_getaffinity(0)
    sampler = hostspeed.SpeedSampler()
    with sampler.running():
        with sampler.paused():
            before = len(sampler.factors)
            deadline = time.perf_counter() + 3 * hostspeed.PERIOD_S
            while time.perf_counter() < deadline:
                pass
            assert len(sampler.factors) == before
        sum(range(10**6))
    assert signal.getsignal(signal.SIGALRM) is handler
    assert os.sched_getaffinity(0) == cpus
    assert len(sampler.factors) >= 2


def test_window_corpus_is_the_criterion_3_window():
    assert len(wl.window_queries()) == 3879


def test_search_certificate_replays_in_full():
    hs = wl.load_hsembed()
    n, source, target = wl.REPLAYED_QUERY
    verdict = hs.engine.decide(n, source, target)
    assert verdict.kind == "NO"
    assert verdict.certificate.rule == hs.engine.WITNESS_INFEASIBLE
    assert verdict.certificate.search_bounds["exhausted"] is True
    assert hs.engine.replay_certificate(verdict.certificate)


def test_runner_fails_without_the_program(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "window", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
