"""hsembed benchmark runner.

    python3 perfbench/run.py --workload window --seed 1 --seconds 10 --trace 0

Runs one workload (see ``workloads.py``) in this process, checks every
output, and prints a few human-readable lines followed, as the last line,
by one JSON object ``{"correct", "attempted", "failed", "metrics"}``.

``--trace 0`` measures the end-to-end metrics with no tracing installed:
set-up is timed (fresh import, input generation and one warm-up pass), then
whole passes are repeated for about ``--seconds`` seconds.  All times are
reported at reference speed, which cancels most of the host's drifting
speed (see ``hostspeed.py``).  ``--trace 1``
runs one untraced and one traced pass and reports the per-layer metrics of
the traced pass, the tracing overhead, and every work count that differs
from ``baseline.json``.  Exits 2 without a result when the checkout has no
hsembed sources.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import sys
from pathlib import Path
from time import perf_counter_ns
from typing import Dict, List, Sequence, Tuple

import hostspeed
import spans
import workloads as wl

BASELINE = Path(__file__).resolve().parent / "baseline.json"
COLD_START_SAMPLES = 15

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "queries_per_s": "1/s",
    "query_ms_p50": "ms",
    "query_ms_p99": "ms",
    "cli_cold_start_ms": "ms",
    "peak_rss_mb": "MB",
}


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("ms"):
        return "ms"
    if name.endswith(spans.COUNT_SUFFIXES):
        return "count"
    return "ratio"


def percentile(values: Sequence[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0

    def add(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed


def load_baseline() -> dict:
    with open(BASELINE, encoding="utf-8") as fh:
        return json.load(fh)


def expectations(hs, inputs: wl.Inputs, baseline: dict) -> dict:
    if inputs.name == "window":
        return {"leqq": wl.window_oracle(hs, inputs)}
    if inputs.name == "poset":
        return {"dot_sha256": baseline["poset_dot_sha256"][str(inputs.max_sum)]}
    return {}


def check_pass(hs, inputs: wl.Inputs, result: wl.PassResult, expected: dict, tally: Tally) -> None:
    """Check one pass with the module instance that produced it."""
    tally.add(len(result.outputs), wl.check_pass(hs, inputs, result, expected))
    if inputs.name == "search":
        tally.add(1, wl.replay_search_certificate(hs, inputs, result))


def measure(name: str, seed: int, seconds: float, tiny: bool = False) -> Tuple[dict, Tally, List[str]]:
    """End-to-end metrics of one workload, with tracing off.

    Every time is reported at reference speed (see ``hostspeed``).  Each
    pass is checked as soon as it has been timed and its outputs are then
    dropped, so peak memory does not grow with the number of passes.  Cold
    starts are spread over the timed passes rather than bunched.
    """
    baseline = load_baseline()
    tally = Tally()
    sampler = hostspeed.SpeedSampler()
    setups: List[Tuple[int, int]] = []
    walls: List[Tuple[int, int]] = []
    queries: List[Tuple[int, int]] = []
    cold: List[Tuple[int, int]] = []
    expected = None
    with sampler.running():
        for _ in range(1 if tiny else wl.SETUP_REPEATS[name]):
            t0 = perf_counter_ns()
            hs = wl.load_hsembed()
            inputs = wl.make_inputs(name, seed, tiny)
            warm = wl.run_pass(hs, inputs)
            setups.append((t0, perf_counter_ns()))
            if expected is None:
                expected = expectations(hs, inputs, baseline)
            check_pass(hs, inputs, warm, expected, tally)
        passes = max(1, round(seconds * 1e9 / warm.wall_ns))
        del warm
        cold_per_pass = math.ceil((2 if tiny else COLD_START_SAMPLES) / passes)
        for _ in range(passes):
            result = wl.run_pass(hs, inputs)
            walls.append((result.start_ns, result.end_ns))
            queries.extend(result.query_ns)
            check_pass(hs, inputs, result, expected, tally)
            del result
            with sampler.paused():
                for _ in range(cold_per_pass):
                    sampler.sample(hostspeed.MIN_SLICES)
                    intervals, failed = wl.cold_start(1)
                    cold.extend(intervals)
                    tally.add(len(intervals), failed)
                sampler.sample(hostspeed.MIN_SLICES)
    rss = wl.child_peak_rss_mb() if name == "poset" else wl.self_peak_rss_mb()

    def scaled(intervals: List[Tuple[int, int]]) -> List[float]:
        return [sampler.scale(start, end) for start, end in intervals]

    latencies_ms = [ns * 1e-6 for ns in scaled(queries)]
    pass_ns = scaled(walls)
    metrics = {
        "setup_s": statistics.median(scaled(setups)) * 1e-9,
        "wall_s": statistics.median(pass_ns) * 1e-9,
        "queries_per_s": len(latencies_ms) / (sum(pass_ns) * 1e-9),
        "query_ms_p50": percentile(latencies_ms, 50),
        "query_ms_p99": percentile(latencies_ms, 99),
        "cli_cold_start_ms": statistics.median(scaled(cold)) * 1e-6,
        "peak_rss_mb": rss,
    }
    factors = sampler.factors
    notes = [
        f"{name}: {len(setups)} set-ups, {passes} timed passes of {len(inputs.queries)} queries "
        f"({len(latencies_ms)} latency samples), {len(cold)} cold starts",
        f"host speed factor over {len(factors)} samples: median {statistics.median(factors):.3f}, "
        f"range {min(factors):.3f}..{max(factors):.3f}; "
        f"unscaled wall_s {statistics.median(e - s for s, e in walls) * 1e-9:.4f} s",
    ]
    return metrics, tally, notes


def measure_traced(name: str, seed: int, tiny: bool = False) -> Tuple[dict, Tally, List[str]]:
    """Per-layer metrics of one traced pass, next to an untraced one.

    Times are reported at reference speed, like the end-to-end metrics;
    the layer times of the traced pass are scaled by that pass's factor.
    """
    baseline = load_baseline()
    inputs = wl.make_inputs(name, seed, tiny)
    poset = name == "poset"
    sampler = hostspeed.SpeedSampler()
    checked = []
    tracer = spans.Tracer()
    with sampler.running():
        hs = wl.load_hsembed()
        if not poset:
            checked.append((hs, wl.run_pass(hs, inputs)))  # warm-up
        untraced = wl.run_pass(hs, inputs, in_process=True)
        checked.append((hs, untraced))
        if poset:
            hs = wl.load_hsembed()  # both poset runs start from empty caches
        originals = spans.originals(hs)
        with tracer.installed(hs):
            traced = wl.run_pass(hs, inputs, in_process=True)
        checked.append((hs, traced))

    tally = Tally()
    tally.add(1, int(spans.originals(hs) != originals))  # every wrapper was removed
    expected = expectations(hs, inputs, baseline)
    for owner, result in checked:
        check_pass(owner, inputs, result, expected, tally)

    metrics = spans.layer_metrics(tracer, sampler.factor(traced.start_ns, traced.end_ns))
    metrics["trace.untraced_wall_s"] = sampler.scale(untraced.start_ns, untraced.end_ns) * 1e-9
    metrics["trace.traced_wall_s"] = sampler.scale(traced.start_ns, traced.end_ns) * 1e-9
    metrics["trace.overhead_s"] = metrics["trace.traced_wall_s"] - metrics["trace.untraced_wall_s"]
    notes = [f"{name}: tracing overhead {metrics['trace.overhead_s']:.4f} s "
             f"({metrics['trace.traced_wall_s']:.4f} s traced vs "
             f"{metrics['trace.untraced_wall_s']:.4f} s untraced, at reference speed)"]
    counts = spans.deterministic_counts(metrics)
    recorded = {} if tiny else baseline["workloads"][name].get("counts", {})
    for key in sorted(set(counts) | set(recorded) if recorded else ()):
        if counts.get(key) != recorded.get(key):
            notes.append(f"count differs from baseline: {key} = {counts.get(key)} "
                         f"(baseline {recorded.get(key)})")
    return metrics, tally, notes


def result_json(metrics: Dict[str, float], tally: Tally, trace: bool) -> dict:
    unit = per_layer_unit if trace else END_TO_END.__getitem__
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit(k)} for k, v in metrics.items()},
    }


def main(argv: Sequence[str] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        if args.trace:
            metrics, tally, notes = measure_traced(args.workload, args.seed)
        else:
            metrics, tally, notes = measure(args.workload, args.seed, args.seconds)
    except (wl.MissingProgram, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    result = result_json(metrics, tally, bool(args.trace))
    for line in notes:
        print(line)
    for key, entry in result["metrics"].items():
        print(f"{key:45s} {entry['value']:>14.4f} {entry['unit']}")
    print(f"failed_frac {tally.failed / tally.attempted:.6f} ({tally.failed}/{tally.attempted} checks)")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
