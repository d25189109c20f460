"""Per-layer tracing of hsembed from outside the package.

A ``Tracer`` replaces public functions of the hsembed modules with timing
wrappers for the duration of a ``with tracer.installed(hs):`` block and puts
the originals back when the block ends.  Each wrapper is installed in the
module that *calls* the function, because ``engine`` and ``cli`` import
their collaborators by name: patching ``lattice.hom_exists`` alone would
never see the calls that ``engine`` makes.

Spans are aggregated per layer as they close (count, inclusive time, self
time, plus a few outcome tallies), so memory stays flat however many calls
a pass makes.  A span's self time is its duration minus the time covered by
the spans it directly encloses.
"""

from __future__ import annotations

import functools
from contextlib import contextmanager
from time import perf_counter_ns
from typing import Callable, Dict, Iterator, List, Optional, Tuple


class LayerStats:
    """Running totals for one layer."""

    __slots__ = ("calls", "ns", "self_ns", "hits", "yielded", "logical_calls", "budget_exceeded")

    def __init__(self) -> None:
        self.calls = 0
        self.ns = 0
        self.self_ns = 0
        self.hits = 0  # calls whose result met the layer's tally (related, fired, feasible)
        self.yielded = 0
        self.logical_calls = 0
        self.budget_exceeded = 0


def _truthy(stats: LayerStats, result) -> None:
    stats.hits += bool(result[0])


def _not_none(stats: LayerStats, result) -> None:
    stats.hits += result is not None


def _search_outcome(stats: LayerStats, outcome) -> None:
    stats.logical_calls += outcome.calls_used
    stats.budget_exceeded += outcome.status == "BUDGET_EXCEEDED"


# (module that calls the function, attribute, layer name, result tally).
SITES: Tuple[Tuple[str, str, str, Optional[Callable]], ...] = (
    ("cli", "main", "cli.main", None),
    ("engine", "decide", "engine.decide", None),
    ("cli", "decide", "engine.decide", None),
    ("engine", "leqq", "order.leqq", _truthy),
    ("cli", "leqq", "order.leqq", _truthy),
    ("order", "leqq_bfs", "order.leqq_bfs", None),
    ("order", "leqq_decomposition", "order.leqq_decomposition", None),
    ("engine", "quick_checks", "engine.quick_checks", _not_none),
    ("engine", "f_invariant", "indices.f_invariant", None),
    ("engine", "witness_search", "engine.witness_search", _search_outcome),
    ("engine", "enumerate_vector_partitions", "engine.enumerate_vector_partitions", None),
    ("engine", "homology_reduce", "model.homology_reduce", None),
    ("engine", "hom_exists", "lattice.hom_exists", _not_none),
    ("lattice", "solve_diophantine", "lattice.solve_diophantine", None),
    ("lattice", "smith_normal_form", "lattice.smith_normal_form", None),
)
# Layers whose function returns a generator: their spans cover each ``next()``.
GENERATORS = frozenset({"engine.enumerate_vector_partitions"})


class Tracer:
    """Aggregating span recorder; one per traced pass."""

    def __init__(self) -> None:
        self.layers: Dict[str, LayerStats] = {layer: LayerStats() for _, _, layer, _ in SITES}
        # One entry per open span: the time its child spans have covered.
        self._open: List[List[int]] = []

    def _wrap(self, fn: Callable, stats: LayerStats, tally: Optional[Callable]) -> Callable:
        open_spans = self._open

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            children = [0]
            open_spans.append(children)
            start = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                took = perf_counter_ns() - start
                open_spans.pop()
                if open_spans:
                    open_spans[-1][0] += took
                stats.calls += 1
                stats.ns += took
                stats.self_ns += took - children[0]
            if tally is not None:
                tally(stats, result)
            return result

        return wrapper

    def _wrap_generator(self, fn: Callable, stats: LayerStats) -> Callable:
        open_spans = self._open

        def timed(items: Iterator) -> Iterator:
            while True:
                start = perf_counter_ns()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    took = perf_counter_ns() - start
                    if open_spans:
                        open_spans[-1][0] += took
                    stats.ns += took
                    stats.self_ns += took
                stats.yielded += 1
                yield item

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stats.calls += 1
            return timed(fn(*args, **kwargs))

        return wrapper

    @contextmanager
    def installed(self, hs) -> Iterator["Tracer"]:
        """Wrap every site in ``hs`` (a namespace of hsembed modules)."""
        saved = []
        try:
            for module_name, attr, layer, tally in SITES:
                module = getattr(hs, module_name)
                original = getattr(module, attr)
                saved.append((module, attr, original))
                stats = self.layers[layer]
                if layer in GENERATORS:
                    setattr(module, attr, self._wrap_generator(original, stats))
                else:
                    setattr(module, attr, self._wrap(original, stats, tally))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def originals(hs) -> Dict[Tuple[str, str], Callable]:
    """The objects currently bound at every trace site."""
    return {(m, a): getattr(getattr(hs, m), a) for m, a, _, _ in SITES}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, speed_factor: float = 1.0) -> Dict[str, float]:
    """The per-layer metrics of one traced pass, by BENCHMARK.json name.

    Times are multiplied by ``speed_factor`` (see ``hostspeed``).
    """
    layers = tracer.layers
    ms = 1e-6 * speed_factor
    search = layers["engine.witness_search"]
    hom = layers["lattice.hom_exists"]
    out: Dict[str, float] = {}
    for layer in ("order.leqq_decomposition", "order.leqq_bfs", "order.leqq",
                  "lattice.smith_normal_form", "lattice.hom_exists",
                  "engine.enumerate_vector_partitions", "model.homology_reduce",
                  "engine.quick_checks", "indices.f_invariant"):
        out[f"{layer}.calls"] = layers[layer].calls
        out[f"{layer}.ms"] = layers[layer].ns * ms
    for layer in ("lattice.solve_diophantine", "engine.witness_search", "engine.decide"):
        out[f"{layer}.calls"] = layers[layer].calls
        out[f"{layer}.self_ms"] = layers[layer].self_ns * ms
    out["order.leqq.related_ratio"] = _ratio(layers["order.leqq"].hits, layers["order.leqq"].calls)
    out["lattice.hom_exists.feasible_ratio"] = _ratio(hom.hits, hom.calls)
    out["lattice.hom_exists.per_logical_call"] = _ratio(hom.calls, search.logical_calls)
    out["engine.enumerate_vector_partitions.yielded"] = layers["engine.enumerate_vector_partitions"].yielded
    out["engine.witness_search.logical_calls"] = search.logical_calls
    out["engine.witness_search.budget_exceeded"] = search.budget_exceeded
    qc = layers["engine.quick_checks"]
    out["engine.quick_checks.fired_ratio"] = _ratio(qc.hits, qc.calls)
    out["cli.main.ms"] = layers["cli.main"].ns * ms
    out["cli.main.self_ms"] = layers["cli.main"].self_ns * ms
    return out


COUNT_SUFFIXES = (".calls", ".yielded", ".logical_calls", ".budget_exceeded")


def deterministic_counts(metrics: Dict[str, float]) -> Dict[str, int]:
    """The work counts among ``metrics``; these repeat exactly run to run."""
    return {k: int(v) for k, v in sorted(metrics.items()) if k.endswith(COUNT_SUFFIXES)}
