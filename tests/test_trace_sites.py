"""The names the benchmark's tracer patches still exist on the hsembed
modules, and the calls it counts still go through them.

``perfbench/spans.py`` wraps functions by (module, attribute) name; a
refactor that renames or drops one, or that calls a function by another
name than the wrapped one, breaks ``perfbench/run.py --trace 1``, which the
tier-1 suite does not run.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path
from types import SimpleNamespace

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_every_trace_site_resolves():
    spans = _load_spans()
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.SITES
        if not callable(getattr(importlib.import_module(f"hsembed.{module}"), attr, None))
    ]
    assert missing == []


SEARCH_LAYERS = (
    "engine.witness_search",
    "engine.enumerate_vector_partitions",
    "model.homology_reduce",
    "lattice.smith_normal_form",
    "lattice.hom_exists",
)


def _traced(run):
    # the layers' call counts of one run under the benchmark's tracer, and
    # the number of items the enumerator yielded through its wrapper
    spans = _load_spans()
    hs = SimpleNamespace(**{
        module: importlib.import_module(f"hsembed.{module}")
        for module in {module for module, _, _, _ in spans.SITES}
    })
    tracer = spans.Tracer()
    with tracer.installed(hs):
        run(hs)
    layers = tracer.layers
    yielded = layers["engine.enumerate_vector_partitions"].yielded
    return {layer: layers[layer].calls for layer in SEARCH_LAYERS}, yielded


def test_the_search_calls_reach_the_tracer():
    # the search's blocks live in hsembed.search, but it still calls the
    # enumerator, homology_reduce and hom_exists through engine's names,
    # which is where the tracer wraps them
    calls, yielded = _traced(lambda hs: hs.engine.decide(2, (3, 3), (5, 5)))
    assert all(calls[layer] for layer in SEARCH_LAYERS[:4]), calls
    assert yielded > 0

    calls, _ = _traced(lambda hs: hs.engine.witness_search(2, (2, 2), (4, 3)))
    assert calls["lattice.hom_exists"] == 1

    calls, yielded = _traced(lambda hs: hs.engine.decide(2, (3,), (4, 2)))
    assert calls == dict.fromkeys(SEARCH_LAYERS, 0)
    assert yielded == 0
