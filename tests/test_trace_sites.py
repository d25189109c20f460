"""The names the benchmark's tracer patches still exist on the hsembed modules.

``perfbench/spans.py`` wraps functions by (module, attribute) name; a
refactor that renames or drops one breaks ``perfbench/run.py --trace 1``,
which the tier-1 suite does not run.  The file is loaded, not changed.
"""

import importlib
import importlib.util
from pathlib import Path

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def test_every_trace_site_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = [
        f"{module}.{attr}"
        for module, attr, _, _ in spans.SITES
        if not callable(getattr(importlib.import_module(f"hsembed.{module}"), attr, None))
    ]
    assert missing == []
