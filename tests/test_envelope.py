"""The robustness envelope: queries that once ran away, held to time and memory bounds.

Each row of ``envelope.json`` is a query (``n``, ``source``, ``target``), a
``time_cap`` and a ``slack_s``, a ``peak_mib``, the verdict ``kind``
expected, and the ``rung`` of the decision ladder expected to answer it.
Under ``Budget(time_cap=time_cap)``, ``decide`` must return that kind within
``time_cap + slack_s`` seconds of wall time.  A rung of ``witness_search``
means the verdict carries the search's bounds.  A row joins the file once
a change makes it hold; the slack covers the order rung, which reads no
clock, and the return after the search's deadline passes.

In a second run, not timed because a row has taken over 2 s under
``tracemalloc``, the ``tracemalloc`` peak of ``decide`` must stay under
``peak_mib`` MiB.  Each row's search stops at its deadline partway
through a long list of parts, so the peak grows with the speed of the
host: the large-entry rows (1001, 999), (3001, 2999) and (10**6,), and
(1001, 999) from (4, 4) at n = 3, peaked at 22-41 MiB on a 2-core x86-64
host under Python 3.11, and their bound leaves about twice that for faster
ones.  The whole list of parts of (1001, 999) alone peaks at about 190 MB.
The other rows peaked at 2.3-4.6 MiB there, and at 8.5-18.6 MiB when given
2 s instead of 0.5 s, so their bound of 32 MiB covers a host several times
faster.
"""

import json
import time
import tracemalloc
from pathlib import Path

import pytest

from hsembed import Budget, decide

ROWS = json.loads((Path(__file__).resolve().parent / "envelope.json").read_text())


def _id(row: dict) -> str:
    return "{}->{}".format(*(",".join(map(str, row[side])) for side in ("source", "target")))


def _decide(row: dict):
    return decide(row["n"], tuple(row["source"]), tuple(row["target"]),
                  budget=Budget(time_cap=row["time_cap"]))


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_query_returns_within_its_time_cap_and_slack(row):
    t0 = time.monotonic()
    v = _decide(row)
    elapsed = time.monotonic() - t0
    assert v.kind == row["kind"]
    assert (v.search_bounds is not None) == (row["rung"] == "witness_search")
    assert elapsed < row["time_cap"] + row["slack_s"], elapsed


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_query_peak_memory_stays_under_its_bound(row):
    tracemalloc.start()
    try:
        v = _decide(row)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert v.kind == row["kind"]
    assert peak < row["peak_mib"] * 2**20, peak
