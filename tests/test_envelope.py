"""The robustness envelope: queries that once ran away, held to a time bound.

Each row of ``envelope.json`` is a query (``n``, ``source``, ``target``), a
``time_cap`` and a ``slack_s``, the verdict ``kind`` expected, and the
``rung`` of the decision ladder expected to answer it.  Under
``Budget(time_cap=time_cap)``, ``decide`` must return that kind within
``time_cap + slack_s`` seconds of wall time.  A rung of ``witness_search``
means the verdict carries the search's bounds.  A row joins the file once
a change makes it hold; the slack covers the order rung, which reads no
clock, and the return after the search's deadline passes.
"""

import json
import time
from pathlib import Path

import pytest

from hsembed import Budget, decide

ROWS = json.loads((Path(__file__).resolve().parent / "envelope.json").read_text())


def _id(row: dict) -> str:
    return "{}->{}".format(*(",".join(map(str, row[side])) for side in ("source", "target")))


@pytest.mark.parametrize("row", ROWS, ids=_id)
def test_query_returns_within_its_time_cap_and_slack(row):
    t0 = time.monotonic()
    v = decide(row["n"], tuple(row["source"]), tuple(row["target"]),
               budget=Budget(time_cap=row["time_cap"]))
    elapsed = time.monotonic() - t0
    assert v.kind == row["kind"]
    assert (v.search_bounds is not None) == (row["rung"] == "witness_search")
    assert elapsed < row["time_cap"] + row["slack_s"], elapsed
