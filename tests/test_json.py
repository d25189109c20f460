"""Golden JSON of the evidence types.

Pins the exact ``to_json()`` dict of one instance of every evidence
record, and of a YES, a NO and an UNKNOWN verdict, so that a change in
how evidence serializes shows here before it shows in CLI output, stored
records or certificate replay.
"""

import json

import pytest

from hsembed import (
    Budget,
    FormalCurveSpec,
    OrbitClass,
    decide,
    homology_reduce,
    leqq,
    leqq_decomposition,
    witness_search,
)

BOUNDS = {
    "sum_source": 4,
    "sum_target": 6,
    "l_range": [4, 6],
    "l_range_empty": False,
    "q_range_finite": True,
    "q_cap_applied": None,
    "cells_total": 4,
    "calls_used": 4,
    "exhausted": True,
}
MOVES = {
    "source": [3, 2, 2],
    "target": [7, 2],
    "moves": [
        {"op": "duplicate", "i": 1},
        {"op": "combine", "i": 0, "j": 1},
        {"op": "combine", "i": 0, "j": 1},
    ],
}


def _unit_end(v):
    return OrbitClass(2, (1, 1, 1), v, 0)


CASES = [
    (
        "budget",
        lambda: Budget(q_cap=3, call_cap=500, time_cap=2.5),
        {"q_cap": 3, "call_cap": 500, "time_cap": 2.5},
    ),
    (
        "certificate",
        lambda: decide(2, (2, 2), (3, 3)).certificate,
        {
            "rule": "FN_ALMOST_SYMPLECTIC",
            "data": {
                "n": 2, "source": [2, 2], "target": [3, 3], "mode": "liouville",
                "f_source": 2, "f_target": 1,
            },
            "search_bounds": None,
        },
    ),
    (
        "feasibility_witness",
        lambda: witness_search(2, (2, 2), (4, 3)).witness,
        {
            "n": 2,
            "source": [2, 2],
            "target": [4, 3],
            "l": 5,
            "q": 2,
            "xs": [[4, 0], [0, 1], [0, 1], [0, 1], [0, 1]],
            "ys": [[0, 3], [1, 0], [1, 0], [1, 0], [1, 0]],
            "matrix": [[3, 1], [3, 0]],
        },
    ),
    ("move_sequence", lambda: leqq((3, 2, 2), (7, 2))[1], MOVES),
    (
        "decomposition_witness",
        lambda: leqq_decomposition((3, 2, 2), (7, 2)),
        {"source": [3, 2, 2], "target": [7, 2], "rows": [[1, 0], [0, 1], [2, 0]]},
    ),
    (
        "homology_element",
        lambda: homology_reduce((5, -2, 7), (4, 3, 2)),
        {"coordinates": [-7, -11, 1], "modulus": [4, 3, 2]},
    ),
    (
        "formal_curve_spec",
        lambda: FormalCurveSpec(
            2, (1, 1, 1), tuple(map(_unit_end, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])), 1, 1
        ),
        {
            "n": 2,
            "degrees": [1, 1, 1],
            "q": 1,
            "tangency_order": 1,
            "positive_ends": [
                {"v": v, "delta": 0, "morse_index": 1, "action": 1, "cz": -2, "homology": h}
                for v, h in [
                    ([1, 0, 0], [1, 0, 0]), ([0, 1, 0], [0, 1, 0]), ([0, 0, 1], [-1, -1, 0]),
                ]
            ],
        },
    ),
    ("verdict_yes", lambda: decide(2, (3, 2, 2), (7, 2)), {"kind": "YES", "witness": MOVES}),
    (
        "verdict_no",
        lambda: decide(1, (2, 2), (3, 3)),
        {
            "kind": "NO",
            "certificate": {
                "rule": "WITNESS_INFEASIBLE",
                "data": {
                    "n": 1, "source": [2, 2], "target": [3, 3], "mode": "liouville",
                    "budget": {"q_cap": 4, "call_cap": 1000000, "time_cap": None},
                },
                "search_bounds": BOUNDS,
            },
            "search_bounds": BOUNDS,
        },
    ),
    (
        "verdict_unknown",
        lambda: decide(2, (3, 3), (7, 7), budget=Budget(call_cap=10)),
        {
            "kind": "UNKNOWN",
            "reason": "witness search exceeded its budget before settling feasibility",
            "search_bounds": {
                "sum_source": 6,
                "sum_target": 14,
                "l_range": [6, 14],
                "l_range_empty": False,
                "q_range_finite": True,
                "q_cap_applied": None,
                "cells_total": 18,
                "calls_used": 11,
                "exhausted": False,
            },
        },
    ),
]


@pytest.mark.parametrize("make, expected", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_golden_to_json(make, expected):
    got = make().to_json()
    # == tells a list from a tuple; the dump is what a stored record holds
    assert got == expected
    assert json.dumps(got, sort_keys=True) == json.dumps(expected, sort_keys=True)
