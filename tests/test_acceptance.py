"""End-to-end acceptance checks.

Each test covers one acceptance criterion, enforces its timing budget, and
prints a single summary line (visible with ``pytest -s`` or on failure).
Run the whole gate with::

    pytest tests/test_acceptance.py -v -s
"""

import itertools
import json
import random
import subprocess
import sys
import time

from hsembed import (
    Budget,
    DegreeTuple,
    GCD_SINGLE,
    LIOUVILLE,
    NO,
    OrbitClass,
    SUM_DROP,
    UNKNOWN,
    WITNESS_INFEASIBLE,
    YES,
    FormalCurveSpec,
    IntMatrix,
    curve_index,
    cz_index,
    decide,
    enumerate_vector_partitions,
    f_invariant,
    fredholm_index,
    gw_anchor,
    leqq,
    leqq_bfs,
    leqq_decomposition,
    orbit_spectrum,
    solve_diophantine,
    witness_search,
)

from oracles import canonical_tuples, smallest_multiplier, solve_system_boxed


def report(criterion, detail, elapsed, budget):
    assert elapsed < budget, f"criterion {criterion} took {elapsed:.2f}s (budget {budget}s)"
    print(f"criterion {criterion}: PASS — {detail} ({elapsed:.2f}s)")


def test_criterion_1_order_basics():
    t0 = time.monotonic()
    ok, moves = leqq((3, 2, 2), (7, 2))
    assert ok
    assert len(moves) == 3
    assert moves.is_valid()
    assert moves.replay() == (7, 2)
    ok2, moves2 = leqq((3, 2, 2), (10, 1))
    assert not ok2 and moves2 is None
    report(1, "constructive order decides (3,2,2) vs (7,2) and (10,1)", time.monotonic() - t0, 0.1)


def test_criterion_2_hyperplane_chains():
    t0 = time.monotonic()
    checked = 0
    for k, kp in itertools.combinations(range(3, 7), 2):
        # dropping components is impossible ...
        down = decide(2, (1,) * kp, (1,) * k)
        assert down.kind == NO
        assert down.certificate.rule in (SUM_DROP, WITNESS_INFEASIBLE)
        if down.certificate.rule == SUM_DROP:
            assert down.certificate.data["l_range_empty"] is True
        # ... while adding components is pure duplication
        up = decide(2, (1,) * k, (1,) * kp)
        assert up.kind == YES
        assert up.witness.is_valid()
        assert len(up.witness.moves) == kp - k
        assert all(m.op == "duplicate" for m in up.witness.moves)
        checked += 1
    report(2, f"{checked} hyperplane-arrangement pairs in both directions", time.monotonic() - t0, 1.0)


def test_criterion_3_window_classification():
    t0 = time.monotonic()
    pairs = 0
    for n in (1, 2, 3):
        tuples = canonical_tuples(7, n + 1)
        for src, dst in itertools.product(tuples, repeat=2):
            if dst.total() >= 2 * src.total() - n - 1:
                continue
            pairs += 1
            ok = leqq(src, dst)[0]
            verdict = decide(n, src, dst)
            assert verdict.kind != UNKNOWN, (n, src, dst)
            assert (verdict.kind == YES) == ok, (n, src, dst, verdict.kind)
            # the certified search must agree with the order on its own
            out = witness_search(n, src, dst)
            assert out.status in ("FEASIBLE", "INFEASIBLE"), (n, src, dst, out.status)
            assert (out.status == "FEASIBLE") == ok, (n, src, dst, out.status)
    report(3, f"{pairs} in-window pairs: verdicts match the order, search agrees", time.monotonic() - t0, 60.0)


def test_criterion_4_single_component_sources():
    t0 = time.monotonic()
    pairs = 0
    for n in (2, 3):
        targets = canonical_tuples(7, n + 1)
        for d1 in range(n + 1, 7):
            for dst in targets:
                pairs += 1
                verdict = decide(n, (d1,), dst)
                expected = YES if dst.gcd() % d1 == 0 else NO
                assert verdict.kind == expected, (n, d1, dst, verdict.kind)
    report(4, f"{pairs} single-component queries resolve by gcd divisibility", time.monotonic() - t0, 30.0)


def _unit_end(n, d, i, delta):
    v = tuple(1 if j == i else 0 for j in range(len(d)))
    return OrbitClass(n, d, v, delta)


def test_criterion_5_index_inequalities():
    t0 = time.monotonic()
    # (a) the baseline curve: one simple end per degree unit, full tangency
    checked_a = 0
    for n in (1, 2, 3, 4):
        for d in canonical_tuples(8, n + 1):
            ends = tuple(
                _unit_end(n, d, i, n - 1)
                for i, di in enumerate(d)
                for _ in range(di)
            )
            spec = FormalCurveSpec(
                n, d, ends, q=1, tangency_order=n - 1 if n >= 2 else None
            )
            assert curve_index(spec) == 0, (n, d)
            checked_a += 1

    # (b) too few ends force negative index; enumerate then sweep closed form
    def max_index(n, d, l, q):
        # delta = n-1 maximizes each end's contribution
        return 2 * l - 2 * n - 2 - 2 * q * (d.total() - n - 1)

    checked_b = 0
    for n in (2, 3):
        for d in canonical_tuples(6, n + 1):
            for q in (1, 2):
                total = tuple(q * di for di in d)
                for l in range(1, d.total()):
                    if sum(total) < l:
                        continue
                    for multiset in enumerate_vector_partitions(total, l, min(n, len(d))):
                        ends = tuple(
                            OrbitClass(n, d, v, n - 1) for v in multiset
                        )
                        spec = FormalCurveSpec(n, d, ends, q=q, tangency_order=n - 1)
                        got = curve_index(spec)
                        assert got == max_index(n, d, l, q), (n, d, l, q, multiset)
                        assert got < 0, (n, d, l, q, multiset)
                        checked_b += 1
    # closed-form sweep: negative for every l < sum(d), monotone in q
    for n in (1, 2, 3, 4, 5):
        for sd in range(n + 1, 30):
            d = DegreeTuple((sd,))
            for l in range(1, sd):
                assert max_index(n, d, l, 1) == 2 * l - 2 * sd < 0
                for q in range(1, 6):
                    assert max_index(n, d, l, q + 1) <= max_index(n, d, l, q)

    # (c) symplectization curves over a bottom orbit: index at least 2l - 2
    checked_c = 0
    for n in (2, 3):
        for d in canonical_tuples(6, 1):
            k = len(d)
            for l in range(1, d.total() + 1):
                for combo in itertools.combinations_with_replacement(range(k), l):
                    v = [0] * k
                    for i in combo:
                        v[i] += 1
                    if any(a > b for a, b in zip(v, d)):
                        continue
                    r = sum(1 for a in v if a)
                    if r > n:
                        continue
                    cz_pos = (n - 3,) * l
                    for delta in range(r - n, n):
                        cz_bottom = delta - 2 * l
                        got = fredholm_index(n, cz_pos, (cz_bottom,))
                        assert got >= 2 * l - 2, (n, d, v, delta)
                        assert (got == 2 * l - 2) == (delta == n - 1), (n, d, v, delta)
                        checked_c += 1
    report(
        5,
        f"index identities: {checked_a} baseline, {checked_b} short, {checked_c} cylinder-bound cases",
        time.monotonic() - t0,
        30.0,
    )


def test_criterion_6_cz_normalizations():
    t0 = time.monotonic()
    for n in range(1, 7):
        assert cz_index(n, (1,), 0) == n - 3
        assert cz_index(n, (0, 1, 0), 0) == n - 3
    # dimension-2 families out of the computed spectrum, small supports
    classes = orbit_spectrum(2, (2, 1), 6)
    assert classes, "spectrum unexpectedly empty"
    seen = set()
    for oc in classes:
        assert oc.support_size in (1, 2)
        total = sum(oc.v)
        if oc.delta == 1:
            assert oc.cz == 1 - 2 * total, oc
        elif oc.delta == 0:
            assert oc.cz == -2 * total, oc
        else:
            assert oc.cz == -1 - 2 * total, oc
        seen.add((oc.delta, oc.support_size))
    assert {(1, 1), (0, 1), (1, 2), (0, 2)} <= seen
    report(6, "degree-one anchors and both dimension-2 index families", time.monotonic() - t0, 10.0)


def test_criterion_7_dual_route_agreement():
    t0 = time.monotonic()
    tuples = canonical_tuples(8)
    pairs = mismatches = 0
    for src, dst in itertools.product(tuples, repeat=2):
        pairs += 1
        via_bfs = leqq_bfs(src, dst)
        via_dec = leqq_decomposition(src, dst)
        if (via_bfs is None) != (via_dec is None):
            mismatches += 1
        if via_bfs is not None:
            assert via_bfs.is_valid()
        if via_dec is not None:
            assert via_dec.is_valid()
    assert mismatches == 0

    # linear solver vs boxed brute force
    for a in range(-6, 7):
        for b in range(-6, 7):
            got = solve_diophantine(IntMatrix([[a]]), (b,))
            brute = solve_system_boxed([[a]], (b,), box=8)
            assert (got is not None) == (brute is not None), (a, b)
    rng = random.Random(20260817)
    solver_checked = 0
    for _ in range(120):
        nrows, ncols = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
        rhs = tuple(rng.randint(-5, 5) for _ in range(nrows))
        got = solve_diophantine(IntMatrix(rows), rhs)
        if got is not None:
            x0, _ = got
            assert all(
                sum(c * x for c, x in zip(row, x0)) == t for row, t in zip(rows, rhs)
            )
        else:
            assert solve_system_boxed(rows, rhs, box=8) is None, (rows, rhs)
        solver_checked += 1
    report(
        7,
        f"{pairs} order pairs on both routes, {solver_checked + 169} solver instances",
        time.monotonic() - t0,
        60.0,
    )


def test_criterion_8_numeric_invariants():
    t0 = time.monotonic()
    assert f_invariant(2, (3,)) == 1
    assert f_invariant(2, (4, 2)) == 2
    checked = 0
    for n in range(1, 6):
        for d in canonical_tuples(8):
            assert f_invariant(n, d) == smallest_multiplier(d, n), (n, d)
            checked += 1
    import math

    for n in range(1, 9):
        assert gw_anchor(n) == math.factorial(n - 1)
    report(8, f"{checked} divisibility invariants against the scan oracle", time.monotonic() - t0, 10.0)


def test_criterion_9_cli_determinism():
    t0 = time.monotonic()
    base = [sys.executable, "-m", "hsembed.cli"]
    commands = [
        ["decide", "--n", "2", "--source", "2,2", "--target", "3,3"],
        ["decide", "--n", "2", "--source", "3", "--target", "4,2"],
        ["leqq", "--source", "3,2,2", "--target", "7,2"],
        ["spectrum", "--n", "2", "--degrees", "2,1", "--action-cap", "4"],
        ["poset", "--n", "2", "--max-sum", "4"],
    ]
    for args in commands:
        first = subprocess.run(base + args, capture_output=True)
        second = subprocess.run(base + args, capture_output=True)
        assert first.stdout == second.stdout, args
        assert first.returncode == second.returncode, args
    one = subprocess.run(
        base + ["decide", "--n", "2", "--source", "2,2", "--target", "3,3"],
        capture_output=True,
        text=True,
    )
    four = subprocess.run(
        base
        + ["decide", "--n", "2", "--source", "2,2", "--target", "3,3", "--threads", "4"],
        capture_output=True,
        text=True,
    )
    assert (
        json.loads(one.stdout)["verdict"]["kind"]
        == json.loads(four.stdout)["verdict"]["kind"]
    )
    assert one.returncode == four.returncode
    report(9, f"{len(commands)} commands byte-stable, thread count preserves verdicts", time.monotonic() - t0, 30.0)
