"""Quick obstruction rules, the certified search, and the decide ladder."""

import collections
import functools
import gc
import hashlib
import inspect
import itertools
import json
import math
import time
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsembed import (
    Budget,
    Certificate,
    DEGREE_HYP_NOT_LEQQ,
    DecompositionWitness,
    DegreeTuple,
    FN_ALMOST_SYMPLECTIC,
    FeasibilityWitness,
    GCD_SINGLE,
    HYPERPLANE_TARGET,
    HypothesisViolated,
    LIOUVILLE,
    NO,
    SUM_DROP,
    SYMPLECTIC,
    UNKNOWN,
    Verdict,
    WEINSTEIN,
    WITNESS_INFEASIBLE,
    YES,
    check_feasibility_witness,
    decide,
    enumerate_vector_partitions,
    hom_exists,
    homology_reduce,
    leqq,
    leqq_decomposition,
    orbit_spectrum,
    quick_checks,
    replay_certificate,
    verify_verdict,
    witness_search,
)
from hsembed.order import _column_fillings
from hsembed.search import _assignment_blocks, _completion_node

from oracles import _assignments, canonical_tuples, partitions_of_vector, ranked_split_partitions

# the benchmark's query sets: exhaustive NO searches, and searches capped at
# CAPPED_CALL_CAP calls that end UNKNOWN
SEARCH_QUERIES = (
    (2, (3, 3), (7, 7)),
    (2, (3, 1), (2, 1, 1, 1, 1)),
    (2, (3, 1), (2, 2, 1, 1)),
    (2, (3, 1), (2, 2, 2)),
    (2, (3, 3), (5, 5)),
)
CAPPED_QUERIES = ((3, (4, 3), (9, 9)), (3, (4, 4), (9, 8)))
CAPPED_CALL_CAP = 2000

# those queries with their budgets, then two that the search finds FEASIBLE
BUDGETED_QUERIES = (
    *((query, None) for query in SEARCH_QUERIES),
    *((query, Budget(call_cap=CAPPED_CALL_CAP)) for query in CAPPED_QUERIES),
    ((3, (3, 2), (6, 1)), None),
    ((2, (2, 2), (4, 3)), None),
)

# (n, source, target, calls) of every FEASIBLE search with more than one
# call among the tuples with sum <= 11 and at most 3 components, outside the
# window (sum(target) >= 2 * sum(source) - n - 1)
REWALKED_QUERIES = (
    (2, (4, 2), (9,), 24), (2, (4, 2), (8, 1), 41), (2, (4, 2), (11,), 77),
    (2, (4, 2), (9, 1), 89), (3, (4, 2), (9,), 91), (3, (4, 2), (7, 1), 93),
    (2, (4, 2), (10, 1), 172), (2, (4, 2), (8, 1, 1), 179), (3, (4, 2), (8, 1), 233),
    (2, (4, 2), (9, 2), 266), (2, (4, 2), (8, 3), 297), (3, (4, 2), (11,), 320),
    (3, (3, 3), (10,), 324), (3, (4, 2), (7, 2), 349), (2, (4, 2), (9, 1, 1), 377),
    (3, (4, 2), (9, 1), 491), (3, (4, 2), (7, 1, 1), 525), (3, (3, 3), (11,), 534),
    (2, (4, 2), (8, 2, 1), 535), (3, (3, 3), (9, 1), 765), (3, (4, 2), (10, 1), 871),
    (3, (4, 2), (7, 3), 977), (3, (4, 2), (8, 1, 1), 1173), (3, (3, 3), (10, 1), 1382),
    (3, (3, 2), (9, 1), 1465), (3, (4, 2), (9, 2), 1505), (3, (4, 2), (7, 2, 1), 1729),
    (3, (4, 2), (8, 3), 1997), (3, (3, 2), (6, 1), 2185), (3, (4, 2), (9, 1, 1), 2227),
    (3, (4, 2), (7, 4), 2277), (3, (3, 2), (10, 1), 2348), (3, (3, 3), (9, 2), 2369),
    (3, (3, 3), (9, 1, 1), 3361), (3, (4, 2), (8, 2, 1), 3553), (3, (4, 2), (7, 3, 1), 4329),
)

# the 30 tuples with sum <= 7 and at most 3 components
SMALL_TUPLES = [d for d in canonical_tuples(7) if len(d) <= 3]


@functools.cache
def _search_corpus():
    """(n, source, target, outcome) of every call_cap=3000 search over
    SMALL_TUPLES for n = 1..3 whose degree sums both reach n + 1."""
    return [
        (n, src, dst, witness_search(n, src, dst, Budget(call_cap=3000)))
        for n in (1, 2, 3)
        for src, dst in itertools.product(SMALL_TUPLES, repeat=2)
        if src.total() >= n + 1 and dst.total() >= n + 1
    ]


def _compositions(total):
    """Every tuple of positive ints with sum total."""
    if not total:
        yield ()
    for first in range(1, total + 1):
        for rest in _compositions(total - first):
            yield (first, *rest)


def _oracle_parts_cap(target):
    # largest part count the brute-force oracle handles quickly for target
    cells = math.prod(t + 1 for t in target) - 1
    top = 1
    while top <= sum(target) and math.comb(cells + top, top + 1) <= 20000:
        top += 1
    return top


class TestVectorPartitions:
    def test_frozen_small_case(self):
        got = list(enumerate_vector_partitions((2, 1), 2, 2))
        assert got == [
            ((2, 0), (0, 1)),
            ((1, 1), (1, 0)),
        ]

    def test_matches_brute_force(self):
        cases = [
            ((2, 1), 2, 2),
            ((2, 2), 3, 1),
            ((3,), 2, 1),
            ((1, 1, 1), 3, 2),
            ((2, 1, 1), 2, 3),
            ((2, 1), 1, 1),
            ((2, 1), 1, 2),
            ((2, 2, 1, 1), 3, 4),
            ((2, 1, 1, 1, 1), 3, 5),
        ]
        for target, parts, max_support in cases:
            got = list(enumerate_vector_partitions(target, parts, max_support))
            assert got == partitions_of_vector(target, parts, max_support), (
                target,
                parts,
                max_support,
            )

    def test_one_coordinate_gives_the_integer_partitions(self):
        # one coordinate into k parts, over every k, lists each integer partition once
        for total in range(1, 16):
            got = [
                DegreeTuple(e for (e,) in parts)
                for k in range(1, total + 1)
                for parts in enumerate_vector_partitions((total,), k, 1)
            ]
            assert sorted(got) == sorted(canonical_tuples(total, total)), total

    def test_no_duplicates(self):
        got = list(enumerate_vector_partitions((2, 2), 3, 2))
        assert len(got) == len(set(got))

    def test_support_constraint(self):
        for multiset in enumerate_vector_partitions((2, 2, 2), 3, 1):
            for vec in multiset:
                assert sum(1 for c in vec if c) <= 1

    def test_empty_when_too_many_parts(self):
        assert list(enumerate_vector_partitions((1, 1), 3, 2)) == []

    @given(st.one_of(
        st.lists(st.integers(0, 4), min_size=1, max_size=3),
        st.lists(st.integers(0, 2), min_size=4, max_size=5),
    ).filter(any).flatmap(
        lambda target: st.tuples(
            st.just(tuple(target)),
            st.integers(1, _oracle_parts_cap(target)),
            st.integers(1, len(target)),
        )
    ))
    @settings(max_examples=60, deadline=None)
    def test_order_matches_brute_force(self, case):
        target, parts, max_support = case
        got = list(enumerate_vector_partitions(target, parts, max_support))
        assert got == partitions_of_vector(target, parts, max_support)

    @pytest.mark.parametrize(
        "target, counts",
        [
            (
                (9, 9),
                {7: 4253, 8: 3327, 9: 2243, 10: 1352, 11: 733, 12: 364,
                 13: 164, 14: 70, 15: 27, 16: 10, 17: 3, 18: 1},
            ),
            (
                (7, 7),
                {6: 629, 7: 461, 8: 284, 9: 148, 10: 68, 11: 27, 12: 10,
                 13: 3, 14: 1},
            ),
        ],
    )
    def test_frozen_counts_per_part_count(self, target, counts):
        got = {
            l: sum(1 for _ in enumerate_vector_partitions(target, l, 2))
            for l in counts
        }
        assert got == counts

    def test_frozen_sequence_digest(self):
        got = list(enumerate_vector_partitions((8, 6), 10, 2))
        assert len(got) == 67
        assert hashlib.sha256(repr(got).encode()).hexdigest() == (
            "6110c46ad14c535fefc24308640f081549ebab238c6103c766bfc6b4a6873474"
        )

    def test_matches_reference_on_the_benchmark_searches(self, monkeypatch):
        import hsembed.engine as engine

        calls = set()

        def recording(target, parts, max_support, *args, **kwargs):
            calls.add((tuple(target), parts, max_support))
            return enumerate_vector_partitions(target, parts, max_support, *args, **kwargs)

        monkeypatch.setattr(engine, "enumerate_vector_partitions", recording)
        for n, src, dst in SEARCH_QUERIES:
            witness_search(n, src, dst)
        for n, src, dst in CAPPED_QUERIES:
            witness_search(n, src, dst, Budget(call_cap=CAPPED_CALL_CAP))
        assert len(calls) == 39  # of the 42 + 8 calls the searches make
        for call in sorted(calls):
            got = list(enumerate_vector_partitions(*call))
            assert got == list(ranked_split_partitions(*call)), call

    @pytest.mark.parametrize(
        "target, parts, max_support, count",
        [((12, 12), 9, 2, 56757), ((6, 6, 6), 8, 2, 40242)],
    )
    def test_matches_reference_on_large_cells(self, target, parts, max_support, count):
        got = list(enumerate_vector_partitions(target, parts, max_support))
        assert len(got) == count
        assert got == list(ranked_split_partitions(target, parts, max_support))

    def test_lazy_on_a_cell_too_large_to_list(self):
        got = enumerate_vector_partitions((60, 60), 40, 2)
        assert inspect.isgenerator(got)
        assert list(itertools.islice(got, 3)) == list(
            itertools.islice(ranked_split_partitions((60, 60), 40, 2), 3)
        )

    @pytest.mark.parametrize(
        "target, parts, max_support",
        [
            ((2.7, 1), 2, 2),
            ((2.0, 1), 2, 2),
            (("2", 1), 2, 2),
            ((True, 1), 2, 2),
            ((2, 1), True, 2),
            ((2, 1), 2.0, 2),
            ((2, 1), 2, True),
            ((2, 1), 2, 1.5),
            ((), 1, 1),
            ((0, 0), 1, 1),
            ((2, -1), 1, 2),
            ((2, 1), 0, 2),
            ((2, 1), 2, 0),
        ],
    )
    def test_rejects_bad_arguments(self, target, parts, max_support):
        with pytest.raises(ValueError):
            enumerate_vector_partitions(target, parts, max_support)

    @pytest.mark.parametrize("max_classes", [0, True, 1.0])
    def test_rejects_a_bad_class_bound(self, max_classes):
        with pytest.raises(ValueError, match="max_classes"):
            enumerate_vector_partitions((2, 1), 2, 2, max_classes=max_classes)

    def test_class_bound_filters_the_unbounded_sequence(self):
        # every bound from 1 to the part count, on every small target: a bound
        # on distinct parts filters the unbounded sequence as the same bound on
        # the target's homology classes would, which the search relies on
        targets = [
            *((t,) for t in range(1, 11)),
            *itertools.product(range(1, 6), repeat=2),
            *itertools.product(range(1, 4), repeat=3),
        ]
        cases = 0
        for target in targets:
            degrees = DegreeTuple(target)

            def class_of(part):
                return homology_reduce(part, degrees).coordinates

            for parts, max_support in itertools.product(
                range(1, sum(target) + 1), range(1, len(target) + 1)
            ):
                full = list(enumerate_vector_partitions(target, parts, max_support))
                classes = [len(set(map(class_of, p))) for p in full]
                for bound in range(1, parts + 1):
                    got = enumerate_vector_partitions(target, parts, max_support, max_classes=bound)
                    expected = [p for p, c in zip(full, classes) if c <= bound]
                    assert list(got) == expected, (target, parts, max_support, bound)
                    cases += 1
        assert cases == 3152

    @given(st.lists(st.integers(0, 4), min_size=1, max_size=3).filter(any).flatmap(
        lambda target: st.tuples(
            st.just(tuple(target)),
            st.integers(1, sum(target) + 1),
            st.integers(1, len(target)),
            st.integers(1, sum(target) + 1),
        )
    ))
    @settings(max_examples=100, deadline=None)
    def test_class_bound_matches_a_filter(self, case):
        target, parts, max_support, bound = case
        got = enumerate_vector_partitions(target, parts, max_support, max_classes=bound)
        full = enumerate_vector_partitions(target, parts, max_support)
        assert list(got) == [p for p in full if len(set(p)) <= bound]

    @pytest.mark.parametrize("target, parts", [((9, 9), 7), ((9, 8), 8)])
    def test_frozen_counts_under_a_class_bound(self, target, parts):
        # the target lists of the benchmark's capped searches at l = sum(d)
        got = list(enumerate_vector_partitions(target, parts, 2, max_classes=2))
        assert len(got) == 4

    def test_no_two_parts_of_a_target_partition_share_a_class(self):
        # the search bounds the target's classes by distinct parts; on every
        # target with sum <= 12 and at most 6 components, the nonzero vectors
        # v <= d' with v != d', which hold every part of a partition of d'
        # into two or more parts, have pairwise distinct homology classes
        targets = [d for d in canonical_tuples(12) if len(d) <= 6]
        assert len(targets) == 226
        for d in targets:
            seen = {}
            for v in itertools.product(*(range(e + 1) for e in d)):
                if any(v) and v != tuple(d):
                    key = homology_reduce(v, d).coordinates
                    assert seen.setdefault(key, v) == v, (d, v, seen[key])

    @pytest.mark.parametrize("target, parts, count", [((3,) * 5, 9, 25), ((4, 4, 4, 4), 8, 109)])
    def test_listing_bounded_by_distinct_parts_stays_small(self, target, parts, count):
        # under a bound of 3 distinct parts the walk descends only while two
        # new parts are allowed and solves for the rest, so it lists few states
        tracemalloc.start()
        try:
            got = sum(1 for _ in enumerate_vector_partitions(
                target, parts, len(target), max_classes=3
            ))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == count
        assert peak < 4 * 2**20

    def test_each_tail_is_solved_once_per_listing(self, monkeypatch):
        # many prefixes reach one (part, what it leaves) pair: (9,9) into 10
        # parts with at most 6 distinct reaches 73 distinct tails 1,100 times,
        # and each is solved once and read back, in the unbounded order
        import hsembed.search as search

        solved = []
        real = search._tails

        def spying(*args):
            solved.append(args)
            return real(*args)

        monkeypatch.setattr(search, "_tails", spying)
        got = list(enumerate_vector_partitions((9, 9), 10, 2, max_classes=6))
        assert len(solved) == len(set(solved)) == 73
        full = enumerate_vector_partitions((9, 9), 10, 2)
        assert got == [p for p in full if len(set(p)) <= 6]

    def test_deadline_passed_raises_timeout(self):
        # the call itself stays lazy; the first step of the walk reads the clock
        got = enumerate_vector_partitions((2, 1), 2, 2, deadline=time.monotonic() - 1)
        with pytest.raises(TimeoutError):
            next(got)

    @pytest.mark.parametrize("target, max_support", [((10**6,), 1), ((3, 10**6), 2)])
    def test_clock_read_while_one_long_last_coordinate_is_listed(
        self, monkeypatch, target, max_support
    ):
        # the first state of each has about 10**6 fitting parts, whose list
        # alone peaks at hundreds of MB; a counter clock passes the deadline
        # on its third read, so the listing stops a few thousand parts in
        import hsembed.engine as engine

        ticks = itertools.count(1)
        monkeypatch.setattr(engine.time, "monotonic", lambda: next(ticks))
        tracemalloc.start()
        try:
            with pytest.raises(TimeoutError):
                list(enumerate_vector_partitions(target, 2, max_support, deadline=2))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 2**20


class TestQuickChecks:
    def test_fn_rule_all_modes(self):
        # F_2((4,2)) = 2 does not divide F_2((3,)) = 1
        for mode in (LIOUVILLE, WEINSTEIN, SYMPLECTIC):
            cert = quick_checks(2, (4, 2), (3,), mode)
            assert cert is not None and cert.rule == FN_ALMOST_SYMPLECTIC

    def test_sum_drop(self):
        cert = quick_checks(2, (1, 1, 1, 1), (1, 1, 1), LIOUVILLE)
        assert cert is not None and cert.rule == SUM_DROP
        assert cert.data["l_range_empty"] is True

    def test_hyperplane_target(self):
        cert = quick_checks(2, (2, 1), (1, 1, 1), LIOUVILLE)
        assert cert is not None and cert.rule == HYPERPLANE_TARGET

    def test_gcd_single(self):
        cert = quick_checks(2, (3,), (4, 2), LIOUVILLE)
        assert cert is not None and cert.rule == GCD_SINGLE

    def test_none_when_embeddable(self):
        tuples = canonical_tuples(6)
        for src, dst in itertools.product(tuples, repeat=2):
            if leqq(src, dst)[0]:
                assert quick_checks(2, src, dst, LIOUVILLE) is None, (src, dst)

    def test_replayable(self):
        # every closed-form rule, once as produced and once with one data
        # field changed: a replay re-derives the whole certificate
        for cert, rule, field in [
            (quick_checks(2, (4, 2), (3,), SYMPLECTIC), FN_ALMOST_SYMPLECTIC, "f_target"),
            (decide(2, (1, 1, 1, 1), (1, 1, 1)).certificate, SUM_DROP, "sum_target"),
            (decide(2, (2, 1), (1, 1, 1)).certificate, HYPERPLANE_TARGET, "source_all_ones"),
            (decide(2, (3,), (4, 2)).certificate, GCD_SINGLE, "divisor"),
            (decide(2, (3, 3), (5, 1)).certificate, DEGREE_HYP_NOT_LEQQ, "sum_target"),
            (decide(2, (4, 2), (5, 3), SYMPLECTIC).certificate, GCD_SINGLE, "divisor"),
        ]:
            assert cert is not None and cert.rule == rule
            assert replay_certificate(cert), cert
            value = cert.data[field]
            changed = not value if isinstance(value, bool) else value + 1
            tampered = Certificate(rule, {**cert.data, field: changed}, cert.search_bounds)
            assert not replay_certificate(tampered), tampered

    def test_replay_asks_the_order_only_for_the_window_rule(self, monkeypatch):
        # every closed-form certificate of every query with n = 1..3 and
        # sums <= 8 replays, and only the window rule's replay asks the
        # order; one data field changed still fails
        import hsembed.engine as engine

        tuples = canonical_tuples(8)
        orders = {pair: leqq_decomposition(*pair) for pair in itertools.product(tuples, repeat=2)}
        certs = [
            cert
            for n in (1, 2, 3)
            for (src, dst), z in orders.items()
            for mode in (LIOUVILLE, WEINSTEIN, SYMPLECTIC)
            for cert in engine._certificates(n, src, dst, mode, z is not None)
        ]
        asked = []

        def spying(d, dp):
            asked.append((d, dp))
            return orders[d, dp]

        monkeypatch.setattr(engine, "leqq_decomposition", spying)
        assert all(replay_certificate(cert) for cert in certs)
        assert asked == [
            (DegreeTuple(c.data["source"]), DegreeTuple(c.data["target"]))
            for c in certs
            if c.rule == DEGREE_HYP_NOT_LEQQ
        ]
        first = {}  # the first certificate of each rule and mode
        for cert in certs:
            first.setdefault((cert.rule, cert.data["mode"]), cert)
        assert len(first) == 12  # every rule in every mode it holds in
        for cert in first.values():
            field = list(cert.data)[4]  # the rule's first field after the query
            value = cert.data[field]
            changed = not value if isinstance(value, bool) else value + 1
            tampered = Certificate(cert.rule, {**cert.data, field: changed})
            assert not replay_certificate(tampered), tampered

    @pytest.mark.parametrize(
        "n, mode", [(2, "contact"), (0, LIOUVILLE), (2.0, LIOUVILLE), (True, LIOUVILLE)]
    )
    def test_rejects_what_decide_rejects(self, n, mode):
        with pytest.raises(ValueError):
            decide(n, (4, 2), (3,), mode)
        with pytest.raises(ValueError):
            quick_checks(n, (4, 2), (3,), mode)

    def test_symplectic_mode_has_only_the_threshold_rule(self):
        # the symplectic gcd rule is decide's rung, not a quick check
        assert quick_checks(2, (4, 2), (5, 3), SYMPLECTIC).rule == FN_ALMOST_SYMPLECTIC
        assert decide(1, (2,), (3,), SYMPLECTIC).certificate.rule == GCD_SINGLE
        assert quick_checks(1, (2,), (3,), SYMPLECTIC) is None
        for src, dst in itertools.product(canonical_tuples(5), repeat=2):
            cert = quick_checks(2, src, dst, SYMPLECTIC)
            assert cert is None or cert.rule == FN_ALMOST_SYMPLECTIC, (src, dst)


class TestWitnessSearch:
    def test_identity_feasible(self):
        out = witness_search(2, (1, 1, 1), (1, 1, 1))
        assert out.status == "FEASIBLE"
        assert out.witness.l == 3 and out.witness.q == 1
        assert check_feasibility_witness(out.witness) == []

    def test_leqq_pair_feasible(self):
        out = witness_search(2, (2, 1), (2, 2))
        assert out.status == "FEASIBLE"
        assert check_feasibility_witness(out.witness) == []

    def test_engine_names_the_tracer_wraps(self, monkeypatch):
        # f_invariant is defined once, in model; the engine's hom_exists is a
        # forwarder a tracer can wrap, and a FEASIBLE search calls it once
        import hsembed.engine as engine
        import hsembed.indices as indices
        import hsembed.model as model

        assert indices.f_invariant is model.f_invariant is engine.f_invariant
        calls = []
        forward = engine.hom_exists

        def counting(*args):
            calls.append(args)
            return forward(*args)

        monkeypatch.setattr(engine, "hom_exists", counting)
        out = witness_search(2, (2, 2), (4, 3))
        assert out.status == "FEASIBLE"
        assert len(calls) == 1
        assert check_feasibility_witness(out.witness) == []

    def test_window_infeasible(self):
        out = witness_search(2, (3, 2), (4, 1))
        assert out.status == "INFEASIBLE"
        assert out.bounds["exhausted"] is True

    def test_sum_at_threshold_never_infeasible(self):
        # component sum equal to n+1 leaves the q range open-ended
        out = witness_search(2, (3,), (4, 2))
        assert out.status == "BUDGET_EXCEEDED"
        assert out.bounds["q_range_finite"] is False
        assert out.bounds["q_cap_applied"] == 4

    def test_empty_l_range(self):
        out = witness_search(2, (2, 2), (3,))
        assert out.status == "INFEASIBLE"
        assert out.bounds["l_range_empty"] is True

    def test_hypothesis_guard(self):
        with pytest.raises(HypothesisViolated):
            witness_search(2, (2,), (4, 2))

    @pytest.mark.parametrize("n", [True, 0, 2.0])
    def test_rejects_bad_dimension(self, n):
        with pytest.raises(ValueError, match="complex dimension"):
            witness_search(n, (3,), (4,))

    @pytest.mark.parametrize(
        "field, value",
        [("q_cap", True), ("call_cap", True), ("time_cap", True),
         ("q_cap", 0), ("call_cap", 1.5), ("time_cap", 0),
         ("time_cap", "5"), ("time_cap", [1]), ("time_cap", float("inf")),
         pytest.param("time_cap", 10**400, id="time_cap-10**400")],
    )
    def test_budget_rejects_bad_caps(self, field, value):
        with pytest.raises(ValueError, match=field):
            Budget(**{field: value})

    def test_call_cap_respected(self):
        out = witness_search(2, (3,), (4, 2), Budget(q_cap=4, call_cap=10))
        assert out.status == "BUDGET_EXCEEDED"
        assert out.calls_used == 10 + 1  # the call past the cap stops the search

    @pytest.mark.parametrize(
        "n, src, dst, budget, status, calls",
        [
            (2, (3, 3), (5, 5), None, "INFEASIBLE", 122),
            (2, (3, 1), (2, 2, 2), None, "INFEASIBLE", 768),
            (3, (4, 4), (9, 8), Budget(call_cap=2000), "BUDGET_EXCEEDED", 2001),
            (3, (4, 3), (9, 9), Budget(call_cap=2000), "BUDGET_EXCEEDED", 2001),
            (2, (3, 3), (7, 7), Budget(call_cap=5000), "BUDGET_EXCEEDED", 5001),
            (2, (3, 1), (2, 2, 2), Budget(call_cap=500), "BUDGET_EXCEEDED", 501),
        ],
    )
    def test_pinned_call_counts(self, n, src, dst, budget, status, calls):
        # every assignment tried is one call, repeated class pairs included;
        # call_cap bounds the running total of the whole search, not of a cell
        out = witness_search(n, src, dst, budget)
        assert (out.status, out.calls_used) == (status, calls)

    @pytest.mark.parametrize(
        "n, src, dst, calls, caps",
        [
            (2, (3, 3), (5, 5), 122, range(1, 123)),
            (2, (3, 1), (2, 2, 2), 768, [*range(1, 51), *range(60, 768, 10), 767, 768]),
        ],
    )
    def test_cap_point_of_an_infeasible_search(self, n, src, dst, calls, caps):
        # assignments skipped behind an infeasible prefix still count one call
        # each, so the search stops at the same call under every cap; a small
        # cap can fall inside a skipped block, and the search stops there
        for cap in caps:
            out = witness_search(n, src, dst, Budget(call_cap=cap))
            expected = ("INFEASIBLE", calls) if cap == calls else ("BUDGET_EXCEEDED", cap + 1)
            assert (out.status, out.calls_used) == expected, cap

    def test_cap_point_of_a_feasible_search(self):
        full = witness_search(3, (3, 2), (6, 1))
        assert (full.status, full.calls_used) == ("FEASIBLE", 2185)
        short = witness_search(3, (3, 2), (6, 1), Budget(call_cap=2184))
        assert (short.status, short.calls_used) == ("BUDGET_EXCEEDED", 2185)
        exact = witness_search(3, (3, 2), (6, 1), Budget(call_cap=2185))
        assert exact.witness.to_json() == full.witness.to_json()

    @pytest.mark.parametrize("n, src, dst, calls", REWALKED_QUERIES)
    def test_cap_point_around_each_witness(self, n, src, dst, calls):
        # a FEASIBLE search counts its calls in the lexicographic walk of the
        # one pair that holds a feasible assignment, after every pair before
        # it counted all its assignments at once: one cap below the count
        # stops the search at that very call, and a cap at it finds the
        # same witness
        full = witness_search(n, src, dst)
        assert (full.status, full.calls_used) == ("FEASIBLE", calls)
        short = witness_search(n, src, dst, Budget(call_cap=calls - 1))
        assert (short.status, short.calls_used) == ("BUDGET_EXCEEDED", calls)
        exact = witness_search(n, src, dst, Budget(call_cap=calls))
        assert exact.witness.to_json() == full.witness.to_json()

    def test_only_the_witness_pair_is_walked_in_lexicographic_order(self, monkeypatch):
        # every pair of partitions is walked with the source groups largest
        # first, ties in class-key order, except that a FEASIBLE search walks
        # the pair of its witness once more, last, in class-key order; on
        # each query the two orders differ for some pair walked
        import hsembed.search as search

        walks = []
        real = search._assignment_blocks

        def spy(g_keys, g_sizes, h_keys, *rest):
            walks.append((tuple(g_keys), tuple(g_sizes), tuple(h_keys)))
            return real(g_keys, g_sizes, h_keys, *rest)

        def largest_first(walk):
            ranked = [(-size, key) for key, size in zip(walk[0], walk[1])]
            return ranked == sorted(ranked)

        def pair(walk):
            return sorted(zip(walk[0], walk[1])), walk[2]

        monkeypatch.setattr(search, "_assignment_blocks", spy)
        queries = [
            ((2, (4, 2), (9,)), "FEASIBLE"),
            ((3, (4, 2), (7, 3, 1)), "FEASIBLE"),
            ((2, (3, 3), (7, 7)), "INFEASIBLE"),
            ((2, (3, 1), (2, 2, 2)), "INFEASIBLE"),
        ]
        for query, status in queries:
            walks.clear()
            assert witness_search(*query).status == status
            assert any(pair(walk)[0] != list(zip(walk[0], walk[1])) for walk in walks), query
            keyed = [i for i, walk in enumerate(walks) if not largest_first(walk)]
            if status == "FEASIBLE":
                lex = walks[-1]
                assert keyed == [len(walks) - 1], query
                assert list(lex[0]) == sorted(lex[0]) and pair(lex) == pair(walks[-2]), query
            else:
                assert keyed == [], query

    def test_infeasible_prefix_skips_its_extensions(self, monkeypatch):
        # the search asks about 13,238 full assignments, one by one, without
        # the prefix skip; with it and the walk largest group first, 139
        # lists: 77 pairs alone and 62 prefixes of two
        import hsembed.lattice as lattice

        asked = []
        real = lattice.HomFeasibility.exists

        def counting(self, pairs):
            asked.append(len(pairs))
            return real(self, pairs)

        monkeypatch.setattr(lattice.HomFeasibility, "exists", counting)
        out = witness_search(2, (3, 3), (7, 7))
        assert (out.status, out.calls_used) == ("INFEASIBLE", 13238)
        assert len(asked) <= 150

    def test_each_class_pair_list_reaches_the_oracle_once(self, monkeypatch):
        # full assignments and proper prefixes share one memo per search, so
        # a list asked as a prefix, or by another pair of partitions, is not
        # asked again
        import hsembed.lattice as lattice

        asked = []
        real = lattice.HomFeasibility.exists

        def recording(self, pairs):
            asked.append(tuple(pairs))
            return real(self, pairs)

        monkeypatch.setattr(lattice.HomFeasibility, "exists", recording)
        for (n, src, dst), budget in BUDGETED_QUERIES:
            asked.clear()
            witness_search(n, src, dst, budget)
            assert asked
            repeated = [pairs for pairs, times in collections.Counter(asked).items() if times > 1]
            assert repeated == [], (n, src, dst)

    def test_completion_counts_are_kept_once_per_multiset_of_rooms(self, monkeypatch):
        # relabelling the classes changes no count of completions, so the
        # table of completions is keyed by the group sizes left and the
        # rooms left sorted; keyed by the rooms in their order a count memo
        # held 8,617 counts on (7,7), and [174, 217, 206, 267, 564, 1149] on
        # the other queries.  The bounds are the table's measured node
        # counts, dead nodes included, with the source groups largest
        # first, so one node serves every order of the group sizes; with
        # the groups in class-key order the table held [4499, 51, 100, 86,
        # 173, 246, 584]
        import hsembed.search as search

        tables = []
        real = search._completion_node

        def capturing(*args):
            tables.append(args[-1])
            return real(*args)

        monkeypatch.setattr(search, "_completion_node", capturing)
        queries = [(query, None) for query in SEARCH_QUERIES]
        queries += [(query, Budget(call_cap=CAPPED_CALL_CAP)) for query in CAPPED_QUERIES]
        most = [727, 15, 24, 27, 57, 139, 372]
        for ((n, src, dst), budget), bound in zip(queries, most, strict=True):
            tables.clear()
            witness_search(n, src, dst, budget)
            assert tables and all(table is tables[0] for table in tables), (n, src, dst)
            assert len(tables[0]) <= bound, (n, src, dst)
            assert all(rooms == tuple(sorted(rooms)) for _, rooms in tables[0]), (n, src, dst)

    def test_completion_nodes_match_the_reference(self):
        # for every pair of group and class sizes summing to at most 7, one
        # table for all of them as in a search: the root counts the
        # reference's assignments, each child counts those that send group
        # 0 into any one class of its room, and no child counts 0
        table: dict = {}
        for total in range(1, 8):
            for g_sizes, h_sizes in itertools.product(_compositions(total), repeat=2):
                ref = list(_assignments(g_sizes, h_sizes))
                count, children = _completion_node(g_sizes, tuple(sorted(h_sizes)), table)
                assert count == len(ref), (g_sizes, h_sizes)
                assert all(child[0] for child in children.values()), (g_sizes, h_sizes)
                for h, room in enumerate(h_sizes):
                    into = sum(1 for f in ref if f[0] == h)
                    assert children.get(room, (0,))[0] == into, (g_sizes, h_sizes, h)

    def test_search_memory_stays_pinned(self):
        # tracemalloc peaks of each benchmark search, against bounds about
        # 1.5 times the peaks measured with the table of completions: 1.53,
        # 0.12, 0.13, 0.12, 0.11, 1.00 and 0.31 MiB on Python 3.11
        queries = [(query, None) for query in SEARCH_QUERIES]
        queries += [(query, Budget(call_cap=CAPPED_CALL_CAP)) for query in CAPPED_QUERIES]
        bounds_mib = [2.5, 0.25, 0.25, 0.25, 0.25, 1.5, 0.5]
        for ((n, src, dst), budget), bound in zip(queries, bounds_mib, strict=True):
            gc.collect()
            tracemalloc.start()
            try:
                witness_search(n, src, dst, budget)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound * 2**20, (n, src, dst, peak)

    @pytest.mark.parametrize("total", range(1, 9))
    def test_assignment_blocks_match_the_reference(self, total):
        # every pair of group and class sizes summing to total, one table of
        # completions for all of them as in a search: with every prefix
        # feasible the walk yields the reference's assignments one by one,
        # in order; with some prefixes infeasible, each block is the whole
        # contiguous run of the reference's assignments that extend the
        # first infeasible prefix
        def feasible(pairs):
            return (sum(h for _, h in pairs) + len(pairs)) % 3 != 2

        memo: dict = {}
        blocks = 0
        for g_sizes, h_sizes in itertools.product(_compositions(total), repeat=2):
            g_keys = "abcdefgh"[: len(g_sizes)]  # and each class's key is its index
            ref = [tuple(zip(g_keys, f)) for f in _assignments(g_sizes, h_sizes)]
            root = _completion_node(g_sizes, tuple(sorted(h_sizes)), memo)[1]
            walk = _assignment_blocks(g_keys, g_sizes, range(8), h_sizes, lambda p: True, root)
            assert list(walk) == [(1, pairs) for pairs in ref]

            i = 0
            for count, pairs in _assignment_blocks(
                g_keys, g_sizes, range(8), h_sizes, feasible, root
            ):
                full = ref[i]
                cut = next((j for j in range(1, len(full)) if not feasible(full[:j])), None)
                if pairs is not None:
                    assert (count, pairs, cut) == (1, full, None)
                else:
                    head = full[:cut]
                    assert cut is not None and (i == 0 or ref[i - 1][:cut] != head)
                    end = next((j for j in range(i, len(ref)) if ref[j][:cut] != head), len(ref))
                    assert count == end - i
                    blocks += 1
                i += count
            assert i == len(ref), (g_sizes, h_sizes)
        assert blocks or total == 1

    def test_search_leaves_no_cyclic_garbage(self):
        # the search builds no reference cycles, so what it allocates is
        # freed when it returns, not when the cyclic collector next runs
        queries = [(query, None) for query in SEARCH_QUERIES]
        queries += [(query, Budget(call_cap=CAPPED_CALL_CAP)) for query in CAPPED_QUERIES]
        gc.collect()
        gc.disable()
        try:
            for (n, src, dst), budget in queries:
                witness_search(n, src, dst, budget)
                assert gc.collect() == 0, (n, src, dst)
        finally:
            gc.enable()

    def test_time_cap_checked_while_target_partitions_are_built(self, monkeypatch):
        # a counter clock passes the deadline on its fourth read, so the
        # search must stop within a few target partitions, whatever the
        # wall time
        import hsembed.engine as engine

        ticks = itertools.count()
        monkeypatch.setattr(engine.time, "monotonic", lambda: next(ticks))
        real = engine.enumerate_vector_partitions
        pulled = []

        def counting(target, parts, max_support, *args, **kwargs):
            for item in real(target, parts, max_support, *args, **kwargs):
                pulled.append(item)
                yield item

        monkeypatch.setattr(engine, "enumerate_vector_partitions", counting)
        out = witness_search(3, (5, 4), (12, 11), Budget(time_cap=3))
        assert (out.status, out.calls_used) == ("BUDGET_EXCEEDED", 0)
        assert len(pulled) <= 5
        pulled.clear()
        v = decide(3, (5, 4), (12, 11), budget=Budget(time_cap=3))
        assert v.kind == UNKNOWN and v.search_bounds["calls_used"] == 0
        assert len(pulled) <= 5

    def test_time_cap_checked_while_a_part_list_is_built(self, monkeypatch):
        # the target (1001, 999) has 1,001,999 parts, and their list alone
        # peaks at about 190 MB under tracemalloc; a counter clock passes the
        # deadline on its 51st read, a few reads into that list, so the
        # search stops with a small fraction of it built
        import hsembed.engine as engine

        ticks = itertools.count()
        monkeypatch.setattr(engine.time, "monotonic", lambda: next(ticks))
        real = engine.enumerate_vector_partitions
        started = []

        def recording(target, parts, max_support, *args, **kwargs):
            if tuple(target) == (1001, 999):
                started.append(parts)
            return real(target, parts, max_support, *args, **kwargs)

        monkeypatch.setattr(engine, "enumerate_vector_partitions", recording)
        tracemalloc.start()
        try:
            out = witness_search(2, (3, 3), (1001, 999), Budget(time_cap=50))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.calls_used) == ("BUDGET_EXCEEDED", 0)
        assert started == [6]  # the list of l = 6 was begun, for the first source partition
        assert peak < 20 * 2**20

    def test_untimed_search_reads_no_clock(self, monkeypatch):
        # without a time_cap the search is a pure function of its inputs and
        # budget, so neither decide nor the enumerator may read the clock
        import hsembed.engine as engine

        def clock():
            raise AssertionError("the clock was read")

        monkeypatch.setattr(engine.time, "monotonic", clock)
        kinds = [decide(n, src, dst, budget=budget).kind
                 for (n, src, dst), budget in BUDGETED_QUERIES]
        assert kinds == [NO] * 5 + [UNKNOWN] * 3 + [NO]
        for parts in (1, 2, 3, 7):
            assert list(enumerate_vector_partitions((5, 4), parts, 2))
            assert list(enumerate_vector_partitions((5, 4), parts, 2, max_classes=2))

    def test_set_up_does_not_grow_with_the_target_sum(self, monkeypatch):
        # the grid of (2, (3, 3), (10**6,)) has 166,665,500,002 cells; a
        # counter clock passes the deadline on its second read, the first
        # after the deadline is set, so the search stops before its first
        # source partition, having built nothing sized by the l-range
        import hsembed.engine as engine

        ticks = itertools.count()
        monkeypatch.setattr(engine.time, "monotonic", lambda: next(ticks))
        tracemalloc.start()
        try:
            out = witness_search(2, (3, 3), (10**6,), Budget(time_cap=0.5))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert (out.status, out.calls_used) == ("BUDGET_EXCEEDED", 0)
        assert out.bounds["cells_total"] == 166_665_500_002
        assert peak < 2**20

    def test_cells_total_is_the_sum_of_the_q_bounds(self):
        # cells_total counts the q's of every l in [sum(d), sum(d')]: up to
        # (l - n - 1) // (sum(d) - n - 1) when sum(d) > n + 1, else q_cap;
        # the grid includes empty l-ranges and the infinite regime, and the
        # deadline passes at once, so no search runs far
        budget = Budget(q_cap=3, time_cap=1e-9)
        for n in range(1, 5):
            for sd, sdp in itertools.product(range(n + 1, 31), range(n + 1, 61)):
                brute = sum(
                    (l - n - 1) // (sd - n - 1) if sd > n + 1 else budget.q_cap
                    for l in range(sd, sdp + 1)
                )
                out = witness_search(n, (sd,), (sdp,), budget)
                assert out.bounds["cells_total"] == brute, (n, sd, sdp)

    @pytest.mark.parametrize("n, src, dst", CAPPED_QUERIES)
    def test_target_partitions_listed_within_the_class_bound(self, monkeypatch, n, src, dst):
        # at l = sum(d) every source part is a unit vector, so a source
        # partition has at most len(d) = 2 classes; of the 4,253 (resp.
        # 1,862) target partitions of l, only those with at most 2 are listed
        import hsembed.engine as engine

        real = engine.enumerate_vector_partitions
        listed = []

        def counting(target, parts, max_support, *args, **kwargs):
            for item in real(target, parts, max_support, *args, **kwargs):
                if tuple(target) == dst and parts == sum(src):
                    listed.append(item)
                yield item

        monkeypatch.setattr(engine, "enumerate_vector_partitions", counting)
        out = witness_search(n, src, dst, Budget(call_cap=CAPPED_CALL_CAP))
        assert (out.status, out.calls_used) == ("BUDGET_EXCEEDED", CAPPED_CALL_CAP + 1)
        assert 0 < len(listed) <= 4

    @pytest.mark.parametrize(
        "n, src, dst, built",
        [
            (3, (4, 3), (9, 9), [7, 10]),
            (3, (4, 4), (9, 8), [8, 12]),
        ],
    )
    def test_target_partitions_built_only_for_cells_that_reach_them(
        self, monkeypatch, n, src, dst, built
    ):
        # the other cells of l <= 10 (resp. 12) have sum(q*d) < l, so no
        # source partition, and their target lists are never read
        import hsembed.engine as engine

        real = engine.enumerate_vector_partitions
        target_parts = []

        def counting(target, parts, max_support, *args, **kwargs):
            if tuple(target) == dst:
                target_parts.append(parts)
            return real(target, parts, max_support, *args, **kwargs)

        monkeypatch.setattr(engine, "enumerate_vector_partitions", counting)
        witness_search(n, src, dst, Budget(call_cap=2000))
        assert target_parts == built

    @pytest.mark.parametrize(
        "n, src, dst, budget",
        [(2, (3, 3), (7, 7), None), (3, (4, 3), (9, 9), Budget(call_cap=2000))],
    )
    def test_each_vector_reduced_once_per_side(self, monkeypatch, n, src, dst, budget):
        # source and target partitions share vectors across cells; each
        # (vector, degrees) pair is reduced once per search
        import hsembed.engine as engine

        reduced = []

        def recording(vector, degrees):
            reduced.append((tuple(vector), tuple(degrees)))
            return homology_reduce(vector, degrees)

        monkeypatch.setattr(engine, "homology_reduce", recording)
        witness_search(n, src, dst, budget)
        assert reduced
        assert [pair for pair, times in collections.Counter(reduced).items() if times > 1] == []

    def test_frozen_outcome_digest(self):
        # status, calls, bounds and witness of every query of the search
        # corpus; a capped search reports exactly call_cap + 1 = 3001 calls
        digest = hashlib.sha256()
        count = feasible = 0
        for _, _, _, out in _search_corpus():
            count += 1
            feasible += out.status == "FEASIBLE"
            witness = None if out.witness is None else out.witness.to_json()
            record = [out.status, out.calls_used, out.bounds, witness]
            digest.update(json.dumps(record, sort_keys=True).encode() + b"\n")
        assert (count, feasible) == (2146, 676)
        assert digest.hexdigest() == (
            "610647cbc4060b1c0ffcc11833c64c4483a23cd669252ad9d4cd463928ed8828"
        )

    def test_every_corpus_witness_checks(self):
        # witness_search does not re-check the witnesses it returns; each one
        # also checks when rebuilt from its own JSON
        checked = 0
        for n, src, dst, out in _search_corpus():
            if out.status == "FEASIBLE":
                w = out.witness
                assert (w.n, w.source, w.target) == (n, src, dst)
                assert check_feasibility_witness(w) == [], (n, src, dst)
                rebuilt = FeasibilityWitness(**w.to_json())
                assert rebuilt == w and check_feasibility_witness(rebuilt) == [], (n, src, dst)
                checked += 1
        assert checked == 676

    def test_feasible_witness_matrix_from_hom_exists(self):
        out = witness_search(2, (2, 2), (4, 3))
        assert (out.status, out.calls_used) == ("FEASIBLE", 1)
        w = out.witness
        # the search's class-key pairs: one per source class, in sorted order
        keys = {
            homology_reduce(x, w.source).coordinates: homology_reduce(y, w.target).coordinates
            for x, y in zip(w.xs, w.ys)
        }
        assert w.matrix == hom_exists(w.source, w.target, sorted(keys.items()))

    def test_witness_checker_flags_corruption(self):
        out = witness_search(2, (1, 1, 1), (1, 1, 1))
        w = out.witness
        broken = FeasibilityWitness(w.n, w.source, w.target, w.l, 2, w.xs, w.ys, w.matrix)
        assert check_feasibility_witness(broken) != []

    @pytest.mark.parametrize(
        "x0, y0, problem",
        [
            ((1,), None, "bad source vector (1,)"),
            ((4, 0), (4,), "bad target vector (4,)"),
        ],
        ids=["short_source_vector", "short_target_vector"],
    )
    def test_witness_checker_reports_misshaped_vectors(self, x0, y0, problem):
        # evidence from outside may have vectors of any length: the checker
        # reports them and skips their image check instead of raising
        w = witness_search(2, (2, 2), (4, 3)).witness
        ys = w.ys if y0 is None else (y0,) + w.ys[1:]
        xs = (x0,) + w.xs[1:]
        broken = FeasibilityWitness(w.n, w.source, w.target, w.l, w.q, xs, ys, w.matrix)
        assert problem in check_feasibility_witness(broken)


class TestDecide:
    def test_yes_via_moves(self):
        v = decide(2, (3, 2, 2), (7, 2))
        assert v.kind == YES
        assert v.witness.is_valid()
        assert verify_verdict(2, (3, 2, 2), (7, 2), LIOUVILLE, v)

    def test_window_yes_verdicts_replay(self):
        # the order rung does not replay the move witnesses it builds; every
        # YES of acceptance criterion 3's in-window corpus is replayed here
        queries = yes = 0
        for n in (1, 2, 3):
            tuples = canonical_tuples(7, n + 1)
            for src, dst in itertools.product(tuples, repeat=2):
                if dst.total() >= 2 * src.total() - n - 1:
                    continue
                queries += 1
                v = decide(n, src, dst)
                if v.kind == YES:
                    yes += 1
                    assert verify_verdict(n, src, dst, LIOUVILLE, v), (n, src, dst)
        assert (queries, yes) == (3879, 950)

    def test_window_leaves_no_cyclic_garbage(self):
        # the order's and the spectrum's recursive walks free themselves when
        # they return, so deciding acceptance criterion 3's in-window corpus
        # leaves nothing for the cyclic collector
        queries = [
            (n, src, dst)
            for n in (1, 2, 3)
            for src, dst in itertools.product(canonical_tuples(7, n + 1), repeat=2)
            if dst.total() < 2 * src.total() - n - 1
        ]
        _column_fillings.cache_clear()  # so every filling walk runs
        gc.collect()
        gc.disable()
        try:
            for n, src, dst in queries:
                decide(n, src, dst)
            assert gc.collect() == 0
            orbit_spectrum(2, (2, 1), 6)
            assert gc.collect() == 0
        finally:
            gc.enable()

    def test_verdict_census(self):
        # verdicts by (kind, NO rule) over SMALL_TUPLES for n = 1..3
        exact = {
            (YES, None): 864,
            (NO, SUM_DROP): 668,
            (NO, FN_ALMOST_SYMPLECTIC): 514,
            (NO, DEGREE_HYP_NOT_LEQQ): 275,
            (NO, GCD_SINGLE): 71,
            (NO, WITNESS_INFEASIBLE): 34,
            (NO, HYPERPLANE_TARGET): 5,
            (UNKNOWN, None): 269,
        }
        expected = {
            LIOUVILLE: exact,
            WEINSTEIN: exact,
            SYMPLECTIC: {(YES, None): 1542, (NO, GCD_SINGLE): 798, (UNKNOWN, None): 360},
        }
        for mode, counts in expected.items():
            census = collections.Counter()
            for n in (1, 2, 3):
                for src, dst in itertools.product(SMALL_TUPLES, repeat=2):
                    v = decide(n, src, dst, mode, Budget(call_cap=3000))
                    census[v.kind, v.certificate and v.certificate.rule] += 1
            assert dict(census) == counts, mode

    def test_verdicts_obey_the_composition_laws(self):
        # exact embeddings compose and are symplectic ones, so no YES(a->b),
        # YES(b->c) pair meets NO(a->c) in one mode, and no Liouville YES
        # meets a symplectic NO; a break names the NO rule at fault
        tuples = [d for d in canonical_tuples(8) if len(d) <= 3]
        modes = (LIOUVILLE, SYMPLECTIC)
        verdicts, breaks = 0, []
        for n in (1, 2, 3):
            yes, no = {}, {}  # (mode, a) -> every b of a YES; (mode, a, b) -> NO rule
            for mode, a, b in itertools.product(modes, tuples, tuples):
                v = decide(n, a, b, mode, Budget(call_cap=3000))
                verdicts += 1
                if v.kind == YES:
                    yes.setdefault((mode, a), set()).add(b)
                elif v.kind == NO:
                    no[mode, a, b] = v.certificate.rule
            for (mode, a), bs in yes.items():
                for b in bs:
                    breaks += [
                        (n, mode, a, b, c, no[mode, a, c])
                        for c in yes.get((mode, b), ())
                        if (mode, a, c) in no
                    ]
                    if mode == LIOUVILLE and (SYMPLECTIC, a, b) in no:
                        breaks.append((n, SYMPLECTIC, a, b, no[SYMPLECTIC, a, b]))
        assert verdicts == 9600
        assert breaks == []

    def test_raising_the_call_cap_keeps_every_yes_and_no(self):
        # a larger call_cap only lets a search go further, so a YES or NO at
        # call_cap=37 stays one at 3000; some UNKNOWNs get decided there
        tuples = [d for d in canonical_tuples(8) if len(d) <= 3]
        pairs, decided_later, breaks = 0, 0, []
        for n, mode, a, b in itertools.product((1, 2, 3), (LIOUVILLE, SYMPLECTIC), tuples, tuples):
            low = decide(n, a, b, mode, Budget(call_cap=37))
            high = decide(n, a, b, mode, Budget(call_cap=3000))
            pairs += 1
            if low.kind == UNKNOWN:
                decided_later += high.kind != UNKNOWN
            elif high.kind != low.kind:
                breaks.append((n, mode, a, b, *(
                    (v.kind, v.certificate and v.certificate.rule) for v in (low, high)
                )))
        assert pairs == 9600
        assert breaks == []
        assert decided_later == 36

    def test_order_rung_runs_no_move_search(self, monkeypatch):
        # the decomposition alone decides and builds the witness; the
        # best-first search took seconds on both of these
        def forbidden(*args):
            raise AssertionError("decide ran leqq_bfs")

        monkeypatch.setattr("hsembed.order.leqq_bfs", forbidden)
        lengths = []
        for src, dst, budget in [
            ((7,), (700,), Budget(time_cap=1)),
            ((3, 2), (12, 11, 10, 9), None),
        ]:
            v = decide(2, src, dst, budget=budget)
            assert v.kind == YES
            assert verify_verdict(2, src, dst, LIOUVILLE, v)
            used = sum(map(sum, leqq_decomposition(src, dst).rows))
            assert len(v.witness) == 2 * used - len(src) - len(dst)
            lengths.append(len(v.witness))
        assert lengths[0] == 198

    def test_no_via_quick_check(self):
        v = decide(2, (3,), (4, 2))
        assert v.kind == NO and v.certificate.rule == GCD_SINGLE
        assert verify_verdict(2, (3,), (4, 2), LIOUVILLE, v)

    def test_no_in_window(self):
        v = decide(2, (3, 2), (4, 1))
        assert v.kind == NO and v.certificate.rule == DEGREE_HYP_NOT_LEQQ
        assert verify_verdict(2, (3, 2), (4, 1), LIOUVILLE, v)

    def test_no_via_search_outside_window(self):
        # outside the window the search itself must exhaust and certify
        v = decide(2, (2, 1), (3, 1))
        if v.kind == NO and v.certificate.rule == WITNESS_INFEASIBLE:
            assert replay_certificate(v.certificate)
        else:
            # a YES here must come with a replayable move sequence
            assert v.kind == YES and v.witness.is_valid()

    def test_unknown_reports_bounds(self):
        v = decide(2, (2, 2), (3, 3))
        if v.kind == UNKNOWN:
            assert v.search_bounds is not None

    def test_symplectic_yes(self):
        v = decide(2, (4, 2), (6, 2), SYMPLECTIC)
        assert v.kind == YES
        assert v.witness["component_degree"] == 2
        assert verify_verdict(2, (4, 2), (6, 2), SYMPLECTIC, v)

    def test_symplectic_no(self):
        v = decide(2, (4, 2), (5, 3), SYMPLECTIC)
        assert v.kind == NO and v.certificate.rule == GCD_SINGLE
        assert verify_verdict(2, (4, 2), (5, 3), SYMPLECTIC, v)

    def test_verdict_verifies_only_for_its_own_mode(self):
        no = decide(2, (4, 2), (2, 2))
        assert no.kind == NO and no.certificate.rule == SUM_DROP
        assert verify_verdict(2, (4, 2), (2, 2), LIOUVILLE, no)
        assert not verify_verdict(2, (4, 2), (2, 2), SYMPLECTIC, no)
        # a Liouville-only rule stored under the symplectic mode does not replay
        moved = Certificate(SUM_DROP, {**no.certificate.data, "mode": SYMPLECTIC})
        assert not replay_certificate(moved)
        yes = decide(2, (4, 2), (2, 2), SYMPLECTIC)
        assert yes.kind == YES
        assert verify_verdict(2, (4, 2), (2, 2), SYMPLECTIC, yes)

    def test_search_replay_does_not_depend_on_time_cap(self):
        # exhausting the grid does not depend on time, so the recorded
        # time_cap is not replayed
        cert = decide(2, (3, 3), (5, 5), budget=Budget(time_cap=60)).certificate
        assert cert.rule == WITNESS_INFEASIBLE
        budget = {**cert.data["budget"], "time_cap": 1e-9}
        hurried = Certificate(cert.rule, {**cert.data, "budget": budget}, cert.search_bounds)
        assert replay_certificate(hurried)
        # the search rule holds only in the exact modes
        moved = Certificate(cert.rule, {**cert.data, "mode": SYMPLECTIC}, cert.search_bounds)
        assert not replay_certificate(moved)

    @pytest.mark.parametrize(
        "query, key",
        [
            pytest.param(query, key, id=f"{rule}-{key or 'not_a_dict'}")
            for rule, query, keys in [
                ("sum_drop", (2, (4, 2), (2, 2)), ("n", "source", "target", "mode", None)),
                ("search", (2, (3, 3), (5, 5)), ("n", "source", "target", "mode", "budget", None)),
            ]
            for key in keys
        ],
    )
    def test_malformed_certificate_does_not_stand(self, query, key):
        # a SUM_DROP and a WITNESS_INFEASIBLE certificate with one field
        # missing, or with data that is not a dict (key None), replay as
        # False instead of raising
        cert = decide(*query).certificate
        assert replay_certificate(cert)
        if key is None:
            data = list(cert.data.items())
        else:
            data = {k: value for k, value in cert.data.items() if k != key}
        broken = Certificate(cert.rule, data, cert.search_bounds)
        assert not replay_certificate(broken)
        assert not verify_verdict(*query, LIOUVILLE, Verdict.no(broken))

    def test_replay_builds_no_move_witness(self, monkeypatch):
        # a replay needs only whether the pair is related; a forged SUM_DROP
        # for a related pair is rejected without building its move witness,
        # whose cost grows quadratically with the target entry
        def forbidden(self):
            raise AssertionError("replay built a move witness")

        monkeypatch.setattr(DecompositionWitness, "to_moves", forbidden)
        data = {
            **decide(2, (4, 2), (2, 2)).certificate.data,
            "source": [1, 1], "target": [4000], "sum_source": 2, "sum_target": 4000,
        }
        assert replay_certificate(Certificate(SUM_DROP, data)) is False

    def test_thread_count_does_not_change_outcome(self):
        cases = [
            (2, (1, 1, 1), (1, 1, 1)),
            (2, (2, 2), (3, 3)),
            (2, (3, 2), (4, 1)),
            (3, (2, 2), (3, 2)),
        ]
        for n, src, dst in cases:
            seq = decide(n, src, dst, threads=1)
            par = decide(n, src, dst, threads=4)
            assert seq.kind == par.kind, (n, src, dst)
            assert seq.search_bounds == par.search_bounds, (n, src, dst)

    @pytest.mark.parametrize("threads", [0, True])
    @pytest.mark.parametrize(
        "query", [(2, (3, 2, 2), (7, 2)), (2, (3, 3), (5, 5)), (2, (4, 2), (6, 2), SYMPLECTIC)],
        ids=["order", "search", "symplectic"],
    )
    def test_rejects_bad_thread_count_on_every_rung(self, query, threads):
        with pytest.raises(ValueError):
            decide(*query, threads=threads)

    @pytest.mark.parametrize("broken", ["no_moves", "no_component_degree", "moves_as_json"])
    def test_malformed_symplectic_witness_does_not_stand(self, broken):
        v = decide(2, (4, 2), (6, 2), SYMPLECTIC)
        assert v.kind == YES and verify_verdict(2, (4, 2), (6, 2), SYMPLECTIC, v)
        w = dict(v.witness)
        if broken == "moves_as_json":
            w["moves"] = w["moves"].to_json()
        else:
            del w[broken[len("no_"):]]
        assert not verify_verdict(2, (4, 2), (6, 2), SYMPLECTIC, Verdict.yes(w))

    @pytest.mark.parametrize(
        "field, value",
        [
            ("component_index", 0),  # names the degree-4 component
            ("component_index", -1),
            ("component_index", 2),
            ("component_index", True),
            ("component_index", "junk"),
            ("component_index", None),
            ("component_degree", 2.0),
        ],
    )
    def test_symplectic_witness_names_its_component(self, field, value):
        v = decide(2, (4, 2), (6, 2), SYMPLECTIC)
        assert v.witness["component_index"] == 1
        w = {**v.witness, field: value}
        assert not verify_verdict(2, (4, 2), (6, 2), SYMPLECTIC, Verdict.yes(w))

    def test_symplectic_unknown_when_gcd_absent(self):
        v = decide(2, (4, 6), (8, 2), SYMPLECTIC)
        assert v.kind == UNKNOWN

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            decide(2, (1, 1), (1, 1), "contact")

    def test_weinstein_tracks_liouville_on_small_grid(self):
        tuples = canonical_tuples(5, min_sum=3)
        for src, dst in itertools.product(tuples, repeat=2):
            a = decide(2, src, dst, LIOUVILLE)
            b = decide(2, src, dst, WEINSTEIN)
            assert a.kind == b.kind, (src, dst)

    @given(
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
        st.lists(st.integers(min_value=1, max_value=4), min_size=1, max_size=3),
    )
    @settings(max_examples=40, deadline=None)
    def test_yes_always_replayable(self, src, dst):
        v = decide(2, DegreeTuple(src), DegreeTuple(dst))
        if v.kind == YES:
            assert v.witness.is_valid()

    def test_leqq_implies_yes(self):
        tuples = canonical_tuples(6)
        for src, dst in itertools.product(tuples, repeat=2):
            if leqq(src, dst)[0]:
                assert decide(2, src, dst).kind == YES, (src, dst)
