"""Degree tuples, homology normal forms, and verdict containers."""

import json

import pytest
from hypothesis import given
from hypothesis import strategies as st

from hsembed import (
    DecompositionWitness,
    DegreeTuple,
    EmptyInput,
    HomologyElement,
    IntMatrix,
    LengthMismatch,
    NO,
    NonPositiveEntry,
    OrbitClass,
    UNKNOWN,
    Verdict,
    YES,
    cz_index_anticanonical,
    hom_exists,
    homology_reduce,
)

from oracles import reduce_mod_line

degree_lists = st.lists(st.integers(min_value=1, max_value=30), min_size=1, max_size=6)


class TestDegreeTuple:
    def test_sorts_descending(self):
        assert DegreeTuple([1, 3, 2]) == (3, 2, 1)

    def test_total_and_gcd(self):
        d = DegreeTuple([4, 6, 10])
        assert d.total() == 20
        assert d.gcd() == 2

    def test_rejects_empty(self):
        with pytest.raises(EmptyInput):
            DegreeTuple([])

    @pytest.mark.parametrize("bad", [[0], [3, -1], [2, 0, 1], [True, 2]])
    def test_rejects_nonpositive(self, bad):
        with pytest.raises(NonPositiveEntry):
            DegreeTuple(bad)

    def test_rejects_non_integers(self):
        with pytest.raises(NonPositiveEntry):
            DegreeTuple([2.5, 1])

    def test_existing_tuple_returned_as_is(self):
        d = DegreeTuple([2, 5, 3])
        assert DegreeTuple(d) is d
        # plain lists and tuples are still validated and sorted
        for raw in ([2, 5, 3], (2, 5, 3)):
            again = DegreeTuple(raw)
            assert type(again) is DegreeTuple and again == (5, 3, 2)
        for bad in ([2, 0], (2, 0)):
            with pytest.raises(NonPositiveEntry):
                DegreeTuple(bad)

    @given(degree_lists)
    def test_canonicalize_idempotent(self, entries):
        once = DegreeTuple(entries)
        assert DegreeTuple(list(once)) == once

    @given(degree_lists, st.randoms())
    def test_canonicalize_permutation_invariant(self, entries, rng):
        shuffled = list(entries)
        rng.shuffle(shuffled)
        assert DegreeTuple(shuffled) == DegreeTuple(entries)


class TestHomology:
    def test_reduce_frozen_example(self):
        assert homology_reduce((3, 1, 1), (1, 1, 1)) == HomologyElement((2, 0, 0), (1, 1, 1))

    def test_reduce_matches_scan_oracle(self):
        cases = [
            ((3, 1, 1), (1, 1, 1)),
            ((0, 5), (4, 2)),
            ((-3, 7), (3, 1)),
            ((9,), (4,)),
            ((-1, -1, -1), (2, 2, 1)),
        ]
        for vec, mod in cases:
            got = homology_reduce(vec, mod)
            assert got.coordinates == reduce_mod_line(vec, mod)

    @given(
        st.lists(st.integers(min_value=-20, max_value=20), min_size=1, max_size=4),
        st.integers(min_value=-5, max_value=5),
    )
    def test_reduce_is_shift_invariant(self, vec, t):
        mod = tuple(range(len(vec), 0, -1))  # descending positive, e.g. (3,2,1)
        shifted = tuple(v + t * m for v, m in zip(vec, mod))
        assert homology_reduce(shifted, mod) == homology_reduce(tuple(vec), mod)

    def test_element_equality_is_class_equality(self):
        a = HomologyElement((5, 3), (4, 2))
        b = HomologyElement((1, 1), (4, 2))
        assert a == b

    def test_reduce_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            homology_reduce((1, 2), (1, 1, 1))

    def test_is_zero(self):
        assert HomologyElement((8, 4), (4, 2)).is_zero
        assert not HomologyElement((1, 0), (4, 2)).is_zero


@pytest.mark.parametrize(
    "call",
    [
        lambda: homology_reduce((1.9, True), (2, 1)),
        lambda: OrbitClass(2, (2, 1), (1.9, 0), 1),
        lambda: hom_exists((2, 1), (2, 1), [((1.9, 0), (1, 0))]),
        lambda: IntMatrix([[1.7, True]]),
        lambda: cz_index_anticanonical(2, (1, 0), 0, (0.5, 0)),
        lambda: DecompositionWitness((2,), (4,), ((2.9,),)),
    ],
    ids=["homology", "wrapping", "hom_pairs", "matrix", "vanishing_orders", "decomposition"],
)
def test_vector_entries_must_be_ints(call):
    # each of these once truncated its float or bool entries with int()
    with pytest.raises(ValueError, match="entries must be integers"):
        call()


class TestVerdict:
    def test_yes_requires_witness(self):
        with pytest.raises(ValueError):
            Verdict(kind=YES)

    def test_no_requires_certificate(self):
        with pytest.raises(ValueError):
            Verdict(kind=NO)

    def test_unknown_reason_round_trip(self):
        v = Verdict.unknown("budget exhausted", search_bounds={"calls_used": 7})
        blob = json.loads(json.dumps(v.to_json()))
        assert blob["kind"] == UNKNOWN
        assert blob["reason"] == "budget exhausted"
        assert blob["search_bounds"]["calls_used"] == 7

    def test_kind_vocabulary(self):
        assert {YES, NO, UNKNOWN} == {"YES", "NO", "UNKNOWN"}
