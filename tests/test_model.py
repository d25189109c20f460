"""Degree tuples, homology normal forms, and verdict containers."""

import importlib
import json
import pkgutil
from collections.abc import Hashable

import pytest
from hypothesis import given
from hypothesis import strategies as st

import hsembed
from hsembed import (
    Budget,
    Certificate,
    DecompositionWitness,
    DegreeTuple,
    EmptyInput,
    FeasibilityWitness,
    FormalCurveSpec,
    HomologyElement,
    IntMatrix,
    LengthMismatch,
    Move,
    MoveSequence,
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
from hsembed.lattice import SnfDecomposition
from hsembed.model import _Record, _SparseRecord
from hsembed.search import SearchOutcome

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


# One sample of each of the 13 frozen records: its class, its positional
# arguments, its field names in declaration order, its repr, and its
# to_json keys (None where its JSON is not a dict).  The names, reprs and
# keys were taken from the records when they were still dataclasses, and
# IntMatrix's from its earlier hand-written class; SearchOutcome and
# SnfDecomposition had no to_json then, and their keys are their fields.
_ENDS = (OrbitClass(2, (1,), (1,), 1),)
_SNF = (IntMatrix([[1, 1], [3, 2]]), IntMatrix([[1, 0], [0, 6]]), IntMatrix([[-1, 3], [1, -2]]))
_XS = ((4, 0), (0, 1), (0, 1), (0, 1), (0, 1))
_YS = ((0, 3), (1, 0), (1, 0), (1, 0), (1, 0))
RECORDS = [
    (
        HomologyElement, ((3, 1, 1), (1, 1, 1)), ("coordinates", "modulus"),
        "HomologyElement(coordinates=(2, 0, 0), modulus=DegreeTuple(1, 1, 1))",
        ("coordinates", "modulus"),
    ),
    (
        Verdict, (UNKNOWN, None, None, "budget", {"calls_used": 7}),
        ("kind", "witness", "certificate", "reason", "search_bounds"),
        "Verdict(kind='UNKNOWN', witness=None, certificate=None, reason='budget', "
        "search_bounds={'calls_used': 7})",
        ("kind", "reason", "search_bounds"),
    ),
    (
        Budget, (), ("q_cap", "call_cap", "time_cap"),
        "Budget(q_cap=4, call_cap=1000000, time_cap=None)",
        ("q_cap", "call_cap", "time_cap"),
    ),
    (
        Certificate, ("SUM_DROP", {"n": 2}), ("rule", "data", "search_bounds"),
        "Certificate(rule='SUM_DROP', data={'n': 2}, search_bounds=None)",
        ("rule", "data", "search_bounds"),
    ),
    (
        FeasibilityWitness, (2, (2, 2), (4, 3), 5, 2, _XS, _YS, [[3, 1], [3, 0]]),
        ("n", "source", "target", "l", "q", "xs", "ys", "matrix"),
        "FeasibilityWitness(n=2, source=DegreeTuple(2, 2), target=DegreeTuple(4, 3), l=5, q=2, "
        "xs=((4, 0), (0, 1), (0, 1), (0, 1), (0, 1)), ys=((0, 3), (1, 0), (1, 0), (1, 0), (1, 0)), "
        "matrix=IntMatrix([[3, 1], [3, 0]]))",
        ("n", "source", "target", "l", "q", "xs", "ys", "matrix"),
    ),
    (
        SearchOutcome, ("FEASIBLE", None, {"l": 5}, 1),
        ("status", "witness", "bounds", "calls_used"),
        "SearchOutcome(status='FEASIBLE', witness=None, bounds={'l': 5}, calls_used=1)",
        ("status", "witness", "bounds", "calls_used"),
    ),
    (
        OrbitClass, (2, (2, 1), (1, 0), 1), ("n", "degrees", "v", "delta"),
        "OrbitClass(n=2, degrees=DegreeTuple(2, 1), v=(1, 0), delta=1)",
        ("v", "delta", "morse_index", "action", "cz", "homology"),
    ),
    (
        FormalCurveSpec, (2, (1,), _ENDS, 1),
        ("n", "degrees", "positive_ends", "q", "tangency_order"),
        "FormalCurveSpec(n=2, degrees=DegreeTuple(1), positive_ends=(OrbitClass(n=2, "
        "degrees=DegreeTuple(1), v=(1,), delta=1),), q=1, tangency_order=None)",
        ("n", "degrees", "positive_ends", "q", "tangency_order"),
    ),
    (
        SnfDecomposition, _SNF, ("u", "d", "v"),
        "SnfDecomposition(u=IntMatrix([[1, 1], [3, 2]]), d=IntMatrix([[1, 0], [0, 6]]), "
        "v=IntMatrix([[-1, 3], [1, -2]]))",
        ("u", "d", "v"),
    ),
    (
        Move, ("combine", 0, 1), ("op", "i", "j"),
        "Move(op='combine', i=0, j=1)",
        ("op", "i", "j"),
    ),
    (
        MoveSequence, ((2, 3), (5,), [Move("combine", 0, 1)]), ("source", "target", "moves"),
        "MoveSequence(source=DegreeTuple(3, 2), target=DegreeTuple(5), "
        "moves=(Move(op='combine', i=0, j=1),))",
        ("source", "target", "moves"),
    ),
    (
        DecompositionWitness, ((2, 1), (3,), ((1,), (1,))), ("source", "target", "rows"),
        "DecompositionWitness(source=DegreeTuple(2, 1), target=DegreeTuple(3), rows=((1,), (1,)))",
        ("source", "target", "rows"),
    ),
    (IntMatrix, ([[1, 2], [3, 4]],), ("data",), "IntMatrix([[1, 2], [3, 4]])", None),
]
RECORD_IDS = [r[0].__name__ for r in RECORDS]


class TestRecords:
    @pytest.mark.parametrize("cls, args, names, text, keys", RECORDS, ids=RECORD_IDS)
    def test_fields_repr_and_json_keys(self, cls, args, names, text, keys):
        record = cls(*args)
        assert cls._fields == names
        # the fields are the constructor's parameters, in the same order
        assert cls(**dict(zip(names, args))) == record
        assert repr(record) == text
        if keys is not None:
            assert tuple(record.to_json()) == keys

    @pytest.mark.parametrize("cls, args, names, text, keys", RECORDS, ids=RECORD_IDS)
    def test_fields_cannot_be_assigned_or_deleted(self, cls, args, names, text, keys):
        record = cls(*args)
        before = repr(record)
        for name in names:
            with pytest.raises(AttributeError):
                setattr(record, name, 0)
            with pytest.raises(AttributeError):
                delattr(record, name)
        with pytest.raises(AttributeError):
            record.extra = 0
        assert repr(record) == before

    @pytest.mark.parametrize("cls, args, names, text, keys", RECORDS, ids=RECORD_IDS)
    def test_equality_is_by_class_and_fields(self, cls, args, names, text, keys):
        a, b = cls(*args), cls(*args)
        assert a == b and not a != b
        assert a.__eq__(tuple(getattr(a, n) for n in names)) is NotImplemented
        if all(isinstance(getattr(a, n), Hashable) for n in names):
            assert hash(a) == hash(b) == hash(tuple(getattr(a, n) for n in names))
            assert len({a, b}) == 1

    def test_unequal_fields_make_unequal_records(self):
        assert Move("combine", 0, 1) != Move("combine", 0, 2)
        assert Budget(q_cap=5) != Budget()
        assert HomologyElement((1, 0), (4, 2)) != HomologyElement((2, 0), (4, 2))

    def test_defaults_fill_trailing_fields(self):
        assert Budget() == Budget(4, 10**6, None)
        assert Move("duplicate", 3) == Move("duplicate", 3, None)
        assert Verdict.unknown("r") == Verdict(UNKNOWN, None, None, "r", None)

    def test_records_are_the_record_subclasses(self):
        # every _Record subclass an hsembed module defines has a sample
        # above; records that tests define, such as Pair below, are left out
        for info in pkgutil.iter_modules(hsembed.__path__, "hsembed."):
            importlib.import_module(info.name)
        found, todo = set(), [_Record]
        while todo:
            for sub in todo.pop().__subclasses__():
                todo.append(sub)
                if sub.__module__.startswith("hsembed.") and sub is not _SparseRecord:
                    found.add(sub)
        assert found == {r[0] for r in RECORDS}

    def test_methods_the_class_defines_stay(self):
        class Pair(_Record):
            a: int
            b: int = 0

            def __repr__(self):
                return f"<{self.a}|{self.b}>"

        assert repr(Pair(1)) == "<1|0>"
        assert Pair(1) == Pair(1, 0) and Pair._fields == ("a", "b")
        with pytest.raises(AttributeError):
            Pair(1).a = 2

    def test_sparse_json_round_trips(self):
        # an absent key is the field's None default
        for move in (Move("combine", 0, 2), Move("duplicate", 1)):
            assert Move(**move.to_json()) == move
        assert Move("duplicate", 1).to_json() == {"op": "duplicate", "i": 1}
        v = Verdict.unknown("budget", search_bounds={"calls_used": 7, "l_max": 9})
        assert tuple(v.to_json()) == ("kind", "reason", "search_bounds")
        assert Verdict(**v.to_json()) == v

    def test_post_init_normalizes(self):
        seq = MoveSequence([2, 3], (5,), [Move("combine", 0, 1)])
        assert type(seq.source) is DegreeTuple and seq.source == (3, 2)
        assert type(seq.moves) is tuple
        assert HomologyElement((3, 1, 1), (1, 1, 1)).coordinates == (2, 0, 0)
        w = FeasibilityWitness(2, (2, 2), (4, 3), 5, 2, _XS, _YS, [[3, 1], [3, 0]])
        assert type(w.matrix) is IntMatrix and type(w.target) is DegreeTuple
