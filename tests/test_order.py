"""The constructive partial order and its two independent decision routes."""

import itertools

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsembed import (
    COMBINE,
    DUPLICATE,
    DegreeTuple,
    InvalidMove,
    InvalidSurface,
    Move,
    MoveSequence,
    leqq,
    leqq_bfs,
    leqq_decomposition,
    surface_embeds,
)

from oracles import canonical_tuples, surface_embeds_naive

small_tuples = st.lists(st.integers(min_value=1, max_value=6), min_size=1, max_size=4).map(
    lambda xs: DegreeTuple(xs)
)


class TestMoves:
    def test_combine_sorts_result(self):
        assert Move(COMBINE, 1, 2).apply((5, 2, 2)) == (5, 4)

    def test_duplicate(self):
        assert Move(DUPLICATE, 0).apply((3, 1)) == (3, 3, 1)

    def test_combine_requires_two_indices(self):
        with pytest.raises(InvalidMove):
            Move(COMBINE, 0)

    def test_duplicate_takes_one_index(self):
        with pytest.raises(InvalidMove):
            Move(DUPLICATE, 0, 1)

    @pytest.mark.parametrize(
        "op, i, j",
        [(DUPLICATE, True, None), (DUPLICATE, 1.0, None), (COMBINE, 0, 1.5), (COMBINE, 0, True)],
    )
    def test_index_must_be_an_int(self, op, i, j):
        with pytest.raises(InvalidMove, match="move index"):
            Move(op, i, j)

    def test_out_of_range_apply(self):
        with pytest.raises(InvalidMove):
            Move(DUPLICATE, 3).apply((1, 1))
        with pytest.raises(InvalidMove):
            Move(COMBINE, 0, 5).apply((1, 1))

    def test_sequence_replay_validates(self):
        seq = MoveSequence(
            DegreeTuple((3, 2, 2)),
            DegreeTuple((7, 2)),
            (Move(COMBINE, 0, 1), Move(DUPLICATE, 1), Move(COMBINE, 0, 1)),
        )
        assert seq.is_valid()
        assert seq.replay() == (7, 2)

    def test_sequence_with_wrong_target_is_invalid(self):
        seq = MoveSequence(DegreeTuple((2,)), DegreeTuple((5,)), (Move(DUPLICATE, 0),))
        assert not seq.is_valid()


class TestLeqqRoutes:
    def test_reflexive_empty_sequence(self):
        ok, moves = leqq((5,), (5,))
        assert ok and len(moves) == 0

    def test_known_positive(self):
        ok, moves = leqq((3, 2, 2), (7, 2))
        assert ok
        assert moves.is_valid()
        assert len(moves) == 3

    def test_known_negative(self):
        ok, moves = leqq((3, 2, 2), (10, 1))
        assert not ok and moves is None

    def test_single_component_reaches_multiples_only(self):
        # from (3) every reachable tuple has all entries divisible by 3
        assert leqq((3,), (6, 3))[0]
        assert not leqq((3,), (4, 2))[0]
        assert not leqq((3,), (5, 4))[0]

    def test_decomposition_frozen_example(self):
        witness = leqq_decomposition((2,), (4, 2))
        assert witness is not None
        assert witness.rows == ((2, 1),)
        assert witness.is_valid()

    def test_bfs_shortest_and_deterministic(self):
        a = leqq_bfs((1, 1), (2, 1))
        b = leqq_bfs((1, 1), (2, 1))
        assert a == b
        assert len(a) == 2  # duplicate then combine is forced

    def test_routes_agree_exhaustively_small(self):
        tuples = canonical_tuples(6)
        for src, dst in itertools.product(tuples, repeat=2):
            via_bfs = leqq_bfs(src, dst)
            via_dec = leqq_decomposition(src, dst)
            assert (via_bfs is not None) == (via_dec is not None), (src, dst)
            ok, moves = leqq(src, dst)
            assert ok == (via_bfs is not None), (src, dst)
            if ok:
                assert moves.source == src and moves.replay() == dst
                used = sum(map(sum, via_dec.rows))
                assert len(moves) == 2 * used - len(src) - len(dst), (src, dst)

    @given(small_tuples, small_tuples)
    @settings(max_examples=80, deadline=None)
    def test_bfs_witness_replays(self, src, dst):
        seq = leqq_bfs(src, dst)
        if seq is not None:
            assert seq.is_valid()
            assert seq.source == src and seq.target == dst

    @given(small_tuples)
    @settings(max_examples=40, deadline=None)
    def test_reflexivity(self, d):
        assert leqq(d, d)[0]

    def test_transitivity_sampled(self):
        tuples = canonical_tuples(5)
        related = {
            (a, b)
            for a, b in itertools.product(tuples, repeat=2)
            if leqq(a, b)[0]
        }
        for (a, b), (b2, c) in itertools.product(related, repeat=2):
            if b == b2:
                assert (a, c) in related, (a, b, c)

    def test_sum_monotone(self):
        for a, b in itertools.product(canonical_tuples(5), repeat=2):
            if leqq(a, b)[0]:
                assert a.total() <= b.total()

    def test_component_count_not_monotone(self):
        # duplication grows the count, so longer targets are reachable
        assert leqq((2,), (2, 2, 2))[0]


class TestSurfaces:
    def test_frozen_examples(self):
        assert surface_embeds(0, 3, 1, 2)
        assert not surface_embeds(1, 1, 0, 5)
        assert surface_embeds(1, 2, 2, 1)
        assert not surface_embeds(0, 4, 1, 1)

    def test_matches_naive_restatement(self):
        for g, k, gt, kt in itertools.product(range(4), range(1, 5), range(4), range(1, 5)):
            assert surface_embeds(g, k, gt, kt) == surface_embeds_naive(g, k, gt, kt)

    def test_rejects_closed_surfaces(self):
        with pytest.raises(InvalidSurface):
            surface_embeds(0, 0, 1, 1)

    def test_rejects_negative_genus(self):
        with pytest.raises(InvalidSurface):
            surface_embeds(-1, 1, 0, 1)

    @pytest.mark.parametrize(
        "args", [(True, 1, 0, 1), (0, True, 0, 1), (0, 1, True, 1), (0, 1, 0, True)]
    )
    def test_rejects_bools(self, args):
        with pytest.raises(InvalidSurface):
            surface_embeds(*args)
