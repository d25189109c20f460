"""Every rejection branch of the evidence checkers, reached by corrupting
one field of genuine evidence at a time.

Each test starts from evidence the package itself produced and accepts,
breaks one field, and asserts the named problem, the False, or the
exception.  A corruption is picked to reach its branch: an all-zero matrix
still sends the source relation into the target relation, for example, so
the relation test uses ``[[1, 0], [0, 0]]``.
"""

import pytest

from hsembed import (
    COMBINE,
    Certificate,
    DecompositionWitness,
    DimensionMismatch,
    FeasibilityWitness,
    FormalCurveSpec,
    InconsistentHomology,
    IntMatrix,
    InvalidMove,
    LIOUVILLE,
    Move,
    MoveSequence,
    OrbitClass,
    Verdict,
    WITNESS_INFEASIBLE,
    check_feasibility_witness,
    decide,
    leqq_decomposition,
    replay_certificate,
    solve_diophantine,
    verify_verdict,
    witness_search,
)


def _corrupt(w: FeasibilityWitness, **fields) -> FeasibilityWitness:
    return FeasibilityWitness(**{**w.to_json(), **fields})


@pytest.fixture(scope="module")
def witness() -> FeasibilityWitness:
    # l = 5 and q = 2 in l's range [4, 7]
    w = witness_search(2, (2, 2), (4, 3)).witness
    assert (w.l, w.q, w.matrix) == (5, 2, IntMatrix([[3, 1], [3, 0]]))
    assert check_feasibility_witness(w) == []
    return w


class TestFeasibilityWitnessChecker:
    @pytest.mark.parametrize(
        "fields, problem",
        [
            ({"l": 3}, "l = 3 outside [4, 7]"),
            ({"q": 0}, "q = 0 is not positive"),
            ({"q": 3}, "q-inequality fails: 3*(4-2-1) > 5-2-1"),
            ({"l": 4}, "xs/ys length differs from l"),  # in range: only the length fails
            ({"matrix": [[3, 1]]}, "matrix is 1x2, expected 2x2"),
            (
                {"matrix": [[1, 0], [0, 0]]},
                "matrix does not send the source relation into the target relation",
            ),
        ],
        ids=["l_out_of_range", "q_not_positive", "q_inequality", "length", "matrix_shape",
             "relation"],
    )
    def test_names_the_broken_field(self, witness, fields, problem):
        assert problem in check_feasibility_witness(_corrupt(witness, **fields))

    def test_names_a_mismatched_image(self, witness):
        # the same target parts, paired in another order
        ys = (witness.ys[1], witness.ys[0]) + witness.ys[2:]
        assert check_feasibility_witness(_corrupt(witness, ys=ys)) == [
            f"matrix image of {witness.xs[0]} is not {ys[0]} modulo the target relation",
            f"matrix image of {witness.xs[1]} is not {ys[1]} modulo the target relation",
        ]

    def test_names_a_source_vector_meeting_more_than_n_components(self):
        w = witness_search(2, (1, 1, 1), (1, 1, 1)).witness
        assert check_feasibility_witness(w) == []
        xs = ((1, 1, 1),) + w.xs[1:]
        problems = check_feasibility_witness(_corrupt(w, xs=xs))
        assert "source vector (1, 1, 1) meets more than n components" in problems


class TestVerdictReplay:
    def test_search_certificate_that_no_longer_exhausts_does_not_stand(self):
        cert = decide(2, (3, 3), (5, 5)).certificate
        assert cert.rule == WITNESS_INFEASIBLE and replay_certificate(cert)
        budget = {**cert.data["budget"], "call_cap": 1}  # the replay stops at call 2
        capped = Certificate(cert.rule, {**cert.data, "budget": budget}, cert.search_bounds)
        assert replay_certificate(capped) is False

    def test_yes_with_a_witness_of_unknown_type_does_not_verify(self):
        v = Verdict.yes({"type": "handle_attachment"})
        assert verify_verdict(2, (3, 2, 2), (7, 2), LIOUVILLE, v) is False

    def test_unknown_verifies_as_it_stands(self):
        v = Verdict.unknown("no rung answered")
        assert verify_verdict(2, (3, 3), (7, 7), LIOUVILLE, v) is True


class TestOrderEvidence:
    @pytest.mark.parametrize(
        "rows",
        [((2,),), ((2, 1), (0, 0)), ((3, -1),), ((0, 0),)],
        ids=["short_row", "extra_row", "negative_entry", "zero_row"],
    )
    def test_decomposition_with_a_broken_row_is_invalid(self, rows):
        z = leqq_decomposition((2,), (4, 2))
        assert z is not None and z.is_valid()
        assert DecompositionWitness(z.source, z.target, rows).is_valid() is False

    def test_sequence_with_an_out_of_range_move_is_invalid(self):
        seq = MoveSequence((3, 2, 2), (7, 2), (Move(COMBINE, 0, 5),))
        assert seq.is_valid() is False


class TestRecordsRejectBadFields:
    def test_verdict_of_unknown_kind(self):
        with pytest.raises(ValueError, match="unknown verdict kind 'MAYBE'"):
            Verdict("MAYBE", reason="neither")

    def test_move_of_unknown_op(self):
        with pytest.raises(InvalidMove, match="unknown move op 'split'"):
            Move("split", 0)

    def test_vecmul_of_a_vector_of_another_length(self):
        with pytest.raises(DimensionMismatch, match="vector length 3 != 2 columns"):
            IntMatrix([[1, 2], [3, 4]]).vecmul((1, 1, 1))

    def test_diophantine_right_hand_side_of_another_length(self):
        with pytest.raises(DimensionMismatch, match="rhs length 2 != 1 rows"):
            solve_diophantine(IntMatrix([[3, 5]]), (1, 1))

    def test_curve_end_on_another_complement(self):
        ends = (OrbitClass(2, (2, 1), (2, 1), delta=1),)
        assert FormalCurveSpec(2, (2, 1), ends, q=1).q == 1
        foreign = (OrbitClass(2, (3, 1), (2, 1), delta=1),)
        with pytest.raises(InconsistentHomology, match="same complement"):
            FormalCurveSpec(2, (2, 1), foreign, q=1)
