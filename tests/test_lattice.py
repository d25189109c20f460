"""Exact integer linear algebra: Smith form, Diophantine systems, hom search."""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from hsembed import (
    DegreeTuple,
    DimensionMismatch,
    IntMatrix,
    LengthMismatch,
    hom_exists,
    smith_normal_form,
    solve_diophantine,
)
from hsembed.lattice import HomFeasibility

from oracles import det_bareiss, rational_solve, solve_system_boxed

small_matrices = st.integers(min_value=1, max_value=4).flatmap(
    lambda r: st.integers(min_value=1, max_value=4).flatmap(
        lambda c: st.lists(
            st.lists(st.integers(min_value=-9, max_value=9), min_size=c, max_size=c),
            min_size=r,
            max_size=r,
        )
    )
)


class TestIntMatrix:
    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            IntMatrix([])
        with pytest.raises(ValueError):
            IntMatrix([[]])

    def test_rejects_ragged(self):
        with pytest.raises(ValueError):
            IntMatrix([[1, 2], [3]])

    def test_mul_identity(self):
        m = IntMatrix([[1, 2], [3, 4]])
        identity = IntMatrix([[1, 0], [0, 1]])
        assert identity.mul(m) == m
        assert m.mul(identity) == m

    def test_vecmul(self):
        m = IntMatrix([[1, 2], [3, 4]])
        assert m.vecmul((1, 1)) == (3, 7)

    def test_mul_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            IntMatrix([[1, 2]]).mul(IntMatrix([[1, 2]]))


class TestSmithNormalForm:
    def test_frozen_example(self):
        s = smith_normal_form(IntMatrix([[2, 4], [6, 8]]))
        assert s.diagonal() == (2, 4)

    def test_single_entry(self):
        assert smith_normal_form(IntMatrix([[-6]])).diagonal() == (6,)

    def test_zero_matrix(self):
        s = smith_normal_form(IntMatrix([[0, 0], [0, 0]]))
        assert s.diagonal() == (0, 0)

    def test_wide_and_tall(self):
        assert smith_normal_form(IntMatrix([[2, 3, 4]])).diagonal() == (1,)
        assert smith_normal_form(IntMatrix([[2], [3], [4]])).diagonal() == (1,)

    @given(small_matrices)
    @settings(max_examples=150)
    def test_invariants(self, rows):
        m = IntMatrix(rows)
        s = smith_normal_form(m)
        # factorization holds exactly
        assert s.u.mul(m).mul(s.v) == s.d
        # transforms are unimodular
        assert abs(det_bareiss(s.u.data)) == 1
        assert abs(det_bareiss(s.v.data)) == 1
        diag = s.diagonal()
        # nonnegative with zeros trailing, each dividing the next
        assert all(e >= 0 for e in diag)
        nz = [e for e in diag if e]
        assert list(diag[: len(nz)]) == nz
        assert all(nz[i + 1] % nz[i] == 0 for i in range(len(nz) - 1))
        # off-diagonal of d vanishes
        assert all(
            s.d.data[i][j] == 0
            for i in range(s.d.rows)
            for j in range(s.d.cols)
            if i != j
        )


class TestSolveDiophantine:
    def test_single_equation(self):
        x0, basis = solve_diophantine(IntMatrix([[3, 5]]), (1,))
        assert 3 * x0[0] + 5 * x0[1] == 1
        assert len(basis) == 1
        assert 3 * basis[0][0] + 5 * basis[0][1] == 0

    def test_inconsistent(self):
        assert solve_diophantine(IntMatrix([[2, 4]]), (3,)) is None

    def test_rationally_solvable_but_not_integrally(self):
        # 2x = 1 has the rational solution 1/2 only
        assert rational_solve([[2]], [1]) is not None
        assert solve_diophantine(IntMatrix([[2]]), (1,)) is None

    def test_exhaustive_1x1(self):
        for a in range(-6, 7):
            for b in range(-6, 7):
                got = solve_diophantine(IntMatrix([[a]]), (b,))
                if a == 0:
                    assert (got is not None) == (b == 0)
                else:
                    assert (got is not None) == (b % a == 0)
                if got is not None:
                    x0, basis = got
                    assert a * x0[0] == b

    @pytest.mark.parametrize("seed", range(8))
    def test_random_systems_match_boxed_search(self, seed):
        rng = random.Random(seed)
        for _ in range(40):
            nrows = rng.randint(1, 3)
            ncols = rng.randint(1, 3)
            rows = [[rng.randint(-5, 5) for _ in range(ncols)] for _ in range(nrows)]
            rhs = tuple(rng.randint(-5, 5) for _ in range(nrows))
            got = solve_diophantine(IntMatrix(rows), rhs)
            brute = solve_system_boxed(rows, rhs, box=8)
            if got is not None:
                x0, basis = got
                assert all(
                    sum(a * x for a, x in zip(row, x0)) == b
                    for row, b in zip(rows, rhs)
                )
                for vec in basis:
                    assert all(sum(a * x for a, x in zip(row, vec)) == 0 for row in rows)
            elif brute is not None:
                raise AssertionError(
                    f"solver missed a solution: rows={rows} rhs={rhs} brute={brute}"
                )

    def test_solution_set_coverage_small(self):
        # every boxed solution must be x0 plus an integer combination of basis
        rows = [[2, 3, 1]]
        rhs = (4,)
        got = solve_diophantine(IntMatrix(rows), rhs)
        assert got is not None
        x0, basis = got
        for cand in itertools.product(range(-3, 4), repeat=3):
            if 2 * cand[0] + 3 * cand[1] + cand[2] != 4:
                continue
            diff = tuple(c - x for c, x in zip(cand, x0))
            combo = solve_system_boxed(
                [[vec[i] for vec in basis] for i in range(3)], diff, box=30
            )
            assert combo is not None, f"{cand} not reachable from x0 over the basis"


class TestHomExists:
    def test_trivial_pair_solves(self):
        m = hom_exists((2,), (4, 2), [((2,), (4, 2))])
        assert m is not None
        # image of the generator line lies on the target line
        img = m.vecmul((2,))
        assert img[0] * 2 == img[1] * 4  # proportional to (4, 2)

    def test_obstructed_pair(self):
        # the source class is zero, the target class is not
        assert hom_exists((2,), (4, 2), [((2,), (1, 1))]) is None

    def test_pair_order_irrelevant(self):
        pairs = [((1, 0), (1, 0, 0)), ((0, 1), (0, 1, 1))]
        a = hom_exists((2, 2), (3, 1, 1), pairs)
        b = hom_exists((2, 2), (3, 1, 1), list(reversed(pairs)))
        assert (a is None) == (b is None)

    def test_length_mismatch(self):
        with pytest.raises(LengthMismatch):
            hom_exists((2,), (4, 2), [((1, 1), (1, 1))])
        with pytest.raises(LengthMismatch):
            hom_exists((2,), (4, 2), [((2,), (1,))])

    def test_solution_satisfies_congruences(self):
        degrees, target = (2, 2), (4, 2, 2)
        pairs = [((1, 1), (2, 1, 1)), ((2, 2), (4, 2, 2))]
        m = hom_exists(degrees, target, pairs)
        assert m is not None
        # relation compatibility: M d lies on the line Z * target
        img = m.vecmul(degrees)
        assert rational_solve([[t] for t in target], list(img)) is not None
        for x, y in pairs:
            diff = tuple(a - b for a, b in zip(m.vecmul(x), y))
            # difference must be an integer multiple of target
            ratios = {a // t for a, t in zip(diff, target) if t}
            assert len(ratios) == 1
            t0 = ratios.pop()
            assert all(a == t0 * t for a, t in zip(diff, target))


def hom_system(degrees, target, pairs):
    """The linear system whose integer solutions are the matrices M with
    M d = t d' and M x_i - y_i = s_i d'; unknowns are M row-major, t, s_i."""
    d, dp = DegreeTuple(degrees), DegreeTuple(target)
    k, kp, npairs = len(d), len(dp), len(pairs)
    ncols = kp * k + 1 + npairs
    rows, rhs = [], []
    for r in range(kp):
        row = [0] * ncols
        row[r * k : (r + 1) * k] = d
        row[kp * k] = -dp[r]
        rows.append(row)
        rhs.append(0)
    for i, (x, y) in enumerate(pairs):
        for r in range(kp):
            row = [0] * ncols
            row[r * k : (r + 1) * k] = x
            row[kp * k + 1 + i] = -dp[r]
            rows.append(row)
            rhs.append(y[r])
    return rows, rhs


@st.composite
def hom_queries(draw):
    d = DegreeTuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    dp = DegreeTuple(draw(st.lists(st.integers(1, 6), min_size=1, max_size=3)))
    coords = st.integers(-4, 6)
    pair = st.tuples(
        st.tuples(*[coords] * len(d)), st.tuples(*[coords] * len(dp))
    )
    return d, dp, draw(st.lists(pair, max_size=4))


def on_target_line(vec, target):
    """Whether vec is an integer multiple of the target degree vector."""
    t = vec[0] // target[0]
    return all(v == t * e for v, e in zip(vec, target))


class TestHomFeasibility:
    @given(hom_queries())
    @settings(max_examples=300, deadline=None)
    def test_agrees_with_full_system(self, query):
        # the reference solves the whole system in one piece, with unknowns
        # M row-major, t and one s_i per pair
        d, dp, pairs = query
        rows, rhs = hom_system(d, dp, pairs)
        expected = solve_diophantine(IntMatrix(rows), rhs) is not None
        check = HomFeasibility(d, dp)
        assert check.exists(pairs) == expected
        # a second, cached answer is the same
        assert check.exists(pairs) == expected
        m = check.matrix(pairs)
        assert (m is not None) == expected
        if m is not None:
            assert (m.rows, m.cols) == (len(dp), len(d))
            assert on_target_line(m.vecmul(d), dp)
            for x, y in pairs:
                assert on_target_line([a - b for a, b in zip(m.vecmul(x), y)], dp)

    @pytest.mark.parametrize(
        "degrees, target, pairs, box",
        [
            ((2,), (4, 2), [((2,), (4, 2))], 3),
            ((2,), (4, 2), [((2,), (1, 1))], 3),
            # the target class must be odd on both generators: row 0 mod 2
            ((1, 1), (2,), [((1, 0), (1,)), ((0, 1), (1,))], 2),
            ((1, 1), (2,), [((1, 0), (1,)), ((0, 1), (0,))], 2),
            # Z/3 into Z/3 + Z: only the torsion part can be hit
            ((3,), (3, 3), [((1,), (1, 1))], 3),
            ((3,), (3, 3), [((1,), (1, 0))], 3),
            # the zero class cannot go to a class of infinite order
            ((1,), (1, 1), [((1,), (1, 0))], 3),
        ],
    )
    def test_small_systems_match_boxed_search(self, degrees, target, pairs, box):
        rows, rhs = hom_system(degrees, target, pairs)
        brute = solve_system_boxed(rows, rhs, box=box)
        assert HomFeasibility(degrees, target).exists(pairs) == (brute is not None)

    def test_length_mismatch(self):
        check = HomFeasibility((2,), (4, 2))
        for query in (check.exists, check.matrix):
            with pytest.raises(LengthMismatch):
                query([((1, 1), (1, 1))])
            with pytest.raises(LengthMismatch):
                query([((2,), (1,))])
