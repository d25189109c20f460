"""Exact integer linear algebra: Smith normal form and Diophantine systems.

Everything here runs on Python's arbitrary-precision integers; there is no
floating point and no modular shortcut anywhere.  The two consumers are the
homology layer (deciding whether a prescribed map of first-homology groups
exists, which is a linear Diophantine system) and the certificate
checkers, which need the explicit unimodular transforms.

:class:`HomFeasibility` holds the one formulation of the homology system:
it answers the witness search's many feasibility queries from factors it
computes once, and solves the same system for the matrix of a witness;
:func:`hom_exists` is a wrapper over the latter.

Smith normal form is computed by classical gcd-driven row/column
elimination with a minimal-|entry| pivot rule, which keeps intermediate
entries small at the scales this package sees and, more importantly, makes
the output a deterministic function of the input so that witnesses and
certificates are byte-stable across runs.
"""

from __future__ import annotations

import math
import operator
from typing import Dict, List, Optional, Sequence, Tuple

from .model import DegreeTuple, LengthMismatch, _Record, _require_ints


class DimensionMismatch(ValueError):
    """Raised when matrix/vector shapes are incompatible."""


class IntMatrix(_Record):
    """Immutable dense matrix of Python ints.

    Deliberately tiny: construction, multiplication, and matrix-vector
    products are all the solver needs.  A frozen record of one field,
    ``data``, the rows as a tuple of tuples; ``rows`` and ``cols`` are
    derived from it.  Equality and hashing are structural, and it prints
    and serializes as its list of rows.
    """

    data: tuple

    def __post_init__(self) -> None:
        rows = tuple(_require_ints(row, "matrix") for row in self.data)
        if not rows or not rows[0]:
            raise DimensionMismatch("matrix must have at least one row and one column")
        width = len(rows[0])
        if any(len(r) != width for r in rows):
            raise DimensionMismatch("ragged rows in matrix input")
        object.__setattr__(self, "data", rows)
        object.__setattr__(self, "rows", len(rows))
        object.__setattr__(self, "cols", width)

    def column(self, j: int) -> Tuple[int, ...]:
        return tuple(r[j] for r in self.data)

    def mul(self, other: "IntMatrix") -> "IntMatrix":
        if self.cols != other.rows:
            raise DimensionMismatch(
                f"cannot multiply {self.rows}x{self.cols} by {other.rows}x{other.cols}"
            )
        ot = tuple(zip(*other.data))
        return IntMatrix(
            [[sum(a * b for a, b in zip(row, col)) for col in ot] for row in self.data]
        )

    def vecmul(self, v: Sequence[int]) -> Tuple[int, ...]:
        """Matrix times column vector."""
        if len(v) != self.cols:
            raise DimensionMismatch(f"vector length {len(v)} != {self.cols} columns")
        return tuple(sum(a * b for a, b in zip(row, v)) for row in self.data)

    def diagonal(self) -> Tuple[int, ...]:
        return tuple(self.data[i][i] for i in range(min(self.rows, self.cols)))

    def __repr__(self) -> str:
        return f"IntMatrix({[list(r) for r in self.data]})"

    def to_json(self) -> list:
        return [list(r) for r in self.data]


class SnfDecomposition(_Record):
    """U * A * V = D with U, V unimodular and D in Smith normal form.

    D is rectangular-diagonal with nonnegative diagonal entries, each
    dividing the next (trailing zeros allowed).
    """

    u: IntMatrix
    d: IntMatrix
    v: IntMatrix

    def diagonal(self) -> Tuple[int, ...]:
        return self.d.diagonal()


def smith_normal_form(a: IntMatrix) -> SnfDecomposition:
    """Compute the Smith normal form of an integer matrix.

    Classical elimination: repeatedly move the nonzero entry of minimal
    absolute value (first such in row-major order) to the pivot position,
    clear its row and column with integer row/column operations, and when a
    remaining entry is not divisible by the pivot, fold its row into the
    pivot row and re-eliminate; the pivot's absolute value strictly drops,
    so this terminates.  Signs are normalized at the end.  All row
    operations are mirrored on U and all column operations on V, so
    U * A * V = D holds exactly and |det U| = |det V| = 1 by construction
    (swaps, unit shears, and row negations only).
    """
    return SnfDecomposition(*map(IntMatrix, _smith(a.data)))


def _smith(rows: Sequence[Sequence[int]]) -> Tuple[list, list, list]:
    """U, D and V of :func:`smith_normal_form`, as lists of rows, for a
    matrix given as its nonempty rows of ints; no record is built."""
    m, n = len(rows), len(rows[0])
    d = [list(row) for row in rows]
    u = [[int(i == j) for j in range(m)] for i in range(m)]
    v = [[int(i == j) for j in range(n)] for i in range(n)]

    def swap_rows(i: int, j: int) -> None:
        d[i], d[j] = d[j], d[i]
        u[i], u[j] = u[j], u[i]

    def swap_cols(i: int, j: int) -> None:
        for r in d:
            r[i], r[j] = r[j], r[i]
        for r in v:
            r[i], r[j] = r[j], r[i]

    def add_row(src: int, dst: int, c: int) -> None:
        # row[dst] += c * row[src]
        d[dst] = [x + c * y for x, y in zip(d[dst], d[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src: int, dst: int, c: int) -> None:
        for r in d:
            r[dst] += c * r[src]
        for r in v:
            r[dst] += c * r[src]

    def find_pivot(t: int) -> Optional[Tuple[int, int]]:
        best = None
        where = None
        for i in range(t, m):
            for j in range(t, n):
                e = abs(d[i][j])
                if e and (best is None or e < best):
                    best, where = e, (i, j)
        return where

    rank = min(m, n)
    for t in range(rank):
        while True:
            piv = find_pivot(t)
            if piv is None:
                break
            if piv[0] != t:
                swap_rows(t, piv[0])
            if piv[1] != t:
                swap_cols(t, piv[1])
            # Clear column t below the pivot and row t to its right.  If a
            # remainder survives (entry not divisible by the pivot), loop:
            # the new minimal entry is strictly smaller in absolute value.
            p = d[t][t]
            for i in range(t + 1, m):
                if d[i][t]:
                    add_row(t, i, -(d[i][t] // p))
            for j in range(t + 1, n):
                if d[t][j]:
                    add_col(t, j, -(d[t][j] // p))
            if any(d[i][t] for i in range(t + 1, m)) or any(
                d[t][j] for j in range(t + 1, n)
            ):
                continue
            # Enforce divisibility of the remaining block by the pivot.
            p = d[t][t]
            offender = None
            for i in range(t + 1, m):
                for j in range(t + 1, n):
                    if d[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            add_row(offender, t, 1)
        if d[t][t] == 0:
            break  # remaining block is identically zero
    for t in range(rank):
        if d[t][t] < 0:
            d[t] = [-x for x in d[t]]
            u[t] = [-x for x in u[t]]
    return u, d, v


def solve_diophantine(
    a: IntMatrix, b: Sequence[int]
) -> Optional[Tuple[Tuple[int, ...], Tuple[Tuple[int, ...], ...]]]:
    """Solve A x = b over the integers.

    Returns ``(x0, basis)`` where ``x0`` is one solution and ``basis`` is a
    tuple of generators of the solution lattice of A x = 0 (possibly empty),
    or None when no integer solution exists.  Every solution is x0 plus an
    integer combination of the basis vectors.

    Method: with U A V = D, the system becomes D y = U b; solvability is a
    per-row divisibility check, and x = V y pulls solutions back.
    """
    if len(b) != a.rows:
        raise DimensionMismatch(f"rhs length {len(b)} != {a.rows} rows")
    snf = smith_normal_form(a)
    c = snf.u.vecmul(b)
    m, n = a.rows, a.cols
    diag = snf.d.diagonal()
    y = [0] * n
    for i in range(m):
        di = diag[i] if i < len(diag) else 0
        if di:
            q, r = divmod(c[i], di)
            if r:
                return None
            y[i] = q
        elif c[i]:
            return None
    x0 = snf.v.vecmul(y)
    free = [j for j in range(n) if j >= len(diag) or diag[j] == 0]
    basis = tuple(snf.v.column(j) for j in free)
    return x0, basis


def hom_exists(
    degrees: Sequence[int],
    target_degrees: Sequence[int],
    pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> Optional[IntMatrix]:
    """An integer matrix M inducing a homomorphism H_1 of one complement ->
    H_1 of another that sends class(x) to class(y) for every (x, y) in
    ``pairs``, or None when there is none.

    A wrapper over :meth:`HomFeasibility.matrix`, which describes the
    system; the vectors may be any int sequences.
    """
    return HomFeasibility(degrees, target_degrees).matrix(
        [(_require_ints(x, "source vector"), _require_ints(y, "target vector")) for x, y in pairs]
    )


class HomFeasibility:
    """The homomorphism system for one pair of degree tuples d and d'.

    H_1 of a k-component complement is Z^k modulo the degree vector d.  A
    homomorphism Z^k/(d) -> Z^k'/(d') is induced by any integer matrix M
    with M d a multiple of d'; it sends the class of x to the class of M x.
    Given pairs (x_1, y_1), ..., (x_L, y_L), the system asks for M with
    M d = t d' and M x_i - y_i = s_i d' for integers t and s_i.

    Choose W unimodular with W d' = (g', 0, ..., 0) and write N = W M.  The
    system then splits into independent rows of N.  With
    A = [d; x_1; ...; x_L] and b_r = (0, (W y_1)_r, ..., (W y_L)_r), row
    r >= 1 must solve A n = b_r exactly and row 0 must solve it modulo g'.
    If U A V = D is a Smith normal form, A n = b is solvable iff every
    (U b)_i is divisible by D_ii (and is zero where D_ii = 0), and
    A n = b mod g' is solvable iff every (U b)_i is divisible by
    gcd(D_ii, g') (Kannan and Bachem 1979; Cohen, A Course in Computational
    Algebraic Number Theory, section 2.4).

    :meth:`exists` answers the many feasibility queries of a search: W is
    computed once, (U, D) once per distinct tuple of source vectors and
    W y once per distinct target vector, so a repeated query costs a small
    matrix-vector product and the divisibility checks.  :meth:`matrix`
    solves the same rows for a witness.  Vectors must be tuples of ints,
    because they are cache keys.
    """

    def __init__(self, degrees: Sequence[int], target_degrees: Sequence[int]) -> None:
        self.degrees = DegreeTuple(degrees)
        self.target_degrees = DegreeTuple(target_degrees)
        snf = smith_normal_form(IntMatrix([[e] for e in self.target_degrees]))
        self._w = snf.u
        self._g = snf.d.data[0][0]
        self._images: Dict[Tuple[int, ...], Tuple[int, ...]] = {}
        # source tuple -> [(row of U without its first column, D_ii, gcd(D_ii, g'))]
        self._checks: Dict[tuple, List[Tuple[Tuple[int, ...], int, int]]] = {}

    def exists(self, pairs: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]) -> bool:
        """Whether the system for ``pairs`` has an integer solution."""
        sources = tuple(x for x, _ in pairs)
        checks = self._checks.get(sources)
        if checks is None:
            checks = self._checks[sources] = self._factor(sources)
        images = self._images
        columns = []
        for _, y in pairs:
            image = images.get(y)
            if image is None:
                image = images[y] = self._image(y)
            columns.append(image)
        for r, b in enumerate(zip(*columns)):
            for row, exact, modular in checks:
                c = sum(map(operator.mul, row, b))
                m = exact if r else modular
                if (c % m if m else c) != 0:
                    return False
        return True

    def matrix(
        self, pairs: Sequence[Tuple[Tuple[int, ...], Tuple[int, ...]]]
    ) -> Optional[IntMatrix]:
        """The matrix M of one solution of the system for ``pairs``, or None
        exactly when :meth:`exists` is False; deterministic.

        Row 0 of N solves [A | g' I] n = b_0, rows r >= 1 solve A n = b_r,
        and M = W^-1 N with W^-1 = V_2 U_2 from the Smith form U_2 W V_2 = I.
        """
        a = IntMatrix(self._source_rows(tuple(x for x, _ in pairs)))
        columns = [self._image(y) for _, y in pairs]
        g, m = self._g, a.rows
        # [A | g' I]: one extra unknown per equation absorbs a multiple of g'
        shifted = IntMatrix(
            [(*row, *(g if i == j else 0 for j in range(m))) for i, row in enumerate(a.data)]
        )
        rows = []
        for r in range(len(self.target_degrees)):
            sol = solve_diophantine(a if r else shifted, [0, *(b[r] for b in columns)])
            if sol is None:
                return None
            rows.append(sol[0][: a.cols])
        snf = smith_normal_form(self._w)
        return snf.v.mul(snf.u).mul(IntMatrix(rows))

    def _source_rows(self, sources: tuple) -> tuple:
        k = len(self.degrees)
        for x in sources:
            if len(x) != k:
                raise LengthMismatch(f"source vector length {len(x)} != {k}")
        return (self.degrees, *sources)

    def _factor(self, sources: tuple) -> List[Tuple[Tuple[int, ...], int, int]]:
        u, d, _ = _smith(self._source_rows(sources))
        checks = []
        for i, row in enumerate(u):
            exact = d[i][i] if i < len(d[0]) else 0
            # b_0 = 0, so the first column of U never contributes; a unit
            # D_ii divides everything and needs no check.
            if exact != 1 and any(row[1:]):
                checks.append((tuple(row[1:]), exact, math.gcd(exact, self._g)))
        return checks

    def _image(self, y: Tuple[int, ...]) -> Tuple[int, ...]:
        kp = len(self.target_degrees)
        if len(y) != kp:
            raise LengthMismatch(f"target vector length {len(y)} != {kp}")
        return self._w.vecmul(y)
