"""Independent brute-force reference implementations used to pin test values.

Everything here is deliberately naive: small search boxes, rational
arithmetic via fractions, no shared code with the package under test
beyond the DegreeTuple type that ``canonical_tuples`` hands out.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from operator import sub
from typing import Iterator, List, Optional, Sequence, Tuple

from hsembed import DegreeTuple


def canonical_tuples(max_sum: int, min_sum: int = 1) -> List[DegreeTuple]:
    """Every degree tuple with entry sum in [min_sum, max_sum], ordered by
    (sum, tuple)."""
    out = []

    def rec(remaining, largest, prefix):
        if not remaining:
            out.append(DegreeTuple(prefix))
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    for total in range(min_sum, max_sum + 1):
        rec(total, total, ())
    return sorted(out, key=lambda d: (d.total(), d))


def det_bareiss(rows: Sequence[Sequence[int]]) -> int:
    """Exact determinant of a square integer matrix (fraction-free Bareiss)."""
    n = len(rows)
    assert all(len(r) == n for r in rows)
    m = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def reduce_mod_line(vector: Sequence[int], modulus: Sequence[int]) -> Tuple[int, ...]:
    """Representative of ``vector`` modulo integer multiples of ``modulus``.

    Scans for the unique shift making the last coordinate land in
    ``[0, modulus[-1])`` — same normal form the package uses, derived
    independently by linear search over shifts.
    """
    assert len(vector) == len(modulus) and modulus[-1] > 0
    for t in range(-abs(vector[-1]) - 1, abs(vector[-1]) + 2):
        last = vector[-1] - t * modulus[-1]
        if 0 <= last < modulus[-1]:
            return tuple(v - t * m for v, m in zip(vector, modulus))
    raise AssertionError("unreachable: some shift always lands in range")


def solve_system_boxed(
    rows: Sequence[Sequence[int]], rhs: Sequence[int], box: int
) -> Optional[Tuple[int, ...]]:
    """Search integer solutions of ``rows @ x == rhs`` with ``|x_i| <= box``."""
    ncols = len(rows[0])
    for cand in itertools.product(range(-box, box + 1), repeat=ncols):
        if all(
            sum(a * x for a, x in zip(row, cand)) == b for row, b in zip(rows, rhs)
        ):
            return cand
    return None


def rational_solve(rows: Sequence[Sequence[int]], rhs: Sequence[int]) -> Optional[List[Fraction]]:
    """One rational solution of ``rows @ x == rhs`` by Gaussian elimination.

    Returns None when the system is inconsistent over the rationals
    (hence certainly over the integers).
    """
    nrows, ncols = len(rows), len(rows[0])
    aug = [[Fraction(v) for v in row] + [Fraction(b)] for row, b in zip(rows, rhs)]
    pivots: List[int] = []
    r = 0
    for c in range(ncols):
        pivot = next((i for i in range(r, nrows) if aug[i][c] != 0), None)
        if pivot is None:
            continue
        aug[r], aug[pivot] = aug[pivot], aug[r]
        inv = 1 / aug[r][c]
        aug[r] = [v * inv for v in aug[r]]
        for i in range(nrows):
            if i != r and aug[i][c] != 0:
                f = aug[i][c]
                aug[i] = [v - f * w for v, w in zip(aug[i], aug[r])]
        pivots.append(c)
        r += 1
        if r == nrows:
            break
    for i in range(r, nrows):
        if aug[i][ncols] != 0:
            return None
    x = [Fraction(0)] * ncols
    for row_idx, c in enumerate(pivots):
        x[c] = aug[row_idx][ncols]
    return x


def smallest_multiplier(degrees: Sequence[int], n: int) -> int:
    """Least i >= 1 such that every degree divides i * (n + 1) times its gcd share.

    Concretely: least i with gcd(degrees) | i * (n + 1), found by scanning.
    """
    g = math.gcd(*degrees)
    i = 1
    while (i * (n + 1)) % g != 0:
        i += 1
    return i


def partitions_of_vector(
    target: Sequence[int], parts: int, max_support: int
) -> List[Tuple[Tuple[int, ...], ...]]:
    """All multisets of ``parts`` nonzero nonnegative vectors summing to ``target``.

    Each vector must have at most ``max_support`` nonzero coordinates.  The
    multiset is canonicalized as a descending-lex-sorted tuple.  Exponential:
    only usable for tiny inputs.
    """
    k = len(target)
    cells: List[Tuple[int, ...]] = []
    for cand in itertools.product(*(range(t + 1) for t in target)):
        if any(cand) and sum(1 for c in cand if c) <= max_support:
            cells.append(cand)
    found = set()
    for combo in itertools.combinations_with_replacement(cells, parts):
        sums = [sum(v[i] for v in combo) for i in range(k)]
        if sums == list(target):
            found.add(tuple(sorted(combo, reverse=True)))
    return sorted(found, reverse=True)


def ranked_split_partitions(
    target: Sequence[int], parts: int, max_support: int
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The same multisets as ``partitions_of_vector``, in the same order,
    by a ranked part list and a recursive split.

    Every admissible part is listed once, in descending lexicographic
    order, and ranked by its place in that list.  The split takes a part of
    rank i and splits what is left into one part fewer, with parts of rank
    i or more; the last part is forced to be what is left.  Lazy, so it
    reaches cells far too large for ``partitions_of_vector``.  Expects
    valid arguments and does not check them.
    """
    tgt = tuple(target)
    m = len(tgt)

    part_list: List[Tuple[int, ...]] = []
    prefix: List[int] = []

    def list_parts(idx: int, support: int) -> None:
        if idx == m:
            if support:
                part_list.append(tuple(prefix))
            return
        for c in range(tgt[idx], -1, -1):
            if c and support == max_support:
                continue
            prefix.append(c)
            list_parts(idx + 1, support + (1 if c else 0))
            prefix.pop()

    list_parts(0, 0)
    rank = {w: i for i, w in enumerate(part_list)}

    def split(
        remaining: Tuple[int, ...], nparts: int, start: int
    ) -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if nparts == 1:
            if rank.get(remaining, -1) >= start:
                yield (remaining,)
            return
        if sum(remaining) < nparts:  # every part must be nonzero
            return
        if sum(1 for c in remaining if c) > nparts * max_support:
            return
        lead = remaining[0]
        for i in range(start, len(part_list)):
            w = part_list[i]
            if w[0] * nparts < lead:  # no part from here on has a larger lead
                break
            rest = tuple(map(sub, remaining, w))
            if min(rest) < 0:
                continue
            for tail in split(rest, nparts - 1, i):
                yield (w,) + tail

    return split(tgt, parts, 0)


def _assignments(
    group_sizes: Sequence[int], class_sizes: Sequence[int]
) -> Iterator[Tuple[int, ...]]:
    """Ways to send each source-residue group wholly into one target-residue
    class so that every class is filled exactly.

    Yields tuples f with f[g] = class index; deterministic lexicographic
    order.  This is exactly the matching constraint: paired vectors with
    equal source residues must share a target residue, so a pairing is a
    function on residue groups, and filling each class exactly is the
    multiset condition.
    """
    remaining = list(class_sizes)
    n_groups = len(group_sizes)
    choice: List[int] = []

    def rec(g: int) -> Iterator[Tuple[int, ...]]:
        if g == n_groups:
            if all(c == 0 for c in remaining):
                yield tuple(choice)
            return
        size = group_sizes[g]
        for h in range(len(remaining)):
            if remaining[h] >= size:
                remaining[h] -= size
                choice.append(h)
                yield from rec(g + 1)
                choice.pop()
                remaining[h] += size

    return rec(0)


def surface_embeds_naive(g: int, k: int, gt: int, kt: int) -> bool:
    """Genus/puncture criterion restated from scratch."""
    return g <= gt and k - kt <= gt - g
