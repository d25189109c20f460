"""The constructive partial order on degree tuples, with explicit witnesses.

One arrangement complement sits below another when the source degree tuple
can be rewritten into the target by a finite sequence of two moves:

* ``combine``: replace two entries by their sum (geometrically, smoothing
  the union of two hypersurfaces into one of the total degree);
* ``duplicate``: repeat an entry (splitting a hypersurface into two parallel
  copies of the same degree).

Both moves yield explicit Weinstein (hence Liouville) embeddings, so a move
sequence is a checkable YES-witness.  :func:`leqq` decides the order by a
direct decomposition criterion (the target is an exact nonnegative
combination d'_j = sum_i z_{ij} d_i with every row of the matrix z used) and
turns the matrix z into a move sequence.  :func:`leqq_bfs`, a best-first
search over canonical tuples that returns a shortest move sequence, is the
independent reference the tests compare the decomposition against.

This module also settles the one-dimensional analogue: complements of
finite sets of points in a curve of genus g, where the embedding question
is a closed-form inequality.
"""

from __future__ import annotations

from functools import lru_cache
from typing import List, Optional, Sequence, Tuple

from .model import DegreeTuple, _Record, _require_int, _require_ints, _SparseRecord

COMBINE = "combine"
DUPLICATE = "duplicate"


class InvalidSurface(ValueError):
    """Raised on malformed genus/puncture data for the curve case."""


class InvalidMove(ValueError):
    """Raised when a move's indices do not fit the current tuple."""


class Move(_SparseRecord):
    """A single rewriting move, indexed into the *current canonical* tuple.

    ``combine`` merges entries at positions i < j; ``duplicate`` repeats the
    entry at position i.  After each move the tuple is re-canonicalized
    (sorted non-increasing), and the next move's indices refer to the new
    ordering.  Indices must be nonnegative ints (InvalidMove otherwise).
    """

    op: str
    i: int
    j: Optional[int] = None

    def __post_init__(self) -> None:
        if self.op not in (COMBINE, DUPLICATE):
            raise InvalidMove(f"unknown move op {self.op!r}")
        _require_int(self.i, "move index", 0, InvalidMove)
        if self.op == COMBINE:
            if self.j is None:
                raise InvalidMove("combine requires two indices")
            _require_int(self.j, "move index", 0, InvalidMove)
        elif self.j is not None:
            raise InvalidMove("duplicate takes a single index")

    def key(self) -> Tuple[int, int, int]:
        """Sort key: combines before duplicates, then by indices."""
        if self.op == COMBINE:
            return (0, self.i, self.j)  # type: ignore[return-value]
        return (1, self.i, 0)

    def apply(self, state: Tuple[int, ...]) -> Tuple[int, ...]:
        """Apply to a canonical tuple, returning a canonical tuple."""
        n = len(state)
        if self.op == COMBINE:
            if not (0 <= self.i < self.j < n):  # type: ignore[operator]
                raise InvalidMove(f"combine({self.i},{self.j}) out of range for length {n}")
            merged = state[self.i] + state[self.j]  # type: ignore[index]
            rest = [e for idx, e in enumerate(state) if idx not in (self.i, self.j)]
            rest.append(merged)
            return tuple(sorted(rest, reverse=True))
        if not 0 <= self.i < n:
            raise InvalidMove(f"duplicate({self.i}) out of range for length {n}")
        return tuple(sorted(state + (state[self.i],), reverse=True))


class MoveSequence(_Record):
    """A replayable sequence of moves from one degree tuple to another."""

    source: DegreeTuple
    target: DegreeTuple
    moves: Tuple[Move, ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", DegreeTuple(self.source))
        object.__setattr__(self, "target", DegreeTuple(self.target))
        object.__setattr__(self, "moves", tuple(self.moves))

    def replay(self) -> DegreeTuple:
        """Re-apply every move from the source; raises InvalidMove on a bad
        index, returns the final tuple (callers compare against target)."""
        state = tuple(self.source)
        for mv in self.moves:
            state = mv.apply(state)
        return DegreeTuple(state)

    def is_valid(self) -> bool:
        try:
            return self.replay() == self.target
        except InvalidMove:
            return False

    def __len__(self) -> int:
        return len(self.moves)


class DecompositionWitness(_Record):
    """Matrix certificate for the partial order.

    ``rows`` is one integer vector z_i per source entry, nonnegative and
    nonzero, with sum_i z_{ij} * d_i = d'_j for every target position j.
    Row i says how copies of the degree-d_i hypersurface are distributed
    over the target components.
    """

    source: DegreeTuple
    target: DegreeTuple
    rows: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "source", DegreeTuple(self.source))
        object.__setattr__(self, "target", DegreeTuple(self.target))
        object.__setattr__(
            self, "rows", tuple(_require_ints(r, "decomposition row") for r in self.rows)
        )

    def is_valid(self) -> bool:
        d, dp, z = self.source, self.target, self.rows
        if len(z) != len(d) or any(len(r) != len(dp) for r in z):
            return False
        if any(any(c < 0 for c in r) for r in z):
            return False
        if any(all(c == 0 for c in r) for r in z):
            return False
        return all(
            sum(z[i][j] * d[i] for i in range(len(d))) == dp[j]
            for j in range(len(dp))
        )

    def to_moves(self) -> MoveSequence:
        """A move sequence realizing this decomposition.

        Duplicates each source entry d_i until there are sum_j z_{ij}
        copies, then builds each target entry d'_j by combining its column's
        copies one at a time: 2 * sum(z) - k - k' moves in all.  Each move
        finds its indices by value in the current canonical tuple; equal
        entries are interchangeable, so any position holding the value will
        do.  The sequence replays to the target when :meth:`is_valid` holds.
        """
        state = tuple(self.source)
        moves: List[Move] = []

        def play(mv: Move) -> None:
            nonlocal state
            state = mv.apply(state)
            moves.append(mv)

        for e, row in zip(self.source, self.rows):
            for _ in range(sum(row) - 1):
                play(Move(DUPLICATE, state.index(e)))
        for j in range(len(self.target)):
            pieces = [e for e, row in zip(self.source, self.rows) for _ in range(row[j])]
            acc = pieces[0]
            for e in pieces[1:]:
                a = state.index(acc)
                b = state.index(e, a + 1) if e == acc else state.index(e)
                play(Move(COMBINE, min(a, b), max(a, b)))
                acc += e
        return MoveSequence(self.source, self.target, tuple(moves))


def _successor_moves(state: Tuple[int, ...]) -> List[Move]:
    n = len(state)
    moves = [Move(COMBINE, i, j) for i in range(n) for j in range(i + 1, n)]
    moves.extend(Move(DUPLICATE, i) for i in range(n))
    return moves


def leqq_bfs(source: Sequence[int], target: Sequence[int]) -> Optional[MoveSequence]:
    """Search for a move sequence from ``source`` to ``target``.

    Best-first over canonical tuples, ordered by (length, move-key
    sequence), so the returned witness is the shortest move sequence and,
    among shortest ones, lexicographically least (combines sort before
    duplicates, then by indices).  Returns None when the target is
    unreachable.  The state space is finite: both moves preserve or grow
    the entry sum, so states with sum beyond the target's are pruned.
    """
    from heapq import heappop, heappush  # on use: no other command runs the BFS

    src = DegreeTuple(source)
    dst = DegreeTuple(target)
    start = tuple(src)
    goal = tuple(dst)
    goal_sum = sum(goal)
    if sum(start) > goal_sum:
        return None
    heap: List[tuple] = [(0, (), start, ())]
    seen = set()
    while heap:
        length, keys, state, moves = heappop(heap)
        if state in seen:
            continue
        seen.add(state)
        if state == goal:
            return MoveSequence(src, dst, moves)
        for mv in _successor_moves(state):
            nxt = mv.apply(state)
            if sum(nxt) > goal_sum or nxt in seen:
                continue
            heappush(heap, (length + 1, keys + (mv.key(),), nxt, moves + (mv,)))
    return None


@lru_cache(maxsize=4096)
def _column_fillings(degrees: Tuple[int, ...], target: int) -> Tuple[Tuple[int, ...], ...]:
    """All c >= 0 with sum_i c_i * degrees_i == target, ascending lex."""
    out: List[Tuple[int, ...]] = []

    def rec(idx: int, remaining: int, prefix: Tuple[int, ...]) -> None:
        if idx == len(degrees) - 1:
            q, r = divmod(remaining, degrees[idx])
            if r == 0:
                out.append(prefix + (q,))
            return
        step = degrees[idx]
        for c in range(remaining // step + 1):
            rec(idx + 1, remaining - c * step, prefix + (c,))

    rec(0, target, ())
    del rec  # the closure refers to itself: free it now, not at the next collection
    return tuple(out)


def leqq_decomposition(
    source: Sequence[int], target: Sequence[int]
) -> Optional[DecompositionWitness]:
    """Decide the partial order via an exact decomposition of the target.

    Looks for nonnegative integers z_{ij} with sum_i z_{ij} d_i = d'_j for
    every j and no all-zero row (every source entry must be used somewhere).
    Column candidates come from a bounded knapsack per target entry;
    a depth-first search over columns then looks for a choice covering all
    rows.  Returns the witness matrix or None.
    """
    d = DegreeTuple(source)
    dp = DegreeTuple(target)
    k = len(d)
    per_column = []
    for tgt in dp:
        cands = _column_fillings(tuple(d), tgt)
        if not cands:
            return None
        per_column.append(cands)
    # cover_possible[j] = rows touchable by some candidate in columns j..end
    cover_from: List[int] = [0] * (len(dp) + 1)
    for j in range(len(dp) - 1, -1, -1):
        mask = cover_from[j + 1]
        for cand in per_column[j]:
            for i in range(k):
                if cand[i]:
                    mask |= 1 << i
        cover_from[j] = mask
    full = (1 << k) - 1

    choice: List[Tuple[int, ...]] = []

    def rec(j: int, covered: int) -> bool:
        if covered | cover_from[j] != full:
            return False
        if j == len(dp):
            return covered == full
        for cand in per_column[j]:
            mask = covered
            for i in range(k):
                if cand[i]:
                    mask |= 1 << i
            choice.append(cand)
            if rec(j + 1, mask):
                return True
            choice.pop()
        return False

    covered = rec(0, 0)
    del rec  # the closure refers to itself: free it now, not at the next collection
    if not covered:
        return None
    rows = tuple(tuple(choice[j][i] for j in range(len(dp))) for i in range(k))
    return DecompositionWitness(d, dp, rows)


def leqq(
    source: Sequence[int], target: Sequence[int]
) -> Tuple[bool, Optional[MoveSequence]]:
    """Decide the partial order, returning (answer, move witness).

    The answer comes from :func:`leqq_decomposition`; a YES carries the move
    sequence built from its witness matrix (see
    :meth:`DecompositionWitness.to_moves`), which replays from ``source`` to
    ``target`` but need not be the shortest one (:func:`leqq_bfs` finds
    that).  A NO returns ``(False, None)``.
    """
    dec = leqq_decomposition(source, target)
    if dec is None:
        return False, None
    return True, dec.to_moves()


def surface_embeds(genus: int, punctures: int, genus_t: int, punctures_t: int) -> bool:
    """Exact embedding criterion for once-punctured-surface complements.

    A genus-g surface with k > 0 punctures embeds in a genus-g' surface
    with k' > 0 punctures (as an open subsurface respecting the exact
    structure) iff g <= g' and k - k' <= g' - g: spare genus on the target
    can absorb punctures two-at-a-time along handles, but genus can never
    be shed.  Raises InvalidSurface on negative genus or nonpositive
    puncture counts.
    """
    for g, k in ((genus, punctures), (genus_t, punctures_t)):
        _require_int(g, "genus", 0, InvalidSurface)
        _require_int(k, "puncture count", 1, InvalidSurface)
    return genus <= genus_t and punctures - punctures_t <= genus_t - genus
