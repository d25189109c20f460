"""The witness search's building blocks, loaded when a search runs.

* ``enumerate_vector_partitions`` lists the multisets of nonzero vectors
  with a given sum, the source and target partitions of each grid cell;
* ``_completion_node`` counts the ways to send source-residue groups into
  target-residue classes, and ``_assignment_blocks`` walks them, asking the
  oracle about each prefix it reaches;
* ``FeasibilityWitness`` is what a FEASIBLE search returns and
  ``check_feasibility_witness`` checks it from scratch; ``SearchOutcome``
  is what every search returns.

``engine.witness_search`` imports these when it starts, so a verdict from a
quick rule or from the order compiles none of them.  The search lists
partitions through ``engine.enumerate_vector_partitions``, which forwards
here, so a tracer or a test can replace it on ``engine``.  The clock is read
as ``time.monotonic()``, the one a test replaces through ``engine.time``.
"""

from __future__ import annotations

import math
import time
from typing import TYPE_CHECKING, Callable, Dict, Iterator, List, Optional, Sequence, Tuple

from .model import DegreeTuple, _Record, _require_int, _require_ints

if TYPE_CHECKING:  # a witness's __post_init__ imports it
    from .lattice import IntMatrix


class FeasibilityWitness(_Record):
    """A solution of the formal-curve obstruction system.

    ``xs`` and ``ys`` are aligned: pair i is (xs[i], ys[i]).  ``matrix`` is
    an integer matrix inducing a homomorphism of first homology groups that
    maps class(xs[i]) to class(ys[i]) for every i.
    """

    n: int
    source: DegreeTuple
    target: DegreeTuple
    l: int
    q: int
    xs: Tuple[Tuple[int, ...], ...]
    ys: Tuple[Tuple[int, ...], ...]
    matrix: IntMatrix

    def __post_init__(self) -> None:
        from .lattice import IntMatrix

        object.__setattr__(self, "source", DegreeTuple(self.source))
        object.__setattr__(self, "target", DegreeTuple(self.target))
        object.__setattr__(self, "xs", tuple(_require_ints(v, "source vector") for v in self.xs))
        object.__setattr__(self, "ys", tuple(_require_ints(v, "target vector") for v in self.ys))
        if not isinstance(self.matrix, IntMatrix):
            object.__setattr__(self, "matrix", IntMatrix(self.matrix))


def check_feasibility_witness(witness: FeasibilityWitness) -> List[str]:
    """Independently validate a witness; returns a list of violations.

    An empty list means the witness is genuine.  This checker shares no
    code with the search beyond basic arithmetic: it re-verifies every
    defining inequality and congruence from scratch.
    """
    problems: List[str] = []
    n, d, dp = witness.n, witness.source, witness.target
    k, kp = len(d), len(dp)
    l, q = witness.l, witness.q
    sd, sdp = d.total(), dp.total()
    if not (sd <= l <= sdp):
        problems.append(f"l = {l} outside [{sd}, {sdp}]")
    if q < 1:
        problems.append(f"q = {q} is not positive")
    if q * (sd - n - 1) > l - n - 1:
        problems.append(f"q-inequality fails: {q}*({sd}-{n}-1) > {l}-{n}-1")
    if len(witness.xs) != l or len(witness.ys) != l:
        problems.append("xs/ys length differs from l")
        return problems
    tot = [0] * k
    for v in witness.xs:
        if len(v) != k or any(c < 0 for c in v) or not any(v):
            problems.append(f"bad source vector {v}")
            continue
        if sum(1 for c in v if c) > n:
            problems.append(f"source vector {v} meets more than n components")
        for i, c in enumerate(v):
            tot[i] += c
    if tot != [q * e for e in d]:
        problems.append(f"source vectors sum to {tot}, expected {[q * e for e in d]}")
    tot = [0] * kp
    for v in witness.ys:
        if len(v) != kp or any(c < 0 for c in v) or not any(v):
            problems.append(f"bad target vector {v}")
            continue
        for i, c in enumerate(v):
            tot[i] += c
    if tot != list(dp):
        problems.append(f"target vectors sum to {tot}, expected {list(dp)}")
    m = witness.matrix
    if m.rows != kp or m.cols != k:
        problems.append(f"matrix is {m.rows}x{m.cols}, expected {kp}x{k}")
        return problems

    def multiple_of_target(vec: Sequence[int]) -> bool:
        t, r = divmod(vec[0], dp[0])
        if r:
            return False
        return all(vec[i] == t * dp[i] for i in range(kp))

    if not multiple_of_target(m.vecmul(tuple(d))):
        problems.append("matrix does not send the source relation into the target relation")
    for x, y in zip(witness.xs, witness.ys):
        if len(x) != k or len(y) != kp:  # reported above as a bad vector
            continue
        diff = [a - b for a, b in zip(m.vecmul(x), y)]
        if not multiple_of_target(diff):
            problems.append(f"matrix image of {x} is not {y} modulo the target relation")
    return problems


class SearchOutcome(_Record):
    """Result of a witness search over the (l, q) grid."""

    status: str
    witness: Optional[FeasibilityWitness]
    bounds: dict
    calls_used: int


_CHUNK = 4096  # parts a listing's descent lists between two reads of the clock


def _check_deadline(deadline: Optional[float]) -> None:
    """Raise TimeoutError once ``time.monotonic()`` is past ``deadline``."""
    if deadline is not None and time.monotonic() > deadline:
        raise TimeoutError("the deadline has passed")


def _emit(
    found: list, head: tuple, left: tuple, r: int, values: range, deadline: Optional[float]
) -> None:
    """Add the part ``head + (c,)`` and what it leaves of ``left + (r,)`` to
    ``found`` for each c in ``values``, with a clock read per ``_CHUNK``."""
    if deadline is None:
        found += [(head + (c,), left + (r - c,)) for c in values]
        return
    for lo in range(0, len(values), _CHUNK):
        _check_deadline(deadline)
        found += [(head + (c,), left + (r - c,)) for c in values[lo:lo + _CHUNK]]


def _tails(
    w: Tuple[int, ...], rest: Tuple[int, ...], p: int, max_support: int, one_new: bool
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """The splits of ``rest`` into ``p`` parts, none above ``w``, with no part
    but ``w`` or, if ``one_new``, one more, in descending order.  With
    gap = rest - p * w, that is p copies of w if the gap is 0, and else, for
    k from 1 to p, p - k copies of w and k of c = w + gap / k, where c must
    be integral (k divides every entry of the gap), nonnegative, nonzero and
    within ``max_support``, and below w, which it is for every k iff the
    gap is below 0."""
    gap = tuple(r - p * x for r, x in zip(rest, w))
    if not any(gap):
        yield (w,) * p
    elif one_new and gap < (0,) * len(gap):
        g = math.gcd(*gap)
        for k in range(1, min(p, g) + 1):
            if g % k == 0:
                c = tuple(x + y // k for x, y in zip(w, gap))
                if min(c) >= 0 and any(c) and len(c) - c.count(0) <= max_support:
                    yield (w,) * (p - k) + (c,) * k


def enumerate_vector_partitions(
    target: Sequence[int],
    parts: int,
    max_support: int,
    *,
    max_classes: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """All multisets of ``parts`` nonzero nonnegative vectors with the given
    coordinatewise sum and per-vector support bound.

    Each multiset is yielded exactly once, as a tuple of vectors in
    non-increasing lexicographic order (that ordering *is* the canonical
    form).  The multisets come in descending lexicographic order of those
    tuples, the same order as the brute-force ``partitions_of_vector``.

    With ``max_classes``, only the multisets with at most that many
    distinct parts are yielded, in the same order: the sequence is the
    unbounded one with the others filtered out.  With ``deadline``, a value
    of ``time.monotonic()``, the generator raises TimeoutError once the
    clock has passed it.  It reads the clock before each run of last
    coordinates a listing's descent lists and every ``_CHUNK`` parts within
    one, at every step of its walk and before each closed-form tail it
    solves, so neither a long listing nor a walk that cuts much and yields
    little runs past it.

    Method: a memoized walk over sub-split states, with no global list of
    parts.  A state is what is left, the number of parts left, and the
    bounding part, the largest they may be: the parts come in descending
    lexicographic order, so taking a part w leaves one part fewer, bounded
    by w.  A state lists its fitting parts once, in a dict that lives only
    as long as the generator, by a coordinate-wise descent, largest first,
    bounded by what is left, by the room (every other part takes a unit),
    by ``max_support``, by the least first coordinate (times the parts left
    it reaches what is left's), and by the bounding part while the part so
    far equals it.  A state with more nonzero coordinates than its parts
    can cover lists nothing.  Each fitting part is listed with what it
    leaves, which with two parts left is the last part, listed only if no
    larger and admissible.  An explicit stack walks every state by one
    rule, counting the distinct parts taken: the parts descend, so a part
    is new iff it differs from the state's bounding part.  It cuts a part
    that takes the count past the bound.  Where taking a part w leaves no
    new part allowed, or one, the p parts left are not walked but solved
    for (``_tails``): p copies of w, then i copies of w and p - i of one
    smaller part, for i from p - 1 down to 0, which is their descending
    order.  Many prefixes reach one (w, what it leaves) pair, so its tails
    are solved once per listing and read back after.  Otherwise, with two
    parts left, it yields the parts chosen so far plus the pair, so each
    multiset is built once.  A state below which
    nothing was yielded, cut or solved for, as one running count of all
    three tells, is stored as an empty list and not walked again: the bound
    depends on the parts taken before the state, the state's parts do not.
    Memory grows with the states visited, not with the multisets yielded,
    and under a bound the walk descends only while two or more new parts
    are allowed.  The setting is that of Knuth's Algorithm M (*TAOCP* 4A,
    7.2.1.5).

    >>> list(enumerate_vector_partitions((2, 1), 2, 2))
    [((2, 0), (0, 1)), ((1, 1), (1, 0))]
    >>> list(enumerate_vector_partitions((2, 2), 2, 2, max_classes=1))
    [((1, 1), (1, 1))]
    >>> next(enumerate_vector_partitions((2, 1), 2, 2, deadline=time.monotonic() - 1))
    Traceback (most recent call last):
    TimeoutError: the deadline has passed

    Raises ValueError unless ``target`` is a nonempty, nonzero vector of
    nonnegative ints and ``parts``, ``max_support`` and ``max_classes``
    (if given) are positive ints (bools are rejected).
    """
    tgt = _require_ints(target, "target")
    if not tgt:
        raise ValueError("target vector must be nonempty")
    if any(c < 0 for c in tgt) or not any(tgt):
        raise ValueError(f"target must be nonzero with nonnegative entries, got {tgt}")
    _require_int(parts, "parts")
    _require_int(max_support, "max_support")
    if max_classes is not None:
        _require_int(max_classes, "max_classes")
    m = len(tgt)
    last = m - 1
    # a multiset of `parts` parts has at most `parts` distinct parts
    bounded = max_classes is not None and max_classes < parts

    def walk() -> Iterator[Tuple[Tuple[int, ...], ...]]:
        if parts == 1:
            if m - tgt.count(0) <= max_support:
                yield (tgt,)
            return

        # (what is left, parts left, bounding part) -> the state's fitting parts
        # as (part, what it leaves), largest first, which with two parts left
        # are (part, last part) pairs; [] once the state is known to lead nowhere
        memo: Dict[Tuple[Tuple[int, ...], int, Tuple[int, ...]], list] = {}

        def listed(state: Tuple[Tuple[int, ...], int, Tuple[int, ...]]) -> list:
            remaining, nparts, bound = state
            room = sum(remaining) - nparts + 1  # every other part takes a unit
            found: list = []
            if room >= 1 and m - remaining.count(0) <= nparts * max_support:
                least = -(-remaining[0] // nparts)  # times nparts it reaches remaining[0]
                values = range(min(remaining[0], room, bound[0]), least - 1, -1)
                # a frame: a part's leading coordinates, what they leave, their
                # support, the room they leave, whether they equal the bound's,
                # and the values of the last of them still to take
                if last:
                    stack = [((), (), 0, room, True, iter(values))]
                else:  # one coordinate: each value is a part
                    stack = []
                    _emit(found, (), (), remaining[0], values, deadline)
                while stack:
                    head, left, support, free, tight, todo = stack[-1]
                    j = len(head)
                    k = j + 1
                    for c in todo:
                        h, lf = head + (c,), left + (remaining[j] - c,)
                        s, f, t = support + (c > 0), free - c, tight and c == bound[j]
                        top = min(remaining[k], f) if s < max_support else 0
                        if t and bound[k] < top:
                            top = bound[k]
                        if k < last:
                            stack.append((h, lf, s, f, t, iter(range(top, -1, -1))))
                            break
                        _emit(found, h, lf, remaining[k], range(top, -1 if s else 0, -1), deadline)
                    else:
                        stack.pop()
            if nparts == 2:  # the last part is what is left, if no larger and admissible
                found = [(w, r) for w, r in found if r <= w and m - r.count(0) <= max_support]
            memo[state] = found
            return found

        # (part, what it leaves, parts left, one new part allowed) -> its tails
        tails: Dict[Tuple[Tuple[int, ...], Tuple[int, ...], int, bool], tuple] = {}
        top = (tgt, parts, tgt)  # every admissible part is at most tgt
        settled = 0  # multisets yielded, parts cut by the bound, and tails solved for
        # a frame: the parts chosen so far, its state, the fitting parts of
        # that state still to walk, the distinct parts taken, and `settled` before it
        stack = [((), top, iter(listed(top)), 0, 0)]
        while stack:
            if deadline is not None:  # no call per step without a deadline
                _check_deadline(deadline)
            prefix, state, todo, used, before = stack[-1]
            _, nparts, bound = state
            for w, rest in todo:
                now = used + (w != bound) if bounded else 0  # w is new iff not the bound
                if bounded and now >= max_classes - 1:  # at most one new part after w
                    settled += 1
                    if now <= max_classes:
                        key = (w, rest, nparts, now < max_classes)
                        solved = tails.get(key)
                        if solved is None:
                            if deadline is not None:
                                _check_deadline(deadline)
                            solved = tails[key] = tuple(
                                _tails(w, rest, nparts - 1, max_support, key[3])
                            )
                        head = prefix + (w,)
                        for tail in solved:
                            yield head + tail
                    continue
                if nparts == 2:
                    yield prefix + (w, rest)
                    settled += 1
                    continue
                child = (rest, nparts - 1, w)
                found = memo.get(child)
                if found is None:
                    found = listed(child)
                if found:
                    stack.append((prefix + (w,), child, iter(found), now, settled))
                    break
            else:
                stack.pop()
                if settled == before:
                    memo[state] = []

    return walk()


_DEAD = (0, {})  # every node with no completion
_LEAF = (1, {})  # every node with no group left and every room filled


def _completion_node(g_sizes: Tuple[int, ...], rooms: Tuple[int, ...], table: dict) -> tuple:
    """The node of ``table`` for sending groups of sizes ``g_sizes`` into
    classes with room ``rooms``, sorted, filling each exactly: ``(count,
    children)``, where ``children`` maps each room value with a completion
    to the node left by sending the first group into a class of that room.
    Relabelling the classes maps fillings one to one, so one node serves
    every order of the rooms."""
    if not g_sizes:
        return _DEAD if any(rooms) else _LEAF
    node = table.get((g_sizes, rooms))
    if node is None:
        size, rest_sizes = g_sizes[0], g_sizes[1:]
        count, children = 0, {}
        for r in dict.fromkeys(rooms):
            if r >= size:
                h = rooms.index(r)
                child = _completion_node(
                    rest_sizes, tuple(sorted(rooms[:h] + (r - size,) + rooms[h + 1:])), table
                )
                if child[0]:
                    children[r] = child
                    count += rooms.count(r) * child[0]
        node = table[g_sizes, rooms] = (count, children) if count else _DEAD
    return node


def _assignment_blocks(
    g_keys: Sequence, g_sizes: Tuple[int, ...], h_keys: Sequence, left: Tuple[int, ...],
    feasible: Callable[[tuple], bool], children: dict,
) -> Iterator[Tuple[int, Optional[tuple]]]:
    """Ways to send each source-residue group (key ``g_keys[g]``, size
    ``g_sizes[g]``) wholly into one target-residue class (key ``h_keys[h]``,
    room ``left[h]``) so that every class is filled exactly: paired vectors
    with equal source residues share a target residue, and filling each
    class exactly is the multiset condition.

    A depth-first walk in lexicographic order of the classes chosen yields
    each assignment as ``(1, its (group key, class key) pairs)`` for the
    caller to put to ``feasible``, which it asks of each proper prefix with
    a completion; on a no it yields ``(count, None)`` for the ``count``
    assignments that extend it unwalked.  ``children`` is the dict of the
    ``_completion_node`` of ``g_sizes`` and ``left``: the walk tries a class
    only if its room has an entry there, and descends into that entry's.
    """
    last = len(g_sizes) - 1
    # a frame: the pairs chosen so far, the room left, its classes still to
    # try, and the children of its node
    stack = [((), left, enumerate(left), children)]
    while stack:
        pairs, room, todo, children = stack[-1]
        g = len(pairs)
        for h, r in todo:
            child = children.get(r)
            if child is None:
                continue
            head = pairs + ((g_keys[g], h_keys[h]),)
            if g == last:
                yield 1, head
            elif feasible(head):
                rest = room[:h] + (r - g_sizes[g],) + room[h + 1:]
                stack.append((head, rest, enumerate(rest), child[1]))
                break
            else:
                yield child[0], None
        else:
            stack.pop()
