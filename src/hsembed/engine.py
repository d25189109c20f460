"""The decision engine: witness search, quick obstructions, and verdicts.

The central necessary condition for a Liouville embedding of one
arrangement complement into another runs through formal curves: if an
embedding exists, then for some l in [sum(d), sum(d')] and some q >= 1 with
q * (sum(d) - n - 1) <= l - n - 1 there must exist

* a multiset {x_1..x_l} of nonzero wrapping vectors for the source, each
  meeting at most n components, with sum x_i = q * d,
* a multiset {y_1..y_l} of nonzero wrapping vectors for the target with
  sum y_i = d',
* and a homomorphism of first homology groups sending class(x_i) to
  class(y_i) for a perfect matching between the two multisets.

``witness_search`` decides feasibility of that system exactly over the
finite (l, q) grid (finite whenever sum(d) > n + 1), and ``decide`` wraps
it together with the constructive partial order, the closed-form quick
checks, and the gcd tests into a three-valued verdict with replayable
evidence: a YES always carries a construction witness, a NO always carries
a certificate that an independent checker can replay.

The search's building blocks (the partition enumerator, the table of
completions, the assignment walk and the witness records) live in
:mod:`hsembed.search`, and its algebra in :mod:`hsembed.lattice`;
``witness_search`` imports both when it starts, so a verdict from a quick
rule or from the order loads neither.  ``enumerate_vector_partitions`` and
``hom_exists`` stay here as forwarders that the search calls by these
names, so a tracer or a test can replace them on this module.

Each closed-form NO rule is defined once, in ``_certificates``, and
``replay_certificate`` re-derives the whole certificate, mode included,
from the query stored in it.

Budget discipline: the unit of cost is one logical homomorphism
feasibility query (a query asked before still counts).  ``call_cap`` is a
hard bound on the running total of a search: a capped search stops at the
call past it and reports ``call_cap + 1``.  The search runs sequentially,
so without a ``time_cap`` its outcome is a pure function of the inputs and
the budget; ``decide``'s ``threads`` argument is validated and accepted
for compatibility only.
"""

from __future__ import annotations

import functools
import sys
import time
from typing import TYPE_CHECKING, Dict, Iterator, Optional, Sequence, Tuple

from .model import (
    LIOUVILLE, MODES, NO, SYMPLECTIC, UNKNOWN, WEINSTEIN, YES, DegreeTuple, Verdict,
    _is_int, _Record, _require_int, f_invariant, homology_reduce,
)
from .order import MoveSequence, leqq, leqq_decomposition

if TYPE_CHECKING:  # the search imports these when it runs; a quick rule never does
    from .lattice import IntMatrix
    from .search import FeasibilityWitness, SearchOutcome

# Certificate rules for NO verdicts.
SUM_DROP = "SUM_DROP"
HYPERPLANE_TARGET = "HYPERPLANE_TARGET"
GCD_SINGLE = "GCD_SINGLE"
FN_ALMOST_SYMPLECTIC = "FN_ALMOST_SYMPLECTIC"
WITNESS_INFEASIBLE = "WITNESS_INFEASIBLE"
DEGREE_HYP_NOT_LEQQ = "DEGREE_HYP_NOT_LEQQ"

# Search outcomes.
FEASIBLE = "FEASIBLE"
INFEASIBLE = "INFEASIBLE"
BUDGET_EXCEEDED = "BUDGET_EXCEEDED"


class HypothesisViolated(ValueError):
    """Raised when an operation is invoked outside its stated range."""


class Budget(_Record):
    """Resource limits for the witness search.

    ``q_cap`` only matters when the q-range is infinite (total source
    degree exactly n + 1); in the finite regime the grid itself bounds q.
    ``call_cap`` is a hard bound on the running total of logical
    homomorphism queries of one search; a search that reaches it stops at
    the next query and reports ``call_cap + 1`` calls.  ``time_cap`` is a
    wall-clock limit in seconds (a positive number, at most the largest
    float), the one knob that trades determinism for latency (None keeps
    runs reproducible).  A bad value of any field raises ValueError.
    """

    q_cap: int = 4
    call_cap: int = 10**6
    time_cap: Optional[float] = None

    def __post_init__(self) -> None:
        _require_int(self.q_cap, "q_cap")
        _require_int(self.call_cap, "call_cap")
        cap = self.time_cap
        if cap is not None and (
            isinstance(cap, bool) or not isinstance(cap, (int, float))
            or not 0 < cap <= sys.float_info.max
        ):
            raise ValueError(f"time_cap must be a finite positive number or None, got {cap!r}")


class Certificate(_Record):
    """Replayable evidence for a NO verdict.

    ``data`` is self-contained: it always embeds n, source, target, and
    mode, so :func:`replay_certificate` can re-derive the obstruction with
    no outside context.  ``search_bounds`` documents the exhausted grid for
    search-produced certificates.
    """

    rule: str
    data: dict
    search_bounds: Optional[dict] = None


def _classify(vectors: Sequence[tuple], degrees: DegreeTuple, memo: dict) -> Tuple[tuple, tuple]:
    """Sorted class keys of one side's vectors and their counts; ``memo`` caches keys."""
    counts: Dict[tuple, int] = {}
    for v in vectors:
        key = memo.get(v)
        if key is None:
            key = memo[v] = homology_reduce(v, degrees).coordinates
        counts[key] = counts.get(key, 0) + 1
    keys = tuple(sorted(counts))
    return keys, tuple(counts[key] for key in keys)


def hom_exists(
    degrees: Sequence[int],
    target_degrees: Sequence[int],
    pairs: Sequence[Tuple[Sequence[int], Sequence[int]]],
) -> Optional[IntMatrix]:
    """Forward to :func:`hsembed.lattice.hom_exists`, importing ``lattice``
    on the first call.  A function of this module, so a tracer or a test
    can replace it here; a FEASIBLE search calls it once, for its witness's
    matrix."""
    from . import lattice

    return lattice.hom_exists(degrees, target_degrees, pairs)


def enumerate_vector_partitions(
    target: Sequence[int],
    parts: int,
    max_support: int,
    *,
    max_classes: Optional[int] = None,
    deadline: Optional[float] = None,
) -> Iterator[Tuple[Tuple[int, ...], ...]]:
    """Forward to :func:`hsembed.search.enumerate_vector_partitions`,
    importing ``search`` on the first call.  The witness search lists its
    partitions through this name, so a tracer or a test can replace it
    here."""
    from . import search

    return search.enumerate_vector_partitions(
        target, parts, max_support, max_classes=max_classes, deadline=deadline
    )


def witness_search(
    n: int,
    source: Sequence[int],
    target: Sequence[int],
    budget: Optional[Budget] = None,
) -> SearchOutcome:
    """Decide feasibility of the formal-curve obstruction system.

    Explores the (l, q) grid in ascending order of l, then q.  Returns
    FEASIBLE with a witness that ``check_feasibility_witness`` accepts,
    INFEASIBLE only when the grid is provably exhaustive (total source
    degree > n + 1) and fully explored, and BUDGET_EXCEEDED otherwise.  In
    the boundary case sum(d) = n + 1 the q-range is unbounded, so no finite
    exploration can prove infeasibility and the fallback is always
    BUDGET_EXCEEDED.  The grid is walked cell by cell, nothing sized by it
    built first: the deadline is set on entry, each l finds its own q_max,
    q starts where q * sum(d) >= l (fewer units make no l nonzero parts),
    and ``cells_total`` is a closed form.  An empty l-range is exhausted.

    Every assignment tried is one call, whether or not the same class pairs
    were asked before, so the call count at any point is a pure function of
    the query and the budget.  ``call_cap`` bounds the running total of the
    whole search: the call that would exceed it stops the search, so a
    capped search reports exactly ``call_cap + 1`` calls.

    The target partitions of l are listed only when a cell of that l has a
    source partition to pair them with, and the list is dropped once the
    grid moves past l.  One rule classifies the partitions of both sides,
    and computes every vector's homology class once per search, on either
    side.  A source partition skips, at 0 calls, every target partition
    with more classes than it has groups, since none admits an assignment.
    So the list of l holds only the target partitions with at most
    ``most = min(l, k + q_max * sum(d) - l)`` classes (k = len(d)), which
    no source partition of l has more of: a source partition has at most
    as many classes as distinct parts, which are at most k unit vectors
    and the parts larger than a unit, each of which adds at least 1 to
    q * sum(d) - l, and that is largest at q_max.  On the target side a
    class is the part itself, so the bound is one on distinct parts, which
    the enumerator applies without computing a class: two vectors of one
    class differ by m * d' with m != 0, so one of them is at least d' in
    every coordinate, and no part of a partition of d' into l >= 2 nonzero
    parts is.  The target partitions left out are exactly ones every
    source partition skips, so the order of the pairs tried, and with it
    calls, bounds and witnesses, is the same as with every target
    partition listed.  The list of l holds class signatures only, no
    vectors: since a class is its part, a FEASIBLE witness reads its target
    parts from their classes.  The enumerators get the search's deadline and
    raise TimeoutError when it passes, which ends the search with
    BUDGET_EXCEEDED even while a long listing is under way.

    Dropping (source class, target class) pairs drops equations, so every
    assignment that extends an infeasible prefix is infeasible.  One walk
    in lexicographic order (``_assignment_blocks``) asks about the proper
    prefixes it reaches and skips the assignments behind an infeasible one
    unbuilt, counting one call for each, so calls, the cap point and
    witnesses are those of asking every one in turn.  The counts come from
    one table of completions per search (``_completion_node``), and a pair
    whose root node counts no assignment is skipped unwalked.  A root node
    depends only on the source group sizes and the target's shape, its
    class counts sorted, so each target partition of l carries its shape's
    index, in first-seen order, and per l a row per source group sizes
    holds a slot per shape, filled when first read: with the node, or dead
    for a shape with more classes than groups.  Filled eagerly, a row would
    build nodes no walk reaches.  Prefixes and full assignments reach the
    oracle through one memo, so none is asked twice.

    Raises HypothesisViolated unless both degree sums are at least n + 1.
    """
    budget = budget or Budget()
    deadline = time.monotonic() + budget.time_cap if budget.time_cap else None
    _require_int(n, "complex dimension")
    d, dp = DegreeTuple(source), DegreeTuple(target)
    k, sd, sdp = len(d), d.total(), dp.total()
    if sd < n + 1 or sdp < n + 1:
        raise HypothesisViolated(
            f"witness search requires both degree sums >= n + 1 = {n + 1}; "
            f"got {sd} and {sdp}"
        )
    finite = sd > n + 1
    s = sd - n - 1  # the q of a finite cell l runs up to (l - n - 1) // s
    if finite:  # the sum of those bounds over l, in closed form
        t, x = divmod(sdp - n - 1, s)
        cells_total = s * t * (t - 1) // 2 + t * (x + 1)
    else:
        cells_total = budget.q_cap * (sdp - sd + 1)
    bounds: dict = {
        "sum_source": sd,
        "sum_target": sdp,
        "l_range": [sd, sdp],
        "l_range_empty": sd > sdp,
        "q_range_finite": finite,
        "q_cap_applied": None if finite else budget.q_cap,
        "cells_total": cells_total,
        "calls_used": 0,
        "exhausted": False,
    }
    calls = 0

    from .lattice import HomFeasibility
    from .search import (
        _DEAD, FeasibilityWitness, SearchOutcome, _assignment_blocks, _check_deadline,
        _completion_node,
    )

    def finish(status: str, witness: Optional[FeasibilityWitness] = None) -> SearchOutcome:
        bounds["calls_used"] = calls
        bounds["exhausted"] = status == INFEASIBLE
        return SearchOutcome(status, witness, bounds, calls)

    feasibility = HomFeasibility(d, dp)
    x_memo: Dict[tuple, tuple] = {}  # each side's class key of every vector seen
    y_memo: Dict[tuple, tuple] = {}

    feasible = functools.cache(feasibility.exists)  # the search's one way to the oracle
    # (group sizes left, rooms left sorted) -> (count of completions, children)
    completions: dict = {}
    call_cap = budget.call_cap

    try:
        for l in range(sd, sdp + 1):
            q_max = (l - n - 1) // s if finite else budget.q_cap
            most = min(l, k + q_max * sd - l)  # no source partition of l has more classes
            # the signature of each target partition of l with at most `most`
            # classes: its sorted class keys, their counts, and its shape, the
            # index in `shapes` of those counts sorted, in first-seen order
            y_partitions: Optional[list] = None
            # source group sizes -> each shape's completion node, filled when first read
            rows: Dict[Tuple[int, ...], list] = {}
            for q in range(-(-l // sd), q_max + 1):  # from the least q with q * sd >= l
                for xs in enumerate_vector_partitions(
                    tuple(q * e for e in d), l, min(n, k), deadline=deadline
                ):
                    if y_partitions is None:
                        y_partitions = []
                        index: Dict[Tuple[int, ...], int] = {}
                        for ys in enumerate_vector_partitions(
                            tuple(dp), l, len(dp), max_classes=most, deadline=deadline
                        ):
                            h_keys, h_sizes = _classify(ys, dp, y_memo)
                            shape = index.setdefault(tuple(sorted(h_sizes)), len(index))
                            y_partitions.append((h_keys, h_sizes, shape))
                        shapes = list(index)
                    g_keys, g_sizes = _classify(xs, d, x_memo)
                    row = rows.get(g_sizes)
                    if row is None:
                        row = rows[g_sizes] = [None] * len(shapes)
                    for h_keys, h_sizes, shape in y_partitions:
                        node = row[shape]
                        if node is None:  # filled when first read, so no unreached node is built
                            rooms = shapes[shape]
                            node = row[shape] = (
                                _DEAD if len(rooms) > len(g_sizes)
                                else _completion_node(g_sizes, rooms, completions)
                            )
                        ways, children = node
                        if not ways:
                            continue
                        if deadline is not None:
                            _check_deadline(deadline)
                        for count, pairs in _assignment_blocks(
                            g_keys, g_sizes, h_keys, h_sizes, feasible, children
                        ):
                            calls += count
                            if calls > call_cap:
                                calls = call_cap + 1
                                return finish(BUDGET_EXCEEDED)
                            if pairs is None or not feasible(pairs):
                                continue
                            mat = hom_exists(d, dp, pairs)  # not None: the pairs are feasible
                            image = dict(pairs)
                            part = {key: y for y, key in y_memo.items()}  # a class is its part
                            ys = [part[image[x_memo[x]]] for x in xs]
                            witness = FeasibilityWitness(n, d, dp, l, q, xs, ys, mat)
                            return finish(FEASIBLE, witness)
    except TimeoutError:
        return finish(BUDGET_EXCEEDED)
    return finish(INFEASIBLE if finite else BUDGET_EXCEEDED)


def _certificate(
    rule: str, n: int, d: DegreeTuple, dp: DegreeTuple, mode: str,
    search_bounds: Optional[dict] = None, **data: object,
) -> Certificate:
    """A certificate whose data starts with the query it answers."""
    query = {"n": n, "source": list(d), "target": list(dp), "mode": mode}
    return Certificate(rule, {**query, **data}, search_bounds)


def _certificates(
    n: int, d: DegreeTuple, dp: DegreeTuple, mode: str, related: Optional[bool]
) -> Iterator[Certificate]:
    """Every closed-form NO certificate the query admits, in ladder order.

    The one definition of each closed-form rule: its condition, its modes
    and its data.  The threshold rule (f_invariant divisibility) holds in
    every mode.  In Liouville/Weinstein mode, with both total degrees at
    least n + 1: a drop in total degree, an all-ones target with a
    not-all-ones source, a single-component source whose degree misses the
    target gcd, and a failed order inside the window (sum(d') below
    2 * sum(d) - n - 1).  In symplectic mode the gcd rule holds for any source.

    ``related`` is None for the quick rung alone (``quick_checks``), which
    leaves out the window rule and the symplectic gcd rule.  Otherwise the
    window rule reads it as the order's answer ``leqq(d, dp)[0]``, and the
    symplectic gcd rule only needs it not None: ``decide`` passes False
    once the order gave no YES, and a replay asks the order only for a
    window-rule certificate and passes True for any other.
    """
    fs, ft = f_invariant(n, d), f_invariant(n, dp)
    if ft % fs:
        yield _certificate(FN_ALMOST_SYMPLECTIC, n, d, dp, mode, f_source=fs, f_target=ft)
    sd, sdp = d.total(), dp.total()
    exact = mode in (LIOUVILLE, WEINSTEIN) and sd >= n + 1 and sdp >= n + 1
    if exact and sd > sdp:
        yield _certificate(
            SUM_DROP, n, d, dp, mode,
            sum_source=sd, sum_target=sdp, l_range=[sd, sdp], l_range_empty=True,
        )
    if exact and all(e == 1 for e in dp) and not all(e == 1 for e in d):
        yield _certificate(
            HYPERPLANE_TARGET, n, d, dp, mode, target_all_ones=True, source_all_ones=False
        )
    if exact and len(d) == 1 or mode == SYMPLECTIC and related is not None:
        g, gp = d.gcd(), dp.gcd()
        if gp % g:
            yield _certificate(GCD_SINGLE, n, d, dp, mode, divisor=g, target_gcd=gp)
    if exact and related is False and sdp < 2 * sd - n - 1:
        yield _certificate(
            DEGREE_HYP_NOT_LEQQ, n, d, dp, mode,
            sum_source=sd, sum_target=sdp, window_bound=2 * sd - n - 1, leqq=False,
        )


def _check_query(n: int, mode: str) -> None:
    """Raise ValueError unless n is a positive int and mode is one of MODES."""
    _require_int(n, "complex dimension")
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}, got {mode!r}")


def quick_checks(
    n: int, source: Sequence[int], target: Sequence[int], mode: str = LIOUVILLE
) -> Optional[Certificate]:
    """The first closed-form NO certificate of the quick rung; None when silent.

    The quick rung is every rule of ``_certificates`` that needs no answer
    from the order: FN_ALMOST_SYMPLECTIC in every mode, and in
    Liouville/Weinstein mode SUM_DROP, HYPERPLANE_TARGET and the
    single-component GCD_SINGLE.  Raises ValueError, as ``decide`` does,
    unless n is a positive int and mode is one of MODES.
    """
    _check_query(n, mode)
    return next(_certificates(n, DegreeTuple(source), DegreeTuple(target), mode, None), None)


def decide(
    n: int,
    source: Sequence[int],
    target: Sequence[int],
    mode: str = LIOUVILLE,
    budget: Optional[Budget] = None,
    threads: int = 1,
) -> Verdict:
    """Decide whether one complement embeds into another, with evidence.

    The ladder, in order:

    1. symplectic mode: gcd divisibility is necessary (NO, the GCD_SINGLE
       rule), and when the source gcd is itself a source entry it is
       sufficient (YES, via forgetting the other components and then
       rewriting); otherwise UNKNOWN — no complete symplectic criterion
       is implemented.
    2. Liouville/Weinstein: the constructive partial order gives YES with a
       move-sequence witness.
    3. the quick rules of ``quick_checks`` may certify NO.
    4. when both total degrees are >= n + 1: if the target total degree is
       below 2*sum(d) - n - 1, the embedding question reduces to the
       partial order, so a non-YES is NO outright (DEGREE_HYP_NOT_LEQQ);
       otherwise the witness search runs, and INFEASIBLE means NO.
    5. anything else is UNKNOWN with a reason.

    YES verdicts carry witnesses, NO verdicts carry certificates, and the
    ``search_bounds`` attribute documents the explored grid whenever the
    search ran.  ``threads`` must be a positive int on every rung; the
    search runs sequentially whatever its value.
    """
    _check_query(n, mode)
    _require_int(threads, "threads")
    d = DegreeTuple(source)
    dp = DegreeTuple(target)
    budget = budget or Budget()

    if mode == SYMPLECTIC:
        # the gcd rule is this rung's NO: the threshold rule, which comes
        # first, implies it in this mode
        certs = _certificates(n, d, dp, mode, False)
        cert = next((c for c in certs if c.rule == GCD_SINGLE), None)
        if cert is not None:
            return Verdict.no(cert)
        g = d.gcd()
        if g in d:
            ok, moves = leqq((g,), dp)
            assert ok and moves is not None
            witness = {
                "type": "component_inclusion_then_moves",
                "component_degree": g,
                "component_index": d.index(g),
                "moves": moves,
            }
            return Verdict.yes(witness)
        return Verdict.unknown(
            "source gcd divides target gcd but is not a source entry; "
            "no complete symplectic criterion applies"
        )

    ok, moves = leqq(d, dp)
    if ok:
        assert moves is not None
        return Verdict.yes(moves)

    cert = next(_certificates(n, d, dp, mode, False), None)
    if cert is not None:
        return Verdict.no(cert)

    sd, sdp = d.total(), dp.total()
    if sd >= n + 1 and sdp >= n + 1:  # outside the window: inside, its rule answered
        outcome = witness_search(n, d, dp, budget)
        if outcome.status == INFEASIBLE:
            return Verdict.no(
                _certificate(
                    WITNESS_INFEASIBLE, n, d, dp, mode, outcome.bounds,
                    budget=budget.to_json(),
                ),
                search_bounds=outcome.bounds,
            )
        if outcome.status == FEASIBLE:
            assert outcome.witness is not None
            return Verdict.unknown(
                "the formal-curve obstruction system is feasible "
                f"(l = {outcome.witness.l}, q = {outcome.witness.q}), but no "
                "embedding construction is known in this range",
                search_bounds=outcome.bounds,
            )
        return Verdict.unknown(
            "witness search exceeded its budget before settling feasibility",
            search_bounds=outcome.bounds,
        )

    return Verdict.unknown(
        f"total degrees ({sd}, {sdp}) are below the n + 1 = {n + 1} threshold "
        "where the obstruction theory applies; only the threshold "
        "divisibility check was available and it did not fire"
    )


def _stored_query(cert: Certificate) -> Optional[Tuple[int, DegreeTuple, DegreeTuple, str]]:
    """The (n, source, target, mode) a certificate's data names; None when
    the data is not a dict or lacks a valid query."""
    data = cert.data
    if not isinstance(data, dict):
        return None
    try:
        n, mode = data["n"], data["mode"]
        _check_query(n, mode)
        return n, DegreeTuple(data["source"]), DegreeTuple(data["target"]), mode
    except (KeyError, TypeError, ValueError):
        return None


def replay_certificate(cert: Certificate) -> bool:
    """Re-derive a NO certificate from its own query; True iff it stands.

    The stored n, source, target and mode are the whole input: the
    certificates that query admits are derived again, and the replay holds
    only if one of them equals ``cert`` as JSON, rule, data and search
    bounds alike.  So a changed data field fails, and so does a rule stored
    under a mode it does not hold in.  The closed-form rules come from the
    one definition in ``_certificates``; only the window rule's replay
    asks the order.  WITNESS_INFEASIBLE holds only in Liouville and
    Weinstein mode; it re-runs the whole search under the recorded
    ``q_cap`` and ``call_cap``, but not ``time_cap``, because exhausting
    the grid does not depend on time.  A certificate whose data does not
    name a valid query, or a budget where the rule needs one, does not
    stand.
    """
    query = _stored_query(cert)
    if query is None:
        return False
    n, d, dp, mode = query
    if cert.rule != WITNESS_INFEASIBLE:
        related = cert.rule != DEGREE_HYP_NOT_LEQQ or leqq_decomposition(d, dp) is not None
        derived = list(_certificates(n, d, dp, mode, related))
    elif mode == SYMPLECTIC:
        return False
    else:
        spec = cert.data.get("budget")
        try:
            replayed = Budget(spec["q_cap"], spec["call_cap"])
        except (KeyError, TypeError, ValueError):
            return False
        outcome = witness_search(n, d, dp, replayed)
        if outcome.status != INFEASIBLE:
            return False
        derived = [_certificate(WITNESS_INFEASIBLE, n, d, dp, mode, outcome.bounds, budget=spec)]
    import json  # on use: no other engine path writes JSON

    stored = json.dumps(cert.to_json(), sort_keys=True)
    return any(json.dumps(c.to_json(), sort_keys=True) == stored for c in derived)


def verify_verdict(
    n: int,
    source: Sequence[int],
    target: Sequence[int],
    mode: str,
    verdict: Verdict,
) -> bool:
    """Replay a verdict's evidence against the query it claims to answer.

    A YES verifies only if its witness replays from this source (or, in
    symplectic mode, from the source's gcd component, whose index and
    degree the witness names) to this target; a witness of another type or
    shape does not.  A NO verifies only if its certificate names this
    query, mode included, and replays (see :func:`replay_certificate`).
    """
    d = DegreeTuple(source)
    dp = DegreeTuple(target)
    if verdict.kind == YES:
        w = verdict.witness
        if isinstance(w, MoveSequence):
            return w.source == d and w.target == dp and w.is_valid()
        if isinstance(w, dict) and w.get("type") == "component_inclusion_then_moves":
            g = w.get("component_degree")
            i = w.get("component_index")
            moves = w.get("moves")
            return (
                mode == SYMPLECTIC
                and isinstance(moves, MoveSequence)
                and _is_int(i)
                and 0 <= i < len(d)
                and _is_int(g)
                and d[i] == g
                and g == d.gcd()
                and dp.gcd() % g == 0
                and moves.source == DegreeTuple((g,))
                and moves.target == dp
                and moves.is_valid()
            )
        return False
    if verdict.kind == NO:
        cert = verdict.certificate
        return (
            isinstance(cert, Certificate)
            and _stored_query(cert) == (n, d, dp, mode)
            and replay_certificate(cert)
        )
    return verdict.kind == UNKNOWN
