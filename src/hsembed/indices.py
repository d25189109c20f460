"""Reeb orbit classes, Conley-Zehnder indices, and formal curve indices.

After deforming the boundary contact form of an arrangement complement to a
normal-crossings-adapted one, the Reeb orbits group into Morse-Bott families
labeled by a nonzero wrapping vector v (nonnegative integers, one per
component, support of size at most n) plus a Morse index on the family.
This module implements that spectrum bookkeeping and the index formulas for
the formal punctured curves the obstruction engine reasons about:

* orbit action is the degree-weighted wrapping  sum(v_i * d_i);
* a family with support size r is (2n - r - 1)-dimensional, so Morse
  indices run through 0 .. 2n - r - 1;
* the Conley-Zehnder index (in the natural trivialization on the complement
  of the arrangement) is  n - 1 - |A| - 2 * sum(v_i)  for Morse index |A|;
* a rational curve in the ambient projective space of degree q contributes
  a Chern-number term 2 q (n + 1), and a point constraint with tangency
  order m cuts the index by 2n + 2m - 2.

All of it is elementary integer arithmetic; the value of the module is that
the conventions are pinned down in one place and validated.

``f_invariant``, the gcd threshold of the cylinder-type obstruction, reads
only n and the degrees.  It is defined in :mod:`hsembed.model`, so that the
engine's quick rules do not load this module, and re-exported here.
"""

from __future__ import annotations

from math import factorial
from typing import Iterable, List, Optional, Sequence, Tuple

from .model import (
    DegreeTuple, HomologyElement, LengthMismatch, _frozen_record, _is_int, _JsonFields,
    _require_int, _require_ints, f_invariant, homology_reduce,
)

MIN_MORSE_INDEX = 0


class InadmissibleOrbit(ValueError):
    """Raised for wrapping vectors or Morse indices outside the spectrum."""


class InconsistentHomology(ValueError):
    """Raised when curve ends do not satisfy the homology constraint."""


def _validate_wrapping(
    n: int, v: Sequence[int], length: Optional[int] = None
) -> Tuple[Tuple[int, ...], int]:
    """The wrapping vector v of an orbit family in dimension n, as ints, and
    its support size; v must have ``length`` entries when that is given."""
    _require_int(n, "complex dimension")
    w = _require_ints(v, "wrapping", InadmissibleOrbit)
    if length is not None and len(w) != length:
        raise LengthMismatch(f"wrapping length {len(w)} != {length} components")
    if not any(w) or min(w) < 0:
        raise InadmissibleOrbit(f"wrapping must be nonzero with nonnegative entries, got {w}")
    r = len(w) - w.count(0)
    if r > n:
        raise InadmissibleOrbit(
            f"wrapping {w} meets more than n = {n} components; no such Reeb orbit"
        )
    return w, r


def cz_index(n: int, v: Sequence[int], morse_index: int) -> int:
    """Conley-Zehnder index of the orbit with wrapping v and given Morse index.

    Computed in the trivialization induced by the complement of the
    arrangement:  n - 1 - morse_index - 2 * sum(v).  The Morse index ranges
    over 0 .. 2n - r - 1 where r is the support size of v (the dimension of
    the orbit family); anything outside raises InadmissibleOrbit.
    """
    w, r = _validate_wrapping(n, v)
    top = 2 * n - r - 1
    if not _is_int(morse_index) or not MIN_MORSE_INDEX <= morse_index <= top:
        raise InadmissibleOrbit(
            f"Morse index {morse_index!r} outside 0..{top} for support size {r}"
        )
    return n - 1 - morse_index - 2 * sum(w)


def cz_index_anticanonical(
    n: int, v: Sequence[int], morse_index: int, vanishing_orders: Sequence[int]
) -> int:
    """Conley-Zehnder index in an anticanonical-section trivialization.

    ``vanishing_orders`` gives the order a_i (any integer) to which the
    chosen anticanonical section vanishes along each component; the index is
    n - 1 - morse_index - 2 * sum(v_i * (a_i + 1)).  With all a_i = 0 this
    reduces to :func:`cz_index`, and a_i = -1 removes component i from the
    correction entirely.
    """
    cz = cz_index(n, v, morse_index)
    a = _require_ints(vanishing_orders, "vanishing order")
    if len(a) != len(v):
        raise LengthMismatch(
            f"vanishing orders length {len(a)} != wrapping length {len(v)}"
        )
    return cz - 2 * sum(c * o for c, o in zip(v, a))


@_frozen_record
class OrbitClass:
    """A Morse-Bott Reeb orbit class on the boundary of a complement.

    ``v`` is the wrapping vector (indexed against the canonical degree
    order), ``delta`` the *co*-Morse index delta = (n - 1) - morse_index,
    which is the quantity the index formulas consume: cz = delta - 2 sum(v).
    delta ranges over r - n .. n - 1 (r = support size).
    """

    n: int
    degrees: DegreeTuple
    v: Tuple[int, ...]
    delta: int

    def __post_init__(self) -> None:
        d = DegreeTuple(self.degrees)
        w, r = _validate_wrapping(self.n, self.v, len(d))
        if not _is_int(self.delta) or not r - self.n <= self.delta <= self.n - 1:
            raise InadmissibleOrbit(
                f"delta {self.delta!r} outside {r - self.n}..{self.n - 1} "
                f"for support size {r}"
            )
        object.__setattr__(self, "degrees", d)
        object.__setattr__(self, "v", w)

    @property
    def support_size(self) -> int:
        return sum(1 for c in self.v if c)

    @property
    def morse_index(self) -> int:
        return self.n - 1 - self.delta

    @property
    def action(self) -> int:
        """Degree-weighted total wrapping; equals minus the pairing of the
        wrapping numbers with v."""
        return sum(c * e for c, e in zip(self.v, self.degrees))

    @property
    def cz(self) -> int:
        return self.delta - 2 * sum(self.v)

    @property
    def homology(self) -> HomologyElement:
        """Class of the orbit in H_1 of the complement."""
        return homology_reduce(self.v, self.degrees)

    def to_json(self) -> dict:
        return {
            "v": list(self.v),
            "delta": self.delta,
            "morse_index": self.morse_index,
            "action": self.action,
            "cz": self.cz,
            "homology": list(self.homology.coordinates),
        }


def orbit_spectrum(n: int, degrees: Sequence[int], action_cap: int) -> List[OrbitClass]:
    """All orbit classes with action at most ``action_cap``.

    Enumerates wrapping vectors v (nonzero, nonnegative, support <= n,
    action = sum v_i d_i <= cap) and all admissible delta for each, sorted
    by (action, v, delta).  An ``action_cap`` below the smallest degree
    yields an empty list — that is a valid (empty) spectrum, not an error.

    Note: the result enumerates orbit *classes* (Morse-Bott families with a
    Morse label), not individual orbits — each class with support size r
    stands for a whole (2n - r - 1)-dimensional family worth of orbits, and
    no multiplicity counts are implied.
    """
    _require_int(n, "complex dimension")
    _require_int(action_cap, "action cap", 0)
    d = DegreeTuple(degrees)
    k = len(d)
    max_support = min(n, k)
    vectors: List[Tuple[int, ...]] = []

    def rec(idx: int, budget: int, support: int, prefix: Tuple[int, ...]) -> None:
        if idx == k:
            if any(prefix):
                vectors.append(prefix)
            return
        for c in range(budget // d[idx] + 1):
            s = support + (1 if c else 0)
            if s > max_support:
                break
            rec(idx + 1, budget - c * d[idx], s, prefix + (c,))

    rec(0, action_cap, 0, ())
    del rec  # the closure refers to itself: free it now, not at the next collection
    out: List[OrbitClass] = []
    for v in vectors:
        r = sum(1 for c in v if c)
        for delta in range(r - n, n):
            out.append(OrbitClass(n, d, v, delta))
    out.sort(key=lambda oc: (oc.action, oc.v, oc.delta))
    return out


@_frozen_record
class FormalCurveSpec(_JsonFields):
    """A formal punctured rational curve in a complement.

    ``positive_ends`` are the asymptotic orbit classes; ``q`` is the degree
    of the closed curve obtained by capping each end with the obvious
    multiply-covered disk, which forces sum of end wrappings = q * degrees;
    ``tangency_order`` m, when not None, imposes a point constraint of
    contact order m (m >= 1) with a chosen divisor germ.
    """

    n: int
    degrees: DegreeTuple
    positive_ends: Tuple[OrbitClass, ...]
    q: int
    tangency_order: Optional[int] = None

    def __post_init__(self) -> None:
        d = DegreeTuple(self.degrees)
        ends = tuple(self.positive_ends)
        _require_int(self.q, "capping degree", 0)
        if self.tangency_order is not None:
            _require_int(self.tangency_order, "tangency order")
        for oc in ends:
            if oc.n != self.n or DegreeTuple(oc.degrees) != d:
                raise InconsistentHomology(
                    "curve ends must live on the same complement as the curve"
                )
        total = [0] * len(d)
        for oc in ends:
            for i, c in enumerate(oc.v):
                total[i] += c
        if any(total[i] != self.q * d[i] for i in range(len(d))):
            raise InconsistentHomology(
                f"end wrappings sum to {tuple(total)}, expected q*d = "
                f"{tuple(self.q * e for e in d)}"
            )
        object.__setattr__(self, "degrees", d)
        object.__setattr__(self, "positive_ends", ends)

    @classmethod
    def with_inferred_q(
        cls,
        n: int,
        degrees: Sequence[int],
        positive_ends: Sequence[OrbitClass],
        tangency_order: Optional[int] = None,
    ) -> "FormalCurveSpec":
        """Build a spec inferring the capping degree from the ends.

        The end wrappings must sum to a nonnegative multiple of the degree
        vector (InconsistentHomology otherwise); that multiple becomes q.
        """
        d = DegreeTuple(degrees)
        ends = tuple(positive_ends)
        return cls(n, d, ends, sum(oc.v[0] for oc in ends) // d[0], tangency_order)


def fredholm_index(
    n: int,
    cz_positive: Iterable[int],
    cz_negative: Iterable[int] = (),
    chern_term: int = 0,
    tangency_order: Optional[int] = None,
) -> int:
    """Index of a formal rational curve with the given asymptotics.

    (n - 3) * (2 - #ends) + sum(cz+) - sum(cz-) + 2 * chern_term, minus the
    codimension 2n + 2m - 2 of an order-m point constraint when present.
    The Conley-Zehnder inputs and the Chern term must be computed in one
    and the same trivialization; the formulas in this module all use the
    complement-induced one.
    """
    pos = list(cz_positive)
    neg = list(cz_negative)
    idx = (n - 3) * (2 - len(pos) - len(neg)) + sum(pos) - sum(neg) + 2 * chern_term
    if tangency_order is not None:
        idx -= 2 * n + 2 * _require_int(tangency_order, "tangency order") - 2
    return idx


def curve_index(spec: FormalCurveSpec) -> int:
    """Fredholm index of a formal curve in a complement.

    The Chern term of the capped degree-q curve in the complement-induced
    trivialization is q * (n + 1).
    """
    return fredholm_index(
        spec.n,
        (oc.cz for oc in spec.positive_ends),
        (),
        chern_term=spec.q * (spec.n + 1),
        tangency_order=spec.tangency_order,
    )


def gw_anchor(n: int) -> int:
    """Count of degree-1 rational curves through two generic points of
    projective n-space with a generic tangency constraint: (n-1)!.

    This is the enumerative anchor pinning down the normalization of the
    curve counts behind the obstruction engine; exposed for reference and
    for tests.
    """
    _require_int(n, "complex dimension")
    return factorial(n - 1)
