"""Degree tuples, arrangement complements, and first-homology arithmetic.

The geometric objects behind this package are complements of unions of
smooth hypersurfaces in complex projective space CP^n.  Their combinatorial
shadow, which is all the solver ever touches, is the unordered multiset of
positive hypersurface degrees together with the complex dimension n.  First
homology of such a complement is Z^k modulo the single relation given by the
degree vector, and most obstructions in this package are statements about
that quotient.

Conventions fixed here and relied on everywhere downstream:

* degree tuples are stored in non-increasing order (two tuples describe the
  same arrangement iff they compare equal);
* homology classes are integer vectors modulo Z*(d_1, ..., d_k), reduced to
  the unique representative whose last coordinate lies in [0, d_k).

``f_invariant``, the gcd threshold behind the GCD_SINGLE rule, is defined
here because it reads only n and the degrees, so the engine's quick rules
load no other module for it; :mod:`hsembed.indices` re-exports it.
"""

from __future__ import annotations

import math
from typing import Any, Iterable, Optional, Sequence, Tuple


class EmptyInput(ValueError):
    """Raised when a degree tuple or vector list is empty."""


class NonPositiveEntry(ValueError):
    """Raised when a degree entry is not a positive integer."""


class LengthMismatch(ValueError):
    """Raised when a vector's length disagrees with the ambient tuple."""


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _require_int(value: Any, what: str, minimum: int = 1, error: type = ValueError) -> int:
    """``value`` when it is an int, not a bool, of at least ``minimum`` (1 or
    0).  Otherwise raises ``error`` with the message "<what> must be a
    positive integer, got <value!r>", or "must be a nonnegative integer"
    when ``minimum`` is 0."""
    if not _is_int(value) or value < minimum:
        kind = "positive" if minimum == 1 else "nonnegative"
        raise error(f"{what} must be a {kind} integer, got {value!r}")
    return value


def _require_ints(values: Iterable[Any], what: str, error: type = ValueError) -> Tuple[int, ...]:
    """``values`` as a tuple when every entry is an int, not a bool.
    Otherwise raises ``error`` with the message "<what> entries must be
    integers, got <entry!r>"."""
    items = tuple(values)
    for c in items:
        if not _is_int(c):
            raise error(f"{what} entries must be integers, got {c!r}")
    return items


def _jsonify(obj: Any) -> Any:
    if hasattr(obj, "to_json"):
        return obj.to_json()
    if isinstance(obj, dict):
        return {k: _jsonify(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonify(v) for v in obj]
    return obj


class _JsonFields:
    """Mixin for a ``_frozen_record`` class whose JSON is its fields, in
    declaration order, each rendered by ``_jsonify``: tuples become lists
    and nested evidence is its own ``to_json``."""

    def to_json(self) -> dict:
        return {name: _jsonify(getattr(self, name)) for name in self._fields}


class _SparseJsonFields:
    """``_JsonFields`` without the fields whose value is None, so an absent
    key means the field's None default."""

    def to_json(self) -> dict:
        values = ((name, getattr(self, name)) for name in self._fields)
        return {name: _jsonify(value) for name, value in values if value is not None}


def _values(record: Any) -> tuple:
    return tuple(getattr(record, name) for name in record._fields)


def _record_eq(self: Any, other: Any) -> Any:
    if other.__class__ is not self.__class__:
        return NotImplemented
    return _values(self) == _values(other)


def _record_hash(self: Any) -> int:
    return hash(_values(self))


def _record_repr(self: Any) -> str:
    args = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
    return f"{self.__class__.__qualname__}({args})"


def _record_setattr(self: Any, name: str, value: Any) -> None:
    raise AttributeError(f"cannot assign to field {name!r}")


def _record_delattr(self: Any, name: str) -> None:
    raise AttributeError(f"cannot delete field {name!r}")


def _frozen_record(cls: type) -> type:
    """Make ``cls`` a frozen record of its annotated fields, kept in
    declaration order in ``cls._fields``.

    The record gets a positional-or-keyword ``__init__`` whose defaults are
    the class-body values, and which calls ``__post_init__`` last when the
    class defines one (that hook normalizes fields through
    ``object.__setattr__``).  Records of the same class are equal when
    their field values are, hash as the tuple of those values, print as
    ``Name(field=value, ...)``, and raise AttributeError on assignment or
    deletion.  A method the class defines itself, such as its own
    ``__repr__``, stays.
    """
    # through the attribute: since Python 3.14 (PEP 649) the class dict
    # need not hold the annotations
    names = tuple(cls.__annotations__)
    params = ", ".join(f"{n}=_cls.{n}" if n in cls.__dict__ else n for n in names)
    lines = [f"def __init__(self, {params}):"]
    lines += [f"    _set(self, {n!r}, {n})" for n in names]
    if hasattr(cls, "__post_init__"):
        lines.append("    self.__post_init__()")
    # one compiled __init__ per class: a shared ``__init__(self, *args,
    # **kwargs)`` builds a record about half as fast
    scope: dict = {}
    exec("\n".join(lines), {"_set": object.__setattr__, "_cls": cls}, scope)
    methods = {
        "__init__": scope["__init__"], "_fields": names,
        "__eq__": _record_eq, "__hash__": _record_hash, "__repr__": _record_repr,
        "__setattr__": _record_setattr, "__delattr__": _record_delattr,
    }
    for name, value in methods.items():
        # None: a class that defines __eq__ gets __hash__ = None implicitly
        if cls.__dict__.get(name) is None:
            setattr(cls, name, value)
    return cls


class DegreeTuple(tuple):
    """Canonical unordered tuple of positive hypersurface degrees.

    Entries are sorted into non-increasing order on construction, so the
    tuple is a canonical form for the underlying multiset: permutations of
    the input produce equal objects.  Immutable and hashable; usable
    anywhere a plain tuple of ints is.

    >>> DegreeTuple([2, 3, 2])
    DegreeTuple(3, 2, 2)
    >>> DegreeTuple([2, 3, 2]) == DegreeTuple([3, 2, 2])
    True
    """

    __slots__ = ()

    def __new__(cls, entries: Iterable[int]) -> "DegreeTuple":
        if type(entries) is DegreeTuple:
            return entries  # validated and sorted when it was built
        items = tuple(entries)
        if not items:
            raise EmptyInput("degree tuple must contain at least one entry")
        for e in items:
            if not _is_int(e) or e < 1:
                raise NonPositiveEntry(
                    f"degree entries must be positive integers, got {e!r}"
                )
        return super().__new__(cls, sorted(items, reverse=True))

    def total(self) -> int:
        """Sum of all degrees (the degree of the whole arrangement)."""
        return sum(self)

    def gcd(self) -> int:
        """Greatest common divisor of the degrees."""
        return math.gcd(*self)

    def __repr__(self) -> str:
        return "DegreeTuple(%s)" % ", ".join(str(e) for e in self)


@_frozen_record
class HomologyElement(_JsonFields):
    """An element of H_1 of a complement, i.e. Z^k modulo Z*(d_1,...,d_k).

    ``coordinates`` are always stored in the canonical reduced form whose
    last coordinate lies in [0, d_k), so record equality coincides with
    equality in the quotient group.  Construct via :func:`homology_reduce`
    or directly; reduction happens either way.
    """

    coordinates: tuple
    modulus: DegreeTuple

    def __post_init__(self) -> None:
        mod = DegreeTuple(self.modulus)
        coords = _require_ints(self.coordinates, "homology vector")
        if len(coords) != len(mod):
            raise LengthMismatch(
                f"vector length {len(coords)} != tuple length {len(mod)}"
            )
        # Canonical representative: subtract the unique multiple of the
        # relation vector that lands the last coordinate in [0, d_k).
        t = coords[-1] // mod[-1]
        coords = tuple(c - t * m for c, m in zip(coords, mod))
        object.__setattr__(self, "modulus", mod)
        object.__setattr__(self, "coordinates", coords)

    @property
    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coordinates)


def homology_reduce(vector: Sequence[int], degrees: Iterable[int]) -> HomologyElement:
    """Reduce an integer vector to its canonical class in Z^k / Z*(degrees).

    The representative is the unique one in the coset whose last coordinate
    (in the canonical non-increasing ordering of ``degrees``) lies in
    [0, d_k).  Raises LengthMismatch if the vector length is wrong.

    >>> homology_reduce((3, 1, 1), (1, 1, 1)).coordinates
    (2, 0, 0)
    """
    return HomologyElement(tuple(vector), DegreeTuple(degrees))


def f_invariant(n: int, degrees: Sequence[int]) -> int:
    """First-vanishing threshold of the cylinder-type obstruction.

    Equals gcd(d) / gcd(gcd(d), n + 1): the smallest positive i such that
    i * (n + 1) is a multiple of gcd(d), i.e. such that a degree-divisible
    cap can kill the relevant unit.  Monotone under the partial order, so
    non-divisibility of targets' values by sources' is a NO certificate
    (valid in all modes, including almost-symplectic ones).

    >>> f_invariant(2, (6, 4))
    2
    """
    _require_int(n, "complex dimension")
    g = DegreeTuple(degrees).gcd()
    return g // math.gcd(g, n + 1)


# Verdict kinds for the decision engine.
YES = "YES"
NO = "NO"
UNKNOWN = "UNKNOWN"

# Embedding modes a query asks about.
LIOUVILLE = "liouville"
WEINSTEIN = "weinstein"
SYMPLECTIC = "symplectic"
MODES = (LIOUVILLE, WEINSTEIN, SYMPLECTIC)


@_frozen_record
class Verdict(_SparseJsonFields):
    """Outcome of an embedding query, with its supporting evidence.

    Exactly one of ``witness`` (for YES) and ``certificate`` (for NO) is
    populated; UNKNOWN verdicts carry only a human-readable ``reason``.
    ``witness``/``certificate`` are objects exposing ``to_json``.  When the
    engine ran a witness search on the way to this verdict, ``search_bounds``
    documents the explored grid.  The JSON leaves out the fields that are
    None.
    """

    kind: str
    witness: Any = None
    certificate: Any = None
    reason: Optional[str] = None
    search_bounds: Optional[dict] = None

    def __post_init__(self) -> None:
        if self.kind not in (YES, NO, UNKNOWN):
            raise ValueError(f"unknown verdict kind {self.kind!r}")
        if self.kind == YES and self.witness is None:
            raise ValueError("YES verdicts require a witness")
        if self.kind == NO and self.certificate is None:
            raise ValueError("NO verdicts require a certificate")

    @classmethod
    def yes(cls, witness: Any) -> "Verdict":
        return cls(YES, witness=witness)

    @classmethod
    def no(cls, certificate: Any, search_bounds: Optional[dict] = None) -> "Verdict":
        return cls(NO, certificate=certificate, search_bounds=search_bounds)

    @classmethod
    def unknown(cls, reason: str, search_bounds: Optional[dict] = None) -> "Verdict":
        return cls(UNKNOWN, reason=reason, search_bounds=search_bounds)
