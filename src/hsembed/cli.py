"""Command-line front end: one-shot queries with stable JSON output.

Four subcommands: ``decide`` (the full verdict ladder), ``leqq`` (just the
constructive partial order), ``spectrum`` (Reeb orbit class tables), and
``poset`` (DOT export of the order's covering relations on a degree range).
Each ``poset`` cover is one combine or duplicate move, so its Liouville and
Weinstein label is YES by construction; symplectic labels come from ``decide``.

Each subcommand loads only the layers it runs: ``leqq`` and a Liouville or
Weinstein ``poset`` load ``model`` and ``order``, and ``spectrum`` adds
``indices``.  ``decide`` and the symplectic ``poset`` labels add ``engine``
through this module's ``decide``, which imports it on first call; the
engine imports ``lattice`` only when a query reaches the witness search, so
an answer from a quick rule or from the order loads neither ``lattice``
nor ``indices``.  ``json`` is imported only to write a JSON record.

Output contract: stdout carries either deterministic JSON (sorted keys,
two-space indent, no volatile fields — byte-stable across runs for equal
inputs) or a short human rendering with ``--human``, except that
``poset`` always prints DOT and takes no format flag.  ``--out FILE``
additionally writes the full query record including wall time; the file
is opened, without truncating it, once every argument has passed its
check, so a path that cannot be written is a usage error, and it is
rewritten only once stdout is written, so a usage error, a failed or an
interrupted query leaves an existing file untouched.  ``DegreeTuple``
checks the degrees and ``Budget`` the caps.  A usage error names the
argument it concerns.
Exit codes: 0 = YES/true, 1 = NO/false, 2 = UNKNOWN, 64 = usage error,
and 0 for the purely informational commands.
"""

from __future__ import annotations

import argparse
import contextlib
import os
import stat
import sys
import time
from typing import Callable, Iterator, List, Optional, Sequence, Tuple

from . import __version__, order
from .model import (
    LIOUVILLE, MODES, NO, SYMPLECTIC, UNKNOWN, YES, DegreeTuple, _jsonify, _require_int,
)
from .order import leqq

SCHEMA_VERSION = 2
EXIT_YES = 0
EXIT_NO = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64


class UsageError(Exception):
    """Command-line usage problem; rendered to stderr with exit 64."""


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise UsageError(message)


def _degrees(text: str) -> DegreeTuple:
    """Argument type: comma-separated degrees, every field by ``DegreeTuple``."""
    try:
        return DegreeTuple(int(p) for p in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated positive integers, got {text!r}"
        ) from None


def _checked(parse: Callable[[str], object], check: Callable[[object], object]) -> Callable:
    """Argument type: ``check(parse(text))``, or ``check(text)`` when
    ``parse`` rejects the text; ``check``'s ValueError is the usage error."""

    def convert(text: str) -> object:
        try:
            value: object = parse(text)
        except ValueError:
            value = text
        try:
            return check(value)
        except ValueError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None

    return convert


def _int_at_least(minimum: int) -> Callable:
    """Argument type: an integer of at least ``minimum`` (1 or 0)."""
    return _checked(int, lambda value: _require_int(value, "value", minimum))


def _cap(name: str, parse: Callable[[str], object]) -> Callable:
    """Argument type: the ``Budget`` field ``name``, by ``Budget``'s rule."""

    def check(value: object) -> object:
        from .engine import Budget

        return getattr(Budget(**{name: value}), name)

    return _checked(parse, check)


def build_parser() -> _Parser:
    parser = _Parser(prog="hsembed", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", help="decide an embedding query with evidence")
    p.set_defaults(run=cmd_decide)
    p.add_argument("--n", type=_int_at_least(1), required=True, help="complex dimension")
    p.add_argument("--source", type=_degrees, required=True, help="comma-separated source degrees")
    p.add_argument("--target", type=_degrees, required=True, help="comma-separated target degrees")
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)
    p.add_argument("--q-cap", type=_cap("q_cap", int), dest="q_cap")
    p.add_argument("--call-cap", type=_cap("call_cap", int), dest="call_cap")
    p.add_argument("--time-cap", type=_cap("time_cap", float), dest="time_cap")
    p.add_argument(
        "--threads", type=_int_at_least(1), default=1,
        help="accepted for compatibility; the search runs sequentially",
    )

    p = sub.add_parser("leqq", help="decide the constructive partial order")
    p.set_defaults(run=cmd_leqq)
    p.add_argument("--source", type=_degrees, required=True)
    p.add_argument("--target", type=_degrees, required=True)

    p = sub.add_parser("spectrum", help="tabulate Reeb orbit classes up to an action cap")
    p.set_defaults(run=cmd_spectrum)
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--degrees", type=_degrees, required=True)
    p.add_argument("--action-cap", type=_int_at_least(0), required=True, dest="action_cap")

    p = sub.add_parser("poset", help="export the partial order as a DOT graph")
    p.set_defaults(run=cmd_poset, as_json=False)  # its one human line is the DOT graph
    p.add_argument("--n", type=_int_at_least(1), required=True)
    p.add_argument("--max-sum", type=_int_at_least(0), required=True, dest="max_sum")
    p.add_argument("--mode", choices=MODES, default=LIOUVILLE)

    for name in ("decide", "leqq", "spectrum"):
        fmt = sub.choices[name].add_mutually_exclusive_group()
        fmt.add_argument("--json", action="store_true", default=True, dest="as_json")
        fmt.add_argument("--human", action="store_false", dest="as_json")
    for p in sub.choices.values():
        p.add_argument("--out", metavar="FILE", help="also write the full query record")
    return parser


def _dump(record: dict) -> str:
    import json  # on use: poset prints DOT and dumps a record only for --out

    return json.dumps(record, sort_keys=True, indent=2) + "\n"


def _record(command: str, inputs: dict, payload: dict) -> dict:
    rec = {
        "schema_version": SCHEMA_VERSION,
        "engine_version": __version__,
        "command": command,
        "inputs": inputs,
    }
    rec.update(payload)
    return rec


def decide(*args, **kwargs):
    """Forward to :func:`hsembed.engine.decide`, importing the engine on the
    first call.  A function of this module, so a tracer or a test can
    replace it here without importing the search."""
    from . import engine

    return engine.decide(*args, **kwargs)


def cmd_decide(args: argparse.Namespace) -> Tuple[dict, List[str], int]:
    from .engine import Budget

    caps = {name: getattr(args, name) for name in ("q_cap", "call_cap", "time_cap")}
    budget = Budget(**{name: cap for name, cap in caps.items() if cap is not None})
    verdict = decide(args.n, args.source, args.target, args.mode, budget, args.threads)
    inputs = {
        "n": args.n,
        "source": list(args.source),
        "target": list(args.target),
        "mode": args.mode,
        **budget.to_json(),
        "threads": args.threads,
    }
    record = _record(
        "decide",
        inputs,
        {
            "verdict": verdict.to_json(),
            "search_bounds": verdict.search_bounds,
        },
    )
    lines = [f"verdict: {verdict.kind} ({args.mode})"]
    if verdict.kind == YES:
        import json

        lines.append(f"witness: {json.dumps(_jsonify(verdict.witness), sort_keys=True)}")
    elif verdict.kind == NO:
        lines.append(f"certificate: {verdict.certificate.rule}")
    else:
        lines.append(f"reason: {verdict.reason}")
    code = {YES: EXIT_YES, NO: EXIT_NO, UNKNOWN: EXIT_UNKNOWN}[verdict.kind]
    return record, lines, code


def cmd_leqq(args: argparse.Namespace) -> Tuple[dict, List[str], int]:
    ok, moves = leqq(args.source, args.target)
    inputs = {"source": list(args.source), "target": list(args.target)}
    record = _record(
        "leqq",
        inputs,
        {"result": ok, "moves": moves.to_json() if moves is not None else None},
    )
    lines = [f"leqq: {str(ok).lower()}"]
    if moves is not None:
        rendered = "; ".join(
            f"{m.op}({m.i},{m.j})" if m.j is not None else f"{m.op}({m.i})"
            for m in moves.moves
        )
        lines.append(f"moves: {rendered if rendered else '(empty)'}")
    return record, lines, EXIT_YES if ok else EXIT_NO


def cmd_spectrum(args: argparse.Namespace) -> Tuple[dict, List[str], int]:
    from .indices import orbit_spectrum

    classes = orbit_spectrum(args.n, args.degrees, args.action_cap)
    inputs = {"n": args.n, "degrees": list(args.degrees), "action_cap": args.action_cap}
    record = _record("spectrum", inputs, {"classes": [oc.to_json() for oc in classes]})
    lines = [f"{len(classes)} orbit classes with action <= {args.action_cap}"]
    for oc in classes:
        lines.append(
            f"action={oc.action} v={oc.v} delta={oc.delta} "
            f"morse={oc.morse_index} cz={oc.cz} homology={oc.homology.coordinates}"
        )
    return record, lines, EXIT_YES


def _partitions(total: int, most: int) -> Iterator[Tuple[int, ...]]:
    """The partitions of ``total`` into parts of at most ``most``, each in
    non-increasing order."""
    if total == 0:
        yield ()
    for part in range(min(total, most), 0, -1):
        for rest in _partitions(total - part, part):
            yield (part, *rest)


def cmd_poset(args: argparse.Namespace) -> Tuple[dict, List[str], int]:
    # The order is the closure of the one-move graph on the nodes.  A move
    # never lowers the entry sum, so every state on a move path between two
    # nodes is itself a node: a <= b iff b is reachable from a by moves
    # through nodes, and every cover is a single move.  A combine makes the
    # tuple lexicographically larger at the same sum and a duplicate raises
    # the sum, so successors sort after their node; one sweep in reverse
    # builds each node's reachable set (a bitset over node positions) from
    # its successors' and keeps the successors that no other successor
    # reaches: the transitive reduction of a DAG (Aho, Garey & Ullman 1972).
    # A move is an embedding by construction, so in Liouville and Weinstein
    # mode, where decide answers YES from the order, each cover is labelled
    # YES from its move; symplectic labels vary and come from decide.
    n = args.n
    nodes = [
        DegreeTuple(parts)
        for total in range(n + 1, args.max_sum + 1)
        for parts in _partitions(total, total)
    ]
    nodes.sort(key=lambda d: (d.total(), d))
    position = {d: i for i, d in enumerate(nodes)}
    reach = [0] * len(nodes)
    covers: List[Tuple[DegreeTuple, DegreeTuple]] = []
    for i in range(len(nodes) - 1, -1, -1):
        a = nodes[i]
        succ = {mv.apply(a) for mv in order._successor_moves(a)}
        succ_pos = [position[t] for t in succ if t in position]
        implied = 0
        for j in succ_pos:
            implied |= reach[j]
        reach[i] = implied
        for j in succ_pos:
            reach[i] |= 1 << j
            if not implied >> j & 1:
                covers.append((a, nodes[j]))
    covers.sort(key=lambda e: (e[0].total(), e[0], e[1].total(), e[1]))

    def node_id(d: DegreeTuple) -> str:
        return ",".join(str(e) for e in d)

    dot: List[str] = ["digraph embedding_order {", "  rankdir=BT;"]
    for d in nodes:
        dot.append(f'  "{node_id(d)}" [label="({node_id(d)})"];')
    for a, b in covers:
        kind = decide(n, a, b, args.mode).kind if args.mode == SYMPLECTIC else YES
        dot.append(f'  "{node_id(a)}" -> "{node_id(b)}" [label="{kind}"];')
    dot.append("}")
    text = "\n".join(dot)
    inputs = {"n": n, "max_sum": args.max_sum, "mode": args.mode}
    record = _record(
        "poset",
        inputs,
        {
            "nodes": [list(d) for d in nodes],
            "covers": [[list(a), list(b)] for a, b in covers],
            "dot": text,
        },
    )
    return record, [text], EXIT_YES


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        # "a" does not truncate: an existing record stays until the query is done
        out = None if args.out is None else open(args.out, "a", encoding="utf-8")
    except OSError as exc:
        print(f"error: argument --out: cannot open {args.out!r}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE
    with out or contextlib.nullcontext():
        started = time.monotonic()
        record, lines, code = args.run(args)
        sys.stdout.write(_dump(record) if args.as_json else "\n".join(lines) + "\n")
        if out:
            full = dict(record)
            full["wall_time_ms"] = int((time.monotonic() - started) * 1000)
            if stat.S_ISREG(os.fstat(out.fileno()).st_mode):
                out.truncate(0)
            out.write(_dump(full))
    return code


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())
