"""Inputs, one pass, and output checks for each benchmark workload.

Every workload is a closed loop with one client: the next query is issued
only when the previous one has returned, with ``threads=1``.  The seed only
permutes query order; the query sets themselves are fixed.

* ``window``  - the criterion-3 corpus through ``decide`` (n = 1..3, degree
  sums <= 7, target sum < 2*sum(source) - n - 1): the order layer decides.
* ``search``  - five out-of-window NO queries whose witness search is
  exhaustive: Smith normal form decides.
* ``capped``  - two out-of-window queries under ``call_cap=2000``: partition
  enumeration and homology reduction decide.
* ``poset``   - ``hsembed poset --n 2 --max-sum 8`` as a subprocess: the
  only workload that goes through the CLI.
"""

from __future__ import annotations

import hashlib
import importlib
import io
import os
import random
import resource
import subprocess
import sys
from contextlib import redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter_ns
from types import SimpleNamespace
from typing import Dict, List, Optional, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("model", "lattice", "order", "indices", "engine", "cli")

WORKLOADS = ("window", "search", "capped", "poset")
SEARCH_QUERIES = (
    (2, (3, 3), (7, 7)),
    (2, (3, 1), (2, 1, 1, 1, 1)),
    (2, (3, 1), (2, 2, 1, 1)),
    (2, (3, 1), (2, 2, 2)),
    (2, (3, 3), (5, 5)),
)
REPLAYED_QUERY = (2, (3, 3), (5, 5))  # the search certificate cheap enough to replay per run
CAPPED_QUERIES = ((3, (4, 3), (9, 9)), (3, (4, 4), (9, 8)))
CAPPED_CALL_CAP = 2000
POSET_MAX_SUM = 8
COLD_START_ARGS = ("decide", "--n", "2", "--source", "3", "--target", "4,2")
COLD_START_EXIT = 1  # the cold-start query is a NO
# Set-up is repeated this many times per run (fresh import each time) and
# its median reported; the heavy workloads' warm-up pass is as long as a
# timed pass, so they set up once.
SETUP_REPEATS = {"window": 3, "search": 1, "capped": 1, "poset": 1}

Query = Tuple[int, Tuple[int, ...], Tuple[int, ...]]

class MissingProgram(RuntimeError):
    """The checkout has no hsembed sources under src/."""


def load_hsembed() -> SimpleNamespace:
    """Import hsembed afresh from ``src/`` and return its modules.

    Earlier imports are dropped first, so each call starts with the empty
    process-wide caches that a new process would have.
    """
    if not (SRC / "hsembed" / "__init__.py").is_file():
        raise MissingProgram(f"no hsembed package under {SRC}")
    for name in [m for m in sys.modules if m == "hsembed" or m.startswith("hsembed.")]:
        del sys.modules[name]
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    pkg = importlib.import_module("hsembed")
    if Path(pkg.__file__).resolve().parent != SRC / "hsembed":
        raise MissingProgram(f"hsembed was imported from {pkg.__file__}, not {SRC}")
    return SimpleNamespace(**{m: importlib.import_module(f"hsembed.{m}") for m in MODULES})


def _partitions(total: int) -> List[Tuple[int, ...]]:
    out: List[Tuple[int, ...]] = []

    def rec(remaining: int, largest: int, prefix: Tuple[int, ...]) -> None:
        if remaining == 0:
            out.append(prefix)
            return
        for part in range(min(largest, remaining), 0, -1):
            rec(remaining - part, part, prefix + (part,))

    rec(total, total, ())
    return out


def window_queries(max_sum: int = 7) -> List[Query]:
    """The criterion-3 window: every in-window pair for n = 1..3."""
    queries: List[Query] = []
    for n in (1, 2, 3):
        tuples = [p for total in range(n + 1, max_sum + 1) for p in _partitions(total)]
        tuples.sort(key=lambda d: (sum(d), d))
        for src in tuples:
            for dst in tuples:
                if sum(dst) < 2 * sum(src) - n - 1:
                    queries.append((n, src, dst))
    return queries


@dataclass(frozen=True)
class Inputs:
    """What one workload sends to the program, in the seeded order."""

    name: str
    queries: Tuple  # decide queries, or CLI argument lists for ``poset``
    call_cap: Optional[int] = None
    max_sum: int = POSET_MAX_SUM


def make_inputs(name: str, seed: int, tiny: bool = False) -> Inputs:
    """Build a workload's inputs; ``tiny`` shrinks them for the unit tests."""
    if name == "window":
        queries: List = window_queries(4 if tiny else 7)
        extra = {}
    elif name == "search":
        queries = [REPLAYED_QUERY] if tiny else list(SEARCH_QUERIES)
        extra = {}
    elif name == "capped":
        queries = list(CAPPED_QUERIES[1:] if tiny else CAPPED_QUERIES)
        extra = {"call_cap": 40 if tiny else CAPPED_CALL_CAP}
    elif name == "poset":
        max_sum = 5 if tiny else POSET_MAX_SUM
        queries = [("poset", "--n", "2", "--max-sum", str(max_sum))]
        extra = {"max_sum": max_sum}
    else:
        raise ValueError(f"unknown workload {name!r}")
    random.Random(seed).shuffle(queries)
    return Inputs(name, tuple(queries), **extra)


@dataclass
class PassResult:
    outputs: List
    query_ns: List[Tuple[int, int]]  # perf_counter_ns before and after each query
    start_ns: int
    end_ns: int

    @property
    def wall_ns(self) -> int:
        return self.end_ns - self.start_ns


def decide_pass(hs: SimpleNamespace, inputs: Inputs) -> PassResult:
    """Send every query to ``engine.decide``, one at a time."""
    engine = hs.engine
    budget = engine.Budget() if inputs.call_cap is None else engine.Budget(call_cap=inputs.call_cap)
    decide = engine.decide  # looked up per pass, so trace wrappers are seen
    outputs = []
    query_ns = []
    started = perf_counter_ns()
    for n, source, target in inputs.queries:
        t0 = perf_counter_ns()
        verdict = decide(n, source, target, engine.LIOUVILLE, budget, 1)
        query_ns.append((t0, perf_counter_ns()))
        outputs.append(verdict)
    return PassResult(outputs, query_ns, started, perf_counter_ns())


def run_cli(args: Sequence[str]) -> subprocess.CompletedProcess:
    """Run one ``hsembed`` command as a child process and wait for it."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    return subprocess.run([sys.executable, "-m", "hsembed.cli", *args],
                          cwd=ROOT, env=env, capture_output=True)


def poset_pass(inputs: Inputs) -> PassResult:
    """One ``hsembed poset`` child process per query."""
    outputs = []
    query_ns = []
    started = perf_counter_ns()
    for args in inputs.queries:
        t0 = perf_counter_ns()
        proc = run_cli(args)
        query_ns.append((t0, perf_counter_ns()))
        outputs.append((proc.returncode, proc.stdout))
    return PassResult(outputs, query_ns, started, perf_counter_ns())


def poset_in_process(hs: SimpleNamespace, inputs: Inputs) -> PassResult:
    """The same pass through ``cli.main`` in this process (for tracing)."""
    outputs = []
    query_ns = []
    started = perf_counter_ns()
    for args in inputs.queries:
        buf = io.StringIO()
        t0 = perf_counter_ns()
        with redirect_stdout(buf):
            code = hs.cli.main(list(args))
        query_ns.append((t0, perf_counter_ns()))
        outputs.append((code, buf.getvalue().encode()))
    return PassResult(outputs, query_ns, started, perf_counter_ns())


def run_pass(hs: SimpleNamespace, inputs: Inputs, in_process: bool = False) -> PassResult:
    if inputs.name == "poset":
        return poset_in_process(hs, inputs) if in_process else poset_pass(inputs)
    return decide_pass(hs, inputs)


def child_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# --- output checks (never inside a timed region) ---------------------------


def window_oracle(hs: SimpleNamespace, inputs: Inputs) -> Dict[Query, bool]:
    """Whether the order holds, by the breadth-first route alone."""
    bfs = hs.order.leqq_bfs
    return {(n, s, t): bfs(s, t) is not None for n, s, t in inputs.queries}


def check_pass(
    hs: SimpleNamespace,
    inputs: Inputs,
    result: PassResult,
    expected: Dict,
) -> int:
    """Number of queries of one pass whose output fails its check.

    Verdicts are checked by kind and by replaying their evidence, never by
    the bytes of a witness.  ``expected`` carries what the workload's check
    needs beyond the pass itself: the order oracle for ``window`` and the
    DOT digest for ``poset``.
    """
    engine = hs.engine
    failed = 0
    for query, out in zip(inputs.queries, result.outputs):
        if inputs.name == "window":
            n, s, t = query
            ok = (
                out.kind != "UNKNOWN"
                and (out.kind == "YES") == expected["leqq"][query]
                and engine.verify_verdict(n, s, t, engine.LIOUVILLE, out)
            )
        elif inputs.name == "search":
            cert = out.certificate
            ok = (
                out.kind == "NO"
                and cert.rule == "WITNESS_INFEASIBLE"
                and cert.search_bounds["exhausted"] is True
            )
        elif inputs.name == "capped":
            ok = (
                out.kind == "UNKNOWN"
                and out.search_bounds["calls_used"] <= inputs.call_cap + 1
            )
        else:
            code, stdout = out
            ok = code == 0 and hashlib.sha256(stdout).hexdigest() == expected["dot_sha256"]
        failed += not ok
    return failed


def replay_search_certificate(hs: SimpleNamespace, inputs: Inputs, result: PassResult) -> int:
    """Fully replay the cheapest WITNESS_INFEASIBLE certificate; 1 if it fails."""
    for query, verdict in zip(inputs.queries, result.outputs):
        if query == REPLAYED_QUERY:
            n, s, t = query
            return 0 if hs.engine.verify_verdict(n, s, t, hs.engine.LIOUVILLE, verdict) else 1
    return 0


def cold_start(samples: int) -> Tuple[List[Tuple[int, int]], int]:
    """Run ``hsembed decide`` child processes; returns their perf_counter_ns
    intervals and the number that failed."""
    intervals = []
    failed = 0
    for _ in range(samples):
        t0 = perf_counter_ns()
        proc = run_cli(COLD_START_ARGS)
        intervals.append((t0, perf_counter_ns()))
        failed += proc.returncode != COLD_START_EXIT or b'"kind": "NO"' not in proc.stdout
    return intervals, failed
