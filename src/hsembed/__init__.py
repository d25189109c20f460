"""Embedding obstructions and witnesses for hypersurface arrangement complements.

The package decides, with replayable evidence, whether the complement
attached to one degree tuple embeds into the complement attached to another:

* :mod:`hsembed.model` — degree tuples, first homology, verdict values;
* :mod:`hsembed.lattice` — exact integer linear algebra (Smith normal form,
  linear Diophantine systems, homology-compatible matrix search);
* :mod:`hsembed.order` — the constructive partial order generated by
  combining and duplicating components, plus the surface analogue;
* :mod:`hsembed.indices` — Reeb orbit classes, Conley–Zehnder and Fredholm
  index formulas, and the derived numeric invariants;
* :mod:`hsembed.engine` — quick obstruction rules, the certified witness
  search, and the top-level :func:`decide` ladder;
* :mod:`hsembed.cli` — the ``hsembed`` command.
"""

from .engine import (
    Budget,
    Certificate,
    DEGREE_HYP_NOT_LEQQ,
    FeasibilityWitness,
    FN_ALMOST_SYMPLECTIC,
    GCD_SINGLE,
    HYPERPLANE_TARGET,
    HypothesisViolated,
    LIOUVILLE,
    MODES,
    SUM_DROP,
    SYMPLECTIC,
    SearchOutcome,
    WEINSTEIN,
    WITNESS_INFEASIBLE,
    check_feasibility_witness,
    decide,
    enumerate_vector_partitions,
    quick_checks,
    replay_certificate,
    verify_verdict,
    witness_search,
)
from .indices import (
    FormalCurveSpec,
    InadmissibleOrbit,
    InconsistentHomology,
    OrbitClass,
    curve_index,
    cz_index,
    cz_index_anticanonical,
    f_invariant,
    fredholm_index,
    gw_anchor,
    orbit_spectrum,
)
from .lattice import (
    DimensionMismatch,
    IntMatrix,
    SnfDecomposition,
    hom_exists,
    smith_normal_form,
    solve_diophantine,
)
from .model import (
    DegreeTuple,
    EmptyInput,
    HomologyElement,
    LengthMismatch,
    NO,
    NonPositiveEntry,
    UNKNOWN,
    Verdict,
    YES,
    homology_reduce,
)
from .order import (
    COMBINE,
    DUPLICATE,
    DecompositionWitness,
    InvalidMove,
    InvalidSurface,
    Move,
    MoveSequence,
    leqq,
    leqq_bfs,
    leqq_decomposition,
    surface_embeds,
)

__version__ = "0.1.0"

__all__ = [
    "Budget",
    "COMBINE",
    "Certificate",
    "DEGREE_HYP_NOT_LEQQ",
    "DUPLICATE",
    "DecompositionWitness",
    "DegreeTuple",
    "DimensionMismatch",
    "EmptyInput",
    "FN_ALMOST_SYMPLECTIC",
    "FeasibilityWitness",
    "FormalCurveSpec",
    "GCD_SINGLE",
    "HYPERPLANE_TARGET",
    "HomologyElement",
    "HypothesisViolated",
    "InadmissibleOrbit",
    "InconsistentHomology",
    "IntMatrix",
    "InvalidMove",
    "InvalidSurface",
    "LIOUVILLE",
    "LengthMismatch",
    "MODES",
    "Move",
    "MoveSequence",
    "NO",
    "NonPositiveEntry",
    "OrbitClass",
    "SUM_DROP",
    "SYMPLECTIC",
    "SearchOutcome",
    "SnfDecomposition",
    "UNKNOWN",
    "Verdict",
    "WEINSTEIN",
    "WITNESS_INFEASIBLE",
    "YES",
    "check_feasibility_witness",
    "curve_index",
    "cz_index",
    "cz_index_anticanonical",
    "decide",
    "enumerate_vector_partitions",
    "f_invariant",
    "fredholm_index",
    "gw_anchor",
    "hom_exists",
    "homology_reduce",
    "leqq",
    "leqq_bfs",
    "leqq_decomposition",
    "orbit_spectrum",
    "quick_checks",
    "replay_certificate",
    "smith_normal_form",
    "solve_diophantine",
    "surface_embeds",
    "verify_verdict",
    "witness_search",
]
