"""Embedding obstructions and witnesses for hypersurface arrangement complements.

The package decides, with replayable evidence, whether the complement
attached to one degree tuple embeds into the complement attached to another:

* :mod:`hsembed.model` — degree tuples, first homology, the gcd threshold
  ``f_invariant``, verdict values and embedding modes;
* :mod:`hsembed.lattice` — exact integer linear algebra (Smith normal form,
  linear Diophantine systems, homology-compatible matrix search);
* :mod:`hsembed.order` — the constructive partial order generated by
  combining and duplicating components, plus the surface analogue;
* :mod:`hsembed.indices` — Reeb orbit classes, Conley–Zehnder and Fredholm
  index formulas, and the derived numeric invariants;
* :mod:`hsembed.engine` — quick obstruction rules, the certified witness
  search, and the top-level :func:`decide` ladder;
* :mod:`hsembed.cli` — the ``hsembed`` command.

Importing the package loads none of these.  Each name in ``__all__`` is
resolved on first use (PEP 562) from the one module ``_EXPORTS`` names for
it, so ``from hsembed import leqq`` loads ``model`` and ``order`` only.
"""

import importlib

__version__ = "0.1.0"

# Each export and the module that defines it.
_EXPORTS = {
    name: module
    for module, names in (
        ("engine", """
            Budget Certificate DEGREE_HYP_NOT_LEQQ FN_ALMOST_SYMPLECTIC FeasibilityWitness
            GCD_SINGLE HYPERPLANE_TARGET HypothesisViolated SUM_DROP SearchOutcome
            WITNESS_INFEASIBLE check_feasibility_witness decide enumerate_vector_partitions
            quick_checks replay_certificate verify_verdict witness_search
        """),
        ("indices", """
            FormalCurveSpec InadmissibleOrbit InconsistentHomology OrbitClass curve_index
            cz_index cz_index_anticanonical fredholm_index gw_anchor orbit_spectrum
        """),
        ("lattice", """
            DimensionMismatch IntMatrix SnfDecomposition hom_exists smith_normal_form
            solve_diophantine
        """),
        ("model", """
            DegreeTuple EmptyInput HomologyElement LIOUVILLE LengthMismatch MODES NO
            NonPositiveEntry SYMPLECTIC UNKNOWN Verdict WEINSTEIN YES f_invariant homology_reduce
        """),
        ("order", """
            COMBINE DUPLICATE DecompositionWitness InvalidMove InvalidSurface Move
            MoveSequence leqq leqq_bfs leqq_decomposition surface_embeds
        """),
    )
    for name in names.split()
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str) -> object:
    module = _EXPORTS.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{module}"), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list:
    return sorted({*globals(), *__all__})
