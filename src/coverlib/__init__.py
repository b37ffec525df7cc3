"""Petri-net coverability via invariant-pruned backward reachability.

The result, report and problem records are named tuples: ``_asdict()``,
``_replace()`` and ``_fields`` give a dict, a changed copy and the field
names, and records compare, hash and iterate as tuples.
"""

from .ingest import ParseError, Problem, emit_native, parse_native
from .invariants import (
    Invariant,
    SignAnalysis,
    SignInvariant,
    StateInvariant,
    TrivialInvariant,
    make_invariant,
    sign_analysis,
)
from .net import Marking, PetriNet
from .preprocess import (
    PruneReport,
    PruneRound,
    prune_dead_transitions,
    prune_problem,
)
from .ratlp import FeasibilityProblem, feasible
from .solver import (
    IterationStats,
    SolveResult,
    Verdict,
    extract_witness,
    solve,
)
from .upset import Basis, minimize

__version__ = "0.1.0"

__all__ = [
    "Basis",
    "ExploreBound",
    "FeasibilityProblem",
    "Invariant",
    "IterationStats",
    "Marking",
    "OracleOutcome",
    "OutcomeKind",
    "ParseError",
    "PetriNet",
    "Problem",
    "PruneReport",
    "PruneRound",
    "SignAnalysis",
    "SignInvariant",
    "SolveResult",
    "StateInvariant",
    "TrivialInvariant",
    "Verdict",
    "bounded_cover",
    "emit_native",
    "extract_witness",
    "feasible",
    "make_invariant",
    "minimize",
    "parse_mist",
    "parse_native",
    "prune_dead_transitions",
    "prune_problem",
    "reachable_markings",
    "sign_analysis",
    "solve",
]

# Names bound on first read (PEP 562), each to the submodule that defines it.
_LAZY = {
    "parse_mist": "mist",
    "ExploreBound": "refcheck",
    "OracleOutcome": "refcheck",
    "OutcomeKind": "refcheck",
    "bounded_cover": "refcheck",
    "reachable_markings": "refcheck",
}


def __getattr__(name: str):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module
    value = getattr(import_module(f".{_LAZY[name]}", __name__), name)
    globals()[name] = value  # later reads are plain lookups
    return value


def __dir__():
    return sorted(globals().keys() | _LAZY.keys())
