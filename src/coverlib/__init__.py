"""Petri-net coverability via invariant-pruned backward reachability.

The result, report and problem records are named tuples: ``_asdict()``,
``_replace()`` and ``_fields`` give a dict, a changed copy and the field
names, and records compare, hash and iterate as tuples.
"""

from .ingest import ParseError, Problem, emit_native, parse_mist, parse_native
from .invariants import (
    IntersectionInvariant,
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
from .refcheck import (
    ExploreBound,
    OracleOutcome,
    OutcomeKind,
    bounded_cover,
    reachable_markings,
)
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
    "IntersectionInvariant",
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
