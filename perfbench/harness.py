"""The per-instance pipeline and its independent reference check.

``solve_instance`` runs the steps ``coverlib solve --witness`` runs,
through the library API: parse, prune to a fixpoint, build the
invariant, search, and replay a COVERABLE witness on the unreduced net.
The steps are called through the ``coverlib`` package attributes, so
that ``layers.Tracer`` can wrap them.  ``bfs_reference`` decides the
same question without ``solve``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional, Tuple

import coverlib
from coverlib import ExploreBound, OutcomeKind, Verdict, bounded_cover

from generate import Instance


@dataclass(frozen=True)
class Outcome:
    verdict: str
    witness: Optional[Tuple[str, ...]]
    # Why the instance failed inside the pipeline, or None.
    error: Optional[str] = None


def solve_instance(inst: Instance, deadline: float) -> Outcome:
    """Decide ``inst``; ``deadline`` is a ``time.monotonic`` guard."""
    problem = coverlib.parse_native(inst.text, name=inst.name)
    reduced, _ = coverlib.prune_problem(problem, mode="fixpoint")
    invariant = coverlib.make_invariant(reduced.net, inst.invariants)
    result = coverlib.solve(reduced.net, reduced.targets[0], invariant,
                            deadline=deadline)
    if result.verdict is Verdict.INCONCLUSIVE:
        return Outcome(result.verdict.value, None,
                       f"inconclusive ({result.inconclusive_reason})")
    if result.verdict is not Verdict.COVERABLE:
        return Outcome(result.verdict.value, None)
    names = tuple(reduced.net.transitions[t] for t in result.witness)
    net = problem.net
    final = net.fire_sequence(net.initial,
                              [net.transition_index(n) for n in names])
    if final is None or not final.covers(problem.targets[0]):
        return Outcome(result.verdict.value, names,
                       "witness does not replay on the input net")
    return Outcome(result.verdict.value, names)


def timed_solve(inst: Instance, deadline: float) -> Tuple[Outcome, int]:
    """``solve_instance`` with any exception turned into a failed outcome,
    plus its wall time in nanoseconds."""
    started = time.perf_counter_ns()
    try:
        outcome = solve_instance(inst, deadline)
    except Exception as exc:  # a raising instance is a failure, not a stop
        outcome = Outcome("ERROR", None, f"raised {type(exc).__name__}: {exc}")
    return outcome, time.perf_counter_ns() - started


def bfs_reference(inst: Instance) -> Optional[str]:
    """The verdict of bounded forward exploration, or None if it did not close."""
    problem = coverlib.parse_native(inst.text, name=inst.name)
    outcome = bounded_cover(problem.net, problem.targets[0], ExploreBound())
    if outcome.kind is OutcomeKind.COVERABLE:
        return Verdict.COVERABLE.value
    if outcome.kind is OutcomeKind.UNCOVERABLE_EXHAUSTED:
        return Verdict.UNCOVERABLE.value
    return None
