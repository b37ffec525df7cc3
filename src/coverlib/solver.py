"""Backward coverability search pruned by a downward-closed invariant.

The solver maintains the minimal basis of an upward-closed set of
markings known to cover the target backwards.  Each round generates the
covering predecessors of the frontier, the basis elements that entered
in the last round, drops the ones already covered, discards the ones
outside the invariant, and merges the rest.  The search stops as soon
as the initial marking enters the set (coverable) or a round contributes
nothing new (uncoverable); termination is guaranteed because strictly
growing upward-closed sets of markings cannot form an infinite chain.

Expanding the frontier alone loses nothing: an older element's
predecessors were generated when it entered, and each is covered by now
or was rejected by the invariant.  A rejected candidate is offered
again, and the invariant queried again, every round while one of the
elements that generated it stays in the basis, as re-expanding the
whole basis would do.  So the per-round counters, the query counts, the
bases and the witness equal those of the full re-expansion, and
``candidates_generated`` is |T| times the basis size.

Only productive pairs are expanded: (t, m) is skipped unless some place
p has post_t(p) > pre_t(p) and m(p) > pre_t(p).  On any other pair
cpre(t, m) covers m, which is in the basis, so the antichain filter
would drop the candidate anyway.  Skipping it changes no counter, and
the per-transition lists of such places are built once per search.

Soundness of pruning needs the invariant to contain every reachable
marking and to be downward closed; all handles in
:mod:`coverlib.invariants` qualify.  With the trivial invariant the
search degrades to the classical backward algorithm.

A run is deterministic: transitions are expanded in declaration order,
bases keep insertion order, and duplicate predecessor candidates are
dropped on first occurrence.  Wall-clock time is deliberately not
measured here.  The result and its per-round counters are named tuples,
which check nothing; ``solve`` builds them with ``tuple.__new__``.
"""

from __future__ import annotations

import math
import time
from enum import Enum
from operator import le
from typing import Dict, List, Mapping, NamedTuple, Optional, Tuple

from .invariants import Invariant, TrivialInvariant, first_refusal
from .net import Marking, PetriNet
from .upset import Basis


class Verdict(Enum):
    COVERABLE = "COVERABLE"
    UNCOVERABLE = "UNCOVERABLE"
    INCONCLUSIVE = "INCONCLUSIVE"


class IterationStats(NamedTuple):
    """Counters for one round of the backward search.

    ``kept`` always equals ``new_after_antichain - pruned_by_invariant``;
    those are the candidates that actually entered the basis.
    """

    index: int
    basis_size: int
    candidates_generated: int
    new_after_antichain: int
    pruned_by_invariant: int
    kept: int


# marking -> (transition, successor marking) the candidate was derived
# from, or None for the target itself.
BackLinks = Dict[Marking, Optional[Tuple[int, Marking]]]


class SolveResult(NamedTuple):
    """What one search found and what it cost.

    ``lp_calls`` and ``sign_checks`` count the queries the search put to
    the state and sign leaves, which a conjunction asks in order up to
    the first that rejects.  A token-flow query answered from a top or
    simplex basis kept earlier counts as one all the same, so the counts
    do not depend on those caches.  ``bases`` and ``backlinks`` are kept
    only with ``record_bases``.
    """

    verdict: Verdict
    witness: Optional[Tuple[int, ...]]
    stats: Tuple[IterationStats, ...]
    invariant_name: str
    target_in_invariant: bool
    lp_calls: int
    sign_checks: int
    final_basis_size: int
    inconclusive_reason: Optional[str] = None
    bases: Optional[Tuple[Basis, ...]] = None
    backlinks: Optional[BackLinks] = None

    @property
    def kept_total(self) -> int:
        return sum(s.kept for s in self.stats)

    @property
    def pruned_total(self) -> int:
        return sum(s.pruned_by_invariant for s in self.stats)

    @property
    def discarded_including_target(self) -> int:
        """Markings the invariant rejected, counting the target itself."""
        return self.pruned_total + (0 if self.target_in_invariant else 1)


def extract_witness(backlinks: Mapping, start: Marking) -> List[int]:
    """Read the transitions on the links from ``start`` to the marking
    whose link is None, in the order the links are walked.

    The backward search's links point toward the target: from a ``start``
    covered by the initial marking they give a firing sequence in firing
    order.  Covering predecessors are compatible with the marking order,
    so replaying it from any marking above ``start`` stays enabled and
    ends above the target.  A forward tree's links point toward its root,
    so from a reached marking they give the sequence that reaches it in
    reverse firing order.  A marking with no link raises ``ValueError``.
    """
    steps: List[int] = []
    node = start
    while True:
        if node not in backlinks:
            raise ValueError("marking has no recorded predecessor link")
        via = backlinks[node]
        if via is None:
            return steps
        t, nxt = via
        steps.append(t)
        node = nxt


def _gains(net: PetriNet) -> List[List[Tuple[int, int]]]:
    # Per transition t, (p, pre_t(p)) for the places p with
    # post_t(p) > pre_t(p).  cpre(t, m) lies below m on such a p iff
    # m(p) > pre_t(p), and nowhere else; so the pair (t, m) is productive
    # iff some entry has m(p) > pre_t(p), else cpre(t, m) covers m.
    return [[(p, n) for p, n, o in arcs if o > n] for arcs in net._arcs]


def solve(
    net: PetriNet,
    target: Marking,
    invariant: Optional[Invariant] = None,
    *,
    budget_steps: Optional[int] = None,
    deadline: Optional[float] = None,
    record_bases: bool = False,
) -> SolveResult:
    """Decide whether some reachable marking covers ``target``.

    ``budget_steps`` bounds the number of search rounds and ``deadline``
    (a ``time.monotonic`` timestamp, checked at the start of each round,
    once per transition expanded and before each invariant query) bounds
    wall time; hitting either yields an INCONCLUSIVE verdict instead of an
    answer.  By default the search runs to completion, which always
    terminates.  Without ``invariant`` nothing is pruned: that is the
    classical backward search.  ``record_bases`` keeps per-round basis
    snapshots and the predecessor links on the result, for inspection and
    testing.  A ``net`` that is not a ``PetriNet``, a ``budget_steps``
    that is not an ``int`` >= 0 (``bool`` included), a ``deadline`` that
    is not a real number or is NaN, or an ``invariant`` that is not a
    handle from ``make_invariant`` raises ``ValueError``.
    """
    if not isinstance(net, PetriNet):
        raise ValueError(f"solve takes a PetriNet, not a {type(net).__name__}")
    if budget_steps is not None and (type(budget_steps) is not int
                                     or budget_steps < 0):
        raise ValueError(f"budget_steps must be an integer >= 0, got {budget_steps!r}")
    # A float or int is taken on sight; only another type is tested for a
    # Real, so ``numbers`` is imported for that test alone.
    if deadline is not None and not (type(deadline) is float and deadline == deadline
                                     or type(deadline) is int):
        from numbers import Real
        if not isinstance(deadline, Real) or isinstance(deadline, bool) or math.isnan(deadline):
            raise ValueError(f"deadline must be a monotonic timestamp, got {deadline!r}")
    target = net.marking(target)
    if invariant is None:
        invariant = TrivialInvariant(net)
    # The bare base, or a subclass that fills in no ``member``, is no handle.
    if not isinstance(invariant, Invariant) or type(invariant).member is Invariant.member:
        raise ValueError(f"invariant must be a handle from make_invariant, got {invariant!r}")
    if invariant.net is not net:
        raise ValueError("invariant was built for a different net")

    leaves = invariant.leaves()
    admitted = len(leaves)
    refused = [0] * (admitted + 1)  # per leaf, then admitted by all
    m_init = net.initial
    refused[first_refusal(leaves, target)] += 1
    target_admitted = refused[admitted] == 1
    backlinks: BackLinks = {}
    if target_admitted:
        backlinks[target] = None
    basis = Basis._of((target,) if target_admitted else (), None)  # an antichain

    stats: List[IterationStats] = []
    bases_log: List[Basis] = []
    verdict: Verdict
    witness: Optional[Tuple[int, ...]] = None
    reason: Optional[str] = None
    nt = len(net.transitions)
    gains = None  # built by the first round that expands
    k = 0
    # The elements that entered the basis in the last round.
    frontier: Tuple[Marking, ...] = basis.elements
    # Rejected candidate -> every (transition, element) that generated it
    # and was still in the basis when it was last rejected.
    rejected: Dict[Marking, List[Tuple[int, Marking]]] = {}

    while True:
        if record_bases:
            bases_log.append(basis)
        # Older elements were tested against m_init in earlier rounds.
        entry = next((x for x in frontier if all(map(le, x, m_init))), None)
        if entry is not None:
            verdict = Verdict.COVERABLE
            witness = tuple(extract_witness(backlinks, entry))
            break
        if budget_steps is not None and k >= budget_steps:
            verdict, reason = Verdict.INCONCLUSIVE, "budget"
            break
        if deadline is not None and time.monotonic() >= deadline:
            verdict, reason = Verdict.INCONCLUSIVE, "deadline"
            break

        # Checking the deadline per transition and per query bounds the
        # overshoot by one transition's expansion, the antichain filter or
        # one query.  An interrupted round is not recorded.
        # Candidate -> every (transition, element) that generated it this
        # round, first occurrence first.
        candidates: Dict[Marking, List[Tuple[int, Marking]]] = {}
        expired = False
        if frontier:  # empty only in round 0, when the target was rejected
            if gains is None:
                gains = _gains(net)
            for t in range(nt):
                if deadline is not None and time.monotonic() >= deadline:
                    expired = True
                    break
                gain = gains[t]
                for m in frontier:
                    for p, n in gain:
                        if m[p] > n:
                            break
                    else:
                        continue  # cpre(t, m) covers m, an element
                    c = net.cpre(t, m)
                    seen = candidates.get(c)
                    if seen is None:
                        candidates[c] = [(t, m)]
                    else:
                        seen.append((t, m))
        # Offer a rejected candidate again while one of its generators is
        # in the basis; elements that left the basis never return.
        live = set(basis) if rejected else ()
        for c, generators in rejected.items():
            if c not in candidates and any(m in live for _, m in generators):
                candidates[c] = []
        kept: List[Marking] = []
        still_rejected: Dict[Marking, List[Tuple[int, Marking]]] = {}
        fresh = [] if expired else basis.filter_uncovered(candidates)
        for c in fresh:
            if deadline is not None and time.monotonic() >= deadline:
                expired = True
                break
            i = first_refusal(leaves, c)
            refused[i] += 1
            if i == admitted:
                kept.append(c)
            else:
                still_rejected[c] = [g for g in rejected.get(c, ())
                                     if g[1] in live] + candidates[c]
        if expired:
            verdict, reason = Verdict.INCONCLUSIVE, "deadline"
            break
        stats.append(tuple.__new__(IterationStats, (k, len(basis), nt * len(basis), len(fresh),
                                                    len(still_rejected), len(kept))))
        if not kept:
            verdict = Verdict.UNCOVERABLE
            break
        for c in kept:
            backlinks.setdefault(c, candidates[c][0])
        rejected = still_rejected
        basis = basis.union(kept)
        # The kept markings that stay minimal are the basis's tail: union
        # puts them after every survivor, and none equals an old element.
        entered, frontier = set(kept), basis.elements
        i = len(frontier)
        while i and frontier[i - 1] in entered:
            i -= 1
        frontier = frontier[i:]
        k += 1

    # A leaf is asked about every marking that no earlier leaf rejected.
    asked, calls = sum(refused), {"state": 0, "sign": 0}
    for leaf, n in zip(leaves, refused):
        if leaf.kind in calls:
            calls[leaf.kind] += asked
        asked -= n
    return tuple.__new__(SolveResult, (
        verdict, witness, tuple(stats), invariant.name, target_admitted, calls["state"],
        calls["sign"], len(basis), reason, tuple(bases_log) if record_bases else None,
        backlinks if record_bases else None))

