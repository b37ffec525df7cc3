"""Reference computations and checkers, each written once for the tests
and ``corpus_checks.py``.

They recompute results from ``net.pre``/``net.post`` directly rather than
calling the code under test, or re-check the evidence the package gives.
"""

from __future__ import annotations

import itertools
import re
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from operator import add, ge, le, mul, sub
from typing import Dict, FrozenSet, Iterator, List, Optional, Tuple
from unittest.mock import patch

from coverlib import (Invariant, Marking, OutcomeKind, ParseError, PetriNet, Problem,
                      PruneReport, PruneRound, Verdict, make_invariant, parse_native,
                      prune_dead_transitions, solve)
from coverlib.ingest import _NATIVE_TOKEN, _native, _text, _Tokens, _Words
from coverlib.invariants import IntersectionInvariant, StateInvariant

# The identifier rule as the parsers once wrote it, a regex.
IDENT = re.compile(r"(?!_\Z)[A-Za-z_][A-Za-z0-9_.\-]*\Z")


def displacement(net: PetriNet) -> Tuple[Tuple[int, ...], ...]:
    """D: one row per place, one column per transition, post - pre."""
    return tuple(tuple(post[p] - pre[p] for pre, post in zip(net.pre, net.post))
                 for p in range(len(net.places)))


def solves(a, b, witness) -> bool:
    """Whether ``witness = (den, nums)``, read as x = nums / den, meets
    x >= 0 and a x >= b, re-substituted exactly in integers."""
    den, nums = witness
    return (type(den) is int and den > 0 and len(a) == len(b)
            and len(nums) == (len(a[0]) if a else 0)
            and all(type(v) is int and v >= 0 for v in nums)
            and all(sum(map(mul, row, nums)) >= den * bound for row, bound in zip(a, b)))


def refutes(a, b, y) -> bool:
    """Whether y is a Farkas vector for a x >= b: integers y >= 0 with
    y a <= 0 column by column and y . b > 0, so no x >= 0 meets it.  For
    a net's token-flow test, a is D and b is m - initial."""
    return (len(y) == len(a) == len(b) and all(type(v) is int and v >= 0 for v in y)
            and all(sum(map(mul, y, column)) <= 0 for column in zip(*a))
            and sum(map(mul, y, b)) > 0)


@contextmanager
def state_answers() -> Iterator[list]:
    """Log each ``StateInvariant._answer`` call in the block as ``[handle,
    m, answer]``, appended as it starts: a running query's answer is None."""
    asked: list = []
    answering = StateInvariant._answer

    def recorded(self, m):
        entry = [self, m, None]
        asked.append(entry)
        entry[2] = answering(self, m)
        return entry[2]

    with patch.object(StateInvariant, "_answer", recorded):
        yield asked


def assert_problem_equals_checked_build(problem, where) -> None:
    """A problem built from checked parts equals the checked constructor's
    build, and its targets are markings of the net's length."""
    assert type(problem) is Problem and Problem(*problem) == problem, where
    assert all(type(m) is Marking and len(m) == len(problem.net.places)
               for m in problem.targets), where


def replays(net: PetriNet, witness, target) -> bool:
    """Whether ``witness`` fires from the initial marking to one covering ``target``."""
    final = net.fire_sequence(net.initial, witness)
    return final is not None and final.covers(target)


def assert_verdicts_match_exploration(net: PetriNet, target, outcome, results,
                                      where) -> None:
    """Every result in ``results``, configuration names to ``SolveResult``,
    is conclusive, replays its witness if COVERABLE, and has the verdict
    of bounded exploration's ``outcome`` wherever that is exact."""
    exact = {OutcomeKind.COVERABLE: Verdict.COVERABLE,
             OutcomeKind.UNCOVERABLE_EXHAUSTED: Verdict.UNCOVERABLE}.get(outcome.kind)
    for names, r in results.items():
        assert r.verdict is not Verdict.INCONCLUSIVE, (where, names)
        if r.verdict is Verdict.COVERABLE:
            assert replays(net, r.witness, target), (where, names)
        assert exact in (None, r.verdict), (where, names)


def assert_bases_above_classical(plain, cut, where) -> None:
    """Where the pruned search ``cut`` reaches the classical search
    ``plain``'s verdict, each of its bases lies in the upward closure of
    the classical basis of the same round; both recorded their bases."""
    if cut.verdict is plain.verdict:
        for bp, bc in zip(plain.bases, cut.bases):
            for m in bc:
                assert bp.contains(m), (where, m)


def assert_pruning_keeps_verdicts(net: PetriNet, target, verdicts, use_states, where,
                                  budget_steps: Optional[int] = None) -> None:
    """On the net that dead-transition pruning leaves, in either mode and
    with each of ``use_states``, ``solve`` gives each configuration in
    ``verdicts`` the verdict it maps to."""
    for mode in ("once", "fixpoint"):
        for use_state in use_states:
            reduced, _, _ = prune_dead_transitions(net, mode, use_state)
            for names, verdict in verdicts.items():
                after = solve(reduced, target, make_invariant(reduced, names),
                              budget_steps=budget_steps)
                assert after.verdict is verdict, (where, mode, use_state, names)


def checked_copy(net: PetriNet) -> PetriNet:
    """``net`` built anew from copies of its rows, with no sign analysis."""
    return PetriNet._checked(list(net.places), list(net.transitions),
                             [list(r) for r in net.pre], [list(r) for r in net.post],
                             list(net.initial))


def read_as_the_scanner_reads(text):
    """The token scanner's problem or positioned error for ``text``, which
    ``parse_native`` must give for ``text`` and its bytes; an accepted
    text's words must be the scanner's tokens and read as its problem."""
    def outcome(read, source):
        try:
            return read(source)
        except ParseError as err:
            return str(err), err.line, err.column

    expected = outcome(lambda t: _native(_Tokens(_text(t), _NATIVE_TOKEN), ""), text)
    assert outcome(parse_native, text) == expected, text
    assert outcome(parse_native, text.encode()) == expected, text
    if type(expected) is Problem:
        words = _Words(_text(text))
        assert _native(words, "") == expected, text
        assert words.tokens == _Tokens(_text(text), _NATIVE_TOKEN).tokens, text
    return expected


def assert_frontier_is_the_tail(r, where) -> Counter:
    """Each round's kept markings enter the links in kept order, after the
    target, and those still minimal end the next basis.  Counts the rounds
    in which old elements left and in which a kept marking did not stay."""
    seen: Counter = Counter()
    kept = iter(list(r.backlinks)[r.target_in_invariant:])
    for s, old, new in zip(r.stats, r.bases, r.bases[1:]):
        round_kept = [next(kept) for _ in range(s.kept)]
        before, after = set(old), set(new)
        entered = [x for x in new if x not in before]
        assert new.elements[len(new) - len(entered):] == tuple(entered), where
        assert entered == [c for c in round_kept if c in after], where
        seen["old left"] += not before <= after
        seen["kept left"] += len(entered) < len(round_kept)
    return seen


def assert_conjunction_of_singles(net: PetriNet, names, markings, where) -> None:
    """``make_invariant(net, names)`` has the joined name, the net, the leaf
    types and the answers on ``markings`` of the AND of one-name handles."""
    handle = make_invariant(net, names)
    singles = [make_invariant(net, [n]) for n in names]
    joined = IntersectionInvariant if len(names) > 1 else type(singles[0])
    assert type(handle) is joined, where
    assert (handle.name, handle.net) == (",".join(names), net), where
    assert [type(leaf) for leaf in handle.leaves()] == [type(s) for s in singles], where
    assert ([handle.member(m) for m in markings]
            == [all(s.member(m) for s in singles) for m in markings]), where


def assert_report_equals_public_build(report, where) -> None:
    """A prune report and its rounds, built unchecked, equal the public
    constructors' builds."""
    assert type(report) is PruneReport, where
    assert all(type(r) is PruneRound for r in report.rounds), where
    rounds = tuple([PruneRound(*r) for r in report.rounds])
    assert report == PruneReport(report.mode, rounds, report.dropped_places), where


def dense_cpre(net: PetriNet, t: int, m) -> Tuple[int, ...]:
    """The least marking from which ``t`` fires to one covering ``m``."""
    return tuple(n + max(c - o, 0) for n, o, c in zip(net.pre[t], net.post[t], m))


def marked_rounds(net: PetriNet) -> List[FrozenSet[int]]:
    """Synchronous possibly-marked rounds until stable, first round included.

    Round zero is the set of initially marked places; each later round
    adds the outputs of every transition whose inputs all lie in the
    previous round.  The last entry is the least fixpoint.
    """
    current = frozenset(p for p, c in enumerate(net.initial) if c > 0)
    rounds = [current]
    while True:
        grown = set(current)
        for t in range(len(net.transitions)):
            need = net.pre[t]
            if all(w == 0 or p in current for p, w in enumerate(need)):
                grown.update(p for p, w in enumerate(net.post[t]) if w > 0)
        nxt = frozenset(grown)
        if nxt == current:
            return rounds
        rounds.append(nxt)
        current = nxt


def box(dims: int, cap: int) -> Iterator[Marking]:
    for point in itertools.product(range(cap + 1), repeat=dims):
        yield Marking(point)


def fires_over(net: PetriNet, m: Marking, t: int, target: Marking) -> bool:
    """Whether ``t`` is enabled at ``m`` and its successor covers ``target``."""
    need = net.pre[t]
    if not all(map(ge, m, need)):
        return False
    successor = map(add, map(sub, m, need), net.post[t])
    return all(map(ge, successor, target))


@dataclass
class SearchRecord:
    """What the reference backward search saw, in the solver's terms."""

    verdict: str
    witness: Optional[Tuple[int, ...]]
    # (index, basis_size, candidates_generated, new_after_antichain,
    #  pruned_by_invariant, kept) per round
    stats: List[Tuple[int, ...]]
    lp_calls: int
    sign_checks: int
    bases: List[Tuple[Marking, ...]]
    backlinks: Dict[Marking, Optional[Tuple[int, Marking]]]


def _leq(a, b) -> bool:
    return all(map(le, a, b))


def _add_minimal(basis: List[Marking], m: Marking) -> List[Marking]:
    # Drop m if some element lies below it, else append it and drop the
    # elements above it; the order of the survivors is kept.
    if any(_leq(x, m) for x in basis):
        return basis
    return [x for x in basis if not _leq(m, x)] + [m]


def full_backward_search(net: PetriNet, target: Marking, invariant: Invariant,
                         budget_steps: Optional[int] = None) -> SearchRecord:
    """Backward search that re-expands the whole basis every round.

    Each round takes the least predecessor of every basis element under
    every transition (transition-outer, element-inner order), keeps the
    first occurrence of each, drops those already covered, asks the
    invariant's leaves about the rest, in order up to the first that
    rejects, and merges the admitted ones.  It stops when the initial
    marking covers a basis element (first in basis order) or a round
    admits nothing.  Each leaf asked counts as one query.
    """
    leaves = invariant.leaves()
    asked = {"sign": 0, "state": 0}

    def admits(m: Marking) -> bool:
        # Every leaf up to the first that rejects m is asked, and counted.
        for leaf in leaves:
            if leaf.kind in asked:
                asked[leaf.kind] += 1
            if not leaf.member(m):
                return False
        return True

    backlinks: Dict[Marking, Optional[Tuple[int, Marking]]] = {}
    basis: List[Marking] = []
    if admits(target):
        backlinks[target] = None
        basis = [target]
    stats: List[Tuple[int, ...]] = []
    bases: List[Tuple[Marking, ...]] = []
    witness = None
    k = 0
    while True:
        bases.append(tuple(basis))
        entry = next((x for x in basis if _leq(x, net.initial)), None)
        if entry is not None:
            verdict = "COVERABLE"
            steps = []
            while backlinks[entry] is not None:
                t, entry = backlinks[entry]
                steps.append(t)
            witness = tuple(steps)
            break
        if budget_steps is not None and k >= budget_steps:
            verdict = "INCONCLUSIVE"
            break
        candidates: Dict[Marking, Tuple[int, Marking]] = {}
        for t in range(len(net.transitions)):
            for m in basis:
                c = Marking(dense_cpre(net, t, m))
                candidates.setdefault(c, (t, m))
        fresh = [c for c in candidates
                 if not any(_leq(x, c) for x in basis)]
        kept = [c for c in fresh if admits(c)]
        stats.append((k, len(basis), len(net.transitions) * len(basis),
                      len(fresh), len(fresh) - len(kept), len(kept)))
        if not kept:
            verdict = "UNCOVERABLE"
            break
        for c in kept:
            backlinks[c] = candidates[c]
            basis = _add_minimal(basis, c)
        k += 1
    return SearchRecord(
        verdict=verdict,
        witness=witness,
        stats=stats,
        lp_calls=asked["state"],
        sign_checks=asked["sign"],
        bases=bases,
        backlinks=backlinks,
    )


def assert_matches_full_reexpansion(net: PetriNet, target: Marking, names, where,
                                    budget_steps: Optional[int] = None):
    """``solve`` under ``names`` gives the verdict, witness, per-round
    counters, query counts, bases in order and predecessor links of
    ``full_backward_search``.  Returns the search's result."""
    r = solve(net, target, make_invariant(net, names), budget_steps=budget_steps,
              record_bases=True)
    ref = full_backward_search(net, target, make_invariant(net, names), budget_steps)
    assert r.verdict.value == ref.verdict, where
    assert r.witness == ref.witness, where
    assert [tuple(s) for s in r.stats] == ref.stats, where
    assert (r.lp_calls, r.sign_checks) == (ref.lp_calls, ref.sign_checks), where
    assert [b.elements for b in r.bases] == ref.bases, where
    assert r.backlinks == ref.backlinks, where
    return r
