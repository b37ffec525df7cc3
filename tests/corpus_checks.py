"""The checks CI runs on the benchmark's seed-1 corpora, one function per step.

    python3 tests/corpus_checks.py [step ...]   # every step if none is named

Each step prints its counts and stops at the first assertion that fails.
A step's ``scale`` draws that share of each ``perfbench/generate.py``
corpus, as ``perfbench/selftest.py`` does.
"""

from __future__ import annotations

import sys
from operator import sub
from pathlib import Path
from unittest.mock import patch

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from coverlib import (FeasibilityProblem, IterationStats, Marking, Problem,  # noqa: E402
                      SignInvariant, SolveResult, emit_native, feasible, make_invariant,
                      minimize, parse_native, prune_problem, sign_analysis, solve)
from coverlib.ingest import _is_ident  # noqa: E402
from corpus import family_question  # noqa: E402  (puts perfbench/ on the path)
from generate import WORKLOADS, instances  # noqa: E402
from oracles import (IDENT, assert_conjunction_of_singles,  # noqa: E402
                     assert_frontier_is_the_tail, assert_problem_equals_checked_build,
                     assert_report_equals_public_build, checked_copy, displacement,
                     read_as_the_scanner_reads, refutes, state_answers)

SEED = 1


def words(scale: float = 1.0) -> None:
    """Each text read as the scanner reads it and round-tripped, its names
    and the net, prune report and handle its set-up builds."""
    for workload in WORKLOADS:
        insts = instances(workload, SEED, scale)
        for inst in insts:
            text = inst.text
            read_as_the_scanner_reads(text)
            problem = parse_native(text.encode())
            assert parse_native(emit_native(problem)) == problem, text
            # The parser's one-loop build stores what _checked stores.
            net = problem.net
            copied = checked_copy(net)
            assert net == copied, text
            assert ((net._arcs, net._place_index, net._transition_index)
                    == (copied._arcs, copied._place_index, copied._transition_index)), text
            assert_problem_equals_checked_build(problem, text)
            for name in net.places + net.transitions:
                assert _is_ident(name) and IDENT.match(name), (text, name)
            reduced, report = prune_problem(problem, mode="fixpoint")
            assert_report_equals_public_build(report, text)
            assert_conjunction_of_singles(reduced.net, inst.invariants, reduced.targets[:1], text)
        print(workload, len(insts), "texts read from their words, names and set-up checked")


def cold_lp(scale: float = 1.0) -> None:
    """Every state query against a cold LP, every rejection's Farkas vector,
    and the queries ``solve`` counts against those made."""
    for workload in ("flow-wide", "small-corpus"):
        lp_calls = sign_checks = 0
        with patch.object(SignInvariant, "member", autospec=True,
                          side_effect=SignInvariant.member) as signed, state_answers() as asked:
            for inst in instances(workload, SEED, scale):
                problem = parse_native(inst.text, name=inst.name)
                reduced, _ = prune_problem(problem, mode="fixpoint")
                result = solve(reduced.net, reduced.targets[0],
                               make_invariant(reduced.net, inst.invariants))
                lp_calls += result.lp_calls
                sign_checks += result.sign_checks
        # (D, m - initial, the handle's answer) of every state query
        queries = [(displacement(handle.net), list(map(sub, m, handle.net.initial)), answer)
                   for handle, m, answer in asked]
        wrong = [q for q in queries if feasible(FeasibilityProblem(q[0]), q[1])[0] != q[2][0]]
        refused = [q for q in queries if not q[2][0]]
        unrefuted = [q for q in refused if not refutes(q[0], q[1], q[2][1])]
        print(workload, len(asked), "state queries,", len(wrong),
              "disagree with a cold LP;", len(refused), "rejections,",
              len(unrefuted), "without a valid Farkas vector;", signed.call_count,
              "sign queries;", "solve counted", lp_calls, "and", sign_checks)
        assert asked and refused and not wrong and not unrefuted
        assert (lp_calls, sign_checks) == (len(asked), signed.call_count)


def families(questions=(("mutex", (20,)), ("pipeline", (8, 5)))) -> None:
    """Verdicts under trivial and sign,state; under trivial, each carried
    antichain index and each round's new elements as the basis's tail."""
    for family, params in questions:
        for slot in range(3):
            problem, expected = family_question(family, params, slot)
            for names in (["trivial"], ["sign", "state"]):
                chain = names == ["trivial"]
                result = solve(problem.net, problem.targets[0],
                               make_invariant(problem.net, names), record_bases=chain)
                print(family, params, slot, names,
                      result.verdict.value, result.lp_calls)
                assert result.verdict.value == expected, expected
                if chain:
                    # Each basis answers its successor's elements from the
                    # index it carries, dead bits included, like an index
                    # built fresh from its elements.
                    bases = result.bases
                    for b, nxt in zip(bases, bases[1:]):
                        fresh = minimize(b.elements)
                        assert (b.filter_uncovered(nxt.elements)
                                == fresh.filter_uncovered(nxt.elements))
                    assert_frontier_is_the_tail(result, (family, params, slot))
                    print(len(bases), "bases checked, peak", max(map(len, bases)))


def sign_pruning(scale: float = 1.0) -> None:
    """Sign-only pruning against fresh analyses and rounds, and the records
    built from checked parts against their checked builds."""
    for workload in WORKLOADS:
        nets = pruned = replayed = 0
        for inst in instances(workload, SEED, scale):
            problem = parse_native(inst.text, name=inst.name)
            once, _ = prune_problem(problem, mode="once")
            reduced, report = prune_problem(problem, mode="fixpoint")
            # Sign-only pruning settles in one round: a second finds nothing.
            assert (once.net, once.targets) == (reduced.net, reduced.targets), inst.name
            assert report.removal_rounds <= 1 and not report.rounds[-1].removed, inst.name
            # The fixpoint handed to the subnet is the one it would compute,
            # on a restriction and on a net built anew.
            net = reduced.net
            fresh = net.restrict(range(len(net.places)), range(len(net.transitions)))
            copied = checked_copy(net)
            assert fresh == copied and fresh._arcs == copied._arcs, inst.name
            assert sign_analysis(net) == sign_analysis(fresh) == sign_analysis(copied), inst.name
            # The closing round, recorded without being run, is the round
            # a fresh copy of the reduced net runs.
            _, closing = prune_problem(Problem(copied, reduced.targets), mode="once")
            assert closing.rounds == report.rounds[-1:], inst.name
            assert parse_native(emit_native(reduced), name=inst.name) == reduced, inst.name
            # Records built from checked parts equal their checked builds.
            for p in (problem, reduced):
                assert_problem_equals_checked_build(p, inst.name)
            result = solve(net, reduced.targets[0], make_invariant(net, inst.invariants))
            assert SolveResult(**result._asdict()) == result, inst.name
            assert all(IterationStats(**s._asdict()) == s for s in result.stats)
            if result.witness is not None:
                names = net.transition_names(result.witness)
                final = problem.net.fire_sequence(
                    problem.net.initial, [problem.net.transition_index(n) for n in names])
                assert type(final) is Marking and final == Marking(list(final)), inst.name
                assert final.covers(problem.targets[0]), inst.name
                replayed += 1
            nets += 1
            pruned += bool(report.removed)
        print(workload, nets, "nets,", pruned, "lose a transition,", replayed, "replayed")


STEPS = {step.__name__: step for step in (words, cold_lp, families, sign_pruning)}

if __name__ == "__main__":
    for name in sys.argv[1:]:
        if name not in STEPS:
            sys.exit(f"unknown step {name!r}; pick from {', '.join(STEPS)}")
    for name in sys.argv[1:] or STEPS:
        STEPS[name]()
