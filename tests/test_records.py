"""The result, report and problem records: named tuples with a fixed
contract, and an import of coverlib that stays light.

The expected field lists and reprs are written in; the CSV header of
``solve --stats csv`` is ``IterationStats._fields``.
"""

from __future__ import annotations

import json
import pickle
import re
import subprocess
import sys
from itertools import permutations
from pathlib import Path

import pytest

import coverlib
from coverlib import (ExploreBound, FeasibilityProblem, IterationStats,
                      OracleOutcome, PetriNet, Problem, PruneReport, PruneRound, SignAnalysis,
                      SolveResult, bounded_cover, make_invariant, prune_problem, sign_analysis,
                      solve)
from coverlib.invariants import INVARIANT_KINDS

from corpus import CORPUS_SEED, CORPUS_SIZE, random_instances
from oracles import assert_conjunction_of_singles, assert_report_equals_public_build, checked_copy

SRC = str(Path(coverlib.__file__).resolve().parents[1])


def run_isolated(code: str) -> dict:
    """Run ``code`` in a fresh interpreter that sees only the standard
    library and coverlib's source, writes no bytecode, and prints JSON."""
    done = subprocess.run(
        [sys.executable, "-I", "-S", "-B", "-c",
         f"import sys; sys.path.insert(0, {SRC!r})\n" + code],
        capture_output=True, text=True, timeout=60, check=True)
    return json.loads(done.stdout)


def test_import_leaves_heavy_modules_out():
    seen = run_isolated(
        "import json\n"
        "import coverlib\n"
        "heavy = ('dataclasses', 'inspect', 'fractions', 'decimal')\n"
        "after_lib = [m for m in heavy if m in sys.modules]\n"
        "import coverlib.cli\n"
        "after_cli = 'dataclasses' in sys.modules\n"
        "net = coverlib.PetriNet(['a', 'b'], ['t'], {('a', 't'): 2}, {('t', 'b'): 1},\n"
        "                        [2, 0])\n"
        "state = coverlib.StateInvariant(net)\n"
        "answers = [state._answer((0, 1)), state._answer((0, 2))]\n"
        "print(json.dumps({'after_lib': after_lib, 'after_cli': after_cli,\n"
        "                  'answers': answers,\n"
        "                  'after_query': [m for m in heavy if m in sys.modules]}))\n")
    assert seen["after_lib"] == []
    assert seen["after_cli"] is False
    # lam = 1 admits (0, 1); y = (1, 2) refutes (0, 2): 2 * 2 > 1 * 2 + 2 * 0
    assert seen["answers"] == [[True, [1, [1]]], [False, [1, 2]]]
    assert "fractions" not in seen["after_query"]


def test_import_defers_mist_and_the_explorer():
    """``parse_mist`` and the forward explorer load on first read, and a
    native pipeline never reads them; nor does it need ``numbers``.  The
    CLI loads the MIST reader only for MIST input."""
    seen = run_isolated(
        "import time\n"
        "import coverlib\n"
        "lazy = ('coverlib.refcheck', 'coverlib.mist', 'numbers', 'csv', 'json')\n"
        "after_import = [m for m in lazy if m in sys.modules]\n"
        "problem = coverlib.parse_native('places: a b\\ntransitions:\\n'\n"
        "                                't: in a out b ;\\ninit: a=1\\ntarget: b>=1\\n')\n"
        "reduced, _ = coverlib.prune_problem(problem, mode='fixpoint')\n"
        "net = reduced.net\n"
        "result = coverlib.solve(net, reduced.targets[0],\n"
        "                        coverlib.make_invariant(net, ['sign', 'state']),\n"
        "                        deadline=time.monotonic() + 60.0)\n"
        "names = net.transition_names(result.witness)\n"
        "final = problem.net.fire_sequence(\n"
        "    problem.net.initial, [problem.net.transition_index(n) for n in names])\n"
        "replayed = final.covers(problem.targets[0])\n"
        "after_solve = [m for m in lazy if m in sys.modules]\n"
        "import coverlib.cli\n"
        "after_cli = [m for m in ('coverlib.mist', 'csv', 'json') if m in sys.modules]\n"
        "same = [coverlib.parse_mist is coverlib.mist.parse_mist,\n"
        "        coverlib.bounded_cover is coverlib.refcheck.bounded_cover]\n"
        "star = {}\n"
        "exec('from coverlib import *', star)\n"
        "unbound = [n for n in coverlib.__all__ if n not in star]\n"
        "listed = sorted(set(coverlib.__all__) - set(dir(coverlib)))\n"
        "try:\n"
        "    coverlib.no_such_name\n"
        "    unknown = None\n"
        "except AttributeError as exc:\n"
        "    unknown = str(exc)\n"
        "import json\n"
        "print(json.dumps({'after_import': after_import, 'after_solve': after_solve,\n"
        "                  'replayed': replayed, 'after_cli': after_cli, 'same': same,\n"
        "                  'unbound': unbound, 'listed': listed, 'unknown': unknown}))\n")
    assert seen["after_import"] == []
    assert seen["after_solve"] == []
    assert seen["replayed"] is True
    assert seen["after_cli"] == []
    assert seen["same"] == [True, True]
    assert seen["unbound"] == []
    assert seen["listed"] == []
    assert seen["unknown"] == "module 'coverlib' has no attribute 'no_such_name'"


def small_net() -> PetriNet:
    return PetriNet(["a", "b", "c"], ["t", "u"], {("a", "t"): 1, ("c", "u"): 1},
                    {("t", "b"): 1, ("u", "a"): 1}, [1, 0, 0])


def records() -> dict:
    """One instance of each record, built through the public API."""
    net = small_net()
    problem = Problem(net, [(0, 1, 0)], "pump")
    return {
        SignAnalysis: sign_analysis(net),
        PruneRound: PruneRound(("t",), ("c",)),
        PruneReport: prune_problem(problem)[1],
        IterationStats: IterationStats(0, 1, 1, 1, 0, 1),
        SolveResult: solve(net, (0, 1, 0), make_invariant(net, ["sign", "state"])),
        OracleOutcome: bounded_cover(net, (0, 1, 0)),
        Problem: problem,
        FeasibilityProblem: FeasibilityProblem(((1, -1), (0, 2))),
        ExploreBound: ExploreBound(3),
    }


FIELDS = {
    SignAnalysis: ("possibly_marked", "always_empty", "dead"),
    PruneRound: ("removed", "always_empty"),
    PruneReport: ("mode", "rounds", "dropped_places"),
    IterationStats: ("index", "basis_size", "candidates_generated",
                     "new_after_antichain", "pruned_by_invariant", "kept"),
    SolveResult: ("verdict", "witness", "stats", "invariant_name", "target_in_invariant",
                  "lp_calls", "sign_checks", "final_basis_size", "inconclusive_reason",
                  "bases", "backlinks"),
    OracleOutcome: ("kind", "witness"),
    Problem: ("net", "targets", "name"),
    FeasibilityProblem: ("a",),
    ExploreBound: ("per_place_cap", "node_cap"),
}

REPRS = {
    SignAnalysis: "SignAnalysis(possibly_marked=frozenset({0, 1}), "
                  "always_empty=frozenset({2}), dead=(1,))",
    PruneRound: "PruneRound(removed=('t',), always_empty=('c',))",
    PruneReport: "PruneReport(mode='fixpoint', rounds=(PruneRound(removed=('u',), "
                 "always_empty=('c',)), PruneRound(removed=(), always_empty=('c',))), "
                 "dropped_places=())",
    IterationStats: "IterationStats(index=0, basis_size=1, candidates_generated=1, "
                    "new_after_antichain=1, pruned_by_invariant=0, kept=1)",
    SolveResult: "SolveResult(verdict=<Verdict.COVERABLE: 'COVERABLE'>, witness=(0,), "
                 "stats=(IterationStats(index=0, basis_size=1, candidates_generated=2, "
                 "new_after_antichain=1, pruned_by_invariant=0, kept=1),), "
                 "invariant_name='sign,state', target_in_invariant=True, lp_calls=2, "
                 "sign_checks=2, final_basis_size=2, inconclusive_reason=None, "
                 "bases=None, backlinks=None)",
    OracleOutcome: "OracleOutcome(kind=<OutcomeKind.COVERABLE: 'coverable'>, witness=(0,))",
    Problem: "Problem(net=PetriNet(3 places, 2 transitions), "
             "targets=(Marking((0, 1, 0)),), name='pump')",
    FeasibilityProblem: "FeasibilityProblem(a=((1, -1), (0, 2)))",
    ExploreBound: "ExploreBound(per_place_cap=3, node_cap=200000)",
}


def test_fields_and_reprs_are_unchanged():
    built = records()
    assert set(built) == set(FIELDS) == set(REPRS)
    for cls, record in built.items():
        assert type(record) is cls
        assert cls._fields == FIELDS[cls], cls
        assert tuple(record._asdict()) == FIELDS[cls], cls
        assert repr(record) == REPRS[cls], cls


def test_records_are_frozen():
    for cls, record in records().items():
        for name in (cls._fields[0], "extra"):
            with pytest.raises(AttributeError):
                setattr(record, name, None)
        assert not hasattr(record, "__dict__"), cls


def test_records_compare_by_value():
    assert PruneRound(("t",), ("c",)) == PruneRound(removed=("t",), always_empty=("c",))
    assert PruneRound(("t",), ("c",)) != PruneRound(("t",), ())
    first, second = sign_analysis(small_net()), sign_analysis(small_net())
    assert first is not second and first == second
    assert first == SignAnalysis(frozenset({0, 1}), frozenset({2}), (1,))
    assert first != SignAnalysis(frozenset({0, 1}), frozenset({2}), ())
    assert hash(PruneRound(("t",), ())) == hash(PruneRound(("t",), ()))
    assert ExploreBound() == ExploreBound(10, 200000)


def test_problem_builds_positionally_and_reads_its_targets():
    net = small_net()
    problem = Problem(net, [{"b": 1}, (1, 0, 0)], "two")
    assert problem.net is net and problem.name == "two"
    assert problem.targets == ((0, 1, 0), (1, 0, 0))
    assert all(type(m) is coverlib.Marking for m in problem.targets)
    assert Problem(net, [()]).name == ""
    moved = problem._replace(targets=[(0, 0, 1)])
    assert moved.targets == ((0, 0, 1),) and type(moved.targets[0]) is coverlib.Marking
    assert moved.net is net and moved.name == "two"
    again = pickle.loads(pickle.dumps(problem))
    assert again == problem and type(again) is Problem


def test_explore_bound_defaults():
    assert ExploreBound() == (10, 200000)
    assert ExploreBound().per_place_cap == 10 and ExploreBound().node_cap == 200000
    assert ExploreBound._field_defaults == {"per_place_cap": 10, "node_cap": 200000}
    assert ExploreBound(node_cap=5) == (10, 5)


def refusals():
    """(valid record, fields that make it invalid, today's message)."""
    net = small_net()
    problem = Problem(net, [(0, 1, 0)])
    system = FeasibilityProblem(((1, 2), (3, 4)))
    bound = ExploreBound()
    return [
        (problem, {"targets": ()}, "a problem needs at least one target"),
        (problem, {"targets": ((0, 1),)}, "expected 3 counts, got 2"),
        (problem, {"targets": ((0, -1, 0),)},
         "token counts must be non-negative integers, got -1"),
        (system, {"a": ((1, 2), (3,))}, "ragged constraint matrix"),
        (system, {"a": ((1, True),)}, "matrix entries must be integers, got True"),
        (system, {"a": ((1, 2.0),)}, "matrix entries must be integers, got 2.0"),
        (bound, {"per_place_cap": 0}, "exploration bounds must be positive integers"),
        (bound, {"node_cap": True}, "exploration bounds must be positive integers"),
        (bound, {"node_cap": "7"}, "exploration bounds must be positive integers"),
    ]


@pytest.mark.parametrize("case", range(len(refusals())))
def test_checked_records_refuse_bad_input_on_every_path(case):
    record, change, message = refusals()[case]
    message = re.escape(message)
    cls = type(record)
    fields = record._asdict()
    fields.update(change)
    with pytest.raises(ValueError, match=message):
        cls(**fields)
    with pytest.raises(ValueError, match=message):
        cls(*fields.values())
    with pytest.raises(ValueError, match=message):
        record._replace(**change)
    with pytest.raises(ValueError, match=message):
        cls._make(fields.values())
    # A tuple built around the check still cannot be unpickled.
    smuggled = tuple.__new__(cls, tuple(fields.values()))
    data = pickle.dumps(smuggled)
    with pytest.raises(ValueError, match=message):
        pickle.loads(data)
    assert pickle.loads(pickle.dumps(record)) == record


def test_setup_records_equal_public_builds():
    """The set-up path builds its records and handles from parts it has
    just made, without the public constructors.  Over the acceptance
    corpus, with and without the flow test, they equal the public builds:
    the prune report, the sign analysis handed to a pruned net (against
    one computed afresh), the conjunction of every ordered choice of two
    or three invariants (against the AND of the single-name handles), and
    the result of a search with its counters."""
    orders = [list(p) for k in (2, 3) for p in permutations(INVARIANT_KINDS, k)]
    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        for use_state in (False, True):
            reduced, report = prune_problem(Problem(net, (target,), name), use_state=use_state)
            assert_report_equals_public_build(report, name)
            analysis = sign_analysis(reduced.net)
            assert type(analysis) is SignAnalysis, name
            assert analysis == sign_analysis(checked_copy(reduced.net)), name
        pruned = reduced.net
        markings = [target, pruned.initial] + [
            pruned.min_enabling_marking(t) for t in range(len(pruned.transitions))]
        for names in orders:
            assert_conjunction_of_singles(pruned, names, markings, (name, names))
        result = solve(pruned, target, make_invariant(pruned, ["sign", "state"]),
                       record_bases=True)
        assert type(result) is SolveResult, name
        assert all(type(s) is IterationStats for s in result.stats), name
        stats = tuple([IterationStats(*s) for s in result.stats])
        assert result == SolveResult(*result[:2], stats, *result[3:]), name
