"""Acceptance gate: one test per shipping criterion.

Each test prints an ``ACCEPTANCE nn <label>: PASS|FAIL`` line (visible
with ``pytest -s`` and in captured output on failure), and the test
names themselves give one verdict line per criterion under ``pytest -v``.

The shared corpus fixture is module-scoped on purpose: the 500-instance
sweep with its forward-exploration ground truth and the four solver
configurations is paid for once, then reused by the criteria that slice
it differently.
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import product
from operator import le
from typing import Dict, FrozenSet, Tuple

import pytest

from coverlib import (
    ExploreBound,
    FeasibilityProblem,
    Marking,
    OracleOutcome,
    PetriNet,
    SolveResult,
    Verdict,
    bounded_cover,
    feasible,
    make_invariant,
    prune_dead_transitions,
    reachable_markings,
    sign_analysis,
    solve,
)

from conftest import PUMP_TEXT, make_orbit_net, make_pump_net, make_stuck_net
from corpus import CONFIGS, CORPUS_SEED, CORPUS_SIZE, random_instances
from fourier_motzkin import fm_feasible
from oracles import (assert_bases_above_classical, assert_pruning_keeps_verdicts,
                     assert_verdicts_match_exploration, fires_over, marked_rounds, replays,
                     solves)


def _report(num: int, label: str, ok: bool) -> None:
    print(f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}")


@contextmanager
def reporting(num: int, label: str):
    try:
        yield
    except BaseException:
        _report(num, label, False)
        raise
    _report(num, label, True)


@dataclass
class Instance:
    name: str
    net: PetriNet
    target: Marking
    outcome: OracleOutcome
    reach: FrozenSet[Marking]
    closed: bool
    results: Dict[Tuple[str, ...], SolveResult]


@dataclass
class Corpus:
    instances: Tuple[Instance, ...]
    build_seconds: float


@pytest.fixture(scope="module")
def corpus() -> Corpus:
    started = time.perf_counter()
    bound = ExploreBound()
    built = []
    for name, net, target in random_instances(seed=CORPUS_SEED, count=CORPUS_SIZE):
        outcome = bounded_cover(net, target, bound)
        reach, closed = reachable_markings(net, bound)
        results = {}
        for names in CONFIGS:
            results[names] = solve(net, target, make_invariant(net, names),
                                   budget_steps=500, record_bases=True)
        built.append(Instance(name, net, target, outcome,
                              frozenset(reach), closed, results))
    return Corpus(tuple(built), time.perf_counter() - started)


def test_criterion_01_worked_example_counters():
    with reporting(1, "worked example counters"):
        started = time.perf_counter()
        net = make_pump_net()
        hit = Marking((0, 2, 1))
        miss = Marking((2, 0, 0))

        for names in CONFIGS:
            r = solve(net, hit, make_invariant(net, names))
            assert r.verdict is Verdict.COVERABLE
            assert net.transition_names(r.witness) == ["t1", "t2", "t3"]
            assert replays(net, r.witness, hit)
            assert solve(net, miss, make_invariant(net, names)).verdict \
                is Verdict.UNCOVERABLE

        plain = solve(net, hit, make_invariant(net, ("trivial",)))
        assert [s.basis_size for s in plain.stats] == [1, 4, 3]
        assert [s.kept for s in plain.stats] == [3, 4, 2]
        assert sum(s.candidates_generated for s in plain.stats) == 24
        assert plain.lp_calls == 0

        cut = solve(net, hit, make_invariant(net, ("sign", "state")))
        assert [s.kept for s in cut.stats] == [3, 3, 2]
        assert [s.pruned_by_invariant for s in cut.stats] == [0, 1, 0]
        assert cut.lp_calls == 10
        assert cut.sign_checks == 10
        assert sum(s.candidates_generated for s in cut.stats) == 21

        # the impossible target dies at the door: the basis never grows
        frozen = solve(net, miss, make_invariant(net, ("state",)))
        assert frozen.verdict is Verdict.UNCOVERABLE
        assert not frozen.target_in_invariant
        assert frozen.final_basis_size == 0
        assert all(s.kept == 0 for s in frozen.stats)
        assert frozen.discarded_including_target == 1
        assert frozen.lp_calls == 1

        assert time.perf_counter() - started < 1.0


def test_criterion_02_corpus_verdicts_match_oracle(corpus):
    with reporting(2, "corpus verdicts match oracle"):
        assert len(corpus.instances) >= 500
        closed = sum(1 for i in corpus.instances if i.closed)
        assert closed / len(corpus.instances) >= 0.80
        for inst in corpus.instances:
            assert_verdicts_match_exploration(inst.net, inst.target, inst.outcome,
                                              inst.results, inst.name)
        assert corpus.build_seconds < 300.0


def test_criterion_03_reachable_markings_stay_inside_invariants(corpus):
    with reporting(3, "reachable markings inside invariants"):
        for inst in corpus.instances:
            invs = [make_invariant(inst.net, names) for names in
                    (("sign",), ("state",), ("sign", "state"))]
            for m in inst.reach:
                for inv in invs:
                    assert inv.member(m), (inst.name, m, inv.name)


def test_criterion_04_cpre_box_characterization():
    with reporting(4, "cpre equals preimage of up-set"):
        rng = random.Random(41)
        triples = 0
        boxes = {}  # place count -> every point of the box, as plain tuples
        while triples < 10_000:
            n_places = rng.randint(1, 3)
            places = ["p%d" % i for i in range(n_places)]
            n_trans = rng.randint(1, 4)
            pre_arcs = {}
            post_arcs = {}
            for j in range(n_trans):
                for p in places:
                    if rng.random() < 0.5:
                        pre_arcs[(p, "t%d" % j)] = rng.randint(1, 2)
                    if rng.random() < 0.5:
                        post_arcs[("t%d" % j, p)] = rng.randint(1, 2)
            net = PetriNet(places, ["t%d" % j for j in range(n_trans)],
                           pre_arcs, post_arcs, {})
            cap = 4
            points = boxes.get(n_places)
            if points is None:
                points = boxes[n_places] = list(product(range(cap + 3), repeat=n_places))
            for t in range(n_trans):
                for _ in range(3):
                    m = net.marking([rng.randint(0, cap) for _ in places])
                    base = net.cpre(t, m)
                    for point in points:
                        assert all(map(le, base, point)) == fires_over(net, point, t, m)
                    triples += 1
        assert triples >= 10_000


def test_criterion_05_pruned_bases_stay_below_classical(corpus):
    with reporting(5, "pruned bases below classical"):
        for inst in corpus.instances:
            plain = inst.results[("trivial",)]
            for names in CONFIGS[1:]:
                assert_bases_above_classical(plain, inst.results[names], (inst.name, names))


def test_criterion_06_preprocessing_preserves_verdicts(corpus):
    with reporting(6, "preprocessing preserves verdicts"):
        stuck = make_stuck_net()
        for mode in ("once", "fixpoint"):
            reduced, removed, _ = prune_dead_transitions(stuck, mode)
            assert removed == ["t"]
            assert reduced.places == stuck.places
        for inst in corpus.instances:
            verdicts = {("sign", "state"): inst.results[("sign", "state")].verdict}
            assert_pruning_keeps_verdicts(inst.net, inst.target, verdicts, (False, True),
                                          inst.name, budget_steps=500)


def test_criterion_07_sign_analysis_fixpoint(corpus):
    with reporting(7, "sign analysis fixpoint"):
        assert sign_analysis(make_pump_net()).always_empty == frozenset()
        stuck = sign_analysis(make_stuck_net())
        assert stuck.possibly_marked == frozenset({0})
        assert stuck.always_empty == frozenset({1})
        for inst in corpus.instances:
            rounds = marked_rounds(inst.net)
            assert len(rounds) - 1 <= len(inst.net.places), inst.name
            analysis = sign_analysis(inst.net)
            assert analysis.possibly_marked == rounds[-1], inst.name


def test_criterion_08_rational_feasibility_vs_elimination():
    with reporting(8, "feasibility agrees with elimination"):
        rng = random.Random(83)
        agreements = 0
        feasible_seen = 0
        while agreements < 10_000:
            n = rng.randint(1, 3)
            rows = rng.randint(1, 4)
            a = tuple(tuple(rng.randint(-3, 3) for _ in range(n))
                      for _ in range(rows))
            b = tuple(rng.randint(-4, 4) for _ in range(rows))
            ok, witness, _ = feasible(FeasibilityProblem(a), b)
            assert ok == fm_feasible(a, b), (a, b)
            if ok:
                feasible_seen += 1
                assert solves(a, b, witness), (a, b, witness)
            agreements += 1
        assert agreements >= 10_000
        assert 0 < feasible_seen < agreements


def test_criterion_09_stats_runs_are_reproducible(tmp_path):
    with reporting(9, "stats output reproducible"):
        path = tmp_path / "pump.cover"
        path.write_text(PUMP_TEXT)
        cmd = [sys.executable, "-m", "coverlib", "solve", "--net", str(path),
               "--stats", "json", "--witness"]
        outs = []
        for _ in range(2):
            proc = subprocess.run(cmd, capture_output=True, text=True)
            assert proc.returncode == 0
            doc = json.loads(proc.stdout.split("\n", 2)[2])
            assert doc["totals"]["wall_ms"] >= 0
            kept = [line for line in proc.stdout.splitlines()
                    if "wall_ms" not in line]
            outs.append("\n".join(kept))
        assert outs[0] == outs[1]


def test_criterion_10_invariants_never_grow_the_basis(corpus):
    with reporting(10, "invariants never grow the basis"):
        checked = 0
        for inst in corpus.instances:
            plain = inst.results[("trivial",)]
            cut = inst.results[("sign", "state")]
            if not (plain.verdict is Verdict.UNCOVERABLE
                    and cut.verdict is Verdict.UNCOVERABLE):
                continue
            checked += 1
            assert cut.kept_total <= plain.kept_total, inst.name
        assert checked > 0

        orbit = make_orbit_net()
        probe = Marking((0, 0, 1))
        plain = solve(orbit, probe, make_invariant(orbit, ("trivial",)))
        cut = solve(orbit, probe, make_invariant(orbit, ("sign", "state")))
        assert plain.verdict is Verdict.UNCOVERABLE
        assert cut.verdict is Verdict.UNCOVERABLE
        assert cut.kept_total < plain.kept_total
        assert (plain.kept_total, cut.kept_total) == (1, 0)
