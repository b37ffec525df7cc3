from __future__ import annotations

import random
import time

import pytest

import coverlib.solver
from coverlib import (
    ExploreBound,
    Invariant,
    IterationStats,
    Marking,
    OutcomeKind,
    PetriNet,
    SolveResult,
    Verdict,
    bounded_cover,
    extract_witness,
    make_invariant,
    solve,
)

from corpus import random_instances
from oracles import full_backward_search

CONFIGS = (["trivial"], ["sign"], ["state"], ["sign", "state"])


def test_pump_coverable_every_config(pump_net):
    target = Marking((0, 2, 1))
    for names in CONFIGS:
        r = solve(pump_net, target, make_invariant(pump_net, names))
        assert r.verdict is Verdict.COVERABLE
        assert pump_net.transition_names(r.witness) == ["t1", "t2", "t3"]
        final = pump_net.fire_sequence(pump_net.initial, r.witness)
        assert final is not None and final.covers(target)
        assert r.target_in_invariant


def test_pump_iteration_counters(pump_net):
    target = Marking((0, 2, 1))
    plain = solve(pump_net, target)
    assert [s.kept for s in plain.stats] == [3, 4, 2]
    assert [s.basis_size for s in plain.stats] == [1, 4, 3]
    assert plain.lp_calls == 0 and plain.sign_checks == 0

    pruned = solve(pump_net, target, make_invariant(pump_net, ["sign", "state"]))
    # the flow relaxation rejects one candidate that wants two tokens on p1
    assert [s.kept for s in pruned.stats] == [3, 3, 2]
    assert [s.pruned_by_invariant for s in pruned.stats] == [0, 1, 0]
    assert pruned.lp_calls == 10  # target + 9 candidate queries
    assert pruned.sign_checks == 10
    for s in pruned.stats:
        assert s.kept == s.new_after_antichain - s.pruned_by_invariant


def test_pump_uncoverable(pump_net):
    target = Marking((2, 0, 0))
    for names in CONFIGS:
        r = solve(pump_net, target, make_invariant(pump_net, names))
        assert r.verdict is Verdict.UNCOVERABLE
        assert r.witness is None
    plain = solve(pump_net, target)
    assert len(plain.stats) == 1 and plain.final_basis_size == 1

    flow = solve(pump_net, target, make_invariant(pump_net, ["state"]))
    # rejected at initialization: the basis never grows
    assert not flow.target_in_invariant
    assert flow.final_basis_size == 0
    assert [(s.basis_size, s.kept) for s in flow.stats] == [(0, 0)]
    assert flow.discarded_including_target == 1
    assert flow.lp_calls == 1


def test_zero_target_is_trivially_coverable(pump_net):
    r = solve(pump_net, Marking((0, 0, 0)))
    assert r.verdict is Verdict.COVERABLE
    assert r.witness == ()
    assert r.stats == ()


def test_target_leq_initial_needs_no_search(pump_net):
    r = solve(pump_net, Marking((1, 0, 0)))
    assert r.verdict is Verdict.COVERABLE and r.witness == ()


def test_budget_steps(pump_net):
    r = solve(pump_net, Marking((0, 2, 1)), budget_steps=1)
    assert r.verdict is Verdict.INCONCLUSIVE
    assert r.inconclusive_reason == "budget"
    assert r.witness is None
    # the guard runs before the budget check, so free answers still come out
    r0 = solve(pump_net, Marking((0, 0, 0)), budget_steps=0)
    assert r0.verdict is Verdict.COVERABLE


@pytest.mark.parametrize("limit", [{}, {"budget_steps": 0}, {"deadline": -1.0},
                                   {"budget_steps": 0, "deadline": -1.0}])
def test_questions_decided_at_the_target_under_limits(pump_net, orbit_net, limit):
    """A target at most the initial marking is answered before any limit
    is read; a target the sign test rejects meets the budget, then the
    deadline, before its one empty round.  Either asks one query per
    invariant it reaches."""
    if "deadline" in limit:
        limit = dict(limit, deadline=time.monotonic() + limit["deadline"])
    free = solve(pump_net, Marking((1, 0, 0)), make_invariant(pump_net, ["sign", "state"]),
                 **limit)
    assert (free.verdict, free.witness, free.inconclusive_reason, free.stats) == (
        Verdict.COVERABLE, (), None, ())
    assert (free.lp_calls, free.sign_checks, free.final_basis_size) == (1, 1, 1)

    rejected = solve(orbit_net, Marking((0, 1, 0)),
                     make_invariant(orbit_net, ["sign", "state"]), **limit)
    reason = ("budget" if "budget_steps" in limit
              else "deadline" if "deadline" in limit else None)
    assert rejected.verdict is (Verdict.UNCOVERABLE if reason is None
                                else Verdict.INCONCLUSIVE)
    assert (rejected.witness, rejected.inconclusive_reason) == (None, reason)
    assert rejected.stats == (() if reason else (
        IterationStats(index=0, basis_size=0, candidates_generated=0,
                       new_after_antichain=0, pruned_by_invariant=0, kept=0),))
    assert (rejected.lp_calls, rejected.sign_checks, rejected.final_basis_size) == (0, 1, 0)
    assert not rejected.target_in_invariant


@pytest.mark.parametrize("bad", [
    {"budget_steps": True}, {"budget_steps": False}, {"budget_steps": 1.5},
    {"budget_steps": -1}, {"budget_steps": "3"},
    {"deadline": float("nan")}, {"deadline": True}, {"deadline": "soon"},
    {"deadline": 1j}, {"invariant": "sign"}, {"invariant": ["sign", "state"]},
])
def test_bad_budget_or_deadline_is_refused(pump_net, bad):
    """Checked once at entry: a bool, fractional or negative budget would
    decide or give up, a NaN deadline would never expire, and names in
    place of an invariant handle would fail on a missing attribute."""
    with pytest.raises(ValueError, match=next(iter(bad))):
        solve(pump_net, Marking((0, 2, 1)), **bad)


def test_any_real_deadline_is_taken(pump_net):
    """A float or an int is taken on sight; any other real number, a
    Fraction or a float subclass, is checked as a Real.  A past deadline
    of each stops the search, a far one lets it finish."""
    from fractions import Fraction

    class Stamp(float):
        pass

    now = int(time.monotonic())
    for past, far in ((now - 1.0, now + 600.0), (now - 1, now + 600),
                      (Fraction(now - 1), Fraction(now + 600)),
                      (Stamp(now - 1), Stamp(now + 600)), (-10 ** 400, 10 ** 400)):
        stopped = solve(pump_net, Marking((0, 2, 1)), deadline=past)
        assert stopped.inconclusive_reason == "deadline", past
        assert solve(pump_net, Marking((0, 2, 1)), deadline=far).verdict is Verdict.COVERABLE
    with pytest.raises(ValueError, match="deadline"):
        solve(pump_net, Marking((0, 2, 1)), deadline=Stamp("nan"))


def test_deadline(pump_net):
    r = solve(pump_net, Marking((0, 2, 1)), deadline=time.monotonic() - 1.0)
    assert r.verdict is Verdict.INCONCLUSIVE
    assert r.inconclusive_reason == "deadline"


def test_deadline_interrupts_a_round(pump_net, monkeypatch):
    """A deadline passing mid-round ends the search at the next check."""
    target = Marking((0, 2, 1))
    reads = 0
    flip_at = None

    def clock():
        nonlocal reads
        reads += 1
        return 10.0 if flip_at is not None and reads >= flip_at else 0.0

    monkeypatch.setattr(coverlib.solver.time, "monotonic", clock)
    full = solve(pump_net, target, make_invariant(pump_net, ["state"]),
                 deadline=5.0)
    total_reads = reads
    # without a deadline the counters are the same
    plain = solve(pump_net, target, make_invariant(pump_net, ["state"]))
    assert full.verdict is plain.verdict is Verdict.COVERABLE
    assert (full.stats, full.lp_calls) == (plain.stats, plain.lp_calls)
    # one read per round start, per transition and per invariant query
    assert total_reads == len(full.stats) * (1 + len(pump_net.transitions)) + sum(
        s.new_after_antichain for s in full.stats)

    inside = 0
    for flip_at in range(1, total_reads + 1):
        reads = 0
        r = solve(pump_net, target, make_invariant(pump_net, ["state"]),
                  deadline=5.0)
        assert r.verdict is Verdict.INCONCLUSIVE
        assert r.inconclusive_reason == "deadline"
        assert reads == flip_at  # stopped at the first expired check
        assert r.stats == full.stats[:len(r.stats)]
        assert r.lp_calls <= full.lp_calls
        round_start = sum(1 + len(pump_net.transitions) + s.new_after_antichain
                          for s in r.stats) + 1
        inside += flip_at > round_start
    # every expiry except those at a round start stops inside a round
    assert inside == total_reads - len(full.stats)


def test_invariant_net_identity_enforced(pump_net, stuck_net):
    inv = make_invariant(stuck_net, ["sign"])
    with pytest.raises(ValueError):
        solve(pump_net, Marking((0, 2, 1)), inv)
    # The bare base class has the right net but answers no query.
    with pytest.raises(ValueError, match="^invariant must be a handle from make_invariant"):
        solve(pump_net, Marking((0, 2, 1)), Invariant(pump_net))


def test_record_bases_and_backlinks(pump_net):
    target = Marking((0, 2, 1))
    r = solve(pump_net, target, record_bases=True)
    assert r.bases is not None and r.backlinks is not None
    assert list(r.bases[0]) == [target]
    assert len(r.bases) == len(r.stats) + 1  # one snapshot per loop entry
    for b in r.bases:
        assert b.is_antichain()
    # links always replay: every recorded marking reaches above the target
    for m in r.backlinks:
        seq = extract_witness(r.backlinks, m)
        assert pump_net.fire_sequence(m, seq).covers(target)


def test_extract_witness_rejects_unknown_start():
    with pytest.raises(ValueError):
        extract_witness({}, Marking((1,)))


def test_default_invariant_is_trivial(pump_net):
    target = Marking((0, 2, 1))
    a = solve(pump_net, target)
    b = solve(pump_net, target, make_invariant(pump_net, ["trivial"]))
    assert (a.verdict, a.witness, a.stats) == (b.verdict, b.witness, b.stats)
    assert a.invariant_name == b.invariant_name == "trivial"


def test_orbit_net_pruning_is_strict(orbit_net):
    # backward search alone admits the phantom predecessor (0,1,0); the
    # sign cut knows p2/p3 never carry tokens and admits nothing at all
    target = Marking((0, 0, 1))
    plain = solve(orbit_net, target)
    cut = solve(orbit_net, target, make_invariant(orbit_net, ["sign", "state"]))
    assert plain.verdict is Verdict.UNCOVERABLE
    assert cut.verdict is Verdict.UNCOVERABLE
    assert plain.kept_total == 1
    assert cut.kept_total == 0
    assert not cut.target_in_invariant


def test_corpus_verdicts_and_witnesses():
    bound = ExploreBound()
    mismatches = []
    for name, net, target in random_instances(seed=5150, count=150):
        truth = bounded_cover(net, target, bound)
        for names in CONFIGS:
            r = solve(net, target, make_invariant(net, names), budget_steps=500)
            assert r.verdict is not Verdict.INCONCLUSIVE
            if r.verdict is Verdict.COVERABLE:
                final = net.fire_sequence(net.initial, r.witness)
                assert final is not None and final.covers(target), name
            if truth.kind is OutcomeKind.COVERABLE:
                if r.verdict is not Verdict.COVERABLE:
                    mismatches.append((name, names))
            elif truth.kind is OutcomeKind.UNCOVERABLE_EXHAUSTED:
                if r.verdict is not Verdict.UNCOVERABLE:
                    mismatches.append((name, names))
    assert mismatches == []


def test_positional_records_hold_their_named_fields():
    """solve builds its records positionally: each equals the record built
    from its fields by name, and each field holds what its name says."""
    from test_acceptance import CORPUS_SEED, CORPUS_SIZE

    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        for names in CONFIGS:
            r = solve(net, target, make_invariant(net, names), record_bases=True)
            assert SolveResult(**r._asdict()) == r, name
            assert r.invariant_name == ",".join(names) and type(r.verdict) is Verdict
            assert r.final_basis_size == len(r.bases[-1]), name
            assert r.target_in_invariant is (target in r.backlinks), name
            assert len(r.backlinks) == r.target_in_invariant + r.kept_total, name
            asked = 1 + sum([s.new_after_antichain for s in r.stats])
            assert r.sign_checks == asked * ("sign" in names), name
            if names == ["state"]:
                assert r.lp_calls == asked, name
            elif "state" not in names:
                assert r.lp_calls == 0, name
            for k, s in enumerate(r.stats):
                assert IterationStats(**s._asdict()) == s, name
                assert (s.index, s.basis_size) == (k, len(r.bases[k])), name
                assert s.candidates_generated == len(net.transitions) * s.basis_size
                assert s.kept == s.new_after_antichain - s.pruned_by_invariant, name


def test_corpus_determinism():
    for name, net, target in random_instances(seed=5151, count=40):
        inv1 = make_invariant(net, ["sign", "state"])
        inv2 = make_invariant(net, ["sign", "state"])
        a = solve(net, target, inv1)
        b = solve(net, target, inv2)
        assert (a.verdict, a.witness, a.stats) == (b.verdict, b.witness, b.stats)


def test_corpus_pruned_bases_stay_below_classical():
    for name, net, target in random_instances(seed=5152, count=80):
        plain = solve(net, target, record_bases=True)
        cut = solve(net, target, make_invariant(net, ["sign", "state"]),
                    record_bases=True)
        if plain.verdict is not cut.verdict:
            continue
        for bp, bc in zip(plain.bases, cut.bases):
            for m in bc:
                assert bp.contains(m)


def test_matches_full_reexpansion_on_acceptance_corpus():
    """Frontier-only expansion changes nothing observable: verdicts,
    witnesses, per-round counters, query counts, bases in order and
    predecessor links all equal those of re-expanding the whole basis
    every round."""
    for name, net, target in random_instances(seed=20260819, count=500):
        for names in CONFIGS:
            r = solve(net, target, make_invariant(net, names),
                      budget_steps=500, record_bases=True)
            ref = full_backward_search(net, target, make_invariant(net, names),
                                       budget_steps=500)
            where = (name, names)
            assert r.verdict.value == ref.verdict, where
            assert r.witness == ref.witness, where
            assert [tuple(s) for s in r.stats] == ref.stats, where
            assert (r.lp_calls, r.sign_checks) == (ref.lp_calls,
                                                   ref.sign_checks), where
            assert [b.elements for b in r.bases] == ref.bases, where
            assert r.backlinks == ref.backlinks, where


def _mutex(n):
    """N processes cycling idle -> wait -> crit -> idle around one lock."""
    places = ["lock"] + [f"{s}{i}" for i in range(n)
                         for s in ("idle", "wait", "crit")]
    transitions, pre, post = [], {}, {}
    for i in range(n):
        transitions += [f"req{i}", f"enter{i}", f"exit{i}"]
        pre.update({(f"idle{i}", f"req{i}"): 1, (f"wait{i}", f"enter{i}"): 1,
                    ("lock", f"enter{i}"): 1, (f"crit{i}", f"exit{i}"): 1})
        post.update({(f"req{i}", f"wait{i}"): 1, (f"enter{i}", f"crit{i}"): 1,
                     (f"exit{i}", f"idle{i}"): 1, (f"exit{i}", "lock"): 1})
    net = PetriNet(places, transitions, pre, post,
                   {"lock": 1, **{f"idle{i}": 1 for i in range(n)}})
    targets = [({"crit0": 1, "crit1": 1}, "UNCOVERABLE"),
               ({"lock": 1, "crit0": 1}, "UNCOVERABLE"),
               ({"crit0": 1, "wait1": 1, "wait2": 1}, "COVERABLE")]
    return net, targets


def _pipeline(k, n):
    """K buffers of capacity N, each guarded by a count of free slots."""
    places = [f"buf{s}" for s in range(k)] + [f"free{s}" for s in range(k)]
    transitions = ["put"] + [f"mv{s}" for s in range(k - 1)] + ["get"]
    pre = {("free0", "put"): 1, (f"buf{k - 1}", "get"): 1}
    post = {("put", "buf0"): 1, ("get", f"free{k - 1}"): 1}
    for s in range(k - 1):
        pre.update({(f"buf{s}", f"mv{s}"): 1, (f"free{s + 1}", f"mv{s}"): 1})
        post.update({(f"mv{s}", f"free{s}"): 1, (f"mv{s}", f"buf{s + 1}"): 1})
    net = PetriNet(places, transitions, pre, post,
                   {f"free{s}": n for s in range(k)})
    targets = []
    for s in range(k):
        targets += [({f"buf{s}": n + 1}, "UNCOVERABLE"),
                    ({f"buf{s}": 1, f"free{s}": n}, "UNCOVERABLE"),
                    ({f"buf{s}": n}, "COVERABLE")]
    return net, targets


def test_matches_full_reexpansion_on_large_bases():
    """The comparison of the acceptance-corpus test, on mutual exclusion
    and pipeline nets whose bases grow to tens of elements: more than
    the 64 bits of one machine word in the antichain's masks."""
    peak = 0
    for net, targets in (_mutex(4), _mutex(5), _mutex(6), _pipeline(3, 4),
                         _pipeline(4, 3), _pipeline(5, 3), _pipeline(6, 2)):
        for counts, verdict in targets:
            target = net.marking(counts)
            r = solve(net, target, make_invariant(net, ["trivial"]),
                      record_bases=True)
            ref = full_backward_search(net, target,
                                       make_invariant(net, ["trivial"]))
            where = (net, counts)
            assert r.verdict.value == ref.verdict == verdict, where
            assert r.witness == ref.witness, where
            assert [tuple(s) for s in r.stats] == ref.stats, where
            assert [b.elements for b in r.bases] == ref.bases, where
            assert r.backlinks == ref.backlinks, where
            peak = max(peak, max(map(len, r.bases)))
    assert peak > 64


def _assert_frontier_is_the_tail(r, where, seen):
    # The kept markings enter the predecessor links in kept order, round
    # after round, after the target.  ``seen`` counts the rounds in which
    # old elements left and those in which a kept marking did not stay.
    kept = iter(list(r.backlinks)[r.target_in_invariant:])
    for s, old, new in zip(r.stats, r.bases, r.bases[1:]):
        round_kept = [next(kept) for _ in range(s.kept)]
        before, after = set(old), set(new)
        entered = [x for x in new if x not in before]
        assert new.elements[len(new) - len(entered):] == tuple(entered), where
        assert entered == [c for c in round_kept if c in after], where
        seen["old left"] += not before <= after
        seen["kept left"] += len(entered) < len(round_kept)


# The (family, parameters) of the benchmark's classical-families grid.
FAMILY_GRID = ((_mutex, (3,)), (_mutex, (4,)), (_mutex, (5,)), (_mutex, (6,)),
               (_mutex, (7,)), (_pipeline, (3, 2)), (_pipeline, (3, 4)),
               (_pipeline, (4, 2)), (_pipeline, (4, 3)), (_pipeline, (4, 4)),
               (_pipeline, (5, 2)), (_pipeline, (5, 3)), (_pipeline, (6, 2)))


def test_new_elements_form_the_tail_of_each_basis():
    """The elements a round adds to the basis are its last ones, in the
    order they were kept, which lets the search read its next frontier
    off the basis's tail."""
    from test_acceptance import CORPUS_SEED, CORPUS_SIZE

    seen = {"old left": 0, "kept left": 0}
    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        for names in CONFIGS:
            r = solve(net, target, make_invariant(net, names), record_bases=True)
            _assert_frontier_is_the_tail(r, (name, names), seen)
    for family, params in FAMILY_GRID:
        net, targets = family(*params)
        for counts, verdict in targets:
            r = solve(net, net.marking(counts), record_bases=True)
            assert r.verdict.value == verdict, (family, params, counts)
            _assert_frontier_is_the_tail(r, (family, params, counts), seen)
    assert all(seen.values())


def _weighted_net(rng):
    """A random net with every arc weight drawn from 0-3."""
    places = [f"p{i}" for i in range(rng.randint(1, 5))]
    transitions = [f"t{j}" for j in range(rng.randint(1, 5))]
    pre = {(p, t): rng.randint(0, 3) for p in places for t in transitions}
    post = {(t, p): rng.randint(0, 3) for p in places for t in transitions}
    return PetriNet(places, transitions, pre, post,
                    {p: rng.randint(0, 2) for p in places})


def test_productive_pairs_are_those_cpre_moves_below():
    """(t, m) is productive, and expanded, iff cpre(t, m) does not
    cover m."""
    rng = random.Random(2011)
    for _ in range(400):
        net = _weighted_net(rng)
        gains = coverlib.solver._gains(net)
        for t in range(len(net.transitions)):
            for _ in range(10):
                m = Marking([rng.randint(0, 4) for _ in net.places])
                productive = any(m[p] > n for p, n in gains[t])
                assert productive == (not net.cpre(t, m).covers(m)), (
                    net.pre[t], net.post[t], m)


def test_search_expands_only_productive_pairs(monkeypatch):
    """Every cpre the search asks for lies below its element somewhere,
    and skipping the others leaves the full re-expansion's verdict,
    witness, counters, bases and links as they were."""
    productive = []
    original = PetriNet.cpre

    def cpre(self, t, m):
        c = original(self, t, m)
        productive.append(not c.covers(m))
        return c

    monkeypatch.setattr(PetriNet, "cpre", cpre)
    rng = random.Random(2012)
    for _ in range(200):
        net = _weighted_net(rng)
        target = Marking([rng.randint(0, 3) for _ in net.places])
        r = solve(net, target, budget_steps=20, record_bases=True)
        ref = full_backward_search(net, target, make_invariant(net, ["trivial"]),
                                   budget_steps=20)
        assert r.verdict.value == ref.verdict
        assert r.witness == ref.witness
        assert [tuple(s) for s in r.stats] == ref.stats
        assert [b.elements for b in r.bases] == ref.bases
        assert r.backlinks == ref.backlinks
    assert productive and all(productive)
