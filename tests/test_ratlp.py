from __future__ import annotations

import random
from fractions import Fraction

import pytest

import coverlib.ratlp
from coverlib import FeasibilityProblem, feasible

from fourier_motzkin import fm_feasible


def rational(witness):
    """A witness ``(den, nums)`` as the rationals nums[j] / den."""
    den, nums = witness
    assert type(den) is int and den > 0
    assert all(type(v) is int for v in nums)
    return [Fraction(v, den) for v in nums]


def assert_solves(a, b, witness):
    """Independent re-substitution, not trusting the solver's own guard."""
    x = rational(witness)
    assert len(x) == (len(a[0]) if a else 0)
    assert all(v >= 0 for v in x)
    for row, bound in zip(a, b):
        assert sum(c * v for c, v in zip(row, x)) >= bound


def assert_refutes(a, b, y):
    """Independent check of a Farkas vector y: y >= 0 and y a <= 0 column
    by column, yet y b > 0, so no x >= 0 meets a x >= b."""
    assert len(y) == len(b)
    assert all(isinstance(v, int) and v >= 0 for v in y)
    for j in range(len(a[0]) if a else 0):
        assert sum(v * row[j] for v, row in zip(y, a)) <= 0
    assert sum(v * bound for v, bound in zip(y, b)) > 0


def solved(a, b, problem=None, start=None):
    """``feasible(a, b)`` checked part by part: ``(ok, cone)``."""
    if problem is None:
        problem = FeasibilityProblem(a)
    ok, evidence, cone = feasible(problem, b, start=start)
    if cone is not None:
        # a basis of distinct stored columns (x, then one surplus per row)
        n, m = (len(a[0]) if a else 0), len(b)
        assert len(set(cone.basis)) == m and all(0 <= c < n + m for c in cone.basis)
        assert cone.problem is problem
    if ok:
        assert_solves(a, b, evidence)
        if cone is not None:
            # the final basis solves its own b
            admitted, witness = cone.decide(b)
            assert admitted
            assert_solves(a, b, witness)
    else:
        # every infeasible answer comes off a tableau, which ends on a
        # basis that refutes its own b
        assert_refutes(a, b, evidence)
        assert cone is not None
        admitted, y = cone.decide(b)
        assert not admitted
        assert_refutes(a, b, y)
    return ok, cone


def check(a, b):
    return solved(a, b)[0]


def check_cone(a, cone, others):
    """Every bound vector in ``others`` that ``cone`` decides gets the
    answer elimination gives, and the cone's witness re-substitutes or its
    Farkas vector refutes.  Returns how many it admitted and refuted."""
    admitted = refuted = 0
    for b in others:
        answer = cone.decide(b)
        if answer is None:
            continue
        ok, evidence = answer
        assert ok == fm_feasible(a, b), (a, b)
        if ok:
            assert_solves(a, b, evidence)
            admitted += 1
        else:
            assert_refutes(a, b, evidence)
            refuted += 1
    return admitted, refuted


def test_empty_system_is_feasible():
    ok, witness, cone = feasible(FeasibilityProblem(()), ())
    assert ok and witness == (1, []) and cone is None


def test_nonpositive_bounds_short_circuit():
    # no tableau is built, so there is no final basis to hand back
    ok, witness, cone = feasible(FeasibilityProblem(((1, -2), (-3, 0))), (0, -5))
    assert ok and witness == (1, [0, 0]) and cone is None


def test_squeezed_system_ends_on_a_cone():
    # 2x >= 1 and 2x <= 1: x replaces the first surplus, and the second
    # surplus stays basic at level zero.  No artificial column exists, so
    # that basis is kept: it solves (1, -1) with x = 1/2 and refutes
    # (2, -1), which no x meets, by its second row's y = (1, 1)
    ok, witness, cone = feasible(FeasibilityProblem(((2,), (-2,))), (1, -1))
    assert ok and rational(witness) == [Fraction(1, 2)] and cone is not None
    assert cone.decide((1, -1))[0]
    assert rational(cone.decide((1, -1))[1]) == [Fraction(1, 2)]
    assert cone.decide((2, -1)) == (False, [1, 1])


def test_cone_decides_the_bounds_its_basis_solves():
    # x >= 1 and y >= 2 end on the basis {x, y}: it solves every b' >= 0,
    # with the witness b' itself, and no b' with a negative entry; each
    # row has a negative entry, so it refutes none either
    ok, witness, cone = feasible(FeasibilityProblem(((1, 0), (0, 1))), (1, 2))
    assert ok and witness == (1, [1, 2]) and sorted(cone.basis) == [0, 1]
    assert cone.decide((5, 3)) == (True, (1, [5, 3]))
    assert cone.decide((0, 0)) == (True, (1, [0, 0]))
    assert cone.decide((5, -1)) is None


def test_feasible_basis_refutes_with_a_row_of_no_negative_entry():
    # x >= 1 and x <= 3 (as -x >= -3) end with x basic in the first row and
    # the second row (0 | 1, 1): no negative entry, so its surplus block
    # y = (1, 1) refutes every later b with y . b > 0, although the
    # basis is feasible for its own b
    ok, witness, cone = feasible(FeasibilityProblem(((1,), (-1,))), (1, -3))
    assert ok and witness == (1, [1])
    assert cone.decide((2, -3)) == (True, (1, [2]))
    assert cone.decide((4, -3)) == (False, [1, 1])
    assert_refutes(((1,), (-1,)), (4, -3), [1, 1])
    assert not fm_feasible(((1,), (-1,)), (4, -3))
    # x >= -1 is feasible, but not with x basic at -1: neither answer
    assert cone.decide((-1, -3)) is None


def skew_by_a_hair(monkeypatch):
    """Make the simplex form every witness 10**-30 short, entry by entry:
    (den * 10**30, nums * 10**30 - den) is x - 10**-30."""
    form = coverlib.ratlp._witness

    def skewed(n, basic):
        den, nums = form(n, basic)
        return den * 10**30, [v * 10**30 - den for v in nums]

    monkeypatch.setattr(coverlib.ratlp, "_witness", skewed)


def test_exactness_guard_rejects_a_witness_off_by_a_hair(monkeypatch):
    """The guard re-substitutes exactly: a witness 10**-30 too small is
    caught, although a float re-substitution would round it away."""
    skew_by_a_hair(monkeypatch)
    # squeezed to the single point 1/2, so 1/2 - hair violates 2x >= 1
    with pytest.raises(ArithmeticError, match="invalid witness"):
        feasible(FeasibilityProblem(((2,), (-2,))), (1, -1))
    # (1 - hair, -hair) meets x0 - x1 >= 1 exactly but is negative
    with pytest.raises(ArithmeticError, match="negative witness"):
        feasible(FeasibilityProblem(((1, -1),)), (1,))


def test_exactness_guard_rejects_a_cone_witness_off_by_a_hair(monkeypatch):
    """A cone's witness goes through the same guard as a solved one."""
    # 2x >= 1 and 2x <= 3 end with x basic at 1/2, tight on the first row
    tight = feasible(FeasibilityProblem(((2,), (-2,))), (1, -3))[2]
    skew = feasible(FeasibilityProblem(((1, -1),)), (1,))[2]
    assert rational(tight.decide((1, -3))[1]) == [Fraction(1, 2)]
    assert rational(skew.decide((1,))[1]) == [1, 0]
    skew_by_a_hair(monkeypatch)
    with pytest.raises(ArithmeticError, match="invalid witness"):
        tight.decide((1, -3))
    with pytest.raises(ArithmeticError, match="negative witness"):
        skew.decide((1,))


def test_farkas_guard_rejects_a_vector_off_by_one(monkeypatch):
    """An infeasible answer is re-checked like a feasible one: a Farkas
    vector with one entry off by one raises, it is never returned, whether
    a solve or a kept basis's ``decide`` reads it off the stuck row."""
    # x >= 2, x <= 1 and 0 >= -5: y = (1, 1, 0) proves it, with y a = 0
    # and y b = 1.  Each skew breaks one of the three conditions: y a <= 0
    # (entry 0 up), y b > 0 (entry 1 up) or y >= 0 (entry 2 down).
    problem = FeasibilityProblem(((1,), (-1,), (0,)))
    assert feasible(problem, (2, -1, -5))[:2] == (False, [1, 1, 0])
    skews = ((0, 1), (0, -1), (1, 1), (1, -1), (2, 1), (2, -1))
    # one fresh basis per skew: a basis checks a row's y >= 0 and y a <= 0
    # only on its first refutation by that row
    cones = [feasible(problem, (2, -1, -5))[2] for _ in range(len(skews) + 1)]
    assert cones.pop().decide((2, -1, -5)) == (False, [1, 1, 0])
    extract = coverlib.ratlp._farkas
    for (entry, delta), cone in zip(skews, cones):
        def skewed(row, n, m, entry=entry, delta=delta):
            y = extract(row, n, m)
            y[entry] += delta
            return y
        monkeypatch.setattr(coverlib.ratlp, "_farkas", skewed)
        with pytest.raises(ArithmeticError, match="invalid Farkas vector"):
            feasible(problem, (2, -1, -5))
        with pytest.raises(ArithmeticError, match="invalid Farkas vector"):
            cone.decide((2, -1, -5))


def test_single_variable_bounds():
    assert check([(1,)], [3])
    assert not check([(-1,)], [1])
    # squeezed to the single point 1/2
    assert check([(2,), (-2,)], [1, -1])


def test_fractional_vertex_is_exact():
    ok, witness, _ = feasible(FeasibilityProblem(((2,), (-2,))), (1, -1))
    assert ok and rational(witness) == [Fraction(1, 2)]


def test_zero_row_with_positive_bound():
    assert not check([(0, 0)], [1])


def test_zero_width_rows():
    assert check([(), ()], [-1, 0])
    assert not check([()], [2])


def test_conflicting_band():
    # x >= 2 and x <= 1 (as -x >= -1)
    assert not check([(1,), (-1,)], [2, -1])


def test_two_variable_geometry():
    # x + y >= 2, x - y >= 0, y >= 1 has the corner (1, 1)
    assert check([(1, 1), (1, -1), (0, 1)], [2, 0, 1])
    # adding x + y <= 1 empties it
    assert not check([(1, 1), (1, -1), (0, 1), (-1, -1)], [2, 0, 1, -1])


def test_pump_displacement_instances(pump_net):
    rows = tuple(
        tuple(pump_net.post[t][p] - pump_net.pre[t][p] for t in range(3))
        for p in range(3)
    )
    reachable = (0, 2, 1)
    blocked = (2, 0, 0)
    b1 = tuple(m - i for m, i in zip(reachable, pump_net.initial))
    b2 = tuple(m - i for m, i in zip(blocked, pump_net.initial))
    assert check(rows, b1)
    assert not check(rows, b2)


def test_matrix_validation():
    with pytest.raises(ValueError, match="ragged"):
        FeasibilityProblem(((1, 2), (1,)))
    for bad in (1.5, True):
        with pytest.raises(ValueError, match="integers"):
            FeasibilityProblem(((bad,),))
    assert FeasibilityProblem([[1, 2], [3, 4]]).a == ((1, 2), (3, 4))
    assert FeasibilityProblem(((), ())).num_vars == 0


def test_bounds_validation():
    problem = FeasibilityProblem(((1,),))
    for b in ((0, 0), (), (0.5,), (Fraction(1),), (True,), (False,)):
        with pytest.raises(ValueError):
            feasible(problem, b)


def test_bland_rule_ends_a_degenerate_cycle(monkeypatch):
    """Every pivot of the dual simplex is degenerate (no objective), so
    the leaving rule must prevent cycling.  On this system, letting the
    first infeasible row in row order leave, or the most negative one,
    each with the smallest negative column entering, returns to a basis
    after 9 pivots and repeats forever.  Leaving by the smallest basic
    label ends after 4.  A cycle fails the test instead of hanging it."""
    a = [(1, 3, 3, 1, -3), (0, -2, -2, -1, -2), (-1, -2, -3, 3, 0),
         (3, 3, 2, 2, -2), (2, 0, 1, 2, 3), (2, -2, 0, 0, 2)]
    b = [-1, 0, -1, 1, 1, 0]
    pivots = []
    pivot = coverlib.ratlp._pivot

    def counted(rows, r, c):
        pivots.append(c)
        if len(pivots) > 50:
            raise AssertionError("the simplex cycles")
        pivot(rows, r, c)

    monkeypatch.setattr(coverlib.ratlp, "_pivot", counted)
    assert solved(a, b)[0] and fm_feasible(a, b)
    assert len(pivots) == 4


def test_start_from_another_problem_is_refused():
    # an equal matrix in another problem is still another problem, and
    # the check comes before the all-b <= 0 shortcut
    a = ((1, -1), (0, 1))
    start = feasible(FeasibilityProblem(a), (1, 1))[2]
    for b in ((1, 1), (0, 0)):
        with pytest.raises(ValueError, match="another problem"):
            feasible(FeasibilityProblem(a), b, start=start)


def test_warm_started_chains_agree_with_elimination():
    """Chains of bounds on one problem, each solved warm from the final
    basis of the solve before it, whether that one was feasible or not."""
    rng = random.Random(1954)
    after = {True: 0, False: 0}  # warm starts, by the outcome they follow
    outcomes = {True: 0, False: 0}
    for _ in range(300):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        problem = FeasibilityProblem(a)
        start, last = None, None
        for _ in range(6):
            b = [rng.randint(-4, 4) for _ in range(m)]
            ok, cone = solved(a, b, problem, start)
            assert ok == fm_feasible(a, b), (a, b)
            if start is not None:
                after[last] += 1
                outcomes[ok] += 1
            if cone is not None:
                start, last = cone, ok
    assert min(after.values()) > 200 and min(outcomes.values()) > 200


def test_agrees_with_elimination_oracle():
    rng = random.Random(1203)
    # the other bounds each cone is asked draw from their own stream, so
    # the systems swept stay those of rng alone
    other = random.Random(1204)
    feas = cones = asked = admitted = refuted = 0
    for _ in range(1500):
        n = rng.randint(1, 4)
        m = rng.randint(1, 5)
        a = [tuple(rng.randint(-3, 3) for _ in range(n)) for _ in range(m)]
        b = [rng.randint(-4, 4) for _ in range(m)]
        got, cone = solved(a, b)
        assert got == fm_feasible(a, b), (a, b)
        feas += got
        if cone is not None:
            others = [[other.randint(-4, 4) for _ in range(m)] for _ in range(4)]
            cones += 1
            asked += len(others)
            admits, refutes = check_cone(a, cone, others)
            admitted += admits
            refuted += refutes
    # both outcomes must actually occur for the comparison to mean much
    assert 100 < feas < 1400
    assert 0 < admitted and 0 < refuted and admitted + refuted < asked
    assert cones > 100


def displacement_like(rng, places, transitions):
    """Rows of post - pre for transitions with one or two input and output
    places, entries clipped to -2..3.  Sparse columns like a real net's keep
    elimination fast; dense 6 x 6 systems can take it minutes."""
    cols = []
    for _ in range(transitions):
        col = [0] * places
        for p in rng.sample(range(places), rng.randint(1, 2)):
            col[p] -= rng.randint(1, 2)
        for p in rng.sample(range(places), rng.randint(1, 2)):
            col[p] += rng.randint(1, 3)
        cols.append([max(-2, min(3, v)) for v in col])
    return [tuple(c[p] for c in cols) for p in range(places)]


def test_agrees_with_elimination_on_displacement_like_systems():
    rng = random.Random(2016)
    other = random.Random(2017)
    feas = asked = admitted = refuted = 0
    for _ in range(150):
        a = displacement_like(rng, 6, 6)
        # target minus initial marking
        b = [rng.randint(0, 3) - rng.randint(0, 2) for _ in range(6)]
        got, cone = solved(a, b)
        assert got == fm_feasible(a, b), (a, b)
        feas += got
        if cone is not None:
            others = [[other.randint(0, 3) - other.randint(0, 2) for _ in range(6)]
                      for _ in range(2)]
            asked += len(others)
            admits, refutes = check_cone(a, cone, others)
            admitted += admits
            refuted += refutes
    assert 15 < feas < 135
    assert 0 < admitted and 0 < refuted and admitted + refuted < asked


def test_agrees_with_elimination_on_large_coefficients():
    # Big entries make the integer rows grow, so the gcd normalisation
    # and big-integer cross-multiplication in the ratio test get used.
    rng = random.Random(1968)
    other = random.Random(1969)
    feas = asked = admitted = refuted = 0
    for _ in range(400):
        n = rng.randint(1, 3)
        m = rng.randint(1, 4)
        a = [tuple(rng.randint(-10**6, 10**6) for _ in range(n))
             for _ in range(m)]
        b = [rng.randint(-10**9, 10**9) for _ in range(m)]
        got, cone = solved(a, b)
        assert got == fm_feasible(a, b), (a, b)
        feas += got
        if cone is not None:
            others = [[other.randint(-10**9, 10**9) for _ in range(m)]
                      for _ in range(2)]
            asked += len(others)
            admits, refutes = check_cone(a, cone, others)
            admitted += admits
            refuted += refutes
    assert 40 < feas < 360
    assert 0 < admitted and 0 < refuted and admitted + refuted < asked
