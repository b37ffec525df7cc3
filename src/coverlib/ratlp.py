"""Exact rational feasibility of systems  { x >= 0,  A x >= b }.

A is validated once, as a ``FeasibilityProblem``; ``feasible`` takes b.
Decided with a fraction-free phase-one simplex (Bareiss, Math. Comp. 22,
1968): tableau entries are Python integers, and row i stands for
(1/s_i) times the rational row for some s_i > 0.  A pivot on (r, c)
keeps row r and replaces every other row i by
``piv * row_i - row_i[c] * row_r``, then divides it by the gcd of its
entries.  The pivot entry is positive, so every scale stays positive and
signs and ratios read off the integer rows are the rational ones; the
ratio test compares ``rhs_i * c_best`` with ``rhs_best * c_i``.  Bland's
smallest-index rule prevents cycling.  Only the witness is built as
``fractions.Fraction`` (``rhs_i / row_i[col]``), it satisfies the system
exactly, and no floating point ever enters the decision path.

Both answers carry evidence.  A feasible system returns its witness x.
An infeasible one returns a Farkas vector y: integers with y >= 0,
y a <= 0 and y b > 0, so y a x <= 0 < y b for every x >= 0 and no x
meets a x >= b.  It is read off the final tableau at no extra cost: the
objective row is a positive multiple of sum_i y_i (a_i x - s_i - b_i)
(a row negated at construction enters with the opposite sign, its
surplus too), and surplus s_i appears in row i only, so the surplus
columns of the objective row hold -y.  Both answers are checked in integer arithmetic
before they are returned; a failed check raises ``ArithmeticError``.

Construction of the tableau, per inequality row:

* ``b_i <= 0``: the row holds at x = 0, so it only needs a surplus
  variable and that surplus starts basic (the row is negated first so
  the right-hand side is non-negative).
* ``b_i > 0``: the row gets a surplus variable with coefficient -1 plus
  an artificial variable that starts basic.

Phase one minimises the sum of artificials; the system is feasible
exactly when that minimum is zero.  Artificial columns never re-enter
the basis, so they are not stored; each artificial keeps its column
number (after every real column) as a basis label for Bland's rule.

A feasible answer also returns its final basis B as a ``Cone`` unless an
artificial stayed basic.  Row i, built from a_i x - (surplus i) = b_i,
ends as S B^-1 [a | -I] over the stored columns whatever its sign, S the
positive scales s_i = ``rows[i][basis[i]]``, so ``rows[i][n:n+m]`` is
-s_i (B^-1)_i.  B solves b' iff every v_i = ``rows[i][n:n+m]`` . b' <= 0,
and then x[basis[i]] = -v_i / s_i for basic columns below n, else 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import List, Optional, Sequence, Tuple, Union


@dataclass(frozen=True)
class FeasibilityProblem:
    """The integer matrix ``a`` of the systems  { x >= 0, a x >= b }.

    ``a`` is a tuple of rows (one inequality each), all with the same
    number of columns, one per variable.  It is validated once, here;
    ``feasible`` takes the bounds ``b`` per call and checks only those.
    A system with zero columns is legal and constrains nothing beyond
    the signs of ``b``.
    """

    a: Tuple[Tuple[int, ...], ...]

    def __post_init__(self) -> None:
        a = tuple([tuple(row) for row in self.a])
        object.__setattr__(self, "a", a)
        for row in a:
            if len(row) != len(a[0]):
                raise ValueError("ragged constraint matrix")
            for v in row:
                if type(v) is not int:  # bool is an int subclass, no count
                    raise ValueError(f"matrix entries must be integers, got {v!r}")

    @property
    def num_vars(self) -> int:
        return len(self.a[0]) if self.a else 0


def common_denominator(xs: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """``(den, nums)`` with ``den > 0`` and ``xs[j] == nums[j] / den``."""
    den = lcm(*(x.denominator for x in xs))
    return den, [x.numerator * (den // x.denominator) for x in xs]


def _reduce(row: List[int]) -> List[int]:
    """``row`` divided by the gcd of its entries (an all-zero row stays)."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _pivot(rows: List[List[int]], obj: List[int], r: int, c: int) -> None:
    # Row r stays as it is; every other row i becomes
    # piv * row_i - row_i[c] * row_r: the rational result times piv times
    # row i's old scale, a positive factor.
    prow = rows[r]
    piv = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            rows[i] = _reduce([piv * v - f * pv for v, pv in zip(row, prow)])
    f = obj[c]
    if f:
        obj[:] = _reduce([piv * v - f * pv for v, pv in zip(obj, prow)])


def _farkas(obj: List[int], n: int, m: int) -> List[int]:
    """The Farkas vector read off a final phase-one objective row."""
    return [-v for v in obj[n:n + m]]


def feasible(
    problem: FeasibilityProblem, b: Sequence[int],
) -> Tuple[bool, Union[List[Fraction], List[int]], Optional[Cone]]:
    """Decide ``problem.a x >= b``, one integer bound per row, with evidence.

    Returns ``(True, witness, cone)`` with ``witness[j] >= 0`` satisfying
    every row of ``a . witness >= b``, or ``(False, y, None)`` with a list
    of integers ``y[i] >= 0`` such that ``y . a[:, j] <= 0`` for every
    column j and ``y . b > 0`` (a Farkas certificate of infeasibility,
    read off the surplus columns of the final objective row).  Either is
    re-checked exactly; ``ArithmeticError`` means the simplex went wrong,
    never that the input was bad (bad bounds raise ``ValueError``).
    ``cone`` answers other bounds without a solve; it is None when an
    artificial stayed basic or no tableau was needed (every b_i <= 0).
    """
    a = problem.a
    m = len(a)
    n = problem.num_vars
    if len(b) != m or not all(type(v) is int for v in b):
        raise ValueError(f"expected {m} integer bounds, got {b!r}")

    if all(bi <= 0 for bi in b):
        return True, [Fraction(0)] * n, None

    total = n + m  # lambdas, surpluses; the right-hand side sits at total
    rows: List[List[int]] = []
    basis: List[int] = []
    obj = [0] * (total + 1)
    next_art = n + m  # artificial columns are numbered but not stored
    for i, (ai, bi) in enumerate(zip(a, b)):
        if bi <= 0:
            row = [-aij for aij in ai] + [0] * m + [-bi]
            row[n + i] = 1
            basis.append(n + i)
        else:
            row = list(ai) + [0] * m + [bi]
            row[n + i] = -1
            basis.append(next_art)
            next_art += 1
            # Objective: sum of artificials, expressed over the other columns.
            obj = [u + v for u, v in zip(obj, row)]
        rows.append(row)

    while True:
        enter = None
        for j in range(total):  # Bland: smallest improving column
            if obj[j] > 0:
                enter = j
                break
        if enter is None:
            break
        # Ratio test on rhs_i / c_i, compared by cross-multiplication: a
        # row's scale cancels in its own ratio, and every c_i is positive.
        leave = None
        for i, row in enumerate(rows):
            c = row[enter]
            if c <= 0:
                continue
            if leave is not None:
                d = row[total] * best_c - best_rhs * c
                if d > 0 or (d == 0 and basis[i] > basis[leave]):
                    continue
            best_rhs, best_c, leave = row[total], c, i
        if leave is None:
            # The phase-one objective is bounded below by zero, so an
            # unbounded improving direction cannot exist.
            raise ArithmeticError("phase-one simplex lost boundedness")
        _pivot(rows, obj, leave, enter)
        basis[leave] = enter

    if obj[total] != 0:
        # No column improves, so y >= 0 and y a <= 0, and obj[total] is
        # a positive multiple of y b > 0.  Exactness guard, as for a
        # witness: a failure means a bug, not an infeasible system.
        y = _farkas(obj, n, m)
        if (any(v < 0 for v in y)
                or any(sum(map(mul, col, y)) > 0 for col in zip(*a))
                or sum(map(mul, b, y)) <= 0):
            raise ArithmeticError("simplex produced an invalid Farkas vector")
        return False, y, None

    witness = [Fraction(0)] * n
    for row, col in zip(rows, basis):
        if col < n:
            witness[col] = Fraction(row[total], row[col])
    cone = Cone(problem, basis, rows) if max(basis) < total else None
    return True, _checked_witness(a, b, witness), cone


def _checked_witness(a: Tuple[Tuple[int, ...], ...], b: Sequence[int],
                     witness: List[Fraction]) -> List[Fraction]:
    # Exactness guard: a . witness >= b iff a . nums >= b * den over a
    # common denominator den > 0.  A failure means a bug, not bad input.
    den, nums = common_denominator(witness)
    if any(sum(map(mul, row, nums)) < bi * den for row, bi in zip(a, b)):
        raise ArithmeticError("simplex produced an invalid witness")
    if any(v < 0 for v in nums):
        raise ArithmeticError("simplex produced a negative witness entry")
    return witness


class Cone:
    """A final feasible basis B: it solves every b' with B^-1 b' >= 0."""

    def __init__(self, problem: FeasibilityProblem, basis: list, rows: list) -> None:
        self.problem, self.basis = problem, basis
        self._rows, self._scan = rows, None  # sliced on the first admit

    def admit(self, b: Sequence[int]) -> Optional[List[Fraction]]:
        """A witness of ``problem.a x >= b`` on B, or None; b is unchecked."""
        n = self.problem.num_vars
        if self._scan is None:
            self._scan = [(row[n:n + len(self._rows)], row[col], col)
                          for row, col in zip(self._rows, self.basis)]
        witness = [Fraction(0)] * n
        for surplus, scale, col in self._scan:
            v = sum(map(mul, surplus, b))
            if v > 0:
                return None
            if col < n:
                witness[col] = Fraction(-v, scale)
        return _checked_witness(self.problem.a, b, witness)
