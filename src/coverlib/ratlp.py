"""Exact rational feasibility of systems  { x >= 0,  A x >= b }.

A is validated once, as a ``FeasibilityProblem``; ``feasible`` takes b.
Row i of A x >= b gets a surplus s_i >= 0 and is stored as
-a_i x + s_i = -b_i, so the stored columns are [x | s], n + m of them
and no other: the all-surplus basis is a basis of every system, with
s = -b.  Decided with a dual simplex (Lemke, 1954) in fraction-free
integer rows (Bareiss, Math. Comp. 22, 1968).  Row i of the tableau on
a basis B is d_i (B^-1)_i [-a | I | -b] for some scale d_i > 0, so its
surplus block is d_i (B^-1)_i and its right-hand side -d_i (B^-1)_i . b.

There is no objective: every reduced cost is zero, so every basis is
dual feasible, and the simplex only drives out negative right-hand
sides.  Bland's rule keeps it from cycling: the leaving row is the
infeasible row with the smallest basic label, and the entering column
the smallest column with a negative entry in that row.  A pivot on
(r, c) negates row r, so its entry at c turns positive, keeps it, and
replaces every other row i by ``piv * row_i - row_i[c] * row_r`` divided
by the gcd of its entries; every scale stays positive, so the signs read
off the integer rows are the rational ones.

Every solve ends on a basis of stored columns, feasible or not, and
returns it as a ``Cone``: it decides a later b in zero pivots when its
rows settle it, else a solve may start from it, warm, instead of from
the all-surplus basis.  Either way only the right-hand sides are
recomputed for the new b.  Every answer carries integer evidence,
checked before it is returned; a failed check raises ``ArithmeticError``.
No floating point or rational type is used:

* feasible: a witness ``(den, nums)`` with x_j = nums[j] / den, read off
  the basic rows, x[basis[i]] = rhs_i / d_i;
* infeasible: a row with a negative right-hand side and no negative
  entry.  Its surplus block y = d_r (B^-1)_r is a Farkas vector: the
  row's x block -y A >= 0, its surplus block y >= 0 and its right-hand
  side -y . b < 0, so y A x <= 0 < y . b for every x >= 0.
"""

from __future__ import annotations

from collections import namedtuple
from math import gcd, lcm
from operator import mul
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

Witness = Tuple[int, List[int]]  # (den, nums): x_j = nums[j] / den, den > 0


class FeasibilityProblem(namedtuple("_FeasibilityFields", "a")):
    """The integer matrix ``a`` of the systems  { x >= 0, a x >= b }.

    ``a`` is a tuple of rows (one inequality each), all with the same
    number of columns, one per variable.  It is validated once, here;
    ``feasible`` takes the bounds ``b`` per call and checks only those.
    A system with zero columns is legal and constrains nothing beyond
    the signs of ``b``.
    """

    __slots__ = ()

    def __new__(cls, a: Tuple[Tuple[int, ...], ...]) -> FeasibilityProblem:
        a = tuple([tuple(row) for row in a])
        for row in a:
            if len(row) != len(a[0]):
                raise ValueError("ragged constraint matrix")
            for v in row:
                if type(v) is not int:  # bool is an int subclass, no count
                    raise ValueError(f"matrix entries must be integers, got {v!r}")
        return tuple.__new__(cls, (a,))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it

    @property
    def num_vars(self) -> int:
        return len(self.a[0]) if self.a else 0


def _reduce(row: List[int]) -> List[int]:
    """``row`` divided by the gcd of its entries (an all-zero row stays)."""
    g = gcd(*row)
    if g > 1:
        return [v // g for v in row]
    return row


def _pivot(rows: List[List[int]], r: int, c: int) -> None:
    # Row r is negated, so its scale stays positive with x_c basic; every
    # other row i becomes piv * row_i - row_i[c] * row_r: the rational
    # result times piv times row i's old scale, a positive factor.
    prow = rows[r] = [-v for v in rows[r]]
    piv = prow[c]
    for i, row in enumerate(rows):
        f = row[c]
        if i != r and f:
            rows[i] = _reduce([piv * v - f * pv for v, pv in zip(row, prow)])


def _farkas(row: List[int], n: int, m: int) -> List[int]:
    """The Farkas vector read off a stuck row: its surplus block."""
    return row[n:n + m]


def _witness(n: int, basic: Iterable[Tuple[int, int, int]]) -> Witness:
    """``(den, nums)`` with x[col] = value / scale for each basic
    ``(value, scale, col)`` with ``col < n``, and 0 elsewhere."""
    basic = [entry for entry in basic if entry[2] < n]
    den = lcm(*[scale for _, scale, _ in basic])
    nums = [0] * n
    for value, scale, col in basic:
        nums[col] = value * (den // scale)
    return den, nums


def feasible(
    problem: FeasibilityProblem, b: Sequence[int], start: Optional[Cone] = None,
) -> Tuple[bool, Union[Witness, List[int]], Optional[Cone]]:
    """Decide ``problem.a x >= b``, one integer bound per row, with evidence.

    Returns ``(True, (den, nums), cone)``: den > 0 and x_j = nums[j] / den
    meets x >= 0 and every row of ``a x >= b``.  Or ``(False, y, cone)``: a
    list of integers ``y[i] >= 0`` with ``y . a[:, j] <= 0`` for every
    column j and ``y . b > 0``, a Farkas certificate of infeasibility.
    Either is re-checked exactly; ``ArithmeticError`` means the simplex
    went wrong, never that the input was bad (bad bounds raise
    ``ValueError``).  ``cone`` is the final basis; it decides other
    bounds without a solve and warm-starts a later one when passed as
    ``start``, which must come from a solve of this same ``problem``.
    It is None when no tableau was needed (every b_i <= 0).
    """
    a = problem.a
    m = len(a)
    n = problem.num_vars
    if len(b) != m or not all(type(v) is int for v in b):
        raise ValueError(f"expected {m} integer bounds, got {b!r}")
    if start is not None and start.problem is not problem:
        raise ValueError("start basis was built for another problem")

    if all(bi <= 0 for bi in b):
        return True, (1, [0] * n), None

    total = n + m  # x, surpluses; the right-hand side sits at total
    if start is None:
        basis = list(range(n, total))
        rows = []
        for i, (ai, bi) in enumerate(zip(a, b)):
            row = [-aij for aij in ai] + [0] * m + [-bi]
            row[n + i] = 1
            rows.append(row)
    else:
        basis = list(start.basis)
        rows = [kept[:total] + [-sum(map(mul, kept[n:total], b))]
                for kept in start._rows]

    while True:
        leave = None
        for i, row in enumerate(rows):  # Bland: smallest infeasible label
            if row[total] < 0 and (leave is None or basis[i] < basis[leave]):
                leave = i
        if leave is None:
            break
        row = rows[leave]
        enter = next((j for j in range(total) if row[j] < 0), None)
        if enter is None:
            y = _checked_farkas(a, b, _farkas(row, n, m))
            return False, y, Cone(problem, basis, rows)
        _pivot(rows, leave, enter)
        basis[leave] = enter

    witness = _witness(n, [(row[total], row[col], col)
                           for row, col in zip(rows, basis)])
    return True, _checked_witness(a, b, witness), Cone(problem, basis, rows)


def _checked_witness(a: Tuple[Tuple[int, ...], ...], b: Sequence[int],
                     witness: Witness) -> Witness:
    # Exactness guard: a x >= b iff a . nums >= b * den, as den > 0.  A
    # failure means a bug, not bad input.
    den, nums = witness
    if den <= 0 or any(sum(map(mul, row, nums)) < bi * den for row, bi in zip(a, b)):
        raise ArithmeticError("simplex produced an invalid witness")
    if any(v < 0 for v in nums):
        raise ArithmeticError("simplex produced a negative witness entry")
    return witness


def _checked_farkas(a: Tuple[Tuple[int, ...], ...], b: Sequence[int],
                    y: List[int], signs_known: bool = False) -> List[int]:
    # Exactness guard, as for a witness.  y >= 0 and y a <= 0 do not
    # depend on b, so a kept row checks them once; y . b > 0 every time.
    if (not signs_known and (any(v < 0 for v in y) or
                             any(sum(map(mul, col, y)) > 0 for col in zip(*a)))
            or sum(map(mul, b, y)) <= 0):
        raise ArithmeticError("simplex produced an invalid Farkas vector")
    return y


class Cone:
    """The final basis B of one solve; ``decide`` answers each b' it settles.

    B solves b' when every row's right-hand side is >= 0, and a row with
    no negative entry refutes b' when its own is negative.
    """

    def __init__(self, problem: FeasibilityProblem, basis: List[int],
                 rows: List[List[int]]) -> None:
        self.problem, self.basis = problem, basis
        self._rows, self._scan = rows, None  # sliced on the first decide
        self._ys: Dict[int, List[int]] = {}  # refuting row -> checked y

    def decide(self, b: Sequence[int]) -> Optional[Tuple[bool, Union[Witness, List[int]]]]:
        """``(True, (den, nums))`` or ``(False, y)`` as ``feasible``
        returns them, or None when B settles neither; b is unchecked."""
        a, n = self.problem.a, self.problem.num_vars
        if self._scan is None:
            # Rows with no negative entry (they can refute b) first, as None skips the rest.
            self._scan = sorted(
                [(row[n:-1], row[col], col, None if min(row[:-1]) < 0 else r)
                 for r, (row, col) in enumerate(zip(self._rows, self.basis))],
                key=lambda entry: entry[3] is None)
        basic = []
        for surplus, scale, col, r in self._scan:
            v = sum(map(mul, surplus, b))
            if v <= 0:
                basic.append((-v, scale, col))
            elif r is None:
                return None
            else:
                if r not in self._ys:
                    self._ys[r] = _checked_farkas(a, b, _farkas(self._rows[r], n, len(a)))
                return False, _checked_farkas(a, b, self._ys[r], signs_known=True)
        return True, _checked_witness(a, b, _witness(n, basic))
