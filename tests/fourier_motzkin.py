"""Variable elimination in integers, used as a second opinion on
feasibility of ``A x >= b, x >= 0``.

Deliberately shares nothing with the simplex implementation under test:
each row is a flat tuple ``(c_1, ..., c_n, b)`` meaning ``c . x >= b``,
and eliminating a variable combines each pair of rows where its
coefficient has opposite signs with positive integer multipliers that
cancel it.  Once every variable is gone a row reads ``0 >= b``, so the
system is feasible exactly when no remaining constant is positive.

Every row is kept divided by the gcd of its entries, so rows that are
positive multiples of one another meet as one, and a row with no
coefficient left and a positive constant is exactly ``(0, ..., 0, 1)``.
Row counts can square with every elimination, which is why this lives in
the test tree and the shipped solver does not work this way; dropping
the duplicates keeps the sizes sane for the small random systems the
tests generate.
"""

from __future__ import annotations

from math import gcd
from typing import Iterable, Sequence, Set, Tuple

Row = Tuple[int, ...]


def fm_feasible(a: Sequence[Sequence[int]], b: Sequence[int]) -> bool:
    width = len(a[0]) if a else 0
    rows = {_primitive((*coeffs, bound)) for coeffs, bound in zip(a, b)}
    # x_j >= 0 for every column j
    rows.update(tuple(int(i == j) for i in range(width + 1)) for j in range(width))
    contradiction = (0,) * width + (1,)
    for j in range(width):
        if contradiction in rows:
            return False
        rows = _eliminate(rows, j)
    return contradiction not in rows


def _primitive(row: Iterable[int]) -> Row:
    row = tuple(row)
    g = gcd(*row)
    return tuple(v // g for v in row) if g > 1 else row


def _eliminate(rows: Set[Row], var: int) -> Set[Row]:
    lower = [r for r in rows if r[var] > 0]
    upper = [r for r in rows if r[var] < 0]
    out = {r for r in rows if r[var] == 0}
    for lo in lower:
        for up in upper:
            ml = -up[var]
            mu = lo[var]
            out.add(_primitive(ml * x + mu * y for x, y in zip(lo, up)))
    return out
