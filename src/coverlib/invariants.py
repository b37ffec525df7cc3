"""Downward-closed invariants that over-approximate the reachable markings.

Two non-trivial invariants are provided, plus the trivial one, and
``make_invariant`` joins several into their conjunction:

* sign: a fixpoint computes the set of places that can ever carry a
  token; the invariant requires every other place to stay empty.  The
  fixpoint, ``sign_analysis``, runs once per net and is kept on the net,
  so the preprocessor and the invariant built on its result share it;
  it also records the transitions it never fired, the sign-dead ones.
* state: a marking is admitted when the token-flow balance equations,
  relaxed to non-negative rational firing counts, can explain it from
  the initial marking.  Each handle builds the displacement matrix D
  once, from the net's checked rows, on the first query that needs it,
  and reuses its own exact LP answers, each with its checked lam or
  Farkas vector y, as tops and kept simplex bases (see
  ``StateInvariant``); only a query none answers solves an LP.  A
  marking at most the initial one is admitted by lam = 0 without D.

* conjunction: ``make_invariant`` with several names builds one leaf
  handle per name on the net and joins them, in the given order, into an
  ``IntersectionInvariant``; ``leaves()`` reads them back.

Every invariant contains all reachable markings and is closed downward,
so it is sound for pruning a backward coverability search.  Handles are
built once per net; ``member`` is cheap to call repeatedly.
"""

from __future__ import annotations

from operator import le, mul, sub
from typing import FrozenSet, Iterable, List, NamedTuple, Optional, Sequence, Tuple, Union

from .net import Marking, MarkingLike, PetriNet
from .ratlp import Cone, FeasibilityProblem, Witness, feasible


# -- sign analysis ------------------------------------------------------------

class SignAnalysis(NamedTuple):
    """Result of the token sign fixpoint, a named tuple.

    ``possibly_marked`` holds the place indices that may ever be
    non-empty; ``always_empty`` is its complement.  ``dead`` lists,
    ascending, the transitions with an always-empty input.
    """

    possibly_marked: FrozenSet[int]
    always_empty: FrozenSet[int]
    dead: Tuple[int, ...]


def sign_analysis(net: PetriNet) -> SignAnalysis:
    """Least set of possibly-marked places closed under transition effects.

    Each pass walks the arc lists ``net._arcs`` of the transitions still
    pending.  The result is computed once per net and kept on it (nets
    are immutable), so the preprocessor and the sign invariant of the
    same net share one fixpoint.  A ``net`` that is not a ``PetriNet``
    raises ``ValueError``.
    """
    if not isinstance(net, PetriNet):
        raise ValueError(f"sign_analysis takes a PetriNet, not a {type(net).__name__}")
    if net._sign is not None:
        return net._sign
    marked = {p for p, c in enumerate(net.initial) if c}
    # A transition contributes at most once: when its inputs, the places
    # of its arcs with a nonzero pre weight, are marked, the places with
    # a nonzero post weight join the set and it is retired.  Passes
    # repeat while the set still grows; the transitions still pending
    # then have an input outside the set, so they are dead.
    pending = list(enumerate(net._arcs))
    grew = True
    while grew:
        grew = False
        remaining = []
        for entry in pending:
            for p, n, _ in entry[1]:
                if n and p not in marked:
                    remaining.append(entry)
                    break
            else:
                for p, _, o in entry[1]:
                    if o and p not in marked:
                        marked.add(p)
                        grew = True
        pending = remaining
    pm = frozenset(marked)
    net._sign = SignAnalysis(pm, frozenset(range(len(net.places))) - pm,
                             tuple([t for t, _ in pending]))
    return net._sign


# -- invariant handles ---------------------------------------------------------

class Invariant:
    """Base for membership handles; subclasses fill in ``member``."""

    kind = "abstract"

    def __init__(self, net: PetriNet) -> None:
        if not isinstance(net, PetriNet):
            raise ValueError(f"an invariant is built on a PetriNet, not a {type(net).__name__}")
        self.net = net
        self.name = self.kind

    def member(self, m: MarkingLike) -> bool:
        raise NotImplementedError

    def leaves(self) -> Tuple["Invariant", ...]:
        """The leaf handles ``member`` asks, in order: itself, or a conjunction's leaves."""
        return (self,)


def first_refusal(leaves: Sequence[Invariant], m: MarkingLike) -> int:
    """Index of the first of ``leaves``, asked in order, to reject m, else len(leaves)."""
    i = 0
    for leaf in leaves:
        if not leaf.member(m):
            return i
        i += 1
    return i


class TrivialInvariant(Invariant):
    """Admits every marking (no pruning)."""

    kind = "trivial"

    def member(self, m: MarkingLike) -> bool:
        if type(m) is not Marking or len(m) != len(self.net.places):
            self.net.marking(m)
        return True


class SignInvariant(Invariant):
    """Rejects markings with tokens on provably always-empty places.

    Membership of a marking only requires the always-empty places of
    ``sign_analysis`` to hold zero tokens.
    """

    kind = "sign"

    def __init__(self, net: PetriNet) -> None:
        super().__init__(net)
        self.analysis = sign_analysis(net)

    def member(self, m: MarkingLike) -> bool:
        return not any(map(self.net.marking(m).__getitem__, self.analysis.always_empty))


class StateInvariant(Invariant):
    """Admits markings explainable by relaxed token flow.

    A marking m passes when some non-negative rational vector of firing
    counts lam satisfies  initial + D lam >= m  component-wise, where
    column t of D is the displacement of transition t.  D is built once
    per handle, as ``system``, on the first query that needs a tableau;
    an LP passes only m - initial.  A query whose m - initial is <= 0
    and that nothing kept answers is admitted by lam = 0, the witness
    ``ratlp.feasible`` would give, without D.

    Each handle reuses its own LP answers, in the manner of a lazily
    built cutting-plane method (Kelley, 1960).  A query scans:

    * tops: an admitted query's witness lam also admits every later m
      with m <= initial + D lam.  m is integral, so it is compared with
      the floor of that top, computed in integers when first scanned;
    * bases: the final simplex basis (``ratlp.Cone``) of every solve,
      feasible or not, in solve order.  One decides each later m whose
      m - initial it settles without a pivot: by a lam, kept as a top,
      or by a Farkas vector y >= 0 with y D <= 0 and y . m > y . initial.

    Only a query none answers solves an LP, so no basis is kept twice;
    it starts warm from the newest basis, as consecutive queries of one
    search tend to differ in few places.  Cached answers equal a cold
    LP's.  ``_answer`` returns each with its evidence, lam as
    ``(den, nums)`` integers or y, and ``member`` its verdict.
    """

    kind = "state"

    def __init__(self, net: PetriNet) -> None:
        super().__init__(net)
        self._system: Optional[FeasibilityProblem] = None  # D, built on first use
        self._tops: List[list] = []  # [floor top or None until scanned, lam]
        self._bases: List[Cone] = []

    @property
    def system(self) -> FeasibilityProblem:
        """D as an LP, one row per place and one column per transition,
        stored unchecked: its entries come from the net's checked rows."""
        if self._system is None:
            net = self.net
            columns = [list(map(sub, give, need)) for need, give in zip(net.pre, net.post)]
            self._system = tuple.__new__(FeasibilityProblem, (tuple([
                tuple([column[p] for column in columns]) for p in range(len(net.places))
            ]),))
        return self._system

    def member(self, m: MarkingLike) -> bool:
        return self._answer(m)[0]

    def _answer(self, m: MarkingLike) -> Tuple[bool, Union[Witness, List[int]]]:
        """``(True, (den, nums))``, lam_t = nums[t] / den, or ``(False, y)``,
        the checked Farkas vector, as ``ratlp.feasible`` returns them.

        lam meets  initial + D lam >= m; it may be an earlier query's, from
        a top above m.  Either may be read off a kept basis.
        """
        m = self.net.marking(m)
        for entry in self._tops:
            top = entry[0]
            if top is None:
                top = entry[0] = self._floor_top(*entry[1])
            if all(map(le, m, top)):
                return True, entry[1]
        b = list(map(sub, m, self.net.initial))
        for basis in self._bases:
            answer = basis.decide(b)
            if answer is not None:
                break
        else:
            if all(v <= 0 for v in b):
                answer = True, (1, [0] * len(self.net.transitions))
            else:
                admitted, evidence, basis = feasible(
                    self.system, b, start=self._bases[-1] if self._bases else None)
                self._bases.append(basis)
                answer = admitted, evidence
        if answer[0]:
            self._tops.append([None, answer[1]])
        return answer

    def _floor_top(self, den: int, nums: List[int]) -> List[int]:
        """floor(initial + D lam), as (den * initial + D nums) // den."""
        return [(den * i + sum(map(mul, row, nums))) // den
                for i, row in zip(self.net.initial, self.system.a)]


class IntersectionInvariant(Invariant):
    """Conjunction of leaf handles on one net, asked in the given order.

    Evaluation short-circuits, so putting cheap leaves first (sign
    before state) avoids most of the expensive queries.  Only
    ``make_invariant`` builds one, from the leaves it has just made on
    ``net``, so nothing is checked again.
    """

    kind = "intersection"

    def __init__(self, net: PetriNet, leaves: Tuple[Invariant, ...]) -> None:
        self.net, self._leaves = net, leaves
        self.name = ",".join([leaf.name for leaf in leaves])

    def member(self, m: MarkingLike) -> bool:
        return first_refusal(self._leaves, m) == len(self._leaves)

    def leaves(self) -> Tuple[Invariant, ...]:
        return self._leaves


_FACTORIES = {c.kind: c for c in (TrivialInvariant, SignInvariant, StateInvariant)}
INVARIANT_KINDS = tuple(_FACTORIES)


def check_invariant_names(names: Iterable[str]) -> List[str]:
    """The names as a list; ValueError if it is empty or a name is unknown or repeated."""
    if isinstance(names, str):  # it would be read letter by letter
        raise ValueError("invariant names must be a list such as "
                         f"['sign', 'state'], not the string {names!r}")
    names = list(names)
    if not names:
        raise ValueError("empty invariant list")
    seen = set()
    for name in names:
        if not isinstance(name, str) or name not in _FACTORIES:
            kinds = ", ".join(INVARIANT_KINDS)
            raise ValueError(f"unknown invariant {name!r}; pick from {kinds}")
        if name in seen:
            raise ValueError(f"duplicate invariant name {name!r}")
        seen.add(name)
    return names


def make_invariant(net: PetriNet, names: Iterable[str]) -> Invariant:
    """Build a handle from names in {trivial, sign, state}.

    Several names mean their conjunction, tested in the given order: one
    leaf per name, built on ``net``, joined in an ``IntersectionInvariant``.
    A ``net`` that is not a ``PetriNet`` raises ``ValueError``.
    """
    names = check_invariant_names(names)
    leaves = tuple([_FACTORIES[name](net) for name in names])
    return leaves[0] if len(leaves) == 1 else IntersectionInvariant(net, leaves)
