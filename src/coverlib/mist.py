"""The MIST ``.spec`` reader, for a subset of the MIST counter-system
syntax, translated to Petri-net arcs when (and only when) that
translation is exact.  It shares the token scanner, the text and count
readers and the errors of ``coverlib.ingest``; identifiers, counts,
comments and lines are those of the native format, except that a ``-``
followed by a digit ends an identifier, so ``x-1`` is ``x - 1``.

The subset accepts the four sections ``vars``, ``rules``, ``init`` and
``target`` in that order; their keywords are reserved.  ``vars`` is the
first token, and each other section opens at the last of its keywords
before the next section's that starts its line, or at the last one if
none does; any other keyword is refused where it stands, before a
section is read.  Guards are conjunctions of ``x >= c``; updates are
``x' = x + c``, ``x' = x - c`` or ``x' = x``.  A count glued to a name,
as in ``x = 1y``, is one bad token.  Each rule becomes one transition
consuming ``max(guard, decrease)`` and producing accordingly; anything
else (transfers, resets, parametric initial markings, other sections)
is rejected with a diagnostic, not translated approximately.
"""

from __future__ import annotations

import re
from typing import Callable, Dict, List, Tuple, Union

from .ingest import Problem, _expected, _is_ident, _nat, _text, _Tokens
from .net import Marking, PetriNet

# A MIST token is an identifier, primed or not, a decimal digit with the
# identifier characters glued to it (so ``1y`` is one bad count, as in
# the native format), an operator, or one letter or digit of any script.
# A ``-`` followed by a digit ends an identifier: ``a-b`` is one name.
_MIST_TOKEN = re.compile(
    r"(?:[A-Za-z](?:[A-Za-z0-9_.]|-(?!\d))*|_(?:[A-Za-z0-9_.]|-(?!\d))+)'?|_'"
    r"|\d[A-Za-z0-9_.]*|->|>=|[=,;+\-]|[^\W_]|[:*']")
_MIST_SECTIONS = ("vars", "rules", "init", "target")


def parse_mist(text: Union[str, bytes], name: str = "") -> Problem:
    """Parse the supported subset of the MIST ``.spec`` format."""
    src = _Tokens(_text(text), _MIST_TOKEN)
    tokens = src.tokens
    end = len(tokens) - 1

    # Split into the four fixed sections.  "vars" is the first token, and
    # each other section starts at the last of its keywords before the
    # next section's, found from the end, that starts its line; at the
    # last one if none does.  The keywords are reserved, so any other one
    # is refused where it stands.
    if tokens[0] != "vars":
        raise src.error("input must start with a 'vars' section", 0)
    bounds = [end]
    rows = None  # each token's line, read only if a keyword repeats
    for section in ("target", "init", "rules"):
        found = [k for k in range(bounds[0] - 1, 0, -1) if tokens[k] == section]
        k = found[0] if found else 0
        if len(found) > 1:
            rows = rows or [row for row, _ in src.positions()]
            k = next((j for j in found if rows[j] != rows[j - 1]), k)
        if not k:  # out of order or missing: the first of each keyword says which
            starts = {s: tokens.index(s) for s in _MIST_SECTIONS if s in tokens}
            order = sorted(starts, key=starts.get)
            if order != [s for s in _MIST_SECTIONS if s in starts]:
                raise src.error("sections must appear in the order vars, rules, init, target",
                                starts[order[-1]])
            missing = next(s for s in _MIST_SECTIONS if s not in starts)
            raise src.error(f"missing section {missing!r}", end)
        bounds.insert(0, k)
    bounds.insert(0, 0)
    for k, word in enumerate(tokens):
        if word in _MIST_SECTIONS and k not in bounds:
            raise src.error(f"{word!r} is a reserved word", k)
    spans = [(b + 1, e) for b, e in zip(bounds, bounds[1:])]

    variables = _mist_vars(src, *spans[0])
    var_index = {v: i for i, v in enumerate(variables)}
    rules = _mist_rules(src, *spans[1], var_index)
    init = _mist_init(src, *spans[2], var_index)
    targets = _mist_targets(src, *spans[3], var_index)

    taken, tnames = set(variables), []
    for k in range(len(rules)):
        tname = f"r{k}"
        while tname in taken:
            tname += "_"
        taken.add(tname)
        tnames.append(tname)

    # Names, counts and the guard cover of every decrease are checked
    # above, so each rule's arcs are non-negative: build the net, the
    # targets and the problem directly, with ``var_index`` as the place index.
    columns = range(len(variables))
    pre = [[max(g.get(i, 0), -d.get(i, 0)) for i in columns] for g, d in rules]
    post = [[n + d.get(i, 0) for i, n in enumerate(need)] for need, (_, d) in zip(pre, rules)]
    initial = [init.get(i, 0) for i in columns]
    net = PetriNet._checked(var_index, tnames, pre, post, initial)
    markings = tuple([tuple.__new__(Marking, [atoms.get(i, 0) for i in columns])
                      for atoms in targets])
    return tuple.__new__(Problem, (net, markings, name))


# The section parsers below read tokens ``i`` up to, not including, ``e``:
# the keyword of the next section, or the end marker.  What a section
# lacks at its end is reported at token ``e``.

def _mist_vars(src: _Tokens, i: int, e: int) -> Tuple[str, ...]:
    if i == e:
        raise src.error("no variables declared", i - 1)
    names: Dict[str, None] = {}
    for k in range(i, e):
        text = src.tokens[k]
        if not _is_ident(text):
            raise src.error(f"expected a variable name, got {text!r}", k)
        if text in names:
            raise src.error(f"duplicate variable {text!r}", k)
        names[text] = None
    return tuple(names)


def _mist_var(src: _Tokens, k: int, e: int, var_index: Dict[str, int],
              what: str, allow_prime: bool = False) -> Tuple[int, bool]:
    if k >= e:
        raise _expected(src, e, what)
    text = src.tokens[k]
    primed = text.endswith("'")
    if primed and not allow_prime:
        raise src.error(f"unexpected primed variable {text!r}", k)
    if primed:
        text = text[:-1]
    if text not in var_index:
        raise src.error(f"unknown variable {text!r}", k)
    return var_index[text], primed


def _mist_nat(src: _Tokens, k: int, e: int, label: Callable[[], str]) -> int:
    value = _nat(src, k) if k < e else None
    if value is None:
        raise _expected(src, min(k, e), "a number", f"{label()}: ")
    return value


def _mist_rules(src: _Tokens, i: int, e: int, var_index: Dict[str, int]):
    tokens = src.tokens
    rules: List[Tuple[Dict[int, int], Dict[int, int]]] = []
    first = i

    def label() -> str:
        return f"rule {len(rules)} (line {src.positions()[first][0]})"

    while i < e:
        first = i
        guards: Dict[int, int] = {}
        if tokens[i] == "->":
            i += 1  # guardless rule
        else:
            while True:
                var, _ = _mist_var(src, i, e, var_index, "a guard variable")
                if i + 1 >= e or tokens[i + 1] != ">=":
                    raise src.error(f"{label()}: guards must use '>='", min(i + 1, e))
                bound = _mist_nat(src, i + 2, e, label)
                guards[var] = max(guards.get(var, 0), bound)
                if i + 3 >= e:
                    raise src.error(f"{label()}: unterminated rule", i)
                sep = tokens[i + 3]
                if sep != "->" and sep != ",":
                    raise src.error(f"{label()}: expected ',' or '->', got {sep!r}", i + 3)
                i += 4
                if sep == "->":
                    break
        deltas: Dict[int, int] = {}
        while True:
            if i < e and tokens[i] == ";":
                i += 1
                break
            var, primed = _mist_var(src, i, e, var_index, "an update variable",
                                    allow_prime=True)
            target = tokens[i]
            if not primed:
                raise src.error(
                    f"{label()}: update target must be primed, got {target!r}", i)
            if var in deltas:
                raise src.error(f"{label()}: variable updated twice", i)
            if i + 1 >= e or tokens[i + 1] != "=":
                raise src.error(f"{label()}: expected '=' in update", min(i + 1, e))
            if i + 2 >= e:
                raise src.error(f"{label()}: unterminated update", i + 1)
            source = tokens[i + 2]
            if source.isdigit() and source.isascii():
                raise src.error(
                    f"{label()}: reset updates are not expressible as Petri-net arcs", i + 2)
            if _mist_var(src, i + 2, e, var_index, "the update source")[0] != var:
                raise src.error(
                    f"{label()}: update of {target!r} from {source!r} is not "
                    "expressible as Petri-net arcs", i + 2)
            j = i + 3
            delta = 0
            if j < e and tokens[j] in ("+", "-"):
                step = _mist_nat(src, j + 1, e, label)
                delta = step if tokens[j] == "+" else -step
                j += 2
            deltas[var] = delta
            if j >= e:
                raise src.error(f"{label()}: unterminated rule", i)
            sep = tokens[j]
            if sep != ";" and sep != ",":
                raise src.error(f"{label()}: expected ',' or ';', got {sep!r}", j)
            i = j + 1
            if sep == ";":
                break
        for var, delta in deltas.items():
            if delta < 0 and guards.get(var, 0) < -delta:
                raise src.error(
                    f"{label()}: decrease of {-delta} is not covered by the guard, "
                    "so the rule is not expressible as Petri-net arcs", first)
        rules.append((guards, deltas))
    return rules


def _mist_init(src: _Tokens, i: int, e: int, var_index: Dict[str, int]) -> Dict[int, int]:
    tokens = src.tokens
    counts: Dict[int, int] = {}
    while i < e:
        var, _ = _mist_var(src, i, e, var_index, "an init variable")
        op = tokens[i + 1] if i + 1 < e else None
        if op == ">=":
            raise src.error("parametric initial marking unsupported", i + 1)
        if op != "=":
            raise _expected(src, min(i + 1, e), "'=' in init")
        count = _mist_nat(src, i + 2, e, lambda: "init")
        if var in counts:
            raise src.error(f"duplicate init entry for {tokens[i]!r}", i)
        counts[var] = count
        i += 3
        if i < e and tokens[i] == ",":
            i += 1
    return counts


def _mist_targets(src: _Tokens, i: int, e: int, var_index: Dict[str, int]):
    if i == e:
        raise src.error("no target declared", i - 1)
    tokens = src.tokens
    # One target marking per source line.
    rows = [row for row, _ in src.positions()]
    cuts = [i] + [k for k in range(i + 1, e) if rows[k] != rows[k - 1]] + [e]
    targets = []
    for k, stop in zip(cuts, cuts[1:]):
        atoms: Dict[int, int] = {}
        while k < stop:
            if tokens[k] == ",":
                k += 1
                continue
            var, _ = _mist_var(src, k, stop, var_index, "a target variable")
            if k + 1 >= stop or tokens[k + 1] != ">=":
                raise src.error("targets must use '>='", min(k + 1, stop - 1))
            bound = _mist_nat(src, k + 2, stop, lambda: "target")
            atoms[var] = max(atoms.get(var, 0), bound)
            k += 3
        targets.append(atoms)
    return targets
