"""Problem input and output.

Two text formats are supported:

* the native format, a small line-friendly syntax for nets plus
  coverability targets, written and re-read bit-faithfully;
* a subset of the MIST ``.spec`` counter-system syntax, translated to
  Petri-net arcs when (and only when) that translation is exact.

Native grammar, with ``#`` comments to end of line::

    problem  := section+
    section  := "places" ":" ident+
              | "transitions" ":" entry*
              | "init" ":" (ident "=" nat)*
              | "target" ":" (ident ">=" nat)*
    entry    := ident ":" ["in" arc*] ["out" arc*] ";"
    arc      := ident ["*" nat]
    nat      := [0-9]+

Identifiers match ``[A-Za-z_][A-Za-z0-9_.-]*`` except a lone ``_``; the
section keywords and ``in``/``out`` are reserved.  A ``nat`` is ASCII
digits only, at most 4,300 of them (``sys.get_int_max_str_digits()``,
the limit of ``int()``); a longer one is rejected like any bad token.
Lines are those of ``str.splitlines()``, so ``\r``, ``\x0c``, ``\x85``
and U+2028 end a line as ``\n`` does, and white space is what
``str.isspace()`` accepts.  Error positions count lines and columns
from 1 on those lines.  Every ``target:`` section describes one
target marking (unlisted places need zero tokens); ``init:`` entries
default to zero as well.  A problem needs at least one place and one
target.  Duplicate declarations and negative numbers are rejected.  The
``init:`` section may be omitted for the zero marking.

The MIST subset accepts the four sections ``vars``, ``rules``, ``init``
and ``target`` in that order.  Rule guards are conjunctions of
``x >= c``; updates are ``x' = x + c``, ``x' = x - c`` or ``x' = x``.
Counts are ``nat`` as above.  Each rule becomes one transition
consuming ``max(guard, decrease)`` and producing accordingly; anything
else (transfers, resets, parametric initial markings, other sections) is
rejected with a diagnostic rather than translated approximately.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Tuple, Union

from .net import Marking, PetriNet


@dataclass(frozen=True)
class Problem:
    """A net together with the markings whose coverability is asked."""

    net: PetriNet
    targets: Tuple[Marking, ...]
    name: str = ""

    def __post_init__(self) -> None:
        targets = tuple(self.net.marking(m) for m in self.targets)
        if not targets:
            raise ValueError("a problem needs at least one target")
        object.__setattr__(self, "targets", targets)


class ParseError(ValueError):
    """Syntax or validation error, with 1-based source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A token is an identifier, a run of decimal digits, an operator, or one
# letter or digit of any script.  Every other character, a lone "_" too,
# must be white space or the scanner rejects it.
_NATIVE_TOKEN = re.compile(
    r"[A-Za-z][A-Za-z0-9_.\-]*|_[A-Za-z0-9_.\-]+|\d+|>=|[:;*=]|[^\W_]|[,'+\-]")
_MIST_TOKEN = re.compile(
    r"(?:[A-Za-z][A-Za-z0-9_.\-]*|_[A-Za-z0-9_.\-]+)'?|_'|\d+|->|>=|[=,;+\-]|[^\W_]|[:*']")
_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_.\-]*\Z")

_SECTIONS = frozenset({"places", "transitions", "init", "target"})
_NATIVE_KEYWORDS = _SECTIONS | {"in", "out"}
_MIST_SECTIONS = ("vars", "rules", "init", "target")


class _Tokens:
    """The tokens of one text as plain strings, followed by ``""``.

    Each line is tokenised by one ``findall``; a character the pattern
    does not match is either white space or an error.  Only the index of
    each line's first token is kept: a token's line and column are found
    by re-scanning its line when a diagnostic needs them.
    """

    __slots__ = ("pattern", "lines", "starts", "tokens")

    def __init__(self, text: Union[str, bytes], pattern: re.Pattern) -> None:
        if isinstance(text, bytes):
            text = text.decode("utf-8")
        lines = text.splitlines()
        if "#" in text:
            lines = [line.partition("#")[0] for line in lines]
            text = "".join(lines)
        self.pattern = pattern
        self.lines = lines
        self.starts: List[int] = []
        self.tokens: List[str] = []
        starts, tokens, findall = self.starts, self.tokens, pattern.findall
        for line in lines:
            starts.append(len(tokens))
            tokens += findall(line)
        if len("".join(tokens)) != len("".join(text.split())):
            self._reject_character()
        tokens.append("")  # the end marker, so lookahead needs no bounds check

    def _reject_character(self) -> None:
        """Raise for the first character that is in no token and no white space."""
        for lineno, line in enumerate(self.lines, start=1):
            rest = self.pattern.sub(lambda m: " " * len(m.group()), line)
            bad = re.search(r"\S", rest)
            if bad:
                raise ParseError(f"unexpected character {bad.group()!r}",
                                 lineno, bad.start() + 1)

    def position(self, k: int) -> Tuple[int, int]:
        """Line and column of token ``k``; the end marker is put at the last token."""
        k = min(k, len(self.tokens) - 2)
        row = max(r for r, start in enumerate(self.starts) if start <= k)
        match = list(self.pattern.finditer(self.lines[row]))[k - self.starts[row]]
        return row + 1, match.start() + 1

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, *self.position(k))


def _nat(src: _Tokens, k: int) -> Optional[int]:
    """Token ``k`` as a count (``[0-9]+``), or None if it is not one."""
    text = src.tokens[k]
    if not (text.isdigit() and text.isascii()):
        return None
    try:
        return int(text)
    except ValueError:  # more digits than the interpreter converts
        import sys
        limit = sys.get_int_max_str_digits()
        raise src.error(f"number has {len(text)} digits; the limit is {limit}", k) from None


def _expected(src: _Tokens, k: int, what: str) -> ParseError:
    text = src.tokens[k]
    if not text:
        return src.error(f"expected {what} but the input ended", k)
    return src.error(f"expected {what}, got {text!r}", k)


def _native_ident(src: _Tokens, k: int, what: str) -> str:
    text = src.tokens[k]
    if text == "-":
        raise src.error("negative numbers are not allowed", k)
    if not _IDENT.match(text):
        raise src.error(f"expected {what}, got {text!r}", k)
    if text in _NATIVE_KEYWORDS:
        raise src.error(f"{text!r} is a reserved word", k)
    return text


def _native_nat(src: _Tokens, k: int, what: str) -> int:
    value = _nat(src, k)
    if value is None:
        text = src.tokens[k]
        if not text:
            raise src.error(f"expected {what} (at end of input)", k)
        if text == "-":
            raise src.error("negative numbers are not allowed", k)
        raise src.error(f"expected {what}, got {text!r}", k)
    return value


def _section_ends(tokens: List[str], i: int) -> bool:
    """Whether token ``i`` is the end marker or opens a section."""
    text = tokens[i]
    return not text or (text in _SECTIONS and tokens[i + 1] == ":")


def parse_native(text: Union[str, bytes], name: str = "") -> Problem:
    """Parse the native problem format; positions in errors are 1-based."""
    src = _Tokens(text, _NATIVE_TOKEN)
    tokens = src.tokens
    end = len(tokens) - 1
    if not end:
        raise ParseError("empty input", 1, 1)

    places: Dict[str, int] = {}  # name -> token index, in declaration order
    transitions: List[Tuple[str, Dict[str, int], Dict[str, int]]] = []
    transition_seen: Dict[str, int] = {}
    init_counts: Dict[str, int] = {}
    target_specs: List[Dict[str, int]] = []
    refs: List[int] = []  # token index of every place use, for diagnostics

    i = 0
    while i < end:
        head = tokens[i]
        if head not in _SECTIONS or tokens[i + 1] != ":":
            raise src.error(f"expected a section keyword, got {head!r}", i)
        i += 2
        if head == "places":
            while not _section_ends(tokens, i):
                place = _native_ident(src, i, "place name")
                if place in places:
                    raise src.error(f"duplicate place {place!r}", i)
                places[place] = i
                i += 1
        elif head == "transitions":
            while not _section_ends(tokens, i):
                entry, i = _native_transition(src, i, transition_seen, places, refs)
                transitions.append(entry)
        elif head == "init":
            i = _native_counts(src, i, "=", "init", init_counts, places, refs)
        else:
            atoms: Dict[str, int] = {}
            i = _native_counts(src, i, ">=", "target", atoms, places, refs)
            target_specs.append(atoms)

    if not places:
        raise ParseError("no places declared", 1, 1)
    if not target_specs:
        raise src.error("no target declared", end)
    for k in refs:
        if tokens[k] not in places:
            raise src.error(f"unknown place {tokens[k]!r}", k)
    for tname, k in transition_seen.items():
        if tname in places:
            raise src.error(f"{tname!r} is declared as both a place and a transition", k)

    pre_arcs: Dict[Tuple[str, str], int] = {}
    post_arcs: Dict[Tuple[str, str], int] = {}
    for tname, ins, outs in transitions:
        for p, w in ins.items():
            pre_arcs[(p, tname)] = w
        for p, w in outs.items():
            post_arcs[(tname, p)] = w

    net = PetriNet(
        places=list(places),
        transitions=[t for t, _, _ in transitions],
        pre_arcs=pre_arcs,
        post_arcs=post_arcs,
        initial=init_counts,
    )
    targets = tuple(net.marking(atoms) for atoms in target_specs)
    return Problem(net=net, targets=targets, name=name)


def _native_counts(src: _Tokens, i: int, op: str, section: str, counts: Dict[str, int],
                   places: Dict[str, int], refs: List[int]) -> int:
    """Read ``place op count`` entries from token ``i`` into ``counts``;
    returns the index of the token after the section."""
    tokens = src.tokens
    while not _section_ends(tokens, i):
        place = tokens[i]
        if place not in places:
            _native_ident(src, i, "place name")
        refs.append(i)
        if tokens[i + 1] != op:
            raise _expected(src, i + 1, f"'{op}' in {section} entry")
        count = _native_nat(src, i + 2, "token count")
        if place in counts:
            raise src.error(f"duplicate {section} entry for {place!r}", i)
        counts[place] = count
        i += 3
    return i


def _native_transition(src: _Tokens, i: int, seen: Dict[str, int],
                       places: Dict[str, int], refs: List[int]):
    tokens = src.tokens
    tname = _native_ident(src, i, "transition name")
    if tname in seen:
        raise src.error(f"duplicate transition {tname!r}", i)
    seen[tname] = i
    if tokens[i + 1] != ":":
        raise _expected(src, i + 1, "':' after transition name")
    ins, j = _native_arcs(src, i + 2, "in", places, refs)
    outs, j = _native_arcs(src, j, "out", places, refs)
    close = tokens[j]
    if close != ";":
        if not close:
            raise src.error(f"expected ';' to close transition {tname!r}", i)
        raise src.error(f"expected ';' to close transition {tname!r}, got {close!r}", j)
    return (tname, ins, outs), j + 1


def _native_arcs(src: _Tokens, i: int, keyword: str, places: Dict[str, int],
                 refs: List[int]) -> Tuple[Dict[str, int], int]:
    tokens = src.tokens
    arcs: Dict[str, int] = {}
    if tokens[i] != keyword:
        return arcs, i
    i += 1
    while not (tokens[i] in (";", "out") or _section_ends(tokens, i)):
        place = tokens[i]
        if place not in places:
            _native_ident(src, i, "place name in arc list")
        refs.append(i)
        weight = 1
        step = 1
        if tokens[i + 1] == "*":
            weight = _native_nat(src, i + 2, "arc multiplicity")
            step = 3
        if place in arcs:
            raise src.error(f"duplicate arc for place {place!r}", i)
        if weight:
            arcs[place] = weight
        i += step
    return arcs, i


def emit_native(problem: Problem) -> str:
    """Serialize a problem so that parsing the text reproduces it."""
    net = problem.net
    lines = ["places: " + " ".join(net.places)]
    lines.append("transitions:")
    for t, tname in enumerate(net.transitions):
        parts = [f"{tname}:"]
        ins = [(net.places[p], w) for p, w in enumerate(net.pre[t]) if w]
        outs = [(net.places[p], w) for p, w in enumerate(net.post[t]) if w]
        if ins:
            parts.append("in")
            parts.extend(p if w == 1 else f"{p}*{w}" for p, w in ins)
        if outs:
            parts.append("out")
            parts.extend(p if w == 1 else f"{p}*{w}" for p, w in outs)
        lines.append(" ".join(parts) + " ;")
    init = [f"{p}={c}" for p, c in zip(net.places, net.initial) if c]
    lines.append(("init: " + " ".join(init)).rstrip())
    for m in problem.targets:
        atoms = [f"{p}>={c}" for p, c in zip(net.places, m) if c]
        lines.append(("target: " + " ".join(atoms)).rstrip())
    return "\n".join(lines) + "\n"


# -- MIST subset ---------------------------------------------------------------

def parse_mist(text: Union[str, bytes], name: str = "") -> Problem:
    """Parse the supported subset of the MIST ``.spec`` format."""
    src = _Tokens(text, _MIST_TOKEN)
    tokens = src.tokens
    end = len(tokens) - 1
    if not end:
        raise ParseError("empty input", 1, 1)

    # Split into the four fixed sections.
    starts = {s: tokens.index(s) for s in _MIST_SECTIONS if s in tokens}
    if starts.get("vars") != 0:
        raise src.error("input must start with a 'vars' section", 0)
    order = sorted(starts, key=starts.get)
    if order != [s for s in _MIST_SECTIONS if s in starts]:
        raise src.error("sections must appear in the order vars, rules, init, target",
                        starts[order[-1]])
    for section in _MIST_SECTIONS:
        if section not in starts:
            raise src.error(f"missing section {section!r}", end)
    bounds = [starts[s] for s in _MIST_SECTIONS] + [end]
    spans = [(b + 1, e) for b, e in zip(bounds, bounds[1:])]

    variables = _mist_vars(src, *spans[0])
    var_index = {v: i for i, v in enumerate(variables)}
    rules = _mist_rules(src, *spans[1], var_index)
    init = _mist_init(src, *spans[2], var_index)
    targets = _mist_targets(src, *spans[3], var_index)

    taken = set(variables)
    tnames = []
    for k in range(len(rules)):
        tname = f"r{k}"
        while tname in taken:
            tname += "_"
        taken.add(tname)
        tnames.append(tname)

    pre_arcs: Dict[Tuple[str, str], int] = {}
    post_arcs: Dict[Tuple[str, str], int] = {}
    for tname, (guards, deltas) in zip(tnames, rules):
        for v, i in var_index.items():
            g = guards.get(i, 0)
            d = deltas.get(i, 0)
            need = max(g, -d) if d < 0 else g
            give = need + d
            if need:
                pre_arcs[(v, tname)] = need
            if give:
                post_arcs[(tname, v)] = give

    net = PetriNet(
        places=variables,
        transitions=tnames,
        pre_arcs=pre_arcs,
        post_arcs=post_arcs,
        initial={variables[i]: c for i, c in init.items()},
    )
    markings = tuple(
        net.marking({variables[i]: c for i, c in atoms.items()}) for atoms in targets
    )
    return Problem(net=net, targets=markings, name=name)


# The section parsers below read tokens ``i`` up to, not including, ``e``.

def _mist_vars(src: _Tokens, i: int, e: int) -> Tuple[str, ...]:
    if i == e:
        raise ParseError("no variables declared", 1, 1)
    names: Dict[str, None] = {}
    for k in range(i, e):
        text = src.tokens[k]
        if not _IDENT.match(text):
            raise src.error(f"expected a variable name, got {text!r}", k)
        if text in names:
            raise src.error(f"duplicate variable {text!r}", k)
        names[text] = None
    return tuple(names)


def _mist_var(src: _Tokens, k: int, e: int, var_index: Dict[str, int],
              what: str, allow_prime: bool = False) -> Tuple[int, bool]:
    if k >= e:
        raise ParseError(f"expected {what} but the input ended", 1, 1)
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
    if k >= e:
        raise ParseError(f"{label()}: expected a number", 1, 1)
    value = _nat(src, k)
    if value is None:
        raise src.error(f"{label()}: expected a number, got {src.tokens[k]!r}", k)
    return value


def _mist_rules(src: _Tokens, i: int, e: int, var_index: Dict[str, int]):
    tokens = src.tokens
    rules: List[Tuple[Dict[int, int], Dict[int, int]]] = []
    first = i

    def label() -> str:
        return f"rule {len(rules)} (line {src.position(first)[0]})"

    while i < e:
        first = i
        guards: Dict[int, int] = {}
        if tokens[i] == "->":
            i += 1  # guardless rule
        else:
            while True:
                var, _ = _mist_var(src, i, e, var_index, "a guard variable")
                if i + 1 >= e or tokens[i + 1] != ">=":
                    raise src.error(f"{label()}: guards must use '>='", min(i + 1, e - 1))
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
                raise src.error(f"{label()}: expected '=' in update", min(i + 1, e - 1))
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
            bad = i if op is None else i + 1
            raise src.error(f"expected '=' in init, got {tokens[bad]!r}", bad)
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
        raise ParseError("no target declared", 1, 1)
    tokens = src.tokens
    # One target marking per source line.
    cuts = [i] + sorted({s for s in src.starts if i < s < e}) + [e]
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
