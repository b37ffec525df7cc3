"""Problem input and output: text to and from ``Problem`` named tuples.

The native format is a small line-friendly syntax for nets plus
coverability targets, written and re-read bit-faithfully.  The MIST
``.spec`` reader, ``coverlib.mist``, shares the scanner, the text and
count readers and the errors defined here.

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
section keywords and ``in``/``out`` are reserved.  Both parsers and
``emit_native`` test a name by one rule, ``_is_ident``, in ``str`` methods:
an ASCII alphanumeric name that starts with a letter passes on the first
test.  A ``nat`` is ASCII digits only, at most 4,300 of them
(``sys.get_int_max_str_digits()``, the limit of ``int()``); a longer one
is rejected like any bad token.
Lines are those of ``str.splitlines()``, so ``\r``, ``\x0c``, ``\x85``
and U+2028 end a line as ``\n`` does, and white space is what
``str.isspace()`` accepts.  The text is read as words split at white
space and around operators; a regex scan runs only to place an error,
counting lines and columns from 1.  Both read a count glued to a name,
as in ``a*2b``, as one bad token.  Every ``target:`` section describes
one target marking (unlisted places need zero tokens); ``init:`` entries
default to zero as well.  A problem needs at least one place and one
target.  Duplicate declarations, duplicate arcs (a weight of zero
included) and negative numbers are rejected.  The ``init:`` section
may be omitted for the zero marking.
"""

from __future__ import annotations

import re
from collections import namedtuple
from typing import Dict, List, Optional, Tuple, Union

from .net import Marking, PetriNet


class Problem(namedtuple("_ProblemFields", "net targets name")):
    """A net together with the markings whose coverability is asked.

    Every public path checks the targets; the parsers and ``prune_problem``
    build one from checked parts with ``tuple.__new__``."""

    __slots__ = ()

    def __new__(cls, net: PetriNet, targets: Tuple[Marking, ...], name: str = "") -> Problem:
        targets = tuple([net.marking(m) for m in targets])
        if not targets:
            raise ValueError("a problem needs at least one target")
        return tuple.__new__(cls, (net, targets, name))

    _make = classmethod(lambda cls, fields: cls(*fields))  # _replace builds through it


class ParseError(ValueError):
    """Syntax or validation error, with 1-based source position."""

    def __init__(self, message: str, line: int, column: int) -> None:
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


# A native token is an identifier, a decimal digit with the identifier
# characters glued to it (so ``2b`` is one bad count, as it is one word),
# an operator, or one letter or digit of any script.  Every other
# character, a lone "_" too, must be white space or the scanner rejects it.
_NATIVE_TOKEN = re.compile(
    r"[A-Za-z][A-Za-z0-9_.\-]*|_[A-Za-z0-9_.\-]+|\d[A-Za-z0-9_.\-]*|>=|[:;*=]|[^\W_]|[,'+\-]")

_SECTIONS = frozenset({"places", "transitions", "init", "target"})
# The counts 1 to 99 as emit_native writes them, read without int(); _nat
# reads any other token.
_SMALL_COUNTS = {str(c): c for c in range(1, 100)}
_NATIVE_KEYWORDS = _SECTIONS | {"in", "out"}


def _text(text: Union[str, bytes]) -> str:
    """``text`` decoded from UTF-8, its comments cut; a blank one is refused."""
    if isinstance(text, bytes):
        try:
            text = text.decode("utf-8")
        except UnicodeDecodeError as exc:  # placed like a bad character
            lines = (text[:exc.start].decode("utf-8") + "?").splitlines()
            raise ParseError("not valid UTF-8", len(lines), len(lines[-1])) from None
    if "#" in text:  # a comment ends at its line's break
        text = "\n".join([line.partition("#")[0] for line in text.splitlines()])
    if not text or text.isspace():
        raise ParseError("empty input", 1, 1)
    return text


class _Tokens:
    """The tokens of one text as plain strings, followed by ``""``.

    One ``findall`` scans the whole text, for MIST or a native error: no
    alternative of a token pattern matches a ``str.splitlines()`` break,
    so these are the tokens of each line in turn.  A character the
    pattern does not match is either white space or an error.  Token
    positions are computed when asked for, which only diagnostics and
    MIST targets do, from the tokens already found.
    """

    __slots__ = ("pattern", "text", "tokens")

    def __init__(self, text: str, pattern: re.Pattern) -> None:
        self.pattern = pattern
        self.text = text
        self.tokens: List[str] = pattern.findall(text)
        if len("".join(self.tokens)) != len("".join(text.split())):
            self._reject_character()
        self.tokens.append("")  # the end marker, so lookahead needs no bounds check

    def _reject_character(self) -> None:
        """Raise for the first character that is in no token and no white space."""
        for lineno, line in enumerate(self.text.splitlines(), start=1):
            rest = self.pattern.sub(lambda m: " " * len(m.group()), line)
            bad = re.search(r"\S", rest)
            if bad:
                raise ParseError(f"unexpected character {bad.group()!r}",
                                 lineno, bad.start() + 1)

    def positions(self) -> List[Tuple[int, int]]:
        """The 1-based line and column of every token but the end marker."""
        # A line holds its tokens in order with only white space between
        # them, so ``str.find`` walks them without scanning again.
        found, k, tokens = [], 0, self.tokens
        for row, line in enumerate(self.text.splitlines(), start=1):
            pos, end = 0, len(line.rstrip())
            while pos < end:
                pos = line.find(tokens[k], pos)
                found.append((row, pos + 1))
                pos += len(tokens[k])
                k += 1
        return found

    def error(self, message: str, k: int) -> ParseError:
        """The error at token ``k``; the end marker is put at the last token."""
        return ParseError(message, *self.positions()[min(k, len(self.tokens) - 2)])


class _Words:
    """A native text split at white space and around operators.  The words
    are its tokens if the grammar accepts them all; errors are unplaced."""

    def __init__(self, text: str) -> None:
        text = text.replace(":", " : ").replace(";", " ; ").replace("*", " * ")
        self.tokens = text.replace("=", " = ").replace("> =", " >= ").split()
        self.tokens.append("")

    def error(self, message: str, k: int) -> ParseError:
        return ParseError(message, 0, 0)


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


def _expected(src: _Tokens, k: int, what: str, prefix: str = "") -> ParseError:
    text = src.tokens[k]
    if not text:
        return src.error(f"{prefix}expected {what} but the input ended", k)
    return src.error(f"{prefix}expected {what}, got {text!r}", k)


def _is_ident(text: str) -> bool:
    """Whether ``text`` matches ``[A-Za-z_][A-Za-z0-9_.-]*`` and is not ``_``."""
    if text.isalnum() and text.isascii():
        return text[0].isalpha()
    return (text.isascii() and text != "_" and (text[:1] == "_" or text[:1].isalpha())
            and text.replace("_", "a").replace(".", "a").replace("-", "a").isalnum())


def _native_ident(src: _Tokens, k: int, what: str) -> str:
    text = src.tokens[k]
    if not _is_ident(text):
        if text == "-":
            raise src.error("negative numbers are not allowed", k)
        raise src.error(f"expected {what}, got {text!r}", k)
    if text in _NATIVE_KEYWORDS:
        raise src.error(f"{text!r} is a reserved word", k)
    return text


def _not_a_count(src: _Tokens, k: int, what: str) -> ParseError:
    """The error for token ``k``, which ``_nat`` did not read as a count."""
    text = src.tokens[k]
    if not text:
        return src.error(f"expected {what} (at end of input)", k)
    if text == "-":
        return src.error("negative numbers are not allowed", k)
    return src.error(f"expected {what}, got {text!r}", k)


def _section_ends(tokens: List[str], i: int) -> bool:
    """Whether token ``i`` is the end marker or opens a section."""
    text = tokens[i]
    return not text or (text in _SECTIONS and tokens[i + 1] == ":")


def parse_native(text: Union[str, bytes], name: str = "") -> Problem:
    """Parse the native problem format; positions in errors are 1-based."""
    text = _text(text)
    try:
        return _native(_Words(text), name)
    except ParseError:  # read again by the token scanner, which places it
        return _native(_Tokens(text, _NATIVE_TOKEN), name)


def _native(src: Union[_Tokens, _Words], name: str) -> Problem:
    """The problem ``src`` spells.  Section ends and counts are tested inline;
    ``_section_ends``, ``_nat`` and ``_not_a_count`` read what those miss."""
    tokens = src.tokens
    end = len(tokens) - 1
    small_count = _SMALL_COUNTS.get
    places: Dict[str, int] = {}  # name -> column, in declaration order
    transition_seen: Dict[str, int] = {}  # name -> token index, in order
    init_counts: Dict[str, int] = {}
    specs: List[Dict[str, int]] = [init_counts]  # then each transition's in, out
    target_specs: List[Dict[str, int]] = []
    refs: List[int] = []  # token index of each use of a place not yet declared

    # A token already in ``places`` passed the identifier checks, and no
    # keyword and no ";" is a place, so it neither ends a list nor needs a
    # check.  Any other token may end the list; if it does not, it is
    # checked here and recorded in ``refs``, resolved once all is read.
    i = 0
    while i < end:
        head = tokens[i]
        if head not in _SECTIONS or tokens[i + 1] != ":":
            raise src.error(f"expected a section keyword, got {head!r}", i)
        i += 2
        if head == "places":
            while tokens[i] and (tokens[i] not in _SECTIONS or tokens[i + 1] != ":"):
                place = _native_ident(src, i, "place name")
                if place in places:
                    raise src.error(f"duplicate place {place!r}", i)
                places[place] = len(places)
                i += 1
        elif head == "transitions":
            while tokens[i] and (tokens[i] not in _SECTIONS or tokens[i + 1] != ":"):
                tname = _native_ident(src, i, "transition name")
                if tname in transition_seen:
                    raise src.error(f"duplicate transition {tname!r}", i)
                transition_seen[tname] = i
                if tokens[i + 1] != ":":
                    raise _expected(src, i + 1, "':' after transition name")
                j = i + 2
                for keyword in ("in", "out"):
                    arcs: Dict[str, int] = {}
                    specs.append(arcs)
                    if tokens[j] != keyword:
                        continue
                    j += 1
                    while True:
                        place = tokens[j]
                        if place not in places:
                            if place == ";" or place == "out" or _section_ends(tokens, j):
                                break
                            _native_ident(src, j, "place name in arc list")
                            refs.append(j)
                        step, weight = 1, 1
                        if tokens[j + 1] == "*":
                            step, weight = 3, small_count(tokens[j + 2]) or _nat(src, j + 2)
                            if weight is None:
                                raise _not_a_count(src, j + 2, "arc multiplicity")
                        if place in arcs:
                            raise src.error(f"duplicate arc for place {place!r}", j)
                        arcs[place] = weight  # a zero weight too, so a repeat is caught
                        j += step
                close = tokens[j]
                if close != ";":
                    if not close:
                        raise src.error(f"expected ';' to close transition {tname!r}", i)
                    raise src.error(
                        f"expected ';' to close transition {tname!r}, got {close!r}", j)
                i = j + 1
        else:
            op = "=" if head == "init" else ">="
            counts = init_counts if head == "init" else {}
            while True:
                place = tokens[i]
                if place not in places:
                    if _section_ends(tokens, i):
                        break
                    _native_ident(src, i, "place name")
                    refs.append(i)
                if tokens[i + 1] != op:
                    raise _expected(src, i + 1, f"'{op}' in {head} entry")
                count = small_count(tokens[i + 2]) or _nat(src, i + 2)
                if count is None:
                    raise _not_a_count(src, i + 2, "token count")
                if place in counts:
                    raise src.error(f"duplicate {head} entry for {place!r}", i)
                counts[place] = count
                i += 3
            if head == "target":
                target_specs.append(counts)

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

    # Every name, arc and count is checked above: build the net, targets
    # and problem directly, one dense row per spec in one loop, zero
    # weights dropped.  The net keeps ``places`` as its place index.
    rows = []
    for counts in specs + target_specs:
        row = [0] * len(places)
        for p, c in counts.items():
            row[places[p]] = c
        rows.append(row)
    last = len(specs)
    net = PetriNet._checked(places, list(transition_seen),
                            rows[1:last:2], rows[2:last:2], rows[0])
    targets = tuple([tuple.__new__(Marking, row) for row in rows[last:]])
    return tuple.__new__(Problem, (net, targets, name))


def emit_native(problem: Problem) -> str:
    """Serialize a problem so that parsing the text reproduces it.

    ValueError names the first place or transition name that
    ``parse_native`` would not read back as that name: a non-``str``, a
    lone ``_``, a non-identifier or a reserved word, and a ``problem``
    that is not a ``Problem`` raises it too.
    """
    if not isinstance(problem, Problem):
        raise ValueError(f"emit_native takes a Problem, not a {type(problem).__name__}")
    net = problem.net
    for kind, names in (("place", net.places), ("transition", net.transitions)):
        for name in names:
            if not isinstance(name, str) or not _is_ident(name) or name in _NATIVE_KEYWORDS:
                raise ValueError(f"the native format cannot hold the {kind} name {name!r}")
    lines = ["places: " + " ".join(net.places)]
    lines.append("transitions:")
    for t, tname in enumerate(net.transitions):
        parts = [f"{tname}:"]
        for keyword, row in (("in", net.pre[t]), ("out", net.post[t])):
            arcs = [p if w == 1 else f"{p}*{w}" for p, w in zip(net.places, row) if w]
            if arcs:
                parts += [keyword] + arcs
        lines.append(" ".join(parts) + " ;")
    init = [f"{p}={c}" for p, c in zip(net.places, net.initial) if c]
    lines.append(("init: " + " ".join(init)).rstrip())
    for m in problem.targets:
        atoms = [f"{p}>={c}" for p, c in zip(net.places, m) if c]
        lines.append(("target: " + " ".join(atoms)).rstrip())
    return "\n".join(lines) + "\n"
