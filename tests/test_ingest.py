from __future__ import annotations

import json
import pathlib
import random
import string

import pytest

import coverlib.mist
from coverlib import (
    Marking,
    ParseError,
    PetriNet,
    Problem,
    emit_native,
    parse_mist,
    parse_native,
)

from conftest import PUMP_TEXT, make_pump_net
from corpus import CORPUS_SEED, CORPUS_SIZE, random_instances, random_net, random_target
from oracles import IDENT, assert_problem_equals_checked_build, read_as_the_scanner_reads


# -- native format ----------------------------------------------------------

def test_parse_pump(pump_net):
    problem = parse_native(PUMP_TEXT, name="pump")
    assert problem.net == pump_net
    # the net keeps the parser's name -> column dict as its place index
    assert problem.net._place_index == pump_net._place_index
    assert problem.targets == (Marking((0, 2, 1)), Marking((2, 0, 0)))
    assert problem.name == "pump"


def test_parse_accepts_bytes():
    assert parse_native(PUMP_TEXT.encode()).net == make_pump_net()


def test_parse_rejects_bytes_that_are_not_utf8():
    # The bad byte is placed like a bad character: its column counts the
    # characters before it on its line, a two-byte letter as one.
    assert_rejections(parse_native, [
        (b"places: a\xff b\n", "not valid UTF-8", 1, 10),
        (b"places: a\r\ntarget: \xc3\xa9 \xc3 >= 1\n", "not valid UTF-8", 2, 11),
    ])


def test_init_section_optional():
    p = parse_native("places: a b\ntransitions:\ntarget: b>=1\n")
    assert p.net.initial == Marking((0, 0))


def test_default_arc_weight_is_one_and_zero_weights_drop():
    p = parse_native(
        "places: a b\n"
        "transitions:\n"
        "t: in a*0 b out a*2 ;\n"
        "target: a>=1\n"
    )
    t = p.net.transition_index("t")
    assert p.net.pre[t] == (0, 1)
    assert p.net.post[t] == (2, 0)


def test_transition_without_arcs():
    p = parse_native("places: a\ntransitions:\nt: ;\ntarget: a>=1\n")
    assert p.net.pre == ((0,),)
    assert p.net.post == ((0,),)


def test_each_target_section_is_one_marking():
    text = (
        "places: a b\n"
        "transitions:\n"
        "target: a>=1\n"
        "   b>=2\n"       # continuation of the same marking
        "target: b>=3\n"
    )
    p = parse_native(text)
    assert p.targets == (Marking((1, 2)), Marking((0, 3)))


def test_comments_and_blank_lines_ignored():
    text = "# heading\nplaces: a # trailing\n\ntransitions:\ntarget: a>=1\n"
    assert parse_native(text).net.places == ("a",)
    # A comment inside a transition entry ends at the line break, and
    # no-break spaces separate tokens like spaces.
    p = parse_native("places: a\xa0b\ntransitions:\nt: in a # ; out a\n"
                     "  out b ;\ntarget: b>=1\n")
    assert p.net.places == ("a", "b")
    assert p.net.pre == ((1, 0),) and p.net.post == ((0, 1),)


# Every line break of str.splitlines(), "\r\n" included.
LINE_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
               "\x85", "\u2028", "\u2029"]


def test_a_comment_ends_at_every_line_break():
    for brk in LINE_BREAKS:
        assert ("x" + brk + "y").splitlines() == ["x", "y"], repr(brk)
        text = f"places: a # note{brk}b\ntransitions:\ntarget: b>=1\n"
        assert parse_native(text).net.places == ("a", "b"), repr(brk)
        assert_rejections(parse_native, [
            (f"places: a # note{brk}b @\ntarget: a>=1\n", "unexpected character '@'", 2, 3),
            (f"places: a # note{brk}b\ntarget: c>=1\n", "unknown place 'c'", 3, 9),
        ])


def test_places_may_be_declared_last():
    body = ("transitions:\n"
            "t: in a*0 b out a*2 ;\n"
            "u: in b c*3 out c ;\n"
            "init: a=1 b=2\n"
            "target: c>=1\n"
            "target: a>=2 b>=1\n")
    first = parse_native("places: a b c\n" + body)
    last = parse_native(body + "places: a b c\n")
    assert last.net == first.net and last.targets == first.targets
    assert last.net.pre == ((0, 1, 0), (0, 1, 3))
    assert last.targets == (Marking((0, 0, 1)), Marking((2, 1, 0)))
    # an undeclared name is reported at its first use, not at a later one
    assert_rejections(parse_native, [
        ("transitions:\nt: in a zz ;\ninit: zz=1\ntarget: a>=1\nplaces: a\n",
         "unknown place 'zz'", 2, 9),
    ])


def assert_same_build(parsed: PetriNet, built: PetriNet) -> None:
    """``parsed`` stores what the public constructor stored for ``built``."""
    assert parsed == built
    assert parsed._arcs == built._arcs
    assert parsed._place_index == built._place_index
    assert parsed._transition_index == built._transition_index
    assert type(parsed.initial) is Marking
    assert all(type(row) is tuple for row in parsed.pre + parsed.post)


def test_parser_builds_the_constructors_net():
    """Every net of the acceptance corpus, written out and read back, is
    stored as the constructor stored it, and every target is a Marking."""
    for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE):
        second = net.marking([c + 1 for c in target])
        problem = parse_native(emit_native(Problem(net, (target, second), name)))
        assert_same_build(problem.net, net)
        assert problem.targets == (target, second), name
        assert all(type(m) is Marking for m in problem.targets), name


def test_parser_builds_the_constructors_net_from_any_order():
    """Places declared last and in another order, zero weights and a
    transition without arcs build what the constructor builds."""
    text = ("transitions:\n"
            "t: in a*0 b out a*2 ;\n"
            "idle: ;\n"
            "u: in b c*3 out c b*0 ;\n"
            "init: b=2\n"
            "target: c>=1\n"
            "places: c a b\n")
    built = PetriNet(["c", "a", "b"], ["t", "idle", "u"],
                     {("b", "t"): 1, ("b", "u"): 1, ("c", "u"): 3},
                     {("t", "a"): 2, ("u", "c"): 1}, {"b": 2})
    problem = parse_native(text)
    assert_same_build(problem.net, built)
    assert problem.net._arcs == ([(1, 0, 2), (2, 1, 0)], [], [(0, 3, 1), (2, 1, 0)])
    assert problem.targets == (Marking((1, 0, 0)),)
    assert type(problem.targets[0]) is Marking


def error_of(text, fmt=parse_native):
    with pytest.raises(ParseError) as info:
        fmt(text)
    return info.value


def test_native_diagnostics_are_positioned():
    err = error_of("places: a\ntransitions:\nt: in bogus ;\ntarget: a>=1\n")
    assert "unknown place 'bogus'" in str(err)
    assert (err.line, err.column) == (3, 7)


# (input, message, line, column): each diagnostic is pinned to its position.
NATIVE_REJECTIONS = [
    ("places:\ntransitions:\ntarget:\n", "no places declared", 1, 1),
    ("places: a\ntransitions:\n", "no target declared", 2, 12),
    ("", "empty input", 1, 1),
    ("# only a comment\n  \n", "empty input", 1, 1),
    ("places: a a\ntarget: a>=1\n", "duplicate place 'a'", 1, 11),
    ("places: a\ntransitions:\nt: ;\nt: ;\ntarget: a>=1\n",
     "duplicate transition 't'", 4, 1),
    ("places: a\ntransitions:\na: ;\ntarget: a>=1\n",
     "'a' is declared as both a place and a transition", 3, 1),
    ("places: a\ntransitions:\nt: in a a*2 ;\ntarget: a>=1\n",
     "duplicate arc for place 'a'", 3, 9),
    # A zero weight drops the arc from the net, not from the duplicate check.
    ("places: a\ntransitions:\nt: in a*0 a ;\ntarget: a>=1\n",
     "duplicate arc for place 'a'", 3, 11),
    ("places: a\ntransitions:\nt: out a*0 a*3 ;\ntarget: a>=1\n",
     "duplicate arc for place 'a'", 3, 12),
    ("transitions:\nt: in a*0 a ;\nplaces: a\ntarget: a>=1\n",
     "duplicate arc for place 'a'", 2, 11),
    ("places: a\ntransitions:\ninit: a=1 a=2\ntarget: a>=1\n",
     "duplicate init entry for 'a'", 3, 11),
    ("places: a\ntransitions:\ntarget: a>=1 a>=2\n",
     "duplicate target entry for 'a'", 3, 14),
    ("places: a\ntransitions:\ninit: a=-1\ntarget: a>=1\n",
     "negative numbers are not allowed", 3, 9),
    ("places: a\ntransitions:\nt: in a*-2 ;\ntarget: a>=1\n",
     "negative numbers are not allowed", 3, 9),
    ("places: target\ntransitions:\ntarget: target>=1\n",
     "'target' is a reserved word", 1, 9),
    ("places: a\ntransitions:\nt: out a in a ;\ntarget: a>=1\n",
     "'in' is a reserved word", 3, 10),
    ("places: a\ntransitions:\nt: in a\ntarget: a>=1\n",
     "expected ';' to close transition 't', got 'target'", 4, 1),
    # At the end of the input, on the transition's own name.
    ("places: a\ntarget: a>=1\ntransitions:\nt: in a",
     "expected ';' to close transition 't'", 4, 1),
    ("places: a\ntransitions:\nt in a ;\ntarget: a>=1\n",
     "expected ':' after transition name, got 'in'", 3, 3),
    ("places: a\ntransitions:\ninit: b=1\ntarget: a>=1\n", "unknown place 'b'", 3, 7),
    ("places: a@\ntransitions:\ntarget: a>=1\n", "unexpected character '@'", 1, 10),
    ("places: a _\ntarget: a>=1\n", "unexpected character '_'", 1, 11),
    ("platzes: a\ntarget: a>=1\n", "expected a section keyword, got 'platzes'", 1, 1),
    ("places: a\ntarget: a 1\n", "expected '>=' in target entry, got '1'", 2, 11),
    ("places: a\ntarget: a>=\n", "expected token count (at end of input)", 2, 10),
    ("places: a\ninit: a=x\ntarget: a>=1\n", "expected token count, got 'x'", 2, 9),
    ("places: a\ntransitions:\nt: in a*x ;\ntarget: a>=1\n",
     "expected arc multiplicity, got 'x'", 3, 9),
    # A count glued to a name is one bad count, not a count and a name.
    ("places: a b\ntransitions:\nt: in a*2b ;\ntarget: a>=1\n",
     "expected arc multiplicity, got '2b'", 3, 9),
    ("places: a b\ninit: a=1b\ntarget: a>=1\n", "expected token count, got '1b'", 2, 9),
    # Line breaks are those of str.splitlines().
    ("places: a\r\ntransitions:\r\nt: in zz ;\r\ntarget: a>=1\r\n",
     "unknown place 'zz'", 3, 7),
    ("places: a\rtransitions:\rt: in zz ;\rtarget: a>=1\r", "unknown place 'zz'", 3, 7),
    ("places: a\x0ctransitions:\x0ct: in zz ;\x0ctarget: a>=1\n",
     "unknown place 'zz'", 3, 7),
    ("places: a\x85transitions:\x85t: in zz ;\x85target: a>=1\n",
     "unknown place 'zz'", 3, 7),
    ("places: a\u2028transitions:\u2028t: in zz ;\u2028target: a>=1\n",
     "unknown place 'zz'", 3, 7),
    ("places: a\n\rtransitions:\r\n\rt: in zz ;\ntarget: a>=1\n",
     "unknown place 'zz'", 5, 7),
    ("places: a b\ntransitions:\nt: in a # ; out b\n  out zz ;\ntarget: b>=1\n",
     "unknown place 'zz'", 4, 7),
    ("places:\xa0a\ntransitions:\nt:\xa0in\xa0zz ;\ntarget: a>=1\n",
     "unknown place 'zz'", 3, 7),
    ("\ufeffplaces: a\ntarget: a>=1\n", "unexpected character '\\ufeff'", 1, 1),
]


def assert_rejections(parse, table):
    for text, message, line, column in table:
        with pytest.raises(ParseError) as info:
            parse(text)
        err = info.value
        assert (str(err), err.line, err.column) == (
            f"line {line}, column {column}: {message}", line, column), text[:200]


def test_native_rejections():
    assert_rejections(parse_native, NATIVE_REJECTIONS)


def test_emit_round_trip_pump(pump_problem):
    text = emit_native(pump_problem)
    again = parse_native(text, name=pump_problem.name)
    assert again.net == pump_problem.net
    assert again.targets == pump_problem.targets
    assert again.name == pump_problem.name


def test_emit_round_trip_no_transitions():
    net = PetriNet(["a", "b"], [], initial={"b": 3})
    problem = Problem(net=net, targets=(Marking((0, 0)), Marking((1, 2))))
    again = parse_native(emit_native(problem))
    assert again.net == net and again.targets == problem.targets


def test_emit_round_trip_random():
    rng = random.Random(909)
    for _ in range(150):
        net = random_net(rng)
        targets = tuple(random_target(rng, net)
                        for _ in range(rng.randint(1, 3)))
        problem = Problem(net=net, targets=targets, name="rt")
        again = parse_native(emit_native(problem), name="rt")
        assert again.net == net
        assert again.targets == targets


@pytest.mark.parametrize("places, transitions, bad", [
    (("a b", "c"), (), "place name 'a b'"),
    (("x", "in"), (), "place name 'in'"),
    (("x", "_"), (), "place name '_'"),
    (("x", 7), (), "place name 7"),
    (("x",), ("t", "target"), "transition name 'target'"),
    (("x",), ("2t",), "transition name '2t'"),
])
def test_emit_refuses_names_it_cannot_read_back(places, transitions, bad):
    net = PetriNet(places, transitions)
    with pytest.raises(ValueError, match=f"^the native format cannot hold the {bad}$"):
        emit_native(Problem(net=net, targets=((),)))


# The native reserved words, with IDENT the oracle of ``ingest._is_ident``.
RESERVED = {"places", "transitions", "init", "target", "in", "out"}
# ASCII letters, digits and the three name marks; letters and digits of
# other scripts, some of which lower-case to ASCII (U+017F, U+0130 and
# the Kelvin sign U+212A); operators and other punctuation.
NAME_ALPHABET = (string.ascii_letters + string.digits + "_.-"
                 + "\u00e9\u00df\u017f\u0130\u212a\u00b2\u0663" + ":;*=>,'+#@ ")


def test_identifier_rule_agrees_with_the_regex():
    """``_is_ident`` accepts exactly what the regex matches, on every
    string up to two characters and on 100,000 seeded random strings of
    length 0-6; ``emit_native`` refuses a name exactly when the regex
    fails or the name is reserved."""
    from coverlib.ingest import _is_ident

    rng = random.Random(2016)
    texts = ["", *NAME_ALPHABET, *sorted(RESERVED)]
    texts += [a + b for a in NAME_ALPHABET for b in NAME_ALPHABET]
    texts += ["".join(rng.choices(NAME_ALPHABET, k=rng.randint(0, 6)))
              for _ in range(100_000)]
    accepted = 0
    for text in texts:
        expected = IDENT.match(text) is not None
        assert _is_ident(text) is expected, text
        accepted += expected
    assert 0.2 < accepted / len(texts) < 0.8
    for text in texts[:1000] + texts[-2000:]:
        problem = Problem(PetriNet([text], ()), ((0,),))
        legal = IDENT.match(text) is not None and text not in RESERVED
        try:
            emit_native(problem)
        except ValueError as err:
            assert not legal and str(err) == (
                f"the native format cannot hold the place name {text!r}"), text
        else:
            assert legal, text


def test_problem_needs_targets(pump_net):
    with pytest.raises(ValueError):
        Problem(net=pump_net, targets=())


# -- MIST subset --------------------------------------------------------------

TOKEN_PASS = """\
vars
  x1 x2
rules
  x1 >= 1 ->
    x1' = x1 - 1,
    x2' = x2 + 1;
init
  x1 = 1, x2 = 0
target
  x2 >= 1
"""


def test_mist_token_passing():
    p = parse_mist(TOKEN_PASS, name="pass")
    assert p.net.places == ("x1", "x2")
    assert p.net.transitions == ("r0",)
    assert p.net.pre[0] == (1, 0)
    assert p.net.post[0] == (0, 1)
    assert p.net.initial == Marking((1, 0))
    assert p.targets == (Marking((0, 1)),)
    assert p.net._place_index == {"x1": 0, "x2": 1}
    # and the translation survives the native round trip
    again = parse_native(emit_native(p), name="pass")
    assert again.net == p.net and again.targets == p.targets


def test_mist_guard_exceeding_decrease():
    text = (
        "vars\n x\n"
        "rules\n x >= 3 -> x' = x - 1;\n"
        "init\n x = 0\n"
        "target\n x >= 1\n"
    )
    p = parse_mist(text)
    assert p.net.pre[0] == (3,)
    assert p.net.post[0] == (2,)  # keeps the two unconsumed guard tokens


def test_mist_pure_increase_and_noop():
    text = (
        "vars\n x y\n"
        "rules\n"
        " x >= 2 -> y' = y + 3;\n"
        " -> x' = x;\n"
        "init\n x = 2\n"
        "target\n y >= 3\n"
    )
    p = parse_mist(text)
    assert p.net.pre[0] == (2, 0) and p.net.post[0] == (2, 3)
    assert p.net.pre[1] == (0, 0) and p.net.post[1] == (0, 0)


def test_mist_guardless_rule_fires_freely():
    text = "vars\n x\nrules\n -> x' = x + 1;\ninit\n x = 0\ntarget\n x >= 2\n"
    p = parse_mist(text)
    assert p.net.pre[0] == (0,) and p.net.post[0] == (1,)


def test_mist_repeated_guard_takes_max():
    text = "vars\n x\nrules\n x >= 1, x >= 2 -> x' = x - 2;\ninit\n x = 2\ntarget\n x >= 1\n"
    p = parse_mist(text)
    assert p.net.pre[0] == (2,)
    assert p.net.post[0] == (0,)


def test_mist_target_lines_and_commas():
    text = (
        "vars\n x y\n"
        "rules\n -> x' = x;\n"
        "init\n x = 0\n"
        "target\n x >= 1, y >= 2\n y >= 5\n"
    )
    p = parse_mist(text)
    assert p.targets == (Marking((1, 2)), Marking((0, 5)))


class _CountedPattern:
    """A compiled pattern whose every method call counts as one scan."""

    def __init__(self, pattern):
        self.pattern, self.scans = pattern, 0

    def __getattr__(self, name):
        method = getattr(self.pattern, name)

        def counted(*args, **kwargs):
            self.scans += 1
            return method(*args, **kwargs)
        return counted


def test_mist_targets_need_no_second_scan(monkeypatch):
    """The target lines are cut at the tokens the one whole-text scan
    found; no line is run through the pattern again."""
    counted = _CountedPattern(coverlib.mist._MIST_TOKEN)
    monkeypatch.setattr(coverlib.mist, "_MIST_TOKEN", counted)
    text = (
        "vars\n x y\n"
        "rules\n -> x' = x;\n"
        "init\n x = 0\n"
        "target\n x >= 1, y >= 2\n\n  y   >= 5  \n x >= 3,\ty >= 1\n"
    )
    p = parse_mist(text)
    assert counted.scans == 1
    assert p.targets == (Marking((1, 2)), Marking((0, 5)), Marking((3, 1)))


def test_mist_count_may_touch_an_arrow():
    """A count glued to a name is one bad token, but a count glued to
    ``->`` is still a count and an arrow."""
    p = parse_mist("vars\n x y\nrules\n x >= 1->x' = x - 1,y' = y+2;\n"
                   "init\n x = 1\ntarget\n y >= 2\n")
    assert (p.net.pre, p.net.post) == (((1, 0),), ((0, 2),))


@pytest.mark.parametrize("glued, spaced", [
    ("x >= 1 -> x' = x+1;", "x >= 1 -> x' = x + 1;"),
    ("x >= 1 -> x' = x-1;", "x >= 1 -> x' = x - 1;"),
    ("x >= 2 -> x' = x-2,y' = y+3;", "x >= 2 -> x' = x - 2, y' = y + 3;"),
    ("a-b >= 1 -> a-b' = a-b-1, x' = x+1;", "a-b >= 1 -> a-b' = a-b - 1, x' = x + 1;"),
])
def test_mist_updates_need_no_spaces(glued, spaced):
    """``x-1`` reads as ``x - 1``, as ``x+1`` reads as ``x + 1``: a ``-``
    followed by a digit ends a name, any other ``-`` stays in it."""
    head = "vars\n x y a-b\nrules\n "
    tail = "\ninit\n x = 2\ntarget\n y >= 1\n"
    p = parse_mist(head + glued + tail)
    assert p == parse_mist(head + spaced + tail)
    assert p.net.places == ("x", "y", "a-b")


def test_mist_transition_names_avoid_variables():
    text = "vars\n r0\nrules\n r0 >= 1 -> r0' = r0 - 1;\ninit\n r0 = 1\ntarget\n r0 >= 1\n"
    p = parse_mist(text)
    assert p.net.transitions == ("r0_",)


HEAD = "vars\n x y\nrules\n"
TAIL = "init\n x = 1\ntarget\n x >= 1\n"
NOOP = "vars\n x\nrules\n -> x' = x;\ninit\n"
MIST_REJECTIONS = [
    (HEAD + " x >= 1 -> x' = 3;\n" + TAIL,
     "rule 0 (line 4): reset updates are not expressible as Petri-net arcs", 4, 17),
    (HEAD + " x >= 1 -> x' = y;\n" + TAIL,
     "rule 0 (line 4): update of \"x'\" from 'y' is not expressible as Petri-net arcs",
     4, 17),
    (HEAD + " x >= 1 -> x' = x - 2;\n" + TAIL,
     "rule 0 (line 4): decrease of 2 is not covered by the guard, so the rule is "
     "not expressible as Petri-net arcs", 4, 2),
    (HEAD + " -> x' = x + 1, x' = x + 2;\n" + TAIL,
     "rule 0 (line 4): variable updated twice", 4, 17),
    (HEAD + " -> x = x + 1;\n" + TAIL,
     "rule 0 (line 4): update target must be primed, got 'x'", 4, 5),
    (HEAD + " z >= 1 -> x' = x;\n" + TAIL, "unknown variable 'z'", 4, 2),
    (HEAD + " x >= 1 -> x' = x'\n;" + TAIL, "unexpected primed variable \"x'\"", 4, 17),
    (HEAD + " x = 1 -> x' = x;\n" + TAIL, "rule 0 (line 4): guards must use '>='", 4, 4),
    (HEAD + " x >= 1 x' = x;\n" + TAIL,
     "rule 0 (line 4): expected ',' or '->', got \"x'\"", 4, 9),
    (HEAD + " x >= 1 -> x' = x + 1\n" + TAIL, "rule 0 (line 4): unterminated rule", 4, 12),
    (HEAD + " -> x' = x;\n -> y' = y - q;\n" + TAIL,
     "rule 1 (line 5): expected a number, got 'q'", 5, 14),
    (NOOP + " x >= 1\ntarget\n x >= 1\n", "parametric initial marking unsupported", 6, 4),
    (NOOP + " x 1\ntarget\n x >= 1\n", "expected '=' in init, got '1'", 6, 4),
    (NOOP + " x = 1, x = 2\ntarget\n x >= 1\n", "duplicate init entry for 'x'", 6, 9),
    ("vars\n x x\nrules\n" + TAIL, "duplicate variable 'x'", 2, 4),
    ("vars\nrules\n" + TAIL, "no variables declared", 1, 1),
    ("vars\n 1x\nrules\n" + TAIL, "expected a variable name, got '1x'", 2, 2),
    ("vars\n x-1\nrules\n" + TAIL, "expected a variable name, got '-'", 2, 3),
    # A count glued to a name is one bad token, as in the native format.
    (NOOP + " x = 1y = 2\ntarget\n x >= 1\n", "init: expected a number, got '1y'", 6, 6),
    (NOOP + " x = 1\ntarget\n x >= 1y >= 2\n", "target: expected a number, got '1y'",
     8, 7),
    (NOOP + " x = 1\n", "missing section 'target'", 6, 6),
    ("rules\n -> x' = x;\n", "input must start with a 'vars' section", 1, 1),
    ("", "empty input", 1, 1),
    ("vars\n x\ninit\n x = 1\nrules\n -> x' = x;\ntarget\n x >= 1\n",
     "sections must appear in the order vars, rules, init, target", 7, 1),
    (NOOP + " x = 1\ntarget\n x = 1\n", "targets must use '>='", 8, 4),
    (NOOP + " x = 1\ntarget\n", "no target declared", 7, 1),
    (NOOP + " x = 1\ntarget\n x' >= 1\n", "unexpected primed variable \"x'\"", 8, 2),
    (NOOP + " x = 1\ntarget\n x >=\n",
     "target: expected a number but the input ended", 8, 4),
    (NOOP + " x = 1\ntarget\n x >= 1\n x >= y\n", "target: expected a number, got 'y'",
     9, 7),
    (NOOP + " x = 1\ntarget\n x >= 1 @\n", "unexpected character '@'", 8, 9),
    # What a section lacks at its end is reported at the next section's
    # keyword, and an empty section at its own.
    ("vars\n x\nrules\n x >=\n" + TAIL,
     "rule 0 (line 4): expected a number, got 'init'", 5, 1),
    ("vars\n x\nrules\n x >= 1 ->\n" + TAIL,
     "expected an update variable, got 'init'", 5, 1),
    ("vars\n x\nrules\n x\n" + TAIL, "rule 0 (line 4): guards must use '>='", 5, 1),
    ("vars\n x\nrules\n x >= 1\n" + TAIL, "rule 0 (line 4): unterminated rule", 4, 2),
    ("vars\n x\nrules\n -> x'\n" + TAIL,
     "rule 0 (line 4): expected '=' in update", 5, 1),
    (NOOP + " x =\ntarget\n x >= 1\n", "init: expected a number, got 'target'", 7, 1),
    (NOOP + " x\ntarget\n x >= 1\n", "expected '=' in init, got 'target'", 7, 1),
    ("\n\nvars\nrules\n" + TAIL, "no variables declared", 3, 1),
    # A rule's line follows str.splitlines(), comments included.
    ("vars\r\n x\r\nrules\r\n -> x' = x;\r\n x >= 1 -> x' = x - 2;\r\n" + TAIL,
     "rule 1 (line 5): decrease of 2 is not covered by the guard, so the rule is "
     "not expressible as Petri-net arcs", 5, 2),
    ("vars\n x\nrules\n -> x' = x; # a\u2028 -> x' = x - 1;\n" + TAIL,
     "rule 1 (line 5): decrease of 1 is not covered by the guard, so the rule is "
     "not expressible as Petri-net arcs", 5, 2),
    # Section keywords are reserved: each other than the one that opens its
    # section, the last of its kind before the next section's that starts
    # its line (else the last), is refused where it stands, before any
    # section is read.
    ("vars\n x init\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n x >= 1\n",
     "'init' is a reserved word", 2, 4),
    ("vars\n x target\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n x >= 1\n",
     "'target' is a reserved word", 2, 4),
    ("vars\n vars x\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n x >= 1\n",
     "'vars' is a reserved word", 2, 2),
    ("vars\n x\nrules\n x >= 3 -> x init ' = x - 1;\ninit\n x = 0\ntarget\n x >= 1\n",
     "'init' is a reserved word", 4, 14),
    ("vars\n x\nrules\n -> x' = x + 1;\ninit\n x = 1 target\ntarget\n x >= 1\n",
     "'target' is a reserved word", 6, 8),
    ("vars\n x\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n x >= 1 init\n",
     "'init' is a reserved word", 8, 9),
    ("vars\n x\nrules\n target >= 1 -> x' = x;\ninit\n x = 1\ntarget\n x >= 1\n",
     "'target' is a reserved word", 4, 2),
    ("vars\n x\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n vars >= 1\n",
     "'vars' is a reserved word", 8, 2),
    # A keyword that starts its line opens the section, before a later one.
    ("vars\n x\nrules\n -> x' = x;\ninit\n x = 1, init = 2\ntarget\n x >= 1\n",
     "'init' is a reserved word", 6, 9),
    ("vars\n x\nrules\n -> x' = x;\ninit x = 1\ninit\ntarget\n x >= 1\n",
     "'init' is a reserved word", 5, 1),
    # One stray keyword is refused before an error earlier in a section.
    ("vars\n x -\nrules rules\n -> x' = x;\ninit\n x = 1\ntarget\n x >= 1\n",
     "'rules' is a reserved word", 3, 7),
]


def test_mist_rejections():
    assert_rejections(parse_mist, MIST_REJECTIONS)


# Counts are ASCII digits that int() converts: anything else is a
# positioned error, in both formats.
LONG = "1" * 5000
NUMBER_REJECTIONS = [
    (parse_native, "places: a\ninit: a=\u00b2\ntarget: a>=1\n",
     "expected token count, got '\u00b2'", 2, 9),
    (parse_native, "places: a\ninit: a=\u0663\ntarget: a>=1\n",
     "expected token count, got '\u0663'", 2, 9),
    (parse_native, f"places: a\ninit: a={LONG}\ntarget: a>=1\n",
     "number has 5000 digits; the limit is 4300", 2, 9),
    (parse_native, "places: a\ntransitions:\nt: in a*\u00b9 ;\ntarget: a>=1\n",
     "expected arc multiplicity, got '\u00b9'", 3, 9),
    (parse_native, f"places: a\ntransitions:\nt: out a*{LONG} ;\ntarget: a>=1\n",
     "number has 5000 digits; the limit is 4300", 3, 10),
    (parse_native, f"places: a\ntarget: a>={LONG}\n",
     "number has 5000 digits; the limit is 4300", 2, 12),
    (parse_mist, NOOP + " x = \u00b2\ntarget\n x >= 1\n",
     "init: expected a number, got '\u00b2'", 6, 6),
    (parse_mist, NOOP + f" x = {LONG}\ntarget\n x >= 1\n",
     "number has 5000 digits; the limit is 4300", 6, 6),
    (parse_mist, HEAD + f" x >= {LONG} -> x' = x;\n" + TAIL,
     "number has 5000 digits; the limit is 4300", 4, 7),
    (parse_mist, HEAD + " -> x' = x + \u0663;\n" + TAIL,
     "rule 0 (line 4): expected a number, got '\u0663'", 4, 14),
    (parse_mist, NOOP + " x = 1\ntarget\n x >= \u00b9\n",
     "target: expected a number, got '\u00b9'", 8, 7),
]


def test_bad_numbers_are_positioned_errors():
    for parse, text, message, line, column in NUMBER_REJECTIONS:
        assert_rejections(parse, [(text, message, line, column)])


def test_mutation_fixture():
    """Seeded edits of valid texts (see ``data/make_ingest_mutations.py``)
    parse to the problem or fail with the message, line and column that
    were recorded when the fixture was made."""
    path = pathlib.Path(__file__).parent / "data" / "ingest_mutations.json"
    cases = json.loads(path.read_text(encoding="utf-8"))
    assert len(cases) == 400
    parsers = {"native": parse_native, "mist": parse_mist}
    for case in cases:
        parse = parsers[case["format"]]
        if "emit" in case:
            assert emit_native(parse(case["input"])) == case["emit"], case["input"]
        else:
            assert_rejections(parse, [(case["input"], *case["error"])])


# Fragments that split a word from the token scanner's reading of it, or
# that only the scanner places: every white space that str.split() and
# str.splitlines() treat apart, comments, a lone "_", "> =", "p>1",
# "12ab", "-5", non-ASCII letters and digits, and a 5,000-digit count.
EDITS = [" ", "\t", "\r", "\r\n", "\x0c", "\x1c", "\x85", "\u2028", "\xa0", " # c\n",
         "#", "_", " _ ", "_a", "> =", ">=", " p>1 ", "12ab", " -5 ", "=", ":", ";", "*",
         "\u00e9", " \u00e9t\u00e9 ", "\u0663", "\u00b2", LONG, "p0", " p1 ", "in", "out",
         "places:", "target:", "@", "a.b-c"]


def test_words_read_like_the_token_scanner():
    """``parse_native`` reads a text from its words unless the grammar
    refuses one; then the token scanner reads it again.  Either way the
    result, or the error with its position, is the scanner's.  Every text
    the scanner accepts is read from its words, as the scanner's tokens:
    a count glued to a name, like ``2b``, is one token to both."""
    # Each fragment at each place of a short text, then random edits.
    base = "places: a b\ntransitions:\nt: in a*2 out b ;\ninit: a=1\ntarget: b>=1\n"
    texts = [base[:at] + edit + base[at:] for edit in EDITS for at in range(len(base))]
    rng = random.Random(2016)
    for _ in range(300):
        net = random_net(rng)
        text = emit_native(Problem(net=net, targets=(random_target(rng, net),)))
        texts.append(text)
        for _ in range(2):
            edited = text
            for _ in range(rng.randint(1, 3)):
                at = rng.randint(0, len(edited))
                cut = at + rng.choice((0, 0, 1, 3))
                edited = edited[:at] + rng.choice(EDITS) + edited[cut:]
            texts.append(edited)
    read = sum(type(read_as_the_scanner_reads(text)) is Problem for text in texts)
    assert 500 <= read < len(texts)


def test_parsed_problems_equal_checked_ones():
    """Both parsers build the problem and its targets from checked parts;
    the checked constructor, given the same fields, builds the same."""
    path = pathlib.Path(__file__).parent / "data" / "ingest_mutations.json"
    cases = json.loads(path.read_text(encoding="utf-8"))
    texts = [(parse_native, emit_native(Problem(net, (target,), name)))
             for name, net, target in random_instances(CORPUS_SEED, CORPUS_SIZE)]
    texts += [(parse_native if case["format"] == "native" else parse_mist, case["input"])
              for case in cases if "emit" in case]
    texts += [(parse_mist, TOKEN_PASS)]
    assert {parse for parse, _ in texts} == {parse_native, parse_mist}
    for parse, text in texts:
        problem = parse(text, name="p")
        assert problem.name == "p", text
        assert_problem_equals_checked_build(problem, text)


def test_mist_accepts_bytes():
    assert parse_mist(TOKEN_PASS.encode()).net.places == ("x1", "x2")


def test_mist_rejects_bytes_that_are_not_utf8():
    assert_rejections(parse_mist, [
        (TOKEN_PASS.encode().replace(b"x1 >=", b"x1 \xfe>="), "not valid UTF-8", 4, 6),
    ])
