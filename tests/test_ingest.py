from __future__ import annotations

import json
import pathlib
import random

import pytest

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
from corpus import random_net, random_target


# -- native format ----------------------------------------------------------

def test_parse_pump(pump_net):
    problem = parse_native(PUMP_TEXT, name="pump")
    assert problem.net == pump_net
    assert problem.targets == (Marking((0, 2, 1)), Marking((2, 0, 0)))
    assert problem.name == "pump"


def test_parse_accepts_bytes():
    assert parse_native(PUMP_TEXT.encode()).net == make_pump_net()


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
    ("vars\n 1x\nrules\n" + TAIL, "expected a variable name, got '1'", 2, 2),
    (NOOP + " x = 1\n", "missing section 'target'", 6, 6),
    ("rules\n -> x' = x;\n", "input must start with a 'vars' section", 1, 1),
    ("", "empty input", 1, 1),
    ("vars\n x\ninit\n x = 1\nrules\n -> x' = x;\ntarget\n x >= 1\n",
     "sections must appear in the order vars, rules, init, target", 7, 1),
    (NOOP + " x = 1\ntarget\n x = 1\n", "targets must use '>='", 8, 4),
    (NOOP + " x = 1\ntarget\n", "no target declared", 1, 1),
    (NOOP + " x = 1\ntarget\n x' >= 1\n", "unexpected primed variable \"x'\"", 8, 2),
    (NOOP + " x = 1\ntarget\n x >=\n", "target: expected a number", 1, 1),
    (NOOP + " x = 1\ntarget\n x >= 1\n x >= y\n", "target: expected a number, got 'y'",
     9, 7),
    (NOOP + " x = 1\ntarget\n x >= 1 @\n", "unexpected character '@'", 8, 9),
    # A rule's line follows str.splitlines(), comments included.
    ("vars\r\n x\r\nrules\r\n -> x' = x;\r\n x >= 1 -> x' = x - 2;\r\n" + TAIL,
     "rule 1 (line 5): decrease of 2 is not covered by the guard, so the rule is "
     "not expressible as Petri-net arcs", 5, 2),
    ("vars\n x\nrules\n -> x' = x; # a\u2028 -> x' = x - 1;\n" + TAIL,
     "rule 1 (line 5): decrease of 1 is not covered by the guard, so the rule is "
     "not expressible as Petri-net arcs", 5, 2),
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


def test_mist_accepts_bytes():
    assert parse_mist(TOKEN_PASS.encode()).net.places == ("x1", "x2")
