"""Write the seeded parser-mutation fixture ``ingest_mutations.json``.

Each case is a problem text with one to three random edits.  Native
texts come from the ``tests/corpus.py`` generator; the MIST texts are
those the MIST tests of ``tests/test_ingest.py`` parsed when the fixture
was made.  The edit alphabet is ASCII, so no case depends on how
non-ASCII digits are read.  Some edits keep the text valid: they widen
white space, change line breaks or add comments.  A case records the
parser's outcome: ``emit_native`` of the problem, or the ``ParseError``
message, line and column.  Run from the repository root::

    PYTHONPATH=src:tests python tests/data/make_ingest_mutations.py \\
        > tests/data/ingest_mutations.json
"""

from __future__ import annotations

import json
import random
import re
import sys

from coverlib import ParseError, Problem, emit_native, parse_mist, parse_native

from corpus import random_net, random_target

SEED = 20161018
CASES = {"native": 300, "mist": 100}
CHARS = "apxyt01239 \t\n\r\x0b\x0c\x1c:;*=>-,'+#@._"
# White space and the ASCII line breaks of str.splitlines().
BLANKS = [" ", "\t", "\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x1d", "\x1e",
          "  # note\n"]
MIST_TEXTS = [
    "vars\n  x1 x2\nrules\n  x1 >= 1 ->\n    x1' = x1 - 1,\n    x2' = x2 + 1;\n"
    "init\n  x1 = 1, x2 = 0\ntarget\n  x2 >= 1\n",
    "vars\n x\nrules\n x >= 3 -> x' = x - 1;\ninit\n x = 0\ntarget\n x >= 1\n",
    "vars\n x y\nrules\n x >= 2 -> y' = y + 3;\n -> x' = x;\ninit\n x = 2\ntarget\n y >= 3\n",
    "vars\n x\nrules\n -> x' = x + 1;\ninit\n x = 0\ntarget\n x >= 2\n",
    "vars\n x\nrules\n x >= 1, x >= 2 -> x' = x - 2;\ninit\n x = 2\ntarget\n x >= 1\n",
    "vars\n x y\nrules\n -> x' = x;\ninit\n x = 0\ntarget\n x >= 1, y >= 2\n y >= 5\n",
    "vars\n r0\nrules\n r0 >= 1 -> r0' = r0 - 1;\ninit\n r0 = 1\ntarget\n r0 >= 1\n",
    "vars\n x\nrules\n -> x' = x;\ninit\n x >= 1\ntarget\n x >= 1\n",
    "vars\n x\ninit\n x = 1\nrules\n -> x' = x;\ntarget\n x >= 1\n",
    "vars\n x\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n x = 1\n",
    "vars\n x\nrules\n -> x' = x;\ninit\n x = 1, x = 2\ntarget\n x >= 1\n",
    "vars\n x\nrules\n -> x' = x;\ninit\n x = 1\ntarget\n",
]
WORDS = {
    "native": ["places:", "transitions:", "init:", "target:", "in", "out",
               "p0", "p9", "t0", "*", ";", ">=", "=", "-1", "00", "# c\n"],
    "mist": ["vars", "rules", "init", "target", "->", ">=", "=", ",", ";",
             "x", "x'", "y'", "+", "-", "7", "x1", "# c\n"],
}


def native_texts(count: int):
    rng = random.Random(SEED)
    for _ in range(count):
        net = random_net(rng)
        targets = tuple(random_target(rng, net) for _ in range(rng.randint(1, 2)))
        yield emit_native(Problem(net=net, targets=targets))


def mutate(rng: random.Random, text: str, words) -> str:
    for _ in range(rng.randint(1, 3)):
        at = rng.randint(0, len(text))
        kind = rng.randrange(9)
        if kind >= 6:
            spaces = [m.start() for m in re.finditer(r"\s", text)]
            if spaces:
                at = rng.choice(spaces)
                text = text[:at] + rng.choice(BLANKS) + text[at + (kind == 8):]
        elif kind == 0:
            text = text[:at] + rng.choice(CHARS) + text[at:]
        elif kind == 1:
            text = text[:at] + text[at + 1:]
        elif kind == 2:
            text = text[:at] + rng.choice(CHARS) + text[at + 1:]
        elif kind == 3:
            text = text[:at] + " " + rng.choice(words) + " " + text[at:]
        elif kind == 4:
            text = text[:at] + text[at + rng.randint(1, 8):]
        else:
            start = rng.randint(0, len(text))
            text = text[:at] + text[start:start + rng.randint(1, 12)] + text[at:]
    return text


def outcome(parse, text: str) -> dict:
    try:
        return {"emit": emit_native(parse(text))}
    except ParseError as err:
        return {"error": [str(err).split(": ", 1)[1], err.line, err.column]}


def main() -> None:
    rng = random.Random(SEED)
    bases = {"native": list(native_texts(40)), "mist": MIST_TEXTS}
    parsers = {"native": parse_native, "mist": parse_mist}
    cases = []
    for fmt, count in CASES.items():
        for k in range(count):
            text = mutate(rng, bases[fmt][k % len(bases[fmt])], WORDS[fmt])
            cases.append({"format": fmt, "input": text,
                          **outcome(parsers[fmt], text)})
    json.dump(cases, sys.stdout, indent=1)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
