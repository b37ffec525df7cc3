"""Every step of tests/corpus_checks.py runs on small inputs, so that a
renamed private name or a changed signature it relies on fails here."""

from __future__ import annotations

import corpus_checks


def test_every_corpus_check_runs_on_small_inputs(capsys):
    # A tenth of each seed-1 corpus, drawn as perfbench/selftest.py draws it.
    for step in (corpus_checks.words, corpus_checks.cold_lp, corpus_checks.sign_pruning):
        step(scale=0.1)
    corpus_checks.families((("mutex", (4,)), ("pipeline", (3, 2))))
    # One line per corpus; per family question, one per configuration and
    # one for the bases of the trivial search.
    assert len(capsys.readouterr().out.splitlines()) == 3 + 2 + 3 + 2 * 3 * 3
