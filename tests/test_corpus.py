"""Replay the equivalence corpus that tests/make_corpus.py wrote: every CLI
command and every lowered text must give the output recorded for it."""

from __future__ import annotations

import json

from make_corpus import CORPUS, cli_case, row_case


def replay(name, run, key):
    """The cases of CORPUS/name whose output run no longer gives, each with
    the recorded case beside the new one."""
    lines = (CORPUS / name).read_text(encoding="ascii").splitlines()
    cases = [json.loads(line) for line in lines]
    assert cases
    return [(case, new) for case in cases if (new := run(case[key])) != case]


def test_corpus_replays_unchanged():
    changed = replay("cli.jsonl", cli_case, "argv") + replay("rows.jsonl", row_case, "text")
    assert not changed, f"{len(changed)} cases changed, the first: {changed[0]}"
