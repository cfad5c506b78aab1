"""Replay the equivalence corpus that tests/make_corpus.py wrote: every CLI
command and every lowered text must give the output recorded for it."""

from __future__ import annotations

import json
import shlex

from make_corpus import CORPUS, cli_case, readme_commands, row_case, stored
from test_docs import CLI_EXAMPLES


def recorded(name):
    """The cases of CORPUS/name, in order."""
    lines = (CORPUS / name).read_text(encoding="ascii").splitlines()
    return [json.loads(line) for line in lines]


def replay(name, run, key):
    """The cases of CORPUS/name whose output run no longer gives, each with
    the recorded case beside the new one."""
    cases = recorded(name)
    assert cases
    return [(case, new) for case in cases if (new := run(case[key])) != case]


def test_corpus_replays_unchanged():
    changed = replay("cli.jsonl", cli_case, "argv") + replay("rows.jsonl", row_case, "text")
    assert not changed, f"{len(changed)} cases changed, the first: {changed[0]}"


def test_corpus_records_the_readme_commands():
    # each README command is a case that exits 0 and prints the README's text for it
    readme = {tuple(shlex.split(command)[1:]): stdout for command, stdout in CLI_EXAMPLES}
    assert sorted(map(tuple, readme_commands())) == sorted(readme)
    cases = {tuple(case["argv"]): case for case in recorded("cli.jsonl")}
    for argv, stdout in readme.items():
        assert (cases[argv]["exit"], cases[argv]["stdout"]) == (0, stored(stdout)), argv
