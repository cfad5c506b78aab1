from __future__ import annotations

import random
from fractions import Fraction

import pytest

from polysum import Polynomial, poly
from polysum.cli import main


def random_rational(rng: random.Random, max_num: int = 50, max_den: int = 50) -> Fraction:
    return Fraction(rng.randint(-max_num, max_num), rng.randint(1, max_den))


def random_polynomial(
    rng: random.Random,
    max_degree: int = 8,
    max_num: int = 50,
    max_den: int = 50,
) -> Polynomial:
    """Random polynomial of degree <= max_degree; may degrade below the bound
    (or to zero) when random coefficients vanish."""
    degree = rng.randint(0, max_degree)
    return Polynomial(random_rational(rng, max_num, max_den) for _ in range(degree + 1))


@pytest.fixture
def canonical_rows(monkeypatch):
    """The denominators of the rows poly._canonical reduces, one per call."""
    rows, canonical_of = [], poly._canonical

    def counted_canonical(nums, den):
        rows.append(den)
        return canonical_of(nums, den)

    monkeypatch.setattr(poly, "_canonical", counted_canonical)
    return rows


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One pass/fail line per acceptance criterion at the end of the run."""
    reports = []
    for outcome in ("passed", "failed"):
        for rep in terminalreporter.stats.get(outcome, []):
            if rep.when == "call" and "test_acceptance" in rep.nodeid:
                reports.append((rep.nodeid.split("::")[-1], rep.passed))
    if not reports:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for name, passed in sorted(reports):
        terminalreporter.write_line(f"{'PASS' if passed else 'FAIL'}  {name}")
