"""Checks of the benchmark's own oracle gate and time limit.

    python3 -m pytest perfbench
"""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

import pytest

import oracles
import run
import workloads as w

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))


@pytest.fixture(scope="module")
def lib():
    return run.load_library(SRC)


def first(workload, count=1):
    return next(workload.inputs())[:count]


def test_oracles_agree_with_the_library(lib):
    ps = lib.powersum
    for n in range(3, 16):
        assert oracles.render(oracles.power_sum(n)) == ps.power_sum_closed_form(n).render()
        assert oracles.render_factored(n) == ps.power_sum_factored_form(n).render()
        assert oracles.read(oracles.render(oracles.power_sum(n))) == list(oracles.power_sum(n))


def test_powersum_check_rejects_off_by_one(lib):
    wl = w.PowersumBuild(lib, seed=1)
    (n,) = first(wl)
    good = wl.op(n, w.NoSpans())
    wl.verify(n, good)
    off = good + type(good).constant(1)
    with pytest.raises(w.Mismatch):
        wl.verify(n, off)


def test_general_check_rejects_off_by_one(lib):
    wl = w.GeneralSum(lib, seed=1)
    for case in first(wl, 3):
        f, g, (small, huge) = wl.op(case, w.NoSpans())
        wl.verify(case, (f, g, (small, huge)))
        with pytest.raises(w.Mismatch):
            wl.verify(case, (f, g, (small, huge + 1)))


def test_warm_check_rejects_off_by_one(lib):
    wl = w.WarmEval(lib, seed=1)
    for query in first(wl, 4):
        value = wl.op(query, w.NoSpans())
        wl.verify(query, value)
        with pytest.raises(w.Mismatch):
            wl.verify(query, value + 1)


def test_cli_check_rejects_off_by_one(lib):
    wl = w.CliOneshot(lib, seed=1)
    for cmd in first(wl, 8):
        proc = wl.op(cmd, w.NoSpans())
        wl.verify(cmd, proc)
        last = max(i for i, ch in enumerate(proc.stdout) if ch.isdigit())
        digit = str((int(proc.stdout[last]) + 1) % 10)
        off = proc.stdout[:last] + digit + proc.stdout[last + 1:]
        with pytest.raises(w.Mismatch):
            wl.verify(cmd, subprocess.CompletedProcess(proc.args, 0, off, ""))


def test_slow_operation_fails_at_the_time_limit(lib, monkeypatch):
    """(x+1)^400 runs for over a minute; it must count as one failed operation."""
    summand = w.Summand("(x+1)^400", tuple(oracles.linear_power(1, 1, 400)))
    wl = w.GeneralSum(lib, seed=1)
    wl.inputs = lambda: iter([[w.GeneralCase(summand, 5, 10**100)]])
    monkeypatch.setattr(run, "OP_LIMIT_S", 0.2)
    run.signal.signal(run.signal.SIGALRM, run._on_alarm)
    r = run.measure(wl, seconds=0, traced=False)
    assert r["attempted"] == 1 and r["verified"] == 0
    assert "OpTimeout" in r["failures"][0]


def test_refuses_to_run_without_the_library(tmp_path):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", "warm_eval",
         "--seed", "1", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0 and proc.stdout == ""


def test_same_seed_same_inputs(lib):
    for cls in w.WORKLOADS.values():
        assert first(cls(lib, 7), 5) == first(cls(lib, 7), 5)
        assert first(cls(lib, 7), 5) != first(cls(lib, 8), 5)
