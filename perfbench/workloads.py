"""The four benchmark workloads and the spans that split their operations
into polysum's layers.

Each workload turns a seed into an endless stream of input blocks, runs one
timed operation per input through polysum's public functions, and checks the
result against the independent oracles in oracles.py.  Every block holds the
same grid of sizes; the seed sets their order and draws the coefficients,
bounds and m values.

In a traced run an operation's spans are recorded as it runs; afterwards
`children` calls each composite's child stage on the same input, and the
child's time is moved out of the parent's span, which leaves the parent's
self time.  Those extra calls happen outside the operation's timed span.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import random
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter_ns

import oracles

LAYERS = (
    "expr_parser.parse",
    "expr_parser.lower",
    "basis.weights",
    "powersum.weights",
    "powersum.assembly",
    "summation.assembly",
    "poly.eval",
    "poly.render",
    "cli.main",
    "cli.process_overhead",
)

OP_LIMIT_S = 10  # the slowest operation here takes about 1.3 s


class Mismatch(Exception):
    """A result disagrees with its oracle."""


class NoSpans:
    """Tracing off: stages are called with no bookkeeping."""

    @staticmethod
    def span(layer, fn, *args):
        return fn(*args)


class Spans:
    """Busy time (ns) and call count per layer, for one traced run."""

    def __init__(self):
        self.ns = Counter()
        self.calls = Counter()

    def span(self, layer, fn, *args):
        t0 = perf_counter_ns()
        out = fn(*args)
        self.ns[layer] += perf_counter_ns() - t0
        self.calls[layer] += 1
        return out

    def split(self, parent, child, fn, *args):
        """Time the child stage of `parent` on the same input and move its
        time out of the parent's span."""
        t0 = perf_counter_ns()
        out = fn(*args)
        dt = perf_counter_ns() - t0
        self.ns[parent] -= dt
        self.ns[child] += dt
        self.calls[child] += 1
        return out


def log_grid(lo: int, hi: int, count: int) -> tuple[int, ...]:
    """count integers from lo to hi, evenly spaced in log scale."""
    return tuple(round(lo * (hi / lo) ** (j / (count - 1))) for j in range(count))


def blocks(rng: random.Random, cells):
    """Endless blocks, each a seeded shuffle of the same cells.

    The runner stops only between blocks, so every run times the same size
    mix whatever its seed and length.  With 15 or 5 x 3 cells per block the
    median and the 90th percentile fall inside one cell's group of samples
    rather than between two groups, where they would jump with timing
    noise."""
    while True:
        block = list(cells)
        rng.shuffle(block)
        yield block


@dataclass(frozen=True)
class Summand:
    text: str
    coeffs: tuple[Fraction, ...]  # the generator's own expansion, ascending powers

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1


SHAPES = ("dense", "binomial", "product")


def make_summand(rng: random.Random, shape: str, d: int) -> Summand:
    """A degree-d summand in x: dense random rational coefficients, a power
    of a binomial, or a product of two powers of linear factors."""
    if shape == "dense":
        coeffs = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            for _ in range(d + 1)
        ]
        parts = []
        for k in range(d, -1, -1):
            c = coeffs[k]
            body = f"{abs(c)}*x^{k}" if k else str(abs(c))
            parts.append(("-" if c < 0 else "+", body))
        text = ("-" if parts[0][0] == "-" else "") + parts[0][1]
        text += "".join(f" {sign} {body}" for sign, body in parts[1:])
        return Summand(text, tuple(coeffs))
    if shape == "binomial":
        c = rng.randint(1, 4)
        return Summand(f"(x+{c})^{d}", tuple(oracles.linear_power(1, c, d)))
    a = rng.randint(1, d - 1)
    coeffs = oracles.poly_mul(
        oracles.linear_power(2, -3, a), oracles.linear_power(1, Fraction(1, 2), d - a)
    )
    return Summand(f"(2x-3)^{a}*(x+1/2)^{d - a}", tuple(coeffs))


def verify_closed_form(summand: Summand, text: str) -> list[Fraction]:
    """Read a printed closed form back and check it against literal sums at
    m = 0..d+2, which fixes a polynomial of degree <= d+1."""
    coeffs = oracles.read(text)
    if len(coeffs) > summand.degree + 2:
        raise Mismatch(f"closed form has degree {len(coeffs) - 1} > {summand.degree + 1}")
    for m, want in enumerate(oracles.prefix_sums(summand.coeffs, summand.degree + 3)):
        if oracles.horner(coeffs, m) != want:
            raise Mismatch(f"closed form is wrong at m={m}")
    return coeffs


class Workload:
    """One seeded workload over one loaded copy of polysum (`lib`)."""

    name = ""
    rss_of_children = False

    def __init__(self, lib, seed: int):
        self.lib = lib
        self.rng = random.Random(seed)

    def reset(self) -> None:
        """Called before each operation, outside its timed span."""

    def children(self, inp, out, sp: Spans) -> None:
        """Traced runs only: call child stages on the same input."""


class PowersumBuild(Workload):
    """Cold power_sum_closed_form(n), n on a 15-point log grid over 10..100."""

    name = "powersum_build"

    def inputs(self):
        yield from blocks(self.rng, log_grid(10, 100, 15))

    def reset(self):
        self.lib.powersum.power_sum_closed_form.cache_clear()

    def op(self, n, sp):
        return sp.span("powersum.assembly", self.lib.powersum.power_sum_closed_form, n)

    def children(self, n, out, sp):
        sp.split("powersum.assembly", "powersum.weights", self.lib.powersum.coefficients, n)

    def verify(self, n, out):
        want = oracles.power_sum(n)
        if out.render() != oracles.render(want):
            raise Mismatch(f"S_{n} differs from the Bernoulli formula")
        return want


@dataclass(frozen=True)
class GeneralCase:
    summand: Summand
    m_small: int
    m_huge: int


class GeneralSum(Workload):
    """Parse, lower, sum_polynomial and two value_at calls on summands of
    degree 10..60 in three shapes."""

    name = "general_sum"

    def inputs(self):
        rng = self.rng
        cells = [(shape, d) for d in log_grid(10, 60, 5) for shape in SHAPES]
        for block in blocks(rng, cells):
            yield [
                GeneralCase(
                    make_summand(rng, shape, d),
                    rng.randint(1, 10**4), rng.randrange(10**99, 10**200),
                )
                for shape, d in block
            ]

    def op(self, case, sp):
        ep = self.lib.expr_parser
        tree = sp.span("expr_parser.parse", ep.parse, case.summand.text)
        f = sp.span("expr_parser.lower", ep.lower, tree)
        g = sp.span("summation.assembly", self.lib.summation.sum_polynomial, f)
        values = sp.span("poly.eval", lambda: (g.value_at(case.m_small), g.value_at(case.m_huge)))
        return f, g, values

    def children(self, case, out, sp):
        sp.split("summation.assembly", "basis.weights", self.lib.basis.to_rising_basis, out[0])

    def verify(self, case, out):
        _, g, values = out
        coeffs = verify_closed_form(case.summand, g.poly.render())
        for m, got in zip((case.m_small, case.m_huge), values):
            if got != oracles.horner(coeffs, m):
                raise Mismatch(f"value_at({m}) differs from the read-back closed form")
        return coeffs


# Exponents and summand degrees whose closed forms warm_eval builds in setup.
WARM_EXPONENTS = (
    2, 3, 4, 5, 6, 7, 8, 10, 12, 14, 16, 18, 20, 23, 26, 29, 32, 36, 40, 44, 48, 53, 58, 64,
)
WARM_DEGREES = (8, 16, 24, 32)


class WarmEval(Workload):
    """power_sum_value and value_at on closed forms built in setup, with m
    from 7 to 300 digits; every fourth query is a general summand."""

    name = "warm_eval"

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.summands = [
            make_summand(self.rng, SHAPES[k % 3], d) for k, d in enumerate(WARM_DEGREES)
        ]
        for n in WARM_EXPONENTS:
            lib.powersum.power_sum_closed_form(n)
        self.closed = [
            lib.summation.sum_polynomial(lib.expr_parser.parse_polynomial(s.text))
            for s in self.summands
        ]
        self.verified = {}  # summand index -> closed-form coefficients, checked once

    def inputs(self):
        rng = self.rng
        kinds = ("power", "power", "power", "sum")
        cells = [(kind, digits) for kind in kinds for digits in log_grid(7, 300, 15)]
        for block in blocks(rng, cells):
            queries = []
            for kind, digits in block:
                m = rng.randrange(10 ** (digits - 1), 10**digits)
                if kind == "sum":
                    queries.append((kind, rng.randrange(len(self.summands)), m))
                else:
                    queries.append((kind, rng.choice(WARM_EXPONENTS), m))
            yield queries

    def op(self, query, sp):
        kind, k, m = query
        if kind == "power":
            return sp.span("poly.eval", self.lib.powersum.power_sum_value, k, m)
        return sp.span("poly.eval", self.closed[k].value_at, m)

    def verify(self, query, out):
        kind, k, m = query
        if kind == "power":
            coeffs = oracles.power_sum(k)
        else:
            if k not in self.verified:
                text = self.closed[k].poly.render()
                self.verified[k] = verify_closed_form(self.summands[k], text)
            coeffs = self.verified[k]
        if out != oracles.horner(coeffs, m):
            raise Mismatch(f"{kind} query {k} at a {len(str(m))}-digit m is wrong")
        return coeffs


@dataclass(frozen=True)
class Command:
    kind: str  # closed_form | factored | value | symbolic
    argv: tuple[str, ...]
    n: int = 0
    summand: Summand | None = None
    lo: int = 0
    hi: int = 0

    @property
    def as_json(self) -> bool:
        return self.argv[0] == "--json"


CLI_KINDS = ("closed_form", "factored", "value", "symbolic")


class CliOneshot(Workload):
    """One fresh `python -m polysum` process per operation."""

    name = "cli_oneshot"
    rss_of_children = True

    def __init__(self, lib, seed):
        super().__init__(lib, seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.abspath("src"))

    def inputs(self):
        sizes = {
            "closed_form": log_grid(2, 40, 5),
            "factored": log_grid(3, 40, 5),
            "value": log_grid(2, 20, 5),
            "symbolic": log_grid(2, 20, 5),
        }
        cells = [
            (kind, as_json, size)
            for kind in CLI_KINDS for as_json in (False, True) for size in sizes[kind]
        ]
        for block in blocks(self.rng, cells):
            yield [self._command(*cell) for cell in block]

    def _command(self, kind, as_json, size):
        prefix = ("--json",) if as_json else ()
        if kind in ("closed_form", "factored"):
            tail = ("--factored",) if kind == "factored" else ()
            return Command(kind, prefix + ("closed-form", f"--n={size}") + tail, n=size)
        s = make_summand(self.rng, self.rng.choice(SHAPES), size)
        argv = prefix + ("sum", f"--expr={s.text}")
        if kind == "symbolic":
            return Command(kind, argv, summand=s)
        lo = self.rng.randint(-10, 10)
        hi = lo + self.rng.randint(0, 40)
        return Command(kind, argv + (f"--lo={lo}", f"--hi={hi}"), summand=s, lo=lo, hi=hi)

    def _child(self, argv):
        return subprocess.run(
            [sys.executable, "-m", "polysum", *argv],
            env=self.env, capture_output=True, text=True, timeout=OP_LIMIT_S,
        )

    def op(self, cmd, sp):
        return sp.span("cli.process_overhead", self._child, cmd.argv)

    def _main(self, argv):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            self.lib.cli.main(list(argv))
        return out.getvalue()

    def children(self, cmd, proc, sp):
        ep, ps, sm = self.lib.expr_parser, self.lib.powersum, self.lib.summation
        ps.power_sum_closed_form.cache_clear()  # each CLI process starts cold
        sp.split("cli.process_overhead", "cli.main", self._main, cmd.argv)
        if cmd.kind == "closed_form":
            ps.power_sum_closed_form.cache_clear()
            p = sp.split("cli.main", "powersum.assembly", ps.power_sum_closed_form, cmd.n)
            sp.split("powersum.assembly", "powersum.weights", ps.coefficients, cmd.n)
            sp.split("cli.main", "poly.render", p.render)
        elif cmd.kind == "factored":
            form = sp.split("cli.main", "powersum.weights", ps.power_sum_factored_form, cmd.n)
            sp.split("cli.main", "poly.render", form.render)
        else:
            tree = sp.split("cli.main", "expr_parser.parse", ep.parse, cmd.summand.text)
            f = sp.split("cli.main", "expr_parser.lower", ep.lower, tree)
            g = sp.split("cli.main", "summation.assembly", sm.sum_polynomial, f)
            sp.split("summation.assembly", "basis.weights", self.lib.basis.to_rising_basis, f)
            if cmd.kind == "value":
                sp.split("cli.main", "poly.eval", lambda: g.poly(cmd.hi) - g.poly(cmd.lo - 1))
            else:
                sp.split("cli.main", "poly.render", g.poly.render)
        if cmd.as_json:
            sp.split("cli.main", "poly.render", json.dumps, json.loads(proc.stdout))

    def verify(self, cmd, proc):
        if proc.returncode != 0:
            raise Mismatch(f"exit {proc.returncode}: {proc.stderr.strip()[-200:]}")
        if cmd.kind in ("closed_form", "factored"):
            coeffs = oracles.power_sum(cmd.n)
            payload = {"mode": "closed_form", "n": cmd.n, "variable": "m"}
            if cmd.kind == "closed_form":
                text = oracles.render(coeffs)
                payload.update(format="expanded", polynomial=text)
            else:
                text = oracles.render_factored(cmd.n)
                weights = oracles.factored_weights(cmd.n)
                payload.update(
                    format="factored", rendering=text, sign=-1 if cmd.n % 2 else 1,
                    prefactor="m^2 + m", inner_constant="-1/2",
                    inner_terms=[
                        {"length": i, "coefficient": str(c)}
                        for i, c in enumerate(weights[1:], start=2)
                    ],
                )
        else:
            s = cmd.summand
            coeffs = oracles.general_sum(s.coeffs)
            payload = {"expr": s.text}
            if cmd.kind == "value":
                text = str(sum(oracles.horner(s.coeffs, x) for x in range(cmd.lo, cmd.hi + 1)))
                payload.update(mode="value", lo=cmd.lo, hi=cmd.hi, value=text)
            else:
                text = oracles.render(coeffs)
                payload.update(
                    mode="closed_form", variable="m", polynomial=text, source_degree=s.degree
                )
        if cmd.as_json:
            try:
                ok = json.loads(proc.stdout) == payload
            except ValueError:
                ok = False
        else:
            ok = proc.stdout == text + "\n"
        if not ok:
            raise Mismatch(f"{' '.join(cmd.argv)} printed {proc.stdout[:200]!r}")
        return coeffs


WORKLOADS = {w.name: w for w in (PowersumBuild, GeneralSum, WarmEval, CliOneshot)}
