"""Seeded workloads of the hyperlat benchmark.

Every workload is a closed loop with one client: the next operation starts
when the previous one has finished.  Operations come in blocks; each block
holds the same mix of configurations, kinds, orders ``n`` and window sizes.
A run times as many blocks as fit ``--seconds`` at this commit's speed (see
``run.py``), so the number of operations, and with it the tail percentile,
is the same on every run of the same length and on both sides of a
comparison.  The seed draws window starts, sum bases, ``P`` coefficients,
output formats, the order inside each block and, on qq-bigint and cli-mix,
small changes of window length and order ``n``.

The four coefficient sets are copies of the reference setups of the test
suite (quad-a, quad-b, qq-a, qq-b).  Windows start at ``n + 4`` or later,
to the right of the degenerate steps of these symmetric lattices and of the
zeros of sigma, so every operation has a defined, exact outcome.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

KINDS = ("polynomial", "second", "generalized")

# name -> (lattice lines, sigma~ coefficients, tau~ coefficients)
CONFIGS = {
    # x(s) = s(s+1), sigma~(x) = x, tau~(x) = 1 - 2x
    "quad-a": ("lattice = quadratic\nct1 = 1\nct2 = 1\nct3 = 0\n", "0, 1, 0", "1, -2"),
    # x(s) = (s+1)^2, sigma~(x) = 1 + x, tau~(x) = 1 - x
    "quad-b": ("lattice = quadratic\nct1 = 1\nct2 = 2\nct3 = 1\n", "1, 1, 0", "1, -1"),
    # q = 4, x(s) = q^s + q^-s, sigma~(x) = x, tau~(x) = 1 - x
    "qq-a": ("lattice = qquadratic\np = 2\nc1 = 1\nc2 = 1\nc3 = 0\n", "0, 1, 0", "1, -1"),
    # q = 9/4, x(s) = q^s + q^-s, sigma~(x) = x^2 + 1, tau~(x) = 2 - 3x
    "qq-b": ("lattice = qquadratic\np = 3/2\nc1 = 1\nc2 = 1\nc3 = 0\n", "1, 0, 1", "2, -3"),
}

# The three committed demo invocations whose stdout the test suite pins in
# tests/golden/; cli-mix runs each of them once per block.
DEMO_OPS = (
    ("solve", "demos/quadratic.spec", "polynomial", "csv", "solve_quadratic.csv"),
    ("solve", "demos/quadratic.spec", "polynomial", "json", "solve_quadratic.json"),
    ("solve", "demos/qlattice.spec", "second", "csv", "solve_qlattice_second.csv"),
    ("solve", "demos/generalized.spec", "generalized", "json", "solve_generalized.json"),
    ("verify", "demos/quadratic.spec", None, "csv", "verify_quadratic.txt"),
    ("verify", "demos/qlattice.spec", None, "csv", "verify_qlattice.txt"),
    ("adjoint", "demos/quadratic.spec", None, "csv", "adjoint_quadratic.csv"),
    ("table", "demos/qlattice.spec", None, "csv", "table_qlattice.csv"),
)


@dataclass(frozen=True)
class Op:
    """One operation: a CLI subcommand on a problem file, or, on the
    in-process workloads, the equivalent ``solve()`` call."""

    command: str                 # solve | verify | adjoint | table
    config: str                  # coefficient set, or "demo"
    spec: bytes                  # generated problem file; empty for demo ops
    kind: str | None = None      # solve kind
    fmt: str = "csv"
    demo: str | None = None      # committed spec, relative to the checkout
    golden: str | None = None    # expected stdout, in tests/golden/

    def argv(self, spec_path: str) -> list[str]:
        args = [self.command, "--spec", spec_path]
        if self.kind is not None:
            args += ["--kind", self.kind]
        if self.fmt != "csv":
            args += ["--format", self.fmt]
        return args


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    in_process: bool
    block_seconds: float         # one untraced block, 2-core x86 VM, Python 3.11
    make_block: Callable[[random.Random, int], list[Op]]


def spec_text(config: str, n: int, start: int, length: int, rng: random.Random) -> bytes:
    """A problem file with every optional key a solve kind may need: the sum
    base lies in the solution window, P has n + 1 small rational
    coefficients with a nonzero leading one."""
    lattice, sigma, tau = CONFIGS[config]
    poly = [Fraction(rng.randint(-3, 3), rng.randint(1, 3)) for _ in range(n)]
    poly.append(Fraction(rng.choice((-3, -2, -1, 1, 2, 3)), rng.randint(1, 3)))
    text = (f"{lattice}sigma = {sigma}\ntau = {tau}\nn = {n}\n"
            f"window = {start}..{start + length - 1}\n"
            f"sum_base = {start - 1 + rng.randrange(3)}\n"
            f"P = {', '.join(str(c) for c in poly)}\n")
    return text.encode()


def _solve_op(rng, config, kind, n, start, length, fmt="csv") -> Op:
    return Op("solve", config, spec_text(config, n, start, length, rng), kind, fmt)


# qq-bigint ----------------------------------------------------------------

QQ_BIGINT_WHY = ("q-lattice solves whose values reach 20k-60k bits, so Fraction "
                 "normalization in iterated_delta and cumulative_nabla_sum sets the cost")

# Window lengths shrink as n grows so the three orders cost about the same.
# Cost grows about as length^3.8 here, so starts and lengths vary by one
# point only, to keep the cost of a block nearly the same for every seed.
_QQ_ORDERS = ((4, 48), (8, 44), (12, 40))


def _qq_bigint_block(rng: random.Random, _index: int) -> list[Op]:
    ops = [_solve_op(rng, config, kind, n, 12 + rng.randrange(2), length + rng.randrange(2))
           for config in ("qq-a", "qq-b") for n, length in _QQ_ORDERS for kind in KINDS]
    rng.shuffle(ops)
    return ops


# quad-overhead ------------------------------------------------------------

QUAD_OVERHEAD_WHY = ("quadratic-lattice solves with values near 100-2,000 bits, so "
                     "per-point Python work (x_k, sigma_of_s, Y_n, value_at) sets the cost")

_QUAD_N_LOWS = (2, 5, 8, 11, 14)   # each with the next two orders
_QUAD_LENGTHS = (24, 30, 36, 42, 48)


def _quad_overhead_block(rng: random.Random, index: int) -> list[Op]:
    # Every three consecutive blocks give each configuration and kind each
    # order n = 2..16 once, with the same window lengths whatever the seed,
    # so the mix's cost does not depend on the seed.
    ops = []
    for combo, (config, kind) in enumerate(
            (c, k) for c in ("quad-a", "quad-b") for k in KINDS):
        for stratum, low in enumerate(_QUAD_N_LOWS):
            n = low + (index + combo) % 3
            length = _QUAD_LENGTHS[(stratum + index + combo) % len(_QUAD_LENGTHS)]
            ops.append(_solve_op(rng, config, kind, n, n + 4 + rng.randrange(4), length))
    rng.shuffle(ops)
    return ops


# cli-mix ------------------------------------------------------------------

CLI_MIX_WHY = ("python -m hyperlat subprocesses, mostly verify: interpreter start, import, "
               "parse, the identity suite and output formatting on all four configurations")


def _cli_mix_block(rng: random.Random, index: int) -> list[Op]:
    configs = list(CONFIGS)
    ops = []
    for number, config in enumerate(configs):
        n = 2 + (index + number) % 3
        ops.append(Op("verify", config,
                      spec_text(config, n, n + 4 + rng.randrange(3), 12 + rng.randrange(5), rng)))
    for config in configs:
        for kind in KINDS:
            # Small windows keep q-lattice values under CPython's 4300-digit
            # int->str limit; known_defect_ops covers values above it.
            n = rng.randint(2, 3)
            ops.append(_solve_op(rng, config, kind, n, n + 4 + rng.randrange(3),
                                 12 + rng.randrange(3), rng.choice(("csv", "json"))))
    for command, config in (("adjoint", configs[index % 4]), ("table", configs[(index + 1) % 4])):
        n = rng.randint(2, 4)
        ops.append(Op(command, config,
                      spec_text(config, n, n + 4 + rng.randrange(3), 12 + rng.randrange(5), rng)))
    for command, demo, kind, fmt, golden in DEMO_OPS:
        ops.append(Op(command, "demo", b"", kind, fmt, demo, golden))
    rng.shuffle(ops)
    return ops


def known_defect_ops() -> list[Op]:
    """Solves on qq-b whose values exceed CPython's 4300-digit int->str limit.
    Until output formatting handles them, the CLI exits 1 with a ValueError
    traceback from numerics.format_rational and empty stdout."""
    text = ("lattice = qquadratic\np = 3/2\nc1 = 1\nc2 = 1\nc3 = 0\n"
            "sigma = 1, 0, 1\ntau = 2, -3\nn = 2\nwindow = 12..51\nP = 1, -1/2, 3\n").encode()
    return [Op("solve", "qq-b", text, kind) for kind in ("second", "generalized")]


WORKLOADS = {
    w.name: w for w in (
        Workload("qq-bigint", QQ_BIGINT_WHY, True, 7.5, _qq_bigint_block),
        Workload("quad-overhead", QUAD_OVERHEAD_WHY, True, 3.0, _quad_overhead_block),
        Workload("cli-mix", CLI_MIX_WHY, False, 7.8, _cli_mix_block),
    )
}


def make_blocks(workload: Workload, seed: int, count: int) -> list[list[Op]]:
    rng = random.Random(f"{workload.name}/{seed}")
    return [workload.make_block(rng, index) for index in range(count)]
