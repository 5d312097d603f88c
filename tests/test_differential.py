"""The CLI differential as a golden: 150 random specs x 6 commands.

The specs are the first 150 of ``_random_spec(random.Random(2026))``
(``tests/test_acceptance.py``): both lattice families and all four lattice
classes, windows that often straddle a zero step or a zero of sigma, and
sum bases and P drawn at random.  Each is rendered to a file and run
through ``cli.main`` in-process with verify, the three solve kinds, adjoint
and table.  One line per record holds the spec index, the command, the exit
code and sha256 prefixes of stdout and stderr, so a change of any value,
error text or error point names its spec and command.  The exit codes read
504 x 0, 184 x 1, 122 x 2 and 90 x 3.

Regenerate the golden only in a change that says why outcomes moved:

    PYTHONPATH=src python -m tests.test_differential

which also prints to stderr, for each command, how many records moved and
their old -> new exit codes, and the tally of exit codes before and after.
"""

import contextlib
import hashlib
import io
import random
import sys
import tempfile
from collections import Counter
from pathlib import Path

from hyperlat.cli import main
from tests.test_acceptance import _random_spec
from tests.test_problem import render_problem

GOLDEN = Path(__file__).resolve().parent / "golden" / "differential_2026.txt"
SPECS = 150
COMMANDS = {
    "verify": ("verify",),
    "solve-polynomial": ("solve", "--kind", "polynomial"),
    "solve-second": ("solve", "--kind", "second"),
    "solve-generalized": ("solve", "--kind", "generalized"),
    "adjoint": ("adjoint",),
    "table": ("table",),
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()[:16]


def differential_records(directory: Path) -> list[str]:
    """One line per (spec, command): index, command, exit code and the
    digests of stdout and stderr."""
    rng = random.Random(2026)
    records = []
    for index in range(SPECS):
        path = directory / f"spec-{index}.spec"
        path.write_text(render_problem(_random_spec(rng)), encoding="utf-8")
        for name, (command, *options) in COMMANDS.items():
            out, err = io.StringIO(), io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                code = main([command, "--spec", str(path), *options])
            records.append(f"{index} {name} {code} "
                           f"{_digest(out.getvalue())} {_digest(err.getvalue())}")
    return records


def moved_records(old: list[str], new: list[str]) -> list[str]:
    """For each command with a moved record, the count and the old -> new
    exit codes of its moves; then the tally of exit codes 0..3 before and
    after."""
    moves = {}
    for before, after in zip(old, new):
        if before != after:
            name, code = before.split()[1:3]
            moves.setdefault(name, Counter())[code, after.split()[2]] += 1
    lines = [f"{name}: {sum(codes.values())} moved ("
             + ", ".join(f"{a} -> {b}: {n}" for (a, b), n in sorted(codes.items())) + ")"
             for name, codes in moves.items()]
    tally = lambda records: "/".join(str([r.split()[2] for r in records].count(c)) for c in "0123")
    return lines + [f"exit codes 0/1/2/3: {tally(old)} -> {tally(new)}"]


def test_moved_records_counts_each_command_and_its_exit_codes():
    old = ["0 verify 1 a b", "0 adjoint 3 c d", "1 verify 1 e f", "1 adjoint 0 g h"]
    new = ["0 verify 0 x b", "0 adjoint 0 y h", "1 verify 1 z f", "1 adjoint 0 g h"]
    assert moved_records(old, new) == [
        "verify: 2 moved (1 -> 0: 1, 1 -> 1: 1)", "adjoint: 1 moved (3 -> 0: 1)",
        "exit codes 0/1/2/3: 1/2/0/1 -> 3/1/0/0"]


def test_cli_differential_matches_its_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = differential_records(tmp_path)
    assert len(actual) == len(expected) == SPECS * len(COMMANDS)
    for want, got in zip(expected, actual):
        assert got == want, f"first differing record: golden {want!r}, now {got!r}"
    codes = [line.split()[2] for line in actual]
    assert [codes.count(c) for c in "0123"] == [504, 184, 122, 90]


if __name__ == "__main__":
    previous = GOLDEN.read_text(encoding="utf-8").splitlines()
    with tempfile.TemporaryDirectory() as scratch:
        records = differential_records(Path(scratch))
    GOLDEN.write_text("\n".join(records) + "\n", encoding="utf-8")
    print("\n".join(moved_records(previous, records)), file=sys.stderr)
