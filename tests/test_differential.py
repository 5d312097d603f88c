"""The CLI differential as a golden: 150 random specs x 6 commands.

The specs are the first 150 of ``_random_spec(random.Random(2026))``
(``tests/test_acceptance.py``): both lattice families and all four lattice
classes, windows that often straddle a zero step or a zero of sigma, and
sum bases and P drawn at random.  Each is rendered to a file and run
through ``cli.main`` in-process with verify, the three solve kinds, adjoint
and table.  One line per record holds the spec index, the command, the exit
code and sha256 prefixes of stdout and stderr, so a change of any value,
error text or error point names its spec and command.  The exit codes read
488 x 0, 185 x 1, 122 x 2 and 105 x 3.

Regenerate the golden only in a change that says why outcomes moved:

    PYTHONPATH=src python -m tests.test_differential
"""

import contextlib
import hashlib
import io
import random
import tempfile
from pathlib import Path

from hyperlat.cli import main
from hyperlat.problem import render_problem
from tests.test_acceptance import _random_spec

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


def test_cli_differential_matches_its_golden(tmp_path):
    expected = GOLDEN.read_text(encoding="utf-8").splitlines()
    actual = differential_records(tmp_path)
    assert len(actual) == len(expected) == SPECS * len(COMMANDS)
    for want, got in zip(expected, actual):
        assert got == want, f"first differing record: golden {want!r}, now {got!r}"
    codes = [line.split()[2] for line in actual]
    assert [codes.count(c) for c in "0123"] == [488, 185, 122, 105]


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as scratch:
        GOLDEN.write_text("\n".join(differential_records(Path(scratch))) + "\n",
                          encoding="utf-8")
