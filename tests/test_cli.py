"""End-to-end tests: every demo-spec CLI call and demo script, golden
outputs, the exit-code contract, determinism."""

import functools
import json
import os
import re
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = REPO / "demos"


def _demo_calls() -> dict:
    """Each demo spec x (verify, every solve kind it supports, adjoint,
    table) x (csv, json), by name; run from the repository root.  CSV and
    the polynomial kind are the defaults, so their flags are left out."""
    calls = {}
    for spec in sorted(DEMOS.glob("*.spec")):
        kinds = ["second"]
        if re.search(r"^P *=", spec.read_text(), re.MULTILINE):
            kinds.append("generalized")
        commands = {"verify": ("verify",), "solve-polynomial": ("solve",),
                    **{f"solve-{kind}": ("solve", "--kind", kind) for kind in kinds},
                    "adjoint": ("adjoint",), "table": ("table",)}
        for format, flags in (("csv", ()), ("json", ("--format", "json"))):
            for name, (command, *options) in commands.items():
                calls[f"{spec.stem}-{name}-{format}"] = (
                    command, "--spec", f"demos/{spec.name}", *options, *flags)
    return calls


DEMO_CALLS = _demo_calls()

# the demo calls whose printed bytes are pinned, and their file in golden/
GOLDEN_CALLS = {
    "quadratic-solve-polynomial-csv": "solve_quadratic.csv",
    "quadratic-solve-polynomial-json": "solve_quadratic.json",
    "qlattice-solve-second-csv": "solve_qlattice_second.csv",
    "generalized-solve-generalized-json": "solve_generalized.json",
    "quadratic-verify-csv": "verify_quadratic.txt",
    "qlattice-verify-csv": "verify_qlattice.txt",
    "quadratic-adjoint-csv": "adjoint_quadratic.csv",
    "qlattice-table-csv": "table_qlattice.csv",
    "quadratic-adjoint-json": "adjoint_quadratic.json",
    "qlattice-table-json": "table_qlattice.json",
    "qlattice-verify-json": "verify_qlattice.json",
    "qlattice-solve-second-json": "solve_qlattice_second.json",
}

SINGULAR_SPEC = """\
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = -2, 1, 0     # sigma(s) = (s+2)(s-1) vanishes at s = 1
tau = 0, 0
n = 2
window = -1..10
"""


# quad-a on a window through the zero steps of x_0 (s = 0) and x_-2 (s = 1)
DEGENERATE_QUAD_SPEC = """\
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = 0, 1, 0
tau = 1, -2
n = 2
window = -2..10
"""

# (check, level k, point s) of the first zero step each failing check meets
DEGENERATE_QUAD_FAILURES = [
    ("level-k-pearson", 0, -1),
    ("product-rules", 0, -1),
    ("fundamental-theorem", -2, 1),
    ("telescoping-sum", 0, 0),
    ("degree-lowering", 0, -1),
    ("adjoint-product", 0, 0),
    ("weight-product-ladder", -2, 0),
    ("y1-is-tau", 0, 0),
    ("rodrigues-residual", -2, 0),
    ("second-kind-residual", -2, 0),
    ("solution-linearity", -2, 0),
    ("rodrigues-two-paths", -2, 0),
    ("weight-scale-invariance", -2, 0),
    ("sum-base-shift", -2, 0),
    ("generalized-residual", -2, 0),
    ("oracle-agreement", -2, 0),
    ("weight-first-order", -2, 1),
]

# the identities whose whole check divides by no step: the adjoint built on
# the whole lattice, and the lines of the ladder as form identities
DEGENERATE_QUAD_PASSES = ("mu-closed-form", "tau-k-slope", "dual-reconstruction",
                          "hat-tau-constancy", "eta-constancy")

# differential spec 35: x = 2s^2 + 1 is symmetric about s = 0, so a sampled
# slope of tau_-6 met the mirror pair s = 5/2 of x_-6
MIRROR_PAIR_SPEC = """\
lattice = quadratic
ct1 = 2
ct2 = 0
ct3 = 1
sigma = 0, 1/2, -8/5
tau = -5/6, -4/7
n = 0
window = 3/2..17/2
P = 4/3
"""


# quad-a at n = 0 on the shortest window the parser allows: the checks that
# run at n = 1 must build their weight for n = 1
QUAD_A_N0_SPEC = """\
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = 0, 1, 0
tau = 1, -2
n = 0
window = 4..8
"""


# qq-b with values of up to about 9,500 digits, beyond CPython's default
# int->str limit of 4,300 digits
QQ_B_BIG_SPEC = """\
lattice = qquadratic
p = 3/2
c1 = 1
c2 = 1
c3 = 0
sigma = 1, 0, 1
tau = 2, -3
n = 2
window = 12..51
P = 1, -1/2, 3
"""

# sigma vanishes at s = 19 only; solve reads rho up to end + n + 1 = 18
SIGMA_ZERO_BEYOND_SOLVE_SPEC = """\
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = -501327/14, 1, 1/7
tau = 1, -2
n = 2
window = 4..15
"""

# quad-a left of its centre s = -1/2: the n-fold difference over the whole
# window would divide by the zero step of x_-2 at s = 0, past the window's
# end; the (n + 1)-point Rodrigues stencil starts at the left end
LEFT_OF_CENTRE_SPEC = """\
lattice = quadratic
ct1 = 1
ct2 = 1
ct3 = 0
sigma = 0, 1, 0
tau = 1, -2
n = 2
window = -10..-2
"""


def run_cli(*args, launcher=("-m", "hyperlat")):
    # the child imports hyperlat from this checkout, installed or not
    path = os.pathsep.join(filter(None, [str(REPO / "src"), os.environ.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, *launcher, *args],
        capture_output=True, text=True, cwd=REPO, env={**os.environ, "PYTHONPATH": path})


@functools.cache
def run_cli_once(*args):
    """``run_cli`` for a call that several tests read, such as a golden call:
    one subprocess per argument tuple and test session."""
    return run_cli(*args)


@pytest.mark.parametrize("golden_name, args", [
    (golden_name, DEMO_CALLS[call]) for call, golden_name in GOLDEN_CALLS.items()])
def test_golden_outputs(golden_name, args):
    result = run_cli_once(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden_name).read_text()


def test_console_entry_point_prints_the_verify_golden():
    # console_main is what the installed ``hyperlat`` script calls
    result = run_cli("verify", "--spec", "demos/quadratic.spec", launcher=(
        "-c", "from hyperlat.cli import console_main; console_main()"))
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / "verify_quadratic.txt").read_text()


def test_determinism():
    first = run_cli("solve", "--spec", "demos/qlattice.spec")
    second = run_cli("solve", "--spec", "demos/qlattice.spec")
    assert first.returncode == second.returncode == 0
    assert first.stdout == second.stdout


def test_out_flag_writes_file(tmp_path):
    out = tmp_path / "solution.csv"
    result = run_cli("solve", "--spec", "demos/quadratic.spec", "--out", str(out))
    assert result.returncode == 0
    assert out.read_text() == (GOLDEN / "solve_quadratic.csv").read_text()
    assert result.stdout == ""


@pytest.mark.parametrize("call", DEMO_CALLS)
def test_demo_call(capsys, tmp_path, monkeypatch, call):
    # exit 0; --out writes exactly the bytes stdout gets and prints nothing;
    # a pinned call prints its golden
    monkeypatch.chdir(REPO)
    args = DEMO_CALLS[call]
    printed = _main_stdout(capsys, *args)
    out = tmp_path / "out"
    assert _main_stdout(capsys, *args, "--out", str(out)) == ""
    assert out.read_bytes() == printed.encode("utf-8")
    if call in GOLDEN_CALLS:
        assert printed == (GOLDEN / GOLDEN_CALLS[call]).read_text()


@pytest.mark.parametrize("script", sorted(DEMOS.glob("demo_*.py")),
                         ids=lambda script: script.stem)
def test_demo_script(capsys, script):
    runpy.run_path(str(script), run_name="__main__")
    assert capsys.readouterr().out


def test_wrong_lambda_exits_one(tmp_path):
    spec = (DEMOS / "quadratic.spec").read_text() + "lambda = 1\n"
    path = tmp_path / "wrong.spec"
    path.write_text(spec)
    result = run_cli("solve", "--spec", str(path))
    assert result.returncode == 1
    # residual column is populated and nonzero
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "s,value,residual"
    assert any(line.rsplit(",", 1)[1] != "0" for line in lines[1:])


def test_tol_cannot_excuse_wrong_lambda(tmp_path):
    # exactness is the only contract: a wrong lambda fails, and no flag
    # can excuse it
    path = tmp_path / "wrong.spec"
    path.write_text((DEMOS / "quadratic.spec").read_text() + "lambda = 1\n")
    assert run_cli("solve", "--spec", str(path)).returncode == 1
    result = run_cli("solve", "--spec", str(path), "--tol", "1000000")
    assert result.returncode == 2
    assert "unrecognized arguments: --tol" in result.stderr
    assert "Traceback" not in result.stderr


@pytest.mark.parametrize("command", ["solve", "verify", "adjoint", "table"])
def test_tol_flag_and_backend_key_are_usage_errors(tmp_path, command):
    result = run_cli(command, "--spec", "demos/quadratic.spec", "--tol", "0")
    assert result.returncode == 2 and "Traceback" not in result.stderr
    # neither an arithmetic mode nor a lattice gate exists to switch
    for key, value in (("backend", "approx"), ("allow_degenerate", "true")):
        path = tmp_path / f"{key}.spec"
        path.write_text((DEMOS / "quadratic.spec").read_text() + f"{key} = {value}\n")
        result = run_cli(command, "--spec", str(path))
        assert result.returncode == 2 and "Traceback" not in result.stderr
        assert f"unknown key '{key}'" in result.stderr
        assert result.stdout == ""


@pytest.mark.parametrize("spec, constant, message", [
    ("quadratic.spec", ("ct1", "ct2"), "quadratic lattice needs ct1 or ct2 nonzero"),
    ("qlattice.spec", ("c1", "c2"), "q-quadratic lattice needs c1 or c2 nonzero"),
], ids=["quadratic", "qquadratic"])
def test_every_command_rejects_a_constant_lattice(capsys, tmp_path, spec, constant, message):
    text = (DEMOS / spec).read_text()
    for key in constant:
        text = re.sub(rf"^{key} = .*$", f"{key} = 0", text, flags=re.MULTILINE)
    path = tmp_path / spec
    path.write_text(text)
    from hyperlat import cli
    for command in (["verify"], ["solve"], ["solve", "--kind", "second"],
                    ["solve", "--kind", "generalized"], ["adjoint"], ["table"]):
        assert cli.main([command[0], "--spec", str(path), *command[1:]]) == 2, command
        out, err = capsys.readouterr()
        assert out == ""
        # reported at the lattice line, the second line of each demo spec
        assert err == f"2:1: error: {message} (x(s) is constant)\n"


def test_verify_names_degenerate_points(tmp_path):
    # every step division is guarded: a zero lattice step is a DegenerateStep
    # naming its point, never a bare ZeroDivisionError
    path = tmp_path / "degenerate-quad.spec"
    path.write_text(DEGENERATE_QUAD_SPEC)
    result = run_cli("verify", "--spec", str(path), "--format", "json")
    assert result.returncode == 1
    failed = {entry["name"]: entry["detail"]
              for entry in json.loads(result.stdout) if not entry["passed"]}
    assert len(failed) == 17
    for detail in failed.values():
        assert re.fullmatch(r"DegenerateStep: zero step of x_-?\d+ at s=-?\d+", detail)
    assert not failed.keys() & set(DEGENERATE_QUAD_PASSES)
    # the first point each check meets, in the order the formulas evaluate
    assert failed == {
        name: f"DegenerateStep: zero step of x_{k} at s={s}"
        for name, k, s in DEGENERATE_QUAD_FAILURES}


def test_verify_passes_on_a_window_with_a_mirror_pair(tmp_path, capsys):
    path = tmp_path / "mirror-pair.spec"
    path.write_text(MIRROR_PAIR_SPEC)
    out = _main_stdout(capsys, "verify", "--spec", str(path))
    assert out.splitlines()[-1] == "ok: 29 identities"


def test_adjoint_on_a_window_through_the_mirror_centre(tmp_path, capsys):
    """lambda* is checked once, on the whole lattice, where the adjoint is
    built, so ``hyperlat adjoint`` tabulates tau* on a window through the
    zero step of x_0 at s = 0 as on the part of it that avoids the step."""
    whole, part = tmp_path / "whole.spec", tmp_path / "part.spec"
    whole.write_text(DEGENERATE_QUAD_SPEC)
    part.write_text(DEGENERATE_QUAD_SPEC.replace("window = -2..10", "window = 1..10"))
    grid, scalars = _main_stdout(capsys, "adjoint", "--spec", str(whole)).split("\n\n")
    part_grid, part_scalars = _main_stdout(capsys, "adjoint", "--spec", str(part)).split("\n\n")
    rows, part_rows = grid.split("\n"), part_grid.split("\n")
    assert len(rows) == 14 and rows[4].startswith("1,") and rows[4:] == part_rows[1:]
    assert scalars == part_scalars and "lambda_star,6" in scalars.split("\n")


def test_verify_at_n_zero_on_the_shortest_window(tmp_path):
    path = tmp_path / "quad-a-n0.spec"
    path.write_text(QUAD_A_N0_SPEC)
    result = run_cli("verify", "--spec", str(path))
    assert result.returncode == 0, result.stdout
    assert result.stdout.splitlines()[-1] == "ok: 29 identities"


@pytest.mark.parametrize("kind", ["second", "generalized"])
def test_solve_prints_values_beyond_the_int_str_digit_limit(tmp_path, kind):
    path = tmp_path / "qq-b-big.spec"
    path.write_text(QQ_B_BIG_SPEC)
    result = run_cli("solve", "--spec", str(path), "--kind", kind)
    assert result.returncode == 0 and "Traceback" not in result.stderr
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 40
    assert all(residual == "0" for _s, _value, residual in rows)
    assert max(len(value) for _s, value, _r in rows) > sys.get_int_max_str_digits()
    payload = json.loads(run_cli("solve", "--spec", str(path), "--kind", kind,
                                 "--format", "json").stdout)
    assert payload["values"] == [value for _s, value, _r in rows]
    assert payload["residual_max_abs"] == "0"


@pytest.mark.parametrize("kind", ["polynomial", "second"])
def test_solve_ignores_sigma_zeros_it_never_reads(tmp_path, kind):
    path = tmp_path / "sigma-zero.spec"
    path.write_text(SIGMA_ZERO_BEYOND_SOLVE_SPEC)
    result = run_cli("solve", "--spec", str(path), "--kind", kind)
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 12
    assert all(residual == "0" for _s, _value, residual in rows)


def test_solve_steps_round_zero_steps_outside_the_stencil(tmp_path):
    path = tmp_path / "left-of-centre.spec"
    path.write_text(LEFT_OF_CENTRE_SPEC)
    result = run_cli("solve", "--spec", str(path))
    assert result.returncode == 0, result.stderr
    assert result.stderr == ""
    rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
    assert len(rows) == 9
    assert all(residual == "0" for _s, _value, residual in rows)
    assert all(value != "0" for _s, value, _r in rows)


def test_verify_rejects_a_sum_base_outside_the_weight_window_as_solve_does(tmp_path):
    # window 4..15 at n = 2 has the weight window 3..18; window.start - 2 parses
    spec = (DEMOS / "qlattice.spec").read_text() + "sum_base = 2\n"
    path = tmp_path / "far-sum-base.spec"
    path.write_text(spec)
    verify = run_cli("verify", "--spec", str(path))
    solve = run_cli("solve", "--spec", str(path), "--kind", "second")
    for result in (verify, solve):
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr == "error: sum base 2 must lie in 3..18\n"


def test_parse_error_exits_two(tmp_path):
    path = tmp_path / "broken.spec"
    path.write_text("lattice = nosuch\nn = -1\n")
    result = run_cli("solve", "--spec", str(path))
    assert result.returncode == 2
    assert "error" in result.stderr
    assert result.stdout == ""


def test_missing_file_exits_two(tmp_path):
    result = run_cli("solve", "--spec", str(tmp_path / "absent.spec"))
    assert result.returncode == 2


@pytest.mark.parametrize("args", [
    ("verify", "--spec", "demos"),
    ("table", "--spec", "demos/qlattice.spec", "--out", "{tmp}"),
], ids=["spec-is-a-directory", "out-is-a-directory"])
def test_directory_path_exits_two_without_traceback(tmp_path, args):
    result = run_cli(*(arg.format(tmp=tmp_path) for arg in args))
    assert result.returncode == 2
    assert result.stderr.startswith("error: ")
    assert "Traceback" not in result.stderr
    assert result.stdout == ""


def test_singularity_exits_three(tmp_path):
    path = tmp_path / "singular.spec"
    path.write_text(SINGULAR_SPEC)
    result = run_cli("solve", "--spec", str(path))
    assert result.returncode == 3
    assert "s=1" in result.stderr


def test_generalized_without_p_exits_two(tmp_path):
    result = run_cli("solve", "--spec", "demos/quadratic.spec",
                     "--kind", "generalized")
    assert result.returncode == 2
    assert "requires P" in result.stderr


def test_verify_failure_names_identity(tmp_path):
    # a window crossing the q-lattice symmetry point makes level steps
    # degenerate; the affected identities must fail by name, exit 1
    spec = (DEMOS / "qlattice.spec").read_text().replace(
        "window = 4..15", "window = -2..9")
    path = tmp_path / "degenerate-window.spec"
    path.write_text(spec)
    result = run_cli("verify", "--spec", str(path))
    assert result.returncode == 1
    assert "FAIL" in result.stdout
    assert result.stdout.strip().split("\n")[-1].startswith("FAILED: ")


def test_verify_json_format():
    result = run_cli("verify", "--spec", "demos/quadratic.spec",
                     "--format", "json")
    assert result.returncode == 0
    payload = json.loads(result.stdout)
    assert all(entry["passed"] for entry in payload)
    assert len(payload) >= 10


def test_adjoint_table_columns():
    result = run_cli("adjoint", "--spec", "demos/quadratic.spec")
    lines = result.stdout.split("\n")
    assert lines[0] == "s,sigma_star,tau_star"
    # scalar section carries the closed-form cross-check values
    assert any(line.startswith("lambda_star,") for line in lines)
    assert any(line.startswith("kappa_minus_one,") for line in lines)


def _main_stdout(capsys, *args):
    from hyperlat import cli
    assert cli.main(list(args)) == 0
    return capsys.readouterr().out


@pytest.mark.parametrize("name", ["quadratic.spec", "qlattice.spec"])
def test_adjoint_json_matches_csv(capsys, name):
    spec = str(DEMOS / name)
    payload = json.loads(_main_stdout(capsys, "adjoint", "--spec", spec, "--format", "json"))
    grid, scalars = _main_stdout(capsys, "adjoint", "--spec", spec).split("\n\n")
    header, *rows = [line.split(",") for line in grid.split("\n")]
    assert header == ["s", "sigma_star", "tau_star"]
    assert [list(col) for col in zip(*rows)] == [
        payload["s"], payload["sigma_star"], payload["tau_star"]]
    assert payload["window"] == {"start": payload["s"][0], "length": len(rows)}
    name_header, *pairs = [line.split(",") for line in scalars.strip().split("\n")]
    assert name_header == ["name", "value"]
    assert {name: value for name, value in pairs} == {
        key: value for key, value in payload.items()
        if key not in ("window", "s", "sigma_star", "tau_star")}


@pytest.mark.parametrize("name", ["quadratic.spec", "qlattice.spec"])
def test_table_json_matches_csv(capsys, name):
    spec = str(DEMOS / name)
    payload = json.loads(_main_stdout(capsys, "table", "--spec", spec, "--format", "json"))
    header, *rows = [line.split(",") for line in
                     _main_stdout(capsys, "table", "--spec", spec).strip().split("\n")]
    assert [list(entry) for entry in payload] == [header] * len(rows)
    assert [[str(entry[key]) for key in header] for entry in payload] == rows
    assert [entry["k"] for entry in payload] == list(range(len(rows)))


def test_table_columns_and_ladder():
    result = run_cli("table", "--spec", "demos/qlattice.spec")
    lines = result.stdout.strip().split("\n")
    assert lines[0] == "k,nu,alpha,kappa,kappa_2k_plus_1,mu,lambda,hat_mu"
    assert len(lines) == 4          # k = 0..n with n = 2
    first = lines[1].split(",")
    assert first[0] == "0" and first[1] == "0" and first[2] == "1"
    assert first[6] == "0"          # lambda_0 = 0


def test_usage_error_exits_two():
    result = run_cli("solve")       # --spec missing
    assert result.returncode == 2


def test_the_identity_suite_is_imported_only_when_asked_for():
    """``import hyperlat`` and the CLI module leave the identity suite
    unloaded; its names still import from the package on first access."""
    result = run_cli(launcher=("-c", "\n".join([
        "import sys, hyperlat, hyperlat.cli",
        "assert 'hyperlat.identities' not in sys.modules",
        "from hyperlat import IdentityResult, identity_names, run_identity_suite",
        "assert 'hyperlat.identities' in sys.modules",
        "print(len(identity_names()))"])))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "29\n"


def test_solve_adjoint_and_table_never_load_the_identity_suite():
    """One process runs ``cli.main`` for every solve kind, ``adjoint`` and
    ``table`` call on the demo specs (CSV and JSON): afterwards
    ``hyperlat.identities`` is still unloaded, and neither solve module
    holds verify's oracle, views or the deleted dual."""
    calls = [call for call in DEMO_CALLS.values() if call[0] != "verify"]
    result = run_cli(launcher=("-c", "\n".join([
        "import contextlib, io, sys",
        "import hyperlat.cli, hyperlat.equation as eqn, hyperlat.solutions as sol",
        f"for argv in {calls!r}:",
        "    with contextlib.redirect_stdout(io.StringIO()):",
        "        assert hyperlat.cli.main(list(argv)) == 0, argv",
        "names = ('brute_force_polynomial_oracle', 'nullspace', 'polynomial_coefficients',",
        "         'gamma_ell_eta', 'Y_n', 'casoratian', 'PearsonWeight', 'pearson_weight',",
        "         'rho_k', 'dual_coefficients')",
        "print('hyperlat.identities' in sys.modules,",
        "      [name for name in names if hasattr(sol, name) or hasattr(eqn, name)])"])))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "False []\n"


def test_star_import_brings_every_public_name():
    """``__all__`` is every public name of the package, those of the
    identity suite and its references included, which ``from hyperlat
    import *`` imports; a plain import still leaves the suite unloaded."""
    result = run_cli(launcher=("-c", "\n".join([
        "import sys, types, hyperlat",
        "assert 'hyperlat.identities' not in sys.modules",
        "public = {name for name, value in vars(hyperlat).items()",
        "          if not name.startswith('_') and not isinstance(value, types.ModuleType)}",
        "lazy = {'IdentityResult', 'identity_names', 'run_identity_suite',",
        "        'PearsonWeight', 'pearson_weight', 'rho_k', 'Y_n', 'casoratian',",
        "        'brute_force_polynomial_oracle', 'nullspace', 'polynomial_coefficients'}",
        "assert sorted(hyperlat.__all__) == sorted(public | lazy), hyperlat.__all__",
        "from hyperlat import *",
        "print(run_identity_suite.__module__, Y_n.__module__, solve.__module__)"])))
    assert result.returncode == 0, result.stderr
    assert result.stdout == "hyperlat.identities hyperlat.identities hyperlat.solutions\n"


def test_a_solve_process_imports_no_code_generation_or_json():
    """Under ``python -S`` (no ``site``, which may preload modules), a CSV
    solve through the CLI leaves ``dataclasses`` (and the ``inspect``
    behind it), ``json`` and ``typing`` unimported."""
    result = subprocess.run(
        [sys.executable, "-S", "-c", "\n".join([
            "import sys",
            "import hyperlat.cli",
            "code = hyperlat.cli.main(['solve', '--spec', 'demos/quadratic.spec'])",
            "names = ('dataclasses', 'inspect', 'json', 'typing')",
            "print(code, [name for name in names if name in sys.modules], file=sys.stderr)"])],
        capture_output=True, text=True, cwd=REPO,
        env={**os.environ, "PYTHONPATH": str(REPO / "src")})
    assert result.stderr == "0 []\n"
    assert result.stdout == (GOLDEN / "solve_quadratic.csv").read_text()
