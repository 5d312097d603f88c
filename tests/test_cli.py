"""End-to-end CLI tests: golden outputs, exit-code contract, determinism."""

import json
import re
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
GOLDEN = Path(__file__).resolve().parent / "golden"
DEMOS = REPO / "demos"

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
    ("mu-closed-form", 0, -1),
    ("tau-k-slope", 0, 0),
    ("level-k-pearson", 0, -1),
    ("product-rules", 0, -1),
    ("fundamental-theorem", -2, 1),
    ("telescoping-sum", 0, 0),
    ("degree-lowering", 0, -1),
    ("adjoint-product", 0, 0),
    ("lambda-star-closed-form", 0, 0),
    ("dual-reconstruction", 0, 0),
    ("sigma-star-degree", 0, -1),
    ("hat-tau-constancy", 0, 0),
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
    ("ell-gamma-consistency", -2, 1),
    ("eta-constancy", -2, 1),
    ("homogeneous-solution", -2, 1),
]


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


def run_cli(*args):
    return subprocess.run(
        [sys.executable, "-m", "hyperlat", *args],
        capture_output=True, text=True, cwd=REPO)


@pytest.mark.parametrize("golden_name, args", [
    ("solve_quadratic.csv", ("solve", "--spec", "demos/quadratic.spec")),
    ("solve_quadratic.json", ("solve", "--spec", "demos/quadratic.spec",
                              "--format", "json")),
    ("solve_qlattice_second.csv", ("solve", "--spec", "demos/qlattice.spec",
                                   "--kind", "second")),
    ("solve_generalized.json", ("solve", "--spec", "demos/generalized.spec",
                                "--kind", "generalized", "--format", "json")),
    ("verify_quadratic.txt", ("verify", "--spec", "demos/quadratic.spec")),
    ("verify_qlattice.txt", ("verify", "--spec", "demos/qlattice.spec")),
    ("adjoint_quadratic.csv", ("adjoint", "--spec", "demos/quadratic.spec")),
    ("table_qlattice.csv", ("table", "--spec", "demos/qlattice.spec")),
    ("adjoint_quadratic.json", ("adjoint", "--spec", "demos/quadratic.spec",
                                "--format", "json")),
    ("table_qlattice.json", ("table", "--spec", "demos/qlattice.spec",
                             "--format", "json")),
    ("verify_qlattice.json", ("verify", "--spec", "demos/qlattice.spec",
                              "--format", "json")),
    ("solve_qlattice_second.json", ("solve", "--spec", "demos/qlattice.spec",
                                    "--kind", "second", "--format", "json")),
])
def test_golden_outputs(golden_name, args):
    result = run_cli(*args)
    assert result.returncode == 0, result.stderr
    assert result.stdout == (GOLDEN / golden_name).read_text()


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


@pytest.mark.parametrize("format", ["csv", "json"])
@pytest.mark.parametrize("command", [
    ("solve", "--kind", "second"), ("verify",), ("adjoint",), ("table",)],
    ids=lambda command: command[0])
def test_out_writes_the_bytes_stdout_would_get(capsys, tmp_path, command, format):
    args = [command[0], "--spec", str(DEMOS / "qlattice.spec"), *command[1:],
            "--format", format]
    printed = _main_stdout(capsys, *args)
    out = tmp_path / "out"
    assert _main_stdout(capsys, *args, "--out", str(out)) == ""
    assert out.read_bytes() == printed.encode("utf-8")


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
    path = tmp_path / "approx.spec"
    path.write_text((DEMOS / "quadratic.spec").read_text() + "backend = approx\n")
    result = run_cli(command, "--spec", str(path))
    assert result.returncode == 2 and "Traceback" not in result.stderr
    assert "unknown key 'backend'" in result.stderr
    assert result.stdout == ""


def test_verify_names_degenerate_points(tmp_path):
    # every step division is guarded: a zero lattice step is a DegenerateStep
    # naming its point, never a bare ZeroDivisionError
    path = tmp_path / "degenerate-quad.spec"
    path.write_text(DEGENERATE_QUAD_SPEC)
    result = run_cli("verify", "--spec", str(path), "--format", "json")
    assert result.returncode == 1
    failed = {entry["name"]: entry["detail"]
              for entry in json.loads(result.stdout) if not entry["passed"]}
    assert len(failed) == 26
    for detail in failed.values():
        assert re.fullmatch(r"DegenerateStep: zero step of x_-?\d+ at s=-?\d+", detail)
    assert failed["mu-closed-form"] == "DegenerateStep: zero step of x_0 at s=-1"
    assert failed["dual-reconstruction"] == "DegenerateStep: zero step of x_0 at s=0"
    # the first point each check meets, in the order the formulas evaluate
    assert failed == {
        name: f"DegenerateStep: zero step of x_{k} at s={s}"
        for name, k, s in DEGENERATE_QUAD_FAILURES}


def test_verify_at_n_zero_on_the_shortest_window(tmp_path):
    path = tmp_path / "quad-a-n0.spec"
    path.write_text(QUAD_A_N0_SPEC)
    result = run_cli("verify", "--spec", str(path))
    assert result.returncode == 0, result.stdout
    assert result.stdout.splitlines()[-1] == "ok: 34 identities"


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
