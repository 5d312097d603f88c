"""The hyperlat benchmark.

    python3 bench/run.py --workload qq-bigint --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the library is imported from
``src/``.  With ``--trace 0`` the run times about ``--seconds`` worth of
operations (each run in three passes, see PASSES) and prints the end-to-end
metrics; with ``--trace 1`` it replays fewer operations through the public
layers and prints the per-layer metrics (see ``layers.py``).  The last line
of stdout is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the line before it is the run record, with the
interpreter, machine, commit, seed, ``src/`` line counts, fail ratio and,
on cli-mix, the int->str defect probe.  Workloads and their rationale are in
``workloads.py``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import dataclass
from pathlib import Path

from timing import ROOT, SCRATCH, SRC, OpTimeout, deadline, run_child

BENCH = Path(__file__).resolve().parent
GOLDEN = ROOT / "tests" / "golden"

# Set-up processes spread over each pass; setup_s is the median of all of
# them.  Set-up time follows the machine's phases, which last from seconds
# to a minute; samples taken over the whole run, rather than in a burst,
# make a run's median follow the run rather than one phase.
SETUP_REPEATS = 5
# Each operation runs once per pass, a whole pass apart, and its time is the
# slowest of its runs.  On a shared machine the slow state is the floor that
# recurs; faster phases, when neighbours idle, come and go over tens of
# seconds and made single timings of the same work differ by up to 1.4x
# between runs.
PASSES = 3
OP_TIMEOUT_S = 30
CLI_TIMEOUT_S = 30
PASS_CAP = 1.25            # no pass starts after PASS_CAP * --seconds
HARD_STOP_S = 100          # no operation starts later than this into a phase
TRACE_COST = 3             # a traced block takes about this many untraced ones
TAIL_BEYOND = 10

END_TO_END_UNITS = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "poly_p50_ms": "ms",
    "second_p50_ms": "ms",
    "generalized_p50_ms": "ms",
    "peak_rss_mb": "MB",
}
KIND_METRICS = {"polynomial": "poly_p50_ms", "second": "second_p50_ms",
                "generalized": "generalized_p50_ms"}


@dataclass
class Prepared:
    """An operation with its problem file parsed and, for CLI operations,
    written to disk."""

    op: object
    spec: object
    path: str


@dataclass
class Result:
    p: Prepared
    ms: float
    failure: str | None
    output: bytes   # hash of the exact values in-process, stdout of the CLI
    rss_mb: float = 0.0   # the CLI child's peak resident memory


def block_count(workload, seconds: float, traced: bool) -> int:
    per_block = workload.block_seconds * (TRACE_COST if traced else PASSES)
    return max(1, round(seconds / per_block))


def set_up(workload, args, work_dir: Path) -> list[list[Prepared]]:
    """Generate the seeded operations, write the CLI ones, parse them all."""
    from hyperlat import parse_problem_bytes
    from workloads import make_blocks

    blocks = []
    count = block_count(workload, args.seconds, args.trace)
    for b, block in enumerate(make_blocks(workload, args.seed, count)):
        prepared = []
        for i, op in enumerate(block):
            if op.demo is not None:
                path = str(ROOT / op.demo)
                data = Path(path).read_bytes()
            else:
                path = str(work_dir / f"b{b}-{i}.spec")
                data = op.spec
                if not workload.in_process:
                    Path(path).write_bytes(data)
            prepared.append(Prepared(op, parse_problem_bytes(data), path))
        blocks.append(prepared)
    return blocks


def time_set_up(args) -> float:
    """Wall time of a fresh process that does only this workload's set-up."""
    argv = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", str(args.seconds), "--setup-only"]
    child = run_child(argv, CLI_TIMEOUT_S)
    if child.code != 0:
        raise RuntimeError(f"set-up failed: {child.err.decode(errors='replace')}")
    return child.seconds


def run_in_process(p: Prepared) -> Result:
    from checks import hash_values, report_failure, solve_spec

    start = time.perf_counter()
    try:
        with deadline(OP_TIMEOUT_S):
            report = solve_spec(p.spec, p.op.kind)
    except OpTimeout:
        return Result(p, (time.perf_counter() - start) * 1e3, "timeout", b"")
    except Exception as exc:   # any error fails the operation, by class
        return Result(p, (time.perf_counter() - start) * 1e3, type(exc).__name__, b"")
    ms = (time.perf_counter() - start) * 1e3
    h = hashlib.sha256()
    hash_values(h, report.solution.values)
    hash_values(h, report.residual.values)
    return Result(p, ms, report_failure(report), h.digest())


def run_cli(p: Prepared, goldens: dict) -> Result:
    from checks import cli_failure

    start = time.perf_counter()
    try:
        child = run_child(
            [sys.executable, "-m", "hyperlat", *p.op.argv(p.path)], CLI_TIMEOUT_S)
    except OpTimeout:
        return Result(p, (time.perf_counter() - start) * 1e3, "timeout", b"")
    failure = cli_failure(p.op, p.spec, child.code, child.out, child.err,
                          goldens.get(p.op.golden))
    return Result(p, child.seconds * 1e3, failure, child.out, child.rss_mb)


def freeze_set_up() -> None:
    """Collect and freeze set-up garbage, so that collections during the
    run do not scan it."""
    gc.collect()
    gc.freeze()


def timed_passes(args, blocks, run_op) -> tuple[list[list[Result]], list[float], float]:
    """Run every operation once per pass, in the same order each pass, and
    time SETUP_REPEATS set-up processes spread evenly over each pass; return
    the results of each operation that ran, the set-up times, and the
    elapsed time."""
    ops = [p for block in blocks for p in block]
    freeze_set_up()
    runs = [[] for _ in ops]
    set_ups = []
    every = -(-len(ops) // SETUP_REPEATS)
    start = time.perf_counter()
    for number in range(PASSES):
        if number and time.perf_counter() - start >= PASS_CAP * args.seconds:
            break
        for i, (p, results) in enumerate(zip(ops, runs)):
            if time.perf_counter() - start > HARD_STOP_S:
                break
            if i % every == 0:
                set_ups.append(time_set_up(args))
            results.append(run_op(p))
    return [r for r in runs if r], set_ups, time.perf_counter() - start


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least TAIL_BEYOND samples beyond it,
    as (percentile, value): the (TAIL_BEYOND + 1)-th largest sample."""
    ordered = sorted(values)
    rank = max(1, len(ordered) - TAIL_BEYOND)
    return 100 * rank / len(ordered), ordered[rank - 1]


def known_defect(work_dir: Path) -> dict:
    """Run the int->str probe solves; their failures are recorded here."""
    from checks import error_class
    from workloads import known_defect_ops

    outcomes = []
    for i, op in enumerate(known_defect_ops()):
        path = work_dir / f"defect-{i}.spec"
        path.write_bytes(op.spec)
        child = run_child(
            [sys.executable, "-m", "hyperlat", *op.argv(str(path))], CLI_TIMEOUT_S)
        outcomes.append({"argv": ["solve", "--kind", op.kind, "(qq-b, n=2, window 12..51)"],
                         "exit": child.code, "stdout_bytes": len(child.out),
                         "error": error_class(child.err) if child.code else None})
    return {"attempted": len(outcomes), "failed": sum(o["exit"] != 0 for o in outcomes),
            "outcomes": outcomes}


def timed_run(args, workload, blocks, work_dir: Path, record: dict) -> dict:
    from checks import reference_mismatch

    goldens = {name: (GOLDEN / name).read_bytes()
               for name in {p.op.golden for block in blocks for p in block if p.op.golden}}
    if workload.in_process:
        run_op = run_in_process
    else:
        def run_op(p):
            return run_cli(p, goldens)
    runs, set_ups, elapsed = timed_passes(args, blocks, run_op)
    executions = [r for results in runs for r in results]
    failed = sum(r.failure is not None for r in executions)
    ops = []   # (op, time, failure): the slowest run, and the first failure
    failures = {}
    for results in runs:
        first = results[0]
        op = first.p.op
        failure = next((r.failure for r in results if r.failure), None)
        if failure is None and any(r.output != first.output for r in results):
            failure = "output differs between passes"
        if (failure is None and not workload.in_process and op.command == "solve"
                and op.golden is None and reference_mismatch(op, first.p.spec, first.output)):
            failure = "reference mismatch"
        if failure is not None:
            failures[failure] = failures.get(failure, 0) + 1
        ops.append((op, max(r.ms for r in results), failure))
    if not workload.in_process:
        record["known_defect"] = known_defect(work_dir)

    times = [ms for _op, ms, _failure in ops]
    certified = sum(failure is None for _op, _ms, failure in ops)
    # Over every run, not every operation: with 18 operations the tail
    # would lie below the median.
    tail_p, tail_ms = tail([r.ms for r in executions])
    if workload.in_process:
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    else:   # the timed CLI children only, not set-up or probe processes
        peak_rss_mb = max(r.rss_mb for r in executions)
    metrics = {
        "setup_s": statistics.median(set_ups),
        "ops_per_s": certified / (sum(times) / 1e3),
        "op_p50_ms": statistics.median(times),
        "op_tail_ms": tail_ms,
        "peak_rss_mb": peak_rss_mb,
    }
    notes = {"setup_s": f"median of {len(set_ups)} set-up processes",
             "ops_per_s": f"{certified} certified in {sum(times) / 1e3:.1f} s",
             "op_p50_ms": f"{len(times)} operations, each its slowest of {PASSES} runs",
             "op_tail_ms": f"p{tail_p:.1f} of {len(executions)} runs",
             "fail_ratio": f"{failed} of {len(executions)} runs failed"}
    for kind, name in KIND_METRICS.items():
        kind_times = [ms for op, ms, _f in ops if op.command == "solve" and op.kind == kind]
        metrics[name] = statistics.median(kind_times)
        notes[name] = f"{len(kind_times)} {kind} solves"
    verify = [ms for op, ms, _f in ops if op.command == "verify"]
    if verify:
        record["verify_p50_ms"] = statistics.median(verify)
        notes["verify_p50_ms"] = f"{len(verify)} verify processes"
    h = hashlib.sha256()
    for results in runs:
        h.update(hashlib.sha256(results[0].output).digest())
    record.update({
        "operations": len(ops), "passes": max(map(len, runs)), "timed_s": elapsed,
        "notes": notes,
        "setup_s_samples": set_ups,
        "fail_ratio": failed / len(executions),
        "failures": failures,
        "digest": h.hexdigest()[:32],
    })
    return {
        "correct": all(f is None for _op, _ms, f in ops),
        "attempted": len(executions),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
    }


def traced_run(args, workload, blocks, work_dir: Path, record: dict) -> dict:
    from checks import cli_failure, solve_spec
    from hyperlat import parse_problem_bytes
    from layers import (Tracer, format_values, probe_interpreter, run_cli_main,
                        trace_layers, trace_solve)
    from workloads import known_defect_ops

    t = Tracer()
    goldens = {}
    failures = []

    def trace_op(p: Prepared) -> Result:
        t.op += 1
        op = p.op
        failure = None
        start = time.perf_counter()
        try:
            with deadline(OP_TIMEOUT_S):
                data = op.spec or Path(p.path).read_bytes()
                spec = trace_layers(t, op.command, data)
                if op.command == "solve":
                    failure, report = trace_solve(t, spec, op.kind)
                    format_values(t, report.solution.values + report.residual.values)
                if not workload.in_process:
                    code, out = run_cli_main(t, op.argv(p.path))
                    if op.golden and op.golden not in goldens:
                        goldens[op.golden] = (GOLDEN / op.golden).read_bytes()
                    if code is None:
                        failure = failure or "cli.main raised"
                    failure = failure or cli_failure(op, spec, code, out, b"",
                                                     goldens.get(op.golden))
        except OpTimeout:
            failure = "timeout"
        except Exception as exc:   # any error fails the operation, by class
            failure = type(exc).__name__
        if failure:
            failures.append(failure)
        return Result(p, (time.perf_counter() - start) * 1e3, failure, b"")

    freeze_set_up()
    start = time.perf_counter()
    results = []
    for p in (p for block in blocks for p in block):
        if time.perf_counter() - start > HARD_STOP_S:
            break
        results.append(trace_op(p))
    elapsed = time.perf_counter() - start
    if workload.in_process:
        # The CLI layers on this workload's own problems: the identity suite,
        # the adjoint coefficients and a CLI solve of the lowest-order problem
        # of each configuration in the first block.
        first = {}
        for p in sorted(blocks[0], key=lambda p: p.spec.n):
            first.setdefault(p.op.config, p)
        for p in first.values():
            t.op += 1
            Path(p.path).write_bytes(p.op.spec)
            for command in ("verify", "adjoint"):
                trace_layers(t, command, p.op.spec)
            run_cli_main(t, p.op.argv(p.path))
    # The int->str probe, in-process: cli.main raises ValueError (counted in
    # cli.main.errors), and so does format_scalar on the values above the
    # digit limit (counted in numerics.format_scalar.errors).
    for i, op in enumerate(known_defect_ops()):
        t.op += 1
        path = work_dir / f"defect-{i}.spec"
        path.write_bytes(op.spec)
        run_cli_main(t, op.argv(str(path)))
        format_values(t, solve_spec(parse_problem_bytes(op.spec), op.kind).solution.values)
    probe_interpreter(t)
    trace_path = SCRATCH / f"trace-{args.workload}-seed{args.seed}.json"
    t.write(trace_path)
    record.update({"operations": len(results), "traced_s": elapsed,
                   "trace_file": str(trace_path.relative_to(ROOT)),
                   "failures": {f: failures.count(f) for f in set(failures)}})
    return {
        "correct": not failures,
        "attempted": len(results),
        "failed": len(failures),
        "metrics": t.metrics(),
    }


def git_commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def src_lines() -> dict:
    counts = {p.name: len(p.read_text().splitlines())
              for p in sorted((SRC / "hyperlat").glob("*.py"))}
    counts["total"] = sum(counts.values())
    return counts


def main(argv=None) -> int:
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="only generate and parse the operations (times set-up)")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    missing = [str(p.relative_to(ROOT)) for p in (SRC / "hyperlat" / "__init__.py", GOLDEN,
                                                  ROOT / "demos") if not p.exists()]
    if missing:
        print(f"error: not a hyperlat checkout, missing {', '.join(missing)}",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    SCRATCH.mkdir(exist_ok=True)
    work_dir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=SCRATCH))
    try:
        blocks = set_up(workload, args, work_dir)
        if args.setup_only:
            return 0
        record = {
            "workload": workload.name, "why": workload.why, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "python": platform.python_version(), "nproc": os.cpu_count(),
            "int_max_str_digits": sys.get_int_max_str_digits(),
            "git_commit": git_commit(), "src_lines": src_lines(),
        }
        run = traced_run if args.trace else timed_run
        result = run(args, workload, blocks, work_dir, record)
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    notes = record.get("notes", {})
    for name, metric in result["metrics"].items():
        print(f"{name:44} {metric['value']:>14.6g} {metric['unit']:6} {notes.get(name, '')}")
    if "fail_ratio" in record:
        print(f"{'fail_ratio':44} {record['fail_ratio']:>14.6g} {'ratio':6} "
              f"{notes['fail_ratio']}")
    if "verify_p50_ms" in record:
        print(f"{'verify_p50_ms':44} {record['verify_p50_ms']:>14.6g} {'ms':6} "
              f"{notes['verify_p50_ms']}")
    print(json.dumps({"record": record}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
