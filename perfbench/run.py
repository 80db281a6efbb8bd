"""framekit benchmark: one workload's pass of CLI calls, repeated in a closed loop.

    python3 perfbench/run.py --workload extract-sweep --seed 1 --seconds 40 --trace 0

Run from the root of a framekit source tree.  The CLI is driven in-process
through ``framekit.cli.main(argv)`` by a single client that issues the next
call only when the previous one has returned.  Passes repeat until the next
one would end after ``--seconds``; at least one always runs.  Every output is
checked after the pass, outside the timed region.

With ``--trace 0`` the metrics are end to end (medians over the passes); the
pass time is scaled by a machine-speed reference timed between the calls
(reference.py), and BLAS runs on one thread.  With
``--trace 1`` one untraced pass is followed by traced passes, and the metrics
are per layer.  The last line of stdout is the result as one JSON object; the
full record (provenance, every pass, spans) goes to ``.perfbench_work/results``.
See README.md for the workloads and the metric map.
"""
from __future__ import annotations

import argparse
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
NPROC = len(os.sched_getaffinity(0))
BLAS_THREAD_VARS = (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
)
# One BLAS thread: the load is one single-threaded process, so a neighbour
# taking one of the host's cores cannot stall a BLAS call waiting on its partner.
BLAS_THREADS = 1
SETUP_REPEATS = 5
REFERENCE_WARMUP = 5
WORKLOAD_NAMES = ("extract-sweep", "analyze-bases", "large-io")


def _parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def _setup_times() -> list[float]:
    """Wall time of a fresh interpreter importing framekit.cli, as every CLI call pays it."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    times = []
    for _ in range(SETUP_REPEATS):
        start = perf_counter()
        subprocess.run(
            [sys.executable, "-c", "import framekit.cli"],
            cwd=ROOT, env=env, check=True, stdout=subprocess.DEVNULL, timeout=120,
        )
        times.append(perf_counter() - start)
    return times


def _run_pass(cli, ops, reference=None) -> tuple[float, list[float], list[dict]]:
    """Issue every call of the pass back to back.

    Returns the pass wall time, the reference times and the raw results.  With
    a `reference`, it is timed before each call and once at the end; its time is
    not part of the pass wall time.
    """
    records, ref_times = [], []
    start = perf_counter()
    for op in ops:
        if reference is not None:
            ref_times.append(reference())
        out, err = io.StringIO(), io.StringIO()
        begin = perf_counter()
        try:
            with redirect_stdout(out), redirect_stderr(err):
                code = cli.main(list(op.argv))
        except (Exception, SystemExit) as exc:  # the benchmark counts it and goes on
            code = f"raised {type(exc).__name__}: {exc}"
        records.append({"op": op, "seconds": perf_counter() - begin, "code": code, "stdout": out.getvalue(), "stderr": err.getvalue()})
    if reference is not None:
        ref_times.append(reference())
    return perf_counter() - start - sum(ref_times), ref_times, records


def _check_pass(records, digests: dict, shapes: dict, check_op) -> list[str]:
    """Problems of one pass, one entry per failed call.  Also fills `digests` and `shapes`."""
    failures = []
    for index, rec in enumerate(records):
        op = rec["op"]
        if rec["code"] != 0:
            problems = [f"failed ({rec['code']}): {rec['stderr'].strip()}"]
        else:
            problems = check_op(op, rec["stdout"], shapes)
        digest = hashlib.sha256(rec["stdout"].encode())
        for path in op.outputs:
            digest.update(path.read_bytes() if path.exists() else b"<missing>")
        if digests.setdefault(index, digest.hexdigest()) != digest.hexdigest():
            problems.append("output differs from the first pass on the same inputs")
        if problems:
            failures.append(f"{op.argv[0]} {op.system}: {'; '.join(problems)}")
    return failures


def _scaled_seconds(records, ref_times, nominal_s: float) -> float:
    """The pass's call times, each scaled by the reference times just before and after it."""
    return sum(
        rec["seconds"] * (nominal_s / (0.5 * (before + after)) if rec["op"].scaled else 1.0)
        for rec, before, after in zip(records, ref_times, ref_times[1:])
    )


def _command_seconds(records) -> dict[str, float]:
    totals: dict[str, float] = {}
    for rec in records:
        totals[rec["op"].command] = totals.get(rec["op"].command, 0.0) + rec["seconds"]
    return totals


def _tail_percentile(n: int):
    """Highest reported percentile with at least ten samples beyond it, or None."""
    for p in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1.0 - p / 100.0) >= 10:
            return p
    return None


def _summary(values: list[float]) -> dict:
    summary = {"median": statistics.median(values), "samples": len(values)}
    p = _tail_percentile(len(values))
    if p is not None:
        summary[f"p{p:g}"] = statistics.quantiles(values, n=1000, method="inclusive")[round(p * 10) - 1]
    return summary


def _provenance(args, ops, shapes) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    inputs = {}
    for op in ops:
        if op.command == "gen":
            path = op.outputs[0]
            inputs[op.system] = {"shape": shapes.get(op.system), "bytes": path.stat().st_size if path.exists() else None}
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version', '')}".strip(),
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "nproc": NPROC,
        "machine": platform.machine(),
        "inputs": inputs,
    }


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "framekit" / "cli.py").is_file():
        sys.stderr.write(f"perfbench: no framekit source tree at {SRC}; run from the repository root\n")
        return 2
    for var in BLAS_THREAD_VARS:  # before numpy loads
        os.environ[var] = str(BLAS_THREADS)
    sys.path.insert(0, str(SRC))
    import framekit.cli as cli

    if Path(cli.__file__).resolve().parent != (SRC / "framekit").resolve():
        sys.stderr.write(f"perfbench: imported framekit from {cli.__file__}, not from {SRC}\n")
        return 2
    from checks import check_op
    from reference import NOMINAL_S, reference_seconds
    from tracing import LAYERS, Tracer
    from workloads import build_pass

    setup = _setup_times()
    work = WORK / f"run-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    tracer = Tracer() if args.trace else None
    plain, traced, failures, digests, shapes = [], [], [], {}, {}
    attempted = 0
    # Untraced runs scale each pass by the machine's speed meanwhile (reference.py).
    reference = None if tracer else reference_seconds
    try:
        ops = build_pass(args.workload, work, args.seed)
        for _ in range(REFERENCE_WARMUP if reference else 0):
            reference()
        started = perf_counter()
        while True:
            use_tracer = tracer is not None and bool(plain)
            if use_tracer and not traced:
                tracer.install()
            if use_tracer:
                tracer.begin_pass()
            try:
                wall, ref_times, records = _run_pass(cli, ops, None if use_tracer else reference)
            finally:
                if use_tracer:
                    tracer.end_pass()
            scaled = _scaled_seconds(records, ref_times, NOMINAL_S) if ref_times else None
            (traced if use_tracer else plain).append((wall, _command_seconds(records), ref_times, scaled))
            if len(plain) + len(traced) == 1:
                # Later passes reuse a heap the first one grew; a CLI user pays the first pass's peak.
                peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            attempted += len(records)
            failures += _check_pass(records, digests, shapes, check_op)
            if tracer is not None and not traced:
                continue  # a traced run always has one plain and one traced pass
            if perf_counter() - started + wall + sum(ref_times) > args.seconds:
                break
        provenance = _provenance(args, ops, shapes)
    finally:
        if tracer is not None:
            tracer.uninstall()
        shutil.rmtree(work, ignore_errors=True)

    walls = [wall for wall, _, _, _ in plain]
    commands = {name: _summary([cmds.get(name, 0.0) for _, cmds, _, _ in plain]) for name in plain[0][1]}
    record = {
        "provenance": provenance,
        "setup_s": _summary(setup),
        "wall_s": _summary(walls),
        "commands_s": commands,
        "passes": [
            {"wall_s": wall, "commands_s": cmds, "reference_s": refs, "scaled_wall_s": scaled}
            for wall, cmds, refs, scaled in plain
        ],
        "peak_rss_mb": peak_rss_mb,
        "attempted": attempted,
        "failures": failures,
        "error_rate": len(failures) / attempted,
    }
    if tracer is None:
        scaled = [scaled for _, _, _, scaled in plain]
        record["scaled_wall_s"] = _summary(scaled)
        metrics = {
            "setup_s": (statistics.median(setup), "s"),
            "scaled_wall_s": (statistics.median(scaled), "s"),
            "peak_rss_mb": (peak_rss_mb, "MB"),
        }
    else:
        per_pass = [tracer.pass_metrics(i, pass_[0]) for i, pass_ in enumerate(traced)]
        layer = {key: statistics.median(p[key] for p in per_pass) for key in per_pass[0]}
        for name in LAYERS:
            layer[f"{name}.errors"] = sum(p[f"{name}.errors"] for p in per_pass)
        traced_wall = statistics.median(pass_[0] for pass_ in traced)
        layer["trace.overhead_s"] = traced_wall - statistics.median(walls)
        layer["error_rate"] = record["error_rate"]
        record.update(per_layer=per_pass, traced_wall_s=traced_wall, unwrapped=tracer.unwrapped)
        metrics = {key: (value, _unit(key)) for key, value in sorted(layer.items())}

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (results / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n")
    if tracer is not None:
        tracer.write_spans(results / f"{stem}.spans.jsonl")
        _print_layer_table(layer, traced_wall, LAYERS)
    _print_summary(record)
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {key: {"value": value, "unit": unit} for key, (value, unit) in metrics.items()},
    }))
    return 0


def _unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("_mb"):
        return "MB_computed"
    if metric.startswith("serialization.bytes"):
        return "bytes"
    if metric.endswith("_ratio") or metric == "error_rate":
        return "ratio"
    return "count"


def _print_layer_table(layer: dict, traced_wall: float, layers) -> None:
    print(f"{'layer':<14}{'self_s':>10}{'linalg_calls':>14}")
    for name in layers:
        print(f"{name:<14}{layer[f'{name}.self_s']:>10.4f}{layer[f'{name}.linalg_calls']:>14.0f}")
    accounted = sum(layer[f"{name}.self_s"] for name in layers) + layer["harness.self_s"]
    print(f"{'harness':<14}{layer['harness.self_s']:>10.4f}")
    print(f"layers + harness = {accounted:.4f} s of traced wall_s {traced_wall:.4f} s; trace.overhead_s = {layer['trace.overhead_s']:.4f}")


def _print_summary(record: dict) -> None:
    prov = record["provenance"]
    print(f"workload {prov['workload']} seed {prov['seed']}: {record['wall_s']['samples']} plain passes, "
          f"python {prov['python']}, numpy {prov['numpy']}, scipy {prov['scipy']}, {prov['blas']}, "
          f"{prov['nproc']} cores, BLAS threads {prov['blas_threads']['OPENBLAS_NUM_THREADS']}")
    for name, shape in prov["inputs"].items():
        print(f"  input {name}: {shape['shape']}, {shape['bytes']} bytes")
    print(f"  setup_s {record['setup_s']}  wall_s {record['wall_s']}")
    if "scaled_wall_s" in record:
        print(f"  scaled_wall_s {record['scaled_wall_s']}")
    for name, summary in record["commands_s"].items():
        print(f"  {name}_s {summary}")
    print(f"  peak_rss_mb {record['peak_rss_mb']:.1f}  error_rate {record['error_rate']} ({len(record['failures'])}/{record['attempted']})")
    for failure in record["failures"]:
        print(f"  FAILED {failure}")


if __name__ == "__main__":
    sys.exit(main())
