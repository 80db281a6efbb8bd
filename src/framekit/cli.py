"""Command-line front end: gen, analyze, extract, select, verify-lemmas, sweep.

Exit codes: 0 success, 1 a verification failed, 2 malformed input or violated
precondition.  Errors go to stderr as single-line JSON diagnostics.
"""
from __future__ import annotations

import argparse
import csv
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import serialization as ser
from .core import (
    DEFAULT_TOLERANCE,
    OperatorPower,
    _apply_power,
    _counting_slacks,
    _dual_reconstruct,
    _frame_report,
    frame_report,
    random_unit_vector,
)
from .errors import BadParameter, FramekitError, SchemaError
from .extraction import extract_biorthogonal, extract_frame
from .gallery import exact_int, generate, real_number
from .metrics import _upper_frame_bound, basis_metrics
from .selection import select_exhaustive, select_greedy

VERIFY_TOLERANCE = 1e-9
VERIFY_PROBES = 10
VERIFY_SEED = 0

SWEEP_HEADER = [
    "swept_name",
    "swept_value",
    "dim",
    "count",
    "mode",
    "eps",
    "c",
    "delta",
    "target",
    "subset_size",
    "coverage",
    "rounds",
    "stop_reason",
    "riesz_constant",
    "theoretical_bound",
]


def _diagnostic(kind: str, message: str) -> None:
    sys.stderr.write(json.dumps({"error": kind, "message": message}) + "\n")


class _UsageError(Exception):
    """A malformed command line, reported as a diagnostic instead of argparse's usage text."""


class _Parser(argparse.ArgumentParser):
    # subparsers are built with the class of their parent, so they raise this too
    def error(self, message):
        raise _UsageError(f"{self.prog}: {message}")


def _load_spec_argument(value: str) -> dict:
    try:
        is_file = Path(value).exists()
    except OSError:  # e.g. an inline spec longer than the file-name limit
        is_file = False
    if is_file:
        return ser._read_json(value)
    if value.strip().startswith("{"):
        return ser._parse_json(value, "inline spec")
    raise SchemaError(f"spec {value!r} is neither an existing file nor inline JSON")


def _cmd_gen(args) -> int:
    spec = ser.gallery_spec_from_json(_load_spec_argument(args.spec))
    system = generate(spec)
    ser.save_system(system, args.out)
    print(json.dumps({"written": str(args.out), "dim": system.dim, "count": system.count}))
    return 0


def _cmd_analyze(args) -> int:
    system = ser.load_system(args.infile)
    metrics = basis_metrics(system)
    # The frame bounds are the extreme eigenvalues of S = F F^*, so they are the
    # squared extreme singular values of F that basis_metrics already holds:
    # B = sigma_max^2, and A = sigma_min^2 when count >= dim, else 0.  Squaring
    # sigma errs in A by eps*kappa, where eigvalsh of a formed S errs by eps*kappa^2.
    svals = metrics.singular_values
    upper = _upper_frame_bound(svals[0])  # once sigma_max^2 is finite, so is sigma_min^2
    lower = svals[-1] ** 2 if system.count >= system.dim else 0.0
    report = _frame_report(system, (lower, upper), DEFAULT_TOLERANCE)
    print(
        ser.dumps(
            {
                "v": ser.SCHEMA_VERSION,
                "frame_report": ser.report_to_json(report),
                "basis_metrics": ser.metrics_to_json(metrics),
            }
        ),
        end="",
    )
    return 0


def _extract(system, mode: str, eps: float, c: float, delta: float | None):
    """The extraction of the given mode; a delta is refused in biorthogonal mode.

    The two extract functions are looked up when this runs, not bound at import.
    """
    if mode == "biorthogonal":
        if delta is not None:
            raise BadParameter("delta applies to frame mode only")
        return extract_biorthogonal(system, eps, c)
    return extract_frame(system, eps, c, delta)


def _cmd_extract(args) -> int:
    trace = _extract(ser.load_system(args.infile), args.mode, args.eps, args.c, args.delta)
    ser.save_trace(trace, args.out)
    print(
        json.dumps(
            {
                "written": str(args.out),
                "subset_size": len(trace.final_subset),
                "riesz_constant": ser._encode_scalar(trace.final_riesz_constant),
                "stop_reason": trace.stop_reason,
            }
        )
    )
    return 0


def _cmd_select(args) -> int:
    system = ser.load_system(args.infile)
    if args.method == "exhaustive":
        result = select_exhaustive(system, args.size)
    else:
        result = select_greedy(system, args.size)
    print(ser.dumps(ser.selection_to_json(result)), end="")
    return 0


def _run_verifications(system, canonical: bool) -> list[dict]:
    """The verify-lemmas checks.  S is formed and factored once: its one
    eigendecomposition gives the counting check its frame bounds, every probe
    the same S^-1, and the canonical transform S^-1/2.
    """
    checks: list[dict] = []

    def record(name: str, ok: bool, value: float) -> None:
        checks.append({"name": name, "ok": bool(ok), "value": ser._encode_scalar(value)})

    def record_worst(name: str, residuals: list[float]) -> None:
        # max() would pass over a NaN residual; a residual that is not finite fails as inf
        worst = max(residuals) if all(map(math.isfinite, residuals)) else math.inf
        record(name, worst <= VERIFY_TOLERANCE, worst)

    power = OperatorPower.compute(system)
    slacks = _counting_slacks(system, power.bounds)
    record("dimension_slack", slacks.dimension_slack >= -VERIFY_TOLERANCE, slacks.dimension_slack)
    record(
        "cardinality_slack",
        slacks.cardinality_slack >= -VERIFY_TOLERANCE,
        slacks.cardinality_slack,
    )
    # the probes are complex: a real S^-1 is converted once, not in every product
    s_inv = np.asarray(power.matrix(-1.0), np.complex128)
    rng = np.random.default_rng(VERIFY_SEED)
    recon, energy = [], []
    for _ in range(VERIFY_PROBES):
        probe = random_unit_vector(system.dim, rng)
        dual = _dual_reconstruct(system, s_inv, probe)
        recon.append(float(np.linalg.norm(dual.reconstruction - probe)))
        mass = float(np.sum(np.abs(dual.coefficients) ** 2))
        energy.append(abs(dual.parseval_scalar - mass) / max(1.0, abs(dual.parseval_scalar)))
    del s_inv  # not held beside the canonical transform's copies
    record_worst("dual_reconstruction", recon)
    record_worst("dual_energy_identity", energy)
    if canonical:
        tight = frame_report(_apply_power(system, power.matrix(-0.5)), VERIFY_TOLERANCE)
        gap = tight.upper_bound - tight.lower_bound
        record("canonical_tightness", tight.is_tight, gap)
    return checks


def _cmd_verify(args) -> int:
    system = ser.load_system(args.infile)
    checks = _run_verifications(system, args.canonical)
    ok = all(c["ok"] for c in checks)
    print(ser.dumps({"v": ser.SCHEMA_VERSION, "ok": ok, "checks": checks}), end="")
    return 0 if ok else 1


def _plan_field(doc: dict, key: str, convert, default):
    value = doc.get(key)
    if value is None:
        return default
    try:
        return convert(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise SchemaError(f"sweep plan: field {key!r} got {value!r}") from exc


def _sweep_rows(plan: dict):
    for field in ("generator", "sweep", "extract", "out"):
        if field not in plan:
            raise SchemaError(f"sweep plan: field {field!r} missing")
    for field, kind in (("generator", dict), ("extract", dict), ("out", str)):
        if not isinstance(plan[field], kind):
            raise SchemaError(f"sweep plan: field {field!r} must be a {kind.__name__}")
    sweep = plan["sweep"]
    if not isinstance(sweep, dict) or "name" not in sweep or "values" not in sweep:
        raise SchemaError("sweep plan: 'sweep' needs 'name' and 'values'")
    values = sweep["values"]
    if not isinstance(values, list) or not values:
        raise SchemaError("sweep plan: 'values' must be a nonempty list")
    name = sweep["name"]
    if not isinstance(name, str):
        raise SchemaError("sweep plan: 'name' must be a str")
    extract_cfg = plan["extract"]
    mode = extract_cfg.get("mode", "frame")
    if mode not in ("frame", "biorthogonal"):
        raise SchemaError(f"sweep plan: 'mode' must be 'frame' or 'biorthogonal', got {mode!r}")
    eps = _plan_field(extract_cfg, "eps", real_number, 0.25)
    c = _plan_field(extract_cfg, "c", real_number, 0.1)
    delta = _plan_field(extract_cfg, "delta", real_number, None)
    seed = _plan_field(plan, "seed", exact_int, 0)
    try:
        ordered = sorted(values)
    except TypeError:
        ordered = list(values)
    for value in ordered:
        doc = dict(plan["generator"])
        doc[name] = value
        if doc.get("kind") == "randomFrame":
            doc.setdefault("seed", seed)
        system = generate(ser.gallery_spec_from_json(doc))
        trace = _extract(system, mode, eps, c, delta)
        bound = trace.parameters.get("theoretical_bound")  # None in frame mode
        row = {
            "swept_name": name,
            "swept_value": value,
            "dim": system.dim,
            "count": system.count,
            "mode": mode,
            "eps": repr(eps),
            "c": repr(c),
            "delta": repr(trace.parameters.get("delta")) if mode == "frame" else "",
            "target": trace.parameters["target"],
            "subset_size": len(trace.final_subset),
            "coverage": repr(len(trace.final_subset) / trace.parameters["total"]),
            "rounds": len(trace.rounds),
            "stop_reason": trace.stop_reason,
            "riesz_constant": repr(trace.final_riesz_constant),
            "theoretical_bound": "" if bound is None else repr(bound),
        }
        yield row


def _cmd_sweep(args) -> int:
    plan = ser._read_json(args.plan)
    if not isinstance(plan, dict):
        raise SchemaError("sweep plan must be a JSON object")
    ser._expect_version(plan, optional=True)
    rows = list(_sweep_rows(plan))
    out = Path(plan["out"])
    with out.open("w", newline="") as handle:
        writer = csv.DictWriter(handle, fieldnames=SWEEP_HEADER, lineterminator="\n")
        writer.writeheader()
        writer.writerows(rows)
    print(json.dumps({"written": str(out), "rows": len(rows)}))
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="framekit",
        description="Finite frame analysis: generators, spectral reports, subset extraction.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_gen = sub.add_parser("gen", help="write a vector-system file from a gallery spec")
    p_gen.add_argument("--spec", required=True, help="path to a spec JSON file, or inline JSON")
    p_gen.add_argument("--out", required=True, help="output path for the system file")
    p_gen.set_defaults(func=_cmd_gen)

    p_an = sub.add_parser("analyze", help="print frame report and basis metrics as JSON")
    p_an.add_argument("--in", dest="infile", required=True)
    p_an.set_defaults(func=_cmd_analyze)

    p_ex = sub.add_parser("extract", help="run subset extraction and write the trace")
    p_ex.add_argument("--in", dest="infile", required=True)
    p_ex.add_argument("--mode", choices=("biorthogonal", "frame"), required=True)
    p_ex.add_argument("--eps", type=float, required=True)
    p_ex.add_argument("--c", type=float, default=0.1)
    p_ex.add_argument("--delta", type=float, default=None)
    p_ex.add_argument("--out", required=True)
    p_ex.set_defaults(func=_cmd_extract)

    p_sel = sub.add_parser("select", help="print the best subset of a given size")
    p_sel.add_argument("--in", dest="infile", required=True)
    p_sel.add_argument("--size", type=int, required=True)
    p_sel.add_argument("--method", choices=("exhaustive", "greedy"), required=True)
    p_sel.set_defaults(func=_cmd_select)

    p_ver = sub.add_parser(
        "verify-lemmas",
        help="check the counting inequalities and the dual reconstruction identities",
    )
    p_ver.add_argument("--in", dest="infile", required=True)
    p_ver.add_argument("--canonical", action="store_true", help="also check the canonical tight transform")
    p_ver.set_defaults(func=_cmd_verify)

    p_sw = sub.add_parser("sweep", help="run a sweep plan and write one CSV row per value")
    p_sw.add_argument("--plan", required=True, help="path to the sweep plan JSON")
    p_sw.set_defaults(func=_cmd_sweep)
    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except _UsageError as exc:
        _diagnostic("UsageError", str(exc))
        return 2
    try:
        return args.func(args)
    except (FramekitError, np.linalg.LinAlgError) as exc:
        _diagnostic(type(exc).__name__, str(exc))
        return 2
    except OSError as exc:
        _diagnostic("OSError", str(exc))
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
