"""Output invariants for each CLI call, taken from the paper and the README.

Each checker returns a list of problems; an empty list means the output is
correct.  None of them pins the greedy pick order or the subset contents, which
may legitimately change with tie-breaking.
"""
from __future__ import annotations

import csv
import io
import json
import math

SEPARATION_ZERO = 1e-12  # count > dim: the exact separation is 0
SELECT_SIZE = 8


def _number(value) -> float:
    """Decode a serialized scalar ("inf" strings included)."""
    if value in ("inf", "-inf"):
        return float(value)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ValueError(f"not a number: {value!r}")
    return float(value)


def check_trace(doc: dict) -> list[str]:
    """Extraction trace: coverage reached and a finite (certified) Riesz constant."""
    problems = []
    target = doc["parameters"]["target"]
    size = len(doc["final_subset"])
    if size < target:
        problems.append(f"subset size {size} below target {target}")
    riesz = _number(doc["final_riesz_constant"])
    if not math.isfinite(riesz):
        problems.append("final Riesz constant is not finite")
    if doc["mode"] == "biorthogonal":
        bound = _number(doc["parameters"]["theoretical_bound"])
        if not riesz <= bound:
            problems.append(f"Riesz constant {riesz} exceeds the theoretical bound {bound}")
    return problems


def check_sweep_csv(text: str) -> list[str]:
    problems = []
    rows = list(csv.DictReader(io.StringIO(text)))
    if not rows:
        problems.append("sweep CSV has no rows")
    for row in rows:
        where = f"{row['swept_name']}={row['swept_value']}"
        if int(row["subset_size"]) < int(row["target"]):
            problems.append(f"{where}: subset size {row['subset_size']} below target {row['target']}")
        if not math.isfinite(float(row["riesz_constant"])):
            problems.append(f"{where}: Riesz constant is not finite")
    return problems


def check_analyze(doc: dict, dim: int, count: int) -> list[str]:
    problems = []
    metrics = doc["basis_metrics"]
    svals = [_number(s) for s in metrics["singular_values"]]
    if any(later > earlier for earlier, later in zip(svals, svals[1:])):
        problems.append("singular values are not nonincreasing")
    riesz = _number(metrics["riesz"])
    if riesz != max(_number(metrics["hilbertian"]), _number(metrics["besselian"])):
        problems.append("riesz differs from max(hilbertian, besselian)")
    if count > dim and _number(metrics["separation"]) > SEPARATION_ZERO:
        problems.append(f"separation {metrics['separation']} of a dependent system exceeds {SEPARATION_ZERO}")
    return problems


def check_select(doc: dict) -> list[str]:
    problems = []
    if len(doc["subset"]) != SELECT_SIZE or len(set(doc["subset"])) != SELECT_SIZE:
        problems.append(f"selected subset {doc['subset']} does not have {SELECT_SIZE} distinct indices")
    if not _number(doc["certified_lower_bound"]) > 0.0:
        problems.append("certified lower bound is not positive")
    return problems


def check_verify(doc: dict) -> list[str]:
    if doc["ok"] is not True:
        failed = [c["name"] for c in doc["checks"] if not c["ok"]]
        return [f"verify-lemmas failed: {failed}"]
    return []


def check_op(op, stdout: str, shapes: dict) -> list[str]:
    """Check one successful call's output; `shapes` maps system names to (dim, count)."""
    try:
        if op.command == "gen":
            doc = json.loads(stdout)
            shapes[op.system] = (doc["dim"], doc["count"])
            return []
        if op.command == "sweep":
            return check_sweep_csv(op.outputs[0].read_text())
        if op.command == "extract":
            return check_trace(json.loads(op.outputs[0].read_text()))
        if op.command == "analyze":
            return check_analyze(json.loads(stdout), *shapes[op.system])
        if op.command == "select":
            return check_select(json.loads(stdout))
        if op.command == "verify":
            return check_verify(json.loads(stdout))
    except (KeyError, ValueError, TypeError, OSError) as exc:
        return [f"unreadable {op.command} output: {exc!r}"]
    return [f"no check for command {op.command!r}"]
