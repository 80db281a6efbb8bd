"""The benchmark's workloads: each is one fixed list of framekit CLI calls, a *pass*.

Only randomFrame seeds depend on the benchmark seed; every other input is a
fixed gallery spec, so the same seed always gives the same inputs.  The reason
for each workload is in README.md.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

EPS = "0.25"


@dataclass(frozen=True)
class Op:
    """One CLI call.  `command` names the per-command time it adds to."""

    command: str
    argv: tuple[str, ...]
    outputs: tuple[Path, ...] = ()  # files the call writes, hashed for determinism
    system: str = ""  # input system name, for checks that need its shape
    scaled: bool = True  # whether its time is scaled by the machine-speed reference (reference.py)


def _gen(work: Path, name: str, spec: dict) -> Op:
    out = work / f"{name}.json"
    return Op("gen", ("gen", "--spec", json.dumps(spec), "--out", str(out)), (out,), name)


def _extract(work: Path, name: str, mode: str, *extra: str) -> Op:
    out = work / f"{name}.trace.json"
    argv = ("extract", "--in", str(work / f"{name}.json"), "--mode", mode, "--eps", EPS, *extra, "--out", str(out))
    return Op("extract", argv, (out,), name)


def _extract_sweep(work: Path, seed: int) -> list[Op]:
    plan = {
        "v": 1,
        "generator": {"kind": "lemma51", "n": 40},
        "sweep": {"name": "n", "values": [40, 80, 120, 160]},
        "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
        "out": str(work / "sweep.csv"),
        "seed": seed,
    }
    plan_path = work / "sweep_plan.json"
    plan_path.write_text(json.dumps(plan))
    ops = [Op("sweep", ("sweep", "--plan", str(plan_path)), (work / "sweep.csv",), "lemma51-sweep")]
    for k in range(2):
        name = f"random96-s{k}"
        ops.append(_gen(work, name, {"kind": "randomFrame", "n": 96, "m": 192, "cond": 100.0, "seed": seed + k}))
        ops.append(_extract(work, name, "frame"))
    # c = 0.8 makes each greedy round stop early, so the extraction peels ~15 rounds.
    ops.append(_gen(work, "random192", {"kind": "randomFrame", "n": 192, "m": 384, "cond": 1e4, "seed": seed + 2}))
    ops.append(_extract(work, "random192", "frame", "--c", "0.8"))
    ops.append(_gen(work, "pairs60", {"kind": "perturbedPairs", "n": 60}))
    ops.append(_extract(work, "pairs60", "biorthogonal"))
    return ops


ANALYZE_SPECS = (
    ("pairs80", {"kind": "perturbedPairs", "n": 80}),
    ("exp-plus", {"kind": "weightedExponentials", "a": 0.25, "N": 64, "sign": 1}),
    ("exp-minus", {"kind": "weightedExponentials", "a": 0.25, "N": 64, "sign": -1}),
    ("lemma52", {"kind": "lemma52Block", "k": 3, "eps": 0.1}),
    # count > dim (165 x 332): separation is exactly 0, yet the seed code pays one SVD per vector.
    ("prop53-small", {"kind": "prop53Truncation", "M": 2, "epsilons": [0.2, 0.2]}),
)


def _analyze_bases(work: Path, seed: int) -> list[Op]:
    ops = []
    for name, spec in ANALYZE_SPECS:
        ops.append(_gen(work, name, spec))
        ops.append(Op("analyze", ("analyze", "--in", str(work / f"{name}.json")), (), name))
    return ops


def _large_io(work: Path, seed: int) -> list[Op]:
    name = "prop53-large"  # 901 x 1804, a 22 MB system file
    path = str(work / f"{name}.json")
    return [
        _gen(work, name, {"kind": "prop53Truncation", "M": 2, "epsilons": [0.1, 0.05]}),
        Op("select", ("select", "--in", path, "--size", "8", "--method", "greedy"), (), name),
        # Ten dense 901x901 eigh calls: their speed did not follow the reference's drift, so they are not scaled.
        Op("verify", ("verify-lemmas", "--in", path), (), name, scaled=False),
    ]


WORKLOADS = {
    "extract-sweep": _extract_sweep,
    "analyze-bases": _analyze_bases,
    "large-io": _large_io,
}


def build_pass(workload: str, work: Path, seed: int) -> list[Op]:
    """The pass of `workload`, with its input files placed under `work`."""
    return WORKLOADS[workload](work, seed)
