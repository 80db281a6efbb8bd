import json
import subprocess
import sys

import numpy as np
import pytest

import framekit as fk
from framekit import serialization as ser
from framekit.cli import SWEEP_HEADER, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_then_analyze_pipeline(tmp_path, capsys):
    path = tmp_path / "l51.json"
    code, out, _ = run_cli(
        capsys, "gen", "--spec", '{"kind": "lemma51", "n": 10}', "--out", str(path)
    )
    assert code == 0
    assert json.loads(out)["count"] == 11
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    doc = json.loads(out)
    assert abs(doc["frame_report"]["lower_bound"] - 1.0) < 1e-9
    assert abs(doc["frame_report"]["upper_bound"] - 1.0) < 1e-9


def test_gen_accepts_spec_file(tmp_path, capsys):
    spec_path = tmp_path / "spec.json"
    spec_path.write_text(json.dumps({"kind": "orthonormal", "n": 4}))
    out_path = tmp_path / "onb.json"
    code, _, _ = run_cli(capsys, "gen", "--spec", str(spec_path), "--out", str(out_path))
    assert code == 0
    assert ser.load_system(out_path).count == 4


def test_analyze_onb_constants_are_one(tmp_path, capsys):
    path = tmp_path / "onb.json"
    ser.save_system(fk.orthonormal(4), path)
    code, out, _ = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 0
    metrics = json.loads(out)["basis_metrics"]
    for key in ("riesz", "hilbertian", "besselian", "schauder", "separation"):
        assert metrics[key] == pytest.approx(1.0, abs=1e-9)


def test_extract_writes_trace(tmp_path, capsys):
    sys_path = tmp_path / "l51.json"
    trace_path = tmp_path / "trace.json"
    ser.save_system(fk.lemma51(40), sys_path)
    code, out, _ = run_cli(
        capsys,
        "extract",
        "--in",
        str(sys_path),
        "--mode",
        "frame",
        "--eps",
        "0.25",
        "--out",
        str(trace_path),
    )
    assert code == 0
    assert json.loads(out)["subset_size"] >= 30
    trace = ser.load_trace(trace_path)
    assert len(trace.final_subset) >= 30


def test_extract_biorthogonal_mode(tmp_path, capsys):
    sys_path = tmp_path / "pp.json"
    trace_path = tmp_path / "trace.json"
    ser.save_system(fk.perturbed_pairs(6), sys_path)
    code, out, _ = run_cli(
        capsys,
        "extract",
        "--in",
        str(sys_path),
        "--mode",
        "biorthogonal",
        "--eps",
        "0.25",
        "--c",
        "0.2",
        "--out",
        str(trace_path),
    )
    assert code == 0
    assert json.loads(out)["subset_size"] >= 9  # ceil(0.75 * 12)


def test_extract_rejects_non_separated_input(tmp_path, capsys):
    sys_path = tmp_path / "dup.json"
    ser.save_system(fk.duplicated(4), sys_path)
    code, _, err = run_cli(
        capsys,
        "extract",
        "--in",
        str(sys_path),
        "--mode",
        "biorthogonal",
        "--eps",
        "0.25",
        "--out",
        str(tmp_path / "t.json"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "NotSeparated"


def test_select_prints_result(tmp_path, capsys):
    path = tmp_path / "dup.json"
    ser.save_system(fk.duplicated(2), path)
    code, out, _ = run_cli(
        capsys, "select", "--in", str(path), "--size", "2", "--method", "exhaustive"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["subset"] == [0, 2]


def test_verify_lemmas_passes_on_clean_frame(tmp_path, capsys):
    path = tmp_path / "l51.json"
    ser.save_system(fk.lemma51(10), path)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--in", str(path), "--canonical")
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and all(c["ok"] for c in doc["checks"])


def test_verify_lemmas_flags_ill_conditioned_frame(tmp_path, capsys):
    # spanning but with condition number 1e9: the dual identities drown in roundoff
    path = tmp_path / "bad.json"
    ser.save_system(fk.random_frame(4, 8, seed=1, cond=1e9), path)
    code, out, _ = run_cli(capsys, "verify-lemmas", "--in", str(path))
    assert code == 1
    assert not json.loads(out)["ok"]


def test_verify_lemmas_rejects_non_spanning(tmp_path, capsys):
    path = tmp_path / "flat.json"
    ser.save_system(fk.duplicated(3, double_ambient=True), path)
    code, _, err = run_cli(capsys, "verify-lemmas", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "NotSpanning"


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.json"))
    assert code == 2


def test_sweep_deterministic_and_ordered(tmp_path, capsys):
    plan = {
        "v": 1,
        "generator": {"kind": "lemma51", "n": 20},
        "sweep": {"name": "n", "values": [40, 20, 30]},
        "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
        "out": str(tmp_path / "sweep.csv"),
        "seed": 0,
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, _, _ = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 0
    first = (tmp_path / "sweep.csv").read_bytes()
    lines = first.decode().splitlines()
    assert lines[0] == ",".join(SWEEP_HEADER)
    swept = [int(line.split(",")[1]) for line in lines[1:]]
    assert swept == [20, 30, 40]
    code, _, _ = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 0
    assert (tmp_path / "sweep.csv").read_bytes() == first


def test_sweep_biorthogonal_records_bound(tmp_path, capsys):
    plan = {
        "generator": {"kind": "orthonormal", "n": 4},
        "sweep": {"name": "n", "values": [4, 6]},
        "extract": {"mode": "biorthogonal", "eps": 0.25, "c": 0.1},
        "out": str(tmp_path / "sweep.csv"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, _, _ = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 0
    lines = (tmp_path / "sweep.csv").read_text().splitlines()
    bound_col = SWEEP_HEADER.index("theoretical_bound")
    assert float(lines[1].split(",")[bound_col]) > 0


def test_sweep_rejects_bad_plan(tmp_path, capsys):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({"generator": {"kind": "lemma51"}}))
    code, _, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 2


@pytest.mark.parametrize(
    "change",
    [
        {"out": 5},
        {"extract": []},
        {"extract": {"eps": "abc"}},
        {"extract": {"mode": "frame", "delta": [0.1]}},
        {"extract": {"mode": "nope"}},
        {"generator": [1]},
        {"sweep": {"name": ["n"], "values": [4]}},
        {"seed": "abc"},
    ],
)
def test_sweep_malformed_plan_is_schema_error(tmp_path, capsys, change):
    plan = {
        "generator": {"kind": "orthonormal", "n": 4},
        "sweep": {"name": "n", "values": [4]},
        "extract": {"mode": "frame", "eps": 0.25},
        "out": str(tmp_path / "sweep.csv"),
    }
    plan.update(change)
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, _, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "lemma51", "n": "abc"},
        {"kind": "lemma51", "n": [1]},
        {"kind": "randomFrame", "n": 4, "m": 8, "seed": -1},
        {"kind": "prop53Truncation", "M": 2, "epsilons": [0.1, "x"]},
    ],
)
def test_gen_bad_parameter_exits_two(tmp_path, capsys, spec):
    code, _, err = run_cli(
        capsys, "gen", "--spec", json.dumps(spec), "--out", str(tmp_path / "out.json")
    )
    assert code == 2
    assert json.loads(err)["error"] == "BadParameter"


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "framekit.cli", "--help"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "sweep" in proc.stdout
