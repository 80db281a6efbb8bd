import importlib.util
import json
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from conftest import FACTORIZATIONS
from test_imports import run_in_a_fresh_cli
from test_real_arithmetic import REAL_SYSTEMS

import framekit as fk
from framekit import serialization as ser
from framekit.core import random_unit_vector
from framekit.cli import (
    SWEEP_HEADER,
    VERIFY_PROBES,
    VERIFY_SEED,
    VERIFY_TOLERANCE,
    _run_verifications,
    main,
)


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


def reference_run_verifications(system, canonical: bool) -> list[dict]:
    """The former verify-lemmas loop: every probe factors S again, and so does --canonical."""
    checks: list[dict] = []

    def record(name: str, ok: bool, value: float) -> None:
        checks.append({"name": name, "ok": bool(ok), "value": ser._encode_scalar(value)})

    slacks = fk.check_counting_lemmas(system)
    record("dimension_slack", slacks.dimension_slack >= -VERIFY_TOLERANCE, slacks.dimension_slack)
    record(
        "cardinality_slack",
        slacks.cardinality_slack >= -VERIFY_TOLERANCE,
        slacks.cardinality_slack,
    )
    rng = np.random.default_rng(VERIFY_SEED)
    worst_recon = 0.0
    worst_energy = 0.0
    for _ in range(VERIFY_PROBES):
        probe = random_unit_vector(system.dim, rng)
        dual = fk.canonical_dual_reconstruct(system, probe)
        worst_recon = max(worst_recon, float(np.linalg.norm(dual.reconstruction - probe)))
        energy = float(np.sum(np.abs(dual.coefficients) ** 2))
        worst_energy = max(
            worst_energy,
            abs(dual.parseval_scalar - energy) / max(1.0, abs(dual.parseval_scalar)),
        )
    record("dual_reconstruction", worst_recon <= VERIFY_TOLERANCE, worst_recon)
    record("dual_energy_identity", worst_energy <= VERIFY_TOLERANCE, worst_energy)
    if canonical:
        tight = fk.frame_report(fk.power_transform(system, 0.0), VERIFY_TOLERANCE)
        gap = tight.upper_bound - tight.lower_bound
        record("canonical_tightness", tight.is_tight, gap)
    return checks


VERIFY_SYSTEMS = [
    pytest.param(lambda: fk.lemma51(10), id="lemma51"),
    pytest.param(lambda: fk.random_frame(6, 12, 1), id="randomFrame"),
    pytest.param(lambda: fk.random_frame(4, 8, seed=1, cond=1e9), id="randomFrame-cond1e9"),
    pytest.param(lambda: fk.perturbed_pairs(5), id="perturbedPairs"),
    pytest.param(lambda: fk.lemma52_block(2, 0.3), id="lemma52Block"),
    pytest.param(lambda: fk.prop53_truncation(1, [0.3]), id="prop53Truncation"),
    pytest.param(lambda: fk.weighted_exponentials(0.25, 8, -1), id="weightedExponentials"),
]


@pytest.mark.parametrize("canonical", [False, True])
@pytest.mark.parametrize("build", VERIFY_SYSTEMS)
def test_verifications_match_one_factorization_per_probe(build, canonical):
    system = build()
    assert _run_verifications(system, canonical) == reference_run_verifications(system, canonical)


@pytest.mark.parametrize("canonical,budget", [(False, 2), (True, 3)])
def test_verifications_factor_the_frame_operator_once(factorization_shapes, canonical, budget):
    # frame_report's eigvalsh, one eigh of S shared by all probes, and with
    # --canonical the eigvalsh of the transformed system's frame operator
    system = fk.generate(fk.GallerySpec("prop53Truncation", {"M": 2, "epsilons": [0.2, 0.2]}))
    assert (system.dim, system.count) == (165, 332)
    factorization_shapes.clear()
    _run_verifications(system, canonical)
    assert factorization_shapes.count((165, 165)) <= budget
    assert len(factorization_shapes) <= budget


@pytest.mark.parametrize("canonical,formed", [(False, 1), (True, 2)])
def test_verifications_form_the_frame_operator_once(monkeypatch, canonical, formed):
    # S itself, and with --canonical the transformed system's own frame operator
    calls = []

    def counted(system, _original=fk.core.frame_operator):
        calls.append(system.dim)
        return _original(system)

    monkeypatch.setattr(fk.core, "frame_operator", counted)
    _run_verifications(fk.lemma51(10), canonical)
    assert len(calls) == formed


def test_verify_lemmas_rejects_an_integer_too_large_for_a_double(tmp_path, capsys):
    path = tmp_path / "big.json"
    path.write_text('{"v": 1, "dim": 1, "count": 1, "columns": [[1' + "0" * 400 + ", 0]]}")
    code, out, err = run_cli(capsys, "verify-lemmas", "--in", str(path))
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "SchemaError"
    assert diagnostic["message"] == "field 'columns'[0]: entry too large for a double"


def test_malformed_file_exits_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    code, _, err = run_cli(capsys, "analyze", "--in", str(path))
    assert code == 2
    assert json.loads(err)["error"] == "SchemaError"


def test_gen_accepts_an_inline_spec_longer_than_a_file_name(tmp_path, capsys):
    # Path(spec).exists() raised OSError: File name too long past 255 bytes
    spec = '{"kind": "lemma51",' + " " * 260 + '"n": 4}'
    assert len(spec.encode()) == 286
    out = tmp_path / "l51.json"
    code, _, err = run_cli(capsys, "gen", "--spec", spec, "--out", str(out))
    assert (code, err) == (0, "")
    assert ser.load_system(out).count == 5


@pytest.mark.parametrize(
    "command", [["analyze", "--in"], ["gen", "--out", "x.json", "--spec"], ["sweep", "--plan"]]
)
def test_input_that_is_not_utf8_exits_two(tmp_path, capsys, monkeypatch, command):
    monkeypatch.chdir(tmp_path)
    path = tmp_path / "utf16.json"
    path.write_bytes(b"\xff\xfe" + '{"v": 1}'.encode("utf-16-le"))
    code, out, err = run_cli(capsys, *command, str(path))
    assert (code, out) == (2, "")
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "SchemaError"
    assert "utf-8" in diagnostic["message"]


@pytest.mark.parametrize(
    "argv", [["gen", "--spec", "-Infinity", "--out", "x.json"], ["frob"]], ids=["gen", "frob"]
)
def test_usage_error_is_one_json_diagnostic(tmp_path, capsys, monkeypatch, argv):
    # argparse used to exit through SystemExit(2) with its plain-text usage
    monkeypatch.chdir(tmp_path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.endswith("\n") and err.count("\n") == 1
    diagnostic = json.loads(err)
    assert diagnostic["error"] == "UsageError"
    assert diagnostic["message"].startswith("framekit")
    assert not (tmp_path / "x.json").exists()


def test_help_still_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["gen", "--help"])
    assert exc.value.code == 0
    captured = capsys.readouterr()
    assert "--spec" in captured.out and captured.err == ""


def test_missing_file_exits_two(tmp_path, capsys):
    code, _, err = run_cli(capsys, "analyze", "--in", str(tmp_path / "nope.json"))
    assert code == 2


def test_gen_into_a_missing_directory_exits_two_with_an_os_error(tmp_path, capsys):
    out = tmp_path / "missing" / "out.json"
    code, _, err = run_cli(capsys, "gen", "--spec", '{"kind": "lemma51", "n": 4}', "--out", str(out))
    assert code == 2
    assert json.loads(err)["error"] == "OSError"
    assert not out.parent.exists()


def test_sweep_random_frame_without_a_seed_takes_the_plan_seed(tmp_path, capsys):
    def sweep_csv(generator, seed):
        plan = {
            "generator": {"kind": "randomFrame", "n": 4, "m": 10, **generator},
            "sweep": {"name": "n", "values": [4, 5]},
            "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
            "out": str(tmp_path / "sweep.csv"),
            "seed": seed,
        }
        plan_path = tmp_path / "plan.json"
        plan_path.write_text(json.dumps(plan))
        assert run_cli(capsys, "sweep", "--plan", str(plan_path))[0] == 0
        return (tmp_path / "sweep.csv").read_bytes()

    from_plan = sweep_csv({}, 7)
    assert from_plan == sweep_csv({"seed": 7}, 0)
    assert from_plan != sweep_csv({"seed": 8}, 7)


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


# one small spec per gallery kind
DETERMINISM_SPECS = {
    "orthonormal": {"n": 5},
    "lemma51": {"n": 8},
    "duplicated": {"n": 4},
    "perturbedPairs": {"n": 6},
    "weightedExponentials": {"a": 0.25, "N": 16, "sign": 1},
    "lemma52Block": {"k": 2, "eps": 0.1},
    "prop53Truncation": {"M": 2, "epsilons": [0.2, 0.2]},
    "randomFrame": {"n": 12, "m": 24, "seed": 5, "cond": 1e4},
}


def test_two_fresh_processes_write_identical_bytes(tmp_path):
    # the README guarantee: same numpy/BLAS build and BLAS thread count (both
    # processes inherit this one's environment), identical bytes
    assert sorted(DETERMINISM_SPECS) == sorted(fk.GALLERY_KINDS)
    runs = []
    for name in ("first", "second"):
        work = tmp_path / name
        work.mkdir()
        argvs = [
            ["gen", "--spec", json.dumps({"kind": kind, **params}), "--out", str(work / kind)]
            for kind, params in DETERMINISM_SPECS.items()
        ]
        argvs.append(["extract", "--in", str(work / "randomFrame"), "--mode", "frame",
                      "--eps", "0.25", "--c", "0.8", "--out", str(work / "trace")])
        plan = {
            "generator": {"kind": "randomFrame", "n": 8, "m": 16, "cond": 100.0},
            "sweep": {"name": "n", "values": [8, 12]},
            "extract": {"mode": "frame", "eps": 0.25, "c": 0.1},
            "out": str(work / "sweep.csv"),
            "seed": 3,
        }
        (tmp_path / f"{name}.plan.json").write_text(json.dumps(plan))
        argvs.append(["sweep", "--plan", str(tmp_path / f"{name}.plan.json")])
        commands = run_in_a_fresh_cli(argvs)[1]
        stdout = [command["out"].replace(str(work), "<work>") for command in commands]
        runs.append((stdout, {p.name: p.read_bytes() for p in sorted(work.iterdir())}))
    (stdout, files), (stdout_again, files_again) = runs
    assert len(files) == len(DETERMINISM_SPECS) + 2  # the systems, the trace and the CSV
    assert stdout_again == stdout
    for name, data in files.items():
        assert files_again[name] == data, name


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
        {"sweep": {"name": "n", "values": []}},
        {"sweep": {"name": "n", "values": 4}},
        {"seed": "abc"},
        {"seed": 1.9},
        {"seed": 0.5},
        {"seed": True},
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
    "spec, message",
    [
        ({"kind": "weightedExponentials", "a": 0.25, "N": 1.9, "sign": 1},
         "max_frequency must be an integer, got 1.9"),
        ({"kind": "lemma52Block", "k": 1, "eps": 0.5, "startN": -1},
         "start_frequency must be at least 0, got -1"),
        ({"kind": "prop53Truncation", "M": True, "epsilons": [0.3]},
         "depth must be an integer, got True"),
        ({"kind": "duplicated", "n": 2, "doubleAmbient": "no"},
         "double_ambient must be true or false, got 'no'"),
    ],
)
def test_gen_diagnostic_names_the_builder_parameter(tmp_path, capsys, spec, message):
    code, _, err = run_cli(
        capsys, "gen", "--spec", json.dumps(spec), "--out", str(tmp_path / "out.json")
    )
    assert code == 2
    assert json.loads(err) == {"error": "BadParameter", "message": message}


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "lemma51", "n": "abc"},
        {"kind": "lemma51", "n": [1]},
        {"kind": "randomFrame", "n": 4, "m": 8, "seed": -1},
        {"kind": "prop53Truncation", "M": 2, "epsilons": [0.1, "x"]},
        {"kind": "duplicated", "n": 2, "doubleAmbient": "false"},
        {"kind": "duplicated", "n": 2, "doubleAmbient": []},
        {"kind": "weightedExponentials", "a": 0.25, "N": 4, "sign": 1, "normalized": 1},
        {"kind": "randomFrame", "n": 4, "m": 8, "seed": 1.9},
        {"kind": "lemma51", "n": 0.5},
        {"kind": "lemma51", "n": True},
        {"kind": "lemma52Block", "k": 3, "eps": float("nan")},
        {"kind": "prop53Truncation", "M": 1, "epsilons": [float("inf")]},
        {"kind": "randomFrame", "n": 4, "m": 8, "cond": float("nan")},
        {"kind": "lemma51", "n": 1e300},
        {"kind": "lemma51", "n": 50000},
        {"kind": "weightedExponentials", "a": 0.25, "N": 1e300, "sign": 1},
    ],
)
def test_gen_bad_parameter_exits_two(tmp_path, capsys, spec):
    code, _, err = run_cli(
        capsys, "gen", "--spec", json.dumps(spec), "--out", str(tmp_path / "out.json")
    )
    assert code == 2
    assert json.loads(err)["error"] == "BadParameter"


def test_console_entry_point_runs():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-m", "framekit.cli", "--help"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert "gen" in proc.stdout and "sweep" in proc.stdout


def test_extract_nan_delta_exits_two(tmp_path, capsys):
    sys_path = tmp_path / "l51.json"
    ser.save_system(fk.lemma51(12), sys_path)
    code, _, err = run_cli(
        capsys,
        "extract",
        "--in",
        str(sys_path),
        "--mode",
        "frame",
        "--eps",
        "0.25",
        "--delta",
        "nan",
        "--out",
        str(tmp_path / "trace.json"),
    )
    assert code == 2
    assert json.loads(err)["error"] == "InfeasibleDelta"


def test_sweep_nan_delta_exits_two(tmp_path, capsys):
    plan = {
        "generator": {"kind": "lemma51", "n": 12},
        "sweep": {"name": "n", "values": [12]},
        "extract": {"mode": "frame", "eps": 0.25, "delta": float("nan")},
        "out": str(tmp_path / "sweep.csv"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    assert "NaN" in plan_path.read_text()
    code, _, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 2
    assert json.loads(err)["error"] == "InfeasibleDelta"


@pytest.mark.parametrize("delta", ["-5", "nan", "0.1"])
def test_extract_and_sweep_refuse_a_delta_in_biorthogonal_mode(tmp_path, capsys, delta):
    refusal = {"error": "BadParameter", "message": "delta applies to frame mode only"}
    sys_path, trace = tmp_path / "pp.json", tmp_path / "trace.json"
    ser.save_system(fk.perturbed_pairs(6), sys_path)
    argv = ("--in", str(sys_path), "--mode", "biorthogonal", "--eps", "0.25", "--delta", delta)
    code, out, err = run_cli(capsys, "extract", *argv, "--out", str(trace))
    assert (code, out, json.loads(err)) == (2, "", refusal)
    assert not trace.exists()
    plan = {
        "generator": {"kind": "perturbedPairs", "n": 6},
        "sweep": {"name": "n", "values": [6]},
        "extract": {"mode": "biorthogonal", "eps": 0.25, "delta": float(delta)},
        "out": str(tmp_path / "sweep.csv"),
    }
    (tmp_path / "plan.json").write_text(json.dumps(plan))
    code, out, err = run_cli(capsys, "sweep", "--plan", str(tmp_path / "plan.json"))
    assert (code, out, json.loads(err)) == (2, "", refusal)
    assert not (tmp_path / "sweep.csv").exists()


@pytest.mark.parametrize(
    "spec",
    [
        {"kind": "lemma52Block", "k": 1, "eps": "0.5"},
        {"kind": "randomFrame", "n": 2, "m": 3, "cond": True},
    ],
)
def test_gen_float_parameter_refuses_strings_and_flags(tmp_path, capsys, spec):
    code, out, err = run_cli(
        capsys, "gen", "--spec", json.dumps(spec), "--out", str(tmp_path / "out.json")
    )
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BadParameter"
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("field, value", [("eps", "0.25"), ("c", True), ("delta", "0.5")])
def test_sweep_float_field_refuses_strings_and_flags(tmp_path, capsys, field, value):
    plan = {
        "generator": {"kind": "orthonormal", "n": 4},
        "sweep": {"name": "n", "values": [4]},
        "extract": {"mode": "frame", "eps": 0.25, field: value},
        "out": str(tmp_path / "sweep.csv"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, _, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert code == 2
    assert json.loads(err) == {
        "error": "SchemaError", "message": f"sweep plan: field {field!r} got {value!r}"
    }
    assert not (tmp_path / "sweep.csv").exists()


# ---------------------------------------------------------------------------
# analyze reads the frame bounds off the singular values of basis_metrics


def _analyze_specs():
    """perfbench's ANALYZE_SPECS, the systems of the analyze-bases workload."""
    path = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[spec.name]
    return {f"bench-{name}": doc for name, doc in module.ANALYZE_SPECS}


ANALYZE_SYSTEMS = {
    # one system per gallery kind
    "orthonormal": lambda: fk.orthonormal(5),
    "lemma51": lambda: fk.lemma51(12),
    "duplicated": lambda: fk.duplicated(3),
    "duplicated-doubleAmbient": lambda: fk.duplicated(3, True),
    "perturbedPairs": lambda: fk.perturbed_pairs(5),
    "weightedExponentials": lambda: fk.weighted_exponentials(0.4, 8, "+"),
    "lemma52Block": lambda: fk.lemma52_block(1, 0.5),
    "prop53Truncation": lambda: fk.prop53_truncation(1, [0.3]),
    "randomFrame": lambda: fk.random_frame(6, 12, 1),
    "randomFrame-cond1e6": lambda: fk.random_frame(30, 60, 1, 1e6),
    # count < dim: A is exactly 0
    "orthonormal-part": lambda: fk.orthonormal(5).subsystem(range(3)),
    "randomFrame-part": lambda: fk.random_frame(6, 12, 1).subsystem(range(4)),
    **{f"real-{name}": build for name, build in REAL_SYSTEMS.items()},
    **{
        name: (lambda doc=doc: fk.generate(ser.gallery_spec_from_json(doc)))
        for name, doc in _analyze_specs().items()
    },
}


@pytest.mark.parametrize("name", sorted(ANALYZE_SYSTEMS))
def test_analyze_frame_report_matches_frame_report(name, tmp_path, capsys):
    system = ANALYZE_SYSTEMS[name]()
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    code, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert (code, err) == (0, "")
    got = json.loads(out)["frame_report"]
    expected = json.loads(ser.dumps(ser.report_to_json(fk.frame_report(system))))
    # eigvalsh of the formed S errs in A by eps * kappa^2, relative to B
    bound = 64 * system.dim * np.finfo(float).eps * expected["upper_bound"]
    assert abs(got["lower_bound"] - expected["lower_bound"]) <= bound
    assert abs(got["upper_bound"] - expected["upper_bound"]) <= bound
    exact = ("min_norm", "max_norm", "is_tight", "is_spanning", "tolerance")
    assert {key: got[key] for key in exact} == {key: expected[key] for key in exact}
    assert got.keys() == expected.keys()
    if system.count < system.dim:
        assert got["lower_bound"] == 0.0


@pytest.fixture
def factorization_calls(monkeypatch):
    """(name, operand shape) of every numpy.linalg / scipy.linalg factorization call."""
    calls = []
    for module, names in FACTORIZATIONS.items():
        for name in names:
            def counted(*args, _name=name, _original=getattr(module, name), **kwargs):
                calls.append((_name, np.shape(args[0])))
                return _original(*args, **kwargs)

            monkeypatch.setattr(module, name, counted)
    return calls


@pytest.fixture
def formed_operators(monkeypatch):
    """The dim of every system whose frame operator core.frame_operator forms."""
    calls = []

    def counted(system, _original=fk.core.frame_operator):
        calls.append(system.dim)
        return _original(system)

    monkeypatch.setattr(fk.core, "frame_operator", counted)
    return calls


def test_analyze_factors_the_columns_once(tmp_path, capsys, factorization_calls, formed_operators):
    system = fk.generate(fk.GallerySpec("prop53Truncation", {"M": 2, "epsilons": [0.2, 0.2]}))
    assert (system.dim, system.count) == (165, 332)
    formed_operators.clear()
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    factorization_calls.clear()
    code, _, err = run_cli(capsys, "analyze", "--in", str(path))
    assert (code, err) == (0, "")
    assert factorization_calls == [("svd", (165, 332))]
    assert formed_operators == []


def test_analyze_of_a_basis_makes_no_eigensolve_of_its_frame_operator(
    tmp_path, capsys, factorization_calls, formed_operators
):
    system = fk.perturbed_pairs(5)
    assert (system.dim, system.count) == (10, 10)
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    factorization_calls.clear()
    code, _, err = run_cli(capsys, "analyze", "--in", str(path))
    assert (code, err) == (0, "")
    assert ("eigvalsh", (10, 10)) not in factorization_calls
    assert ("eigh", (10, 10)) not in factorization_calls
    assert formed_operators == []


# sqrt(DBL_MAX) is about 1.3408e154: sigma_max^2 of diag(entry, 1) overflows a double
# for the first two entries and is finite, just below DBL_MAX, for the third
@pytest.mark.parametrize("entry, code", [(1e300, 2), (1.35e154, 2), (1.34e154, 0)])
def test_analyze_refuses_a_frame_bound_past_the_largest_double(tmp_path, capsys, entry, code):
    path = tmp_path / "system.json"
    ser.save_system(fk.VectorSystem(np.array([[entry, 0.0], [0.0, 1.0]])), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, out, err = run_cli(capsys, "analyze", "--in", str(path))
    assert got == code
    if code:
        assert out == "" and err.count("\n") == 1
        diagnostic = json.loads(err)
        assert diagnostic["error"] == "BadParameter"
        assert "sigma_max^2 is not a finite double" in diagnostic["message"]
    else:
        assert err == ""
        doc = json.loads(out)
        assert doc["frame_report"]["upper_bound"] == doc["basis_metrics"]["singular_values"][0] ** 2


def overflowing_system():
    """A 3x4 real system with one entry 1e300: its frame operator S overflows."""
    rng = np.random.default_rng(1)
    n = int(rng.integers(2, 5))
    m = int(rng.integers(n, n + 3))
    cols = rng.standard_normal((n, m))
    cols[1, 3] = 1e300
    return fk.VectorSystem(cols)


@pytest.mark.parametrize("mode", ["frame", "biorthogonal"])
def test_extract_diagnoses_a_frame_operator_past_the_largest_double(tmp_path, capsys, mode):
    system = overflowing_system()
    assert (system.dim, system.count) == (3, 4)
    path, trace = tmp_path / "system.json", tmp_path / "trace.json"
    ser.save_system(system, path)
    argv = ("extract", "--in", str(path), "--mode", mode, "--eps", "0.25", "--out", str(trace))
    with np.errstate(over="ignore"):  # forming S overflows; the check of S diagnoses it
        code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == ""
    diagnostic = json.loads(err.splitlines()[-1])
    assert set(diagnostic) == {"error", "message"}
    if mode == "frame":
        assert diagnostic["error"] == "BadParameter"
        assert "not a finite double" in diagnostic["message"]
    assert not trace.exists()


# a one-vector system with the complex entry 1e300 + 0.06i, drawn by the fuzz test
DRAWN_OVERFLOW_TEXT = (
    '{"v": 1, "dim": 3, "count": 1, "columns": [[1e+300, 0.06261587751175876], '
    "[-0.16519016568439276, -0.2257110813270981], "
    "[-0.16796939015046086, 0.2969227725915538]]}"
)


def test_biorthogonal_extract_refuses_a_frame_bound_past_the_largest_double(tmp_path, capsys):
    path, trace = tmp_path / "system.json", tmp_path / "trace.json"
    path.write_text(DRAWN_OVERFLOW_TEXT)
    argv = ("extract", "--in", str(path), "--mode", "biorthogonal", "--eps", "0.25")
    code, out, err = run_cli(capsys, *argv, "--out", str(trace))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "BadParameter",
        "message": "upper frame bound sigma_max^2 is not a finite double (sigma_max = 1e+300)",
    }
    assert not trace.exists()


@pytest.mark.parametrize("method", ["greedy", "exhaustive"])
def test_select_refuses_a_squared_column_norm_past_the_largest_double(tmp_path, capsys, method):
    path = tmp_path / "system.json"
    ser.save_system(overflowing_system(), path)
    code, out, err = run_cli(capsys, "select", "--in", str(path), "--size", "2", "--method", method)
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "BadParameter",
        "message": "a squared column norm is not a finite double",
    }


@pytest.mark.parametrize(
    "command",
    [
        ("analyze",),
        ("extract", "--mode", "frame", "--eps", "0.25"),
        ("extract", "--mode", "biorthogonal", "--eps", "0.25"),
        ("select", "--method", "greedy", "--size", "1"),
        ("select", "--method", "exhaustive", "--size", "1"),
        ("verify-lemmas",),
    ],
    ids=lambda command: "-".join(a for a in command if a[0] != "-" and a[0] not in "0123456789"),
)
@pytest.mark.parametrize("drawn", [True, False], ids=["drawn-3x1", "overflowing-3x4"])
def test_an_overflowing_system_gets_one_diagnostic_line_and_no_warning(
    tmp_path, capsys, command, drawn
):
    path = tmp_path / "system.json"
    if drawn:
        path.write_text(DRAWN_OVERFLOW_TEXT)
    else:
        ser.save_system(overflowing_system(), path)
    argv = [*command, "--in", str(path)]
    if command[0] == "extract":
        argv += ["--out", str(tmp_path / "trace.json")]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.count("\n") == 1
    assert set(json.loads(err)) == {"error", "message"}


def test_biorthogonal_extract_of_a_thin_basis_certifies_infinity(tmp_path, capsys):
    # b = c d^2 / L^2 is about 2.5e-20, so 1 - b rounds to 1 and no round count reaches eps
    path, trace = tmp_path / "system.json", tmp_path / "trace.json"
    ser.save_system(fk.VectorSystem(np.array([[1.0, 1.0], [0.0, 1e-9]])), path)
    argv = ("extract", "--in", str(path), "--mode", "biorthogonal", "--eps", "0.25")
    code, out, err = run_cli(capsys, *argv, "--out", str(trace))
    assert (code, err) == (0, "")
    summary = json.loads(out)
    assert (summary["subset_size"], summary["stop_reason"]) == (2, "coverage_reached")
    assert summary["riesz_constant"] == pytest.approx(1414213562.37)
    assert json.loads(trace.read_text())["parameters"]["theoretical_bound"] == "inf"


@pytest.mark.parametrize("canonical,factored", [(False, 1), (True, 2)])
def test_verify_lemmas_factors_each_frame_operator_exactly_once(
    tmp_path, capsys, factorization_shapes, canonical, factored
):
    # one eigh of S gives the counting bounds and S^-1; --canonical adds the one
    # eigh of the transformed system's frame operator behind its tightness check
    system = fk.generate(fk.GallerySpec("prop53Truncation", {"M": 2, "epsilons": [0.2, 0.2]}))
    assert (system.dim, system.count) == (165, 332)
    path = tmp_path / "system.json"
    ser.save_system(system, path)
    factorization_shapes.clear()
    flags = ("--canonical",) if canonical else ()
    code, _, err = run_cli(capsys, "verify-lemmas", "--in", str(path), *flags)
    assert (code, err) == (0, "")
    assert factorization_shapes == [(165, 165)] * factored


# At 1e-160 the eigenvalues of S^-1 overflow; at 10**-153.6 they are finite,
# but entries of S^-1 pass the largest double when it is symmetrized.
@pytest.mark.parametrize("scale", [1e-160, 10**-153.6], ids=["1e-160", "1e-153.6"])
def test_verify_lemmas_refuses_an_inverse_frame_operator_past_the_double_range(
    tmp_path, capsys, scale
):
    path = tmp_path / "system.json"
    ser.save_system(fk.VectorSystem(fk.random_frame(6, 12, 1, 10.0).columns * scale), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code, out, err = run_cli(capsys, "verify-lemmas", "--in", str(path), "--canonical")
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "BadParameter",
        "message": "S^-1 has an entry that is not a finite double",
    }


def test_verify_lemmas_fails_a_residual_that_is_not_a_number(tmp_path, capsys, monkeypatch):
    def nan_reconstruction(system, s_inv, vec, _original=fk.cli._dual_reconstruct):
        dual = _original(system, s_inv, vec)
        nan = np.nan
        return fk.DualReconstruction(dual.coefficients * nan, dual.reconstruction * nan, nan)

    monkeypatch.setattr(fk.cli, "_dual_reconstruct", nan_reconstruction)
    path = tmp_path / "system.json"
    ser.save_system(fk.lemma51(6), path)
    code, out, err = run_cli(capsys, "verify-lemmas", "--in", str(path))
    assert (code, err) == (1, "")
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    for name in ("dual_reconstruction", "dual_energy_identity"):
        assert (checks[name]["ok"], checks[name]["value"]) == (False, "inf")


@pytest.mark.parametrize("sign", ["true", "false"])
def test_gen_refuses_a_flag_for_the_sign(tmp_path, capsys, sign):
    spec = f'{{"kind": "weightedExponentials", "a": 0.25, "N": 3, "sign": {sign}}}'
    code, out, err = run_cli(capsys, "gen", "--spec", spec, "--out", str(tmp_path / "out.json"))
    assert (code, out) == (2, "")
    assert json.loads(err) == {
        "error": "BadParameter",
        "message": f"sign must be one of +1/-1/'+'/'-', got {sign.title()}",
    }
    assert not (tmp_path / "out.json").exists()


@pytest.mark.parametrize("value", [2, "x", True, 1.0])
def test_gen_and_sweep_refuse_a_version_other_than_one(tmp_path, capsys, value):
    spec = json.dumps({"v": value, "kind": "orthonormal", "n": 4})
    code, out, err = run_cli(capsys, "gen", "--spec", spec, "--out", str(tmp_path / "out.json"))
    diagnostic = {"error": "SchemaError", "message": f"field 'v': expected 1, got {value!r}"}
    assert (code, out, json.loads(err)) == (2, "", diagnostic)
    plan = {
        "v": value,
        "generator": {"kind": "orthonormal", "n": 4},
        "sweep": {"name": "n", "values": [4]},
        "extract": {"mode": "frame", "eps": 0.25},
        "out": str(tmp_path / "sweep.csv"),
    }
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan))
    code, out, err = run_cli(capsys, "sweep", "--plan", str(plan_path))
    assert (code, out, json.loads(err)) == (2, "", diagnostic)
    assert not (tmp_path / "sweep.csv").exists()
