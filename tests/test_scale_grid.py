"""Every command on scaled systems: a result or one JSON diagnostic, never a traceback.

A frame scaled by s has the geometry of the unscaled one, but its bounds scale
by s^2 and their squares by s^4, which leave the double range long before the
entries do.  These tests run the CLI on systems scaled by 10^k across the
whole double range, subnormals included, without Hypothesis.
"""
import json
import warnings

import pytest

import framekit as fk
from framekit import cli
from framekit import serialization as ser
from framekit.cli import main

SCALED = {
    "lemma51": fk.lemma51(6),
    "pairs": fk.perturbed_pairs(4),
    "random": fk.random_frame(4, 8, 1),
}
EXPONENTS = [-320, -310, -160, -150, -100, -80, -60, -20, 0, 20, 60, 80, 150, 155, 300]
COMMANDS = [
    ("analyze",),
    ("verify-lemmas", "--canonical"),
    ("select", "--method", "greedy", "--size", "3"),
    ("select", "--method", "exhaustive", "--size", "3"),
    ("extract", "--mode", "frame", "--eps", "0.25"),
    ("extract", "--mode", "biorthogonal", "--eps", "0.25"),
]


def strict_loads(text):
    """json.loads that refuses the non-standard tokens NaN, Infinity and -Infinity."""

    def refuse(token):
        raise ValueError(f"non-standard JSON token {token}")

    return json.loads(text, parse_constant=refuse)


def run(capsys, tmp_path, command, system):
    """(exit code, stdout, stderr, trace text or None) of one CLI call on system.

    A warning is written to stderr in a CLI process, so each one counts as a
    line of stderr here.
    """
    path, trace = tmp_path / "system.json", tmp_path / "trace.json"
    ser.save_system(system, path)
    trace.unlink(missing_ok=True)
    argv = [*command, "--in", str(path)]
    if command[0] == "extract":
        argv += ["--out", str(trace)]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = main(argv)
    captured = capsys.readouterr()
    stderr = captured.err + "".join(f"{w.category.__name__}: {w.message}\n" for w in caught)
    return code, captured.out, stderr, trace.read_text() if trace.exists() else None


def assert_result_or_one_diagnostic(code, out, err, trace):
    if code == 2:
        assert out == "" and trace is None
        assert err.count("\n") == 1
        assert set(strict_loads(err)) == {"error", "message"}
    else:
        # exit 1 is verify-lemmas' failed check, reported on stdout like a pass
        assert code in (0, 1) and err == ""
        strict_loads(out)
        if trace is not None:
            strict_loads(trace)


@pytest.mark.parametrize("k", EXPONENTS)
@pytest.mark.parametrize("name", SCALED)
def test_every_command_on_a_scaled_system_gives_a_result_or_one_diagnostic(
    tmp_path, capsys, name, k
):
    system = fk.VectorSystem(SCALED[name].columns * float(f"1e{k}"))
    for command in COMMANDS:
        code, out, err, trace = run(capsys, tmp_path, command, system)
        assert_result_or_one_diagnostic(code, out, err, trace)


@pytest.mark.parametrize("k", [-240, -176, 176, 240])
@pytest.mark.parametrize("name", SCALED)
def test_frame_extract_is_exact_under_power_of_two_scaling(tmp_path, name, k):
    plain = fk.extract_frame(SCALED[name], 0.25)
    scaled = fk.extract_frame(fk.VectorSystem(SCALED[name].columns * 2.0**k), 0.25)
    assert scaled.final_subset == plain.final_subset
    assert len(scaled.rounds) == len(plain.rounds)
    assert scaled.stop_reason == plain.stop_reason
    # multiplying by a power of two is exact, so the first round's norms are too
    assert scaled.rounds[0].residual_norms == tuple(
        x * 2.0**k for x in plain.rounds[0].residual_norms
    )
    ser.save_trace(scaled, tmp_path / "trace.json")
    strict_loads((tmp_path / "trace.json").read_text())


@pytest.mark.parametrize(
    "system, k",
    [(fk.VectorSystem([[7.76]]), 260)] + [(fk.lemma51(6), k) for k in (-300, 260, 300)],
    ids=["1x1-260", "lemma51-minus300", "lemma51-260", "lemma51-300"],
)
def test_default_delta_scales_with_the_system(system, k):
    # eps A alpha^2 scales by 2^(4k), past the double range at k = -300 and 260;
    # delta itself scales by 2^k
    plain = fk.extract_frame(system, 0.25)
    scaled = fk.extract_frame(fk.VectorSystem(system.columns * 2.0**k), 0.25)
    assert scaled.stop_reason == "coverage_reached"
    assert len(scaled.final_subset) >= scaled.parameters["target"]
    assert scaled.final_subset == plain.final_subset
    assert scaled.parameters["delta"] / 2.0**k == pytest.approx(
        plain.parameters["delta"], rel=1e-14, abs=0.0
    )


def test_default_delta_out_of_the_double_range_is_refused_by_name():
    # A = B = 1 and alpha^2 = 2^-1072, so eps A alpha^2 / (2 B) = 2^-1075, which
    # rounds to 0.0
    system = fk.VectorSystem([[1.0, 2.0**-536]])
    with pytest.raises(fk.BadParameter, match="default delta is not a positive finite double"):
        fk.extract_frame(system, 0.25)


@pytest.mark.parametrize("delta, code", [("1e200", 2), ("1e155", 2), ("1e-200", 0)])
def test_extreme_delta_gives_a_trace_or_one_diagnostic(tmp_path, capsys, delta, code):
    command = ("extract", "--mode", "frame", "--eps", "0.25", "--c", "0.8", "--delta", delta)
    got = run(capsys, tmp_path, command, fk.lemma51(6))
    assert_result_or_one_diagnostic(*got)
    assert got[0] == code
    if code:
        assert json.loads(got[2]) == {
            "error": "InfeasibleDelta",
            "message": f"delta {float(delta):.6g} violates the feasibility inequality",
        }
    else:
        # rule 2 divides by delta^2, which is 0.0 in doubles: every round after the first reads inf
        rounds = json.loads(got[3])["rounds"]
        assert len(rounds) > 1
        assert all(r["rule2_lower_bound"] == "inf" for r in rounds[1:])


def test_an_eigensolver_failure_is_one_diagnostic(tmp_path, capsys):
    # subnormal entries: eigvalsh inside the Schauder constant does not converge
    system = fk.VectorSystem(fk.perturbed_pairs(4).columns * 1e-310)
    code, out, err, _ = run(capsys, tmp_path, ("analyze",), system)
    assert (code, out) == (2, "")
    assert json.loads(err) == {"error": "LinAlgError", "message": "Eigenvalues did not converge"}


def test_extract_and_sweep_look_up_the_extract_functions_when_they_run(
    tmp_path, capsys, monkeypatch
):
    calls = []
    for name in ("extract_frame", "extract_biorthogonal"):
        def counted(*args, _original=getattr(cli, name), _name=name):
            calls.append(_name)
            return _original(*args)

        monkeypatch.setattr(cli, name, counted)
    for mode in ("frame", "biorthogonal"):
        command = ("extract", "--mode", mode, "--eps", "0.25")
        assert run(capsys, tmp_path, command, fk.orthonormal(4))[0] == 0
        plan = {
            "generator": {"kind": "orthonormal", "n": 4},
            "sweep": {"name": "n", "values": [4]},
            "extract": {"mode": mode},
            "out": str(tmp_path / "sweep.csv"),
        }
        (tmp_path / "plan.json").write_text(json.dumps(plan))
        assert main(["sweep", "--plan", str(tmp_path / "plan.json")]) == 0
    assert calls == ["extract_frame"] * 2 + ["extract_biorthogonal"] * 2
