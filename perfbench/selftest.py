"""Self-tests of the benchmark itself.

    python3 perfbench/selftest.py

Shows that the output checker flags doctored outputs, that two traced runs with
one seed give identical counts, and that the benchmark refuses to run without a
framekit source tree.  Prints one line per test; exits 1 if any test fails.
"""
from __future__ import annotations

import io
import json
import shutil
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work" / "selftest"
sys.path.insert(0, str(ROOT / "src"))

import framekit.cli as cli  # noqa: E402
from checks import check_analyze, check_trace  # noqa: E402


def _cli(*argv: str) -> str:
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(list(argv))
    if code != 0:
        raise RuntimeError(f"framekit {' '.join(argv)} exited {code}")
    return out.getvalue()


def test_doctored_trace_is_flagged():
    system, trace = WORK / "lemma51.json", WORK / "lemma51.trace.json"
    _cli("gen", "--spec", '{"kind": "lemma51", "n": 12}', "--out", str(system))
    _cli("extract", "--in", str(system), "--mode", "frame", "--eps", "0.25", "--out", str(trace))
    doc = json.loads(trace.read_text())
    assert check_trace(doc) == [], check_trace(doc)
    target = doc["parameters"]["target"]
    doc["final_subset"] = doc["final_subset"][: target - 1]
    problems = check_trace(doc)
    assert any("below target" in p for p in problems), problems
    doc["final_subset"] = list(range(target))
    doc["final_riesz_constant"] = "inf"
    assert any("not finite" in p for p in check_trace(doc))


def test_doctored_analyze_is_flagged():
    system = WORK / "lemma51-analyze.json"
    _cli("gen", "--spec", '{"kind": "lemma51", "n": 6}', "--out", str(system))
    doc = json.loads(_cli("analyze", "--in", str(system)))
    dim, count = 6, 7  # lemma51(n) is n + 1 vectors in C^n
    assert check_analyze(doc, dim, count) == [], check_analyze(doc, dim, count)
    metrics = doc["basis_metrics"]
    increasing = json.loads(json.dumps(doc))
    increasing["basis_metrics"]["singular_values"] = sorted(metrics["singular_values"])
    assert any("nonincreasing" in p for p in check_analyze(increasing, dim, count))
    wrong_riesz = json.loads(json.dumps(doc))
    wrong_riesz["basis_metrics"]["riesz"] = metrics["hilbertian"] * 0.5
    assert any("max(hilbertian" in p for p in check_analyze(wrong_riesz, dim, count))
    separated = json.loads(json.dumps(doc))
    separated["basis_metrics"]["separation"] = 0.5
    assert any("separation" in p for p in check_analyze(separated, dim, count))


def _bench(cwd: Path, *extra: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *extra], cwd=cwd, capture_output=True, text=True, timeout=600,
    )


def test_traced_counts_repeat():
    args = ("--workload", "extract-sweep", "--seed", "5", "--seconds", "1", "--trace", "1")
    counts = []
    for _ in range(2):
        done = _bench(ROOT, *args)
        assert done.returncode == 0, done.stderr
        result = json.loads(done.stdout.strip().splitlines()[-1])
        assert result["correct"], result
        metrics = result["metrics"]
        counts.append({k: v["value"] for k, v in metrics.items() if v["unit"] in ("count", "bytes", "ratio", "MB_computed")})
    assert counts[0] == counts[1], {k: (v, counts[1][k]) for k, v in counts[0].items() if counts[1][k] != v}
    assert counts[0]["selection.picks"] > 0 and counts[0]["extraction.rounds"] > 0


def test_refuses_without_source_tree():
    bare = WORK / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(HERE, bare / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
    done = _bench(bare, "--workload", "large-io", "--seed", "1", "--seconds", "1", "--trace", "0")
    assert done.returncode != 0 and not done.stdout.strip(), (done.returncode, done.stdout)


def main() -> int:
    WORK.mkdir(parents=True, exist_ok=True)
    failed = 0
    try:
        for name, test in list(globals().items()):
            if not name.startswith("test_"):
                continue
            try:
                test()
                print(f"PASS {name}")
            except AssertionError as exc:
                failed += 1
                print(f"FAIL {name}: {exc}")
    finally:
        shutil.rmtree(WORK, ignore_errors=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
