"""Smoke tests: the experiment scripts run end to end at small sizes."""
import csv
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return subprocess.run(
        [sys.executable, str(ROOT / "scripts" / name), *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )


def test_dimension_sweep_script(tmp_path):
    out = tmp_path / "sweep.csv"
    proc = run_script(
        "dimension_sweep.py", "--sizes", "20", "40", "--eps", "0.25", "--out", str(out)
    )
    assert proc.returncode == 0, proc.stderr
    with out.open(newline="") as handle:
        rows = list(csv.DictReader(handle))
    assert [row["swept_value"] for row in rows] == ["20", "40"]
    assert "max/min certified constant ratio" in proc.stdout


def test_exponential_dichotomy_script():
    proc = run_script("exponential_dichotomy.py", "--a", "0.25", "--sizes", "8", "16")
    assert proc.returncode == 0, proc.stderr
    table = [line.split() for line in proc.stdout.splitlines()[1:]]
    # one row per size for each sign
    signs_and_sizes = [(row[0], row[1]) for row in table]
    assert signs_and_sizes == [("-", "8"), ("-", "16"), ("+", "8"), ("+", "16")]


def test_code_lines_script_total_is_the_sum_of_the_modules():
    proc = run_script("code_lines.py")
    assert proc.returncode == 0, proc.stderr
    rows = [line.split() for line in proc.stdout.splitlines()]
    *modules, (total, label) = rows
    assert label == "total"
    assert {name for _, name in modules} == {p.name for p in (ROOT / "src" / "framekit").glob("*.py")}
    assert all(int(count) > 0 for count, _ in modules)
    assert int(total) == sum(int(count) for count, _ in modules)


def test_unexecuted_lines_script_lists_existing_statements():
    proc = run_script("unexecuted_lines.py", str(ROOT / "tests" / "test_imports.py"), "-q",
                      "-p", "no:cacheprovider")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    *lines, last = proc.stdout.splitlines()
    total, label = last.split(" ", 1)
    assert label == "statements never executed"
    listed = [line for line in lines if re.match(r"\w+\.py:\d+: ", line)]
    assert len(listed) == int(total) > 0
    for line in listed:
        location, source = line.split(": ", 1)
        name, number = location.split(":")
        text = (ROOT / "src" / "framekit" / name).read_text().splitlines()
        assert text[int(number) - 1].strip() == source


def test_peak_rss_script_prints_one_positive_number_per_command(tmp_path):
    system = shlex.quote(str(tmp_path / "system.json"))
    commands = [
        f"""gen --spec '{{"kind": "lemma51", "n": 4}}' --out {system}""",
        f"analyze --in {system}",
        f"verify-lemmas --in {system}",
    ]
    proc = run_script("peak_rss.py", *commands)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == len(commands)
    for line, command in zip(lines, commands):
        megabytes, unit, exit_word, code, rest = line.split(None, 4)
        assert float(megabytes) > 0 and unit == "MB"
        assert (exit_word, code, rest) == ("exit", "0", command)
